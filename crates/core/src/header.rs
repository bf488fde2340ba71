//! The database header: page 0 of the data device, one 4096-byte block
//! (FORMAT.md §1.1), and the free map it names (FORMAT.md §1.2). The only
//! place that knows their byte layouts — `Database` writes both at
//! creation and on every checkpoint and reads them on open; the sharded
//! engine's pre-scan reads and rewrites the cross-commit fields before any
//! shard recovers. Every header this code accepts names a map: versions 1
//! and 2, which did not, are refused.

use lobster_extent::{ExtentSpec, TierPolicy};
use lobster_sha256::Sha256;
use lobster_storage::Device;
use lobster_types::{read_u32, read_u64, Error, Pid, Result};

const LEN: usize = 4096;
const MAGIC: u32 = 0x4C42_4442; // "LBDB"
/// Version 3: the header names the free map of its checkpoint. Versions 1
/// and 2 had the same block layout without it and are refused.
const VERSION: u32 = 3;
const XCOMMIT_ABOVE_OFF: usize = 50;
/// Most committed-above-watermark gtxns the header holds.
pub(crate) const XCOMMIT_ABOVE_CAP: usize = 500;
/// The free-map reference, past the cross-commit sidecar.
const MAP_OFF: usize = 4056;
const MAP_MAGIC: u32 = 0x4C42_464D; // "LBFM"

/// Where a checkpoint left the allocator's free runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct MapRef {
    /// The extent holding the encoded map.
    pub extent: ExtentSpec,
    /// Its encoded length in bytes.
    pub len: u64,
    /// The log epoch that starts at this checkpoint: a log of any other
    /// epoch was not truncated by it, so its records may predate the map.
    pub log_epoch: u32,
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Header {
    pub page_size: usize,
    pub tier_policy: TierPolicy,
    pub catalog_root: Pid,
    pub node_pages: u64,
    /// Every gtxn `<=` this is globally durable (see `shard.rs`).
    pub xcommit_watermark: u64,
    /// Committed gtxns above the watermark, at most [`XCOMMIT_ABOVE_CAP`].
    pub xcommit_above: Vec<u64>,
    /// The free map of the last checkpoint.
    pub map: MapRef,
}

impl Header {
    pub fn decode(block: &[u8]) -> Result<Header> {
        if block.len() < LEN || read_u32(block) != MAGIC {
            return Err(Error::Corruption("bad database magic".into()));
        }
        match read_u32(&block[4..]) {
            VERSION => {}
            1 | 2 => return Err(Error::Unsupported("format version 1 or 2: no free map")),
            v => return Err(Error::Corruption(format!("unknown format version {v}"))),
        }
        let tier_policy = match block[12] {
            0 => TierPolicy::Paper {
                tiers_per_level: read_u32(&block[13..]),
                levels: read_u32(&block[17..]),
            },
            1 => TierPolicy::PowerOfTwo,
            2 => TierPolicy::Fibonacci,
            t => return Err(Error::Corruption(format!("bad tier tag {t}"))),
        };
        let count = read_u32(&block[46..]) as usize;
        if count > XCOMMIT_ABOVE_CAP {
            return Err(Error::Corruption(format!(
                "cross-commit sidecar count {count} exceeds capacity"
            )));
        }
        let map_pid = read_u64(&block[MAP_OFF..]);
        if map_pid == 0 {
            return Err(Error::Corruption("header names no free map".into()));
        }
        Ok(Header {
            page_size: read_u32(&block[8..]) as usize,
            tier_policy,
            catalog_root: Pid::new(read_u64(&block[22..])),
            node_pages: read_u64(&block[30..]),
            xcommit_watermark: read_u64(&block[38..]),
            xcommit_above: (0..count)
                .map(|i| read_u64(&block[XCOMMIT_ABOVE_OFF + 8 * i..]))
                .collect(),
            map: MapRef {
                extent: ExtentSpec::new(Pid::new(map_pid), read_u64(&block[MAP_OFF + 8..])),
                len: read_u64(&block[MAP_OFF + 16..]),
                log_epoch: read_u32(&block[MAP_OFF + 24..]),
            },
        })
    }

    pub fn encode(&self) -> Vec<u8> {
        assert!(self.xcommit_above.len() <= XCOMMIT_ABOVE_CAP);
        let mut block = vec![0u8; LEN];
        block[0..4].copy_from_slice(&MAGIC.to_le_bytes());
        block[4..8].copy_from_slice(&VERSION.to_le_bytes());
        block[8..12].copy_from_slice(&(self.page_size as u32).to_le_bytes());
        let (tag, tiers_per_level, levels) = match self.tier_policy {
            TierPolicy::Paper {
                tiers_per_level,
                levels,
            } => (0u8, tiers_per_level, levels),
            TierPolicy::PowerOfTwo => (1, 0, 0),
            TierPolicy::Fibonacci => (2, 0, 0),
        };
        block[12] = tag;
        block[13..17].copy_from_slice(&tiers_per_level.to_le_bytes());
        block[17..21].copy_from_slice(&levels.to_le_bytes());
        // Reserved: once the store-wide tail-extent switch, now always 1.
        // Placement is read from each Blob State, so decode ignores it.
        block[21] = 1;
        block[22..30].copy_from_slice(&self.catalog_root.raw().to_le_bytes());
        block[30..38].copy_from_slice(&self.node_pages.to_le_bytes());
        block[38..46].copy_from_slice(&self.xcommit_watermark.to_le_bytes());
        block[46..50].copy_from_slice(&(self.xcommit_above.len() as u32).to_le_bytes());
        for (slot, g) in block[XCOMMIT_ABOVE_OFF..]
            .chunks_exact_mut(8)
            .zip(&self.xcommit_above)
        {
            slot.copy_from_slice(&g.to_le_bytes());
        }
        let map = &self.map;
        block[MAP_OFF..MAP_OFF + 8].copy_from_slice(&map.extent.start.raw().to_le_bytes());
        block[MAP_OFF + 8..MAP_OFF + 16].copy_from_slice(&map.extent.pages.to_le_bytes());
        block[MAP_OFF + 16..MAP_OFF + 24].copy_from_slice(&map.len.to_le_bytes());
        block[MAP_OFF + 24..MAP_OFF + 28].copy_from_slice(&map.log_epoch.to_le_bytes());
        block
    }

    pub fn read(device: &dyn Device) -> Result<Header> {
        let mut block = vec![0u8; LEN];
        device.read_at(&mut block, 0)?;
        Header::decode(&block)
    }

    /// Write the block; making it durable is the caller's `sync`.
    pub fn write(&self, device: &dyn Device) -> Result<()> {
        device.write_at(&self.encode(), 0)
    }
}

/// Encode free runs (sorted by start, disjoint) as a free map: magic,
/// run count, `(start pid, pages)` per run, and the first 8 bytes of the
/// SHA-256 of everything before them.
pub(crate) fn encode_map(runs: &[ExtentSpec]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + 16 * runs.len());
    out.extend_from_slice(&MAP_MAGIC.to_le_bytes());
    out.extend_from_slice(&(runs.len() as u32).to_le_bytes());
    for run in runs {
        out.extend_from_slice(&run.start.raw().to_le_bytes());
        out.extend_from_slice(&run.pages.to_le_bytes());
    }
    let sum = Sha256::digest(&out);
    out.extend_from_slice(&sum[..8]);
    out
}

/// Decode a free map, checking it before anything trusts it: the length,
/// magic and checksum match, and the runs are non-empty, sorted, disjoint
/// and inside pages `[1, page_capacity)`.
pub(crate) fn decode_map(bytes: &[u8], page_capacity: u64) -> Result<Vec<ExtentSpec>> {
    let bad = |what: &str| Error::Corruption(format!("free map: {what}"));
    if bytes.len() < 16 || read_u32(bytes) != MAP_MAGIC {
        return Err(bad("bad magic"));
    }
    let count = read_u32(&bytes[4..]) as usize;
    let body = 8 + 16 * count;
    if bytes.len() != body + 8 {
        return Err(bad("length does not match the run count"));
    }
    if Sha256::digest(&bytes[..body])[..8] != bytes[body..] {
        return Err(bad("checksum mismatch"));
    }
    let mut runs = Vec::with_capacity(count);
    let mut floor = 1;
    for i in 0..count {
        let (start, pages) = (
            read_u64(&bytes[8 + 16 * i..]),
            read_u64(&bytes[16 + 16 * i..]),
        );
        if pages == 0 || start < floor || start.saturating_add(pages) > page_capacity {
            return Err(bad("runs out of order or out of range"));
        }
        floor = start + pages;
        runs.push(ExtentSpec::new(Pid::new(start), pages));
    }
    Ok(runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAP: MapRef = MapRef {
        extent: ExtentSpec {
            start: Pid::new(9),
            pages: 1,
        },
        len: 24,
        log_epoch: 2,
    };

    #[test]
    fn round_trips_every_field() {
        for tier_policy in [
            TierPolicy::Paper {
                tiers_per_level: 3,
                levels: 9,
            },
            TierPolicy::PowerOfTwo,
            TierPolicy::Fibonacci,
        ] {
            let header = Header {
                page_size: 16384,
                tier_policy,
                catalog_root: Pid::new(0x0102_0304_0506),
                node_pages: 4,
                xcommit_watermark: 77,
                xcommit_above: vec![79, 81, u64::MAX],
                map: MapRef {
                    extent: ExtentSpec::new(Pid::new(0x0A0B_0C0D), 3),
                    len: 8200,
                    log_epoch: 41,
                },
            };
            let block = header.encode();
            assert_eq!(block.len(), LEN);
            assert_eq!(Header::decode(&block).unwrap(), header);
        }
    }

    #[test]
    fn rejects_a_foreign_block_a_bad_tier_tag_and_an_overfull_sidecar() {
        let good = current_block();
        assert!(Header::decode(&good).is_ok());
        assert!(Header::decode(&vec![0u8; LEN]).is_err());
        assert!(Header::decode(&good[..100]).is_err());
        for version in [0u32, 4] {
            let mut bad = good.clone();
            bad[4..8].copy_from_slice(&version.to_le_bytes());
            assert!(Header::decode(&bad).is_err(), "version {version}");
        }
        let mut bad = good.clone();
        bad[12] = 3;
        assert!(Header::decode(&bad).is_err());
        let mut bad = good;
        bad[46..50].copy_from_slice(&(XCOMMIT_ABOVE_CAP as u32 + 1).to_le_bytes());
        assert!(Header::decode(&bad).is_err());
    }

    /// The first 48 bytes (the rest were zero) of a format-version-1 shard
    /// 0 header, as an earlier byte-poking `Database::write_header` left it: two
    /// shards, `Paper { 5, 7 }`, tail extents, two-page nodes, three
    /// cross-shard commits, then a coordinated checkpoint.
    const PARENT_BLOCK_HEAD: [u8; 48] = [
        0x42, 0x44, 0x42, 0x4c, 0x01, 0x00, 0x00, 0x00, 0x00, 0x10, 0x00, 0x00, 0x00, 0x05, 0x00,
        0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x01, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00,
    ];

    fn parent_block() -> Vec<u8> {
        let mut block = vec![0u8; LEN];
        block[..48].copy_from_slice(&PARENT_BLOCK_HEAD);
        block
    }

    /// The parent block as version 3, naming [`MAP`].
    fn current_block() -> Vec<u8> {
        let mut block = parent_block();
        block[4] = 3;
        block[MAP_OFF..MAP_OFF + 8].copy_from_slice(&9u64.to_le_bytes());
        block[MAP_OFF + 8..MAP_OFF + 16].copy_from_slice(&1u64.to_le_bytes());
        block[MAP_OFF + 16..MAP_OFF + 24].copy_from_slice(&24u64.to_le_bytes());
        block[MAP_OFF + 24..MAP_OFF + 28].copy_from_slice(&2u32.to_le_bytes());
        block
    }

    /// A version-1 block is refused as unsupported, not misread; the
    /// version-3 layout keeps every field of it where it was.
    #[test]
    fn refuses_a_block_the_parent_commit_wrote_but_keeps_its_layout() {
        assert!(matches!(
            Header::decode(&parent_block()),
            Err(Error::Unsupported(_))
        ));
        let block = current_block();
        let header = Header::decode(&block).unwrap();
        let expected = Header {
            page_size: 4096,
            tier_policy: TierPolicy::Paper {
                tiers_per_level: 5,
                levels: 7,
            },
            catalog_root: Pid::new(1),
            node_pages: 2,
            xcommit_watermark: 3,
            xcommit_above: vec![],
            map: MAP,
        };
        assert_eq!(header, expected);
        assert_eq!(header.encode(), block, "bytes on disk changed");
    }

    /// Byte 21 was the store-wide tail-extent switch. A store created with
    /// it off (0) or on (1) opens to the same header, and either is written
    /// back as 1.
    #[test]
    fn reserved_byte_21_is_ignored_on_read_and_written_as_one() {
        let on = current_block();
        let mut off = on.clone();
        off[21] = 0;
        let header = Header::decode(&on).unwrap();
        assert_eq!(Header::decode(&off).unwrap(), header);
        assert_eq!(header.encode()[21], 1);
    }

    /// A version-2 block is refused whatever its tail bytes hold; a
    /// version-3 block whose map pid is zero names no map and is corrupt.
    #[test]
    fn only_a_version_3_header_names_a_map() {
        let mut block = current_block();
        block[4] = 2;
        assert!(matches!(Header::decode(&block), Err(Error::Unsupported(_))));
        let mut block = current_block();
        block[MAP_OFF..MAP_OFF + 8].fill(0);
        match Header::decode(&block) {
            Err(Error::Corruption(msg)) => assert!(msg.contains("no free map"), "{msg}"),
            other => panic!("a header without a map decoded: {other:?}"),
        }
    }

    #[test]
    fn a_free_map_round_trips_and_refuses_damage() {
        let runs = vec![
            ExtentSpec::new(Pid::new(3), 2),
            ExtentSpec::new(Pid::new(9), 1),
            ExtentSpec::new(Pid::new(40), 60),
        ];
        let bytes = encode_map(&runs);
        assert_eq!(bytes.len(), 16 + 16 * runs.len());
        assert_eq!(decode_map(&bytes, 100).unwrap(), runs);
        assert_eq!(decode_map(&encode_map(&[]), 100).unwrap(), vec![]);
        // A run past the device, a flipped bit, a short read.
        assert!(decode_map(&bytes, 99).is_err());
        let mut flipped = bytes.clone();
        flipped[12] ^= 1;
        assert!(decode_map(&flipped, 100).is_err());
        assert!(decode_map(&bytes[..bytes.len() - 1], 100).is_err());
        // Overlapping or unsorted runs, even with a valid checksum.
        let overlapping = [runs[0], ExtentSpec::new(Pid::new(4), 1)];
        assert!(decode_map(&encode_map(&overlapping), 100).is_err());
        // Page 0 is the header, never free.
        assert!(decode_map(&encode_map(&[ExtentSpec::new(Pid::new(0), 1)]), 100).is_err());
    }
}
