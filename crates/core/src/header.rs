//! The database header: page 0 of the data device, one 4096-byte block
//! (FORMAT.md §1.1). The only place that knows its byte layout —
//! `Database` writes it at creation and on every checkpoint and reads it
//! on open; the sharded engine's pre-scan reads and rewrites the
//! cross-commit fields before any shard recovers.

use lobster_extent::TierPolicy;
use lobster_storage::Device;
use lobster_types::{read_u32, read_u64, Error, Pid, Result};

const LEN: usize = 4096;
const MAGIC: u32 = 0x4C42_4442; // "LBDB"
const VERSION: u32 = 1;
const XCOMMIT_ABOVE_OFF: usize = 50;
/// Most committed-above-watermark gtxns the header holds.
pub(crate) const XCOMMIT_ABOVE_CAP: usize = 500;

#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Header {
    pub page_size: usize,
    pub tier_policy: TierPolicy,
    pub use_tail_extents: bool,
    pub catalog_root: Pid,
    pub node_pages: u64,
    /// Every gtxn `<=` this is globally durable (see `shard.rs`).
    pub xcommit_watermark: u64,
    /// Committed gtxns above the watermark, at most [`XCOMMIT_ABOVE_CAP`].
    pub xcommit_above: Vec<u64>,
}

impl Header {
    pub fn decode(block: &[u8]) -> Result<Header> {
        if block.len() < LEN || read_u32(block) != MAGIC {
            return Err(Error::Corruption("bad database magic".into()));
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
        Ok(Header {
            page_size: read_u32(&block[8..]) as usize,
            tier_policy,
            use_tail_extents: block[21] != 0,
            catalog_root: Pid::new(read_u64(&block[22..])),
            node_pages: read_u64(&block[30..]),
            xcommit_watermark: read_u64(&block[38..]),
            xcommit_above: (0..count)
                .map(|i| read_u64(&block[XCOMMIT_ABOVE_OFF + 8 * i..]))
                .collect(),
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
        block[21] = self.use_tail_extents as u8;
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

#[cfg(test)]
mod tests {
    use super::*;

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
                use_tail_extents: true,
                catalog_root: Pid::new(0x0102_0304_0506),
                node_pages: 4,
                xcommit_watermark: 77,
                xcommit_above: vec![79, 81, u64::MAX],
            };
            let block = header.encode();
            assert_eq!(block.len(), LEN);
            assert_eq!(Header::decode(&block).unwrap(), header);
        }
    }

    #[test]
    fn rejects_a_foreign_block_a_bad_tier_tag_and_an_overfull_sidecar() {
        let good = parent_block();
        assert!(Header::decode(&vec![0u8; LEN]).is_err());
        assert!(Header::decode(&good[..100]).is_err());
        let mut bad = good.clone();
        bad[12] = 3;
        assert!(Header::decode(&bad).is_err());
        let mut bad = good;
        bad[46..50].copy_from_slice(&(XCOMMIT_ABOVE_CAP as u32 + 1).to_le_bytes());
        assert!(Header::decode(&bad).is_err());
    }

    /// The first 48 bytes (the rest were zero) of shard 0's header as the
    /// parent commit's byte-poking `Database::write_header` left it: two
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

    #[test]
    fn decodes_a_block_the_parent_commit_wrote_and_encodes_it_back() {
        let block = parent_block();
        let header = Header::decode(&block).unwrap();
        let expected = Header {
            page_size: 4096,
            tier_policy: TierPolicy::Paper {
                tiers_per_level: 5,
                levels: 7,
            },
            use_tail_extents: true,
            catalog_root: Pid::new(1),
            node_pages: 2,
            xcommit_watermark: 3,
            xcommit_above: vec![],
        };
        assert_eq!(header, expected);
        assert_eq!(header.encode(), block, "bytes on disk changed");
    }
}
