//! The *Blob State* — the paper's single-layer indirection for BLOBs
//! (§III-B).
//!
//! A Blob State bundles everything needed to locate, validate, grow, and
//! index a BLOB: its size, SHA-256, the SHA-256 intermediate digest (for
//! resumable hashing on growth), a 32-byte content prefix (for cheap range
//! comparisons), an optional tail extent, and the head-page PIDs of its
//! extent sequence. Combined with the static extent-tier table, the PID
//! array fully determines the physical location of every byte.

use lobster_extent::{ExtentSpec, TierTable};
use lobster_sha256::Midstate;
use lobster_types::{read_u32, read_u64, Error, Geometry, Pid, Result, MAX_EXTENTS_PER_BLOB};

/// Length of the embedded content prefix.
pub const PREFIX_LEN: usize = 32;

/// The Blob State (§III-B "Format").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlobState {
    /// Logical size of the BLOB in bytes.
    pub size: u64,
    /// SHA-256 of the full content (durability validation + point-query
    /// equality checks).
    pub sha256: [u8; 32],
    /// SHA-256 compression state at the last 64-byte boundary (resume point
    /// for growth operations).
    pub sha_midstate: [u8; 32],
    /// First `min(32, size)` bytes of the content, zero-padded.
    pub prefix: [u8; PREFIX_LEN],
    /// Tail extent (start page, page count), if the BLOB uses one.
    pub tail: Option<(Pid, u64)>,
    /// Head pages of the full tier extents, in sequence order.
    pub extents: Vec<Pid>,
}

impl BlobState {
    /// The *allocation view* of the extent list: tier extents at their full
    /// sizes from the static tier table, followed by the tail extent if
    /// present. This is what the BLOB occupies on the device, and the only
    /// view the allocator (free, fence, quarantine, rebuild), the
    /// defragmenter's ranking and space accounting may use.
    pub fn extent_specs(&self, table: &TierTable) -> Vec<ExtentSpec> {
        let mut specs: Vec<ExtentSpec> = self
            .extents
            .iter()
            .enumerate()
            .map(|(i, &pid)| ExtentSpec::new(pid, table.size_of(i)))
            .collect();
        if let Some((pid, pages)) = self.tail {
            specs.push(ExtentSpec::new(pid, pages));
        }
        specs
    }

    /// The *content view* of the extent list: each extent clipped to the
    /// pages of `size` not already held by the extents before it, extents
    /// without content dropped. Only the last entry can be narrower than
    /// its allocation, so positions line up with [`BlobState::extent_specs`].
    /// This is the only view the buffer pool may be handed — it frames,
    /// faults, aliases and prefetches exactly these pages, so tier slack
    /// is never read or cached.
    pub fn content_specs(&self, table: &TierTable, geo: Geometry) -> Vec<ExtentSpec> {
        let mut left = geo.pages_for(self.size);
        let mut specs = self.extent_specs(table);
        specs.retain_mut(|spec| {
            spec.pages = spec.pages.min(left);
            left -= spec.pages;
            spec.pages > 0
        });
        specs
    }

    /// Total pages of storage the BLOB occupies.
    pub fn capacity_pages(&self, table: &TierTable) -> u64 {
        table.cumulative_pages(self.extents.len()) + self.tail.map_or(0, |(_, p)| p)
    }

    /// The SHA midstate as a resumable hasher state (processed length is
    /// derived from `size`).
    pub fn midstate(&self) -> Midstate {
        Midstate::from_parts(&self.sha_midstate, self.size & !63)
    }

    /// Serialized length in bytes.
    pub fn encoded_len(&self) -> usize {
        8 + 32 + 32 + PREFIX_LEN + 8 + 4 + 1 + self.extents.len() * 8
    }

    /// Serialize (the representation stored in the relation B-Tree and in
    /// WAL records).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        out.extend_from_slice(&self.size.to_le_bytes());
        out.extend_from_slice(&self.sha256);
        out.extend_from_slice(&self.sha_midstate);
        out.extend_from_slice(&self.prefix);
        let (tail_pid, tail_pages) = self
            .tail
            .map_or((u64::MAX, 0u32), |(p, n)| (p.raw(), n as u32));
        out.extend_from_slice(&tail_pid.to_le_bytes());
        out.extend_from_slice(&tail_pages.to_le_bytes());
        debug_assert!(self.extents.len() <= MAX_EXTENTS_PER_BLOB);
        out.push(self.extents.len() as u8);
        for pid in &self.extents {
            out.extend_from_slice(&pid.raw().to_le_bytes());
        }
        out
    }

    /// Deserialize a Blob State produced by [`BlobState::encode`].
    pub fn decode(buf: &[u8]) -> Result<BlobState> {
        const FIXED: usize = 8 + 32 + 32 + PREFIX_LEN + 8 + 4 + 1;
        if buf.len() < FIXED {
            return Err(Error::Corruption("blob state too short".into()));
        }
        let size = read_u64(buf);
        let mut sha256 = [0u8; 32];
        sha256.copy_from_slice(&buf[8..40]);
        let mut sha_midstate = [0u8; 32];
        sha_midstate.copy_from_slice(&buf[40..72]);
        let mut prefix = [0u8; PREFIX_LEN];
        prefix.copy_from_slice(&buf[72..72 + PREFIX_LEN]);
        let p = 72 + PREFIX_LEN;
        let tail_pid = read_u64(&buf[p..]);
        let tail_pages = read_u32(&buf[p + 8..]);
        let tail = if tail_pid == u64::MAX {
            None
        } else {
            Some((Pid::new(tail_pid), tail_pages as u64))
        };
        let n = buf[p + 12] as usize;
        if n > MAX_EXTENTS_PER_BLOB || buf.len() != FIXED + n * 8 {
            return Err(Error::Corruption(format!(
                "blob state length mismatch: n={n}, len={}",
                buf.len()
            )));
        }
        let extents = (0..n)
            .map(|i| Pid::new(read_u64(&buf[FIXED + i * 8..])))
            .collect();
        Ok(BlobState {
            size,
            sha256,
            sha_midstate,
            prefix,
            tail,
            extents,
        })
    }

    /// Build the content prefix field from the head of the data.
    pub fn make_prefix(data: &[u8]) -> [u8; PREFIX_LEN] {
        let mut p = [0u8; PREFIX_LEN];
        let n = data.len().min(PREFIX_LEN);
        p[..n].copy_from_slice(&data[..n]);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobster_extent::TierPolicy;

    fn sample() -> BlobState {
        BlobState {
            size: 123456,
            sha256: [7u8; 32],
            sha_midstate: [9u8; 32],
            prefix: BlobState::make_prefix(b"hello world"),
            tail: Some((Pid::new(99), 3)),
            extents: vec![Pid::new(4), Pid::new(10)],
        }
    }

    #[test]
    fn roundtrip() {
        let s = sample();
        let enc = s.encode();
        assert_eq!(enc.len(), s.encoded_len());
        assert_eq!(BlobState::decode(&enc).unwrap(), s);
    }

    #[test]
    fn roundtrip_no_tail_no_extents() {
        let s = BlobState {
            size: 0,
            sha256: [0u8; 32],
            sha_midstate: [0u8; 32],
            prefix: [0u8; PREFIX_LEN],
            tail: None,
            extents: vec![],
        };
        assert_eq!(BlobState::decode(&s.encode()).unwrap(), s);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(BlobState::decode(&[1, 2, 3]).is_err());
        let mut enc = sample().encode();
        enc.pop(); // truncate
        assert!(BlobState::decode(&enc).is_err());
    }

    #[test]
    fn extent_specs_follow_tier_table() {
        // Figure 1(b): extents P4 (1 page), P10 (2 pages), tail P15 (3 pages).
        let table = TierTable::new(TierPolicy::default());
        let s = BlobState {
            size: 6 * 4096,
            sha256: [0; 32],
            sha_midstate: [0; 32],
            prefix: [0; PREFIX_LEN],
            tail: Some((Pid::new(15), 3)),
            extents: vec![Pid::new(4), Pid::new(10)],
        };
        let specs = s.extent_specs(&table);
        assert_eq!(
            specs,
            vec![
                ExtentSpec::new(Pid::new(4), 1),
                ExtentSpec::new(Pid::new(10), 2),
                ExtentSpec::new(Pid::new(15), 3),
            ]
        );
        assert_eq!(s.capacity_pages(&table), 6);
    }

    #[test]
    fn content_specs_clip_to_the_pages_holding_content() {
        let table = TierTable::new(TierPolicy::default());
        let geo = Geometry::new(4096);
        // 1 MiB under the default table: tiers 1, 2, 4, ..., 128 are full
        // (255 pages) and the 256-page tier holds the one remaining page.
        let mut s = sample();
        s.size = 1 << 20;
        s.tail = None;
        s.extents = (0..9).map(|i| Pid::new(1000 * (i + 1))).collect();
        let alloc = s.extent_specs(&table);
        let content = s.content_specs(&table, geo);
        assert_eq!(alloc.iter().map(|e| e.pages).sum::<u64>(), 511);
        assert_eq!(content.iter().map(|e| e.pages).sum::<u64>(), 256);
        assert_eq!(content[..8], alloc[..8]);
        assert_eq!(content[8], ExtentSpec::new(alloc[8].start, 1));
        // A size ending mid-page still owns that page; extents beyond the
        // content vanish from the view.
        s.size = 3 * 4096 + 1;
        let content = s.content_specs(&table, geo);
        assert_eq!(
            content,
            vec![
                ExtentSpec::new(alloc[0].start, 1),
                ExtentSpec::new(alloc[1].start, 2),
                ExtentSpec::new(alloc[2].start, 1),
            ]
        );
        // The tail extent clips like any other last extent.
        s.extents.truncate(2);
        s.tail = Some((Pid::new(77), 5));
        s.size = 4 * 4096;
        assert_eq!(
            s.content_specs(&table, geo).last(),
            Some(&ExtentSpec::new(Pid::new(77), 1))
        );
    }

    #[test]
    fn prefix_handles_short_content() {
        let p = BlobState::make_prefix(b"ab");
        assert_eq!(&p[..2], b"ab");
        assert!(p[2..].iter().all(|&b| b == 0));
    }

    #[test]
    fn midstate_reconstruction() {
        let mut s = sample();
        s.size = 200; // boundary at 192
        let m = s.midstate();
        assert_eq!(m.processed, 192);
    }
}
