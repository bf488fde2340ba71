//! Property-based tests over the core data structures and invariants.

use lobster::core::{Config, Database, RelationKind};
use lobster::extent::{plan_sequence, ExtentAllocator, ExtentSpec, TierPolicy, TierTable};
use lobster::sha256::Sha256;
use lobster::storage::MemDevice;
use lobster::types::{crc32, Pid};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

// ------------------------------------------------------------- SHA-256 ---

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Splitting the input arbitrarily never changes the digest.
    #[test]
    fn sha_split_invariance(data in proptest::collection::vec(any::<u8>(), 0..4096),
                            cut in 0usize..4096) {
        let cut = cut.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..cut]);
        h.update(&data[cut..]);
        prop_assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    /// Resuming from any midstate reproduces the one-shot digest.
    #[test]
    fn sha_midstate_resume(data in proptest::collection::vec(any::<u8>(), 0..4096),
                           extra in proptest::collection::vec(any::<u8>(), 0..1024)) {
        let mut a = Sha256::new();
        a.update(&data);
        let mid = a.midstate();
        let boundary = mid.processed as usize;

        let mut b = Sha256::resume(mid);
        b.update(&data[boundary..]);
        b.update(&extra);

        let mut whole = Sha256::new();
        whole.update(&data);
        whole.update(&extra);
        prop_assert_eq!(b.finalize(), whole.finalize());
    }

    /// CRC-32 detects any single-byte change.
    #[test]
    fn crc_detects_any_byte_flip(data in proptest::collection::vec(any::<u8>(), 1..512),
                                 idx in 0usize..512, flip in 1u8..=255) {
        let idx = idx % data.len();
        let base = crc32(&data);
        let mut mutated = data.clone();
        mutated[idx] ^= flip;
        prop_assert_ne!(crc32(&mutated), base);
    }
}

// ---------------------------------------------------------- tier tables ---

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The minimal sequence always covers the request, never overshoots by
    /// a full extent, and tail plans fit exactly.
    #[test]
    fn plan_covers_minimally(pages in 1u64..100_000,
                             tiers in 2u32..12, levels in 1u32..8) {
        let table = TierTable::new(TierPolicy::Paper { tiers_per_level: tiers, levels });
        prop_assume!(table.max_pages() >= pages);

        let plan = plan_sequence(&table, pages, false).unwrap();
        let covered = plan.allocated_pages();
        prop_assert!(covered >= pages);
        // Dropping the last extent must NOT cover the request (minimality).
        let without_last: u64 = covered - plan.sizes.last().copied().unwrap_or(0);
        prop_assert!(plan.sizes.is_empty() || without_last < pages);

        let tail_plan = plan_sequence(&table, pages, true).unwrap();
        prop_assert_eq!(tail_plan.allocated_pages(), pages, "tail plans are exact");
    }

    /// Tier sizes never decrease with position.
    #[test]
    fn tier_sizes_monotone(tiers in 1u32..16, levels in 1u32..10) {
        let table = TierTable::new(TierPolicy::Paper { tiers_per_level: tiers, levels });
        for i in 1..table.tier_count() {
            prop_assert!(table.size_of(i) >= table.size_of(i - 1),
                "size({}) < size({})", i, i - 1);
        }
    }
}

// ------------------------------------------------------- extent allocator ---

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random alloc/free sequences never hand out overlapping ranges and
    /// never lose capacity.
    #[test]
    fn allocator_ranges_disjoint(ops in proptest::collection::vec((1u64..64, any::<bool>()), 1..200)) {
        let table = Arc::new(TierTable::new(TierPolicy::default()));
        let alloc = ExtentAllocator::new(table, Pid::new(1), 16 * 1024);
        let mut live: Vec<ExtentSpec> = Vec::new();
        for (size, free_one) in ops {
            if free_one && !live.is_empty() {
                alloc.free_extent(live.swap_remove(0));
            } else if let Ok(e) = alloc.allocate_tail(size) {
                let start = e.start.raw();
                // No overlap with any live range.
                for l in &live {
                    let (s, end) = (l.start.raw(), l.start.raw() + l.pages);
                    prop_assert!(start + size <= s || end <= start,
                        "overlap: [{start},{}) vs [{s},{end})", start + size);
                }
                live.push(e);
            }
        }
        let total: u64 = live.iter().map(|e| e.pages).sum();
        prop_assert_eq!(alloc.pages_in_use(), total);
    }
}

// -------------------------------------------------- engine vs. oracle ----

/// Operations the model executes.
#[derive(Debug, Clone)]
enum BlobOp {
    Put(u8, Vec<u8>),
    Append(u8, Vec<u8>),
    Overwrite(u8, u16, Vec<u8>),
    Truncate(u8, u16),
    Delete(u8),
    Read(u8),
}

fn blob_op() -> impl Strategy<Value = BlobOp> {
    prop_oneof![
        (
            any::<u8>(),
            proptest::collection::vec(any::<u8>(), 0..20_000)
        )
            .prop_map(|(k, d)| BlobOp::Put(k, d)),
        (
            any::<u8>(),
            proptest::collection::vec(any::<u8>(), 1..10_000)
        )
            .prop_map(|(k, d)| BlobOp::Append(k, d)),
        (
            any::<u8>(),
            any::<u16>(),
            proptest::collection::vec(any::<u8>(), 1..5_000)
        )
            .prop_map(|(k, o, d)| BlobOp::Overwrite(k, o, d)),
        (any::<u8>(), any::<u16>()).prop_map(|(k, n)| BlobOp::Truncate(k, n)),
        any::<u8>().prop_map(BlobOp::Delete),
        any::<u8>().prop_map(BlobOp::Read),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The engine agrees with an in-memory oracle under arbitrary operation
    /// sequences — overwrites of up to 5 000 bytes land on both sides of the
    /// delta/clone rule — for either layout: built by one put (tier prefix
    /// plus exact tail) or `by_growth`, a one-page put and an append in the
    /// same transaction (tier ladder, no tail).
    #[test]
    fn engine_matches_oracle(ops in proptest::collection::vec(blob_op(), 1..40),
                             by_growth in any::<bool>()) {
        let cfg = Config {
            pool_frames: 2048,
            ..Config::default()
        };
        let db = Database::create(
            Arc::new(MemDevice::new(128 << 20)),
            Arc::new(MemDevice::new(64 << 20)),
            cfg,
        ).unwrap();
        let rel = db.create_relation("b", RelationKind::Blob).unwrap();
        let mut oracle: HashMap<u8, Vec<u8>> = HashMap::new();

        for op in ops {
            match op {
                BlobOp::Put(k, data) => {
                    let mut t = db.begin();
                    let r = if by_growth && data.len() > 4096 {
                        let (head, rest) = data.split_at(4096);
                        t.put_blob(&rel, &[k], head).and_then(|_| t.append_blob(&rel, &[k], rest))
                    } else {
                        t.put_blob(&rel, &[k], &data)
                    };
                    if let std::collections::hash_map::Entry::Vacant(slot) = oracle.entry(k) {
                        r.unwrap();
                        t.commit().unwrap();
                        slot.insert(data);
                    } else {
                        prop_assert!(r.is_err());
                        drop(t);
                    }
                }
                BlobOp::Append(k, data) => {
                    let mut t = db.begin();
                    let r = t.append_blob(&rel, &[k], &data);
                    match oracle.get_mut(&k) {
                        Some(v) => {
                            r.unwrap();
                            t.commit().unwrap();
                            v.extend_from_slice(&data);
                        }
                        None => { prop_assert!(r.is_err()); drop(t); }
                    }
                }
                BlobOp::Overwrite(k, off, data) => {
                    let mut t = db.begin();
                    match oracle.get_mut(&k) {
                        Some(v) if (off as usize) + data.len() <= v.len() => {
                            t.update_blob(&rel, &[k], off as u64, &data).unwrap();
                            t.commit().unwrap();
                            v[off as usize..off as usize + data.len()].copy_from_slice(&data);
                        }
                        _ => {
                            prop_assert!(t.update_blob(&rel, &[k], off as u64, &data).is_err());
                            drop(t);
                        }
                    }
                }
                BlobOp::Truncate(k, n) => {
                    let mut t = db.begin();
                    match oracle.get_mut(&k) {
                        Some(v) if (n as usize) <= v.len() => {
                            t.truncate_blob(&rel, &[k], n as u64).unwrap();
                            t.commit().unwrap();
                            v.truncate(n as usize);
                        }
                        Some(_) => {
                            prop_assert!(t.truncate_blob(&rel, &[k], n as u64).is_err());
                            drop(t);
                        }
                        None => {
                            prop_assert!(t.truncate_blob(&rel, &[k], n as u64).is_err());
                            drop(t);
                        }
                    }
                }
                BlobOp::Delete(k) => {
                    let mut t = db.begin();
                    let r = t.delete_blob(&rel, &[k]);
                    if oracle.remove(&k).is_some() {
                        r.unwrap();
                        t.commit().unwrap();
                    } else {
                        prop_assert!(r.is_err());
                        drop(t);
                    }
                }
                BlobOp::Read(k) => {
                    let mut t = db.begin();
                    match oracle.get(&k) {
                        Some(v) => {
                            let got = t.get_blob(&rel, &[k], |b| b.to_vec()).unwrap();
                            prop_assert_eq!(&got, v);
                            // The stored hash must always match content.
                            let state = t.blob_state(&rel, &[k]).unwrap().unwrap();
                            prop_assert_eq!(state.sha256, Sha256::digest(v));
                            prop_assert_eq!(state.size as usize, v.len());
                        }
                        None => prop_assert!(t.get_blob(&rel, &[k], |_| ()).is_err()),
                    }
                    t.commit().unwrap();
                }
            }
        }

        // Final sweep: everything in the oracle is intact.
        let mut t = db.begin();
        for (k, v) in &oracle {
            let got = t.get_blob(&rel, &[*k], |b| b.to_vec()).unwrap();
            prop_assert_eq!(&got, v);
        }
        t.commit().unwrap();
    }
}

// ----------------------------------------------------- recovery property ---

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever was committed before a (clean-device) crash is exactly what
    /// recovery restores.
    #[test]
    fn recovery_restores_committed_prefix(blobs in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 1..30_000), 1..8)) {
        let dev = Arc::new(MemDevice::new(128 << 20));
        let wal = Arc::new(MemDevice::new(64 << 20));
        let cfg = Config { pool_frames: 2048, ..Config::default() };
        {
            let db = Database::create(dev.clone(), wal.clone(), cfg.clone()).unwrap();
            let rel = db.create_relation("b", RelationKind::Blob).unwrap();
            for (i, data) in blobs.iter().enumerate() {
                let mut t = db.begin();
                t.put_blob(&rel, format!("k{i}").as_bytes(), data).unwrap();
                t.commit().unwrap();
            }
            // Crash: no shutdown/checkpoint.
        }
        let (db, _report) = Database::open(dev, wal, cfg).unwrap();
        let rel = db.relation("b").unwrap();
        let mut t = db.begin();
        for (i, data) in blobs.iter().enumerate() {
            let got = t.get_blob(&rel, format!("k{i}").as_bytes(), |b| b.to_vec()).unwrap();
            prop_assert_eq!(&got, data, "blob {} after recovery", i);
        }
        t.commit().unwrap();
    }
}

// ------------------------------------------------- blob state encoding ----

use lobster::core::BlobState;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The Blob State encoding round-trips exactly for every field shape:
    /// inline (no extents), tail/no-tail, and up to the 127-extent cap.
    #[test]
    fn blob_state_encoding_roundtrips(
        size in any::<u64>(),
        sha in proptest::array::uniform32(any::<u8>()),
        mid in proptest::array::uniform32(any::<u8>()),
        prefix in proptest::array::uniform32(any::<u8>()),
        tail in proptest::option::of((0u64..u64::MAX, 1u32..1_000_000)),
        pids in proptest::collection::vec(0u64..u64::MAX / 2, 0..127),
    ) {
        let state = BlobState {
            size,
            sha256: sha,
            sha_midstate: mid,
            prefix,
            tail: tail.map(|(p, n)| (Pid::new(p), n as u64)),
            extents: pids.iter().map(|&p| Pid::new(p)).collect(),
        };
        let encoded = state.encode();
        prop_assert_eq!(encoded.len(), state.encoded_len());
        let back = BlobState::decode(&encoded).unwrap();
        prop_assert_eq!(back, state);

        // Any truncation of the buffer must fail loudly, never misparse.
        if encoded.len() > 1 {
            prop_assert!(BlobState::decode(&encoded[..encoded.len() - 1]).is_err());
        }
    }
}
