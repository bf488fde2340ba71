//! WAL torture tests: arbitrary corruption of the durable log region must
//! never produce garbage records — the CRC-framed scan yields a clean
//! prefix of what was written, exactly like a real log after a torn tail.

use lobster_storage::{Device, MemDevice};
use lobster_wal::{LogRecord, Wal};
use proptest::prelude::*;
use std::sync::Arc;

/// Case-count multiplier for the nightly torture CI job
/// (`LOBSTER_TORTURE_MULT=10`); unset or invalid means 1.
fn torture_mult() -> u32 {
    std::env::var("LOBSTER_TORTURE_MULT")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&m| m >= 1)
        .unwrap_or(1)
}

fn sample_records(n: usize, seed: u64) -> Vec<LogRecord> {
    (0..n as u64)
        .flat_map(|i| {
            let key = format!("key{:04}", i ^ seed).into_bytes();
            vec![
                LogRecord::TxnBegin { txn: i },
                LogRecord::Insert {
                    txn: i,
                    relation: (i % 3) as u32,
                    key: key.clone(),
                    value: vec![
                        (i as u8).wrapping_mul(37);
                        (seed as usize + i as usize * 13) % 300
                    ],
                },
                LogRecord::TxnCommit { txn: i },
            ]
        })
        .collect()
}

/// `got` must be a prefix of `want`, record by record.
fn assert_prefix(got: &[LogRecord], want: &[LogRecord]) -> std::result::Result<(), TestCaseError> {
    prop_assert!(got.len() <= want.len(), "scan produced extra records");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        prop_assert_eq!(g, w, "record {} diverges", i);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48 * torture_mult()))]

    /// A single flipped byte anywhere in the log yields a valid prefix.
    #[test]
    fn byte_flip_yields_clean_prefix(n in 1usize..30, seed in any::<u64>(),
                                     at in 0u64..200_000, flip in 1u8..=255) {
        let dev: Arc<dyn Device> = Arc::new(MemDevice::new(8 << 20));
        let wal = Wal::create(dev.clone(), lobster_metrics::new_metrics()).unwrap();
        let records = sample_records(n, seed);
        wal.append_and_commit(&records).unwrap();
        let end = wal.flushed_lsn();
        let epoch = wal.current_epoch();
        drop(wal);

        let at = at % end;
        let mut b = [0u8; 1];
        dev.read_at(&mut b, at).unwrap();
        b[0] ^= flip;
        dev.write_at(&b, at).unwrap();

        // The header's magic, epoch and frame-format word fill its first
        // 12 bytes; the rest of its block is padding.
        match Wal::scan(&dev) {
            Ok(scan) if scan.epoch == epoch => {
                assert_prefix(&scan.records, &records)?;
                if (12..lobster_wal::WAL_HEADER).contains(&at) {
                    // Padding damage cannot touch the frame stream itself.
                    prop_assert_eq!(scan.records.len(), records.len());
                }
            }
            // A flipped epoch names no frame that was written.
            Ok(scan) => {
                prop_assert!((4..8).contains(&at), "epoch changed by a flip at {}", at);
                prop_assert!(scan.records.is_empty());
            }
            // A flipped magic or frame-format word is refused.
            Err(_) => prop_assert!(at < 12, "scan refused a flip at {}", at),
        }
    }

    /// Zeroing the log from an arbitrary cut point (a torn tail) keeps every
    /// record whose frame lies wholly before the cut.
    #[test]
    fn torn_tail_keeps_full_frames(n in 1usize..30, seed in any::<u64>(), cut_frac in 0.0f64..1.0) {
        let dev: Arc<dyn Device> = Arc::new(MemDevice::new(8 << 20));
        let wal = Wal::create(dev.clone(), lobster_metrics::new_metrics()).unwrap();
        let records = sample_records(n, seed);
        // Commit in per-transaction groups so frames land at stable offsets.
        for chunk in records.chunks(3) {
            wal.append_and_commit(chunk).unwrap();
        }
        let end = wal.flushed_lsn();
        let epoch = wal.current_epoch();
        drop(wal);

        let cut = ((end as f64 * cut_frac) as u64).max(lobster_wal::WAL_HEADER);
        let zeros = vec![0u8; (end - cut) as usize];
        dev.write_at(&zeros, cut).unwrap();

        let scan = Wal::scan(&dev).unwrap();
        prop_assert_eq!(scan.epoch, epoch);
        let got = scan.records;
        assert_prefix(&got, &records)?;
        // Reopen must also succeed and find a consistent end-of-log.
        let wal2 = Wal::open(dev, lobster_metrics::new_metrics()).unwrap();
        let again = wal2.read_all().unwrap();
        prop_assert_eq!(again.len(), got.len(), "reopen sees the same prefix");
    }

    /// Records from a previous epoch are invisible after truncation, even
    /// though their bytes may still be physically present.
    #[test]
    fn stale_epoch_frames_are_ignored(n in 1usize..20, seed in any::<u64>()) {
        let dev: Arc<dyn Device> = Arc::new(MemDevice::new(8 << 20));
        let wal = Wal::create(dev.clone(), lobster_metrics::new_metrics()).unwrap();
        let old = sample_records(n, seed);
        wal.append_and_commit(&old).unwrap();
        wal.checkpoint_truncate().unwrap();

        let new = sample_records(2, seed.wrapping_add(1));
        wal.append_and_commit(&new).unwrap();
        let got = wal.read_all().unwrap();
        prop_assert_eq!(got, new);
    }
}

/// Deterministic sanity check: damage precisely the first frame's CRC and
/// nothing survives; damage the last frame's payload and all but the final
/// transaction survives.
#[test]
fn targeted_frame_damage() {
    let dev: Arc<dyn Device> = Arc::new(MemDevice::new(8 << 20));
    let wal = Wal::create(dev.clone(), lobster_metrics::new_metrics()).unwrap();
    let records = sample_records(5, 7);
    wal.append_and_commit(&records).unwrap();
    let epoch = wal.current_epoch();
    let end = wal.flushed_lsn();
    drop(wal);

    // Hit the last byte of the log: only the final record can die.
    let mut b = [0u8; 1];
    dev.read_at(&mut b, end - 1).unwrap();
    let orig = b[0];
    b[0] ^= 0xFF;
    dev.write_at(&b, end - 1).unwrap();
    let scan = Wal::scan(&dev).unwrap();
    assert_eq!(scan.epoch, epoch);
    assert_eq!(scan.records.len(), records.len() - 1);

    // Restore, then hit the first frame: everything dies at once.
    b[0] = orig;
    dev.write_at(&b, end - 1).unwrap();
    let mut hdr = [0u8; 1];
    let first = 4096u64 + 5; // inside the first frame's CRC field
    dev.read_at(&mut hdr, first).unwrap();
    hdr[0] ^= 0x01;
    dev.write_at(&hdr, first).unwrap();
    let got = Wal::scan(&dev).unwrap().records;
    assert!(
        got.is_empty(),
        "a broken first frame ends the scan immediately"
    );
}
