//! Figure 11: performance as storage utilization rises — 80 % allocations
//! (1–10 MB objects) / 20 % deletions until the volume is full.
//!
//! Paper shape: every file system except F2FS drops in throughput as the
//! storage approaches its limit (their anti-fragmentation machinery stops
//! working near-full), while our per-tier exact-size free lists keep
//! performance flat; all systems eventually stop at capacity.

use crate::*;
use lobster_baselines::{FsProfile, LobsterMode, ObjectStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Run the churn on one store; returns (utilization, ops/s) curve points.
fn churn(store: &dyn ObjectStore) -> Vec<(f64, f64)> {
    let mut rng = StdRng::seed_from_u64(11);
    let mut live: Vec<u64> = Vec::new();
    let mut next_key = 0u64;
    let mut points = Vec::new();
    let mut ops_in_bucket = 0u64;
    let mut bucket_start = Instant::now();
    let mut last_util_bucket = 0u64;

    loop {
        let op_is_alloc = live.is_empty() || rng.gen_bool(0.8);
        let ok = if op_is_alloc {
            let size = rng.gen_range((1 << 20)..=(10 << 20));
            let key = next_key;
            next_key += 1;
            match store.put(&key_name(key), &make_payload(size, key)) {
                Ok(()) => {
                    live.push(key);
                    true
                }
                Err(_) => false, // full
            }
        } else {
            let idx = rng.gen_range(0..live.len());
            let key = live.swap_remove(idx);
            store.delete(&key_name(key)).is_ok()
        };
        if !ok {
            // Storage exhausted: emit the final bucket and stop.
            let secs = bucket_start.elapsed().as_secs_f64();
            if ops_in_bucket > 0 && secs > 0.0 {
                points.push((store.stats().utilization, ops_in_bucket as f64 / secs));
            }
            break;
        }
        ops_in_bucket += 1;

        // Emit a point every 5% of utilization.
        let util = store.stats().utilization;
        let bucket = (util * 20.0) as u64;
        if bucket > last_util_bucket {
            last_util_bucket = bucket;
            let secs = bucket_start.elapsed().as_secs_f64();
            points.push((util, ops_in_bucket as f64 / secs.max(1e-9)));
            ops_in_bucket = 0;
            bucket_start = Instant::now();
        }
    }
    points
}

pub(crate) fn run(report: &mut Report) {
    // Small volume so the churn fills it quickly.
    let rig = Rig {
        data: Dev::mem((scaled(768) << 20).max(256 << 20)),
        wal: Dev::mem(256 << 20),
        cache_pages: 16 * 1024,
    };
    println!("volume size: {}", fmt_bytes(rig.data.bytes as f64));

    // Our engine (on a device of exactly the volume size), then the
    // file-system models.
    let mut results = vec![(
        "Our",
        churn(&rig.our("Our", our_config(1), LobsterMode::Blobs)),
    )];
    for profile in [
        FsProfile::ext4_ordered(),
        FsProfile::xfs(),
        FsProfile::btrfs(),
        FsProfile::f2fs(),
    ] {
        results.push((profile.name, churn(&rig.fs(profile))));
    }

    for (name, points) in results {
        if points.is_empty() {
            continue;
        }
        // Early throughput = mean of points below 50% utilization;
        // late = mean above 80%.
        let early: Vec<f64> = points
            .iter()
            .filter(|(u, _)| (0.1..0.5).contains(u)) // skip allocator warmup
            .map(|(_, r)| *r)
            .collect();
        let late: Vec<f64> = points
            .iter()
            .filter(|(u, _)| *u >= 0.8)
            .map(|(_, r)| *r)
            .collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let (e, l) = (mean(&early), mean(&late));
        let retained = if e > 0.0 { l / e } else { 0.0 };
        report.push(Entry::throughput(name, e).param("utilization", "<50%"));
        report.push(Entry::throughput(name, l).param("utilization", ">=80%"));
        report.push(Entry::new(
            name,
            "throughput_retained",
            "frac",
            retained,
            true,
        ));
    }
}
