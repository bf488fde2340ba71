//! Figure 10: vmcache + aliasing (`Our`) versus the hash-table buffer pool
//! (`Our.ht`) on a read-only in-memory YCSB workload — 100 KB / 1 MB /
//! 10 MB BLOBs × 1–16 workers.
//!
//! Paper shape: the two are comparable at 100 KB (a TLB shootdown costs
//! about as much as a small malloc+memcpy); at 1 MB and 10 MB `Our` pulls
//! ahead — up to 2.1× at 16 workers — because the hash-table pool's
//! per-read malloc+memcpy saturates cache and memory bandwidth.
//!
//! `Our` reads a BLOB whose frames sit back to back (one run, as a put on a
//! pool with room frames it) in place, and aliases scattered frames only
//! from `lobster_buffer::ALIAS_MIN_BYTES` (1 MiB) up, where aliasing pays,
//! copying smaller scattered ones out of the frames.

use crate::*;
use lobster_baselines::{LobsterMode, ObjectStore};
use lobster_core::PoolVariant;

pub(crate) fn run(report: &mut Report) {
    let max_workers = std::thread::available_parallelism()
        .map(|p| p.get().min(16))
        .unwrap_or(8);
    let rig = Rig {
        data: Dev::mem(2 << 30),
        wal: Dev::mem(256 << 20),
        ..Rig::YCSB
    };
    for (size_label, size, records, reads_per_worker) in [
        ("100KB", 100 * 1024usize, scaled(256), scaled(4000)),
        ("1MB", 1 << 20, scaled(96), scaled(1200)),
        ("10MB", 10 << 20, scaled(16), scaled(150)),
    ] {
        for workers in [1usize, 2, 4, 8, 16]
            .into_iter()
            .filter(|&w| w <= max_workers)
        {
            for variant in ["Our", "Our.ht"] {
                let mut cfg = our_config(workers);
                if variant == "Our.ht" {
                    cfg.pool_variant = PoolVariant::Ht;
                }
                let store = rig.our(variant, cfg, LobsterMode::Blobs);
                for k in 0..records {
                    store
                        .put(&key_name(k as u64), &make_payload(size, k as u64))
                        .expect("load");
                }
                // Warm all objects into the pool.
                for k in 0..records {
                    store
                        .get(&key_name(k as u64), &mut |b| {
                            std::hint::black_box(b.len());
                        })
                        .expect("warm");
                }
                let elapsed = parallel_reads(&store, workers, reads_per_worker, records, 0x9E37);
                let rate = (workers * reads_per_worker) as f64 / elapsed.as_secs_f64();
                // Engine-side get_blob percentiles cover the whole run.
                let lat = store.database().metrics().latencies.snapshot();
                report.push(
                    Entry::throughput(variant, rate)
                        .param("size", size_label)
                        .param("workers", workers)
                        .latency("engine.get_blob", lat.get_blob.summary()),
                );
            }
        }
    }
}
