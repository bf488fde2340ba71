//! Figure 10: vmcache + aliasing (`Our`) versus the hash-table buffer pool
//! (`Our.ht`) on a read-only in-memory YCSB workload — 100 KB / 1 MB /
//! 10 MB BLOBs × 1–16 workers.
//!
//! Paper shape: the two are comparable at 100 KB (a TLB shootdown costs
//! about as much as a small malloc+memcpy); at 1 MB and 10 MB `Our` pulls
//! ahead — up to 2.1× at 16 workers — because the hash-table pool's
//! per-read malloc+memcpy saturates cache and memory bandwidth.
//!
//! `Our` aliases only from `lobster_buffer::ALIAS_MIN_BYTES` (1 MiB) up,
//! where aliasing pays: its 100 KB column copies out of the frames too, so
//! there the two pools differ in translation and latching, not in the copy.

use crate::*;
use lobster_baselines::{LobsterMode, LobsterStore, ObjectStore};
use lobster_core::{Config, PoolVariant};
use std::sync::Arc;
use std::time::Instant;

fn build(variant: &str, workers: usize) -> LobsterStore {
    let mut cfg = our_config(workers);
    if variant == "Our.ht" {
        cfg.pool_variant = PoolVariant::Ht;
    }
    let cfg = Config { workers, ..cfg };
    LobsterStore::new(
        if variant == "Our.ht" { "Our.ht" } else { "Our" },
        mem_device(2 << 30),
        mem_device(256 << 20),
        cfg,
        LobsterMode::Blobs,
    )
    .expect("create")
}

pub(crate) fn run(report: &mut Report) {
    banner(
        "Figure 10 — vmcache+aliasing vs hash-table pool, read-only YCSB",
        "§V-E Figure 10",
    );
    let max_workers = std::thread::available_parallelism()
        .map(|p| p.get().min(16))
        .unwrap_or(8);
    let worker_counts: Vec<usize> = [1usize, 2, 4, 8, 16]
        .into_iter()
        .filter(|&w| w <= max_workers)
        .collect();

    for (size_label, size, records, reads_per_worker) in [
        ("100KB", 100 * 1024usize, scaled(256), scaled(4000)),
        ("1MB", 1 << 20, scaled(96), scaled(1200)),
        ("10MB", 10 << 20, scaled(16), scaled(150)),
    ] {
        println!("\n--- {size_label} BLOBs ---");
        let mut table = Table::new(&["workers", "Our reads/s", "Our.ht reads/s", "Our/Our.ht"]);
        for &workers in &worker_counts {
            let mut rates = Vec::new();
            for variant in ["Our", "Our.ht"] {
                let store = Arc::new(build(variant, workers));
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
                let t0 = Instant::now();
                std::thread::scope(|s| {
                    for w in 0..workers {
                        let store = store.clone();
                        s.spawn(move || {
                            let db = store.database().clone();
                            let rel = store.relation().clone();
                            let mut state = 0x9E37u64.wrapping_mul(w as u64 + 1) | 1;
                            for _ in 0..reads_per_worker {
                                state ^= state << 13;
                                state ^= state >> 7;
                                state ^= state << 17;
                                let k = state % records as u64;
                                let mut t = db.begin_with_worker(w);
                                t.get_blob(&rel, key_name(k).as_bytes(), |b| {
                                    std::hint::black_box(b.len());
                                })
                                .expect("read");
                                t.commit().expect("commit");
                            }
                        });
                    }
                });
                let elapsed = t0.elapsed();
                let rate = (workers * reads_per_worker) as f64 / elapsed.as_secs_f64();
                // Engine-side get_blob percentiles cover the whole run.
                let lat = store.database().metrics().latencies.snapshot();
                report.push(
                    Entry::throughput(variant, rate)
                        .param("size", size_label)
                        .param("workers", workers)
                        .latency("engine.get_blob", lat.get_blob.summary()),
                );
                rates.push(rate);
            }
            table.row(&[
                workers.to_string(),
                fmt_rate(rates[0]),
                fmt_rate(rates[1]),
                format!("{:.2}x", rates[0] / rates[1].max(1e-9)),
            ]);
        }
        table.print();
    }
    println!("\npaper: ~parity at 100KB; Our up to 2.1x at 10MB x 16 workers");
}
