//! Table II: overhead of shared-aliasing-area synchronization.
//!
//! Read-only YCSB with 10 MB BLOBs and many workers. With a 4 MB
//! worker-local area every BLOB is too large for the local area, so every
//! read reserves blocks from the *shared* area (bitmap + CAS range lock);
//! with 16 MB the local area always suffices.
//!
//! Paper shape: the two variants are statistically identical — the range
//! lock costs nothing measurable — which is the justification for capping
//! virtual-address usage with a shared pool. Repetitions of the two
//! variants are interleaved so machine-level noise hits both equally.

use crate::*;
use lobster_baselines::{LobsterMode, ObjectStore};
use lobster_buffer::AliasConfig;
use lobster_core::{Config, PoolVariant};

pub(crate) fn run(report: &mut Report) {
    let workers = std::thread::available_parallelism()
        .map(|p| p.get().min(16))
        .unwrap_or(8);
    let records = scaled(12);
    let reads_per_worker = scaled(150);
    let repetitions = 6;
    let blob = 10 << 20;
    let rig = Rig {
        data: Dev::mem(2 << 30),
        wal: Dev::mem(256 << 20),
        ..Rig::YCSB
    };

    // Worker-local area sizes: 4 MB (every read reserves from the shared
    // area) and 16 MB (the local area suffices).
    let local_areas = [4usize << 20, 16 << 20];
    let stores: Vec<_> = local_areas
        .iter()
        .map(|&local_bytes| {
            let cfg = Config {
                pool_frames: 128 * 1024,
                pool_variant: PoolVariant::Vm {
                    alias: Some(AliasConfig {
                        workers,
                        worker_local_bytes: local_bytes,
                        shared_bytes: 512 << 20,
                    }),
                },
                workers,
                ..Config::default()
            };
            let store = rig.our("Our", cfg, LobsterMode::Blobs);
            for k in 0..records {
                store
                    .put(&key_name(k as u64), &make_payload(blob, k as u64))
                    .expect("load");
            }
            // Warm every object into the pool.
            for k in 0..records {
                store
                    .get(&key_name(k as u64), &mut |b| {
                        std::hint::black_box(b.len());
                    })
                    .expect("warm");
            }
            store
        })
        .collect();

    let before: Vec<_> = stores.iter().map(|s| s.stats().metrics).collect();
    let mut secs = [0.0f64; 2];
    for _rep in 0..repetitions {
        for (vi, store) in stores.iter().enumerate() {
            secs[vi] += parallel_reads(store, workers, reads_per_worker, records, 1).as_secs_f64();
        }
    }

    for (vi, &local_bytes) in local_areas.iter().enumerate() {
        let store = &stores[vi];
        let delta = store.stats().metrics - before[vi];
        let txns = (workers * reads_per_worker * repetitions) as u64;
        let lat = store.database().metrics().latencies.snapshot();
        let alias = store
            .database()
            .node_pool()
            .alias_stats()
            .expect("aliasing enabled");
        println!(
            "local area {} MB: shared area used {} times, {} reservation retries",
            local_bytes >> 20,
            alias.shared_uses,
            alias.reservation_retries
        );
        report.push(
            Entry::throughput("Our", txns as f64 / secs[vi])
                .param("local_area", format!("{}MB", local_bytes >> 20))
                .param("workers", workers)
                .latency("engine.get_blob", lat.get_blob.summary())
                .counters(delta, txns),
        );
    }
}
