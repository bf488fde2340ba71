//! Ablation (§III-G): coarse-grained (extent) latching vs fine-grained
//! (per-page) synchronization.
//!
//! Paper's argument: when N threads race to read the same cold N-page
//! extent, per-page latching makes *every* thread win one latch and issue
//! one `pread`, while extent latching lets one thread perform a single
//! large read and the rest proceed. We measure both pools on exactly that
//! pattern: concurrent cold reads of shared large objects.

use crate::*;
use lobster_buffer::{BlobPool, ExtentPool, FlushItem, HashTablePool, PoolConfig};
use lobster_extent::ExtentSpec;
use lobster_storage::{Device, MemDevice, ThrottleProfile, ThrottledDevice};
use lobster_types::{Geometry, Pid};
use std::sync::Arc;
use std::time::Instant;

const EXTENT_PAGES: u64 = 64; // 256 KiB extents

pub(crate) fn run(report: &mut Report) {
    banner(
        "Ablation — coarse (extent) vs fine (per-page) latching",
        "§III-G \"Synchronization\"",
    );
    let threads = std::thread::available_parallelism()
        .map(|p| p.get().min(8))
        .unwrap_or(4);
    let extents = scaled(64) as u64;
    let rounds = scaled(30);

    let geo = Geometry::new(4096);
    let mut table = Table::new(&[
        "pool",
        "reads/s",
        "device pages read",
        "latch acquisitions",
        "redundancy",
    ]);

    for coarse in [true, false] {
        let dev: Arc<dyn Device> = Arc::new(ThrottledDevice::new(
            MemDevice::new(2 << 30),
            ThrottleProfile::nvme(),
        ));
        let metrics = lobster_metrics::new_metrics();
        let pool = if coarse {
            BlobPool::Vm(ExtentPool::new(
                dev.clone(),
                geo,
                PoolConfig {
                    frames: 128 * 1024,
                    alias: None,
                    io_threads: 4,
                },
                metrics.clone(),
            ))
        } else {
            BlobPool::Ht(HashTablePool::new(
                dev.clone(),
                geo,
                128 * 1024,
                metrics.clone(),
            ))
        };

        // Lay out the extents and flush them to the device.
        let specs: Vec<ExtentSpec> = (0..extents)
            .map(|i| ExtentSpec::new(Pid::new(1 + i * EXTENT_PAGES), EXTENT_PAGES))
            .collect();
        for (i, spec) in specs.iter().enumerate() {
            pool.fill_extent_hashed(
                *spec,
                &make_payload((EXTENT_PAGES as usize) * 4096, i as u64),
                &mut |_| (),
            )
            .expect("fill");
            pool.flush_extents(&[FlushItem::whole(*spec)])
                .expect("flush");
        }
        let ideal_pages = extents * EXTENT_PAGES * rounds as u64;

        metrics.reset();
        let t0 = Instant::now();
        let mut total_reads = 0u64;
        for _ in 0..rounds {
            // Cold round: drop everything, then all threads storm the same
            // extents in the same order.
            match &pool {
                BlobPool::Vm(p) => p.drop_caches(),
                BlobPool::Ht(p) => {
                    for spec in &specs {
                        p.drop_extent(*spec);
                    }
                }
            }
            std::thread::scope(|s| {
                for w in 0..threads {
                    let pool = pool.clone();
                    let specs = &specs;
                    s.spawn(move || {
                        for spec in specs {
                            pool.read_blob(w, std::slice::from_ref(spec), spec.pages * 4096, |b| {
                                std::hint::black_box(b.len());
                            })
                            .expect("read");
                        }
                    });
                }
            });
            total_reads += (threads as u64) * extents;
        }
        let elapsed = t0.elapsed();
        let m = metrics.snapshot();
        let variant = if coarse { "extent_coarse" } else { "page_fine" };
        let lat = metrics.latencies.snapshot();
        report.push(
            Entry::throughput(variant, total_reads as f64 / elapsed.as_secs_f64())
                .param("latching", variant)
                .latency("engine.pool_fault", lat.pool_fault.summary())
                .counters(m),
        );
        report.push(
            Entry::new(
                variant,
                "read_redundancy",
                "x",
                m.pages_read as f64 / ideal_pages as f64,
                false,
            )
            .param("latching", variant),
        );
        table.row(&[
            if coarse {
                "extent (coarse)"
            } else {
                "per-page (fine)"
            }
            .to_string(),
            fmt_rate(total_reads as f64 / elapsed.as_secs_f64()),
            m.pages_read.to_string(),
            m.latch_acquisitions.to_string(),
            format!("{:.2}x ideal", m.pages_read as f64 / ideal_pages as f64),
        ]);
    }
    table.print();
    println!("\npaper: with coarse latching only one worker loads a contended extent;");
    println!("fine-grained latching multiplies latch traffic and translation work.");
}
