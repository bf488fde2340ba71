//! Micro-benchmarks of the primitives the engine's hot paths are built
//! from: resumable SHA-256 (growth ops), B-Tree point ops (metadata
//! path), tier-table math (allocation path), CRC-32 (WAL framing), and the
//! two ways a hot multi-extent BLOB reaches a reader (aliased or copied),
//! whose crossover sets `lobster_buffer::ALIAS_MIN_BYTES`.
//!
//! The suite runs the bodies under a manual timing loop with per-iteration
//! latencies recorded into a [`LocalRecorder`], so the JSON report gets
//! p50/p95/p99 for each primitive.

use crate::*;
use lobster_btree::{BTree, LexCmp};
use lobster_buffer::{AliasConfig, ExtentPool, PoolConfig, OS_PAGE};
use lobster_extent::{plan_sequence, ExtentAllocator, ExtentSpec, TierPolicy, TierTable};
use lobster_metrics::LocalRecorder;
use lobster_sha256::Sha256;
use lobster_storage::{Device, MemDevice};
use lobster_types::{crc32, Geometry, Pid};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Time `iters` calls of `f`, recording each call's latency.
/// Returns (ops/s, latency histogram snapshot).
fn time_loop<R>(iters: usize, mut f: impl FnMut() -> R) -> (f64, lobster_metrics::HistSnapshot) {
    let mut rec = LocalRecorder::new();
    // A short warmup keeps first-touch effects out of the histogram.
    for _ in 0..(iters / 10).max(1) {
        std::hint::black_box(f());
    }
    let t0 = Instant::now();
    for _ in 0..iters {
        let t = Instant::now();
        std::hint::black_box(f());
        rec.record(t.elapsed().as_nanos().min(u64::MAX as u128) as u64);
    }
    let secs = t0.elapsed().as_secs_f64();
    let hist = lobster_metrics::Histogram::new();
    hist.merge_recorder(&rec);
    (iters as f64 / secs.max(1e-9), hist.snapshot())
}

/// [`time_loop`] on `readers` threads at once, reader `w` calling `f(w)`
/// `iters` times after its warmup. Returns the aggregate rate and every
/// call's latency.
fn time_readers<R>(
    readers: usize,
    iters: usize,
    f: impl Fn(usize) -> R + Sync,
) -> (f64, lobster_metrics::HistSnapshot) {
    let hist = lobster_metrics::Histogram::new();
    let warm = Barrier::new(readers + 1);
    let secs = std::thread::scope(|s| {
        let handles: Vec<_> = (0..readers)
            .map(|w| {
                let (f, hist, warm) = (&f, &hist, &warm);
                s.spawn(move || {
                    for _ in 0..(iters / 10).max(1) {
                        std::hint::black_box(f(w));
                    }
                    warm.wait();
                    let mut rec = LocalRecorder::new();
                    for _ in 0..iters {
                        let t = Instant::now();
                        std::hint::black_box(f(w));
                        rec.record(t.elapsed().as_nanos().min(u64::MAX as u128) as u64);
                    }
                    hist.merge_recorder(&rec);
                })
            })
            .collect();
        warm.wait();
        let t0 = Instant::now();
        for h in handles {
            h.join().expect("reader panicked");
        }
        t0.elapsed().as_secs_f64()
    });
    ((readers * iters) as f64 / secs.max(1e-9), hist.snapshot())
}

fn push(
    report: &mut Report,
    table: &mut Table,
    group: &str,
    name: &str,
    iters: usize,
    r: (f64, lobster_metrics::HistSnapshot),
) {
    let (rate, hist) = r;
    report.push(
        Entry::throughput("Our", rate)
            .param("group", group)
            .param("micro", name)
            .latency("op", hist.summary()),
    );
    table.row(&[
        format!("{group}/{name}"),
        fmt_rate(rate),
        lobster_metrics::fmt_ns(hist.percentile(50.0)),
        lobster_metrics::fmt_ns(hist.percentile(99.0)),
        iters.to_string(),
    ]);
}

pub(crate) fn run(report: &mut Report) {
    banner(
        "Micro — SHA-256, B-Tree point ops, tier math, CRC-32",
        "hot-path primitives",
    );
    let mut table = Table::new(&["micro", "ops/s", "p50", "p99", "iters"]);

    // ---- SHA-256 ------------------------------------------------------------
    {
        let blob = vec![0xABu8; 4 << 20];
        let iters = scaled(60).max(10);
        let r = time_loop(iters, || Sha256::digest(&blob));
        push(report, &mut table, "sha256", "full_rehash_4MiB", iters, r);

        // The paper's growth path: resume from the midstate instead of
        // re-hashing the existing content.
        let mut h = Sha256::new();
        h.update(&blob);
        let mid = h.midstate();
        let tail = &blob[mid.processed as usize..];
        let appended = vec![0xCDu8; 64 * 1024];
        let iters = scaled(2000).max(100);
        let r = time_loop(iters, || {
            let mut h = Sha256::resume(mid);
            h.update(tail);
            h.update(&appended);
            h.finalize()
        });
        push(
            report,
            &mut table,
            "sha256",
            "resume_append_64KiB",
            iters,
            r,
        );

        // Per-call dispatch cost: many tiny one-shot digests, so the SHA-NI
        // feature probe in compress_many runs once per digest. With the cached
        // OnceLock detection this is a single load; regressing to a repeated
        // CPUID probe shows up here immediately.
        let small = vec![0x5Au8; 64];
        let iters = scaled(300).max(20);
        let r = time_loop(iters, || {
            let mut acc = 0u8;
            for _ in 0..1024 {
                acc ^= Sha256::digest(&small)[0];
            }
            acc
        });
        push(report, &mut table, "sha256", "dispatch_1024x64B", iters, r);
    }

    // ---- B-Tree -------------------------------------------------------------
    {
        let dev: Arc<dyn Device> = Arc::new(MemDevice::new(256 << 20));
        let pool = ExtentPool::new(
            dev,
            Geometry::new(4096),
            PoolConfig {
                frames: 32 * 1024,
                alias: None,
                io_threads: 1,
            },
            lobster_metrics::new_metrics(),
        );
        let table_t = Arc::new(TierTable::new(TierPolicy::default()));
        let alloc = Arc::new(ExtentAllocator::new(table_t, Pid::new(0), 60_000));
        let tree = BTree::create(pool, alloc, Arc::new(LexCmp), 1).unwrap();
        let keys = scaled(100_000).max(1000) as u32;
        for k in 0..keys {
            tree.insert(format!("key{k:09}").as_bytes(), &k.to_le_bytes(), false)
                .unwrap();
        }

        let iters = scaled(200_000).max(1000);
        let mut k = 0u32;
        let r = time_loop(iters, || {
            k = (k.wrapping_mul(1103515245).wrapping_add(12345)) % keys;
            tree.lookup_map(format!("key{k:09}").as_bytes(), |v| v.len())
                .unwrap()
        });
        push(report, &mut table, "btree", "lookup", iters, r);

        let iters = scaled(60_000).max(500);
        let scan_max = keys.saturating_sub(keys / 100).max(1);
        let mut k = 0u32;
        let r = time_loop(iters, || {
            k = (k.wrapping_mul(1103515245).wrapping_add(12345)) % scan_max;
            let mut n = 0;
            tree.scan_from(format!("key{k:09}").as_bytes(), |_, _| {
                n += 1;
                n < 10
            })
            .unwrap();
            n
        });
        push(report, &mut table, "btree", "scan_10", iters, r);
    }

    // ---- Tier-table math ----------------------------------------------------
    {
        let tiers = TierTable::new(TierPolicy::default());
        for pages in [25u64, 2_560, 262_144] {
            let iters = scaled(200_000).max(1000);
            let r = time_loop(iters, || plan_sequence(&tiers, pages, false).unwrap());
            push(
                report,
                &mut table,
                "extent_tier",
                &format!("plan_sequence_{pages}p"),
                iters,
                r,
            );
        }
    }

    // ---- CRC-32 -------------------------------------------------------------
    {
        let record = vec![0x5Au8; 512];
        let iters = scaled(1_000_000).max(10_000);
        let r = time_loop(iters, || crc32(&record));
        push(report, &mut table, "crc32", "wal_record_512B", iters, r);
    }

    alias_vs_copy(report, &mut table);
    table.print();
}

/// A hot multi-extent BLOB read through each of `read_blob`'s two
/// mechanisms, by BLOB size and number of concurrent readers: latch every
/// extent, then either map them into the reader's aliasing area or copy
/// them out of their frames, and read the view's first and last byte (a
/// reader checking a header and a trailer). The BLOBs have the engine's
/// shape (default tier sequence, content view) and the aliasing areas its
/// default sizes.
fn alias_vs_copy(report: &mut Report, table: &mut Table) {
    const READERS: usize = 2;
    let dev: Arc<dyn Device> = Arc::new(MemDevice::new(64 << 20));
    let pool = ExtentPool::new(
        dev,
        Geometry::new(OS_PAGE),
        PoolConfig {
            frames: 1024,
            alias: Some(AliasConfig {
                workers: READERS,
                worker_local_bytes: 4 << 20,
                shared_bytes: 8 << 20,
            }),
            io_threads: 1,
        },
        lobster_metrics::new_metrics(),
    );
    if !pool.aliasing_enabled() {
        println!("alias_vs_copy: no mmap arena on this platform; skipped");
        return;
    }
    let tiers = TierTable::new(TierPolicy::default());
    let touch = |view: &[u8]| view[0] ^ view[view.len() - 1];
    let mut next_pid = 0u64;
    for kib in [64usize, 128, 256, 512, 768, 1024, 2048] {
        let len = kib << 10;
        let mut left = (len / OS_PAGE) as u64;
        let plan = plan_sequence(&tiers, left, false).unwrap();
        let specs: Vec<ExtentSpec> = plan
            .sizes
            .iter()
            .map(|&tier| {
                let spec = ExtentSpec::new(Pid::new(next_pid), tier.min(left));
                next_pid += tier;
                left -= spec.pages;
                spec
            })
            .collect();
        for (i, &spec) in specs.iter().enumerate() {
            let mut g = pool.create_extent(spec).unwrap();
            g.fill(i as u8);
        }
        let iters = (scaled(40_000) * 64 / kib).max(100);
        for readers in 1..=READERS {
            let aliased = time_readers(readers, iters, |w| {
                let guards = pool.latch_blob(&specs).unwrap();
                let view = pool.alias_extents(w, &guards).unwrap().unwrap();
                touch(&view.as_slice()[..len])
            });
            let copied = time_readers(readers, iters, |_| {
                let guards = pool.latch_blob(&specs).unwrap();
                pool.copy_extents(&guards, len, touch)
            });
            for (path, r) in [("alias", aliased), ("copy", copied)] {
                let name = format!("{path}_{kib}KiB_{readers}r");
                push(report, table, "alias_vs_copy", &name, iters, r);
            }
        }
        for &spec in &specs {
            pool.drop_extent(spec);
        }
    }
}
