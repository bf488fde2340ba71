//! Micro-benchmarks of the primitives the engine's hot paths are built
//! from: resumable SHA-256 (growth ops), B-Tree point ops (metadata
//! path), tier-table math (allocation path), CRC-32 (WAL framing), and the
//! three ways a hot multi-extent BLOB reaches a reader (in place, aliased
//! or copied); the alias/copy crossover sets
//! `lobster_buffer::ALIAS_MIN_BYTES`.
//!
//! The suite runs the bodies under the harness's [`timed`] loop (or, for
//! concurrent readers, one such loop per thread) with every iteration's
//! latency recorded, so the JSON report gets p50/p95/p99 for each
//! primitive.

use crate::*;
use lobster_btree::{BTree, LexCmp};
use lobster_buffer::{AliasConfig, ExtentPool, PoolConfig, OS_PAGE};
use lobster_extent::{plan_sequence, ExtentAllocator, ExtentSpec, TierPolicy, TierTable};
use lobster_metrics::LocalRecorder;
use lobster_sha256::Sha256;
use lobster_types::{crc32, Geometry, Pid};
use std::convert::Infallible;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Time `iters` calls of `f` after a short warmup that keeps first-touch
/// effects out of the histogram.
fn time_loop<R>(iters: usize, mut f: impl FnMut() -> R) -> Timed {
    for _ in 0..(iters / 10).max(1) {
        std::hint::black_box(f());
    }
    match timed(iters, || (), |()| Ok::<R, Infallible>(f())) {
        Ok(run) => run,
        Err(never) => match never {},
    }
}

/// [`time_loop`] on `readers` threads at once, reader `w` calling `f(w)`
/// `iters` times after its warmup. Returns the aggregate rate and every
/// call's latency.
fn time_readers<R>(readers: usize, iters: usize, f: impl Fn(usize) -> R + Sync) -> Timed {
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
        t0.elapsed()
    });
    Timed {
        ops: (readers * iters) as u64,
        elapsed: secs,
        latency: hist.snapshot(),
    }
}

fn push(report: &mut Report, group: &str, name: &str, run: Timed) {
    report.push(
        Entry::throughput("Our", run.rate())
            .param("group", group)
            .param("micro", name)
            .latency("op", run.summary()),
    );
}

pub(crate) fn run(report: &mut Report) {
    // ---- SHA-256 ------------------------------------------------------------
    {
        let blob = vec![0xABu8; 4 << 20];
        let iters = scaled(60).max(10);
        let r = time_loop(iters, || Sha256::digest(&blob));
        push(report, "sha256", "full_rehash_4MiB", r);

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
        push(report, "sha256", "resume_append_64KiB", r);

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
        push(report, "sha256", "dispatch_1024x64B", r);
    }

    // ---- B-Tree -------------------------------------------------------------
    {
        let dev = Dev::mem(256 << 20).build();
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
        push(report, "btree", "lookup", r);

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
        push(report, "btree", "scan_10", r);
    }

    // ---- Tier-table math ----------------------------------------------------
    {
        let tiers = TierTable::new(TierPolicy::default());
        for pages in [25u64, 2_560, 262_144] {
            let iters = scaled(200_000).max(1000);
            let r = time_loop(iters, || plan_sequence(&tiers, pages, false).unwrap());
            push(report, "extent_tier", &format!("plan_sequence_{pages}p"), r);
        }
    }

    // ---- CRC-32 -------------------------------------------------------------
    {
        let record = vec![0x5Au8; 512];
        let iters = scaled(1_000_000).max(10_000);
        let r = time_loop(iters, || crc32(&record));
        push(report, "crc32", "wal_record_512B", r);
    }

    alias_vs_copy(report);
}

/// A hot multi-extent BLOB read through each of `read_blob`'s three
/// mechanisms, by BLOB size and number of concurrent readers: latch every
/// extent, then take the frames in place (they were framed back to back),
/// map them into the reader's aliasing area or copy them out of their
/// frames, and read the view's first and last byte (a reader checking a
/// header and a trailer). The BLOBs have the engine's shape (default tier
/// sequence, content view) and the aliasing areas its default sizes.
fn alias_vs_copy(report: &mut Report) {
    const READERS: usize = 2;
    let dev = Dev::mem(64 << 20).build();
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
            let in_place = time_readers(readers, iters, |_| {
                let guards = pool.latch_blob(&specs).unwrap();
                touch(&pool.in_place_extents(&guards).unwrap()[..len])
            });
            for (path, r) in [("alias", aliased), ("copy", copied), ("inplace", in_place)] {
                let name = format!("{path}_{kib}KiB_{readers}r");
                push(report, "alias_vs_copy", &name, r);
            }
        }
        for &spec in &specs {
            pool.drop_extent(spec);
        }
    }
}
