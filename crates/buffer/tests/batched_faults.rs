//! Batched cold-read faulting and sequential readahead (the IoEngine read
//! path): one submission per multi-extent cold BLOB, prefetch that never
//! evicts, and hit/wasted accounting — all safe under concurrent eviction.

use lobster_buffer::{ExtentPool, FlushItem, PoolConfig};
use lobster_extent::ExtentSpec;
use lobster_storage::{Device, MemDevice};
use lobster_types::{Geometry, Pid};
use std::sync::Arc;

const PAGE: usize = 4096;

fn vm_pool(frames: u64) -> Arc<ExtentPool> {
    let dev: Arc<dyn Device> = Arc::new(MemDevice::new(64 << 20));
    ExtentPool::new(
        dev,
        Geometry::new(PAGE),
        PoolConfig {
            frames,
            alias: None,
            io_threads: 2,
        },
        lobster_metrics::new_metrics(),
    )
}

/// Create `n` extents of `pages` pages each, fill extent `e` with byte `e`,
/// flush, and evict everything — the cold-read starting state.
fn seed_cold_blob(pool: &ExtentPool, n: u64, pages: u64) -> Vec<ExtentSpec> {
    let specs: Vec<ExtentSpec> = (0..n)
        .map(|e| ExtentSpec::new(Pid::new(e * pages), pages))
        .collect();
    for (e, spec) in specs.iter().enumerate() {
        let mut g = pool.create_extent(*spec).unwrap();
        g.fill(e as u8);
        g.mark_dirty();
    }
    let items: Vec<FlushItem> = specs.iter().map(|s| FlushItem::whole(*s)).collect();
    pool.flush_extents(&items).unwrap();
    pool.drop_caches();
    for spec in &specs {
        assert!(!pool.is_resident(spec.start), "drop_caches must evict");
    }
    specs
}

fn check_content(view: &[u8], n: u64, pages: u64) {
    let ext_bytes = (pages as usize) * PAGE;
    assert_eq!(view.len(), (n as usize) * ext_bytes);
    for e in 0..n as usize {
        assert!(
            view[e * ext_bytes..(e + 1) * ext_bytes]
                .iter()
                .all(|&b| b == e as u8),
            "extent {e} corrupted"
        );
    }
}

/// Acceptance criterion: a cold 64-extent BLOB read goes to the device as
/// ONE IoEngine batch, not 64 serial reads.
#[test]
fn cold_64_extent_read_is_one_batch() {
    let (n, pages) = (64u64, 2u64);
    let pool = vm_pool(256);
    let specs = seed_cold_blob(&pool, n, pages);

    let before = pool.metrics().snapshot();
    pool.read_blob(0, &specs, n * pages * PAGE as u64, |view| {
        check_content(view, n, pages)
    })
    .unwrap();
    let delta = pool.metrics().snapshot() - before;

    assert_eq!(delta.fault_batches, 1, "expected exactly one fault batch");
    assert!(delta.fault_batches <= 2);
    assert_eq!(delta.pages_faulted_batched, n * pages);
    assert_eq!(delta.pages_read, n * pages);
    assert_eq!(delta.cache_misses, n, "every extent was cold");
}

/// A warm second read faults nothing.
#[test]
fn warm_read_faults_nothing() {
    let (n, pages) = (8u64, 2u64);
    let pool = vm_pool(64);
    let specs = seed_cold_blob(&pool, n, pages);
    pool.read_blob(0, &specs, n * pages * PAGE as u64, |_| ())
        .unwrap();

    let before = pool.metrics().snapshot();
    pool.read_blob(0, &specs, n * pages * PAGE as u64, |view| {
        check_content(view, n, pages)
    })
    .unwrap();
    let delta = pool.metrics().snapshot() - before;
    assert_eq!(delta.fault_batches, 0);
    assert_eq!(delta.pages_read, 0);
    assert_eq!(delta.cache_misses, 0);
}

/// Prefetched extents become resident asynchronously and a foreground read
/// that consumes them counts as a readahead hit.
#[test]
fn prefetch_publishes_and_counts_hits() {
    let (n, pages) = (4u64, 2u64);
    let pool = vm_pool(64);
    let specs = seed_cold_blob(&pool, n, pages);

    let before = pool.metrics().snapshot();
    pool.prefetch(&specs);
    // Reap until published (try_complete makes progress on every call).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while specs.iter().any(|s| !pool.is_resident(s.start)) {
        pool.poll_prefetches();
        assert!(
            std::time::Instant::now() < deadline,
            "prefetch never landed"
        );
        std::thread::yield_now();
    }
    pool.read_blob(0, &specs, n * pages * PAGE as u64, |view| {
        check_content(view, n, pages)
    })
    .unwrap();
    let delta = pool.metrics().snapshot() - before;

    assert_eq!(delta.readahead_issued, n);
    assert_eq!(delta.readahead_hit, n);
    assert_eq!(delta.readahead_wasted, 0);
    assert_eq!(delta.fault_batches, 0, "prefetched read needs no fault");
    assert_eq!(delta.cache_misses, 0);
}

/// Prefetched extents that are evicted before any read touched them count
/// as wasted readahead.
#[test]
fn unconsumed_prefetch_counts_wasted() {
    let (n, pages) = (4u64, 2u64);
    let pool = vm_pool(64);
    let specs = seed_cold_blob(&pool, n, pages);

    let before = pool.metrics().snapshot();
    pool.prefetch(&specs);
    // drop_caches drains in-flight readahead, then evicts the published
    // (clean, unlatched) extents — all of it wasted.
    pool.drop_caches();
    let delta = pool.metrics().snapshot() - before;

    assert_eq!(delta.readahead_issued, n);
    assert_eq!(delta.readahead_wasted, n);
    assert_eq!(delta.readahead_hit, 0);
}

/// Readahead must never evict resident data to make room: with zero free
/// frames the prefetch is skipped entirely.
#[test]
fn prefetch_never_evicts_for_room() {
    let pool = vm_pool(8);
    // Two 4-page extents on the device, evicted.
    let cold = seed_cold_blob(&pool, 2, 4);
    // Fill all 8 frames with resident extents.
    let fillers: Vec<ExtentSpec> = (0..2u64)
        .map(|e| ExtentSpec::new(Pid::new(100 + e * 4), 4))
        .collect();
    for spec in &fillers {
        let mut g = pool.create_extent(*spec).unwrap();
        g.fill(0xEE);
        g.mark_dirty();
    }
    let items: Vec<FlushItem> = fillers.iter().map(|s| FlushItem::whole(*s)).collect();
    pool.flush_extents(&items).unwrap();
    assert_eq!(pool.frames_in_use(), 8);

    let before = pool.metrics().snapshot();
    pool.prefetch(&cold);
    pool.poll_prefetches();
    let delta = pool.metrics().snapshot() - before;

    assert_eq!(delta.readahead_issued, 0, "no free frames, nothing issued");
    for spec in &cold {
        assert!(!pool.is_resident(spec.start));
    }
    for spec in &fillers {
        assert!(pool.is_resident(spec.start), "resident data displaced");
    }
    // The cold extents must still be readable through the normal path.
    pool.read_blob(0, &cold, 8 * PAGE as u64, |view| check_content(view, 2, 4))
        .unwrap();
}

/// Concurrent readers, an evictor, and a prefetcher hammering the same
/// extents: every read must stay byte-exact and nothing may deadlock.
#[test]
fn concurrent_readers_evictor_prefetcher_stress() {
    let (n, pages) = (8u64, 2u64);
    let pool = vm_pool(64);
    let specs = seed_cold_blob(&pool, n, pages);
    let iters = if cfg!(debug_assertions) { 100 } else { 1000 };

    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let pool = &pool;
                let specs = &specs;
                s.spawn(move || {
                    for _ in 0..iters {
                        pool.read_blob(0, specs, n * pages * PAGE as u64, |view| {
                            check_content(view, n, pages)
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        let stop = &stop;
        let pool_ref = &pool;
        s.spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                pool_ref.drop_caches();
                std::thread::yield_now();
            }
        });
        let specs_ref = &specs;
        s.spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                pool_ref.prefetch(specs_ref);
                pool_ref.poll_prefetches();
                std::thread::yield_now();
            }
        });
        for r in readers {
            r.join().unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });

    // Final state must still be fully readable and exact.
    pool.read_blob(0, &specs, n * pages * PAGE as u64, |view| {
        check_content(view, n, pages)
    })
    .unwrap();
}
