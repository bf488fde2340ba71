//! Regression tests for the latch/pin ledger: prove the auditor actually
//! catches the bug classes it exists for — a double unlock on the versioned
//! latch and a leaked `prevent_evict` pin. The ledger only records in debug
//! builds, so everything here is gated on `debug_assertions`.
#![cfg(debug_assertions)]

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

fn seeded_extent(pool: &ExtentPool) -> ExtentSpec {
    let spec = ExtentSpec::new(Pid::new(0), 2);
    let mut g = pool.create_extent(spec).unwrap();
    g.fill(0x5A);
    g.mark_dirty();
    drop(g);
    pool.flush_extents(&[FlushItem::whole(spec)]).unwrap();
    pool.set_prevent_evict(spec.start, false);
    spec
}

#[test]
fn double_unlock_is_caught() {
    let pool = vm_pool(64);
    let spec = seeded_extent(&pool);

    // Balanced acquire/release passes through the ledger silently.
    let g = pool.read_extent(spec).unwrap();
    drop(g);

    // A release with no matching acquire must panic in the ledger before it
    // can corrupt the shared count in the page-table entry.
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.debug_force_release_shared(spec.start);
    }))
    .expect_err("ledger must flag a shared release that was never acquired");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("double unlock"),
        "unexpected panic message: {msg}"
    );
}

#[test]
fn leaked_prevent_evict_pin_is_caught() {
    let pool = vm_pool(64);
    let spec = seeded_extent(&pool);

    // Simulate a commit path that pins the extent and then forgets to
    // unpin it (e.g. an error path skipping the flush-completion hook).
    pool.set_prevent_evict(spec.start, true);
    let leaked = pool.audit().leaked_pins();
    assert_eq!(leaked, vec![spec.start.raw()], "pin must be recorded");
    assert!(
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.audit().assert_no_leaked_pins();
        }))
        .is_err(),
        "quiesce check must panic while a pin is leaked"
    );

    // The legitimate unpin clears the ledger and the check passes again.
    pool.set_prevent_evict(spec.start, false);
    pool.audit().assert_no_leaked_pins();
    assert_eq!(pool.audit().held_latches(), 0);
}

#[test]
fn same_key_reentry_is_caught() {
    let pool = vm_pool(64);
    let spec = seeded_extent(&pool);

    // Holding the extent exclusively and then trying to block on it again
    // from the same thread is a guaranteed self-deadlock; the ledger must
    // refuse before the thread hangs forever.
    let g = pool.write_extent(spec).unwrap();
    assert!(
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = pool.read_extent(spec);
        }))
        .is_err(),
        "blocking shared acquisition under an exclusive self-hold must panic"
    );
    drop(g);

    // After releasing, the same acquisition is fine.
    let g = pool.read_extent(spec).unwrap();
    drop(g);
    assert_eq!(pool.audit().held_latches(), 0);
}
