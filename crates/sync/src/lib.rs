//! Concurrency facade for the LOBSTER engine.
//!
//! Every concurrency primitive the latch/commit fast paths use is imported
//! through this crate so the same code compiles two ways:
//!
//! * normally — thin re-exports of `std` atomics, the `parking_lot` shim's
//!   `Mutex`/`Condvar`/`RwLock`, and `std::thread`; zero-cost.
//! * under `RUSTFLAGS="--cfg lobster_loom"` — the `loom` shim's modeled
//!   equivalents, so the `#[cfg(test)] mod model` next to a production
//!   type (the page-table entry word in `lobster-buffer`, the batch
//!   completion signal in `lobster-storage`, the commit path in
//!   `lobster-core`) drives that type under bounded-exhaustive
//!   interleaving exploration ([`model`], [`race`], [`model_catches`]).
//!   Loom-mode types
//!   constructed outside an active model execution fall back to the real
//!   primitives, so the whole workspace still builds and runs under the cfg.
//!
//! The crate also hosts [`audit`], the debug-only runtime invariant auditor
//! (latch/pin ledger) that pool, htpool, and group-commit thread through
//! their fast paths.

#![forbid(unsafe_code)]

pub mod audit;

pub use std::sync::Arc;

// `Barrier` is a test/bench rendezvous, not a modeled primitive: the
// loom shim has no Barrier (a model would explore nothing — every
// thread just waits once), so both cfgs use std's. Re-exported here so
// facade-bound crates never need a direct `std::sync` import.
pub use std::sync::Barrier;

#[cfg(not(lobster_loom))]
pub use parking_lot::{
    Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, WaitTimeoutResult,
};

#[cfg(not(lobster_loom))]
pub mod atomic {
    pub use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
}

#[cfg(not(lobster_loom))]
pub mod thread {
    pub use std::thread::{spawn, yield_now, Builder, JoinHandle};
}

#[cfg(not(lobster_loom))]
pub mod hint {
    pub use std::hint::spin_loop;
}

#[cfg(lobster_loom)]
pub use loom::{
    Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, WaitTimeoutResult,
};

#[cfg(lobster_loom)]
pub mod atomic {
    pub use loom::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
}

#[cfg(lobster_loom)]
pub mod thread {
    pub use loom::thread::{spawn, yield_now, Builder, JoinHandle};
}

#[cfg(lobster_loom)]
pub mod hint {
    pub use loom::hint::spin_loop;
}

/// Run a concurrency model.
///
/// Under `cfg(lobster_loom)` this is `loom::model`: `f` is executed under
/// every schedule reachable within the preemption bound
/// (`LOOM_MAX_PREEMPTIONS`, default 3) and the call panics on the first
/// failing interleaving.
///
/// In a normal build it is a smoke harness: `f` runs `LOBSTER_MODEL_ITERS`
/// times (default 50) with real threads, so the model tests still execute —
/// and still catch gross protocol breakage — as part of tier-1 `cargo test`.
pub fn model<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    #[cfg(lobster_loom)]
    {
        loom::model(f);
    }
    #[cfg(not(lobster_loom))]
    {
        let iters = std::env::var("LOBSTER_MODEL_ITERS")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(50usize);
        for _ in 0..iters {
            f();
        }
    }
}

/// One thread of a model: see [`race`].
pub type Actor<W> = Box<dyn FnOnce(&W) + Send>;

/// Inside a [`model`] body: run the actors concurrently over one shared
/// `world` — the last on the calling thread, which would otherwise only
/// wait, the others on threads of their own — join them all, and hand the
/// world back for the final assertions.
pub fn race<W: Send + Sync + 'static>(world: W, mut actors: Vec<Actor<W>>) -> Arc<W> {
    let world = Arc::new(world);
    let inline = actors.pop();
    let handles: Vec<_> = actors
        .into_iter()
        .map(|actor| {
            let world = Arc::clone(&world);
            thread::spawn(move || actor(&world))
        })
        .collect();
    if let Some(actor) = inline {
        actor(&world);
    }
    for handle in handles {
        handle.join().expect("model thread");
    }
    world
}

/// True when this build routes primitives through the loom model checker.
pub const fn is_loom() -> bool {
    cfg!(lobster_loom)
}

/// Whether the checker catches a deliberately broken model, and for the
/// stated reason: `broken` must panic with a message containing `reason`
/// (`"deadlock"` for a lost wake-up). Decided under loom only, where
/// detection is deterministic — a real-thread smoke run cannot reliably hit
/// the race, so a normal build answers `true` without running `broken`.
pub fn model_catches(broken: impl FnOnce() + std::panic::UnwindSafe, reason: &str) -> bool {
    if !is_loom() {
        return true;
    }
    let Err(payload) = std::panic::catch_unwind(broken) else {
        return false;
    };
    let said = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied());
    let for_the_reason = said.is_some_and(|msg| msg.contains(reason));
    if !for_the_reason {
        eprintln!("broken model failed with {said:?}; expected {reason:?}");
    }
    for_the_reason
}
