//! Fixture for the escape hatch: one violation per rule, every one
//! silenced by a `lint-allow` pragma with a reason. Must lint clean.
// lint-allow-file(sync-facade): fixture exercises the file-head pragma

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

pub fn calm(c: &AtomicU64, buf: &[u8], gate: &PinGate) -> u8 {
    // lint-allow(ordering-audit): fixture; the justification convention
    // is exercised by bad_ordering.rs
    c.load(Ordering::Relaxed);
    // lint-allow(guard-discipline): fixture; pairing is two lines down
    gate.acquire(1);
    gate.release(1); // lint-allow(guard-discipline): fixture; the matching release
    // lint-allow(no-panic-in-request-path): fixture; caller bounds-checks
    buf[0]
}

pub fn fwd(a: &M, b: &M) {
    let ga = a.lock(); // lint-allow(lock-order): fixture; inversion is deliberate
    let gb = b.lock();
    drop(gb);
    drop(ga);
}

pub fn bwd(a: &M, b: &M) {
    let gb = b.lock(); // lint-allow(lock-order): fixture; inversion is deliberate
    let ga = a.lock();
    drop(ga);
    drop(gb);
}

pub struct DefragConfig {
    // lint-allow(dead-knob): fixture; nothing outside this file sets it
    pub batch_blobs: usize,
}
