//! Admission control for streaming pin leases (the serving path).
//!
//! A streaming range read pins extents resident (`prevent_evict`) for the
//! lifetime of the stream so chunks can be served straight out of the
//! buffer pool without re-faulting between chunks. Unbounded, that would
//! let many slow clients pin the whole pool and wedge eviction — the
//! same failure mode the commit pipeline's pin budget guards against.
//!
//! [`PinGate`] is a byte-granular counting semaphore over such a budget:
//! every stream acquires its pinned footprint before leasing and releases
//! it when the stream ends (including on client disconnect). A stream that
//! cannot acquire within its timeout is *rejected* with
//! `Error::BufferFull`, which the server surfaces as a retryable BUSY
//! response — backpressure, not queue collapse. The commit pipeline's
//! budget is a gate too, whose submitters wait as long as it takes
//! ([`PinGate::acquire_blocking`]).

use lobster_sync::{Condvar, Mutex};
use lobster_types::{Error, Result};
use std::time::{Duration, Instant};

/// Byte-granular admission semaphore for streaming pin leases.
///
/// Fairness is best-effort (condvar wakeup order); the gate guarantees
/// only that the sum of outstanding acquisitions never exceeds the
/// budget, and that a single oversized request (larger than the whole
/// budget) is clamped to the budget rather than deadlocking forever.
pub struct PinGate {
    budget: u64,
    inner: Mutex<u64>, // bytes currently acquired
    cv: Condvar,
}

impl PinGate {
    /// Create a gate with `budget` bytes of lease capacity. A zero budget
    /// is clamped to one byte so every request serializes instead of
    /// deadlocking.
    pub fn new(budget: u64) -> Self {
        PinGate {
            budget: budget.max(1),
            inner: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    /// Total lease capacity in bytes.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Bytes currently held by outstanding leases.
    pub fn in_use(&self) -> u64 {
        *self.inner.lock()
    }

    /// Acquire `bytes` of lease budget, waiting up to `timeout`. Requests
    /// larger than the whole budget are clamped to the budget (the caller
    /// still passes the original `bytes` to [`PinGate::release`] —
    /// release clamps identically, so accounting stays balanced). Returns
    /// `Error::BufferFull` on timeout; callers surface that as BUSY. A
    /// timeout too long for an `Instant` to represent waits as
    /// [`PinGate::acquire_blocking`] does.
    pub fn acquire(&self, bytes: u64, timeout: Duration) -> Result<()> {
        let Some(deadline) = Instant::now().checked_add(timeout) else {
            self.acquire_blocking(bytes);
            return Ok(());
        };
        let need = bytes.min(self.budget);
        let mut used = self.inner.lock();
        loop {
            if self.budget - *used >= need {
                *used += need;
                return Ok(());
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(Error::BufferFull);
            }
            if self.cv.wait_for(&mut used, deadline - now).timed_out() {
                // Re-check once after the timeout: a release may have
                // raced the wakeup.
                if self.budget - *used >= need {
                    *used += need;
                    return Ok(());
                }
                return Err(Error::BufferFull);
            }
        }
    }

    /// Acquire `bytes` of budget, waiting as long as it takes (same
    /// clamping rule: a request larger than the budget waits for an empty
    /// gate). Returns whether it had to wait.
    pub fn acquire_blocking(&self, bytes: u64) -> bool {
        let need = bytes.min(self.budget);
        let mut used = self.inner.lock();
        let waited = self.budget - *used < need;
        while self.budget - *used < need {
            self.cv.wait(&mut used);
        }
        *used += need;
        waited
    }

    /// Return `bytes` of budget acquired by [`PinGate::acquire`] or
    /// [`PinGate::acquire_blocking`] (same clamping rule).
    pub fn release(&self, bytes: u64) {
        let give = bytes.min(self.budget);
        let mut used = self.inner.lock();
        debug_assert!(*used >= give, "pin-gate release underflow");
        *used = used.saturating_sub(give);
        drop(used);
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobster_sync::Arc;

    #[test]
    fn acquire_release_roundtrip() {
        let g = PinGate::new(100);
        g.acquire(60, Duration::from_millis(10)).unwrap();
        assert_eq!(g.in_use(), 60);
        g.acquire(40, Duration::from_millis(10)).unwrap();
        assert!(matches!(
            g.acquire(1, Duration::from_millis(5)),
            Err(Error::BufferFull)
        ));
        g.release(60);
        g.acquire(1, Duration::from_millis(10)).unwrap();
        g.release(40);
        g.release(1);
        assert_eq!(g.in_use(), 0);
    }

    #[test]
    fn unrepresentable_timeout_waits_without_a_deadline() {
        let g = PinGate::new(100);
        g.acquire(1, Duration::MAX).unwrap();
        assert_eq!(g.in_use(), 1);
    }

    #[test]
    fn oversized_request_clamps_to_budget() {
        let g = PinGate::new(10);
        // 1 TiB request clamps to the 10-byte budget and succeeds...
        g.acquire(1 << 40, Duration::from_millis(10)).unwrap();
        assert_eq!(g.in_use(), 10);
        // ...and releases with the same (clamped) accounting.
        g.release(1 << 40);
        assert_eq!(g.in_use(), 0);
    }

    #[test]
    fn zero_budget_clamps_to_one() {
        let g = PinGate::new(0);
        g.acquire(5, Duration::from_millis(10)).unwrap();
        assert!(matches!(
            g.acquire(1, Duration::from_millis(5)),
            Err(Error::BufferFull)
        ));
        g.release(5);
    }

    #[test]
    fn acquire_blocking_reports_whether_it_waited() {
        let g = Arc::new(PinGate::new(8));
        assert!(!g.acquire_blocking(8), "an empty gate admits at once");
        let g2 = Arc::clone(&g);
        let h = std::thread::spawn(move || g2.acquire_blocking(4));
        // Long enough for the acquirer to reach the full gate on a busy host.
        std::thread::sleep(Duration::from_millis(200));
        g.release(8);
        assert!(h.join().unwrap(), "a full gate made it wait");
        assert_eq!(g.in_use(), 4);
    }

    #[test]
    fn blocked_acquirer_wakes_on_release() {
        let g = Arc::new(PinGate::new(8));
        g.acquire(8, Duration::from_millis(50)).unwrap();
        let g2 = Arc::clone(&g);
        let h = std::thread::spawn(move || g2.acquire(4, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        g.release(8);
        h.join().unwrap().unwrap();
        assert_eq!(g.in_use(), 4);
    }
}

#[cfg(test)]
mod model {
    //! The gate's admission, over the real [`PinGate`]: three acquirers
    //! with a budget of two — one at the budget, one past it (admitted
    //! alone, or the checker reports the deadlock), one small. The
    //! `broken_*` test admits whatever is already held and requires the
    //! checker to find two acquisitions past the budget, under loom only.

    use super::*;
    use lobster_sync::{model, model_catches, race, Actor};

    const LIMIT: u64 = 2;

    fn run_pins(acquire: fn(&PinGate, u64)) {
        let batch = |n: u64| -> Actor<PinGate> {
            Box::new(move |gate| {
                acquire(gate, n);
                let held = n.min(LIMIT);
                let used = gate.in_use();
                assert!(used >= held, "pin budget lost {n} bytes it admitted");
                let beside = used - held;
                assert!(
                    used <= LIMIT || beside == 0,
                    "{n} admitted beside {beside} past the limit"
                );
                gate.release(n);
            })
        };
        let gate = race(PinGate::new(LIMIT), vec![batch(2), batch(3), batch(1)]);
        assert_eq!(gate.in_use(), 0, "budget not fully returned");
    }

    #[test]
    fn pin_budget_conserved() {
        model(|| {
            run_pins(|gate, n| {
                gate.acquire_blocking(n);
            })
        });
    }

    #[test]
    fn broken_admission_past_the_limit_is_caught() {
        // Admits whatever is already held.
        let blind: fn(&PinGate, u64) = |gate, n| *gate.inner.lock() += n.min(gate.budget);
        let broken = move || model(move || run_pins(blind));
        assert!(model_catches(broken, "past the limit"));
    }
}
