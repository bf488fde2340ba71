//! Bounded exponential backoff with deterministic jitter for transient I/O.
//!
//! The storage layer classifies device errors into transient (EINTR-style
//! hiccups, see [`crate::Error::is_transient_io`]) and permanent faults. The
//! choke points that talk to the device — buffer-pool faulting, WAL
//! append/fsync, and the group committer's content writes — wrap their device
//! calls in a [`RetryPolicy`] so a momentary failure is absorbed instead
//! of poisoning the engine. Permanent errors are never retried. Every
//! choke point runs the one engine-wide policy, [`RetryPolicy::DEFAULT`].
//!
//! Jitter is deterministic — derived from a caller-supplied seed and the
//! attempt number by a splitmix-style mixer — so torture sweeps replay
//! byte-identically under a fixed seed. Delays are microsecond-scale: the
//! point is to decorrelate retries from a transient condition, not to
//! model production backoff curves, and tests must stay fast.

use crate::error::Result;
use std::time::Duration;

/// Bounded exponential backoff policy for transient I/O errors.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Maximum number of *re*-attempts after the first failure.
    pub max_retries: u32,
    /// Backoff before the first retry, in microseconds.
    pub base_delay_us: u64,
    /// Ceiling on a single backoff delay, in microseconds.
    pub max_delay_us: u64,
    /// Seed for the deterministic jitter.
    pub seed: u64,
}

/// What a [`RetryPolicy::run`] invocation did, for metrics accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Transient failures that were absorbed and retried.
    pub retries: u64,
    /// The operation still failed after exhausting the retry budget on a
    /// transient error (permanent errors fail fast and do not count).
    pub gave_up: bool,
}

impl RetryPolicy {
    /// The policy every device choke point runs: three re-attempts.
    pub const DEFAULT: RetryPolicy = RetryPolicy::new(3);

    /// A policy retrying up to `max_retries` times with the default
    /// 50 µs → 5 ms backoff window.
    pub const fn new(max_retries: u32) -> Self {
        RetryPolicy {
            max_retries,
            base_delay_us: 50,
            max_delay_us: 5_000,
            seed: 0x10B5_7E50, // "LOBSTER-0"; any fixed value works
        }
    }

    /// Derive a policy with a different jitter seed (e.g. per worker or
    /// per sweep case) so concurrent retriers do not stampede in phase.
    pub const fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Deterministic backoff for the given retry `attempt` (0-based):
    /// exponential growth capped at `max_delay_us`, jittered into the
    /// upper half of the window so the delay never collapses to zero.
    pub fn backoff_us(&self, attempt: u32) -> u64 {
        let exp = self
            .base_delay_us
            .saturating_mul(1u64 << attempt.min(20))
            .min(self.max_delay_us);
        if exp == 0 {
            return 0;
        }
        let j = mix64(self.seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        exp / 2 + j % (exp / 2 + 1)
    }

    /// Run `op`, retrying transient I/O errors (per
    /// [`crate::Error::is_transient_io`]) up to `max_retries` times with
    /// exponential backoff. Returns the final result plus [`RetryStats`]
    /// for the caller to charge to its metrics.
    pub fn run<T>(&self, mut op: impl FnMut() -> Result<T>) -> (Result<T>, RetryStats) {
        let mut stats = RetryStats::default();
        let mut attempt = 0u32;
        loop {
            match op() {
                Ok(v) => return (Ok(v), stats),
                Err(e) if e.is_transient_io() && attempt < self.max_retries => {
                    stats.retries += 1;
                    let us = self.backoff_us(attempt);
                    if us > 0 {
                        std::thread::sleep(Duration::from_micros(us));
                    }
                    attempt += 1;
                }
                Err(e) => {
                    stats.gave_up = e.is_transient_io();
                    return (Err(e), stats);
                }
            }
        }
    }
}

/// splitmix64 finalizer: a cheap, well-mixed hash for jitter derivation.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;
    use std::cell::Cell;
    use std::io;

    fn transient() -> Error {
        Error::Io(io::Error::new(io::ErrorKind::Interrupted, "hiccup"))
    }

    fn permanent() -> Error {
        Error::Io(io::Error::other("dead controller"))
    }

    #[test]
    fn succeeds_after_transient_failures() {
        let policy = RetryPolicy {
            base_delay_us: 0,
            ..RetryPolicy::new(3)
        };
        let left = Cell::new(2u32);
        let (res, stats) = policy.run(|| {
            if left.get() > 0 {
                left.set(left.get() - 1);
                Err(transient())
            } else {
                Ok(42)
            }
        });
        assert_eq!(res.unwrap(), 42);
        assert_eq!(stats.retries, 2);
        assert!(!stats.gave_up);
    }

    #[test]
    fn gives_up_after_budget() {
        let policy = RetryPolicy {
            base_delay_us: 0,
            ..RetryPolicy::new(2)
        };
        let calls = Cell::new(0u32);
        let (res, stats) = policy.run(|| -> Result<()> {
            calls.set(calls.get() + 1);
            Err(transient())
        });
        assert!(res.is_err());
        assert_eq!(calls.get(), 3); // 1 initial + 2 retries
        assert_eq!(stats.retries, 2);
        assert!(stats.gave_up);
    }

    #[test]
    fn permanent_errors_fail_fast() {
        let policy = RetryPolicy::new(5);
        let calls = Cell::new(0u32);
        let (res, stats) = policy.run(|| -> Result<()> {
            calls.set(calls.get() + 1);
            Err(permanent())
        });
        assert!(res.is_err());
        assert_eq!(calls.get(), 1);
        assert_eq!(stats.retries, 0);
        assert!(!stats.gave_up);
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_grows() {
        let policy = RetryPolicy::new(8);
        for attempt in 0..8 {
            let a = policy.backoff_us(attempt);
            let b = policy.backoff_us(attempt);
            assert_eq!(a, b, "jitter must be deterministic");
            let exp = (policy.base_delay_us << attempt.min(20)).min(policy.max_delay_us);
            assert!(
                a >= exp / 2 && a <= exp,
                "attempt {attempt}: {a} vs cap {exp}"
            );
        }
        // Different seeds decorrelate.
        let other = RetryPolicy::new(8).with_seed(99);
        assert_ne!(
            (0..8).map(|a| policy.backoff_us(a)).collect::<Vec<_>>(),
            (0..8).map(|a| other.backoff_us(a)).collect::<Vec<_>>()
        );
    }
}
