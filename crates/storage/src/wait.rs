//! Waiting for a modeled device completion.
//!
//! A device that models its latency ([`crate::ThrottledDevice`], or any
//! device whose [`crate::Device::submit_read`] returns a deadline) knows
//! the instant a request completes the moment it is submitted. Every
//! foreground wait for that instant goes through [`wait_until`]: it sleeps
//! for most of the wait and yield-polls only the last [`WAKE_MARGIN`], so
//! a thread waiting out a 400 µs read leaves the processor to others
//! instead of spinning through the scheduler the whole time.

use std::cell::Cell;
use std::time::{Duration, Instant};

/// How long before a modeled completion [`wait_until`] stops sleeping and
/// starts yield-polling the clock. A timed sleep wakes late — on an idle
/// 2-vCPU reference box with precise timers, ≈ 15 µs at the median and
/// ≈ 43 µs at p90 for a 300 µs sleep — so the sleep aims this far ahead
/// of the deadline and the poll takes up the rest.
///
/// Swept on `lib_cold_1m` (same box, 10 s runs, seeds 5 and 901, five
/// runs a point and two at 120 µs; EXPERIMENTS.md "Wait for the device
/// without spinning"). Medians of `cpu_us_per_op` / `read_p50_us`, against
/// 507 / 490 µs for a wait that yield-polls throughout:
///
/// | margin | `cpu_us_per_op` | `read_p50_us` |
/// |---|---|---|
/// | 0 µs | 286 | 495 |
/// | 40 µs | 313 | 494 |
/// | 80 µs | 339 | 490 |
/// | 120 µs | 380 | 496 |
///
/// Every 40 µs of margin costs ~25 µs of processor time an operation,
/// while `read_p50_us` stays inside its run-to-run spread at every point.
/// 40 µs keeps most of the saving of 0 and still absorbs a typical late
/// wake-up, so a read rarely completes after its modeled instant.
pub const WAKE_MARGIN: Duration = Duration::from_micros(40);

/// Block until `deadline`, the modeled completion instant of a device
/// request: sleep until [`WAKE_MARGIN`] before it, then yield-poll the
/// clock for what is left. A missing deadline (a device that models no
/// latency, such as `MemDevice` or `FileDevice`) or one already past
/// returns at once, without a system call.
///
/// The first sleep on a thread asks for precise timers for that thread
/// (`precise_timed_waits`); later ones find it done.
pub fn wait_until(deadline: Option<Instant>) {
    let Some(deadline) = deadline else {
        return;
    };
    let nap = deadline
        .saturating_duration_since(Instant::now())
        .saturating_sub(WAKE_MARGIN);
    if !nap.is_zero() {
        PRECISE.with(|done| {
            if !done.replace(true) {
                precise_timed_waits();
            }
        });
        std::thread::sleep(nap);
    }
    while Instant::now() < deadline {
        std::thread::yield_now();
    }
}

thread_local! {
    /// Whether this thread has asked for precise timers.
    static PRECISE: Cell<bool> = const { Cell::new(false) };
}

/// Ask the kernel to fire the calling thread's timed waits on time. Linux
/// pads every timer of an ordinary thread by up to 50 µs so that wake-ups
/// batch; a thread that sleeps in [`wait_until`] until a modeled
/// completion instant wants the instant, not the batch. Without effect on
/// other systems, and harmless to call twice.
///
/// [`wait_until`] sets this on every thread that waits for a modeled
/// device, application threads included. That is benign: the slack is a
/// per-thread attribute the kernel uses only to coalesce that thread's own
/// timers, so the cost is at most a few more timer interrupts while the
/// thread sleeps, and the thread's other work and every other thread are
/// untouched. A real device models no deadline, so a deployment on one
/// never reaches the call.
fn precise_timed_waits() {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn prctl(option: std::ffi::c_int, ...) -> std::ffi::c_int;
        }
        const PR_SET_TIMERSLACK: std::ffi::c_int = 29;
        let slack_ns: std::ffi::c_ulong = 1;
        // SAFETY: `PR_SET_TIMERSLACK` reads one unsigned long by value and
        // changes only the calling thread's timer slack; no memory is
        // handed to the kernel. A failure leaves the default in place.
        unsafe { prctl(PR_SET_TIMERSLACK, slack_ns) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_or_past_deadline_returns_at_once() {
        // On a fresh thread, so the precise-timer flag starts clear.
        std::thread::spawn(|| {
            let t0 = Instant::now();
            wait_until(None);
            wait_until(Some(t0));
            wait_until(t0.checked_sub(Duration::from_millis(5)));
            assert!(t0.elapsed() < Duration::from_millis(1));
            assert!(
                !PRECISE.with(Cell::get),
                "slept on a missing or past deadline"
            );
        })
        .join()
        .unwrap();
    }

    #[test]
    fn a_deadline_inside_the_margin_is_polled_not_slept() {
        std::thread::spawn(|| {
            let deadline = Instant::now() + WAKE_MARGIN / 2;
            wait_until(Some(deadline));
            assert!(Instant::now() >= deadline);
            assert!(!PRECISE.with(Cell::get), "slept inside the margin");
        })
        .join()
        .unwrap();
    }
}
