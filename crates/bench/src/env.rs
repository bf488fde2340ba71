//! Centralized bench-environment knobs (`BenchEnv`).
//!
//! The scale factor and device-throttle routing resolve once, here, so
//! every JSON report can state the exact values a run used (via
//! [`BenchEnv::params`]).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// All environment knobs a bench run depends on, resolved once per process.
pub struct BenchEnv {
    /// Workload scale multiplier (`LOBSTER_BENCH_SCALE`, default 1.0).
    pub scale: f64,
    /// Route freshly built devices through the NVMe throttle model. Mutable
    /// because the I/O-bound experiments opt in per bench; reset between
    /// suite runs by [`crate::suite::run_spec`].
    throttled: AtomicBool,
}

impl BenchEnv {
    fn from_process_env() -> Self {
        BenchEnv {
            scale: std::env::var("LOBSTER_BENCH_SCALE")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(1.0),
            throttled: AtomicBool::new(false),
        }
    }

    pub fn throttled(&self) -> bool {
        self.throttled.load(Ordering::SeqCst)
    }

    pub fn set_throttled(&self, on: bool) {
        self.throttled.store(on, Ordering::SeqCst);
    }

    /// `n` scaled, with a floor of 1.
    pub fn scaled(&self, n: usize) -> usize {
        ((n as f64 * self.scale) as usize).max(1)
    }

    /// The knobs as report parameters, recorded verbatim in every JSON file.
    pub fn params(&self) -> Vec<(String, String)> {
        vec![
            ("scale".into(), format!("{}", self.scale)),
            ("throttled_devices".into(), format!("{}", self.throttled())),
        ]
    }
}

/// The process-wide bench environment.
pub fn env() -> &'static BenchEnv {
    static ENV: OnceLock<BenchEnv> = OnceLock::new();
    ENV.get_or_init(BenchEnv::from_process_env)
}
