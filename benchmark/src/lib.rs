//! `lobster-benchmark`: the ruler later changes to LOBSTER are measured
//! with. Four fixed workloads drive the engine through its two front
//! doors; an untraced run prints the end-to-end metrics, a traced run the
//! per-layer ones. See `README.md` for what each number means and
//! `../BENCHMARK.json` for names, units, directions and bounds.

pub mod affinity;
pub mod compare;
pub mod device;
pub mod gen;
pub mod json;
pub mod ladder;
pub mod layers;
pub mod probes;
pub mod recorder;
pub mod run;
pub mod trace;
pub mod workload;

/// Length of the timed window when the command line gives none; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 18.0;
/// Untimed warm-up before the window.
pub const WARMUP_SECONDS: f64 = 2.0;
