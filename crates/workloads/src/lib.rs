//! Workload generators for the evaluation (§V).
//!
//! * [`ycsb`] — YCSB-style key/value workloads with zipfian key selection
//!   and the paper's payload configurations (120 B, 100 KB, 10 MB, mixed
//!   4 KB–10 MB, 1 GB-class).
//! * [`wiki`] — a synthetic English-Wikipedia-like corpus: log-normal
//!   article sizes fitted to the percentiles the paper cites (43 % of
//!   articles > 767 B; the 8191 B PostgreSQL limit near the 95th
//!   percentile), zipfian view counts, and bodies with long shared
//!   prefixes (DESIGN.md substitution 5).
//! * [`gitclone`] — a git-clone-like filesystem trace (many small file
//!   creations + metadata operations), standing in for the paper's traced
//!   `git clone --depth 1 linux` workload (§V-I).
//! * [`zipf`] — the zipfian generator underlying both.
//! * [`driver`] — a closed-loop multi-client driver for the
//!   `threads = 1..N` scalability axis (retry-on-conflict, merged per-op
//!   latency histograms).

#![forbid(unsafe_code)]

pub mod driver;
pub mod gitclone;
pub mod payload;
pub mod wiki;
pub mod ycsb;
pub mod zipf;

pub use driver::{run_closed_loop, run_virtual_parallel, DriverReport, OpOutcome};
pub use gitclone::{GitCloneTrace, TraceOp};
pub use payload::PayloadDist;
pub use wiki::{WikiArticle, WikiCorpus};
pub use ycsb::{Op, YcsbConfig, YcsbGenerator};
pub use zipf::Zipf;

/// Deterministic, fast byte-pattern fill used by all generators: unique per
/// (seed, length) and cheap enough to not dominate benchmarks.
pub fn fill_pattern(buf: &mut [u8], seed: u64) {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut chunks = buf.chunks_exact_mut(8);
    for chunk in &mut chunks {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        chunk.copy_from_slice(&state.to_le_bytes());
    }
    for b in chunks.into_remainder() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        *b = (state >> 33) as u8;
    }
}

/// Allocate and fill a payload.
pub fn make_payload(len: usize, seed: u64) -> Vec<u8> {
    let mut v = vec![0u8; len];
    fill_pattern(&mut v, seed);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_pattern_is_deterministic_and_seed_sensitive() {
        let a = make_payload(1000, 1);
        let b = make_payload(1000, 1);
        let c = make_payload(1000, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn fill_pattern_handles_odd_lengths() {
        for len in [0, 1, 7, 8, 9, 63, 100] {
            let p = make_payload(len, 42);
            assert_eq!(p.len(), len);
        }
    }
}
