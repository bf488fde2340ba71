//! Deterministic cost-model counters.
//!
//! The paper reports hardware counters (instructions, cycles, kernel cycles,
//! cache misses) for some experiments (Tables II and IV). Inside a container
//! without perf-counter access we substitute a deterministic cost model:
//! every backend charges its logical events (syscalls, page copies, I/O,
//! journal writes, latch operations) to a shared [`Counters`] instance, and
//! derived "instructions" / "kernel cycles" figures are computed from fixed
//! per-event costs. Relative comparisons between systems — which is what the
//! paper's tables communicate — are preserved and fully reproducible.
// lint-allow-file(ordering-audit): this crate is the counter sink; every atomic is an independent Relaxed statistic read by snapshot/merge, nothing synchronizes on them.

#![forbid(unsafe_code)]

use lobster_sync::atomic::{AtomicU64, Ordering};
use lobster_sync::Arc;
use std::fmt;

pub mod hist;
pub use hist::{
    fmt_ns, HistSnapshot, Histogram, Latencies, LatenciesSnapshot, LatencySummary, LocalRecorder,
};

macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident),+ $(,)?) => {
        /// Shared atomic event counters. Cloning the handle is cheap; all
        /// clones observe the same totals.
        #[derive(Default)]
        pub struct Counters {
            $($(#[$doc])* pub $name: AtomicU64,)+
            /// Latency histograms for the engine's hot paths; not part of
            /// [`Snapshot`] — see [`Latencies::snapshot`].
            pub latencies: Latencies,
        }

        /// A plain-value copy of [`Counters`] at a point in time.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct Snapshot {
            $($(#[$doc])* pub $name: u64,)+
        }

        impl Counters {
            pub fn snapshot(&self) -> Snapshot {
                Snapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)+
                }
            }

            pub fn reset(&self) {
                $(self.$name.store(0, Ordering::Relaxed);)+
                self.latencies.reset();
            }

            /// Merge another counter set into this one: every counter is
            /// summed and the latency histograms are merged bucket-wise,
            /// so a multi-instance aggregate (e.g. the sharded engine's
            /// global view) is lossless at histogram-bucket granularity.
            /// Order-insensitive: merging any permutation of the same
            /// sets yields identical totals and buckets.
            pub fn merge_from(&self, other: &Counters) {
                $(self.$name.fetch_add(
                    other.$name.load(Ordering::Relaxed),
                    Ordering::Relaxed,
                );)+
                self.latencies.merge_from(&other.latencies);
            }
        }

        impl Snapshot {
            /// Every counter as a `(name, value)` pair, in declaration order.
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($name), self.$name),)+]
            }
        }

        impl std::ops::Sub for Snapshot {
            type Output = Snapshot;
            fn sub(self, rhs: Snapshot) -> Snapshot {
                Snapshot {
                    $($name: self.$name.saturating_sub(rhs.$name),)+
                }
            }
        }

        impl fmt::Display for Snapshot {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                $(
                    if self.$name != 0 {
                        writeln!(f, "  {:<24} {}", stringify!($name), self.$name)?;
                    }
                )+
                Ok(())
            }
        }
    };
}

counters! {
    /// System calls issued (real or modeled).
    syscalls,
    /// fsync/fdatasync calls.
    fsyncs,
    /// Data-device syncs the group committer issued to move the
    /// data-durable mark (not counted in `fsyncs`, which are the log's).
    data_syncs,
    /// Pages read from the device.
    pages_read,
    /// Pages written to the device.
    pages_written,
    /// Bytes read from the device.
    bytes_read,
    /// Bytes written to the device.
    bytes_written,
    /// Bytes moved by explicit memory copies (the paper's key overhead).
    memcpy_bytes,
    /// Individual memcpy invocations.
    memcpys,
    /// Bytes appended to a write-ahead log or journal.
    wal_bytes,
    /// WAL/journal checkpoint events.
    checkpoints,
    /// Extents allocated (fresh or recycled).
    extent_allocs,
    /// Extents released to free lists.
    extent_frees,
    /// Buffer-pool hits.
    cache_hits,
    /// Buffer-pool misses (required device I/O).
    cache_misses,
    /// Batched cold-read fault submissions (one per multi-extent miss).
    fault_batches,
    /// Pages faulted through batched submissions.
    pages_faulted_batched,
    /// Extents submitted by the sequential-readahead prefetcher.
    readahead_issued,
    /// Prefetched extents later consumed by a foreground read.
    readahead_hit,
    /// Prefetched extents evicted or dropped before any read touched them.
    readahead_wasted,
    /// Latch acquisitions (page or extent granularity).
    latch_acquisitions,
    /// Virtual-memory aliasing map/unmap operations (TLB-shootdown proxy).
    alias_ops,
    /// Page-table translations performed by the buffer manager.
    translations,
    /// Committed transactions.
    txn_commits,
    /// Aborted transactions.
    txn_aborts,
    /// B-Tree node accesses.
    btree_node_accesses,
    /// Metadata operations (stat/open/close equivalents).
    metadata_ops,
    /// Commit groups fsynced by the group committer's commit thread.
    commit_wal_groups,
    /// Content batches the group committer waited out: a group's fresh
    /// content (with its early flights) before its records, and its
    /// in-place writes after its fsync — at most two per group.
    commit_flush_batches,
    /// Commit submits that waited for pin budget: the pipeline pinned too
    /// many bytes of unwritten frames to admit the write set at once.
    commit_stalls,
    /// Flush batches a transaction submitted *before* its commit — under
    /// a waiting commit, the fresh extents of a put, written while it
    /// hashes (one per put), the clones of an update or an append's growth.
    eager_flush_batches,
    /// Pages in those batches. `pages_written` counts them too, once, when
    /// their ticket is reaped.
    eager_flush_pages,
    /// Group-committer I/O failures. Sticky: asynchronously acknowledged
    /// commits were lost, and every later drain/commit keeps erroring.
    commit_errors,
    /// Transient I/O errors absorbed by the retry policy (one per retried
    /// attempt, not per eventually-successful operation).
    io_retries,
    /// I/O operations that exhausted the retry budget and surfaced their
    /// error to the caller.
    io_giveups,
    /// Content-hash mismatches detected on the read path (verify-on-read)
    /// or by recovery/scrub.
    corruption_detected,
    /// Blobs quarantined after verify-on-read confirmed rot: their extents
    /// are fenced from re-allocation until the blob is deleted.
    quarantined_blobs,
    /// Requests completed by the serving front end (`lobster-serve`), all
    /// opcodes, success or error-reply.
    serve_requests,
    /// Payload bytes streamed to clients by get/get_range responses.
    serve_bytes_streamed,
    /// Requests shed by admission control or the pin-gate (BUSY replies).
    serve_rejects,
    /// Client connections that ended abnormally (mid-frame EOF, I/O error,
    /// or disconnect during a streamed response).
    serve_disconnects,
    /// Defragmenter scan passes completed (a pass scores geometry and may
    /// relocate a bounded batch of blobs).
    defrag_passes,
    /// BLOBs relocated into contiguous placement by the defragmenter.
    defrag_relocations,
    /// Content bytes copied by defragmenter relocations.
    defrag_bytes_moved,
    /// Relocation candidates skipped (lock contention, concurrent writer,
    /// quarantined blob, or no better placement available).
    defrag_skipped,
    /// Allocator fragmentation score ×1000 at the last defragmenter scan
    /// (gauge, maintained with `store`; 0 = one contiguous free run).
    fragmentation_score_milli,
    /// BLOBs re-hashed by the background scrubber (piggybacked on
    /// relocation or standalone cold-data scrub).
    scrub_blobs,
    /// Content bytes hashed by the background scrubber.
    scrub_bytes,
    /// Scrub hash mismatches: the blob joined the verify-on-read →
    /// quarantine degradation ladder.
    scrub_failures,
}

/// Shared handle to a counter set.
pub type Metrics = Arc<Counters>;

/// Create a fresh counter set.
pub fn new_metrics() -> Metrics {
    Arc::new(Counters::default())
}

impl Counters {
    #[inline]
    pub fn add(&self, field: &AtomicU64, n: u64) {
        field.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn bump_syscall(&self) {
        self.syscalls.fetch_add(1, Ordering::Relaxed);
    }

    /// Charge a retry-policy outcome: `retries` transient failures were
    /// absorbed, and `gave_up` says whether the operation still surfaced
    /// a transient error after exhausting its budget.
    #[inline]
    pub fn bump_io_retry(&self, retries: u64, gave_up: bool) {
        if retries > 0 {
            self.io_retries.fetch_add(retries, Ordering::Relaxed);
        }
        if gave_up {
            self.io_giveups.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[inline]
    pub fn bump_memcpy(&self, bytes: u64) {
        self.memcpys.fetch_add(1, Ordering::Relaxed);
        self.memcpy_bytes.fetch_add(bytes, Ordering::Relaxed);
    }
}

/// Fixed per-event costs used to derive the paper's counter-style metrics.
///
/// The constants are order-of-magnitude figures for a modern x86 server
/// (syscall ≈ 1–2 k cycles round trip, TLB shootdown ≈ 4 k cycles, etc.);
/// only ratios matter for the reproduced tables.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    pub cycles_per_syscall: u64,
    pub cycles_per_fsync: u64,
    pub cycles_per_alias_op: u64,
    pub cycles_per_latch: u64,
    pub cycles_per_translation: u64,
    pub cycles_per_memcpy_byte_milli: u64,
    pub cycles_per_btree_node: u64,
    pub instructions_per_syscall: u64,
    pub instructions_per_metadata_op: u64,
    pub instructions_per_btree_node: u64,
    pub instructions_per_memcpy_byte_milli: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            cycles_per_syscall: 1500,
            cycles_per_fsync: 20_000,
            cycles_per_alias_op: 4000,
            cycles_per_latch: 40,
            cycles_per_translation: 10,
            cycles_per_memcpy_byte_milli: 63, // ~0.063 cycles/byte (16 B/cycle AVX copy)
            cycles_per_btree_node: 300,
            instructions_per_syscall: 2500,
            instructions_per_metadata_op: 1200,
            instructions_per_btree_node: 250,
            instructions_per_memcpy_byte_milli: 32,
        }
    }
}

impl CostModel {
    /// Modeled kernel cycles: time spent inside the OS.
    pub fn kernel_cycles(&self, s: &Snapshot) -> u64 {
        s.syscalls * self.cycles_per_syscall
            + s.fsyncs * self.cycles_per_fsync
            + s.alias_ops * self.cycles_per_alias_op
    }

    /// Modeled total cycles (user + kernel).
    pub fn total_cycles(&self, s: &Snapshot) -> u64 {
        self.kernel_cycles(s)
            + s.latch_acquisitions * self.cycles_per_latch
            + s.translations * self.cycles_per_translation
            + s.memcpy_bytes * self.cycles_per_memcpy_byte_milli / 1000
            + s.btree_node_accesses * self.cycles_per_btree_node
    }

    /// Modeled retired instructions.
    pub fn instructions(&self, s: &Snapshot) -> u64 {
        s.syscalls * self.instructions_per_syscall
            + s.metadata_ops * self.instructions_per_metadata_op
            + s.btree_node_accesses * self.instructions_per_btree_node
            + s.memcpy_bytes * self.instructions_per_memcpy_byte_milli / 1000
    }

    /// Write amplification: device bytes written per logical byte (caller
    /// supplies the logical payload volume).
    pub fn write_amplification(&self, s: &Snapshot, logical_bytes: u64) -> f64 {
        if logical_bytes == 0 {
            return 0.0;
        }
        s.bytes_written as f64 / logical_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_delta() {
        let m = new_metrics();
        m.bump_syscall();
        m.bump_syscall();
        let a = m.snapshot();
        m.bump_syscall();
        m.bump_memcpy(100);
        let b = m.snapshot();
        let d = b - a;
        assert_eq!(d.syscalls, 1);
        assert_eq!(d.memcpy_bytes, 100);
        assert_eq!(d.memcpys, 1);
    }

    #[test]
    fn reset_clears_all() {
        let m = new_metrics();
        m.bump_syscall();
        m.pages_read.fetch_add(7, Ordering::Relaxed);
        m.reset();
        assert_eq!(m.snapshot(), Snapshot::default());
    }

    #[test]
    fn cost_model_monotone_in_events() {
        let cm = CostModel::default();
        let mut s = Snapshot::default();
        let base = cm.total_cycles(&s);
        s.syscalls = 10;
        s.memcpy_bytes = 1 << 20;
        assert!(cm.total_cycles(&s) > base);
        assert!(cm.kernel_cycles(&s) > 0);
        assert!(cm.instructions(&s) > 0);
    }

    #[test]
    fn write_amplification_ratio() {
        let cm = CostModel::default();
        let s = Snapshot {
            bytes_written: 2048,
            ..Snapshot::default()
        };
        assert!((cm.write_amplification(&s, 1024) - 2.0).abs() < 1e-9);
        assert_eq!(cm.write_amplification(&s, 0), 0.0);
    }

    #[test]
    fn display_skips_zero_fields() {
        let s = Snapshot {
            syscalls: 3,
            ..Snapshot::default()
        };
        let text = s.to_string();
        assert!(text.contains("syscalls"));
        assert!(!text.contains("fsyncs"));
    }

    #[test]
    fn shared_handle_observes_same_totals() {
        let m = new_metrics();
        let m2 = m.clone();
        m.txn_commits.fetch_add(5, Ordering::Relaxed);
        assert_eq!(m2.snapshot().txn_commits, 5);
    }
}
