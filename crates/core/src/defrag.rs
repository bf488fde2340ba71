//! Background maintenance: online defragmentation + cold-data scrub.
//!
//! Long create/delete/append churn ages the extent space
//! ("Fragmentation in Large Object Repositories"): blob placements
//! scatter across discontiguous extent runs. Free space itself does not
//! shatter — the allocator's free-run map merges a freed extent with its
//! free neighbours — but what stays live between the holes keeps them
//! apart, and a placement carved from several holes stays scattered. The
//! [`Defragmenter`] repairs placements out of band:
//!
//! 1. **Relocation pass** — publish the free-run fragmentation score as a
//!    gauge; when it crosses the configured threshold, pick the blobs with
//!    the most discontiguous extent runs and move each to a fresh
//!    placement via [`Txn::relocate_blob`]: exclusive key lock,
//!    non-evicting copy that re-hashes every byte (the piggybacked scrub),
//!    WAL `BlobRelocate` record, atomic Blob State swap, old extents
//!    quarantine-fenced until the durability frontier frees them — and
//!    merges them into the runs around them.
//! 2. **Scrub pass** — independently of relocation, re-hash a bounded
//!    batch of idle blobs per pass against their Blob State SHA-256
//!    (round-robin cursor), feeding failures into the same
//!    verify-on-read → quarantine degradation ladder.
//!
//! This module is the *only* place outside the transaction layer allowed
//! to touch raw allocator fences and buffer leases; the RAII guards here
//! ([`FenceGuard`], [`SourceGuard`]) pair every acquire with a release,
//! and `lobster-lint`'s guard-discipline rules keep the raw calls banned
//! everywhere else.

use crate::catalog::{Relation, RelationKind};
use crate::db::Database;
use lobster_buffer::BlobPool;
use lobster_extent::{ExtentAllocator, ExtentSpec};
use lobster_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use lobster_sync::thread::JoinHandle;
use lobster_sync::{thread, Arc, Condvar, Mutex};
use lobster_types::Result;
use std::time::Duration;

/// Knobs for the background maintenance loop. Documented for operators
/// in EXPERIMENTS.md ("Aging and the defragmenter").
#[derive(Clone, Debug)]
pub struct DefragConfig {
    /// Sleep between maintenance passes.
    pub interval: Duration,
    /// Relocate only while the allocator's free-run fragmentation score
    /// is at least this (0 ⇒ always; 1.0 ⇒ never). The score's gauge is
    /// published on every pass regardless.
    pub min_score: f64,
    /// Upper bound on blob relocations per pass per shard.
    pub batch_blobs: usize,
    /// Idle blobs re-hashed per pass per shard by the standalone scrub
    /// (0 disables scrubbing; relocations still verify what they move).
    pub scrub_batch: usize,
}

impl Default for DefragConfig {
    fn default() -> Self {
        DefragConfig {
            interval: Duration::from_millis(200),
            min_score: 0.01,
            batch_blobs: 8,
            scrub_batch: 2,
        }
    }
}

/// What one [`defrag_pass`] did; summed across passes by the background
/// loop and inspectable in tests/benches.
#[derive(Clone, Copy, Debug, Default)]
pub struct DefragPassReport {
    /// Fragmentation score before relocations.
    pub score: f64,
    /// Blobs successfully moved to a fresh placement.
    pub relocated: usize,
    /// Candidates skipped (vanished, inline, quarantined).
    pub skipped: usize,
    /// Relocations that failed (lock timeout, scrub mismatch, alloc).
    pub errors: usize,
}

/// Lift-on-drop pairing for the allocator quarantine fence. Arm it over
/// the old placement before publishing a Blob State swap; on success
/// [`FenceGuard::disarm`] hands the still-fenced extents to the commit
/// batch (released + freed at the durability frontier), on any earlier
/// failure `Drop` lifts the fences so the untouched old placement stays
/// allocatable-around rather than leaking.
pub(crate) struct FenceGuard<'a> {
    alloc: &'a ExtentAllocator,
    specs: Vec<ExtentSpec>,
    armed: bool,
}

impl<'a> FenceGuard<'a> {
    pub(crate) fn new(alloc: &'a ExtentAllocator, specs: Vec<ExtentSpec>) -> Self {
        for spec in &specs {
            alloc.quarantine_extent(*spec);
        }
        FenceGuard {
            alloc,
            specs,
            armed: true,
        }
    }

    /// Keep the fences up and return the fenced extents; the caller now
    /// owns the release (normally `WriteSet::refenced` → retire).
    pub(crate) fn disarm(mut self) -> Vec<ExtentSpec> {
        self.armed = false;
        std::mem::take(&mut self.specs)
    }
}

impl Drop for FenceGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            for spec in &self.specs {
                self.alloc.release_quarantine(*spec);
            }
        }
    }
}

/// Unlease-on-drop pairing for relocation source reads: leases the
/// source extents that are *already resident* (stable frame reads for
/// the copy, no thrash) and leaves cold ones on the device, where
/// `read_range_uncached` serves them without faulting anything in.
pub(crate) struct SourceGuard<'a> {
    pool: &'a BlobPool,
    leased: Vec<ExtentSpec>,
}

impl<'a> SourceGuard<'a> {
    pub(crate) fn new(pool: &'a BlobPool, specs: &[ExtentSpec]) -> Self {
        let mut leased = Vec::new();
        for spec in specs {
            if pool.try_lease_resident(*spec).unwrap_or(false) {
                leased.push(*spec);
            }
        }
        SourceGuard { pool, leased }
    }
}

impl Drop for SourceGuard<'_> {
    fn drop(&mut self) {
        for spec in &self.leased {
            self.pool.unlease_extent(*spec);
        }
    }
}

/// Number of discontiguous pid runs in a blob's placement: adjacent
/// extents (`next.start == prev.start + prev.pages`) form one run. A
/// freshly bump-allocated blob scores 1; churn-scattered placements
/// score up to the extent count.
pub(crate) fn extent_runs(specs: &[ExtentSpec]) -> usize {
    let mut runs = 0usize;
    let mut prev_end: Option<u64> = None;
    for spec in specs {
        if prev_end != Some(spec.start.raw()) {
            runs += 1;
        }
        prev_end = Some(spec.start.raw() + spec.pages);
    }
    runs
}

/// One maintenance pass over a single shard: publish the fragmentation
/// gauge and relocate up to `cfg.batch_blobs` of the most-scattered blobs.
pub fn defrag_pass(db: &Arc<Database>, cfg: &DefragConfig) -> Result<DefragPassReport> {
    let mut rep = DefragPassReport {
        score: db.alloc.fragmentation_score(),
        ..Default::default()
    };
    // ordering: relaxed metrics counters; snapshot readers tolerate staleness
    db.metrics.defrag_passes.fetch_add(1, Ordering::Relaxed);
    db.metrics
        .fragmentation_score_milli
        // ordering: relaxed gauge; snapshot readers tolerate staleness
        .store((rep.score * 1000.0) as u64, Ordering::Relaxed);
    if rep.score < cfg.min_score || cfg.batch_blobs == 0 {
        return Ok(rep);
    }

    // Candidate scan: most-scattered first, smallest first among ties
    // (cheapest moves reclaim the most contiguity per byte copied).
    let mut candidates: Vec<(Arc<Relation>, Vec<u8>, usize, u64)> = Vec::new();
    for rel in db.registry.read().all() {
        if rel.kind != RelationKind::Blob {
            continue;
        }
        rel.tree.for_each(|k, v| {
            if let Ok(state) = crate::BlobState::decode(v) {
                let specs = state.extent_specs(&db.table);
                let runs = extent_runs(&specs);
                if runs > 1 && !db.is_blob_quarantined(&rel.name, k) {
                    candidates.push((rel.clone(), k.to_vec(), runs, state.size));
                }
            }
            true
        })?;
    }
    candidates.sort_by(|a, b| b.2.cmp(&a.2).then(a.3.cmp(&b.3)));
    candidates.truncate(cfg.batch_blobs);

    for (rel, key, _, _) in candidates {
        let mut txn = db.begin();
        match txn.relocate_blob(&rel, &key) {
            Ok(true) => match txn.commit() {
                Ok(()) => rep.relocated += 1,
                Err(_) => rep.errors += 1,
            },
            Ok(false) => {
                rep.skipped += 1;
                // ordering: relaxed metrics counter; snapshot readers tolerate staleness
                db.metrics.defrag_skipped.fetch_add(1, Ordering::Relaxed);
                txn.abort();
            }
            Err(_) => {
                // Lock timeout (blob is hot — leave it alone) or a scrub
                // mismatch (relocate_blob already quarantined it).
                rep.errors += 1;
                // ordering: relaxed metrics counter; snapshot readers tolerate staleness
                db.metrics.defrag_skipped.fetch_add(1, Ordering::Relaxed);
                txn.abort();
            }
        }
    }
    // Refresh the gauge so timelines track the post-batch state (the old
    // placements free, and merge, at the durability frontier).
    db.metrics.fragmentation_score_milli.store(
        (db.alloc.fragmentation_score() * 1000.0) as u64,
        // ordering: relaxed gauge; snapshot readers tolerate staleness
        Ordering::Relaxed,
    );
    Ok(rep)
}

/// Round-robin position of the standalone scrub within one shard.
#[derive(Clone, Debug, Default)]
pub struct ScrubCursor {
    rel: String,
    key: Vec<u8>,
}

/// Re-hash up to `batch` idle blobs after the cursor (wrapping at the
/// end) against their Blob State SHA-256; failures feed the quarantine
/// degradation ladder. Returns the number of blobs checked.
pub fn scrub_pass(db: &Arc<Database>, cursor: &mut ScrubCursor, batch: usize) -> Result<usize> {
    if batch == 0 {
        return Ok(0);
    }
    let mut rels: Vec<Arc<Relation>> = db
        .registry
        .read()
        .all()
        .into_iter()
        .filter(|r| r.kind == RelationKind::Blob)
        .collect();
    rels.sort_by(|a, b| a.name.cmp(&b.name));
    if rels.is_empty() {
        return Ok(0);
    }
    let first = rels.iter().position(|r| r.name >= cursor.rel).unwrap_or(0);
    let mut checked = 0usize;
    // One wrap-around sweep at most: visit each relation once, starting
    // at the cursor's relation and key.
    for i in 0..rels.len() {
        let rel = &rels[(first + i) % rels.len()];
        let from = if i == 0 && rel.name == cursor.rel {
            cursor.key.clone()
        } else {
            Vec::new()
        };
        let mut keys: Vec<Vec<u8>> = Vec::new();
        rel.tree.scan_from(&from, |k, _| {
            if k > from.as_slice() || from.is_empty() {
                keys.push(k.to_vec());
            }
            keys.len() < batch - checked
        })?;
        for key in keys {
            let mut txn = db.begin();
            let _ = txn.scrub_blob(rel, &key);
            txn.abort();
            checked += 1;
            cursor.rel = rel.name.clone();
            cursor.key = key;
        }
        if checked >= batch {
            return Ok(checked);
        }
        // This relation is exhausted; the next one starts from the top.
        cursor.rel = rel.name.clone();
        cursor.key = Vec::new();
    }
    // Full wrap: restart from the beginning next pass.
    *cursor = ScrubCursor::default();
    Ok(checked)
}

struct Shared {
    stop: AtomicBool,
    paused: AtomicBool,
    passes: AtomicU64,
    mu: Mutex<()>,
    cv: Condvar,
}

/// Background maintenance thread over one engine's shards: runs
/// [`defrag_pass`] + [`scrub_pass`] on every shard each interval.
/// Pause/resume gate the work without killing the thread (the serve
/// front end flips them around checkpoints and on SIGTERM);
/// [`Defragmenter::stop`] drains — the in-flight pass finishes, its
/// relocation batch commits or aborts cleanly, then the thread joins.
pub struct Defragmenter {
    shared: Arc<Shared>,
    handle: Option<JoinHandle<()>>,
}

impl Defragmenter {
    /// Spawn the maintenance loop over `dbs` (one entry per shard).
    pub fn start(dbs: Vec<Arc<Database>>, cfg: DefragConfig) -> Defragmenter {
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            paused: AtomicBool::new(false),
            passes: AtomicU64::new(0),
            mu: Mutex::new(()),
            cv: Condvar::new(),
        });
        let s = shared.clone();
        let handle = thread::Builder::new()
            .name("lobster-defrag".into())
            .spawn(move || {
                let mut cursors = vec![ScrubCursor::default(); dbs.len()];
                loop {
                    {
                        let mut g = s.mu.lock();
                        // ordering: Acquire; pairs with stop/pause Release stores
                        if !s.stop.load(Ordering::Acquire) {
                            s.cv.wait_for(&mut g, cfg.interval);
                        }
                    }
                    // ordering: Acquire; pairs with stop()'s Release store
                    if s.stop.load(Ordering::Acquire) {
                        return;
                    }
                    // ordering: Acquire; pairs with pause()'s Release store
                    if s.paused.load(Ordering::Acquire) {
                        continue;
                    }
                    for (db, cursor) in dbs.iter().zip(cursors.iter_mut()) {
                        // Maintenance must never take the engine down:
                        // pass errors (e.g. allocator pressure) are
                        // dropped and retried next interval.
                        let _ = defrag_pass(db, &cfg);
                        let _ = scrub_pass(db, cursor, cfg.scrub_batch);
                    }
                    // ordering: Release; pairs with Acquire in passes()
                    s.passes.fetch_add(1, Ordering::Release);
                }
            })
            .expect("spawn defrag thread");
        Defragmenter {
            shared,
            handle: Some(handle),
        }
    }

    /// Completed maintenance rounds (all shards) since start.
    pub fn passes(&self) -> u64 {
        // ordering: Acquire; pairs with the loop's Release increment
        self.shared.passes.load(Ordering::Acquire)
    }

    /// Skip passes until [`Defragmenter::resume`]; the in-flight pass
    /// (if any) still completes.
    pub fn pause(&self) {
        // ordering: Release; pairs with the loop's Acquire load
        self.shared.paused.store(true, Ordering::Release);
    }

    pub fn resume(&self) {
        // ordering: Release; pairs with the loop's Acquire load
        self.shared.paused.store(false, Ordering::Release);
    }

    /// Drain and join: the pass in flight finishes (its relocation
    /// batch commits or aborts — never torn), no new pass starts.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        // ordering: Release; pairs with the loop's Acquire load
        self.shared.stop.store(true, Ordering::Release);
        let _g = self.shared.mu.lock();
        self.shared.cv.notify_all();
        drop(_g);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Defragmenter {
    fn drop(&mut self) {
        self.shutdown();
    }
}
