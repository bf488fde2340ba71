//! Background group committer (§V-A: "group commit so the critical path
//! usually does not involve I/O"), organized as a **two-stage pipeline**.
//!
//! Stage 1 — the **WAL stage** — absorbs queued [`CommitBatch`]es into
//! groups, appends their records and makes them durable with one group
//! fsync. Stage 2 — the **flush stage** — receives each durable group and
//! keeps up to [`INFLIGHT_FLUSHES`] extent-flush batches in flight
//! concurrently (non-blocking submissions reaped through
//! [`FlushTicket`]s), so group N+1's WAL fsync overlaps group N's extent
//! writes instead of the log device idling during every flush and the
//! extent engine idling during every fsync.
//!
//! The single-flush ordering of §III-C is preserved *per group*: a group's
//! extents are handed to the flush stage only after its WAL fsync
//! returned, and a group's freed extents are recycled (and its pin budget
//! released) only once its flush completed. Two in-flight batches never
//! touch the same extent — the flush stage waits out the earlier flight —
//! so writes to one extent cannot reorder; the same admission check
//! covers extents a group merely *recycles* at retire (deletes' freed,
//! relocations' refenced), because dropping them from the pool would
//! spin on the earlier flight's latches on the flush thread itself.
//!
//! Completion is tracked per batch through durable **epochs**: `submit`
//! assigns epoch N to the N-th batch, and a condvar-guarded frontier
//! advances once a batch's group is fully retired. [`GroupCommitter::drain`]
//! and synchronous `commit_wait` commits block on that condvar — no
//! busy-waiting on the commit path. Committer I/O errors are sticky: the
//! first failure is recorded, counted in `commit_errors`, and surfaced as
//! `Err` by every later `drain`/`submit` (an asynchronously acknowledged
//! commit may have been lost; the database stops pretending otherwise).

use lobster_buffer::{BlobPool, FlushItem, FlushTicket};
use lobster_extent::{ExtentAllocator, ExtentSpec};
use lobster_metrics::Metrics;
use lobster_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use lobster_sync::thread::JoinHandle;
use lobster_sync::{thread, Arc, Condvar, Mutex, RwLock};
use lobster_types::{Error, Result, RetryPolicy};
use lobster_wal::{LogRecord, Wal};
use std::collections::{BTreeSet, HashSet};
use std::time::Duration;

// Memory-ordering note (satellite audit, PR 4): `Relaxed` in this file is
// metrics counters plus the `processed` frontier load inside
// `complete_epochs`, which runs under the `state` mutex (the mutex orders
// frontier read-modify-write; the `Release` store pairs with the `Acquire`
// fast-path load in `wait_for`). Epoch handout, frontier publication, and
// the in-flight group count use Acquire/Release.

/// How often the flush stage interleaves ticket polling with waiting for
/// new durable groups while batches are in flight.
const POLL_TICK: Duration = Duration::from_micros(200);

/// Commit-pipeline depth: how many durable groups' extent-flush batches
/// the flush stage keeps in flight while the WAL stage fsyncs the next
/// group.
const INFLIGHT_FLUSHES: usize = 2;

pub(crate) struct CommitBatch {
    pub records: Vec<LogRecord>,
    pub toflush: Vec<FlushItem>,
    pub freed: Vec<ExtentSpec>,
    /// Old placements of relocated blobs: fenced in the allocator
    /// (`quarantine_extent`) when the swap was staged, so nothing can
    /// recycle them while readers of the pre-swap Blob State may still
    /// be walking them. At the durability frontier (this batch's flush
    /// completion) the fence is lifted and the pages recycled — the
    /// defragmenter's fence→free dance, ending in a free instead of the
    /// verify-on-read ladder's permanent park.
    pub refenced: Vec<ExtentSpec>,
}

impl CommitBatch {
    /// Bytes of buffer-pool frames this batch keeps pinned until flushed.
    fn pinned_bytes(&self, page_size: u64) -> u64 {
        self.toflush.iter().map(|i| i.dirty_pages * page_size).sum()
    }
}

struct PinBudget {
    used: Mutex<u64>,
    freed_cv: Condvar,
    limit: u64,
}

impl PinBudget {
    /// Block until `bytes` fits under the limit, then take it. Always
    /// admits at least one batch, however large.
    fn acquire(&self, bytes: u64) {
        let mut used = self.used.lock();
        while *used > 0 && *used + bytes > self.limit {
            self.freed_cv.wait(&mut used);
        }
        *used += bytes;
    }

    fn release(&self, bytes: u64) {
        let mut used = self.used.lock();
        debug_assert!(
            *used >= bytes,
            "pin budget underflow: releasing {bytes} bytes with only {} accounted",
            *used
        );
        *used = used.saturating_sub(bytes);
        self.freed_cv.notify_all();
    }
}

/// Pipeline progress shared by submitters, waiters, and both stages.
struct Progress {
    /// Commit epochs handed out by `submit` (epoch N = N-th batch).
    enqueued: AtomicU64,
    /// Durability frontier: every epoch `<= processed` has its WAL records
    /// fsynced *and* its extent flush completed (or failed — see `error`).
    processed: AtomicU64,
    /// Durable groups forwarded by the WAL stage and not yet retired.
    /// Checkpoints quiesce on this: once it reads zero under the held
    /// checkpoint gate, no extent flush is in flight.
    inflight_groups: AtomicU64,
    /// Fast path for "has a sticky error been recorded".
    failed: AtomicBool,
    state: Mutex<ProgressState>,
    cv: Condvar,
}

struct ProgressState {
    /// Completed epochs above the frontier: pipelined groups (and racing
    /// submitters) can finish out of order, so the frontier advances only
    /// over a contiguous prefix.
    done_above: BTreeSet<u64>,
    /// First committer failure, kept sticky. [`Error`] owns an
    /// `io::Error` and is not `Clone`, so the rendered message is stored
    /// and re-wrapped for every waiter.
    error: Option<String>,
}

impl Progress {
    fn new() -> Self {
        Progress {
            enqueued: AtomicU64::new(0),
            processed: AtomicU64::new(0),
            inflight_groups: AtomicU64::new(0),
            failed: AtomicBool::new(false),
            state: Mutex::new(ProgressState {
                done_above: BTreeSet::new(),
                error: None,
            }),
            cv: Condvar::new(),
        }
    }

    /// Mark `epochs` complete and advance the contiguous frontier.
    fn complete_epochs(&self, epochs: &[u64]) {
        let mut st = self.state.lock();
        // ordering: Relaxed is sound here: every mutation of `processed` happens under
        // this mutex, so the load observes the latest frontier.
        let mut frontier = self.processed.load(Ordering::Relaxed);
        for &e in epochs {
            debug_assert!(
                e > frontier,
                "epoch {e} completed twice: durability frontier already at {frontier}"
            );
            let fresh = st.done_above.insert(e);
            debug_assert!(fresh, "epoch {e} completed twice (already above frontier)");
        }
        while st.done_above.remove(&(frontier + 1)) {
            frontier += 1;
        }
        // ordering: Release; pairs with wait_for's Acquire fast-path loads
        self.processed.store(frontier, Ordering::Release);
        self.cv.notify_all();
    }

    fn record_error(&self, e: &Error, metrics: &Metrics) {
        let mut st = self.state.lock();
        if st.error.is_none() {
            st.error = Some(e.to_string());
        }
        self.failed.store(true, Ordering::Release); // ordering: Release; publishes the error recorded under the state mutex above
        metrics.commit_errors.fetch_add(1, Ordering::Relaxed);
        self.cv.notify_all();
    }

    fn sticky_error(&self) -> Option<Error> {
        // ordering: Acquire; pairs with record_error's Release, so true implies the error text is visible
        if !self.failed.load(Ordering::Acquire) {
            return None;
        }
        self.state
            .lock()
            .error
            .as_ref()
            .map(|msg| Error::Io(std::io::Error::other(format!("group commit failed: {msg}"))))
    }

    /// Block (condvar, no spinning) until `epoch` is durable; surfaces the
    /// sticky error — a failed group still completes its epochs so waiters
    /// terminate, but they must not report durability.
    fn wait_for(&self, epoch: u64) -> Result<()> {
        // ordering: Acquire fast path; pairs with mark_processed's Release store
        if self.processed.load(Ordering::Acquire) < epoch {
            let mut st = self.state.lock();
            // ordering: Acquire; re-check under the mutex, paired with the Release in mark_processed
            while self.processed.load(Ordering::Acquire) < epoch {
                self.cv.wait(&mut st);
            }
        }
        match self.sticky_error() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// A group of commit batches whose WAL records are durable, queued for (or
/// undergoing) its single extent flush.
struct DurableGroup {
    epochs: Vec<u64>,
    items: Vec<FlushItem>,
    freed: Vec<ExtentSpec>,
    refenced: Vec<ExtentSpec>,
    pinned: u64,
}

impl DurableGroup {
    fn collect(batches: Vec<(u64, CommitBatch)>, page_size: u64) -> Self {
        let mut group = DurableGroup {
            epochs: Vec::with_capacity(batches.len()),
            items: Vec::new(),
            freed: Vec::new(),
            refenced: Vec::new(),
            pinned: 0,
        };
        for (epoch, batch) in batches {
            group.epochs.push(epoch);
            group.pinned += batch.pinned_bytes(page_size);
            group.items.extend(batch.toflush);
            group.freed.extend(batch.freed);
            group.refenced.extend(batch.refenced);
        }
        group
    }
}

/// Everything a stage needs to retire groups; shared by both stage threads.
#[derive(Clone)]
struct StageCtx {
    blob_pool: BlobPool,
    alloc: Arc<ExtentAllocator>,
    metrics: Metrics,
    progress: Arc<Progress>,
    budget: Arc<PinBudget>,
    page_size: u64,
}

impl StageCtx {
    /// A flush attempt failed with `err`: if the error is transient,
    /// re-run the batch synchronously under backoff — extent flushes are
    /// idempotent (same frames, same offsets) — before letting the error
    /// reach the sticky fail-stop, which is the *last* resort (permanent
    /// errors fail-stop immediately). The failed attempt counts against
    /// the retry budget as the first retry.
    fn flush_retry(&self, items: &[FlushItem], err: Error) -> Result<()> {
        if !err.is_transient_io() {
            return Err(err);
        }
        let mut policy = RetryPolicy::DEFAULT;
        std::thread::sleep(Duration::from_micros(policy.backoff_us(0)));
        policy.max_retries -= 1;
        let (res, stats) = policy.run(|| self.blob_pool.flush_extents(items));
        self.metrics.bump_io_retry(1 + stats.retries, stats.gave_up);
        res
    }

    /// Retire a durable group once its extent flush completed (or failed):
    /// recycle its freed extents, release its pin budget, and advance the
    /// durability frontier. This is the pipeline's *only* completion point
    /// — budget and recycling intentionally wait for the flush, not the
    /// fsync, because until the flush lands the frames stay pinned and the
    /// freed extents' old content may still be the durable truth.
    fn retire(&self, group: DurableGroup, result: Result<()>) {
        match result {
            Ok(()) => {
                self.blob_pool.drop_extents(&group.freed);
                for spec in &group.freed {
                    self.alloc.free_extent(*spec);
                    // ordering: relaxed metrics counter; snapshot readers tolerate staleness
                    self.metrics.extent_frees.fetch_add(1, Ordering::Relaxed);
                }
                // Relocated-away placements: the new placement is durable
                // (this group's flush landed), so the fence taken at swap
                // staging is lifted and the old pages recycle. Order
                // matters — release first, or the free would be parked.
                self.blob_pool.drop_extents(&group.refenced);
                for spec in &group.refenced {
                    self.alloc.release_quarantine(*spec);
                    self.alloc.free_extent(*spec);
                    // ordering: relaxed metrics counter; snapshot readers tolerate staleness
                    self.metrics.extent_frees.fetch_add(1, Ordering::Relaxed);
                }
            }
            // Leave failed groups' extents pinned and their frees
            // unrecycled: with durability unknown, recycling could overwrite
            // content a recovery still resolves to.
            Err(e) => self.progress.record_error(&e, &self.metrics),
        }
        self.budget.release(group.pinned);
        // ordering: AcqRel; retire happens-after the group's writes and publishes to flush_quiesce
        let prev = self.progress.inflight_groups.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev > 0, "in-flight group count underflow on retire");
        self.progress.complete_epochs(&group.epochs);
    }
}

pub(crate) struct GroupCommitter {
    tx: Option<crossbeam::channel::Sender<(u64, CommitBatch)>>,
    progress: Arc<Progress>,
    budget: Arc<PinBudget>,
    page_size: u64,
    /// Set (before the channel disconnect) when the committer is being
    /// dropped, so the flush stage's poll loop exits on its next timeout
    /// tick instead of spinning until the disconnect propagates.
    shutdown: Arc<AtomicBool>,
    wal_handle: Option<JoinHandle<()>>,
    flush_handle: Option<JoinHandle<()>>,
}

impl GroupCommitter {
    pub fn new(
        wal: Arc<Wal>,
        blob_pool: BlobPool,
        alloc: Arc<ExtentAllocator>,
        ckpt_gate: Arc<RwLock<()>>,
        metrics: Metrics,
        page_size: u64,
        pinned_limit_bytes: u64,
    ) -> Self {
        let (tx, rx) = crossbeam::channel::unbounded::<(u64, CommitBatch)>();
        // Backpressure by *bytes*: submitters block while the pipeline pins
        // more than a quarter-pool of unflushed frames, so committer lag can
        // never exhaust the buffer pool.
        let budget = Arc::new(PinBudget {
            used: Mutex::new(0),
            freed_cv: Condvar::new(),
            limit: pinned_limit_bytes.max(page_size),
        });
        let progress = Arc::new(Progress::new());
        let shutdown = Arc::new(AtomicBool::new(false));
        let ctx = StageCtx {
            blob_pool,
            alloc,
            metrics,
            progress: progress.clone(),
            budget: budget.clone(),
            page_size,
        };

        let (forward, grx) = crossbeam::channel::unbounded::<DurableGroup>();
        let fctx = ctx.clone();
        let fshutdown = shutdown.clone();
        let flush_handle = thread::Builder::new()
            .name("lobster-commit-flush".into())
            .spawn(move || flush_stage(grx, fctx, fshutdown))
            // lint-allow(no-panic-in-request-path): engine startup, before any request path; a failed spawn is fatal by design
            .expect("spawn commit flush stage");

        let wal_handle = thread::Builder::new()
            .name("lobster-group-commit".into())
            .spawn(move || wal_stage(rx, forward, wal, ckpt_gate, ctx))
            // lint-allow(no-panic-in-request-path): engine startup, before any request path; a failed spawn is fatal by design
            .expect("spawn group committer");

        GroupCommitter {
            tx: Some(tx),
            progress,
            budget,
            page_size,
            shutdown,
            wal_handle: Some(wal_handle),
            flush_handle: Some(flush_handle),
        }
    }

    /// Queue a batch; returns its durability epoch (block on it with
    /// [`GroupCommitter::wait_for`]). Fails fast once a sticky committer
    /// error exists — later commits must not be acknowledged on top of a
    /// lost one.
    pub fn submit(&self, batch: CommitBatch) -> Result<u64> {
        if let Some(e) = self.progress.sticky_error() {
            return Err(e);
        }
        // Submitting after close() is a caller bug, but the commit path must
        // degrade to an error, never a panic.
        let Some(tx) = self.tx.as_ref() else {
            return Err(Error::Unsupported("commit submitted after close"));
        };
        let pinned = batch.pinned_bytes(self.page_size);
        self.budget.acquire(pinned);
        // ordering: AcqRel; the epoch order is what drain()'s Acquire read targets
        let epoch = self.progress.enqueued.fetch_add(1, Ordering::AcqRel) + 1;
        if tx.send((epoch, batch)).is_err() {
            // The WAL stage died. Undo the budget so other committers cannot
            // wedge on a group that will never retire, and surface the loss.
            self.budget.release(pinned);
            return Err(self
                .progress
                .sticky_error()
                .unwrap_or_else(|| Error::Io(std::io::Error::other("group commit stage exited"))));
        }
        Ok(epoch)
    }

    /// Block until `epoch` is fully durable: WAL records fsynced *and*
    /// extent flush completed.
    pub fn wait_for(&self, epoch: u64) -> Result<()> {
        self.progress.wait_for(epoch)
    }

    /// Wait until everything submitted so far is durable; surfaces the
    /// sticky committer error.
    pub fn drain(&self) -> Result<()> {
        // ordering: Acquire; pairs with commit()'s AcqRel bump, so the target covers every prior enqueue
        let target = self.progress.enqueued.load(Ordering::Acquire);
        self.progress.wait_for(target)
    }

    /// Wait until no extent flush is in flight. Only meaningful while the
    /// caller excludes new WAL-stage forwarding (checkpoints call this
    /// with the checkpoint gate held exclusively): a group submitted after
    /// the pre-gate drain may still be flushing, and a checkpoint's
    /// `flush_all_dirty` must not run concurrently with it.
    pub fn flush_quiesce(&self) {
        let mut st = self.progress.state.lock();
        // ordering: Acquire; zero pairs with retire's AcqRel decrement, all groups' effects visible
        while self.progress.inflight_groups.load(Ordering::Acquire) > 0 {
            self.progress.cv.wait(&mut st);
        }
    }
}

impl Drop for GroupCommitter {
    fn drop(&mut self) {
        // Best effort: a sticky error was already surfaced to callers.
        let _ = self.drain();
        // Flag first, then disconnect: the flush stage observes one of the
        // two on its next poll tick even if the disconnect is slow to
        // propagate through the WAL stage.
        // ordering: Release; the stages' Acquire loads see all state written before shutdown
        self.shutdown.store(true, Ordering::Release);
        self.tx.take(); // disconnect: the WAL stage exits, then the flush stage
        if let Some(h) = self.wal_handle.take() {
            let _ = h.join();
        }
        if let Some(h) = self.flush_handle.take() {
            let _ = h.join();
        }
    }
}

/// Stage 1: absorb queued batches into groups, make their records durable
/// with one group fsync, then hand each durable group downstream.
fn wal_stage(
    rx: crossbeam::channel::Receiver<(u64, CommitBatch)>,
    forward: crossbeam::channel::Sender<DurableGroup>,
    wal: Arc<Wal>,
    ckpt_gate: Arc<RwLock<()>>,
    ctx: StageCtx,
) {
    while let Ok(first) = rx.recv() {
        // Absorb everything already queued into one group.
        let mut batches = vec![first];
        while let Ok(next) = rx.try_recv() {
            batches.push(next);
        }

        let _gate = ckpt_gate.read();
        // 1. All of the group's Blob States durable with one fsync.
        let fsync = (|| -> Result<()> {
            let mut lsn = None;
            for (_, batch) in &batches {
                if !batch.records.is_empty() {
                    lsn = Some(wal.append_batch(&batch.records)?);
                }
            }
            if let Some(lsn) = lsn {
                wal.commit_to(lsn)?;
            }
            Ok(())
        })();
        ctx.metrics
            .commit_wal_groups
            .fetch_add(1, Ordering::Relaxed); // ordering: relaxed metrics counter; snapshot readers tolerate staleness

        let group = DurableGroup::collect(batches, ctx.page_size);
        // Counted before the gate drops: checkpoints quiesce on this under
        // the exclusively-held gate, so the count can only fall once they
        // hold it.
        // ordering: AcqRel; pairs with retire's fetch_sub and flush_quiesce's Acquire load
        ctx.progress.inflight_groups.fetch_add(1, Ordering::AcqRel);
        match fsync {
            // WAL-fsync-first, per group: records that never became durable
            // forbid the extent flush (§III-C ordering).
            Err(e) => ctx.retire(group, Err(e)),
            // 2. Hand off; the next group's fsync overlaps this group's
            // extent writes. If the flush stage exited early, retire the
            // group as failed so waiters terminate with the sticky error
            // instead of hanging or panicking.
            Ok(()) => {
                if let Err(crossbeam::channel::SendError(group)) = forward.send(group) {
                    let e = Error::Io(std::io::Error::other("commit flush stage exited"));
                    ctx.retire(group, Err(e));
                }
            }
        }
    }
    // Channel disconnected: dropping `forward` lets the flush stage drain
    // its in-flight tickets and exit.
}

/// One in-flight extent flush tracked by the flush stage.
struct InflightFlush {
    ticket: FlushTicket,
    group: DurableGroup,
    /// Extent starts being written, for the write-after-write check.
    starts: HashSet<u64>,
}

/// Stage 2: keep up to [`INFLIGHT_FLUSHES`] extent-flush batches in
/// flight, reaping completions and retiring their groups. `shutdown` is
/// the committer's drop flag: the poll loop must not keep spinning through
/// its timeout tick once the committer is being torn down.
fn flush_stage(
    grx: crossbeam::channel::Receiver<DurableGroup>,
    ctx: StageCtx,
    shutdown: Arc<AtomicBool>,
) {
    let mut inflight: Vec<InflightFlush> = Vec::new();
    loop {
        // Reap whatever has completed (non-blocking).
        let mut i = 0;
        while i < inflight.len() {
            match inflight[i].ticket.poll() {
                Some(result) => {
                    let f = inflight.swap_remove(i);
                    let result = result.or_else(|e| ctx.flush_retry(&f.group.items, e));
                    ctx.retire(f.group, result);
                }
                None => i += 1,
            }
        }

        let group = if inflight.is_empty() {
            // Nothing in flight: park until work arrives.
            match grx.recv() {
                Ok(g) => g,
                Err(_) => break,
            }
        } else {
            // Batches in flight: keep polling between short channel waits.
            match grx.recv_timeout(POLL_TICK) {
                Ok(g) => g,
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                    // The committer is shutting down: stop polling for new
                    // groups (drain() already retired everything queued) and
                    // fall through to land the remaining flights.
                    // ordering: Acquire; pairs with close()'s Release store
                    if shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    continue;
                }
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break,
            }
        };

        // Admission: wait out in-flight batches while over the limit, and
        // never start a second flight touching the same extent — the two
        // device writes could reorder and land stale content. The check
        // covers not just this group's own writes (`items`) but every
        // extent its retire will *recycle* (`freed` from deletes,
        // `refenced` from relocations): retiring drops those extents from
        // the pool, and `drop_extent` spin-waits on the earlier flight's
        // shared latches — on this very thread, which is the only one that
        // can reap that flight. Skipping the check for metadata-only
        // groups (a delete racing an in-flight append flush of the same
        // blob) deadlocked the whole pipeline: no retire, no recycling,
        // allocator wedged at full.
        loop {
            let overlapping = inflight.iter().position(|f| {
                group
                    .items
                    .iter()
                    .map(|item| item.spec.start.raw())
                    .chain(group.freed.iter().map(|spec| spec.start.raw()))
                    .chain(group.refenced.iter().map(|spec| spec.start.raw()))
                    .any(|start| f.starts.contains(&start))
            });
            let victim = match overlapping {
                Some(i) => i,
                None if !group.items.is_empty() && inflight.len() >= INFLIGHT_FLUSHES => 0,
                None => break,
            };
            // ordering: relaxed metrics counter; snapshot readers tolerate staleness
            ctx.metrics.commit_stalls.fetch_add(1, Ordering::Relaxed);
            let f = inflight.remove(victim);
            let result = f.ticket.wait();
            let result = result.or_else(|e| ctx.flush_retry(&f.group.items, e));
            ctx.retire(f.group, result);
        }

        if group.items.is_empty() {
            // Metadata-only group: durable at fsync, nothing to flush —
            // but only retired once no conflicting flight remains (above).
            ctx.retire(group, Ok(()));
            continue;
        }

        match ctx.blob_pool.flush_extents_async(&group.items) {
            Ok(ticket) => {
                ctx.metrics
                    .commit_flush_batches
                    .fetch_add(1, Ordering::Relaxed); // ordering: relaxed metrics counter; snapshot readers tolerate staleness
                let starts = ticket.extent_starts().map(|p| p.raw()).collect();
                inflight.push(InflightFlush {
                    ticket,
                    group,
                    starts,
                });
                ctx.metrics
                    .commit_inflight_peak
                    .fetch_max(inflight.len() as u64, Ordering::Relaxed); // ordering: relaxed metrics counter; snapshot readers tolerate staleness
            }
            Err(e) => {
                let result = ctx.flush_retry(&group.items, e);
                ctx.retire(group, result);
            }
        }
    }
    // Shutdown: land every remaining flight.
    for f in inflight.drain(..) {
        let result = f.ticket.wait();
        let result = result.or_else(|e| ctx.flush_retry(&f.group.items, e));
        ctx.retire(f.group, result);
    }
}
