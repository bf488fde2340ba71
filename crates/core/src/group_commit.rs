//! Background group committer (§V-A: "group commit so the critical path
//! usually does not involve I/O"), organized as a **two-stage pipeline**.
//!
//! Stage 1 — the **WAL stage** — absorbs queued [`CommitBatch`]es into
//! groups, appends their records and makes them durable with one group
//! fsync. Stage 2 — the **flush stage** — receives each durable group,
//! submits the extent writes that had to wait for the fsync, adopts the
//! ones its transactions already started, and keeps up to
//! [`INFLIGHT_FLUSHES`] submissions of its own in flight, so group N+1's
//! WAL fsync overlaps group N's extent writes instead of the log device
//! idling during every flush and the extent engine idling during every
//! fsync.
//!
//! **Ordering (§III-C, per group).** The WAL must be durable before any
//! write to an extent that may still be the durable truth. A *freshly
//! allocated* extent never is — a freed extent recycles only when its
//! deleter retires here, recovery validates every committed Blob State
//! against its SHA-256 and drops the ones whose content did not arrive,
//! and the allocator rebuild reclaims whatever no surviving Blob State
//! references — so a transaction may start writing the fresh extents of a
//! large put while it is still hashing ([`CommitBatch::flights`]), and the
//! flush stage *reaps* those tickets instead of submitting them. Every
//! in-place write (delta update, append into a partly filled extent,
//! relocation) arrives as a [`FlushItem`] and is submitted only after its
//! group's fsync returned. Either way a group retires — freed extents
//! recycled, pin budget released, epochs completed — only when its fsync
//! *and* every one of its flights have landed.
//!
//! Two flights never touch the same extent — the flush stage waits out
//! the earlier one — so writes to one extent cannot reorder; the same
//! admission check covers extents a group merely *recycles* at retire
//! (deletes' freed, relocations' refenced), because dropping them from the
//! pool would spin on the earlier flight's latches on the flush thread
//! itself.
//!
//! **Waiting.** The flush stage sleeps on one inbox and is woken by what
//! it waits for: a durable group from the WAL stage, the completion signal
//! of a flight whose last device request just executed, or — for a device
//! that models its latency — the flight's known completion instant, as the
//! timeout of the same wait. It never polls on a tick and never
//! yield-waits for a device: on a busy host that burns a processor a
//! hashing client needs.
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
use std::collections::{BTreeSet, HashSet, VecDeque};
use std::time::{Duration, Instant};

// Memory-ordering note (satellite audit, PR 4): `Relaxed` in this file is
// metrics counters plus the `processed` frontier load inside
// `complete_epochs`, which runs under the `state` mutex (the mutex orders
// frontier read-modify-write; the `Release` store pairs with the `Acquire`
// fast-path load in `wait_for`). Epoch handout, frontier publication, and
// the in-flight group count use Acquire/Release.

/// Commit-pipeline depth: how many durable groups the flush stage lets
/// wait on extent writes before it holds back a group that has writes of
/// its own to submit, while the WAL stage fsyncs the next group.
const INFLIGHT_FLUSHES: usize = 2;

pub(crate) struct CommitBatch {
    /// Shared with the submitting transaction, which walks them to roll
    /// back if the commit fails.
    pub records: Arc<Vec<LogRecord>>,
    /// Extent ranges to write once the records are durable.
    pub toflush: Vec<FlushItem>,
    /// Writes of fresh extents the transaction already submitted; the
    /// flush stage reaps them.
    pub flights: Vec<FlushTicket>,
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
    /// Bytes of buffer-pool frames this batch keeps pinned until flushed:
    /// what is still to be submitted and what is already on its way.
    fn pinned_bytes(&self, page_size: u64) -> u64 {
        let flying = self.flights.iter().flat_map(|t| t.items());
        let pages: u64 = self
            .toflush
            .iter()
            .chain(flying)
            .map(|i| i.dirty_pages)
            .sum();
        pages * page_size
    }
}

struct PinBudget {
    used: Mutex<u64>,
    freed_cv: Condvar,
    limit: u64,
}

impl PinBudget {
    fn new(limit: u64) -> Self {
        PinBudget {
            used: Mutex::new(0),
            freed_cv: Condvar::new(),
            limit,
        }
    }

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
pub(crate) struct Progress {
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
    pub(crate) fn new() -> Self {
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
    pub(crate) fn complete_epochs(&self, epochs: &[u64]) {
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
    pub(crate) fn wait_for(&self, epoch: u64) -> Result<()> {
        // ordering: Acquire fast path; pairs with complete_epochs's Release store
        if self.processed.load(Ordering::Acquire) < epoch {
            let mut st = self.state.lock();
            // ordering: Acquire; re-check under the mutex, paired with the Release in complete_epochs
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
    /// Still to be submitted.
    items: Vec<FlushItem>,
    /// Submitted by the group's transactions before they committed.
    flights: Vec<FlushTicket>,
    freed: Vec<ExtentSpec>,
    refenced: Vec<ExtentSpec>,
    pinned: u64,
}

impl DurableGroup {
    fn collect(batches: Vec<(u64, CommitBatch)>, page_size: u64) -> Self {
        let mut group = DurableGroup {
            epochs: Vec::with_capacity(batches.len()),
            items: Vec::new(),
            flights: Vec::new(),
            freed: Vec::new(),
            refenced: Vec::new(),
            pinned: 0,
        };
        for (epoch, batch) in batches {
            group.epochs.push(epoch);
            group.pinned += batch.pinned_bytes(page_size);
            group.items.extend(batch.toflush);
            group.flights.extend(batch.flights);
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
    fn retire(&self, mut group: DurableGroup, result: Result<()>) {
        // Only a group that failed before the flush stage took it still
        // holds flights: their requests point into frames the tickets
        // latch, so they land before anything else happens to the group.
        for ticket in group.flights.drain(..) {
            let _ = ticket.wait();
        }
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
        let budget = Arc::new(PinBudget::new(pinned_limit_bytes.max(page_size)));
        let progress = Arc::new(Progress::new());
        let ctx = StageCtx {
            blob_pool,
            alloc,
            metrics,
            progress: progress.clone(),
            budget: budget.clone(),
            page_size,
        };

        let forward = Arc::new(FlushInbox::new());
        let inbox = forward.clone();
        let fctx = ctx.clone();
        let flush_handle = thread::Builder::new()
            .name("lobster-commit-flush".into())
            .spawn(move || flush_stage(inbox, fctx))
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
            wal_handle: Some(wal_handle),
            flush_handle: Some(flush_handle),
        }
    }

    /// Queue a batch; returns its durability epoch (block on it with
    /// [`Progress::wait_for`]). Fails fast once a sticky committer
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

    /// The durable-epoch frontier: [`Progress::wait_for`] on it blocks
    /// until an epoch is fully durable — WAL records fsynced *and* extent
    /// flush completed.
    pub fn frontier(&self) -> &Progress {
        &self.progress
    }

    /// Wait until everything submitted so far is durable; surfaces the
    /// sticky committer error.
    pub fn drain(&self) -> Result<()> {
        // ordering: Acquire; pairs with submit's AcqRel bump, so the target covers every prior enqueue
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
        // Disconnect: the WAL stage exits and closes the flush stage's
        // inbox, which lands what is still in flight and exits too.
        self.tx.take();
        if let Some(h) = self.wal_handle.take() {
            let _ = h.join();
        }
        if let Some(h) = self.flush_handle.take() {
            let _ = h.join();
        }
    }
}

/// What the flush stage sleeps on. The WAL stage pushes durable groups, the
/// I/O workers raise `landed` when a tracked flight's last request has
/// executed, and the WAL stage closes it on the way out; every change
/// happens under the one mutex the stage waits on, so no wake-up is lost.
struct FlushInbox {
    state: Mutex<InboxState>,
    cv: Condvar,
}

#[derive(Default)]
struct InboxState {
    groups: VecDeque<DurableGroup>,
    /// A flight may have become reapable since the stage last looked.
    landed: bool,
    /// No more groups will arrive.
    closed: bool,
    /// The flush stage exited (only ever early by panic): nobody will take
    /// what is pushed.
    abandoned: bool,
}

/// Why [`FlushInbox::wait`] returned.
enum Wake {
    Group(DurableGroup),
    /// A completion signal or the deadline: look at the flights again.
    Look,
    Closed,
}

impl FlushInbox {
    fn new() -> Self {
        FlushInbox {
            state: Mutex::new(InboxState::default()),
            cv: Condvar::new(),
        }
    }

    /// Hand a durable group to the flush stage; gives it back if the stage
    /// is gone.
    fn push(&self, group: DurableGroup) -> Option<DurableGroup> {
        let mut st = self.state.lock();
        if st.abandoned {
            return Some(group);
        }
        st.groups.push_back(group);
        self.cv.notify_one();
        None
    }

    fn close(&self) {
        self.state.lock().closed = true;
        self.cv.notify_one();
    }

    /// The completion signal handed to every tracked flight.
    fn signal_landed(&self) {
        self.state.lock().landed = true;
        self.cv.notify_one();
    }

    /// Sleep until there is something to do: a landed flight (first — a
    /// committer is waiting on it), the next group if `take_group`, the
    /// close, or `until` — the earliest instant a flight that has already
    /// executed completes on its modeled device.
    fn wait(&self, take_group: bool, until: Option<Instant>) -> Wake {
        let mut st = self.state.lock();
        loop {
            if std::mem::take(&mut st.landed) {
                return Wake::Look;
            }
            if take_group {
                if let Some(group) = st.groups.pop_front() {
                    return Wake::Group(group);
                }
                if st.closed {
                    return Wake::Closed;
                }
            }
            match until.map(|t| t.saturating_duration_since(Instant::now())) {
                Some(Duration::ZERO) => return Wake::Look,
                Some(left) => drop(self.cv.wait_for(&mut st, left)),
                None => self.cv.wait(&mut st),
            }
        }
    }
}

/// Stage 1: absorb queued batches into groups, make their records durable
/// with one group fsync, then hand each durable group downstream.
fn wal_stage(
    rx: crossbeam::channel::Receiver<(u64, CommitBatch)>,
    forward: Arc<FlushInbox>,
    wal: Arc<Wal>,
    ckpt_gate: Arc<RwLock<()>>,
    ctx: StageCtx,
) {
    /// Closes the inbox however this stage ends, so the flush stage (and
    /// with it the committer's drop) never waits for groups from a stage
    /// that is gone.
    struct CloseOnExit(Arc<FlushInbox>);
    impl Drop for CloseOnExit {
        fn drop(&mut self) {
            self.0.close();
        }
    }
    let _close = CloseOnExit(forward.clone());

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
            // Records that never became durable forbid every write the
            // group still has to submit (§III-C ordering); what its
            // transactions already wrote went to fresh extents nothing
            // durable references.
            Err(e) => ctx.retire(group, Err(e)),
            // 2. Hand off; the next group's fsync overlaps this group's
            // extent writes. If the flush stage exited early, retire the
            // group as failed so waiters terminate with the sticky error
            // instead of hanging or panicking.
            Ok(()) => {
                if let Some(group) = forward.push(group) {
                    let e = Error::Io(std::io::Error::other("commit flush stage exited"));
                    ctx.retire(group, Err(e));
                }
            }
        }
    }
}

/// One durable group whose extent writes are on the device.
struct InflightFlush {
    /// Flights not yet reaped: the group's eager ones and the flush
    /// stage's own submission.
    tickets: Vec<FlushTicket>,
    /// First failure among the flights already reaped.
    failed: Option<Error>,
    group: DurableGroup,
    /// Extent starts being written, for the write-after-write check.
    starts: HashSet<u64>,
}

/// Where an [`InflightFlush`] stands.
enum Flight {
    /// Every ticket reaped; the group can retire with this result.
    Landed(Result<()>),
    /// Still on the device. The instant is when to look again: the earliest
    /// modeled completion among flights whose requests have all executed,
    /// `None` if all are still executing (their completion signal fires).
    Flying(Option<Instant>),
}

/// The earlier of two optional instants.
fn earlier(a: Option<Instant>, b: Option<Instant>) -> Option<Instant> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

impl InflightFlush {
    fn note(&mut self, result: Result<()>) {
        if let Err(e) = result {
            self.failed.get_or_insert(e);
        }
    }

    /// Reap the tickets that have landed (a failed one gets its retry).
    fn poll(&mut self, ctx: &StageCtx) -> Flight {
        let mut due = None;
        let mut i = 0;
        while i < self.tickets.len() {
            match self.tickets[i].poll() {
                Some(result) => {
                    let ticket = self.tickets.swap_remove(i);
                    self.note(result.or_else(|e| ctx.flush_retry(ticket.items(), e)));
                }
                None => {
                    due = earlier(due, self.tickets[i].completes_at());
                    i += 1;
                }
            }
        }
        if self.tickets.is_empty() {
            Flight::Landed(self.failed.take().map_or(Ok(()), Err))
        } else {
            Flight::Flying(due)
        }
    }
}

/// Retire every group whose flights have all landed; returns when to look
/// again on account of a modeled device (see [`Flight::Flying`]).
fn reap(inflight: &mut Vec<InflightFlush>, ctx: &StageCtx) -> Option<Instant> {
    let mut due = None;
    let mut i = 0;
    while i < inflight.len() {
        match inflight[i].poll(ctx) {
            Flight::Landed(result) => ctx.retire(inflight.remove(i).group, result),
            Flight::Flying(at) => {
                due = earlier(due, at);
                i += 1;
            }
        }
    }
    due
}

/// Stage 2: put each durable group's extent writes in flight — submitting
/// what waited for the fsync, adopting what its transactions already
/// started — and retire groups as their flights land.
fn flush_stage(inbox: Arc<FlushInbox>, ctx: StageCtx) {
    /// Gives later groups back to the WAL stage once this stage is gone.
    struct AbandonOnExit(Arc<FlushInbox>);
    impl Drop for AbandonOnExit {
        fn drop(&mut self) {
            self.0.state.lock().abandoned = true;
        }
    }
    let _abandon = AbandonOnExit(inbox.clone());
    // This thread sleeps until modeled completion instants with committers
    // waiting behind it.
    lobster_storage::precise_timed_waits();

    let mut inflight: Vec<InflightFlush> = Vec::new();
    loop {
        let due = reap(&mut inflight, &ctx);
        let mut group = match inbox.wait(true, due) {
            Wake::Group(group) => group,
            Wake::Look => continue,
            Wake::Closed => break,
        };

        // Admission: hold the group back while it has writes to submit and
        // the pipeline is at depth, and never let it join a flight touching
        // the same extent — the two device writes could reorder and land
        // stale content. The check covers not just the group's own writes
        // but every extent its retire will *recycle* (`freed` from deletes,
        // `refenced` from relocations): retiring drops those extents from
        // the pool, and `drop_extent` spin-waits on the earlier flight's
        // shared latches — on this very thread, which is the only one that
        // can reap that flight. Skipping the check for metadata-only
        // groups (a delete racing an in-flight append flush of the same
        // blob) deadlocked the whole pipeline: no retire, no recycling,
        // allocator wedged at full. (The group's own eager flights need no
        // check: their extents are fresh, in no other group.)
        let touched: Vec<u64> = (group.items.iter().map(|item| item.spec))
            .chain(group.freed.iter().copied())
            .chain(group.refenced.iter().copied())
            .map(|spec| spec.start.raw())
            .collect();
        let conflicts = |f: &InflightFlush| touched.iter().any(|start| f.starts.contains(start));
        let mut stalled = false;
        loop {
            let due = reap(&mut inflight, &ctx);
            let at_depth = !group.items.is_empty() && inflight.len() >= INFLIGHT_FLUSHES;
            if !at_depth && !inflight.iter().any(conflicts) {
                break;
            }
            if !std::mem::replace(&mut stalled, true) {
                // ordering: relaxed metrics counter; snapshot readers tolerate staleness
                ctx.metrics.commit_stalls.fetch_add(1, Ordering::Relaxed);
            }
            inbox.wait(false, due);
        }

        let tickets = std::mem::take(&mut group.flights);
        let mut flight = InflightFlush {
            starts: (tickets.iter().flat_map(|t| t.items()))
                .map(|item| item.spec.start.raw())
                .collect(),
            tickets,
            failed: None,
            group,
        };
        // A write that waited for the fsync to an extent one of the group's
        // own eager flights is still writing (two transactions of one
        // group, on a pool whose flights hold no latch): land the flights
        // first, for the same no-reorder rule as above.
        let items = std::mem::take(&mut flight.group.items);
        if (items.iter()).any(|item| flight.starts.contains(&item.spec.start.raw())) {
            for ticket in std::mem::take(&mut flight.tickets) {
                let eager = ticket.items().to_vec();
                flight.note(ticket.wait().or_else(|e| ctx.flush_retry(&eager, e)));
            }
        }
        if !items.is_empty() {
            (flight.starts).extend(items.iter().map(|item| item.spec.start.raw()));
            match ctx.blob_pool.flush_extents_async(&items) {
                Ok(ticket) => flight.tickets.push(ticket),
                Err(e) => flight.note(ctx.flush_retry(&items, e)),
            }
        }
        if flight.tickets.is_empty() {
            // Metadata-only group (durable at fsync, retired only now that
            // no conflicting flight remains), or everything settled above.
            let result = flight.failed.take().map_or(Ok(()), Err);
            ctx.retire(flight.group, result);
            continue;
        }
        for ticket in &flight.tickets {
            let inbox = inbox.clone();
            // `false`: already executed — the reap at the top of the loop
            // sees it.
            ticket.notify_when_executed(Box::new(move || inbox.signal_landed()));
        }
        ctx.metrics
            .commit_flush_batches
            .fetch_add(1, Ordering::Relaxed); // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        inflight.push(flight);
        ctx.metrics
            .commit_inflight_peak
            .fetch_max(inflight.len() as u64, Ordering::Relaxed); // ordering: relaxed metrics counter; snapshot readers tolerate staleness
    }
    // Closed: land every remaining flight.
    loop {
        let due = reap(&mut inflight, &ctx);
        if inflight.is_empty() {
            break;
        }
        inbox.wait(false, due);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) fn group(epoch: u64) -> DurableGroup {
        DurableGroup::collect(
            vec![(
                epoch,
                CommitBatch {
                    records: Arc::default(),
                    toflush: Vec::new(),
                    flights: Vec::new(),
                    freed: Vec::new(),
                    refenced: Vec::new(),
                },
            )],
            4096,
        )
    }

    #[test]
    fn inbox_hands_out_landed_then_groups_in_order_then_the_close() {
        let inbox = FlushInbox::new();
        assert!(inbox.push(group(1)).is_none());
        assert!(inbox.push(group(2)).is_none());
        inbox.signal_landed();
        inbox.signal_landed(); // signals coalesce: one look covers both
        inbox.close();
        assert!(matches!(inbox.wait(true, None), Wake::Look));
        assert!(matches!(inbox.wait(true, None), Wake::Group(g) if g.epochs == [1]));
        assert!(matches!(inbox.wait(true, None), Wake::Group(g) if g.epochs == [2]));
        assert!(matches!(inbox.wait(true, None), Wake::Closed));
    }

    #[test]
    fn inbox_wait_for_a_flight_leaves_groups_queued_and_ends_at_the_deadline() {
        let inbox = FlushInbox::new();
        assert!(inbox.push(group(1)).is_none());
        let t = Instant::now();
        let until = t + Duration::from_millis(5);
        assert!(matches!(inbox.wait(false, Some(until)), Wake::Look));
        assert!(Instant::now() >= until, "returned before the deadline");
        // A deadline already past does not sleep at all.
        assert!(matches!(inbox.wait(false, Some(t)), Wake::Look));
        assert!(matches!(inbox.wait(true, None), Wake::Group(g) if g.epochs == [1]));
    }

    #[test]
    fn inbox_wakes_a_sleeping_stage_for_a_completion_signal() {
        let inbox = Arc::new(FlushInbox::new());
        let signal = inbox.clone();
        // The barrier makes the signal come after the stage committed to
        // waiting (or at least after it took the lock once).
        let barrier = Arc::new(lobster_sync::Barrier::new(2));
        let b = barrier.clone();
        let h = std::thread::spawn(move || {
            b.wait();
            signal.signal_landed();
        });
        barrier.wait();
        assert!(matches!(inbox.wait(false, None), Wake::Look));
        h.join().expect("signal thread");
    }

    #[test]
    fn an_abandoned_inbox_gives_the_group_back() {
        let inbox = FlushInbox::new();
        inbox.state.lock().abandoned = true;
        assert!(inbox.push(group(7)).is_some_and(|g| g.epochs == [7]));
    }
}

#[cfg(test)]
mod model {
    //! Protocol models over the real [`Progress`], [`FlushInbox`] and
    //! [`PinBudget`]; the threads around them are the two stages and their
    //! clients in miniature. Each `broken_*` test swaps in one deliberately
    //! wrong participant and requires the checker to find the violation —
    //! under loom only, where detection is deterministic.

    use super::tests::group;
    use super::*;
    use lobster_sync::{model, model_catches, race, Actor};
    // Bookkeeping the models assert on, invisible to the scheduler.
    use std::sync::atomic::{AtomicBool as Plain, Ordering::SeqCst};

    // ---- hand-off: no extent write before the group's WAL fsync --------

    struct Pipeline {
        inbox: FlushInbox,
        progress: Progress,
        /// Per epoch: its WAL fsync returned.
        fsynced: [AtomicBool; 2],
    }

    fn wal_stage(p: &Pipeline, fsync_first: bool) {
        for (i, fsynced) in p.fsynced.iter().enumerate() {
            if fsync_first {
                fsynced.store(true, Ordering::Release);
            }
            assert!(p.inbox.push(group(i as u64 + 1)).is_none());
            if !fsync_first {
                fsynced.store(true, Ordering::Release);
            }
        }
        p.inbox.close();
    }

    /// Takes every group; the first one's flight is the slow one, so the
    /// later group retires before it.
    fn flush_stage(p: &Pipeline) {
        let mut slow = None;
        loop {
            match p.inbox.wait(true, None) {
                Wake::Group(group) => {
                    for &e in &group.epochs {
                        let fsynced = p.fsynced[e as usize - 1].load(Ordering::Acquire);
                        assert!(fsynced, "extent write of epoch {e} before its WAL fsync");
                    }
                    match slow {
                        None => slow = Some(group),
                        Some(_) => p.progress.complete_epochs(&group.epochs),
                    }
                }
                Wake::Look => unreachable!("no flight was tracked"),
                Wake::Closed => break,
            }
        }
        p.progress
            .complete_epochs(&slow.expect("two groups").epochs);
    }

    fn run_hand_off(fsync_first: bool) {
        let pipeline = Pipeline {
            inbox: FlushInbox::new(),
            progress: Progress::new(),
            fsynced: Default::default(),
        };
        let wal: Actor<Pipeline> = Box::new(move |p| wal_stage(p, fsync_first));
        let p = race(pipeline, vec![wal, Box::new(flush_stage)]);
        assert_eq!(p.progress.processed.load(Ordering::Acquire), 2);
    }

    #[test]
    fn wal_fsync_before_extent_writes() {
        model(|| run_hand_off(true));
    }

    #[test]
    fn broken_forward_before_fsync_is_caught() {
        let broken = || model(|| run_hand_off(false));
        assert!(model_catches(broken, "before its WAL fsync"));
    }

    // ---- frontier: out-of-order retires, a contiguous durable prefix ----

    /// Both stages retire groups (the WAL stage the ones whose fsync
    /// failed), in any order; a committer waiting on epoch 2 returns only
    /// once epochs 1 *and* 2 have their extents written.
    fn run_frontier() {
        type Retired = (Progress, [Plain; 3]);
        let retire = |epochs: &'static [u64]| -> Actor<Retired> {
            Box::new(move |(progress, written)| {
                for &e in epochs {
                    written[e as usize - 1].store(true, SeqCst);
                    progress.complete_epochs(&[e]);
                }
            })
        };
        let committer: Actor<Retired> = Box::new(|(progress, written)| {
            progress.wait_for(2).expect("no error was recorded");
            for e in 0..2 {
                let written = written[e].load(SeqCst);
                assert!(written, "epoch 2 durable before epoch {}'s extents", e + 1);
            }
        });
        let world = (Progress::new(), Default::default());
        let (progress, _) = &*race(world, vec![retire(&[2]), retire(&[3, 1]), committer]);
        assert_eq!(progress.processed.load(Ordering::Acquire), 3);
        assert!(progress.state.lock().done_above.is_empty());
    }

    #[test]
    fn frontier_advances_over_a_contiguous_prefix_only() {
        model(run_frontier);
    }

    // ---- pins: never past the limit with more than one batch admitted ---

    const LIMIT: u64 = 2;

    /// One batch at the limit, one past it (admitted when idle, or the
    /// checker reports the deadlock), one small.
    fn run_pins(acquire: fn(&PinBudget, u64)) {
        let batch = |n: u64| -> Actor<PinBudget> {
            Box::new(move |budget| {
                acquire(budget, n);
                let used = *budget.used.lock();
                assert!(used >= n, "pin budget lost {n} bytes it admitted");
                let beside = used - n;
                assert!(
                    used <= LIMIT || beside == 0,
                    "{n} admitted beside {beside} past the limit"
                );
                budget.release(n);
            })
        };
        let budget = race(PinBudget::new(LIMIT), vec![batch(2), batch(3), batch(1)]);
        assert_eq!(*budget.used.lock(), 0, "budget not fully returned");
    }

    #[test]
    fn pin_budget_conserved() {
        model(|| run_pins(PinBudget::acquire));
    }

    #[test]
    fn broken_admission_past_the_limit_is_caught() {
        // Admits whatever is already pinned.
        let blind: fn(&PinBudget, u64) = |budget, n| *budget.used.lock() += n;
        let broken = move || model(move || run_pins(blind));
        assert!(model_catches(broken, "past the limit"));
    }

    // ---- landed: a completion signal always ends the stage's sleep ------

    /// The core half of the completion signal (the storage half is
    /// `async_io::model`): two workers finish a flight each and call the
    /// waker the stage registered; the stage, with nothing else to wake
    /// for, sleeps until it has seen both. A lost wake-up is a deadlock.
    fn run_landed(signal: fn(&FlushInbox)) {
        type Flights = (FlushInbox, [AtomicBool; 2]);
        let worker = |i: usize| -> Actor<Flights> {
            Box::new(move |(inbox, executed)| {
                executed[i].store(true, Ordering::Release);
                signal(inbox);
            })
        };
        let stage: Actor<Flights> = Box::new(|(inbox, executed)| {
            while !executed.iter().all(|e| e.load(Ordering::Acquire)) {
                assert!(matches!(inbox.wait(false, None), Wake::Look));
            }
        });
        let flights = (FlushInbox::new(), Default::default());
        race(flights, vec![worker(0), worker(1), stage]);
    }

    #[test]
    fn completion_signal_always_ends_the_sleep() {
        model(|| run_landed(FlushInbox::signal_landed));
    }

    #[test]
    fn broken_signal_outside_the_inbox_lock_is_caught() {
        // Notifies without raising `landed` under the lock the stage
        // decides to sleep under.
        let bare: fn(&FlushInbox) = |inbox| {
            inbox.cv.notify_one();
        };
        let broken = move || model(move || run_landed(bare));
        assert!(model_catches(broken, "deadlock"));
    }
}
