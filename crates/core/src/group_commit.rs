//! Background group committer (§V-A: "group commit so the critical path
//! usually does not involve I/O"), organized as a **two-stage pipeline**
//! over the one [`WriteSet`] each transaction seals.
//!
//! A commit is four named steps. **Stage** is the transaction's own:
//! its verbs fill the write set, a waiting commit starts its fresh
//! extents' write early, and `Txn::stage` seals the set, which
//! [`GroupCommitter::submit`] queues. The other three are [`StageCtx`]
//! methods, and each stage thread is a loop over them:
//!
//! * the **WAL stage** absorbs queued write sets into a group and runs
//!   **log** ([`StageCtx::log`]) on it: its fresh content landed and
//!   synced, then its records appended and made durable with one group
//!   fsync;
//! * the **flush stage** receives each durable group and runs **flush**
//!   ([`StageCtx::flush`]) on it: it submits the in-place writes that had
//!   to wait for the fsync and keeps up to [`INFLIGHT_FLUSHES`] such
//!   submissions in flight, so group N+1's WAL fsync overlaps group N's
//!   in-place writes. It runs **retire** ([`StageCtx::retire`]) on each
//!   group whose flights have landed.
//!
//! The steps own no thread: `crate::sim` calls the same four, one at a
//! time, on one thread, and cuts power between them.
//!
//! **Ordering (§III-C, per group): content before its record.** The WAL
//! must be durable before any write to an extent that may still be the
//! durable truth. A *freshly allocated* extent never is — a freed extent
//! recycles only when its deleter retires here — so a group's fresh
//! content is written *before* its records, in both commit modes: a
//! waiting commit's puts start that write early ([`WriteSet::flights`]),
//! and the WAL stage submits whatever fresh content is left as one batch,
//! lands it all and syncs the data device once before it appends the
//! group ([`StageCtx::settle`]). Every in-place write (delta update,
//! append into a partly filled extent, relocation) arrives as a
//! [`FlushItem`] and is submitted only after its group's fsync returned.
//! Either way a group retires — freed extents recycled, pin budget
//! released, epochs completed — only when its fsync *and* every one of
//! its writes have landed.
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
//! **Acknowledged means durable.** A group's content is on the data
//! device, synced, before the frontier passes it, whatever
//! [`crate::Config::commit_wait`] says (that decides only whether a put
//! writes early and whether `commit` blocks). Fresh content is synced on
//! the WAL stage before the group's records; a group with in-place writes
//! is synced again by the flush stage once they landed, before its epochs
//! complete.
//!
//! **Data-durable mark.** Groups count as landed, in log order, once
//! their content is on the device ([`DataMark`]): a group without in-place
//! writes when it settles on the WAL stage, every other one at retire. A
//! data sync issued after every group up to some commit landed makes that
//! commit the mark, written as a [`LogRecord::DataDurable`]; recovery then
//! re-hashes only the BLOBs committed after it. A settled group's mark
//! names its own last commit and rides its own fsync, so a log of puts
//! needs no hashing at all; an in-place group's mark rides the next
//! group's fsync.
//!
//! A mark covers a group only if every earlier group landed too: the
//! prefix stops at the first one that has not. A mark is tagged with the
//! log epoch its commits were appended in and is never written into a
//! later one: the checkpoint that ended that epoch synced everything
//! before it.
//!
//! Completion is tracked per write set through durable **epochs**: `submit`
//! assigns epoch N to the N-th set, and a condvar-guarded frontier
//! advances once a set's group is fully retired. [`GroupCommitter::drain`]
//! and synchronous `commit_wait` commits block on that condvar — no
//! busy-waiting on the commit path. Committer I/O errors are sticky: the
//! first failure is recorded, counted in `commit_errors`, and surfaced as
//! `Err` by every later `drain`/`submit` (an asynchronously acknowledged
//! commit may have been lost; the database stops pretending otherwise).

use crate::txn::WriteSet;
use crossbeam::channel::SendError;
use lobster_buffer::{BlobPool, FlushItem, FlushTicket, PinGate};
use lobster_extent::{ExtentAllocator, ExtentSpec};
use lobster_metrics::Metrics;
use lobster_storage::Device;
use lobster_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use lobster_sync::thread::JoinHandle;
use lobster_sync::{thread, Arc, Condvar, Mutex, RwLock};
use lobster_types::{Error, Result, RetryPolicy};
use lobster_wal::{LogRecord, Wal};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
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

/// Pipeline progress shared by submitters, waiters, and both stages.
pub(crate) struct Progress {
    /// Commit epochs handed out by `submit` (epoch N = N-th write set).
    enqueued: AtomicU64,
    /// Durability frontier: every epoch `<= processed` has its WAL records
    /// fsynced *and* its content synced (or failed — see `error`).
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

    /// Record `e` as the sticky error: every later `submit` and `drain`
    /// fails. A checkpoint that fails once its header may name the next log
    /// epoch stops the committer so; it holds every writer out, so no write
    /// set is queued behind it.
    pub(crate) fn record_error(&self, e: &Error, metrics: &Metrics) {
        let mut st = self.state.lock();
        if st.error.is_none() {
            st.error = Some(e.to_string());
        }
        self.failed.store(true, Ordering::Release); // ordering: Release; publishes the error recorded under the state mutex above
        metrics.commit_errors.fetch_add(1, Ordering::Relaxed);
        self.cv.notify_all();
    }

    /// `Err` once a sticky error is recorded.
    pub(crate) fn sticky_error(&self) -> Result<()> {
        // ordering: Acquire; pairs with record_error's Release, so true implies the error text is visible
        if !self.failed.load(Ordering::Acquire) {
            return Ok(());
        }
        self.state.lock().error.as_ref().map_or(Ok(()), |msg| {
            Err(Error::Io(std::io::Error::other(format!(
                "group commit failed: {msg}"
            ))))
        })
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
        self.sticky_error()
    }
}

/// The last commit of a log prefix, the log epoch it was appended in, and
/// the group it ends in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Mark {
    log_epoch: u32,
    txn: u64,
    seq: u64,
}

/// Hand-off of the data-durable mark: both stages count groups as landed
/// into it, whichever syncs the data device publishes the landed prefix,
/// and the WAL stage takes what was published into the log.
struct DataMark {
    state: Mutex<MarkState>,
}

#[derive(Default)]
struct MarkState {
    /// Sequence number of the first group not yet landed.
    next: u64,
    /// Groups landed ahead of `next`, with the last commit of each.
    ahead: BTreeMap<u64, Option<Mark>>,
    /// Last commit of the landed prefix.
    prefix: Option<Mark>,
    /// Made true by a sync; written into the log at most once.
    published: Option<Mark>,
    written: Option<Mark>,
}

impl DataMark {
    fn new() -> Self {
        DataMark {
            state: Mutex::new(MarkState::default()),
        }
    }

    /// A group's content landed: at retire, or on the WAL stage for a
    /// settled group. Called once per group; one that failed never calls
    /// it, so the prefix stops before it for good.
    fn retired(&self, group: &DurableGroup) {
        let mut st = self.state.lock();
        let last = group.last_commit.map(|txn| Mark {
            log_epoch: group.log_epoch,
            txn,
            seq: group.seq,
        });
        st.ahead.insert(group.seq, last);
        loop {
            let next = st.next;
            let Some(last) = st.ahead.remove(&next) else {
                break;
            };
            st.prefix = last.or(st.prefix);
            st.next += 1;
        }
    }

    /// The prefix a data sync about to be issued covers, if it runs
    /// through group `seq`.
    fn covering(&self, seq: u64) -> Option<Mark> {
        let st = self.state.lock();
        st.prefix.filter(|_| st.next > seq)
    }

    /// The data device was synced after every group up to `mark` landed.
    /// The two stages sync concurrently, so a longer prefix published
    /// first stays.
    fn publish(&self, mark: Mark) {
        let mut st = self.state.lock();
        if !matches!(st.published, Some(p) if p.seq >= mark.seq) {
            st.published = Some(mark);
        }
    }

    /// The published mark, once, if its commits are in the log of
    /// `log_epoch` (the one the caller appends in, under the checkpoint
    /// gate).
    fn take_unwritten(&self, log_epoch: u32) -> Option<u64> {
        let mut st = self.state.lock();
        let fresh = |m: &Mark| m.log_epoch == log_epoch && st.written != Some(*m);
        let mark = st.published.filter(fresh)?;
        st.written = Some(mark);
        Some(mark.txn)
    }
}

/// A group of submitted write sets whose WAL records are durable (or are
/// being made so), queued for (or undergoing) its single extent flush.
#[derive(Default)]
pub(crate) struct DurableGroup {
    /// Position among the WAL stage's groups: log order.
    seq: u64,
    /// Log epoch the group's records were appended in.
    log_epoch: u32,
    /// Transaction of the group's last commit record, if it has one.
    last_commit: Option<u64>,
    /// Some set has content to write in place after the fsync; a group
    /// without lands outright when it settles ([`StageCtx::settle`]).
    in_place: bool,
    epochs: Vec<u64>,
    /// The write sets, as their transactions sealed them.
    sets: Vec<WriteSet>,
    pinned: u64,
}

impl DurableGroup {
    /// Take in a submitted write set and its durability epoch.
    fn absorb(&mut self, epoch: u64, ws: WriteSet, page_size: u64) {
        self.epochs.push(epoch);
        self.last_commit = ws.committed_txn().or(self.last_commit);
        self.pinned += ws.pinned_bytes(page_size);
        self.in_place |= !ws.toflush.is_empty();
        self.sets.push(ws);
    }
}

/// Everything the commit steps need; shared by both stage threads.
#[derive(Clone)]
pub(crate) struct StageCtx {
    blob_pool: BlobPool,
    /// The data device every group's content is synced on.
    device: Arc<dyn Device>,
    mark: Arc<DataMark>,
    alloc: Arc<ExtentAllocator>,
    metrics: Metrics,
    progress: Arc<Progress>,
    /// Backpressure by *bytes*: submitters block while the pipeline pins
    /// more than this many bytes of unflushed frames, so committer lag can
    /// never exhaust the buffer pool. A set larger than the whole budget
    /// waits for an empty gate.
    budget: Arc<PinGate>,
    page_size: u64,
}

impl StageCtx {
    pub(crate) fn new(
        blob_pool: BlobPool,
        device: Arc<dyn Device>,
        alloc: Arc<ExtentAllocator>,
        metrics: Metrics,
        page_size: u64,
        pinned_limit_bytes: u64,
    ) -> Self {
        StageCtx {
            blob_pool,
            device,
            mark: Arc::new(DataMark::new()),
            alloc,
            metrics,
            progress: Arc::new(Progress::new()),
            budget: Arc::new(PinGate::new(pinned_limit_bytes.max(page_size))),
            page_size,
        }
    }

    /// Admit a sealed write set: block until the frames it pins fit the
    /// budget, then hand out its durability epoch (epoch N = N-th set).
    pub(crate) fn admit(&self, ws: &WriteSet) -> u64 {
        self.budget
            .acquire_blocking(ws.pinned_bytes(self.page_size));
        // ordering: AcqRel; the epoch order is what drain()'s Acquire read targets
        self.progress.enqueued.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Group `seq` of admitted write sets. It counts as in flight from here
    /// to its retire; the WAL stage groups under the checkpoint gate, so
    /// the count can only fall once a checkpoint holds the gate
    /// ([`GroupCommitter::flush_quiesce`]).
    pub(crate) fn group(&self, seq: u64, sets: Vec<(u64, WriteSet)>) -> DurableGroup {
        // ordering: AcqRel; pairs with retire's fetch_sub and flush_quiesce's Acquire load
        self.progress.inflight_groups.fetch_add(1, Ordering::AcqRel);
        let mut group = DurableGroup {
            seq,
            ..DurableGroup::default()
        };
        for (epoch, ws) in sets {
            group.absorb(epoch, ws, self.page_size);
        }
        group
    }

    /// Step 2, **log**: the group's fresh content lands and is synced
    /// ([`StageCtx::settle`]); then all of its Blob States become durable
    /// with one fsync, followed by the mark published since the last
    /// group, if any — the group's own, if its settling published it.
    pub(crate) fn log(&self, wal: &Wal, group: &mut DurableGroup) -> Result<()> {
        group.log_epoch = wal.current_epoch();
        let fsync = self.settle(group).and_then(|()| {
            let mut lsn = None;
            for ws in group.sets.iter().filter(|ws| !ws.records.is_empty()) {
                lsn = Some(wal.append_batch(&ws.records)?);
            }
            let Some(mut lsn) = lsn else {
                return Ok(());
            };
            if let Some(txn) = self.mark.take_unwritten(group.log_epoch) {
                lsn = wal.append_batch(&[LogRecord::DataDurable { txn }])?;
            }
            wal.commit_to(lsn)
        });
        self.metrics
            .commit_wal_groups
            .fetch_add(1, Ordering::Relaxed); // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        fsync
    }

    /// Step 3, **flush**: put a durable group's in-place writes in flight
    /// and add it to `inflight`, or retire it at once if it has none.
    ///
    /// Admission comes first: hold the group back while it has writes to
    /// submit and the pipeline is at depth, and never let it join a flight
    /// touching the same extent — the two device writes could reorder and
    /// land stale content. The check covers not just the group's own writes
    /// but every extent its retire will *recycle* (`freed` from deletes,
    /// `refenced` from relocations): retiring drops those extents from the
    /// pool, and `drop_extent` spin-waits on the earlier flight's shared
    /// latches — on the flushing thread, which is the only one that can
    /// reap that flight. Skipping the check for metadata-only groups (a
    /// delete racing an in-flight append flush of the same blob)
    /// deadlocked the whole pipeline: no retire, no recycling, allocator
    /// wedged at full.
    pub(crate) fn flush(
        &self,
        inbox: &Arc<FlushInbox>,
        inflight: &mut Vec<InflightFlush>,
        mut group: DurableGroup,
    ) {
        let touched: Vec<ExtentSpec> = (group.sets.iter())
            .flat_map(|ws| {
                let items = ws.toflush.iter().map(|item| item.spec);
                items.chain(ws.freed.iter().chain(&ws.refenced).copied())
            })
            .collect();
        let conflicts = |f: &InflightFlush| touched.iter().any(|&spec| f.writes_into(spec));
        let mut stalled = false;
        loop {
            let due = reap(inflight, self);
            let at_depth = group.in_place && inflight.len() >= INFLIGHT_FLUSHES;
            if !at_depth && !inflight.iter().any(conflicts) {
                break;
            }
            if !std::mem::replace(&mut stalled, true) {
                // ordering: relaxed metrics counter; snapshot readers tolerate staleness
                self.metrics.commit_stalls.fetch_add(1, Ordering::Relaxed);
            }
            inbox.wait(false, due);
        }

        let items: Vec<FlushItem> = (group.sets.iter_mut())
            .flat_map(|ws| ws.toflush.drain(..))
            .collect();
        if items.is_empty() {
            // Its content, if any, settled before the fsync: retired only
            // now that no conflicting flight remains.
            return self.retire(group, Ok(()));
        }
        let ticket = match self.blob_pool.flush_extents_async(&items) {
            Ok(ticket) => ticket,
            // The retry writes synchronously.
            Err(e) => return self.retire(group, self.flush_retry(&items, e)),
        };
        let signal = inbox.clone();
        // `false`: already executed — the next reap sees it.
        ticket.notify_when_executed(Box::new(move || signal.signal_landed()));
        let mut flight = InflightFlush {
            ticket,
            group,
            writing: BTreeMap::new(),
        };
        items.iter().for_each(|item| flight.note_write(item.spec));
        self.metrics
            .commit_flush_batches
            .fetch_add(1, Ordering::Relaxed); // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        inflight.push(flight);
        self.metrics
            .commit_inflight_peak
            .fetch_max(inflight.len() as u64, Ordering::Relaxed); // ordering: relaxed metrics counter; snapshot readers tolerate staleness
    }

    /// Step 4, **retire**, for every group in `inflight`: sleep on `inbox`
    /// until all their flights landed.
    pub(crate) fn land_all(&self, inbox: &FlushInbox, inflight: &mut Vec<InflightFlush>) {
        loop {
            let due = reap(inflight, self);
            if inflight.is_empty() {
                break;
            }
            inbox.wait(false, due);
        }
    }

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

    /// Step 4, **retire**: once a durable group's extent flush completed
    /// (or failed), recycle its freed extents, release its pin budget, and
    /// advance the durability frontier. This is the pipeline's *only*
    /// completion point — budget and recycling intentionally wait for the
    /// flush, not the fsync, because until the flush lands the frames stay
    /// pinned and the freed extents' old content may still be the durable
    /// truth.
    pub(crate) fn retire(&self, group: DurableGroup, mut result: Result<()>) {
        // A group without in-place writes landed when it settled; one
        // with them is synced before the frontier passes it.
        if result.is_ok() && group.in_place {
            self.mark.retired(&group);
            let mark = self.mark.covering(group.seq);
            result = self.sync_device();
            if let (Ok(()), Some(mark)) = (&result, mark) {
                self.mark.publish(mark);
            }
        }
        match result {
            Ok(()) => group.sets.iter().for_each(|ws| self.recycle(ws)),
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

    /// Return what a retired write set freed to the allocator. Relocated-
    /// away placements (`refenced`) have their new placement durable (the
    /// group's flush landed), so the fence taken at swap staging is lifted
    /// and the old pages recycle. Order matters — release first, or the
    /// free would be parked.
    fn recycle(&self, ws: &WriteSet) {
        self.blob_pool.drop_extents(&ws.freed);
        self.blob_pool.drop_extents(&ws.refenced);
        for &spec in &ws.refenced {
            self.alloc.release_quarantine(spec);
        }
        for &spec in ws.freed.iter().chain(&ws.refenced) {
            self.alloc.free_extent(spec);
            // ordering: relaxed metrics counter; snapshot readers tolerate staleness
            self.metrics.extent_frees.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Sync the data device, retrying transient failures.
    fn sync_device(&self) -> Result<()> {
        let (res, stats) = RetryPolicy::DEFAULT.run(|| self.device.sync());
        self.metrics.bump_io_retry(stats.retries, stats.gave_up);
        if res.is_ok() {
            // ordering: relaxed metrics counter; snapshot readers tolerate staleness
            self.metrics.data_syncs.fetch_add(1, Ordering::Relaxed);
        }
        res
    }

    /// Land a group's fresh content before its records are appended: the
    /// fresh extents its transactions left to the pipeline go out as one
    /// batch, beside the writes a waiting commit already started, and once
    /// all have landed the data device is synced once, so the commit is
    /// durable the moment its fsync returns. A group without in-place
    /// writes has then landed outright: if every earlier group has too,
    /// the sync publishes the group's own last commit as the mark, for its
    /// own fsync. A write or sync that fails fails the group before its
    /// records reach the log.
    fn settle(&self, group: &mut DurableGroup) -> Result<()> {
        let mut flights: Vec<FlushTicket> = (group.sets.iter_mut())
            .flat_map(|ws| ws.flights.drain(..))
            .collect();
        let fresh: Vec<FlushItem> = (group.sets.iter_mut())
            .flat_map(|ws| ws.fresh.drain(..))
            .collect();
        if !fresh.is_empty() {
            match self.blob_pool.flush_extents_async(&fresh) {
                Ok(ticket) => flights.push(ticket),
                Err(e) => self.flush_retry(&fresh, e)?,
            }
        }
        let wrote = !(flights.is_empty() && fresh.is_empty());
        for ticket in flights {
            let items = ticket.items().to_vec();
            ticket.wait().or_else(|e| self.flush_retry(&items, e))?;
        }
        let mark = (!group.in_place).then(|| {
            self.mark.retired(group);
            self.mark.covering(group.seq)
        });
        if !wrote {
            return Ok(());
        }
        // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        (self.metrics.commit_flush_batches).fetch_add(1, Ordering::Relaxed);
        self.sync_device()?;
        if let Some(mark) = mark.flatten() {
            self.mark.publish(mark);
        }
        Ok(())
    }
}

pub(crate) struct GroupCommitter {
    tx: Option<crossbeam::channel::Sender<(u64, WriteSet)>>,
    ctx: StageCtx,
    wal_handle: Option<JoinHandle<()>>,
    flush_handle: Option<JoinHandle<()>>,
}

impl GroupCommitter {
    /// Start the two stage threads over `ctx`, appending to `wal` under
    /// `ckpt_gate`.
    pub fn new(wal: Arc<Wal>, ckpt_gate: Arc<RwLock<()>>, ctx: StageCtx) -> Self {
        let (tx, rx) = crossbeam::channel::unbounded::<(u64, WriteSet)>();
        let forward = Arc::new(FlushInbox::new());
        let inbox = forward.clone();
        let fctx = ctx.clone();
        let flush_handle = thread::Builder::new()
            .name("lobster-commit-flush".into())
            .spawn(move || flush_stage(inbox, fctx))
            // lint-allow(no-panic-in-request-path): engine startup, before any request path; a failed spawn is fatal by design
            .expect("spawn commit flush stage");

        let wctx = ctx.clone();
        let wal_handle = thread::Builder::new()
            .name("lobster-group-commit".into())
            .spawn(move || wal_stage(rx, forward, wal, ckpt_gate, wctx))
            // lint-allow(no-panic-in-request-path): engine startup, before any request path; a failed spawn is fatal by design
            .expect("spawn group committer");

        GroupCommitter {
            tx: Some(tx),
            ctx,
            wal_handle: Some(wal_handle),
            flush_handle: Some(flush_handle),
        }
    }

    /// Queue a sealed write set; returns its durability epoch (block on it
    /// with [`Progress::wait_for`]). Fails fast once a sticky committer
    /// error exists — later commits must not be acknowledged on top of a
    /// lost one.
    pub fn submit(&self, ws: WriteSet) -> Result<u64> {
        let progress = &self.ctx.progress;
        progress.sticky_error()?;
        // Submitting after close() is a caller bug, but the commit path must
        // degrade to an error, never a panic.
        let Some(tx) = self.tx.as_ref() else {
            return Err(Error::Unsupported("commit submitted after close"));
        };
        let epoch = self.ctx.admit(&ws);
        if let Err(SendError((_, ws))) = tx.send((epoch, ws)) {
            // The WAL stage died. Undo the budget so other committers cannot
            // wedge on a group that will never retire, and surface the loss.
            let pinned = ws.pinned_bytes(self.ctx.page_size);
            self.ctx.budget.release(pinned);
            return Err(progress
                .sticky_error()
                .err()
                .unwrap_or_else(|| Error::Io(std::io::Error::other("group commit stage exited"))));
        }
        Ok(epoch)
    }

    /// The durable-epoch frontier: [`Progress::wait_for`] on it blocks
    /// until an epoch is fully durable — WAL records fsynced *and* content
    /// synced.
    pub fn frontier(&self) -> &Progress {
        &self.ctx.progress
    }

    /// Wait until everything submitted so far is durable; surfaces the
    /// sticky committer error.
    pub fn drain(&self) -> Result<()> {
        let progress = &self.ctx.progress;
        // ordering: Acquire; pairs with admit's AcqRel bump, so the target covers every prior enqueue
        let target = progress.enqueued.load(Ordering::Acquire);
        progress.wait_for(target)
    }

    /// Wait until no extent flush is in flight. Only meaningful while the
    /// caller excludes new WAL-stage forwarding (checkpoints call this
    /// with the checkpoint gate held exclusively): a group submitted after
    /// the pre-gate drain may still be flushing, and a checkpoint's
    /// `flush_all_dirty` must not run concurrently with it.
    pub fn flush_quiesce(&self) {
        let progress = &self.ctx.progress;
        let mut st = progress.state.lock();
        // ordering: Acquire; zero pairs with retire's AcqRel decrement, all groups' effects visible
        while progress.inflight_groups.load(Ordering::Acquire) > 0 {
            progress.cv.wait(&mut st);
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
pub(crate) struct FlushInbox {
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
    pub(crate) fn new() -> Self {
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

/// Stage 1: absorb queued write sets into groups and run the **log** step
/// on each, then hand each durable group downstream.
fn wal_stage(
    rx: crossbeam::channel::Receiver<(u64, WriteSet)>,
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

    let mut seq = 0;
    while let Ok(first) = rx.recv() {
        // Absorb everything already queued into one group.
        let mut sets = vec![first];
        while let Ok(next) = rx.try_recv() {
            sets.push(next);
        }
        let _gate = ckpt_gate.read();
        let mut group = ctx.group(seq, sets);
        seq += 1;
        match ctx.log(&wal, &mut group) {
            // Records that never became durable forbid every write the
            // group still has to submit (§III-C ordering); what its
            // transactions already wrote went to fresh extents nothing
            // durable references.
            Err(e) => ctx.retire(group, Err(e)),
            // Hand off; the next group's fsync overlaps this group's
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
pub(crate) struct InflightFlush {
    /// The group's in-place writes, one batch.
    ticket: FlushTicket,
    group: DurableGroup,
    /// Page ranges being written, `start → pages`, for the
    /// write-after-write check.
    writing: BTreeMap<u64, u64>,
}

impl InflightFlush {
    fn note_write(&mut self, spec: ExtentSpec) {
        let pages = self.writing.entry(spec.start.raw()).or_insert(0);
        *pages = (*pages).max(spec.pages);
    }

    /// Does a write in flight touch any page of `spec`? By range, not by
    /// start: a truncate frees the pages past a tail extent's new end
    /// under a start no flight names.
    fn writes_into(&self, spec: ExtentSpec) -> bool {
        // Ranges in flight are disjoint, so only the last one starting
        // below `spec`'s end can reach into it.
        let (start, end) = (spec.start.raw(), spec.start.raw() + spec.pages.max(1));
        (self.writing.range(..end).next_back()).is_some_and(|(&s, &p)| s + p > start)
    }
}

/// Where an [`InflightFlush`] stands.
enum Flight {
    /// Reaped; the group can retire with this result.
    Landed(Result<()>),
    /// Still on the device. The instant is when to look again: the modeled
    /// completion once every request has executed, `None` while one still
    /// executes (the completion signal fires).
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
    /// Reap the flight if it has landed (a failed one gets its retry).
    fn poll(&mut self, ctx: &StageCtx) -> Flight {
        match self.ticket.poll() {
            Some(result) => {
                Flight::Landed(result.or_else(|e| ctx.flush_retry(self.ticket.items(), e)))
            }
            None => Flight::Flying(self.ticket.completes_at()),
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

/// Stage 2: run the **flush** step on each durable group, and **retire**
/// groups as their flights land.
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
        match inbox.wait(true, due) {
            Wake::Group(group) => ctx.flush(&inbox, &mut inflight, group),
            Wake::Look => {}
            Wake::Closed => break,
        }
    }
    // Closed: land every remaining flight.
    ctx.land_all(&inbox, &mut inflight);
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) fn group(epoch: u64) -> DurableGroup {
        let mut g = DurableGroup::default();
        g.absorb(epoch, WriteSet::default(), 4096);
        g
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

    /// Group `seq` of log epoch `epoch`, ending in `commit`.
    pub(super) fn retired(seq: u64, log_epoch: u32, commit: Option<u64>) -> DurableGroup {
        let mut g = group(seq + 1);
        (g.seq, g.log_epoch, g.last_commit) = (seq, log_epoch, commit);
        g
    }

    fn at(log_epoch: u32, txn: u64, seq: u64) -> Option<Mark> {
        Some(Mark {
            log_epoch,
            txn,
            seq,
        })
    }

    #[test]
    fn the_mark_covers_the_retired_prefix_in_log_order() {
        let mark = DataMark::new();
        mark.retired(&retired(0, 1, Some(10)));
        mark.retired(&retired(2, 1, Some(30))); // ahead of group 1
        assert_eq!(mark.covering(0), at(1, 10, 0));
        assert_eq!(mark.covering(2), None, "group 1 has not retired");
        mark.publish(at(1, 10, 0).unwrap());
        assert_eq!(mark.take_unwritten(1), Some(10));
        assert_eq!(mark.take_unwritten(1), None, "written once");
        // Group 1 holds no commit: the prefix runs through group 2.
        mark.retired(&retired(1, 1, None));
        assert_eq!(mark.covering(2), at(1, 30, 2));
    }

    #[test]
    fn a_published_mark_never_moves_back() {
        // The flush stage's sync covers group 0; the WAL stage's, issued
        // once group 1 landed too, publishes first.
        let mark = DataMark::new();
        mark.retired(&retired(0, 1, Some(4)));
        let older = mark.covering(0).unwrap();
        mark.retired(&retired(1, 1, Some(9)));
        mark.publish(mark.covering(1).unwrap());
        mark.publish(older);
        assert_eq!(mark.take_unwritten(1), Some(9));
    }

    #[test]
    fn a_mark_of_an_earlier_log_epoch_is_never_written() {
        let mark = DataMark::new();
        mark.retired(&retired(0, 1, Some(5)));
        mark.publish(mark.covering(0).expect("group 0 landed"));
        // A checkpoint truncates the log before the next group appends.
        assert_eq!(mark.take_unwritten(2), None);
        mark.retired(&retired(1, 2, Some(7)));
        mark.publish(mark.covering(1).expect("group 1 landed"));
        assert_eq!(mark.take_unwritten(2), Some(7));
    }

    #[test]
    fn a_group_that_never_retired_holds_the_prefix_back_for_good() {
        let mark = DataMark::new();
        // Group 0 failed: it never reaches `retired`.
        mark.retired(&retired(1, 1, Some(8)));
        assert_eq!(mark.covering(1), None);
    }
}

#[cfg(test)]
mod model {
    //! Protocol models over the real [`Progress`], [`DataMark`] and
    //! [`FlushInbox`]; the threads around them are the two stages and their
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

    // ---- mark: no data-durable mark in the log before its data sync ----

    struct Marked {
        mark: DataMark,
        /// Last commit whose content a data sync covered (0: none yet).
        synced: AtomicU64,
    }

    /// The flush stage retires a group with in-place writes, syncs the
    /// data device and publishes; the WAL stage, appending its next group,
    /// writes whatever was published. A mark in the log must name only
    /// content the data device already holds.
    fn run_mark(sync_first: bool) {
        let flush: Actor<Marked> = Box::new(move |w| {
            w.mark.retired(&super::tests::retired(0, 1, Some(7)));
            let mark = w.mark.covering(0).expect("group 0 landed");
            if sync_first {
                w.synced.store(mark.txn, Ordering::Release);
            }
            w.mark.publish(mark);
            if !sync_first {
                w.synced.store(mark.txn, Ordering::Release);
            }
        });
        let wal: Actor<Marked> = Box::new(|w| {
            if let Some(txn) = w.mark.take_unwritten(1) {
                let synced = w.synced.load(Ordering::Acquire);
                assert!(synced >= txn, "mark of txn {txn} before its data sync");
            }
        });
        let world = Marked {
            mark: DataMark::new(),
            synced: AtomicU64::new(0),
        };
        race(world, vec![flush, wal]);
    }

    #[test]
    fn mark_written_only_after_its_data_sync() {
        model(|| run_mark(true));
    }

    #[test]
    fn broken_mark_before_data_sync_is_caught() {
        let broken = || model(|| run_mark(false));
        assert!(model_catches(broken, "before its data sync"));
    }

    // ---- inline mark: a group's own mark only over synced, landed groups --

    /// How the WAL stage takes the mark of the group it settles.
    #[derive(Clone, Copy)]
    enum Inline {
        /// The prefix through the group, then the sync, then the publish.
        Covering,
        /// The mark is published before the data sync is issued.
        BeforeSync,
        /// The group's own last commit, whatever the earlier groups did.
        OwnCommit,
    }

    struct Settling {
        mark: DataMark,
        /// Per group: its content landed.
        landed: [AtomicBool; 2],
        /// Per group: its content had landed when the data sync was issued.
        synced: [Plain; 2],
        sync_issued: Plain,
    }

    /// Group 0 wrote in place and lands on the flush stage; group 1 has
    /// only fresh content, and the WAL stage settles it: lands it, syncs, and writes the mark the sync
    /// covers, naming commit 7 of group 1 or commit 5 of group 0. A mark
    /// in the log must name only content a data sync issued after its
    /// landing covers — every group's up to its own.
    fn run_inline(take: Inline) {
        let flush: Actor<Settling> = Box::new(|w| {
            w.landed[0].store(true, Ordering::Release);
            w.mark.retired(&super::tests::retired(0, 1, Some(5)));
        });
        let wal: Actor<Settling> = Box::new(move |w| {
            w.landed[1].store(true, Ordering::Release);
            w.mark.retired(&super::tests::retired(1, 1, Some(7)));
            let mark = match take {
                Inline::OwnCommit => Some(Mark {
                    log_epoch: 1,
                    txn: 7,
                    seq: 1,
                }),
                _ => w.mark.covering(1),
            };
            let sync = |w: &Settling| {
                for (landed, synced) in w.landed.iter().zip(&w.synced) {
                    synced.store(landed.load(Ordering::Acquire), SeqCst);
                }
                w.sync_issued.store(true, SeqCst);
            };
            if !matches!(take, Inline::BeforeSync) {
                sync(w);
            }
            if let Some(mark) = mark {
                w.mark.publish(mark);
            }
            // The group's fsync: records, then the mark.
            if let Some(txn) = w.mark.take_unwritten(1) {
                assert!(
                    w.sync_issued.load(SeqCst),
                    "inline mark of txn {txn} before its data sync"
                );
                let covered = if txn == 7 { 2 } else { 1 };
                for (g, synced) in w.synced.iter().enumerate().take(covered) {
                    let synced = synced.load(SeqCst);
                    assert!(synced, "inline mark of txn {txn} over unlanded group {g}");
                }
            }
            if matches!(take, Inline::BeforeSync) {
                sync(w);
            }
        });
        let world = Settling {
            mark: DataMark::new(),
            landed: Default::default(),
            synced: Default::default(),
            sync_issued: Plain::new(false),
        };
        race(world, vec![flush, wal]);
    }

    #[test]
    fn inline_mark_covers_only_groups_landed_before_its_sync() {
        model(|| run_inline(Inline::Covering));
    }

    #[test]
    fn broken_inline_mark_before_data_sync_is_caught() {
        let broken = || model(|| run_inline(Inline::BeforeSync));
        assert!(model_catches(broken, "before its data sync"));
    }

    #[test]
    fn broken_inline_mark_over_an_unlanded_earlier_group_is_caught() {
        let broken = || model(|| run_inline(Inline::OwnCommit));
        assert!(model_catches(broken, "over unlanded group 0"));
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
