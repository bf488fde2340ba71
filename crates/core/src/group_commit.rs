//! Background group committer (§V-A: "group commit so the critical path
//! usually does not involve I/O"): **one commit thread** over the one
//! [`WriteSet`] each transaction seals.
//!
//! A commit is four named steps. **Stage** is the transaction's own:
//! its verbs fill the write set, a waiting commit starts its fresh
//! extents' write early, and `Txn::stage` seals the set, which
//! [`GroupCommitter::submit`] queues. The other three are [`StageCtx`]
//! methods, and the commit thread absorbs the queued write sets into a
//! group and runs all three on it, in order, before it takes the next:
//!
//! * **log** ([`StageCtx::log`]): the group's fresh content landed and
//!   synced, then its records appended and made durable with one group
//!   fsync;
//! * **write in place** ([`StageCtx::write_in_place`]): the writes that had
//!   to wait for the fsync go out as one batch, are waited out, and the
//!   data device is synced once;
//! * **retire** ([`StageCtx::retire`]): freed extents recycled, pin budget
//!   released, epochs completed.
//!
//! The thread holds the checkpoint gate from a group's log to its retire,
//! so a checkpoint that holds the gate exclusively has no group in flight.
//! The steps own no thread: `crate::sim` calls the same ones, one at a
//! time, on one thread, and cuts power between them.
//!
//! **Ordering (§III-C, per group): content before its record.** The WAL
//! must be durable before any write to an extent that may still be the
//! durable truth. A *freshly allocated* extent never is — a freed extent
//! recycles only when its deleter retires here — so a group's fresh
//! content, relocation copies included, is written *before* its records,
//! in both commit modes: a waiting commit's puts start that write early
//! ([`WriteSet::flights`]), and the commit thread submits whatever fresh
//! content is left as one batch, lands it all and syncs the data device
//! once before it appends the group ([`StageCtx::settle`]). Every in-place
//! write (delta update, append into a partly filled extent) arrives as a
//! [`FlushItem`] and is submitted only after its group's fsync returned.
//! Either way a group retires only when its fsync *and* every one of its
//! writes have landed. Groups run one at a time, so two writes to one
//! extent never overlap, and a group that recycles an extent retires after
//! every earlier write to it landed.
//!
//! **Acknowledged means durable.** A group's content is on the data
//! device, synced, before the frontier passes it, whatever
//! [`crate::Config::commit_wait`] says (that decides only whether a put
//! writes early and whether `commit` blocks).
//!
//! **Data-durable mark.** Groups land in log order, each once its content
//! is on the device and synced ([`DataMark`]): a group without in-place
//! writes when it settles, every other one after its in-place writes. Its
//! last commit is then the mark, written as a [`LogRecord::DataDurable`];
//! recovery re-hashes only the BLOBs committed after it. A settled group's
//! mark rides its own fsync, so a log of puts needs no hashing at all; an
//! in-place group's mark rides the next group's fsync. A failed group
//! stops every later mark. A mark is tagged with the log epoch its commits
//! were appended in and is never written into a later one: the checkpoint
//! that ended that epoch synced everything before it.
//!
//! Completion is tracked per write set through durable **epochs**: `submit`
//! assigns epoch N to the N-th set, and a condvar-guarded frontier
//! advances once a set's group is fully retired. [`GroupCommitter::drain`]
//! and synchronous `commit_wait` commits block on that condvar — no
//! busy-waiting on the commit path. The one other wait in the pipeline is
//! a submitter's on the pin budget (counted in `commit_stalls`). Committer
//! I/O errors are sticky: the first failure is recorded, counted in
//! `commit_errors`, and surfaced as `Err` by every later `drain`/`submit`
//! (an asynchronously acknowledged commit may have been lost; the database
//! stops pretending otherwise).

use crate::txn::WriteSet;
use lobster_buffer::{BlobPool, FlushItem, FlushTicket, PinGate};
use lobster_extent::ExtentAllocator;
use lobster_metrics::Metrics;
use lobster_storage::Device;
use lobster_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use lobster_sync::thread::JoinHandle;
use lobster_sync::{thread, Arc, Condvar, Mutex, RwLock};
use lobster_types::{Error, Result, RetryPolicy};
use lobster_wal::{LogRecord, Wal};
use std::collections::BTreeSet;
use std::sync::mpsc;
use std::time::Duration;

// Memory-ordering note (satellite audit, PR 4): `Relaxed` in this file is
// metrics counters plus the `processed` frontier load inside
// `complete_epochs`, which runs under the `state` mutex (the mutex orders
// frontier read-modify-write; the `Release` store pairs with the `Acquire`
// fast-path load in `wait_for`). Epoch handout and frontier publication
// use Acquire/Release.

/// Pipeline progress shared by submitters, waiters, and the commit thread.
pub(crate) struct Progress {
    /// Commit epochs handed out by `submit` (epoch N = N-th write set).
    enqueued: AtomicU64,
    /// Durability frontier: every epoch `<= processed` has its WAL records
    /// fsynced *and* its content synced (or failed — see `error`).
    processed: AtomicU64,
    /// Fast path for "has a sticky error been recorded".
    failed: AtomicBool,
    state: Mutex<ProgressState>,
    cv: Condvar,
}

struct ProgressState {
    /// Completed epochs above the frontier: submitters race between taking
    /// an epoch and queueing their set, so groups can complete epochs out
    /// of order, and the frontier advances only over a contiguous prefix.
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

/// The last commit of a landed group and the log epoch it was appended in.
struct Mark {
    log_epoch: u32,
    txn: u64,
}

/// The data-durable mark. The commit thread lands groups in log order:
/// the last commit of a landed group becomes the mark once a data sync
/// issued after the landing returned, and the next append writes it.
struct DataMark {
    state: Mutex<MarkState>,
}

#[derive(Default)]
struct MarkState {
    /// Last commit of the latest landed group, until a sync covers it.
    landed: Option<Mark>,
    /// Covered by a sync; written into the log at most once.
    published: Option<Mark>,
    /// A group failed: a later mark would vouch for it too, and so might
    /// an unwritten one (the failed group's own, if its append failed).
    stopped: bool,
}

impl DataMark {
    fn new() -> Self {
        DataMark {
            state: Mutex::new(MarkState::default()),
        }
    }

    /// `group`'s content landed, and every earlier group's did. A group
    /// without commits leaves the candidate as it is.
    fn landed(&self, group: &DurableGroup) {
        let mut st = self.state.lock();
        if let (false, Some(txn)) = (st.stopped, group.last_commit) {
            st.landed = Some(Mark {
                log_epoch: group.log_epoch,
                txn,
            });
        }
    }

    /// A data sync issued after the last landing returned.
    fn synced(&self) {
        let mut st = self.state.lock();
        if let Some(mark) = st.landed.take() {
            st.published = Some(mark);
        }
    }

    /// A group failed: no mark is written any more.
    fn stop(&self) {
        *self.state.lock() = MarkState {
            stopped: true,
            ..MarkState::default()
        };
    }

    /// The published mark, once, if its commits are in the log of
    /// `log_epoch` (the one the caller appends in, under the checkpoint
    /// gate).
    fn take_unwritten(&self, log_epoch: u32) -> Option<u64> {
        let mark = self.state.lock().published.take()?;
        (mark.log_epoch == log_epoch).then_some(mark.txn)
    }
}

/// A group of submitted write sets, from its log to its retire.
#[derive(Default)]
pub(crate) struct DurableGroup {
    /// Log epoch the group's records were appended in.
    log_epoch: u32,
    /// Transaction of the group's last commit record, if it has one.
    last_commit: Option<u64>,
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
        self.sets.push(ws);
    }

    /// Some set has content to write in place after the fsync.
    fn in_place(&self) -> bool {
        self.sets.iter().any(|ws| !ws.toflush.is_empty())
    }
}

/// Everything the commit steps need; shared by the submitters and the
/// commit thread.
pub(crate) struct StageCtx {
    blob_pool: BlobPool,
    /// The data device every group's content is synced on.
    device: Arc<dyn Device>,
    mark: DataMark,
    alloc: Arc<ExtentAllocator>,
    metrics: Metrics,
    progress: Progress,
    /// Backpressure by *bytes*: submitters block while the pipeline pins
    /// more than this many bytes of unflushed frames, so committer lag can
    /// never exhaust the buffer pool. A set larger than the whole budget
    /// waits for an empty gate.
    budget: PinGate,
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
            mark: DataMark::new(),
            alloc,
            metrics,
            progress: Progress::new(),
            budget: PinGate::new(pinned_limit_bytes.max(page_size)),
            page_size,
        }
    }

    /// Admit a sealed write set: block until the frames it pins fit the
    /// budget (a wait counts as a stall), then hand out its durability
    /// epoch (epoch N = N-th set).
    pub(crate) fn admit(&self, ws: &WriteSet) -> u64 {
        if self
            .budget
            .acquire_blocking(ws.pinned_bytes(self.page_size))
        {
            // ordering: relaxed metrics counter; snapshot readers tolerate staleness
            self.metrics.commit_stalls.fetch_add(1, Ordering::Relaxed);
        }
        // ordering: AcqRel; the epoch order is what drain()'s Acquire read targets
        self.progress.enqueued.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// A group of admitted write sets.
    pub(crate) fn group(&self, sets: Vec<(u64, WriteSet)>) -> DurableGroup {
        let mut group = DurableGroup::default();
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

    /// Step 3, **write in place**, after the group's fsync returned: its
    /// in-place writes go out as one batch and are waited out, then the
    /// data device is synced once. The group has then landed, and the sync
    /// makes its last commit the mark, for the next group's fsync.
    pub(crate) fn write_in_place(&self, group: &mut DurableGroup) -> Result<()> {
        let items: Vec<FlushItem> = (group.sets.iter_mut())
            .flat_map(|ws| ws.toflush.drain(..))
            .collect();
        if items.is_empty() {
            return Ok(());
        }
        // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        (self.metrics.commit_flush_batches).fetch_add(1, Ordering::Relaxed);
        (self.blob_pool.flush_extents_async(&items))
            .and_then(FlushTicket::wait)
            .or_else(|e| self.flush_retry(&items, e))?;
        self.mark.landed(group);
        self.sync_device()?;
        self.mark.synced();
        Ok(())
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

    /// Step 4, **retire**: once a group's writes landed (or failed),
    /// recycle its freed extents, release its pin budget, and advance the
    /// durability frontier. Budget and recycling wait for the writes, not
    /// the fsync, because until they land the frames stay pinned and the
    /// freed extents' old content may still be the durable truth.
    pub(crate) fn retire(&self, group: DurableGroup, result: Result<()>) {
        match result {
            Ok(()) => group.sets.iter().for_each(|ws| self.recycle(ws)),
            // Leave failed groups' extents pinned and their frees
            // unrecycled: with durability unknown, recycling could overwrite
            // content a recovery still resolves to.
            Err(e) => {
                self.mark.stop();
                self.progress.record_error(&e, &self.metrics);
            }
        }
        self.budget.release(group.pinned);
        self.progress.complete_epochs(&group.epochs);
    }

    /// Return what a retired write set freed to the allocator. Relocated-
    /// away placements (`refenced`) have their new placement durable (the
    /// group settled), so the fence taken at swap staging is lifted and
    /// the old pages recycle. Order matters — release first, or the free
    /// would be parked.
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
    /// writes has then landed outright, and the sync makes its last commit
    /// the mark, for its own fsync. A write or sync that fails fails the
    /// group before its records reach the log.
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
        if !group.in_place() {
            self.mark.landed(group);
        }
        if !wrote {
            return Ok(());
        }
        // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        (self.metrics.commit_flush_batches).fetch_add(1, Ordering::Relaxed);
        self.sync_device()?;
        self.mark.synced();
        Ok(())
    }
}

pub(crate) struct GroupCommitter {
    tx: Option<mpsc::Sender<(u64, WriteSet)>>,
    ctx: Arc<StageCtx>,
    handle: Option<JoinHandle<()>>,
}

impl GroupCommitter {
    /// Start the commit thread over `ctx`, appending to `wal` under
    /// `ckpt_gate`.
    pub fn new(wal: Arc<Wal>, ckpt_gate: Arc<RwLock<()>>, ctx: StageCtx) -> Self {
        let (tx, rx) = mpsc::channel::<(u64, WriteSet)>();
        let ctx = Arc::new(ctx);
        let thread_ctx = ctx.clone();
        let handle = thread::Builder::new()
            .name("lobster-group-commit".into())
            .spawn(move || commit_thread(rx, wal, ckpt_gate, thread_ctx))
            // lint-allow(no-panic-in-request-path): engine startup, before any request path; a failed spawn is fatal by design
            .expect("spawn group committer");
        GroupCommitter {
            tx: Some(tx),
            ctx,
            handle: Some(handle),
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
        if let Err(mpsc::SendError((_, ws))) = tx.send((epoch, ws)) {
            // The commit thread died. Undo the budget so other committers
            // cannot wedge on a group that will never retire, and surface
            // the loss.
            let pinned = ws.pinned_bytes(self.ctx.page_size);
            self.ctx.budget.release(pinned);
            return Err(progress.sticky_error().err().unwrap_or_else(|| {
                Error::Io(std::io::Error::other("group commit thread exited"))
            }));
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
}

impl Drop for GroupCommitter {
    fn drop(&mut self) {
        // Best effort: a sticky error was already surfaced to callers.
        let _ = self.drain();
        // Disconnect: the commit thread finishes what is queued and exits.
        self.tx.take();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// The commit thread: absorb queued write sets into a group and run
/// **log**, **write in place** and **retire** on it under the checkpoint
/// gate, then take the next group.
fn commit_thread(
    rx: mpsc::Receiver<(u64, WriteSet)>,
    wal: Arc<Wal>,
    ckpt_gate: Arc<RwLock<()>>,
    ctx: Arc<StageCtx>,
) {
    while let Ok(first) = rx.recv() {
        // Absorb everything already queued into one group.
        let mut sets = vec![first];
        sets.extend(rx.try_iter());
        let _gate = ckpt_gate.read();
        let mut group = ctx.group(sets);
        // Records that never became durable forbid every write the group
        // still has to make in place (§III-C ordering); what its
        // transactions already wrote went to fresh extents nothing durable
        // references.
        let result = (ctx.log(&wal, &mut group)).and_then(|()| ctx.write_in_place(&mut group));
        ctx.retire(group, result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A group of log epoch `log_epoch` whose last commit is `commit`.
    fn landed(log_epoch: u32, commit: Option<u64>) -> DurableGroup {
        DurableGroup {
            log_epoch,
            last_commit: commit,
            ..DurableGroup::default()
        }
    }

    #[test]
    fn a_mark_is_written_only_after_its_data_sync() {
        let mark = DataMark::new();
        mark.landed(&landed(1, Some(10)));
        assert_eq!(mark.take_unwritten(1), None, "landed, but not synced");
        mark.synced();
        assert_eq!(mark.take_unwritten(1), Some(10));
        assert_eq!(mark.take_unwritten(1), None, "written once");
        // A sync with nothing landed since publishes nothing.
        mark.synced();
        assert_eq!(mark.take_unwritten(1), None);
    }

    #[test]
    fn the_mark_covers_the_retired_prefix_in_log_order() {
        let mark = DataMark::new();
        // Groups land one after another: one sync covers them all, and the
        // mark names the last commit; a group without commits keeps it.
        mark.landed(&landed(1, Some(10)));
        mark.landed(&landed(1, Some(30)));
        mark.landed(&landed(1, None));
        mark.synced();
        assert_eq!(mark.take_unwritten(1), Some(30));
    }

    #[test]
    fn a_failed_group_stops_every_later_mark() {
        for landed_before in [false, true] {
            let mark = DataMark::new();
            mark.landed(&landed(1, Some(4)));
            mark.synced();
            if landed_before {
                // The failed group landed and synced, then its append
                // failed: its own mark is published and must not be written.
                mark.landed(&landed(1, Some(9)));
                mark.synced();
            }
            mark.stop();
            assert_eq!(mark.take_unwritten(1), None);
            mark.landed(&landed(1, Some(12)));
            mark.synced();
            assert_eq!(mark.take_unwritten(1), None, "a later group's mark");
        }
    }

    #[test]
    fn a_mark_of_an_earlier_log_epoch_is_never_written() {
        let mark = DataMark::new();
        mark.landed(&landed(1, Some(5)));
        mark.synced();
        // A checkpoint truncates the log before the next group appends.
        assert_eq!(mark.take_unwritten(2), None);
        mark.landed(&landed(2, Some(7)));
        mark.synced();
        assert_eq!(mark.take_unwritten(2), Some(7));
    }
}

#[cfg(test)]
mod model {
    //! The durability frontier, over the real [`Progress`]: groups retire
    //! epochs out of order, because submitters race between taking an
    //! epoch and queueing their set.

    use super::*;
    use lobster_sync::{model, race, Actor};
    // Bookkeeping the model asserts on, invisible to the scheduler.
    use std::sync::atomic::{AtomicBool as Plain, Ordering::SeqCst};

    /// Two retirers complete epochs in any order; a committer waiting on
    /// epoch 2 returns only once epochs 1 *and* 2 have their extents
    /// written.
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
}
