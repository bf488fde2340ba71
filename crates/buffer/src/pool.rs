//! The vmcache-style extent buffer pool.
//!
//! Pages are translated through a flat page table (one `AtomicU64` per
//! page, indexed by PID) with versioned-latch-style CAS state transitions —
//! the userspace analogue of vmcache [55]. Latching is *coarse-grained at
//! extent granularity* (§III-G): an extent of N pages has a single page-table
//! entry on its head page, so N threads racing to read it perform one device
//! read and one latch acquisition, not N.
//!
//! Each resident extent occupies a *contiguous* frame range in the arena, so
//! an extent is always contiguous in memory. Free frames merge with their
//! neighbours ([`FreeFrames`], the map a shard's device pages use too),
//! and the fresh extents of a placement
//! (`ExtentPool::take_run`) and the claims of a whole-BLOB fault batch
//! ([`ExtentPool::fault_many`]) are framed as one run whenever a free run
//! or a swept window holds them all. [`ExtentPool::read_blob`] has three
//! shapes: a BLOB whose extents sit back to back in the arena is read **in
//! place**, one slice under its latches; scattered frames are **aliased**
//! contiguously through virtual memory (§IV-B) from [`ALIAS_MIN_BYTES`] up
//! and **copied** out below it.
//!
//! The pool frames, faults, aliases and evicts exactly the `pages` a caller's
//! [`ExtentSpec`] names, and records that count in the entry word. The engine
//! hands it the *content view* of a BLOB (each extent clipped to the pages
//! that hold content), so tier slack never costs a frame or a device read. A
//! later caller naming *more* pages than are resident (the content grew, under
//! the BLOB's exclusive key lock) is served by re-framing under the exclusive
//! latch; one naming fewer simply sees the larger resident range.
//!
//! A pool without a free run long enough evicts through one hand
//! (`sweep.rs`) that sweeps the frames in arena order and frees a *window*
//! of contiguous frames made of free runs and whole clean, unlatched,
//! unpinned extents. Each frame passes under the hand once a revolution, so
//! eviction stays per-page fair (§III-G "Fair extent eviction": an N-page
//! extent is N times as likely to be evicted as a single page), and a
//! placement or a whole-BLOB fault batch gets its run of frames from a
//! full pool too.
//!
//! The entry word — its layout, every legal transition, the ordering each
//! one needs and the latch-ledger note that goes with it — lives in
//! [`crate::entry`]; this file decides *which* transition to attempt and does
//! the work between two of them (frames, device I/O, the owner map).

use crate::alias::{AliasConfig, AliasGuard, AliasingManager};
use crate::arena::Arena;
use crate::entry::{Entry, Excl, Latch, Seen, Table};
use crate::flush_ledger::FlushLedger;
use crate::sweep::Sweep;
use lobster_extent::{ExtentSpec, FreeFrames, Piece};
use lobster_metrics::Metrics;
use lobster_storage::{wait_until, AsyncIo, BatchHandle, Device, IoKind, IoReq};
use lobster_sync::atomic::{AtomicU64, Ordering};
use lobster_sync::audit::LatchLedger;
use lobster_sync::hint::spin_loop;
use lobster_sync::thread::yield_now;
use lobster_sync::{Arc, Mutex};
use lobster_types::{Error, Geometry, Pid, Result, RetryPolicy};
use std::collections::HashSet;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};

// Memory-ordering note: every atomic in this file is a metrics counter or
// the `prefetched_live` gate — never the latch protocol, which is
// `entry.rs`'s alone.

/// Multi-extent BLOBs smaller than this are copied out of their frames by
/// [`ExtentPool::read_blob`]; this size and larger ones are aliased.
/// Aliasing costs a `mmap` per extent and a remap of the area afterwards —
/// a TLB shootdown on every processor running the process — whatever the
/// size, a copy costs its bytes. Set from `micro_primitives`' `alias_vs_copy`
/// sweep: the smallest size at which aliasing beats the copy with one and
/// two concurrent readers taken together (EXPERIMENTS.md, "Alias or copy").
pub const ALIAS_MIN_BYTES: u64 = 1 << 20;

/// Rounds a latch arm spins on an extent another thread holds before it
/// starts yielding. A holder copying frames or losing a race lets go
/// within them; one whose fault is on the device holds the latch for a
/// whole read (~400 µs on a modeled NVMe device), and a waiter that kept
/// spinning would burn a processor the holder's I/O worker may need.
const LATCH_SPINS: u32 = 64;

/// The wait of one latch arm: [`LATCH_SPINS`] spins, then a yield a round.
#[derive(Default)]
struct LatchWait(u32);

impl LatchWait {
    fn snooze(&mut self) {
        if self.0 < LATCH_SPINS {
            self.0 += 1;
            spin_loop();
        } else {
            yield_now();
        }
    }
}

// ----------------------------------------------------------------- pool ---

/// Configuration of an [`ExtentPool`].
#[derive(Clone, Debug)]
pub struct PoolConfig {
    /// Number of buffer frames (pages of arena memory).
    pub frames: u64,
    /// Aliasing-area sizing; `None` disables zero-copy aliasing (gather
    /// copies are used instead, as in the hash-table baseline).
    pub alias: Option<AliasConfig>,
    /// Threads in the asynchronous I/O engine.
    pub io_threads: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            frames: 16 * 1024, // 64 MiB at 4 KiB pages
            alias: None,
            io_threads: 4,
        }
    }
}

/// Work item for the commit-time flush: which extent, and which page range
/// within it is dirty (only dirty pages are written, §III-C).
#[derive(Clone, Copy, Debug)]
pub struct FlushItem {
    pub spec: ExtentSpec,
    /// First dirty page within the extent.
    pub dirty_from: u64,
    /// Number of dirty pages.
    pub dirty_pages: u64,
}

impl FlushItem {
    pub fn whole(spec: ExtentSpec) -> Self {
        FlushItem {
            spec,
            dirty_from: 0,
            dirty_pages: spec.pages,
        }
    }
}

/// One in-flight commit-time extent flush, submitted by either pool's
/// `flush_extents_begin`. It owns what the device requests point into
/// until the pool's `flush_extents_finish` runs, exactly once per batch:
/// the vm pool's shared latches (released there, which on success also
/// clears the dirty/`prevent_evict` flags) or the hash-table pool's
/// gathered scratch buffers.
pub struct FlushBatch {
    /// The submission underneath, for its completion signal.
    pub(crate) handle: BatchHandle,
    pub(crate) items: Vec<FlushItem>,
    /// Hash-table pool only: the write sources of the in-flight requests.
    pub(crate) _scratch: Vec<Vec<u8>>,
}

impl FlushBatch {
    /// Non-blocking completion check. Returns `Some(result)` once every
    /// request has executed and the modeled device deadline has passed.
    /// Never executes queued requests inline (the batch is done before the
    /// underlying poll runs), so a poller cannot block on device time.
    pub fn try_complete(&self) -> Option<Result<()>> {
        if !self.handle.is_complete() {
            return None;
        }
        self.handle.try_complete()
    }

    /// Block until every request has executed and the modeled device
    /// deadline has passed; the result stays reapable via
    /// [`FlushBatch::try_complete`].
    pub fn wait_done(&self) {
        self.handle.wait_done();
    }

    /// [`FlushBatch::wait_done`], then the result.
    pub(crate) fn wait(&self) -> Result<()> {
        self.wait_done();
        self.handle
            .try_complete()
            // lint-allow(no-panic-in-request-path): wait_done() just blocked on this batch; try_complete is then infallible
            .expect("batch complete after wait_done")
    }
}

/// The device reads of one [`ExtentPool::submit_pieces`] call, in flight:
/// the submission, and each piece it reads with where in the caller's
/// buffer that piece lands.
pub(crate) struct PieceFlight {
    pub(crate) handle: BatchHandle,
    pub(crate) cold: Vec<(Piece, usize)>,
}

/// One in-flight readahead submission: reaped by [`ExtentPool::poll_prefetches`].
struct PrefetchBatch {
    handle: BatchHandle,
    /// `(spec, frame)` of every extent the batch is loading; their page-table
    /// entries stay locked until the batch is published or rolled back.
    claimed: Vec<(ExtentSpec, u64)>,
}

/// Frames taken back to back for the fresh extents of one placement
/// ([`ExtentPool::take_run`]), handed to them in order by
/// [`ExtentPool::create_extent_in`]. Frames no extent took go back to the
/// pool when the run drops.
pub(crate) struct FrameRun<'p> {
    pool: &'p ExtentPool,
    next: u64,
    end: u64,
}

impl Drop for FrameRun<'_> {
    fn drop(&mut self) {
        if self.next < self.end {
            self.pool.frames.free(self.next, self.end - self.next);
        }
    }
}

/// The vmcache-style buffer pool with extent-granular latching.
pub struct ExtentPool {
    geo: Geometry,
    arena: Arena,
    table: Table,
    frames: FreeFrames,
    /// The evictor: the owner map and the hand that sweeps the frames.
    sweep: Sweep,
    aliasing: Option<AliasingManager>,
    io: AsyncIo,
    device: Arc<dyn Device>,
    metrics: Metrics,
    frame_count: u64,
    /// Readahead batches not yet reaped.
    inflight: Mutex<Vec<PrefetchBatch>>,
    /// Prefetched extents no foreground read has consumed yet (tracks the
    /// readahead hit/wasted counters).
    prefetched: Mutex<HashSet<u64>>,
    /// `prefetched.len()`, mirrored so the hot read path can skip the lock.
    prefetched_live: AtomicU64,
    /// Commit-time flushes owed to and in flight for each dirty extent.
    flushes: FlushLedger,
    /// Debug-only latch/pin ledger shadowing the page-table transitions;
    /// every method is a no-op in release builds.
    audit: LatchLedger,
}

impl ExtentPool {
    pub fn new(
        device: Arc<dyn Device>,
        geo: Geometry,
        cfg: PoolConfig,
        metrics: Metrics,
    ) -> Arc<Self> {
        let page_capacity = device.capacity() / geo.page_size() as u64;
        assert!(page_capacity > 0, "device too small");
        assert!(cfg.frames <= Entry::MAX_FRAME);
        let alias_bytes = cfg.alias.map(|a| a.total_bytes()).unwrap_or(0);
        let arena = Arena::new((cfg.frames as usize) * geo.page_size(), alias_bytes);
        let aliasing = cfg.alias.map(AliasingManager::new);
        let table = Table::new(page_capacity);
        Arc::new(ExtentPool {
            geo,
            arena,
            table,
            frames: FreeFrames::new(cfg.frames),
            sweep: Sweep::new(cfg.frames),
            aliasing,
            io: AsyncIo::new(device.clone(), cfg.io_threads.max(1)),
            device,
            metrics,
            frame_count: cfg.frames,
            inflight: Mutex::new(Vec::new()),
            prefetched: Mutex::new(HashSet::new()),
            prefetched_live: AtomicU64::new(0),
            flushes: FlushLedger::new(),
            audit: LatchLedger::new(),
        })
    }

    pub fn geometry(&self) -> Geometry {
        self.geo
    }

    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    pub fn device(&self) -> &Arc<dyn Device> {
        &self.device
    }

    /// Whether zero-copy aliasing is active.
    pub fn aliasing_enabled(&self) -> bool {
        self.aliasing.is_some() && self.arena.supports_alias()
    }

    pub fn alias_stats(&self) -> Option<crate::alias::AliasStats> {
        self.aliasing.as_ref().map(|a| a.stats())
    }

    /// Frames currently holding data.
    pub fn frames_in_use(&self) -> u64 {
        self.frames.in_use()
    }

    pub fn frame_count(&self) -> u64 {
        self.frame_count
    }

    /// The pool's latch/pin ledger (debug-only invariant auditor).
    pub fn audit(&self) -> &LatchLedger {
        &self.audit
    }

    #[inline]
    fn entry(&self, pid: Pid) -> Entry<'_> {
        Entry::at(&self.table, pid, &self.audit)
    }

    /// Frame the locked extent at `pid` as `pages` frames from `frame`, and
    /// note in the owner map where its framing starts.
    fn reframe(&self, pid: Pid, pages: u64, frame: u64) {
        self.sweep.own(frame, pid);
        self.entry(pid).reframe(pages, frame);
    }

    // ------------------------------------------------------- latching ---

    /// Fix an extent shared, loading it from the device on a miss (one
    /// contiguous read for the whole extent).
    pub fn read_extent(&self, spec: ExtentSpec) -> Result<ShGuard<'_>> {
        let (frame, pages) = self.fix_shared(spec)?;
        Ok(ShGuard {
            pool: self,
            spec,
            frame,
            pages,
            _not_send: PhantomData,
        })
    }

    /// Take a shared latch on `spec` without constructing a guard, loading
    /// the extent on a miss; returns the frame index and the resident page
    /// count (at least `spec.pages`). Every call must be paired with one
    /// [`ExtentPool::release_shared`]. The raw form exists for the commit
    /// pipeline's in-flight flush batches, which hold their latches across
    /// call frames (a borrow-tied [`ShGuard`] cannot).
    fn fix_shared(&self, spec: ExtentSpec) -> Result<(u64, u64)> {
        // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        self.metrics.translations.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .latch_acquisitions
            .fetch_add(1, Ordering::Relaxed); // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        self.audit.check_may_block_shared(spec.start.raw());
        let entry = self.entry(spec.start);
        // Publish a framing loaded under a claim and stay on it, shared.
        let enter = |frame: u64| {
            self.reframe(spec.start, spec.pages, frame);
            entry.downgrade();
            (frame, spec.pages)
        };
        let mut wait = LatchWait::default();
        loop {
            let seen = entry.peek();
            match seen.latch() {
                Latch::Evicted if entry.try_claim(seen, Excl::Claim) => {
                    return self
                        .load_extent(spec, spec.pages, None)
                        .map(enter)
                        .inspect_err(|_| entry.evict(Excl::Claim));
                }
                Latch::Shared(_) if entry.try_share(seen, spec.pages) => {
                    self.note_hit(spec.start);
                    return Ok((seen.frame(), seen.pages()));
                }
                // Resident with fewer pages than the caller names (a trim
                // whose truncate then rolled back): grow under the
                // exclusive latch, then enter shared.
                Latch::Shared(0)
                    if seen.pages() < spec.pages && entry.try_lock(seen, Excl::Claim) =>
                {
                    return self
                        .grow_locked(spec.start, seen, spec.pages, spec.pages)
                        .map(enter)
                        .inspect_err(|_| entry.unlock(Excl::Claim));
                }
                // The holder may be an in-flight readahead batch; reap
                // completed ones so the wait is bounded.
                Latch::Locked => {
                    self.poll_prefetches();
                    wait.snooze();
                }
                // A lost race, a saturated shared count, or readers still
                // on a smaller framing that must drain before it can grow.
                _ => wait.snooze(),
            }
        }
    }

    /// Drop one shared latch taken by [`ExtentPool::fix_shared`].
    fn release_shared(&self, pid: Pid) {
        self.entry(pid).unshare();
    }

    /// Test-only fault injection: perform a shared release the caller never
    /// acquired. The latch ledger must flag it as a double unlock; exists so
    /// the auditor regression tests can prove detection works end to end.
    #[cfg(debug_assertions)]
    pub fn debug_force_release_shared(&self, pid: Pid) {
        self.release_shared(pid);
    }

    /// A latch was granted on a resident extent.
    fn note_hit(&self, pid: Pid) {
        // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        self.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
        if self.note_prefetch_consumed(pid) {
            // ordering: relaxed metrics counter; snapshot readers tolerate staleness
            self.metrics.readahead_hit.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Fix an extent exclusive, loading it from the device on a miss.
    pub fn write_extent(&self, spec: ExtentSpec) -> Result<XGuard<'_>> {
        self.fix_exclusive(spec, spec.pages, None)
    }

    /// Fix exclusive for growth into a partially filled extent (append):
    /// only the first `valid_pages` pages are loaded from the device —
    /// pages past the valid content hold nothing and are about to be
    /// overwritten, so a 2-page-full 1024-page extent costs 2 page reads,
    /// not 1024. A resident framing smaller than `spec.pages` is re-framed
    /// (resident pages copied, never re-read) to at least twice its size,
    /// capped at the extent's allocated `capacity`, so repeated small
    /// appends amortize the copy.
    pub fn write_extent_growing(
        &self,
        spec: ExtentSpec,
        capacity: u64,
        valid_pages: u64,
    ) -> Result<XGuard<'_>> {
        // An unlatched probe: a racing re-frame only makes the doubling
        // guess stale, never wrong.
        let resident = self.entry(spec.start).peek().pages();
        let pages = if resident < spec.pages {
            spec.pages.max((2 * resident).min(capacity))
        } else {
            spec.pages
        };
        self.fix_exclusive(
            ExtentSpec::new(spec.start, pages),
            valid_pages.min(pages),
            None,
        )
    }

    /// Fix a *fresh* extent exclusive without reading the device (the pages
    /// were just allocated; their content is about to be written).
    pub fn create_extent(&self, spec: ExtentSpec) -> Result<XGuard<'_>> {
        self.fix_exclusive(spec, 0, None)
    }

    /// `pages` frames back to back for the fresh extents of one placement,
    /// from a free run or a window the hand sweeps clear, if either holds
    /// them. [`ExtentPool::create_extent_in`] frames the extents from it in
    /// order, so a BLOB read later finds them adjacent and is read in place.
    pub(crate) fn take_run(&self, pages: u64) -> Option<FrameRun<'_>> {
        let start = self.run_of(pages)?;
        Some(FrameRun {
            pool: self,
            next: start,
            end: start + pages,
        })
    }

    /// [`ExtentPool::create_extent`] on the next `spec.pages` frames of
    /// `run`, or on frames of its own when the run has fewer left.
    pub(crate) fn create_extent_in(
        &self,
        spec: ExtentSpec,
        run: &mut FrameRun<'_>,
    ) -> Result<XGuard<'_>> {
        debug_assert!(std::ptr::eq(run.pool, self), "a run of another pool");
        let (at, fits) = (run.next, run.end - run.next >= spec.pages);
        if fits {
            run.next += spec.pages;
        }
        self.fix_exclusive(spec, 0, fits.then_some(at))
    }

    /// Latch `spec` exclusive and frame it with its first `load_pages`
    /// pages read from the device. `at` is a fresh extent's framing the
    /// caller took from a [`FrameRun`]; it is the extent's from the call on,
    /// whatever the call returns.
    fn fix_exclusive(
        &self,
        spec: ExtentSpec,
        load_pages: u64,
        at: Option<u64>,
    ) -> Result<XGuard<'_>> {
        debug_assert!(at.is_none() || load_pages == 0);
        // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        self.metrics.translations.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .latch_acquisitions
            .fetch_add(1, Ordering::Relaxed); // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        self.audit.check_may_block_exclusive(spec.start.raw());
        let entry = self.entry(spec.start);
        let guard = |frame: u64, pages: u64| XGuard {
            pool: self,
            spec,
            frame,
            pages,
            _not_send: PhantomData,
        };
        let mut wait = LatchWait::default();
        loop {
            let seen = entry.peek();
            let frame = match seen.latch() {
                Latch::Evicted if entry.try_claim(seen, Excl::Guard) => self
                    .load_extent(spec, load_pages, at)
                    .inspect_err(|_| entry.evict(Excl::Guard))?,
                Latch::Shared(0) if entry.try_lock(seen, Excl::Guard) => {
                    self.note_hit(spec.start);
                    // A fresh extent still framed from an earlier life: the
                    // old frames hold nothing it needs.
                    if let Some(frame) = at {
                        self.frames.free(seen.frame(), seen.pages());
                        frame
                    } else if seen.pages() >= spec.pages {
                        return Ok(guard(seen.frame(), seen.pages()));
                    } else {
                        // The content grew past the resident framing; a
                        // failure hands the untouched old one back unlatched.
                        self.grow_locked(spec.start, seen, spec.pages, load_pages)
                            .inspect_err(|_| entry.unlock(Excl::Guard))?
                    }
                }
                _ => {
                    self.poll_prefetches();
                    wait.snooze();
                    continue;
                }
            };
            // Stay locked on the new framing; the guard releases on drop.
            self.reframe(spec.start, spec.pages, frame);
            return Ok(guard(frame, spec.pages));
        }
    }

    /// Read a small byte range of an extent *without* forcing residency: a
    /// cached extent is read under its shared latch, an evicted one
    /// straight from the device. Content only leaves the pool after it has
    /// been flushed (no-steal), so the device copy of an evicted extent is
    /// always current. This is the paper's "growth reads only the final
    /// partial block": a 63-byte read of a cold 1024-page extent costs one
    /// page of I/O, not the extent.
    pub fn read_range_uncached(
        &self,
        spec: ExtentSpec,
        byte_off: usize,
        out: &mut [u8],
    ) -> Result<()> {
        if self.copy_if_resident(spec, byte_off, out)? {
            return Ok(());
        }
        self.read_device(out, self.geo.offset_of(spec.start) + byte_off as u64)?;
        self.note_uncached_read(byte_off, out.len());
        Ok(())
    }

    /// The residency half of an uncached read: copy the bytes out of the
    /// frames under the extent's shared latch if it is resident (or being
    /// loaded), and say whether it was. If it gets evicted between the check
    /// and the fix, `read_extent` reloads — correct, just no longer cheap.
    fn copy_if_resident(&self, spec: ExtentSpec, byte_off: usize, out: &mut [u8]) -> Result<bool> {
        debug_assert!(byte_off + out.len() <= (spec.pages as usize) * self.geo.page_size());
        if !self.entry(spec.start).peek().is_resident() {
            return Ok(false);
        }
        let g = self.read_extent(spec)?;
        out.copy_from_slice(&g[byte_off..byte_off + out.len()]);
        Ok(true)
    }

    /// Count `len` bytes at `byte_off` of an extent read past the pool.
    fn note_uncached_read(&self, byte_off: usize, len: usize) {
        let p = self.geo.page_size();
        let pages = ((byte_off + len).div_ceil(p) - byte_off / p) as u64;
        // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        self.metrics.pages_read.fetch_add(pages, Ordering::Relaxed);
        self.metrics
            .bytes_read
            .fetch_add(len as u64, Ordering::Relaxed); // ordering: relaxed metrics counter; snapshot readers tolerate staleness
    }

    /// [`ExtentPool::read_range_uncached`] for many pieces at once, the
    /// device reads overlapped: `pieces` land in `buf` back to back. A
    /// resident piece is copied out under its latch now; the others go out
    /// as one batch on the pool's I/O engine, returned in flight; once it
    /// completes, [`ExtentPool::land_pieces`] accounts for it. Nothing is
    /// framed, published or evicted.
    ///
    /// # Safety
    /// `buf` holds at least the pieces' total length, and stays allocated
    /// and untouched until the returned batch has completed.
    pub(crate) unsafe fn submit_pieces(
        &self,
        pieces: &[Piece],
        buf: &mut [u8],
    ) -> Result<Option<PieceFlight>> {
        let mut cold = Vec::new();
        let mut at = 0;
        for &piece in pieces {
            let out = &mut buf[at..at + piece.len];
            if !self.copy_if_resident(piece.spec, piece.offset, out)? {
                cold.push((piece, at));
            }
            at += piece.len;
        }
        if cold.is_empty() {
            return Ok(None);
        }
        // One base pointer for every request, taken after the last copy
        // above touched `buf`.
        let base = buf.as_mut_ptr();
        let reqs = cold
            .iter()
            .map(|&(piece, at)| IoReq {
                kind: IoKind::Read,
                offset: self.geo.offset_of(piece.spec.start) + piece.offset as u64,
                ptr: base.wrapping_add(at),
                len: piece.len,
            })
            .collect();
        // SAFETY: every request lies inside `buf` (the caller sized it), which
        // the caller keeps alive and untouched until the batch completes.
        let handle = unsafe { self.io.submit(reqs) };
        Ok(Some(PieceFlight { handle, cold }))
    }

    /// Account for a batch of [`ExtentPool::submit_pieces`] that has
    /// completed with `landed`. The I/O engine reports only a batch's first
    /// error, so a failed batch re-reads every one of its `cold` pieces into
    /// `buf` under the retry policy — the contract of
    /// [`ExtentPool::fault_many`] — and returns the first error that
    /// outlasts it.
    pub(crate) fn land_pieces(
        &self,
        cold: &[(Piece, usize)],
        landed: Result<()>,
        buf: &mut [u8],
    ) -> Result<()> {
        let mut first_err = None;
        for &(piece, at) in cold {
            if landed.is_err() {
                let out = &mut buf[at..at + piece.len];
                let offset = self.geo.offset_of(piece.spec.start) + piece.offset as u64;
                let (res, stats) = RetryPolicy::DEFAULT.run(|| self.read_device(out, offset));
                self.metrics.bump_io_retry(stats.retries, stats.gave_up);
                if let Err(err) = res {
                    first_err.get_or_insert(err);
                    continue;
                }
            }
            self.note_uncached_read(piece.offset, piece.len);
        }
        first_err.map_or(Ok(()), Err)
    }

    /// Frame a claimed extent — at `at` if the caller holds its frames
    /// already, else at frames allocated here — and read its first
    /// `load_pages` pages from the device. Returns the frame; the caller
    /// publishes it.
    fn load_extent(&self, spec: ExtentSpec, load_pages: u64, at: Option<u64>) -> Result<u64> {
        let frame = match at {
            Some(frame) => frame,
            None => self.allocate_frames(spec.pages)?,
        };
        if let Err(err) = self.read_into_frames(spec.start, frame, 0, load_pages) {
            // The caller rolls the page-table entry back; the frames
            // are ours to return.
            self.frames.free(frame, spec.pages);
            return Err(err);
        }
        Ok(frame)
    }

    /// Blocking device read of extent pages `[from, to)` into the frame
    /// range starting at `frame` (the extent's page 0), under the retry
    /// policy, counted as one cache miss. The caller owns the frames
    /// exclusively. A no-op when the range is empty.
    fn read_into_frames(&self, pid: Pid, frame: u64, from: u64, to: u64) -> Result<()> {
        if to <= from {
            return Ok(());
        }
        // A miss is a device read; framing a fresh extent
        // (`create_extent`) is not one.
        // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        self.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
        let t = self.metrics.latencies.timer();
        self.read_with_retries(pid, frame, from, to - from)?;
        self.metrics.latencies.pool_fault.record_timer(t);
        self.note_pages_read(to - from);
        Ok(())
    }

    /// One device read under the retry policy into frames the caller owns
    /// exclusively (claimed or locked, not yet published).
    fn read_with_retries(&self, pid: Pid, frame: u64, from: u64, pages: u64) -> Result<()> {
        // SAFETY: the caller's claim makes the range ours until it publishes.
        let buf = unsafe { self.frames(frame, from, pages) };
        let (res, stats) = RetryPolicy::DEFAULT
            .run(|| self.read_device(buf, self.geo.offset_of(pid.offset(from))));
        self.metrics.bump_io_retry(stats.retries, stats.gave_up);
        res
    }

    /// One blocking device read. Queued like a batch's request, then waited
    /// for here ([`wait_until`]), so the calling thread sleeps through a
    /// modeled device's latency instead of spinning inside the device.
    fn read_device(&self, buf: &mut [u8], offset: u64) -> Result<()> {
        self.device.submit_read(buf, offset).map(wait_until)
    }

    /// The bytes of pages `[from, from + pages)` of an extent whose page 0
    /// sits in `frame`.
    ///
    /// # Safety
    /// The caller holds the latch — exclusive, or a claim, to write — that
    /// makes the range its own for as long as it uses the slice.
    #[allow(clippy::mut_from_ref)]
    unsafe fn frames(&self, frame: u64, from: u64, pages: u64) -> &mut [u8] {
        let p = self.geo.page_size();
        // SAFETY: forwarded to the caller; a framing lies inside the arena.
        unsafe {
            self.arena
                .frame_slice_mut(((frame + from) as usize) * p, (pages as usize) * p)
        }
    }

    /// Re-frame a resident extent to `pages` (more than it holds), with its
    /// entry — `seen` before that — already locked by the caller: reserve the
    /// larger frame range, copy the resident pages across, and read pages
    /// `[resident, load_to)` from the device (the no-steal pool never holds
    /// newer bytes than the device for pages it has not framed). Returns the
    /// new frame; the caller publishes it. On error the old framing is
    /// untouched.
    fn grow_locked(&self, pid: Pid, seen: Seen, pages: u64, load_to: u64) -> Result<u64> {
        let (old_frame, old_pages) = (seen.frame(), seen.pages());
        debug_assert!(old_pages < pages);
        let frame = self.allocate_frames(pages)?;
        if let Err(err) = self.read_into_frames(pid, frame, old_pages, load_to.min(pages)) {
            self.frames.free(frame, pages);
            return Err(err);
        }
        // SAFETY: both ranges are allocated, hence disjoint, and exclusively
        // ours: the old one through the locked entry, the new one until the
        // caller publishes it.
        let (src, dst) = unsafe {
            (
                self.frames(old_frame, 0, old_pages),
                self.frames(frame, 0, old_pages),
            )
        };
        dst.copy_from_slice(src);
        self.metrics.bump_memcpy(src.len() as u64);
        self.frames.free(old_frame, old_pages);
        Ok(frame)
    }

    /// Give back the frames a resident extent holds beyond `spec.pages`
    /// (its content shrank). Best effort: only an unlatched, clean, unpinned
    /// extent is trimmed — a dirty one still has a flush owed that may name
    /// the pages being cut — and anything else is left for eviction.
    pub fn trim_extent(&self, spec: ExtentSpec) {
        let entry = self.entry(spec.start);
        let seen = entry.peek();
        let (frame, pages) = (seen.frame(), seen.pages());
        if spec.pages == 0
            || pages <= spec.pages
            || !seen.evictable()
            || !entry.try_lock(seen, Excl::Claim)
        {
            return;
        }
        self.frames.free(frame + spec.pages, pages - spec.pages);
        entry.reframe(spec.pages, frame);
        entry.unlock(Excl::Claim);
    }

    fn allocate_frames(&self, pages: u64) -> Result<u64> {
        if pages > self.frame_count {
            return Err(Error::InvalidArgument(format!(
                "extent of {pages} pages exceeds pool of {} frames",
                self.frame_count
            )));
        }
        self.run_of(pages).ok_or(Error::BufferFull)
    }

    /// `pages` frames back to back: from the smallest free run that holds
    /// them, else from a window the hand sweeps clear; `None` when the hand
    /// found none in one revolution.
    fn run_of(&self, pages: u64) -> Option<u64> {
        self.frames.allocate(pages).or_else(|| {
            let entry = |pid| self.entry(pid);
            let evicted = |pid| self.note_prefetch_evicted(pid);
            self.sweep.window(pages, &self.frames, entry, evicted)
        })
    }

    /// With the entry — `seen` before that — locked by a claim, give its
    /// frames back and publish the word evicted. (The hand's windows keep
    /// the frames of the extents they evict; `sweep.rs`.)
    fn evict_locked(&self, pid: Pid, seen: Seen) {
        self.frames.free(seen.frame(), seen.pages());
        self.entry(pid).evict(Excl::Claim);
        self.note_prefetch_evicted(pid);
    }

    // ------------------------------------- batched faults / readahead ---

    /// Batched cold-read faulting — the read-side analogue of
    /// [`ExtentPool::flush_extents`]: claim every still-evicted extent in
    /// `specs`, reserve frames for all of them, and submit their content
    /// reads as **one** asynchronous batch. The latencies overlap on the
    /// device, so a cold `num_extents`-extent BLOB costs
    /// `max(latency, bytes/bandwidth)` instead of `num_extents × latency`.
    /// A batch that claimed every extent of `specs` — a whole BLOB, cold —
    /// frames them back to back from one run where one can be had, so the
    /// read finds them in place.
    ///
    /// Safe under concurrent eviction and faulting: claims go through the
    /// same `EVICTED → LOCKED` CAS as `read_extent`, in extent-list order,
    /// so losing a race just means another thread is already loading that
    /// extent. On any failure every claim is rolled back to `EVICTED`.
    /// Returns how many of `specs` this call read (0: none was evicted).
    pub fn fault_many(&self, specs: &[ExtentSpec]) -> Result<usize> {
        let mut claimed = self.claim_evicted(specs);
        if claimed.is_empty() {
            return Ok(0);
        }
        self.metrics
            .cache_misses
            .fetch_add(claimed.len() as u64, Ordering::Relaxed); // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        let whole = claimed.len() == specs.len();
        self.frame_claims(&mut claimed, whole)?;
        let t = self.metrics.latencies.timer();
        // SAFETY: the frames stay claimed until the wait returns.
        if unsafe { self.io.submit_and_wait(self.read_reqs(&claimed)) }.is_err() {
            // The I/O engine reports only the *first* error per batch, with
            // no per-request attribution. Keep every claim and frame and
            // fall back to serial re-reads (reads are idempotent into
            // frames we own exclusively): each extent runs under the retry
            // policy, successes publish as usual, and only the extents
            // that exhaust their budget roll back.
            return self
                .fault_many_serial_fallback(&claimed)
                .map(|()| claimed.len());
        }
        // One record per batch: the whole overlapped round trip is the
        // fault latency a foreground read observes.
        self.metrics.latencies.pool_fault.record_timer(t);
        let total_pages: u64 = claimed.iter().map(|(s, _)| s.pages).sum();
        // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        self.metrics.fault_batches.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .pages_faulted_batched
            .fetch_add(total_pages, Ordering::Relaxed); // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        self.note_pages_read(total_pages);
        self.publish_loaded(&claimed);
        Ok(claimed.len())
    }

    /// Claim every extent of `specs` that is evicted right now, in list
    /// order, with no frame yet. An extent that is resident, or that another
    /// thread is faulting, is skipped.
    fn claim_evicted(&self, specs: &[ExtentSpec]) -> Vec<(ExtentSpec, u64)> {
        specs
            .iter()
            .filter(|spec| {
                let entry = self.entry(spec.start);
                entry.try_claim(entry.peek(), Excl::Claim)
            })
            .map(|&spec| (spec, 0))
            .collect()
    }

    /// Frame every claim of a fault batch: back to back in list order from
    /// one run when the batch claimed all of a BLOB (`whole`) and a run
    /// can be had, else one at a time. On failure every claim is rolled
    /// back.
    fn frame_claims(&self, claimed: &mut [(ExtentSpec, u64)], whole: bool) -> Result<()> {
        let total = claimed.iter().map(|(spec, _)| spec.pages).sum();
        let run = if whole && claimed.len() > 1 {
            self.run_of(total)
        } else {
            None
        };
        if let Some(mut at) = run {
            for (spec, frame) in claimed.iter_mut() {
                *frame = at;
                at += spec.pages;
            }
            return Ok(());
        }
        for i in 0..claimed.len() {
            match self.allocate_frames(claimed[i].0.pages) {
                Ok(f) => claimed[i].1 = f,
                Err(err) => {
                    self.abandon_claims(claimed, i);
                    return Err(err);
                }
            }
        }
        Ok(())
    }

    /// Roll claims back to evicted; the first `framed` of them hold frames.
    fn abandon_claims(&self, claimed: &[(ExtentSpec, u64)], framed: usize) {
        for (i, (spec, frame)) in claimed.iter().enumerate() {
            if i < framed {
                self.frames.free(*frame, spec.pages);
            }
            self.entry(spec.start).evict(Excl::Claim);
        }
    }

    /// A device request over pages `[from, from + pages)` of the extent at
    /// `pid`, whose page 0 sits in `frame`.
    ///
    /// # Safety
    /// The caller holds the extent latched or claimed and keeps it so until
    /// the request has completed: the request points into the arena.
    unsafe fn frame_req(&self, kind: IoKind, pid: Pid, frame: u64, from: u64, pages: u64) -> IoReq {
        let p = self.geo.page_size();
        let len = (pages as usize) * p;
        IoReq {
            kind,
            offset: self.geo.offset_of(pid.offset(from)),
            // SAFETY: the range lies in the extent's framing, which the
            // caller's latch makes ours.
            ptr: unsafe { self.arena.frame_ptr(((frame + from) as usize) * p, len) },
            len,
        }
    }

    /// One read of its whole framing per claimed extent.
    ///
    /// # Safety
    /// As [`ExtentPool::frame_req`]: the claims stand until the reads are done.
    unsafe fn read_reqs(&self, claimed: &[(ExtentSpec, u64)]) -> Vec<IoReq> {
        claimed
            .iter()
            // SAFETY: forwarded to the caller.
            .map(|(spec, frame)| unsafe {
                self.frame_req(IoKind::Read, spec.start, *frame, 0, spec.pages)
            })
            .collect()
    }

    fn note_pages_read(&self, pages: u64) {
        // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        self.metrics.pages_read.fetch_add(pages, Ordering::Relaxed);
        self.metrics
            .bytes_read
            .fetch_add(pages * self.geo.page_size() as u64, Ordering::Relaxed); // ordering: relaxed metrics counter; snapshot readers tolerate staleness
    }

    /// Recovery path for a failed [`ExtentPool::fault_many`] batch: re-read
    /// every claimed extent serially under the retry policy. Claims and
    /// frames are preserved across the fallback (the claim/rollback
    /// invariants of `fault_many` hold unchanged); extents that still fail
    /// after retries are rolled back to evicted and the first such error
    /// is returned.
    fn fault_many_serial_fallback(&self, claimed: &[(ExtentSpec, u64)]) -> Result<()> {
        let mut first_err = None;
        for claim in claimed.chunks(1) {
            let (spec, frame) = claim[0];
            match self.read_with_retries(spec.start, frame, 0, spec.pages) {
                Ok(()) => {
                    self.note_pages_read(spec.pages);
                    self.publish_loaded(claim);
                }
                Err(err) => {
                    self.abandon_claims(claim, 1);
                    first_err.get_or_insert(err);
                }
            }
        }
        // With every extent recovered on the serial pass, the batch error
        // was a transient the policy absorbed.
        first_err.map_or(Ok(()), Err)
    }

    /// Publish batch-loaded extents as resident and unlatched (shared
    /// count 0): the callers' subsequent `read_extent` calls then hit.
    fn publish_loaded(&self, claimed: &[(ExtentSpec, u64)]) {
        for (spec, frame) in claimed {
            self.reframe(spec.start, spec.pages, *frame);
            self.entry(spec.start).unlock(Excl::Claim);
        }
    }

    /// Sequential readahead: fault `specs` asynchronously, without blocking
    /// and **without evicting** anything to make room — readahead must
    /// never displace live data for a guess. Prefetched extents are
    /// published clean, unlatched, and evictable once the batch completes
    /// (reaped by [`ExtentPool::poll_prefetches`]), so they never pin the
    /// pool. Extents already resident, already in flight, or not coverable
    /// by free frames are skipped.
    pub fn prefetch(&self, specs: &[ExtentSpec]) {
        self.poll_prefetches();
        let mut claimed = self.claim_evicted(specs);
        claimed.retain_mut(|(spec, frame)| match self.frames.allocate(spec.pages) {
            Some(f) => {
                *frame = f;
                true
            }
            None => {
                self.entry(spec.start).evict(Excl::Claim);
                false
            }
        });
        if claimed.is_empty() {
            return;
        }
        self.metrics
            .readahead_issued
            .fetch_add(claimed.len() as u64, Ordering::Relaxed); // ordering: relaxed metrics counter; snapshot readers tolerate staleness

        // SAFETY: the frames stay claimed until the batch is reaped; `Drop`
        // drains every batch before the arena goes away.
        let handle = unsafe { self.io.submit(self.read_reqs(&claimed)) };
        self.inflight.lock().push(PrefetchBatch { handle, claimed });
    }

    /// Reap completed readahead batches without blocking. Called
    /// opportunistically from the fault paths; a no-op when nothing is in
    /// flight.
    pub fn poll_prefetches(&self) {
        let Some(mut inflight) = self.inflight.try_lock() else {
            return;
        };
        let mut i = 0;
        while i < inflight.len() {
            match inflight[i].handle.try_complete() {
                Some(result) => {
                    let batch = inflight.swap_remove(i);
                    self.finish_prefetch(batch.claimed, result);
                }
                None => i += 1,
            }
        }
    }

    /// Block until every readahead batch is published (shutdown,
    /// `drop_caches`, and the pool's own `Drop` — in-flight requests point
    /// into the arena, which must outlive them).
    fn drain_prefetches(&self) {
        loop {
            let Some(batch) = self.inflight.lock().pop() else {
                return;
            };
            let result = batch.handle.wait();
            self.finish_prefetch(batch.claimed, result);
        }
    }

    fn finish_prefetch(&self, claimed: Vec<(ExtentSpec, u64)>, result: Result<()>) {
        match result {
            Ok(()) => {
                self.note_pages_read(claimed.iter().map(|(s, _)| s.pages).sum());
                {
                    let mut set = self.prefetched.lock();
                    for (spec, _) in &claimed {
                        set.insert(spec.start.raw());
                    }
                    self.prefetched_live
                        .store(set.len() as u64, Ordering::Release); // ordering: Release; pairs with the Acquire fast-path gate in note_prefetch_*
                }
                self.publish_loaded(&claimed);
            }
            // Readahead is advisory: on I/O failure the extents simply stay
            // evicted, and the foreground read that needs them reports the
            // error itself.
            Err(_) => self.abandon_claims(&claimed, claimed.len()),
        }
    }

    /// Whether a foreground read just consumed a prefetched extent.
    fn note_prefetch_consumed(&self, pid: Pid) -> bool {
        // ordering: Acquire gate; zero means no prefetched extents, the set mutex orders the contents
        if self.prefetched_live.load(Ordering::Acquire) == 0 {
            return false;
        }
        let mut set = self.prefetched.lock();
        let hit = set.remove(&pid.raw());
        self.prefetched_live
            .store(set.len() as u64, Ordering::Release); // ordering: Release; pairs with the Acquire fast-path gate in note_prefetch_*
        hit
    }

    /// An extent left residency; if it was prefetched and never read, the
    /// readahead was wasted.
    fn note_prefetch_evicted(&self, pid: Pid) {
        // ordering: Acquire gate; zero means no prefetched extents, the set mutex orders the contents
        if self.prefetched_live.load(Ordering::Acquire) == 0 {
            return;
        }
        let mut set = self.prefetched.lock();
        if set.remove(&pid.raw()) {
            self.metrics
                .readahead_wasted
                .fetch_add(1, Ordering::Relaxed); // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        }
        self.prefetched_live
            .store(set.len() as u64, Ordering::Release); // ordering: Release; pairs with the Acquire fast-path gate in note_prefetch_*
    }

    fn write_frames_to_device(
        &self,
        pid: Pid,
        frame: u64,
        from_page: u64,
        pages: u64,
    ) -> Result<()> {
        // SAFETY: caller holds the extent latched.
        let buf = unsafe { self.frames(frame, from_page, pages) };
        self.device
            .write_at(buf, self.geo.offset_of(pid.offset(from_page)))?;
        self.note_pages_written(pages);
        Ok(())
    }

    fn note_pages_written(&self, pages: u64) {
        self.metrics
            .pages_written
            .fetch_add(pages, Ordering::Relaxed); // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        self.metrics
            .bytes_written
            .fetch_add(pages * self.geo.page_size() as u64, Ordering::Relaxed); // ordering: relaxed metrics counter; snapshot readers tolerate staleness
    }

    // ---------------------------------------------------------- flags ---

    /// Set or clear the `prevent_evict` flag (§III-C "BLOB eviction"): set
    /// after allocation, cleared once the commit-time flush completes.
    pub fn set_prevent_evict(&self, pid: Pid, on: bool) {
        self.entry(pid).set_prevent_evict(on);
    }

    /// Clear the `prevent_evict` pin of an extent whose staged flush will
    /// not happen (the WAL holds the content; eviction or a checkpoint
    /// writes it back).
    pub fn unpin_extent(&self, pid: Pid) {
        self.flushes.forget(pid);
        self.set_prevent_evict(pid, false);
    }

    /// Whether a write of the extent still owes it a flush.
    pub fn owes_flush(&self, pid: Pid) -> bool {
        self.flushes.owed(pid)
    }

    /// Whether the extent is resident and dirty (test/diagnostic hook).
    pub fn is_dirty(&self, pid: Pid) -> bool {
        self.entry(pid).peek().dirty()
    }

    /// Whether the extent is resident.
    pub fn is_resident(&self, pid: Pid) -> bool {
        self.entry(pid).peek().is_resident()
    }

    // ---------------------------------------------------------- flush ---

    /// Commit-time flush: write the dirty pages of each extent with one
    /// batched asynchronous submission, then mark the extents clean and
    /// evictable. This is the *only* time BLOB content is written (§III-C).
    pub fn flush_extents(&self, items: &[FlushItem]) -> Result<()> {
        let batch = self.flush_extents_begin(items)?;
        let result = batch.wait();
        self.flush_extents_finish(&batch, &result);
        result
    }

    /// First half of the commit-time flush, without blocking: latch every
    /// extent shared and submit one batched asynchronous write of the
    /// dirty ranges. The latches are owned by the returned batch and live
    /// until [`ExtentPool::flush_extents_finish`] — they keep the frames
    /// resident and exclude writers while the device requests reference
    /// arena memory.
    pub fn flush_extents_begin(&self, items: &[FlushItem]) -> Result<FlushBatch> {
        let mut reqs = Vec::with_capacity(items.len());
        for (latched, item) in items.iter().enumerate() {
            // The dirty range must lie inside the resident framing: the
            // request below points straight into the arena.
            let fixed = self.fix_shared(item.spec).and_then(|(frame, pages)| {
                if item.dirty_from + item.dirty_pages <= pages {
                    return Ok(frame);
                }
                self.release_shared(item.spec.start);
                Err(Error::InvalidArgument(format!(
                    "flush of pages {}+{} exceeds the {pages} resident pages of {:?}",
                    item.dirty_from, item.dirty_pages, item.spec.start
                )))
            });
            let frame = match fixed {
                Ok(f) => f,
                Err(e) => {
                    for prior in &items[..latched] {
                        self.release_shared(prior.spec.start);
                    }
                    return Err(e);
                }
            };
            // The latch is the batch's from here on, not this thread's: a
            // transaction submits on its own thread what the commit thread
            // reaps.
            self.audit.hand_off_shared(item.spec.start.raw());
            // SAFETY: the shared latch (held until finish) keeps the frames
            // alive and unchanged until the batch completes.
            reqs.push(unsafe {
                self.frame_req(
                    IoKind::Write,
                    item.spec.start,
                    frame,
                    item.dirty_from,
                    item.dirty_pages,
                )
            });
        }
        for item in items {
            self.flushes.begin(item.spec.start, item.spec.pages);
        }
        // SAFETY: the latches held by the returned batch outlive the
        // requests.
        let handle = unsafe { self.io.submit(reqs) };
        Ok(FlushBatch {
            handle,
            items: items.to_vec(),
            _scratch: Vec::new(),
        })
    }

    /// Second half of the commit-time flush: called exactly once per batch
    /// with the reaped completion result. On success an extent becomes
    /// clean and evictable — unless a later flush of it is still owed (a
    /// second transaction wrote it after this batch was staged), in which
    /// case the flags stay for that flush to clear. Either way the
    /// submission latches are released.
    pub fn flush_extents_finish(&self, batch: &FlushBatch, result: &Result<()>) {
        let landed = result.is_ok();
        if landed {
            self.note_pages_written(batch.items.iter().map(|i| i.dirty_pages).sum());
        }
        for item in &batch.items {
            let entry = self.entry(item.spec.start);
            entry.finish_flush(&self.flushes, landed);
            entry.unshare();
        }
    }

    /// Visit every dirty resident extent's content (page-image journaling
    /// before a checkpoint's in-place writes). One scratch buffer is
    /// reused across extents — the visitor sees each extent's bytes in
    /// turn and copies only what it keeps, instead of this pool
    /// allocating a fresh `Vec<u8>` snapshot per dirty extent.
    pub fn collect_dirty(&self, mut f: impl FnMut(ExtentSpec, &[u8]) -> Result<()>) -> Result<()> {
        let mut scratch: Vec<u8> = Vec::new();
        for spec in self.dirty_without_a_flight() {
            let g = self.read_extent(spec)?;
            let spec = ExtentSpec::new(spec.start, g.pages);
            scratch.clear();
            scratch.extend_from_slice(&g);
            drop(g); // don't hold the latch across the visitor
            f(spec, &scratch)?;
        }
        Ok(())
    }

    /// Every dirty resident extent, as framed at an unlatched probe — except
    /// one with a flush on the device right now. The committer is quiesced
    /// when a checkpoint runs, so such a flight is an uncommitted
    /// transaction's eager write of a fresh extent: nothing the
    /// checkpointed tree references, and its own ticket lands it and clears
    /// its flags. Writing it here would put every page on the device twice.
    fn dirty_without_a_flight(&self) -> impl Iterator<Item = ExtentSpec> + '_ {
        let heads = self.sweep.heads(&self.frames, |pid| self.entry(pid));
        heads
            .into_iter()
            .filter(move |&(pid, seen)| seen.dirty() && !self.flushes.in_flight(pid))
            .map(|(pid, seen)| ExtentSpec::new(pid, seen.pages()))
    }

    /// Flush every dirty resident extent (checkpoint / shutdown) that has no
    /// flush of its own in flight.
    pub fn flush_all_dirty(&self) -> Result<()> {
        for spec in self.dirty_without_a_flight() {
            // Write what is resident once latched: an append may have
            // re-framed the extent since the unlatched probe.
            let g = self.read_extent(spec)?;
            self.write_frames_to_device(spec.start, g.frame, 0, g.pages)?;
            // Whatever flush was owed has nothing left to write.
            self.flushes.forget(spec.start);
            let entry = self.entry(spec.start);
            entry.set_dirty(false);
            entry.set_prevent_evict(false);
        }
        Ok(())
    }

    /// Evict every clean, unpinned extent (cold-cache experiments).
    pub fn drop_caches(&self) {
        // Publish in-flight readahead first so those frames are dropped too.
        self.drain_prefetches();
        for (pid, seen) in self.sweep.heads(&self.frames, |pid| self.entry(pid)) {
            let entry = self.entry(pid);
            if seen.evictable() && entry.try_lock(seen, Excl::Claim) {
                self.evict_locked(pid, seen);
            }
        }
    }

    /// Discard a resident extent without writing it (BLOB deletion or
    /// transaction rollback of a fresh allocation, which may drop an extent
    /// that is still dirty and pinned).
    pub fn drop_extent(&self, spec: ExtentSpec) {
        let entry = self.entry(spec.start);
        let mut wait = LatchWait::default();
        loop {
            let seen = entry.peek();
            match seen.latch() {
                Latch::Evicted => return,
                Latch::Shared(0) if entry.try_lock(seen, Excl::Claim) => {
                    self.flushes.forget(spec.start);
                    self.evict_locked(spec.start, seen);
                    return;
                }
                _ => {
                    self.poll_prefetches();
                    wait.snooze();
                }
            }
        }
    }

    // ------------------------------------------------------ blob read ---

    /// Read a BLOB and present it to `f` as one contiguous slice of exactly
    /// `len` bytes, every extent latched shared for the duration of `f`.
    ///
    /// Three shapes, tried in this order:
    /// 1. **In place**: every extent's frames begin where the previous
    ///    one's content ends — a single extent always, and a placement
    ///    framed as one run ([`crate::BlobPool::place`]). The BLOB is one
    ///    slice of the arena, passed straight out under the latches: no
    ///    map, no copy.
    /// 2. **Aliased**: scattered frames of a BLOB of at least
    ///    [`ALIAS_MIN_BYTES`] are mapped contiguously into the caller's
    ///    aliasing area (worker-local or shared, §IV-B).
    /// 3. **Copied**: a smaller scattered BLOB — or any one when the pool
    ///    has no aliasing or no shared run is free — is copied out of its
    ///    frames into a buffer, which below the threshold is cheaper than
    ///    mapping and unmapping it.
    pub fn read_blob<R>(
        &self,
        worker: usize,
        extents: &[ExtentSpec],
        len: u64,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R> {
        let guards = self.latch_blob(extents)?;
        let len = len as usize;
        // Empty BLOBs need no frames at all.
        if guards.is_empty() || len == 0 {
            return Ok(f(&[]));
        }
        if let Some(view) = self.in_place_extents(&guards) {
            return Ok(f(&view[..len]));
        }
        if len as u64 >= ALIAS_MIN_BYTES {
            if let Some(view) = self.alias_extents(worker, &guards)? {
                return Ok(f(&view.as_slice()[..len]));
            }
        }
        Ok(self.copy_extents(&guards, len, f))
    }

    /// Latch every extent of one BLOB read shared, after faulting every
    /// evicted one with a single batched submission (the serial latching
    /// loop then hits). The first half of [`ExtentPool::read_blob`].
    pub fn latch_blob(&self, extents: &[ExtentSpec]) -> Result<Vec<ShGuard<'_>>> {
        if extents.len() > 1 {
            self.fault_many(extents)?;
        }
        extents.iter().map(|e| self.read_extent(*e)).collect()
    }

    /// [`ExtentPool::read_blob`]'s first shape: the pages the guards' specs
    /// name, as one slice of the arena, when each guard's frames begin
    /// where the previous spec's pages end; `None` otherwise. The slice
    /// borrows the guards, whose shared latches cover every frame in it.
    pub fn in_place_extents<'a>(&'a self, guards: &'a [ShGuard<'a>]) -> Option<&'a [u8]> {
        let first = guards.first()?;
        let adjacent = guards
            .windows(2)
            .all(|w| w[0].frame + w[0].spec.pages == w[1].frame);
        if !adjacent {
            return None;
        }
        let pages = guards.iter().map(|g| g.spec.pages).sum();
        // SAFETY: the frames are the guards' own, back to back, and their
        // shared latches exclude writers for as long as the slice lives.
        Some(unsafe { self.frames(first.frame, 0, pages) })
    }

    /// [`ExtentPool::read_blob`]'s mapping: the pages each guard's spec
    /// names (a guard may span more, a resident framing wider than the
    /// content), mapped back to back into `worker`'s aliasing area. `None`
    /// when the pool has no aliasing, or the view needs a shared run and
    /// none is free right now. The view borrows the guards, so their
    /// latches outlive it.
    pub fn alias_extents<'a>(
        &'a self,
        worker: usize,
        guards: &'a [ShGuard<'a>],
    ) -> Result<Option<AliasGuard<'a>>> {
        let Some(am) = self
            .aliasing
            .as_ref()
            .filter(|_| self.arena.supports_alias())
        else {
            return Ok(None);
        };
        let p = self.geo.page_size();
        let parts: Vec<(usize, usize)> = guards
            .iter()
            .map(|g| ((g.frame as usize) * p, (g.spec.pages as usize) * p))
            .collect();
        // SAFETY: the returned view borrows `guards`, whose shared latches
        // are therefore held for as long as it maps their frames.
        match unsafe { am.alias(&self.arena, worker, &parts, &self.metrics) } {
            Ok(view) => Ok(Some(view)),
            Err(Error::BufferFull) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// [`ExtentPool::read_blob`]'s copy: the first `len` bytes of the pages
    /// each guard's spec names, gathered into a buffer of the read's own and
    /// passed to `f`. (A per-thread buffer reused across reads measured no
    /// faster; EXPERIMENTS.md, "Alias or copy".)
    pub fn copy_extents<R>(
        &self,
        guards: &[ShGuard<'_>],
        len: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> R {
        let p = self.geo.page_size();
        let mut buf = Vec::with_capacity(len);
        for g in guards {
            let take = (len - buf.len()).min((g.spec.pages as usize) * p);
            buf.extend_from_slice(&g[..take]);
            if buf.len() == len {
                break;
            }
        }
        self.metrics.bump_memcpy(len as u64);
        f(&buf)
    }

    // ------------------------------------------------- streaming lease ---

    /// Take a *streaming lease* on one extent: force it resident (faulting
    /// it in if needed) and set its `prevent_evict` pin so the eviction
    /// scan skips it while a server streams chunks out of it. Pair with
    /// [`ExtentPool::unlease_extent`].
    ///
    /// The lease is an **advisory residency hint**, not a correctness
    /// primitive: the pin bit is shared with the commit pipeline's flush
    /// pins, so a concurrent flush completion may clear it early. That is
    /// benign — every chunk read ([`ExtentPool::read_chunk`]) takes its own
    /// shared latch and re-faults the extent if it lost residency; losing
    /// the lease costs a re-read, never a torn read. Conversely, a lease
    /// left set on a dirty extent is cleared by the committer's
    /// flush-finish path like any other pin.
    pub fn lease_extent(&self, spec: ExtentSpec) -> Result<()> {
        // Force residency under a shared latch, then pin while still
        // latched so eviction cannot slip between the load and the pin.
        self.fix_shared(spec)?;
        self.set_prevent_evict(spec.start, true);
        self.release_shared(spec.start);
        Ok(())
    }

    /// Lease an extent only if it is already resident. The defragmenter's
    /// relocation copy pins hot source extents for frame-coherent reads
    /// but must not fault cold ones into the pool — its reads are
    /// non-evicting by contract ([`ExtentPool::read_range_uncached`]
    /// serves evicted extents straight from the device, which is current
    /// because the pool is no-steal). Returns whether a lease was taken;
    /// a `true` return must be paired with `unlease_extent`. The
    /// residency probe races benignly with eviction: losing the race
    /// faults the extent back in, which is correct, merely not free.
    pub fn try_lease_resident(&self, spec: ExtentSpec) -> Result<bool> {
        // A stale peek is benign: it only declines the lease.
        if !self.entry(spec.start).peek().is_resident() {
            return Ok(false);
        }
        self.lease_extent(spec)?;
        Ok(true)
    }

    /// Release a streaming lease taken by [`ExtentPool::lease_extent`],
    /// making the extent evictable again (unless dirty or latched).
    pub fn unlease_extent(&self, spec: ExtentSpec) {
        self.set_prevent_evict(spec.start, false);
    }

    /// Read `len` bytes starting at `byte_off` inside one extent under a
    /// brief shared latch, passing the borrowed slice to `f`. This is the
    /// per-chunk read used by the serving path: the latch is held only for
    /// the duration of `f` (one chunk's socket write), so a slow client
    /// never holds a latch across requests — only the advisory lease.
    pub fn read_chunk<R>(
        &self,
        spec: ExtentSpec,
        byte_off: usize,
        len: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R> {
        debug_assert!(byte_off + len <= spec.pages as usize * self.geo.page_size());
        let g = self.read_extent(spec)?;
        Ok(f(&g[byte_off..byte_off + len]))
    }
}

impl Drop for ExtentPool {
    fn drop(&mut self) {
        // In-flight readahead requests point into the arena, whose field
        // drops before `io`; every batch must land first.
        self.drain_prefetches();
    }
}

// --------------------------------------------------------------- guards ---

/// Shared (read) latch on one extent. Derefs to the extent's resident bytes.
///
/// `!Send`: releases must happen on the acquiring thread so the debug
/// auditor's per-thread held-key tracking stays balanced (the raw
/// `fix_shared`/`release_shared` pair used by flush batches is the escape
/// hatch for cross-thread lifetimes).
pub struct ShGuard<'p> {
    pool: &'p ExtentPool,
    spec: ExtentSpec,
    frame: u64,
    /// Resident pages behind `frame` (at least `spec.pages`).
    pages: u64,
    _not_send: PhantomData<*mut ()>,
}

impl ShGuard<'_> {
    pub fn spec(&self) -> ExtentSpec {
        self.spec
    }
}

impl Deref for ShGuard<'_> {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        // SAFETY: shared latch held; writers are excluded.
        unsafe { self.pool.frames(self.frame, 0, self.pages) }
    }
}

impl Drop for ShGuard<'_> {
    fn drop(&mut self) {
        self.pool.release_shared(self.spec.start);
    }
}

/// Exclusive (write) latch on one extent. Derefs mutably to its resident
/// bytes.
///
/// `!Send` for the same thread-affinity reason as [`ShGuard`].
pub struct XGuard<'p> {
    pool: &'p ExtentPool,
    spec: ExtentSpec,
    frame: u64,
    /// Resident pages behind `frame` (at least `spec.pages`).
    pages: u64,
    _not_send: PhantomData<*mut ()>,
}

impl XGuard<'_> {
    pub fn spec(&self) -> ExtentSpec {
        self.spec
    }

    /// Mark the extent dirty (it will be written back on eviction or
    /// checkpoint unless the commit-time flush cleans it first).
    pub fn mark_dirty(&self) {
        self.pool.entry(self.spec.start).set_dirty(true);
    }

    /// Pin the extent against eviction until the commit-time flush clears
    /// the flag.
    pub fn set_prevent_evict(&self) {
        self.pool.set_prevent_evict(self.spec.start, true);
    }

    /// The bytes just written owe the extent one commit-time flush: dirty
    /// and pinned until that flush — and every other one owed — has landed.
    pub fn stage_flush(&self) {
        self.pool
            .entry(self.spec.start)
            .stage_flush(&self.pool.flushes);
    }
}

impl Deref for XGuard<'_> {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        // SAFETY: exclusive latch held.
        unsafe { self.pool.frames(self.frame, 0, self.pages) }
    }
}

impl DerefMut for XGuard<'_> {
    fn deref_mut(&mut self) -> &mut [u8] {
        // SAFETY: exclusive latch held.
        unsafe { self.pool.frames(self.frame, 0, self.pages) }
    }
}

impl Drop for XGuard<'_> {
    fn drop(&mut self) {
        self.pool.entry(self.spec.start).unlock(Excl::Guard);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobster_storage::MemDevice;
    use proptest::prelude::*;

    const FRAMES: u64 = 32;
    /// Pages an extent may hold: its allocated capacity.
    const CAPACITY: u64 = 8;

    fn pool() -> Arc<ExtentPool> {
        ExtentPool::new(
            Arc::new(MemDevice::new(1 << 20)),
            Geometry::new(4096),
            PoolConfig {
                frames: FRAMES,
                alias: None,
                io_threads: 1,
            },
            lobster_metrics::new_metrics(),
        )
    }

    /// Extent `i` of the test, `pages` of it.
    fn spec(i: u64, pages: u64) -> ExtentSpec {
        ExtentSpec::new(Pid::new(i * CAPACITY), pages)
    }

    /// The owner map's walk against a frame bitmap: every resident extent
    /// of `extents` is found at the frame and size its word names, the walk
    /// finds nothing else, and its framings and the free runs cover every
    /// frame exactly once.
    fn agrees(pool: &ExtentPool, extents: u64) -> std::result::Result<(), TestCaseError> {
        let heads = pool.sweep.heads(&pool.frames, |pid| pool.entry(pid));
        let resident: Vec<(Pid, u64, u64)> = (0..extents)
            .map(|i| (spec(i, 0).start, pool.entry(spec(i, 0).start).peek()))
            .filter(|(_, seen)| seen.is_resident())
            .map(|(pid, seen)| (pid, seen.frame(), seen.pages()))
            .collect();
        let mut walked: Vec<(Pid, u64, u64)> = heads
            .iter()
            .map(|&(pid, seen)| (pid, seen.frame(), seen.pages()))
            .collect();
        walked.sort_by_key(|&(pid, ..)| pid.raw());
        prop_assert_eq!(&walked, &resident);
        let mut used = vec![false; FRAMES as usize];
        let spans = resident.iter().map(|&(_, f, p)| (f, p));
        for (start, len) in spans.chain(pool.frames.runs()) {
            for f in start..start + len {
                prop_assert!(!used[f as usize], "frame {f} framed or free twice");
                used[f as usize] = true;
            }
        }
        prop_assert!(used.iter().all(|&u| u), "a frame neither framed nor free");
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 64 }))]

        /// Random creates, growths, trims, drops, pins and cache drops of
        /// six extents over 32 frames, the hand evicting whatever a full
        /// pool needs: the owner map and a frame bitmap agree after every
        /// step.
        #[test]
        fn owner_map_matches_a_frame_bitmap(
            ops in proptest::collection::vec((0u8..6, 0u64..6, 1u64..=CAPACITY), 1..60)
        ) {
            let pool = pool();
            for (op, i, pages) in ops {
                match op {
                    // Fresh content: nothing is read.
                    0 => drop(pool.create_extent(spec(i, pages))),
                    // Growth with nothing valid to load.
                    1 => drop(pool.write_extent_growing(spec(i, pages), CAPACITY, 0)),
                    2 => pool.trim_extent(spec(i, pages)),
                    3 => pool.drop_extent(spec(i, pages)),
                    4 => pool.set_prevent_evict(spec(i, 0).start, pages % 2 == 0),
                    _ => pool.drop_caches(),
                }
                agrees(&pool, 6)?;
            }
        }
    }
}
