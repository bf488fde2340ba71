//! Unified facade over the two buffer-pool variants the paper compares:
//! the vmcache-style [`ExtentPool`] (with aliasing) and the traditional
//! [`HashTablePool`] (`Our.ht`). The engine is written against this enum so
//! the two variants can be swapped by configuration.

use crate::htpool::HashTablePool;
use crate::pool::{ExtentPool, FlushBatch, FlushItem, FrameRun, PieceFlight};
use lobster_extent::{ExtentSpec, Piece};
use lobster_metrics::Metrics;
use lobster_sync::Arc;
use lobster_types::{Error, Result};

/// The active BLOB buffer pool.
#[derive(Clone)]
pub enum BlobPool {
    /// vmcache-style pool: extent-granular translation/latching, zero-copy
    /// aliasing reads of large BLOBs.
    Vm(Arc<ExtentPool>),
    /// Hash-table pool: per-page translation, malloc+memcpy reads.
    Ht(Arc<HashTablePool>),
}

impl BlobPool {
    pub fn metrics(&self) -> &Metrics {
        match self {
            BlobPool::Vm(p) => p.metrics(),
            BlobPool::Ht(p) => p.metrics(),
        }
    }

    /// The latch/pin ledger of the underlying pool (no-op in release builds).
    pub fn audit(&self) -> &lobster_sync::audit::LatchLedger {
        match self {
            BlobPool::Vm(p) => p.audit(),
            BlobPool::Ht(p) => p.audit(),
        }
    }

    /// Page size of the underlying geometry.
    pub fn page_size(&self) -> usize {
        match self {
            BlobPool::Vm(p) => p.geometry().page_size(),
            BlobPool::Ht(p) => p.page_size(),
        }
    }

    /// Write fresh content into a newly allocated extent, hashing as it
    /// copies: `digest` sees every copied chunk while its bytes are still
    /// hot in cache, so the put path makes one pass over `src` instead of
    /// memcpy-then-rehash. The extent is left dirty and pinned
    /// (`prevent_evict`) until the commit-time flush.
    pub fn fill_extent_hashed(
        &self,
        spec: ExtentSpec,
        src: &[u8],
        digest: &mut dyn FnMut(&[u8]),
    ) -> Result<()> {
        Placement {
            pool: self,
            run: None,
        }
        .fill_hashed(spec, src, digest)
    }

    /// Frames for the fresh extents of one new placement, `extents` of
    /// them holding `pages` of content in all: on the vmcache pool one run
    /// of frames, when a free run that long exists
    /// (`ExtentPool::take_run`; nothing is evicted to make one), so a read
    /// of the BLOB finds its extents back to back. A single extent is one
    /// run already and takes none; without a run each extent is framed on
    /// its own, as [`BlobPool::fill_extent_hashed`] frames it.
    pub fn place(&self, extents: usize, pages: u64) -> Placement<'_> {
        let run = match self {
            BlobPool::Vm(p) if extents > 1 => p.take_run(pages),
            _ => None,
        };
        Placement { pool: self, run }
    }

    /// Overwrite `src` at byte offset `byte_off` within an existing extent,
    /// loading its prior content from the device if it is not resident.
    pub fn write_range(&self, spec: ExtentSpec, byte_off: usize, src: &[u8]) -> Result<()> {
        match self {
            BlobPool::Vm(p) => {
                let mut g = p.write_extent(spec)?;
                g[byte_off..byte_off + src.len()].copy_from_slice(src);
                p.metrics().bump_memcpy(src.len() as u64);
                g.stage_flush();
                Ok(())
            }
            BlobPool::Ht(p) => p.write_range(spec, byte_off, src),
        }
    }

    /// Growth into a partially filled extent: like [`BlobPool::write_range`],
    /// but only the first `valid_pages` pages hold prior content worth
    /// loading. `spec` is the extent's content view
    /// *after* the write, `capacity` its allocated pages. A resident
    /// framing that is too small is re-framed to twice its size (within
    /// `capacity`), so a run of small appends copies each byte O(1) times
    /// instead of once per append.
    pub fn write_range_partial(
        &self,
        spec: ExtentSpec,
        capacity: u64,
        byte_off: usize,
        src: &[u8],
        valid_pages: u64,
    ) -> Result<()> {
        match self {
            BlobPool::Vm(p) => {
                let mut g = p.write_extent_growing(spec, capacity, valid_pages)?;
                g[byte_off..byte_off + src.len()].copy_from_slice(src);
                p.metrics().bump_memcpy(src.len() as u64);
                g.stage_flush();
                Ok(())
            }
            // The hash-table pool already loads per page.
            BlobPool::Ht(p) => p.write_range(spec, byte_off, src),
        }
    }

    /// The content of `spec`'s extent shrank to `spec.pages`: release the
    /// frames a resident copy holds beyond them, if that is safe right now
    /// (see [`ExtentPool::trim_extent`]). The hash-table pool evicts per
    /// page and needs no help.
    pub fn trim_extent(&self, spec: ExtentSpec) {
        match self {
            BlobPool::Vm(p) => p.trim_extent(spec),
            BlobPool::Ht(_) => {}
        }
    }

    /// Present the BLOB as one contiguous slice to `f`. The vmcache pool
    /// passes extents whose frames sit back to back straight out of them,
    /// aliases scattered ones from [`crate::ALIAS_MIN_BYTES`] up and copies
    /// smaller ones ([`ExtentPool::read_blob`]); the hash-table pool always
    /// gathers.
    pub fn read_blob<R>(
        &self,
        worker: usize,
        extents: &[ExtentSpec],
        len: u64,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R> {
        match self {
            BlobPool::Vm(p) => p.read_blob(worker, extents, len, f),
            BlobPool::Ht(p) => p.read_blob(extents, len, f),
        }
    }

    /// Hint that `specs` will likely be read soon. The vmcache pool issues
    /// an asynchronous readahead batch; the hash-table pool ignores the hint
    /// (its batched fault path already covers whole-BLOB reads, and §V-E's
    /// baseline comparison should not gain speculative I/O it never had).
    /// Never blocks and never evicts to make room.
    pub fn prefetch(&self, specs: &[ExtentSpec]) {
        match self {
            BlobPool::Vm(p) => p.prefetch(specs),
            BlobPool::Ht(_) => {}
        }
    }

    /// Read a small range of one extent without forcing residency (the
    /// append path's final-partial-block read).
    pub fn read_range_uncached(
        &self,
        spec: ExtentSpec,
        byte_off: usize,
        out: &mut [u8],
    ) -> Result<()> {
        match self {
            BlobPool::Vm(p) => p.read_range_uncached(spec, byte_off, out),
            // The hash-table pool is page-granular already.
            BlobPool::Ht(p) => p.read_range(spec, byte_off, out),
        }
    }

    /// Read `pieces` (as [`lobster_extent::pieces`] yields them, from any
    /// number of extents) into `buf` back to back, without forcing
    /// residency — [`BlobPool::read_range_uncached`] for a whole list. On the
    /// vmcache pool a resident piece is copied under its latch right away
    /// and the rest go to the device as one batch, left in flight so the
    /// caller can work while they land; nothing is framed or published. A
    /// failed batch re-reads each piece under the retry policy, like
    /// [`BlobPool::fault_many`]. The hash-table pool reads page by page
    /// before returning. `buf` must hold the pieces' total length.
    pub fn read_pieces(&self, pieces: &[Piece], mut buf: Vec<u8>) -> Result<PieceReads> {
        let total: usize = pieces.iter().map(|p| p.len).sum();
        if buf.len() < total {
            return Err(Error::InvalidArgument(format!(
                "{total} bytes of pieces into a {}-byte buffer",
                buf.len()
            )));
        }
        let flight = match self {
            BlobPool::Vm(p) => {
                // SAFETY: `buf` is long enough (checked above) and moves into
                // the returned reads, which hold it untouched until the batch
                // lands.
                let flight = unsafe { p.submit_pieces(pieces, &mut buf)? };
                flight.map(|f| (p.clone(), f))
            }
            BlobPool::Ht(p) => {
                let mut at = 0;
                for piece in pieces {
                    p.read_range(piece.spec, piece.offset, &mut buf[at..at + piece.len])?;
                    at += piece.len;
                }
                None
            }
        };
        Ok(PieceReads { buf, flight })
    }

    /// Make `extents` resident before a read that will touch all of them:
    /// every evicted one is read with a single batched submission, so their
    /// device latencies overlap (what [`BlobPool::read_blob`] does for the
    /// extents it is handed).
    pub fn fault_many(&self, extents: &[ExtentSpec]) -> Result<()> {
        match self {
            BlobPool::Vm(p) => p.fault_many(extents).map(drop),
            BlobPool::Ht(p) => p.fault_many(extents),
        }
    }

    /// Take a streaming lease on one extent: force it resident and pin it
    /// against eviction while a server streams chunks out of it (see
    /// [`ExtentPool::lease_extent`]). The hash-table pool has no aliased
    /// residency to protect — its serving path copies per chunk — so the
    /// lease is a no-op there.
    pub fn lease_extent(&self, spec: ExtentSpec) -> Result<()> {
        match self {
            BlobPool::Vm(p) => p.lease_extent(spec),
            BlobPool::Ht(_) => Ok(()),
        }
    }

    /// Lease `spec` only if it is already resident (see
    /// [`ExtentPool::try_lease_resident`]); the Ht pool keeps everything
    /// resident but has no pin machinery, so it reports no lease taken.
    pub fn try_lease_resident(&self, spec: ExtentSpec) -> Result<bool> {
        match self {
            BlobPool::Vm(p) => p.try_lease_resident(spec),
            BlobPool::Ht(_) => Ok(false),
        }
    }

    /// Release a streaming lease taken by [`BlobPool::lease_extent`].
    pub fn unlease_extent(&self, spec: ExtentSpec) {
        match self {
            BlobPool::Vm(p) => p.unlease_extent(spec),
            BlobPool::Ht(_) => {}
        }
    }

    /// Read one chunk (`byte_off .. byte_off + len` within `spec`) under a
    /// brief shared latch, passing the bytes to `f`. On the vmcache pool
    /// the slice borrows the pool frame directly (zero-copy); the
    /// hash-table pool gathers into a scratch buffer first, matching its
    /// malloc+memcpy read discipline.
    pub fn read_chunk<R>(
        &self,
        spec: ExtentSpec,
        byte_off: usize,
        len: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R> {
        match self {
            BlobPool::Vm(p) => p.read_chunk(spec, byte_off, len, f),
            BlobPool::Ht(p) => {
                let mut buf = vec![0u8; len];
                p.read_range(spec, byte_off, &mut buf)?;
                p.metrics().bump_memcpy(len as u64);
                Ok(f(&buf))
            }
        }
    }

    /// Commit-time flush of dirty extent ranges (the single BLOB write).
    pub fn flush_extents(&self, items: &[FlushItem]) -> Result<()> {
        match self {
            BlobPool::Vm(p) => p.flush_extents(items),
            BlobPool::Ht(p) => p.flush_extents(items),
        }
    }

    /// Begin the commit-time flush without blocking: submit one batched
    /// asynchronous write of the dirty ranges and return the in-flight
    /// ticket. The single-flush ordering (§III-C) is the caller's
    /// responsibility: unless every extent named is freshly allocated —
    /// content no durable Blob State can reference yet — the batch's WAL
    /// records must be fsynced *before* this is called. An extent's
    /// dirty/`prevent_evict` flags are cleared when the ticket is reaped
    /// and no other flush of it is owed.
    pub fn flush_extents_async(&self, items: &[FlushItem]) -> Result<FlushTicket> {
        let batch = match self {
            BlobPool::Vm(p) => p.flush_extents_begin(items)?,
            BlobPool::Ht(p) => p.flush_extents_begin(items)?,
        };
        Ok(FlushTicket {
            flight: Some((self.clone(), batch)),
            items: items.to_vec(),
        })
    }

    /// Second half of [`BlobPool::flush_extents_async`], run by the
    /// ticket's reap with the completion result.
    fn flush_extents_finish(&self, batch: &FlushBatch, result: &Result<()>) {
        match self {
            BlobPool::Vm(p) => p.flush_extents_finish(batch, result),
            BlobPool::Ht(p) => p.flush_extents_finish(batch, result),
        }
    }

    /// Whether a write of the extent still owes it a flush: content a
    /// commit has not yet written may be in its frames.
    pub fn owes_flush(&self, spec: ExtentSpec) -> bool {
        match self {
            BlobPool::Vm(p) => p.owes_flush(spec.start),
            BlobPool::Ht(p) => p.owes_flush(spec.start),
        }
    }

    /// Clear the `prevent_evict` pin without flushing (physical-logging
    /// mode: the WAL protects the content, eviction may write it back).
    pub fn unpin_extent(&self, spec: ExtentSpec) {
        match self {
            BlobPool::Vm(p) => p.unpin_extent(spec.start),
            BlobPool::Ht(p) => p.unpin_extent(spec),
        }
    }

    /// Discard extents without write-back (delete / rollback). Either view
    /// of an extent works: the vm pool drops whatever is resident at
    /// `spec.start`, the hash-table pool every page of `spec` it holds.
    pub fn drop_extents(&self, extents: &[ExtentSpec]) {
        for &spec in extents {
            match self {
                BlobPool::Vm(p) => p.drop_extent(spec),
                BlobPool::Ht(p) => p.drop_extent(spec),
            }
        }
    }

    /// Evict everything clean (recovery epilogue / cold-cache runs).
    pub fn drop_caches(&self) {
        match self {
            BlobPool::Vm(p) => p.drop_caches(),
            BlobPool::Ht(p) => p.drop_all(),
        }
    }

    /// Flush all dirty state (checkpoint / clean shutdown).
    pub fn flush_all_dirty(&self) -> Result<()> {
        match self {
            BlobPool::Vm(p) => p.flush_all_dirty(),
            BlobPool::Ht(p) => p.flush_all_dirty(),
        }
    }
}

/// The fresh extents of one new placement being filled
/// ([`BlobPool::place`]), in sequence order. Frames of its run that no
/// extent took go back to the pool when it drops.
pub struct Placement<'p> {
    pool: &'p BlobPool,
    run: Option<FrameRun<'p>>,
}

impl Placement<'_> {
    /// [`BlobPool::fill_extent_hashed`] for the placement's next extent,
    /// framed at the next `spec.pages` frames of its run if it has one.
    pub fn fill_hashed(
        &mut self,
        spec: ExtentSpec,
        src: &[u8],
        digest: &mut dyn FnMut(&[u8]),
    ) -> Result<()> {
        let p = match self.pool {
            BlobPool::Vm(p) => p,
            BlobPool::Ht(p) => return p.fill_extent_hashed(spec, src, digest),
        };
        let mut g = match &mut self.run {
            Some(run) => p.create_extent_in(spec, run)?,
            None => p.create_extent(spec)?,
        };
        // Cache-height blocks: large enough to amortize the digest call,
        // small enough that the copied bytes are still in L1/L2 when hashed.
        const BLOCK: usize = 64 * 1024;
        let dst = &mut g[..src.len()];
        for (d, s) in dst.chunks_mut(BLOCK).zip(src.chunks(BLOCK)) {
            d.copy_from_slice(s);
            digest(d);
        }
        p.metrics().bump_memcpy(src.len() as u64);
        g.stage_flush();
        Ok(())
    }
}

/// The reads of one [`BlobPool::read_pieces`] call. The device requests
/// write into the buffer the reads own, so it comes back only through
/// [`PieceReads::wait`], and dropping the reads first lands them.
pub struct PieceReads {
    buf: Vec<u8>,
    flight: Option<(Arc<ExtentPool>, PieceFlight)>,
}

impl PieceReads {
    /// Block until every piece has landed, and hand the buffer back.
    pub fn wait(mut self) -> Result<Vec<u8>> {
        if let Some((pool, flight)) = self.flight.take() {
            // The requests write into `buf`: nothing touches it before they
            // have all completed.
            let landed = flight.handle.wait();
            pool.land_pieces(&flight.cold, landed, &mut self.buf)?;
        }
        Ok(std::mem::take(&mut self.buf))
    }
}

impl Drop for PieceReads {
    fn drop(&mut self) {
        if let Some((_, flight)) = &self.flight {
            flight.handle.wait_done();
        }
    }
}

/// One in-flight commit-time extent flush started by
/// [`BlobPool::flush_extents_async`].
///
/// The ticket owns everything the flight needs: the vm pool's shared
/// latches or the hash-table pool's scratch buffers, plus an `Arc` keeping
/// the pool itself alive. Reaping ([`FlushTicket::poll`] or
/// [`FlushTicket::wait`]) is what clears the extents' dirty and
/// `prevent_evict` flags — until then the frames stay pinned, which is the
/// pipeline's pin-budget accounting point. A ticket may be reaped on a
/// different thread than the one that submitted it (a transaction's eager
/// flights travel to the committer with its commit batch). Dropping an
/// unreaped ticket blocks until the device writes land (they reference
/// memory the ticket guards) and then finishes it.
pub struct FlushTicket {
    /// The pool that finishes the flight, and the flight; `None` once
    /// reaped.
    flight: Option<(BlobPool, FlushBatch)>,
    /// What the flight writes; outlives the reap, for whoever retries.
    items: Vec<FlushItem>,
}

impl FlushTicket {
    /// Non-blocking reap. Returns `Some(result)` exactly once, when every
    /// write of the batch has completed: at that point the extents are
    /// marked clean and unpinned (on success) and the latches/buffers are
    /// released. Returns `None` while still in flight — polling never
    /// executes device requests inline, so a poller cannot stall on
    /// modeled device time.
    pub fn poll(&mut self) -> Option<Result<()>> {
        let result = self.flight.as_ref()?.1.try_complete()?;
        let (pool, batch) = self.flight.take()?;
        pool.flush_extents_finish(&batch, &result);
        Some(result)
    }

    /// Block until the batch's writes complete (helping execute them),
    /// then reap.
    pub fn wait(mut self) -> Result<()> {
        self.block_until_io_done();
        // `None`: already reaped before the call.
        self.poll().unwrap_or(Ok(()))
    }

    /// Block until the underlying writes have completed, without reaping:
    /// the next [`FlushTicket::poll`] returns `Some` immediately. Helps
    /// execute queued requests, then sleeps out the modeled device
    /// ([`lobster_storage::wait_until`]), so the wait leaves the processor
    /// to other threads.
    fn block_until_io_done(&self) {
        if let Some((_, batch)) = &self.flight {
            batch.wait_done();
        }
    }

    /// What this flight is (or was) writing.
    pub fn items(&self) -> &[FlushItem] {
        &self.items
    }
}

impl Drop for FlushTicket {
    fn drop(&mut self) {
        // The in-flight requests reference latched frames / owned scratch;
        // land them before releasing either.
        self.block_until_io_done();
        let _ = self.poll();
    }
}
