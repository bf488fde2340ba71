//! Transactions and the BLOB operation set (§III-C/D).
//!
//! The write path implements the paper's single-flush commit protocol:
//!
//! 1. During the transaction, BLOB content is written into buffer frames
//!    (dirty + `prevent_evict`); log records are staged locally. Content
//!    in a **freshly allocated** extent may start its one device write
//!    right away, while the next extent is still being hashed
//!    ([`EAGER_FLUSH_PAGES`]): no durable Blob State can reference a fresh
//!    extent, so nothing a crash could resolve to is overwritten.
//! 2. At commit, the staged records — Blob States, not content — are
//!    appended to the WAL and fsynced (group commit). **Only after** the
//!    Blob State is durable is anything written *in place* — a delta
//!    update, an append into a partly filled extent, a relocation — with
//!    one batched asynchronous write per extent covering only its dirty
//!    pages. The commit is durable when the fsync and every extent write,
//!    early or late, have landed.
//! 3. The flush clears `prevent_evict` and leaves the extents *clean*, so
//!    eviction never writes BLOB content a second time.
//!
//! Deletes publish extents to the per-tier free lists at commit; growth
//! resumes the SHA-256 from the stored midstate; in-place updates choose
//! delta-logging or extent cloning by modeled cost (§III-D).

use crate::blob_state::{BlobState, PREFIX_LEN};
use crate::catalog::{Relation, RelationKind};
use crate::db::{BlobLogging, Database};
use crate::group_commit::CommitBatch;
use crate::lock::LockMode;
use lobster_buffer::{FlushItem, FlushTicket};
use lobster_extent::{plan_growth, plan_sequence, ExtentSpec};
use lobster_sha256::Sha256;
use lobster_sync::atomic::Ordering;
use lobster_sync::Arc;
use lobster_types::{Error, Geometry, Pid, Result};
use lobster_wal::LogRecord;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TxnState {
    Active,
    Committed,
    Aborted,
}

/// Undo information for logical rollback.
enum UndoOp {
    /// Undo an insert: remove the key.
    Insert { rel: u32, key: Vec<u8> },
    /// Undo an update: restore the old value.
    Update {
        rel: u32,
        key: Vec<u8>,
        old: Vec<u8>,
    },
    /// Undo a delete: reinsert the old value.
    Delete {
        rel: u32,
        key: Vec<u8>,
        old: Vec<u8>,
    },
    /// Undo an in-place BLOB byte-range change.
    BlobBytes {
        spec: ExtentSpec,
        byte_off_in_extent: usize,
        before: Vec<u8>,
    },
}

/// How many pages of freshly allocated, filled and hashed extents a
/// transaction lets pile up before it submits their device write instead of
/// leaving it to the commit pipeline. The smallest power of two above the
/// 25 pages of a 100 KiB put, which has nothing left to hash by the time a
/// write of its own could overlap it; under the default tier table a 1 MiB
/// put submits after 63, 127 and 255 of its 256 pages. 64 measured the same
/// on `lib_ingest_1m` (EXPERIMENTS.md "Budget of a 1 MiB ingest").
const EAGER_FLUSH_PAGES: u64 = 32;

/// An active transaction. Dropped without [`Txn::commit`] ⇒ rollback.
pub struct Txn {
    db: Arc<Database>,
    id: u64,
    worker: usize,
    records: Vec<LogRecord>,
    undo: Vec<UndoOp>,
    /// Extent ranges to write after the WAL fsync.
    toflush: Vec<FlushItem>,
    /// Fresh extents, filled and not yet submitted: they join `flights`
    /// once [`EAGER_FLUSH_PAGES`] have piled up, `toflush` otherwise.
    fresh: Vec<FlushItem>,
    /// Writes of fresh extents already on the device's queue. Each holds a
    /// shared latch on its extents until reaped — by the commit pipeline,
    /// or by [`Txn::land_flights`] before this transaction latches one of
    /// them exclusively or drops it.
    flights: Vec<FlushTicket>,
    allocated: Vec<ExtentSpec>,
    freed: Vec<ExtentSpec>,
    /// Old placements of relocated blobs: quarantine-fenced at swap
    /// staging, released and freed only at the durability frontier
    /// (`StageCtx::retire`). Distinct from `freed`, whose extents carry
    /// no fence and may be recycled by any later allocation.
    refenced: Vec<ExtentSpec>,
    /// Lock-table shards holding this transaction's locks (one bit each),
    /// so the release visits those and not the whole table.
    lock_shards: u64,
    state: TxnState,
}

impl Txn {
    pub(crate) fn new(db: Arc<Database>, id: u64, worker: usize) -> Self {
        Txn {
            db,
            id,
            worker,
            records: Vec::new(),
            undo: Vec::new(),
            toflush: Vec::new(),
            fresh: Vec::new(),
            flights: Vec::new(),
            allocated: Vec::new(),
            freed: Vec::new(),
            refenced: Vec::new(),
            lock_shards: 0,
            state: TxnState::Active,
        }
    }

    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn worker(&self) -> usize {
        self.worker
    }

    fn check_active(&self) -> Result<()> {
        if self.state == TxnState::Active {
            Ok(())
        } else {
            Err(Error::TxnAborted)
        }
    }

    fn lock(&mut self, rel: &Relation, key: &[u8], mode: LockMode) -> Result<()> {
        self.lock_shards |= self.db.locks.lock(self.id, rel.id, key, mode)?;
        Ok(())
    }

    /// The content view of `state`'s extents — the only view the buffer
    /// pool is handed (see [`BlobState::content_specs`]).
    fn content_specs(&self, state: &BlobState) -> Vec<ExtentSpec> {
        state.content_specs(&self.db.table, self.db.geo)
    }

    /// Write `chunk` into the freshly allocated extent `alloc`, feeding
    /// every copied byte to `digest`, and return the flush it now owes.
    /// Only the pages `chunk` occupies are framed and flushed; the rest of
    /// the allocation is slack the pool never sees.
    fn fill_fresh(
        &mut self,
        alloc: ExtentSpec,
        chunk: &[u8],
        digest: &mut dyn FnMut(&[u8]),
    ) -> Result<FlushItem> {
        let pages = self.db.geo.pages_for(chunk.len() as u64).max(1);
        let content = ExtentSpec::new(alloc.start, pages);
        self.db
            .blob_pool
            .fill_extent_hashed(content, chunk, digest)?;
        Ok(FlushItem::whole(content))
    }

    /// [`Txn::fill_fresh`] for content nothing durable references until
    /// this transaction commits (a new blob, growth, a cloned extent): its
    /// write may start before the commit, once enough pages have piled up
    /// to be worth a submission of their own — and only where the commit
    /// will wait for that write. An asynchronous commit returns before the
    /// flush either way, so an early write would buy its caller nothing
    /// and cost it the processor time of the submission.
    fn fill_fresh_eager(
        &mut self,
        alloc: ExtentSpec,
        chunk: &[u8],
        digest: &mut dyn FnMut(&[u8]),
    ) -> Result<()> {
        let item = self.fill_fresh(alloc, chunk, digest)?;
        self.fresh.push(item);
        let piled: u64 = self.fresh.iter().map(|i| i.dirty_pages).sum();
        if self.db.cfg.commit_wait && piled >= EAGER_FLUSH_PAGES {
            self.submit_fresh()?;
        }
        Ok(())
    }

    /// Put the pending fresh extents on the device's queue as one batch.
    fn submit_fresh(&mut self) -> Result<()> {
        let ticket = self.db.blob_pool.flush_extents_async(&self.fresh)?;
        let pages: u64 = self.fresh.iter().map(|i| i.dirty_pages).sum();
        let m = &self.db.metrics;
        // ordering: relaxed metrics counters; snapshot readers tolerate staleness
        m.eager_flush_batches.fetch_add(1, Ordering::Relaxed);
        m.eager_flush_pages.fetch_add(pages, Ordering::Relaxed); // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        self.flights.push(ticket);
        self.fresh.clear();
        Ok(())
    }

    /// Wait for this transaction's eager writes and reap them, releasing
    /// their shared latches. Whatever is about to latch one of those
    /// extents exclusively or drop it from the pool — a later verb on the
    /// same blob, the rollback — would otherwise wait on this thread for a
    /// ticket only this thread can reap.
    fn land_flights(&mut self) -> Result<()> {
        let mut result = Ok(());
        for ticket in self.flights.drain(..) {
            result = result.and(ticket.wait());
        }
        result
    }

    /// Record this worker's range access `[offset, end)` to `state`'s blob
    /// and report whether it is observably sequential: it starts the blob,
    /// or it starts where this worker's previous range access to the same
    /// blob ended. Only then may readahead run past the touched extents.
    fn note_range_access(&self, state: &BlobState, offset: u64, end: u64) -> bool {
        let blob = state
            .extents
            .first()
            .copied()
            .or(state.tail.map(|(pid, _)| pid))
            .map_or(u64::MAX, Pid::raw);
        let cells = &self.db.last_range;
        let prev = std::mem::replace(&mut *cells[self.worker % cells.len()].lock(), (blob, end));
        offset == 0 || prev == (blob, offset)
    }

    // ------------------------------------------------------ kv rows -----

    /// Insert or overwrite a plain key/value row.
    pub fn put_kv(&mut self, rel: &Relation, key: &[u8], value: &[u8]) -> Result<()> {
        self.check_active()?;
        debug_assert_eq!(rel.kind, RelationKind::Kv);
        self.lock(rel, key, LockMode::Exclusive)?;
        let old = rel.tree.upsert(key, value)?;
        match old {
            Some(old) => {
                self.records.push(LogRecord::Update {
                    txn: self.id,
                    relation: rel.id,
                    key: key.to_vec(),
                    old_value: old.clone(),
                    new_value: value.to_vec(),
                });
                self.undo.push(UndoOp::Update {
                    rel: rel.id,
                    key: key.to_vec(),
                    old,
                });
            }
            None => {
                self.records.push(LogRecord::Insert {
                    txn: self.id,
                    relation: rel.id,
                    key: key.to_vec(),
                    value: value.to_vec(),
                });
                self.undo.push(UndoOp::Insert {
                    rel: rel.id,
                    key: key.to_vec(),
                });
            }
        }
        Ok(())
    }

    /// Read a plain row.
    pub fn get_kv(&mut self, rel: &Relation, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.check_active()?;
        self.lock(rel, key, LockMode::Shared)?;
        rel.tree.lookup(key)
    }

    /// Delete a plain row; returns whether it existed.
    pub fn delete_kv(&mut self, rel: &Relation, key: &[u8]) -> Result<bool> {
        self.check_active()?;
        debug_assert_eq!(rel.kind, RelationKind::Kv);
        self.lock(rel, key, LockMode::Exclusive)?;
        match rel.tree.remove(key)? {
            Some(old) => {
                self.records.push(LogRecord::Delete {
                    txn: self.id,
                    relation: rel.id,
                    key: key.to_vec(),
                    old_value: old.clone(),
                });
                self.undo.push(UndoOp::Delete {
                    rel: rel.id,
                    key: key.to_vec(),
                    old,
                });
                Ok(true)
            }
            None => Ok(false),
        }
    }

    // ---------------------------------------------------- blob write ----

    /// Store a new BLOB under `key` (§III-C, Figure 2(b)).
    pub fn put_blob(&mut self, rel: &Relation, key: &[u8], data: &[u8]) -> Result<()> {
        let t = self.db.metrics.latencies.timer();
        let r = self.put_blob_inner(rel, key, data);
        self.db.metrics.latencies.put_blob.record_timer(t);
        r
    }

    fn put_blob_inner(&mut self, rel: &Relation, key: &[u8], data: &[u8]) -> Result<()> {
        self.check_active()?;
        debug_assert_eq!(rel.kind, RelationKind::Blob);
        self.lock(rel, key, LockMode::Exclusive)?;
        if rel.tree.contains(key)? {
            return Err(Error::KeyExists);
        }
        // §III-B: BLOBs no larger than the embedded prefix live entirely
        // inline in the Blob State — no extents, no content flush.
        if data.len() <= PREFIX_LEN {
            let mut hasher = Sha256::new();
            hasher.update(data);
            let state = BlobState {
                size: data.len() as u64,
                sha_midstate: hasher.midstate().state_bytes(),
                sha256: hasher.finalize(),
                prefix: BlobState::make_prefix(data),
                tail: None,
                extents: Vec::new(),
            };
            self.publish_state(rel, key, None, &state)?;
            self.stage_physlog(rel, key, 0, data);
            return Ok(());
        }

        let geo = self.db.geo;
        let pages = geo.pages_for(data.len() as u64);
        let plan = plan_sequence(&self.db.table, pages, self.db.cfg.use_tail_extents)?;

        // Reserve the smallest extent sequence, write content into buffer
        // frames (pinned + dirty), and hash in the same pass.
        let mut hasher = Sha256::new();
        let mut extents = Vec::with_capacity(plan.sizes.len());
        let mut off = 0usize;
        for (i, _) in plan.sizes.iter().enumerate() {
            let spec = self.db.alloc.allocate_tier(plan.first_position + i)?;
            self.allocated.push(spec);
            let ext_bytes = (spec.pages as usize) * geo.page_size();
            let chunk = &data[off..data.len().min(off + ext_bytes)];
            self.fill_fresh_eager(spec, chunk, &mut |b| hasher.update(b))?;
            extents.push(spec.start);
            off += chunk.len();
        }
        let tail = match plan.tail_pages {
            Some(tp) => {
                let spec = self.db.alloc.allocate_tail(tp)?;
                self.allocated.push(spec);
                let chunk = &data[off..];
                self.fill_fresh_eager(spec, chunk, &mut |b| hasher.update(b))?;
                off += chunk.len();
                Some((spec.start, tp))
            }
            None => None,
        };
        debug_assert_eq!(off, data.len());

        let sha_midstate = hasher.midstate().state_bytes();
        let state = BlobState {
            size: data.len() as u64,
            sha256: hasher.finalize(),
            sha_midstate,
            prefix: BlobState::make_prefix(data),
            tail,
            extents,
        };
        self.publish_state(rel, key, None, &state)?;
        self.stage_physlog(rel, key, 0, data);
        Ok(())
    }

    /// Publish `new` as `key`'s Blob State: write it into the relation's
    /// tree and stage the undo entry and the WAL record. `old` is the
    /// encoded state it replaces, `None` for a fresh key.
    fn publish_state(
        &mut self,
        rel: &Relation,
        key: &[u8],
        old: Option<Vec<u8>>,
        new: &BlobState,
    ) -> Result<()> {
        let encoded = new.encode();
        rel.tree.insert(key, &encoded, old.is_some())?;
        match old {
            None => {
                self.undo.push(UndoOp::Insert {
                    rel: rel.id,
                    key: key.to_vec(),
                });
                self.records.push(LogRecord::Insert {
                    txn: self.id,
                    relation: rel.id,
                    key: key.to_vec(),
                    value: encoded,
                });
            }
            Some(old) => {
                self.undo.push(UndoOp::Update {
                    rel: rel.id,
                    key: key.to_vec(),
                    old: old.clone(),
                });
                self.records.push(LogRecord::Update {
                    txn: self.id,
                    relation: rel.id,
                    key: key.to_vec(),
                    old_value: old,
                    new_value: encoded,
                });
            }
        }
        Ok(())
    }

    /// In physical-logging mode (`Our.physlog`), additionally append the
    /// full content to the WAL in segments — the conventional "write every
    /// object twice" behaviour (once to the log, once to the database).
    fn stage_physlog(&mut self, rel: &Relation, key: &[u8], base_off: u64, data: &[u8]) {
        let BlobLogging::Physical { segment } = self.db.cfg.blob_logging else {
            return;
        };
        for (i, chunk) in data.chunks(segment.max(1)).enumerate() {
            self.records.push(LogRecord::BlobChunk {
                txn: self.id,
                relation: rel.id,
                key: key.to_vec(),
                byte_offset: base_off + (i * segment) as u64,
                data: chunk.to_vec(),
            });
        }
    }

    // ----------------------------------------------------- blob read ----

    /// Read the whole BLOB as one contiguous slice (zero-copy via the
    /// aliasing area when available).
    pub fn get_blob<R>(
        &mut self,
        rel: &Relation,
        key: &[u8],
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R> {
        let t = self.db.metrics.latencies.timer();
        let r = self.get_blob_inner(rel, key, f);
        self.db.metrics.latencies.get_blob.record_timer(t);
        r
    }

    fn get_blob_inner<R>(
        &mut self,
        rel: &Relation,
        key: &[u8],
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R> {
        self.check_active()?;
        self.lock(rel, key, LockMode::Shared)?;
        let state = self.require_state(rel, key)?;
        if state.size <= PREFIX_LEN as u64 {
            // Inline (or prefix-covered) content: no extent access at all.
            if self.db.cfg.verify_reads {
                let mut hasher = Sha256::new();
                hasher.update(&state.prefix[..state.size as usize]);
                if hasher.finalize() != state.sha256 {
                    // Inline content lives in the Blob State itself, not in
                    // extents — nothing to re-read or quarantine.
                    self.db
                        .metrics
                        .corruption_detected
                        .fetch_add(1, Ordering::Relaxed); // ordering: relaxed metrics counter; snapshot readers tolerate staleness
                    return Err(Error::Corruption(format!(
                        "inline BLOB hash mismatch in relation '{}'",
                        rel.name
                    )));
                }
            }
            return Ok(f(&state.prefix[..state.size as usize]));
        }
        let specs = self.content_specs(&state);
        if !self.db.cfg.verify_reads {
            return self
                .db
                .blob_pool
                .read_blob(self.worker, &specs, state.size, f);
        }
        self.verified_read(rel, key, &state, &specs, f)
    }

    /// `Config::verify_reads` read path: hash the mapped view against the
    /// Blob State SHA-256 and invoke `f` only on a match. A mismatch may be
    /// a device lie that a fresh read clears (cached frame served a
    /// transiently garbled load), so the pool's copies are dropped and the
    /// extents re-read once from the device; a second mismatch is treated
    /// as real rot — the blob is quarantined and corruption surfaces.
    fn verified_read<R>(
        &self,
        rel: &Relation,
        key: &[u8],
        state: &BlobState,
        specs: &[ExtentSpec],
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R> {
        let mut f = Some(f);
        for attempt in 0..2 {
            let out = self
                .db
                .blob_pool
                .read_blob(self.worker, specs, state.size, |view| {
                    let mut hasher = Sha256::new();
                    hasher.update(view);
                    if hasher.finalize() == state.sha256 {
                        Some((f.take().expect("verified read consumes f once"))(view))
                    } else {
                        None
                    }
                })?;
            if let Some(r) = out {
                return Ok(r);
            }
            if attempt == 0 {
                // Drop every cached copy so the retry faults from the device.
                self.db.blob_pool.drop_extents(specs);
            }
        }
        self.db
            .metrics
            .corruption_detected
            .fetch_add(1, Ordering::Relaxed); // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        self.db
            .quarantine_blob(rel, key, &state.extent_specs(&self.db.table));
        Err(Error::Corruption(format!(
            "BLOB hash mismatch in relation '{}' survived a device re-read; blob quarantined",
            rel.name
        )))
    }

    /// Read `buf.len()` bytes starting at `offset`; returns bytes read
    /// (clamped at the BLOB size). This is the FUSE `pread` path
    /// (Listing 1): the copy into `buf` is the application's own buffer
    /// copy. Only the extents intersecting the range are touched — a 4 KB
    /// `pread` into a 1 GB BLOB loads one extent, not the BLOB.
    pub fn get_blob_range(
        &mut self,
        rel: &Relation,
        key: &[u8],
        offset: u64,
        buf: &mut [u8],
    ) -> Result<usize> {
        let t = self.db.metrics.latencies.timer();
        let r = self.get_blob_range_inner(rel, key, offset, buf);
        self.db.metrics.latencies.get_blob_range.record_timer(t);
        r
    }

    fn get_blob_range_inner(
        &mut self,
        rel: &Relation,
        key: &[u8],
        offset: u64,
        buf: &mut [u8],
    ) -> Result<usize> {
        self.check_active()?;
        self.lock(rel, key, LockMode::Shared)?;
        let state = self.require_state(rel, key)?;
        self.read_state_range(&state, offset, buf, true)
    }

    /// Range read against a known Blob State: select the extent run
    /// covering `[offset, offset + buf.len())` and present only that run
    /// contiguously — no extent past the range's end is ever fetched in
    /// the foreground. With `readahead`, an observably sequential access
    /// (see [`Txn::note_range_access`]) additionally prefetches the next
    /// `readahead_extents` extents; a random one prefetches nothing.
    fn read_state_range(
        &self,
        state: &BlobState,
        offset: u64,
        buf: &mut [u8],
        readahead: bool,
    ) -> Result<usize> {
        if offset >= state.size || buf.is_empty() {
            return Ok(0);
        }
        let n = buf.len().min((state.size - offset) as usize);
        // Header reads (file-type sniffing, magic bytes — §III-B's reason
        // for embedding the prefix) are served straight from the Blob
        // State: zero content I/O, zero latches.
        if offset as usize + n <= PREFIX_LEN {
            buf[..n].copy_from_slice(&state.prefix[offset as usize..offset as usize + n]);
            return Ok(n);
        }
        let specs = self.content_specs(state);
        let end_byte = offset + n as u64;
        let (first, last, first_base) = covering_run(&specs, self.db.geo, offset, end_byte);

        let local = (offset - first_base) as usize;
        // A sequential reader touching extents `first..last` touches
        // `last..` next. Issue the prefetch before the foreground read so
        // the two batches overlap on the device.
        let ra = self.db.cfg.readahead_extents;
        if readahead && ra > 0 && self.note_range_access(state, offset, end_byte) {
            self.db
                .blob_pool
                .prefetch(&specs[last..specs.len().min(last + ra)]);
        }
        self.db.blob_pool.read_blob(
            self.worker,
            &specs[first..last],
            (local + n) as u64,
            |view| buf[..n].copy_from_slice(&view[local..local + n]),
        )?;
        Ok(n)
    }

    /// Stream `len` bytes starting at `offset` to `sink` in `chunk`-sized
    /// pieces read straight out of the buffer pool (the serving path's
    /// zero-copy range read). Returns the bytes streamed (clamped at the
    /// BLOB size).
    ///
    /// This is the one resolution of the request — one shared key lock,
    /// one B-Tree descent, one Blob State decode — so the caller needs no
    /// preceding [`Txn::blob_state`]: every `sink(total, bytes)` call
    /// carries the resolved stream length `total` (what this returns), and
    /// a caller framing a response writes its header from the first call.
    /// A missing key is `Error::KeyNotFound`; an empty range returns
    /// `Ok(0)` without calling `sink`. Every refusal (lock conflict, gate
    /// timeout) happens before the first `sink` call.
    ///
    /// Every extent intersecting the range is held under a *streaming
    /// lease* (`prevent_evict` pin — see `ExtentPool::lease_extent`) for
    /// the duration of the stream, so chunks hit resident frames instead
    /// of re-faulting between socket writes. Each chunk is passed to
    /// `sink` under a brief shared latch (held for one `sink` call, never
    /// across calls); the lease itself is advisory, so a slow client
    /// holds pool *budget*, never a latch. If `gate` is given, the run's
    /// pinned footprint is acquired from it first — `Error::BufferFull`
    /// on timeout means the pin budget is exhausted and the caller should
    /// shed load (BUSY). Leases and gate budget are released when the
    /// stream ends, **including on an early `sink` error** (client
    /// disconnect mid-stream).
    #[allow(clippy::too_many_arguments)]
    pub fn stream_blob_range(
        &mut self,
        rel: &Relation,
        key: &[u8],
        offset: u64,
        len: u64,
        chunk: usize,
        gate: Option<(&lobster_buffer::PinGate, std::time::Duration)>,
        sink: &mut dyn FnMut(u64, &[u8]) -> Result<()>,
    ) -> Result<u64> {
        self.check_active()?;
        self.lock(rel, key, LockMode::Shared)?;
        let state = self.require_state(rel, key)?;
        if offset >= state.size || len == 0 {
            return Ok(0);
        }
        let n = len.min(state.size - offset);
        let chunk = chunk.max(1);
        // Inline-prefix fast path: the whole range lives in the Blob
        // State — one sink call, zero content I/O, zero leases.
        if offset as usize + n as usize <= PREFIX_LEN {
            sink(n, &state.prefix[offset as usize..(offset + n) as usize])?;
            return Ok(n);
        }

        let specs = self.content_specs(&state);
        let page = self.db.geo.page_size() as u64;
        let end_byte = offset + n;
        let (first, last, first_base) = covering_run(&specs, self.db.geo, offset, end_byte);

        // Admission: charge the run's pinned footprint against the gate
        // *before* taking any lease, so rejected streams pin nothing.
        let run = &specs[first..last];
        let lease_bytes: u64 = run.iter().map(|s| s.pages * page).sum();
        if let Some((g, timeout)) = gate {
            g.acquire(lease_bytes, timeout)?;
        }
        // RAII: leases + gate budget release on every exit path below,
        // including sink errors (client disconnect mid-stream).
        struct Leases<'a> {
            pool: &'a lobster_buffer::BlobPool,
            run: &'a [lobster_extent::ExtentSpec],
            taken: usize,
            gate: Option<(&'a lobster_buffer::PinGate, u64)>,
        }
        impl Drop for Leases<'_> {
            fn drop(&mut self) {
                for spec in &self.run[..self.taken] {
                    self.pool.unlease_extent(*spec);
                }
                if let Some((g, bytes)) = self.gate {
                    g.release(bytes);
                }
            }
        }
        let mut leases = Leases {
            pool: &self.db.blob_pool,
            run,
            taken: 0,
            gate: gate.map(|(g, _)| (g, lease_bytes)),
        };
        // A stream is sequential by construction: the extents after its
        // first are read next, so their faults overlap the first lease.
        // The window stops at the end of the requested range unless the
        // access pattern says the client will ask for what follows.
        let ra = self.db.cfg.readahead_extents;
        let stop = if self.note_range_access(&state, offset, end_byte) {
            specs.len()
        } else {
            last
        };
        if ra > 0 && first + 1 < stop {
            self.db
                .blob_pool
                .prefetch(&specs[first + 1..stop.min(first + 1 + ra)]);
        }
        for spec in run {
            self.db.blob_pool.lease_extent(*spec)?;
            leases.taken += 1;
        }

        // Walk the run chunk by chunk. Blob byte x lives at run byte
        // x - first_base; chunks never span extents (an extent boundary
        // ends the chunk early).
        let mut pos = offset;
        let mut ext_base = first_base;
        for spec in run {
            let ext_len = spec.pages * page;
            let ext_end = ext_base + ext_len;
            while pos < end_byte.min(ext_end) {
                let take = (chunk as u64).min(end_byte.min(ext_end) - pos) as usize;
                let local = (pos - ext_base) as usize;
                self.db
                    .blob_pool
                    .read_chunk(*spec, local, take, |b| sink(n, b))??;
                pos += take as u64;
            }
            ext_base = ext_end;
        }
        debug_assert_eq!(pos, end_byte);
        Ok(n)
    }

    /// Fetch the Blob State (metadata operation; the `fstat` analogue).
    pub fn blob_state(&mut self, rel: &Relation, key: &[u8]) -> Result<Option<BlobState>> {
        self.check_active()?;
        self.lock(rel, key, LockMode::Shared)?;
        // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        self.db.metrics.metadata_ops.fetch_add(1, Ordering::Relaxed);
        rel.tree.lookup_map(key, BlobState::decode)?.transpose()
    }

    fn require_state(&self, rel: &Relation, key: &[u8]) -> Result<BlobState> {
        rel.tree
            .lookup_map(key, BlobState::decode)?
            .transpose()?
            .ok_or(Error::KeyNotFound)
    }

    // --------------------------------------------------- blob delete ----

    /// Delete a BLOB; its extents join the free lists at commit (§III-D).
    pub fn delete_blob(&mut self, rel: &Relation, key: &[u8]) -> Result<()> {
        self.check_active()?;
        debug_assert_eq!(rel.kind, RelationKind::Blob);
        self.lock(rel, key, LockMode::Exclusive)?;
        let old = rel.tree.remove(key)?.ok_or(Error::KeyNotFound)?;
        let state = BlobState::decode(&old)?;
        self.freed.extend(state.extent_specs(&self.db.table));
        self.undo.push(UndoOp::Delete {
            rel: rel.id,
            key: key.to_vec(),
            old: old.clone(),
        });
        self.records.push(LogRecord::Delete {
            txn: self.id,
            relation: rel.id,
            key: key.to_vec(),
            old_value: old,
        });
        Ok(())
    }

    // ---------------------------------------------------- blob grow -----

    /// Append `data` to an existing BLOB (§III-D "Growing a BLOB",
    /// Figure 3). The SHA-256 is *resumed* from the stored midstate; the
    /// existing content is never re-read (except the final partial 64-byte
    /// block and, for tail-extent BLOBs, the cloned tail).
    pub fn append_blob(&mut self, rel: &Relation, key: &[u8], data: &[u8]) -> Result<()> {
        self.check_active()?;
        debug_assert_eq!(rel.kind, RelationKind::Blob);
        self.lock(rel, key, LockMode::Exclusive)?;
        // The blob may be this transaction's own put, still being written.
        self.land_flights()?;
        let old_encoded = rel.tree.lookup(key)?.ok_or(Error::KeyNotFound)?;
        let mut state = BlobState::decode(&old_encoded)?;
        let db = self.db.clone();
        let (geo, table) = (db.geo, db.table.as_ref());
        let old_size = state.size;
        let new_size = old_size + data.len() as u64;

        // Resume the hash before touching extents: we need the old final
        // partial block. Extent boundaries are page-aligned, so the ≤63
        // bytes never straddle extents — one small uncached read, never a
        // whole-extent load (§III-D: growth does not re-read content).
        let inline_old = state.extents.is_empty() && state.tail.is_none();
        let mut hasher = Sha256::resume(state.midstate());
        let boundary = old_size & !63;
        if old_size > boundary {
            if inline_old {
                // Inline blob: old content sits in the prefix (≤ 32 B, so
                // boundary is 0).
                hasher.update(&state.prefix[boundary as usize..old_size as usize]);
            } else {
                let mut partial = vec![0u8; (old_size - boundary) as usize];
                let (spec, byte_off) = locate_extent(&state, table, geo, boundary);
                self.db
                    .blob_pool
                    .read_range_uncached(spec, byte_off, &mut partial)?;
                hasher.update(&partial);
            }
        }
        hasher.update(data);

        // Still fits inline: only the Blob State changes.
        if new_size <= PREFIX_LEN as u64 {
            state.prefix[old_size as usize..new_size as usize].copy_from_slice(data);
            state.size = new_size;
            state.sha_midstate = hasher.midstate().state_bytes();
            state.sha256 = hasher.finalize();
            self.publish_state(rel, key, Some(old_encoded), &state)?;
            self.stage_physlog(rel, key, old_size, data);
            return Ok(());
        }

        // Growing past the inline bound: materialize the old prefix bytes
        // so the extent-filling path writes the full content.
        let combined: Vec<u8>;
        let (fill_data, fill_old) = if inline_old && old_size > 0 {
            let mut v = state.prefix[..old_size as usize].to_vec();
            v.extend_from_slice(data);
            combined = v;
            (combined.as_slice(), 0u64)
        } else {
            (data, old_size)
        };

        // A tail extent cannot grow: clone it into the tier extent of its
        // position first (§III-D).
        if let Some((tpid, tpages)) = state.tail {
            let pos = state.extents.len();
            let clone_spec = self.db.alloc.allocate_tier(pos)?;
            self.allocated.push(clone_spec);
            let covered = geo.bytes_for(table.cumulative_pages(pos));
            let tail_bytes = old_size - covered;
            let tail_content = ExtentSpec::new(tpid, geo.pages_for(tail_bytes));
            let content =
                self.db
                    .blob_pool
                    .read_blob(self.worker, &[tail_content], tail_bytes, |b| b.to_vec())?;
            self.fill_fresh_eager(clone_spec, &content, &mut |_| ())?;
            self.freed.push(ExtentSpec::new(tpid, tpages));
            state.extents.push(clone_spec.start);
            state.tail = None;
        }

        // Fill the free capacity of the existing last extent.
        let mut data_off = 0usize;
        let existing = state.extents.len();
        let cap_bytes = geo.bytes_for(table.cumulative_pages(existing));
        if fill_old < cap_bytes && !fill_data.is_empty() && existing > 0 {
            let pos = existing - 1;
            let covered = geo.bytes_for(table.cumulative_pages(pos));
            let off_in_ext = (fill_old - covered) as usize;
            let take = ((cap_bytes - fill_old) as usize).min(fill_data.len());
            // Only the pages holding prior content need loading; the rest
            // of the extent is free capacity about to be overwritten.
            let valid_pages = off_in_ext.div_ceil(geo.page_size()) as u64;
            let first_dirty = off_in_ext / geo.page_size();
            let last_dirty = (off_in_ext + take).div_ceil(geo.page_size());
            // The extent's content view once this append lands.
            let spec = ExtentSpec::new(state.extents[pos], last_dirty as u64);
            self.db.blob_pool.write_range_partial(
                spec,
                table.size_of(pos),
                off_in_ext,
                &fill_data[..take],
                valid_pages,
            )?;
            self.toflush.push(FlushItem {
                spec,
                dirty_from: first_dirty as u64,
                dirty_pages: (last_dirty - first_dirty) as u64,
            });
            data_off = take;
        }

        // Allocate and fill the new extents.
        let plan = plan_growth(
            table,
            existing,
            table.cumulative_pages(existing),
            geo.pages_for(new_size),
            self.db.cfg.use_tail_extents,
        )?;
        for (i, _) in plan.sizes.iter().enumerate() {
            let spec = self.db.alloc.allocate_tier(plan.first_position + i)?;
            self.allocated.push(spec);
            let ext_bytes = (spec.pages as usize) * geo.page_size();
            let chunk = &fill_data[data_off..fill_data.len().min(data_off + ext_bytes)];
            self.fill_fresh_eager(spec, chunk, &mut |_| ())?;
            state.extents.push(spec.start);
            data_off += chunk.len();
        }
        if let Some(tp) = plan.tail_pages {
            let spec = self.db.alloc.allocate_tail(tp)?;
            self.allocated.push(spec);
            let chunk = &fill_data[data_off..];
            self.fill_fresh_eager(spec, chunk, &mut |_| ())?;
            state.tail = Some((spec.start, tp));
            data_off += chunk.len();
        }
        debug_assert_eq!(data_off, fill_data.len());

        // Refresh the metadata.
        if old_size < PREFIX_LEN as u64 {
            let need = (PREFIX_LEN as u64 - old_size) as usize;
            let n = need.min(data.len());
            state.prefix[old_size as usize..old_size as usize + n].copy_from_slice(&data[..n]);
        }
        state.size = new_size;
        state.sha_midstate = hasher.midstate().state_bytes();
        state.sha256 = hasher.finalize();

        self.publish_state(rel, key, Some(old_encoded), &state)?;
        self.stage_physlog(rel, key, old_size, data);
        Ok(())
    }

    /// Shrink an existing BLOB to `new_size` bytes (the inverse of
    /// [`Txn::append_blob`]). The surviving content stays in place: the
    /// minimal prefix of the tier-extent sequence that still covers
    /// `new_size` is kept and every extent beyond it joins the free lists at
    /// commit. Only the metadata is rewritten — except the SHA-256, which
    /// cannot be "un-resumed" and is recomputed over the surviving bytes.
    pub fn truncate_blob(&mut self, rel: &Relation, key: &[u8], new_size: u64) -> Result<()> {
        self.check_active()?;
        debug_assert_eq!(rel.kind, RelationKind::Blob);
        self.lock(rel, key, LockMode::Exclusive)?;
        let old_encoded = rel.tree.lookup(key)?.ok_or(Error::KeyNotFound)?;
        let mut state = BlobState::decode(&old_encoded)?;
        if new_size > state.size {
            return Err(Error::InvalidArgument(
                "truncate_blob cannot grow; use append_blob".into(),
            ));
        }
        if new_size == state.size {
            return Ok(());
        }

        let geo = self.db.geo;
        let table = &self.db.table;

        // Hash the surviving prefix first, while the old extent sequence is
        // still intact.
        let content = if new_size == 0 {
            Vec::new()
        } else {
            self.read_slice(&state, 0, new_size as usize)?
        };
        let mut hasher = Sha256::new();
        hasher.update(&content);

        // Keep the minimal prefix of tier extents covering `new_size`.
        let covered_by_tiers = geo.bytes_for(table.cumulative_pages(state.extents.len()));
        if new_size <= covered_by_tiers {
            // The tail (if any) is now entirely beyond the size: free it.
            if let Some((tpid, tpages)) = state.tail.take() {
                self.freed.push(ExtentSpec::new(tpid, tpages));
            }
            let mut keep = 0usize;
            while geo.bytes_for(table.cumulative_pages(keep)) < new_size {
                keep += 1;
            }
            for (pos, &pid) in state.extents.iter().enumerate().skip(keep) {
                self.freed.push(ExtentSpec::new(pid, table.size_of(pos)));
            }
            state.extents.truncate(keep);
        }
        // else: the new size still reaches into the tail extent — every
        // extent survives; the tail keeps its (now oversized) page count.

        state.size = new_size;
        state.sha_midstate = hasher.midstate().state_bytes();
        state.sha256 = hasher.finalize();
        state.prefix = BlobState::make_prefix(&content);
        // The surviving last extent now holds fewer content pages than a
        // resident copy may frame.
        if let Some(last) = self.content_specs(&state).last() {
            self.db.blob_pool.trim_extent(*last);
        }

        self.publish_state(rel, key, Some(old_encoded), &state)?;
        Ok(())
    }

    /// Read `len` bytes at blob offset `off` (within existing content);
    /// loads only the covering extents.
    ///
    /// (See also `locate_extent` for single-extent addressing.)
    fn read_slice(&self, state: &BlobState, off: u64, len: usize) -> Result<Vec<u8>> {
        let mut out = vec![0u8; len];
        let n = self.read_state_range(state, off, &mut out, false)?;
        debug_assert_eq!(n, len, "read_slice must stay within the blob");
        Ok(out)
    }

    // -------------------------------------------------- blob update -----

    /// Overwrite `data` at `offset` within an existing BLOB (no size
    /// change). Each touched extent independently uses delta logging or
    /// extent cloning, whichever writes fewer bytes (§III-D).
    pub fn update_blob(
        &mut self,
        rel: &Relation,
        key: &[u8],
        offset: u64,
        data: &[u8],
    ) -> Result<()> {
        self.check_active()?;
        debug_assert_eq!(rel.kind, RelationKind::Blob);
        self.lock(rel, key, LockMode::Exclusive)?;
        // The blob may be this transaction's own put, still being written.
        self.land_flights()?;
        let old_encoded = rel.tree.lookup(key)?.ok_or(Error::KeyNotFound)?;
        let mut state = BlobState::decode(&old_encoded)?;
        if offset + data.len() as u64 > state.size {
            return Err(Error::InvalidArgument(
                "update range exceeds blob size (use append_blob to grow)".into(),
            ));
        }
        let geo = self.db.geo;
        let page = geo.page_size();

        // Inline blob: the content IS the Blob State's prefix — patch it,
        // rehash, rewrite the record. One WAL record, zero content I/O.
        if state.extents.is_empty() && state.tail.is_none() {
            let mut content = state.prefix[..state.size as usize].to_vec();
            content[offset as usize..offset as usize + data.len()].copy_from_slice(data);
            let mut hasher = Sha256::new();
            hasher.update(&content);
            state.sha_midstate = hasher.midstate().state_bytes();
            state.sha256 = hasher.finalize();
            state.prefix = BlobState::make_prefix(&content);
            self.publish_state(rel, key, Some(old_encoded), &state)?;
            self.stage_physlog(rel, key, offset, data);
            return Ok(());
        }

        // Walk the extents overlapping [offset, offset+len), by content:
        // an extent's cloning cost is what it holds, not what it reserves.
        let specs = self.content_specs(&state);
        let mut ext_base = 0u64; // byte offset of the extent within the blob
        for (i, spec) in specs.iter().enumerate() {
            let ext_bytes = spec.pages * page as u64;
            let ext_end = ext_base + ext_bytes;
            let lo = offset.max(ext_base);
            let hi = (offset + data.len() as u64).min(ext_end);
            if lo < hi {
                let local_off = (lo - ext_base) as usize;
                let slice = &data[(lo - offset) as usize..(hi - offset) as usize];
                let overlap = slice.len();

                // Modeled costs: delta writes the new bytes twice (WAL +
                // extent); cloning writes the old extent content once more.
                if 2 * overlap as u64 <= ext_bytes {
                    let before = self.read_slice(&state, lo, overlap)?;
                    self.records.push(LogRecord::BlobDelta {
                        txn: self.id,
                        relation: rel.id,
                        key: key.to_vec(),
                        byte_offset: lo,
                        before: before.clone(),
                        after: slice.to_vec(),
                    });
                    self.undo.push(UndoOp::BlobBytes {
                        spec: *spec,
                        byte_off_in_extent: local_off,
                        before,
                    });
                    self.db
                        .blob_pool
                        .write_range(*spec, local_off, slice, true)?;
                    let first = local_off / page;
                    let last = (local_off + overlap).div_ceil(page);
                    self.toflush.push(FlushItem {
                        spec: *spec,
                        dirty_from: first as u64,
                        dirty_pages: (last - first) as u64,
                    });
                } else {
                    // Clone: copy the extent, patch it, swap the pointer.
                    // The old and new placements are sized by allocation.
                    let (clone_spec, old_spec) = match state.tail {
                        Some((tpid, tpages)) if i == state.extents.len() => (
                            self.db.alloc.allocate_tail(tpages)?,
                            ExtentSpec::new(tpid, tpages),
                        ),
                        _ => (
                            self.db.alloc.allocate_tier(i)?,
                            ExtentSpec::new(spec.start, self.db.table.size_of(i)),
                        ),
                    };
                    let is_tail = i == state.extents.len();
                    self.allocated.push(clone_spec);
                    let live = (state.size - ext_base).min(ext_bytes);
                    let mut content =
                        self.db
                            .blob_pool
                            .read_blob(self.worker, &[*spec], live, |b| b.to_vec())?;
                    content[local_off..local_off + overlap].copy_from_slice(slice);
                    self.fill_fresh_eager(clone_spec, &content, &mut |_| ())?;
                    self.freed.push(old_spec);
                    if is_tail {
                        state.tail = Some((clone_spec.start, clone_spec.pages));
                    } else {
                        state.extents[i] = clone_spec.start;
                    }
                }
            }
            ext_base = ext_end;
            if ext_base >= offset + data.len() as u64 {
                break;
            }
        }

        // Content changed: recompute the hash over the full object (growth
        // is the only op with a cheap incremental path, §III-D).
        let specs = self.content_specs(&state);
        let mut hasher = Sha256::new();
        self.db
            .blob_pool
            .for_each_extent::<()>(&specs, state.size, |chunk| {
                hasher.update(chunk);
                None
            })?;
        state.sha_midstate = hasher.midstate().state_bytes();
        state.sha256 = hasher.finalize();
        if offset < PREFIX_LEN as u64 {
            let n = ((PREFIX_LEN as u64 - offset) as usize).min(data.len());
            state.prefix[offset as usize..offset as usize + n].copy_from_slice(&data[..n]);
        }

        self.publish_state(rel, key, Some(old_encoded), &state)?;
        Ok(())
    }

    // ---------------------------------------------- blob relocation -----

    /// Move a BLOB's content to a freshly allocated placement without
    /// changing a single byte of it — the defragmenter's core primitive.
    ///
    /// Protocol (crash-safe at every instant, see DESIGN.md §5g):
    ///  1. exclusive key lock — waits out every in-flight reader, so no
    ///     `get_blob`/`stream_blob_range` can span the swap;
    ///  2. allocate the new tier sequence and copy the old placement into
    ///     it through non-evicting reads, re-hashing in the same pass (the
    ///     piggybacked scrub);
    ///  3. quarantine-fence the old extents, swap the Blob State in the
    ///     tree, and stage a [`LogRecord::BlobRelocate`];
    ///  4. commit rides the ordinary group-commit pipeline — the new
    ///     placement is written after the WAL fsync like any in-place
    ///     change; background maintenance starts no device write early —
    ///     and the fences are released and the old extents freed only at
    ///     the durability frontier (`StageCtx::retire`).
    ///
    /// Returns `false` when there is nothing to move (missing key, inline
    /// blob, or quarantined blob). A hash mismatch during the copy
    /// quarantines the blob (degradation ladder) and fails the
    /// transaction; the caller must abort, which discards the new
    /// placement and lifts nothing that matters — the old placement was
    /// never unpublished.
    pub fn relocate_blob(&mut self, rel: &Relation, key: &[u8]) -> Result<bool> {
        self.check_active()?;
        debug_assert_eq!(rel.kind, RelationKind::Blob);
        self.lock(rel, key, LockMode::Exclusive)?;
        let Some(old_encoded) = rel.tree.lookup(key)? else {
            return Ok(false);
        };
        let state = BlobState::decode(&old_encoded)?;
        if state.extents.is_empty() && state.tail.is_none() {
            return Ok(false); // inline: no placement to improve
        }
        if self.db.is_blob_quarantined(&rel.name, key) {
            return Ok(false); // evidence stays put; never move a suspect
        }
        let old_specs = state.extent_specs(&self.db.table);
        let geo = self.db.geo;

        // Same size ⇒ same tier-sequence shape for the new placement.
        let pages = geo.pages_for(state.size);
        let plan = plan_sequence(&self.db.table, pages, state.tail.is_some())?;

        // Copy old → new through the defrag source guard: resident source
        // extents are leased (stable frame reads), cold ones are read
        // uncached from the device — the copy never faults data into the
        // pool or evicts anything hot. Hashing rides the same pass.
        let db = self.db.clone();
        let src = crate::defrag::SourceGuard::new(&db.blob_pool, &self.content_specs(&state));
        let mut hasher = Sha256::new();
        let mut extents = Vec::with_capacity(plan.sizes.len());
        let mut off = 0u64;
        for (i, _) in plan.sizes.iter().enumerate() {
            let spec = self.db.alloc.allocate_tier(plan.first_position + i)?;
            self.allocated.push(spec);
            let ext_bytes = (spec.pages as usize) * geo.page_size();
            let len = ((state.size - off) as usize).min(ext_bytes);
            let mut buf = vec![0u8; len];
            read_blob_window(&self.db, &state, off, &mut buf)?;
            let item = self.fill_fresh(spec, &buf, &mut |b| hasher.update(b))?;
            self.toflush.push(item);
            extents.push(spec.start);
            off += len as u64;
        }
        let tail = match plan.tail_pages {
            Some(tp) => {
                let spec = self.db.alloc.allocate_tail(tp)?;
                self.allocated.push(spec);
                let len = (state.size - off) as usize;
                let mut buf = vec![0u8; len];
                read_blob_window(&self.db, &state, off, &mut buf)?;
                let item = self.fill_fresh(spec, &buf, &mut |b| hasher.update(b))?;
                self.toflush.push(item);
                off += len as u64;
                Some((spec.start, tp))
            }
            None => None,
        };
        drop(src);
        debug_assert_eq!(off, state.size);

        // Piggybacked scrub: the copy re-hashed every byte of the old
        // placement. A mismatch means the *source* is rotten — feed the
        // verify-on-read degradation ladder and fail the relocation (the
        // caller's abort discards the new placement; the old one was
        // never unpublished, so the evidence is intact under its fence).
        let sha_midstate = hasher.midstate().state_bytes();
        let digest = hasher.finalize();
        // ordering: relaxed metrics counters; snapshot readers tolerate staleness
        self.db.metrics.scrub_blobs.fetch_add(1, Ordering::Relaxed);
        self.db
            .metrics
            .scrub_bytes
            // ordering: relaxed metrics counter; snapshot readers tolerate staleness
            .fetch_add(state.size, Ordering::Relaxed);
        if digest != state.sha256 {
            self.db
                .metrics
                .scrub_failures
                // ordering: relaxed metrics counter; snapshot readers tolerate staleness
                .fetch_add(1, Ordering::Relaxed);
            self.db.quarantine_blob(rel, key, &old_specs);
            return Err(Error::Corruption(format!(
                "relocation scrub: blob {:?} content does not match its Blob State SHA-256",
                String::from_utf8_lossy(key)
            )));
        }

        let new_state = BlobState {
            size: state.size,
            sha256: digest,
            sha_midstate,
            prefix: state.prefix,
            tail,
            extents,
        };
        let encoded = new_state.encode();

        // Fence the old placement *before* publishing the swap: once the
        // tree points at the new placement no new reader resolves the old
        // extents, and the fence keeps the allocator from re-issuing them
        // while the swap's durability is still unknown. The guard lifts
        // the fences again if staging fails below.
        let fence = crate::defrag::FenceGuard::new(&self.db.alloc, old_specs);
        rel.tree.insert(key, &encoded, true)?;
        self.undo.push(UndoOp::Update {
            rel: rel.id,
            key: key.to_vec(),
            old: old_encoded.clone(),
        });
        self.records.push(LogRecord::BlobRelocate {
            txn: self.id,
            relation: rel.id,
            key: key.to_vec(),
            old_value: old_encoded,
            new_value: encoded,
        });
        self.refenced.extend(fence.disarm());
        // ordering: relaxed metrics counters; snapshot readers tolerate staleness
        self.db
            .metrics
            .defrag_relocations
            // ordering: relaxed metrics counter; snapshot readers tolerate staleness
            .fetch_add(1, Ordering::Relaxed);
        self.db
            .metrics
            .defrag_bytes_moved
            // ordering: relaxed metrics counter; snapshot readers tolerate staleness
            .fetch_add(state.size, Ordering::Relaxed);
        Ok(true)
    }

    /// Re-hash `key`'s content against its Blob State SHA-256 under a
    /// shared lock — the background scrubber's unit of work. Reads are
    /// non-evicting (same contract as relocation copies). Returns
    /// `Ok(None)` when there is nothing to check (missing key or already
    /// quarantined); `Ok(Some(false))` quarantines the blob.
    pub fn scrub_blob(&mut self, rel: &Relation, key: &[u8]) -> Result<Option<bool>> {
        self.check_active()?;
        debug_assert_eq!(rel.kind, RelationKind::Blob);
        self.lock(rel, key, LockMode::Shared)?;
        let Some(state) = rel.tree.lookup_map(key, BlobState::decode)?.transpose()? else {
            return Ok(None);
        };
        if self.db.is_blob_quarantined(&rel.name, key) {
            return Ok(None);
        }
        let mut hasher = Sha256::new();
        if state.extents.is_empty() && state.tail.is_none() {
            hasher.update(&state.prefix[..state.size as usize]);
        } else {
            let src =
                crate::defrag::SourceGuard::new(&self.db.blob_pool, &self.content_specs(&state));
            let mut buf = vec![0u8; (256 << 10).min(state.size as usize)];
            let mut off = 0u64;
            while off < state.size {
                let take = ((state.size - off) as usize).min(buf.len());
                read_blob_window(&self.db, &state, off, &mut buf[..take])?;
                hasher.update(&buf[..take]);
                off += take as u64;
            }
            drop(src);
        }
        let ok = hasher.finalize() == state.sha256;
        // ordering: relaxed metrics counters; snapshot readers tolerate staleness
        self.db.metrics.scrub_blobs.fetch_add(1, Ordering::Relaxed);
        self.db
            .metrics
            .scrub_bytes
            // ordering: relaxed metrics counter; snapshot readers tolerate staleness
            .fetch_add(state.size, Ordering::Relaxed);
        if !ok {
            self.db
                .metrics
                .scrub_failures
                // ordering: relaxed metrics counter; snapshot readers tolerate staleness
                .fetch_add(1, Ordering::Relaxed);
            self.db
                .quarantine_blob(rel, key, &state.extent_specs(&self.db.table));
        }
        Ok(Some(ok))
    }

    // --------------------------------------------------------- scans ----

    /// Visit Blob States in key order starting at `from` (used by the
    /// metadata experiment, Figure 7).
    pub fn scan_states(
        &mut self,
        rel: &Relation,
        from: &[u8],
        mut f: impl FnMut(&[u8], &BlobState) -> bool,
    ) -> Result<()> {
        self.check_active()?;
        // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        self.db.metrics.metadata_ops.fetch_add(1, Ordering::Relaxed);
        rel.tree.scan_from(from, |k, v| match BlobState::decode(v) {
            Ok(state) => f(k, &state),
            Err(_) => false,
        })
    }

    // -------------------------------------------------- commit/abort ----

    /// Commit: WAL fsync first (Blob State durable), then every content
    /// write that had to wait for it; durable once those and the writes of
    /// fresh extents started during the transaction have landed, then
    /// extent recycling.
    ///
    /// With [`crate::Config::commit_wait`] `false`, the durability work is
    /// handed to the background group committer and this returns
    /// immediately (§V-A's group-commit configuration).
    pub fn commit(self) -> Result<()> {
        let m = self.db.metrics.clone();
        let t = m.latencies.timer();
        let r = self.commit_inner();
        m.latencies.commit.record_timer(t);
        r
    }

    fn commit_inner(mut self) -> Result<()> {
        self.check_active()?;
        let db = self.db.clone();
        db.metrics
            .extent_allocs
            .fetch_add(self.allocated.len() as u64, Ordering::Relaxed); // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        if !self.records.is_empty() {
            self.records.push(LogRecord::TxnCommit { txn: self.id });
        }
        if self.has_writes() {
            // Both commit modes ride the same two-stage pipeline (sharing
            // its group fsync and in-flight extent flushes); they differ
            // only in whether this thread blocks on the batch's durability
            // epoch before acknowledging.
            let epoch = db.committer.submit(self.take_batch())?;
            if db.cfg.commit_wait {
                db.committer.wait_for(epoch)?;
            }
        }
        db.locks.release_all(self.id, self.lock_shards);
        // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        db.metrics.txn_commits.fetch_add(1, Ordering::Relaxed);
        self.state = TxnState::Committed;
        db.maybe_checkpoint()?;
        Ok(())
    }

    /// Move everything this transaction staged for the commit pipeline
    /// into one batch. A transaction that started writing early submits
    /// its remaining fresh extents the same way, so that no small write is
    /// left waiting for the fsync; one that never did hands them over with
    /// the rest (as does one whose submission fails: the pipeline owns the
    /// retry).
    fn take_batch(&mut self) -> CommitBatch {
        if self.flights.is_empty() || self.fresh.is_empty() || self.submit_fresh().is_err() {
            self.toflush.append(&mut self.fresh);
        }
        CommitBatch {
            records: std::mem::take(&mut self.records),
            toflush: std::mem::take(&mut self.toflush),
            flights: std::mem::take(&mut self.flights),
            freed: std::mem::take(&mut self.freed),
            refenced: std::mem::take(&mut self.refenced),
        }
    }

    /// Whether this transaction staged anything that needs the commit
    /// pipeline (log records, extent flushes, or recycling). Read-only
    /// participants of a cross-shard transaction commit locally and are
    /// excluded from the participant mask.
    pub(crate) fn has_writes(&self) -> bool {
        !self.records.is_empty()
            || !self.toflush.is_empty()
            || !self.fresh.is_empty()
            || !self.flights.is_empty()
            || !self.freed.is_empty()
            || !self.refenced.is_empty()
    }

    /// Commit this transaction as one shard's slice of a cross-shard
    /// global transaction `gtxn`: a [`LogRecord::TxnCrossCommit`] marker
    /// (never a local `TxnCommit`) is appended and the batch is handed to
    /// this shard's group committer. Returns the shard's durability epoch
    /// *without waiting on it* — the sharded layer collects every
    /// participant's epoch and the global transaction is durable iff every
    /// shard's stage-1 WAL fsync covers its epoch.
    ///
    /// Locks are released at submission, exactly like the asynchronous
    /// local commit path; recovery's all-or-nothing decision rests on the
    /// marker set, not on runtime lock state.
    pub(crate) fn commit_cross(mut self, gtxn: u64, shard: u32, mask: u64) -> Result<u64> {
        self.check_active()?;
        let db = self.db.clone();
        db.metrics
            .extent_allocs
            .fetch_add(self.allocated.len() as u64, Ordering::Relaxed); // ordering: relaxed metrics counter; snapshot readers tolerate staleness

        // The marker rides even when only flushes/frees are staged: every
        // participant named in `mask` must be able to produce it on
        // recovery, or the global transaction is decided aborted.
        self.records.push(LogRecord::TxnCrossCommit {
            txn: self.id,
            gtxn,
            shard,
            mask,
        });
        let epoch = db.committer.submit(self.take_batch())?;
        db.locks.release_all(self.id, self.lock_shards);
        // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        db.metrics.txn_commits.fetch_add(1, Ordering::Relaxed);
        self.state = TxnState::Committed;
        Ok(epoch)
    }

    /// Roll back every change of this transaction.
    pub fn abort(mut self) {
        self.rollback();
    }

    fn rollback(&mut self) {
        if self.state != TxnState::Active {
            return;
        }
        self.state = TxnState::Aborted;
        let db = self.db.clone();
        // Eager writes land first: their tickets latch frames the undo may
        // write and the discard below drops.
        let _ = self.land_flights();
        // Reverse logical undo.
        for op in self.undo.drain(..).rev() {
            let result = match op {
                UndoOp::Insert { rel, key } => db
                    .relation_by_id(rel)
                    .map(|r| r.tree.remove(&key).map(drop))
                    .unwrap_or(Ok(())),
                UndoOp::Update { rel, key, old } | UndoOp::Delete { rel, key, old } => db
                    .relation_by_id(rel)
                    .map(|r| r.tree.insert(&key, &old, true).map(drop))
                    .unwrap_or(Ok(())),
                UndoOp::BlobBytes {
                    spec,
                    byte_off_in_extent,
                    before,
                } => db
                    .blob_pool
                    .write_range(spec, byte_off_in_extent, &before, true),
            };
            debug_assert!(result.is_ok(), "undo must not fail");
        }
        // Fresh allocations are discarded; what reached the device early is
        // unreferenced garbage on pages that go back to the allocator.
        self.fresh.clear();
        db.blob_pool.drop_extents(&self.allocated);
        for spec in self.allocated.drain(..) {
            db.alloc.free_extent(spec);
        }
        // Freed extents were only staged; nothing to do.
        self.freed.clear();
        // Relocation fences are lifted *without* freeing: after undo the
        // old placement is the live one again.
        for spec in self.refenced.drain(..) {
            db.alloc.release_quarantine(spec);
        }
        if !self.records.is_empty() {
            // A durable abort record is unnecessary for correctness (no
            // earlier record of this txn was flushed), but harmless and
            // useful for log analytics.
            let _ = db.wal.append_batch(&[LogRecord::TxnAbort { txn: self.id }]);
        }
        db.locks.release_all(self.id, self.lock_shards);
        // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        db.metrics.txn_aborts.fetch_add(1, Ordering::Relaxed);
    }
}

impl Drop for Txn {
    fn drop(&mut self) {
        self.rollback();
    }
}

/// Read the blob byte window `[off, off + buf.len())` of `state`'s
/// current placement through non-evicting uncached reads, crossing
/// extent boundaries as needed (old and new placements need not share a
/// tier-sequence shape, e.g. after appends).
pub(crate) fn read_blob_window(
    db: &Database,
    state: &BlobState,
    mut off: u64,
    buf: &mut [u8],
) -> Result<()> {
    let page = db.geo.page_size();
    let mut done = 0usize;
    while done < buf.len() {
        let (spec, in_ext) = locate_extent(state, &db.table, db.geo, off);
        let avail = (spec.pages as usize) * page - in_ext;
        let take = avail.min(buf.len() - done);
        db.blob_pool
            .read_range_uncached(spec, in_ext, &mut buf[done..done + take])?;
        done += take;
        off += take as u64;
    }
    Ok(())
}

/// The extent (content view) containing blob byte `off`, and the byte
/// offset within it.
fn locate_extent(
    state: &BlobState,
    table: &lobster_extent::TierTable,
    geo: Geometry,
    off: u64,
) -> (ExtentSpec, usize) {
    let mut base = 0u64;
    for spec in state.content_specs(table, geo) {
        let next = base + geo.bytes_for(spec.pages);
        if off < next {
            return (spec, (off - base) as usize);
        }
        base = next;
    }
    unreachable!("offset {off} beyond the blob's content");
}

/// The run of `specs` covering blob bytes `[offset, end)`: indices
/// `first..last`, and the blob byte offset at which extent `first` starts.
/// `offset` must lie inside the content `specs` describes.
fn covering_run(specs: &[ExtentSpec], geo: Geometry, offset: u64, end: u64) -> (usize, usize, u64) {
    let mut first = None;
    let mut last = specs.len();
    let mut base = 0u64;
    for (i, spec) in specs.iter().enumerate() {
        if base >= end {
            last = i;
            break;
        }
        let next = base + geo.bytes_for(spec.pages);
        if first.is_none() && next > offset {
            first = Some((i, base));
        }
        base = next;
    }
    debug_assert!(first.is_some(), "offset < size implies a covering extent");
    let (first, first_base) = first.unwrap_or((0, 0));
    (first, last, first_base)
}
