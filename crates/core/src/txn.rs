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
//!
//! Reads come in two shapes. [`Txn::get_blob`] presents the whole BLOB as
//! one contiguous slice (`BlobPool::read_blob`: aliased from
//! `lobster_buffer::ALIAS_MIN_BYTES` up, §IV-B, copied out of the frames
//! below). Everything else — [`Txn::get_blob_range`],
//! [`Txn::stream_blob_range`], the before-images and clone sources of the
//! write verbs, every rehash — is a caller of the one ranged read in
//! [`crate::content`], which walks the one addressing function
//! (`lobster_extent::pieces`); a new placement is laid out in one place
//! too, [`Txn::fill_plan`].
//!
//! There is no separate undo log: the staged [`LogRecord`]s carry the
//! before-images, and a rollback walks them backwards through
//! `recovery::undo_record`, the function restart recovery applies to the
//! records of a transaction that did not commit.

use crate::blob_state::{BlobState, PREFIX_LEN};
use crate::catalog::{Relation, RelationKind};
use crate::content::{self, Residency};
use crate::db::{BlobLogging, Database};
use crate::defrag::{FenceGuard, SourceGuard};
use crate::group_commit::CommitBatch;
use crate::lock::LockMode;
use lobster_buffer::{FlushItem, FlushTicket, PinGate};
use lobster_extent::{pieces, plan_growth, plan_sequence, ExtentSpec, SequencePlan};
use lobster_sha256::Sha256;
use lobster_sync::atomic::Ordering;
use lobster_sync::Arc;
use lobster_types::{Error, Pid, Result};
use lobster_wal::LogRecord;
use std::time::Duration;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TxnState {
    Active,
    Committed,
    Aborted,
}

/// Where [`Txn::fill_plan`] takes the bytes of a new placement from.
enum Source<'a> {
    /// The caller's buffer (put, append): content nothing durable
    /// references until the commit, so its write may start before it.
    Bytes(&'a [u8]),
    /// The whole content of a BLOB being relocated, read from its current
    /// placement without forcing residency. Background maintenance starts
    /// no device write early: the copy is flushed after the WAL fsync.
    Placement(&'a BlobState),
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
    /// Staged log records. They are also the undo log: a rollback walks
    /// them backwards (`recovery::undo_record`).
    records: Vec<LogRecord>,
    /// The records once handed to the commit pipeline, which appends them
    /// while this transaction may still have to walk them: a commit that
    /// fails after submission rolls back like any other.
    submitted: Option<Arc<Vec<LogRecord>>>,
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
            submitted: None,
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

    // ------------------------------------------------------ kv rows -----

    /// Insert or overwrite a plain key/value row.
    pub fn put_kv(&mut self, rel: &Relation, key: &[u8], value: &[u8]) -> Result<()> {
        self.check_active()?;
        debug_assert_eq!(rel.kind, RelationKind::Kv);
        self.lock(rel, key, LockMode::Exclusive)?;
        let record = match rel.tree.upsert(key, value)? {
            Some(old_value) => LogRecord::Update {
                txn: self.id,
                relation: rel.id,
                key: key.to_vec(),
                old_value,
                new_value: value.to_vec(),
            },
            None => LogRecord::Insert {
                txn: self.id,
                relation: rel.id,
                key: key.to_vec(),
                value: value.to_vec(),
            },
        };
        self.records.push(record);
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
        let Some(old_value) = rel.tree.remove(key)? else {
            return Ok(false);
        };
        self.records.push(LogRecord::Delete {
            txn: self.id,
            relation: rel.id,
            key: key.to_vec(),
            old_value,
        });
        Ok(true)
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

        // Reserve the smallest extent sequence, write content into buffer
        // frames (pinned + dirty), and hash in the same pass.
        let pages = self.db.geo.pages_for(data.len() as u64);
        let plan = plan_sequence(&self.db.table, pages, self.db.cfg.use_tail_extents)?;
        let mut hasher = Sha256::new();
        let mut extents = Vec::with_capacity(plan.sizes.len());
        let source = Source::Bytes(data);
        let tail = self.fill_plan(&plan, source, &mut |b| hasher.update(b), &mut extents)?;

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
    /// tree and stage the WAL record. `old` is the encoded state it
    /// replaces, `None` for a fresh key.
    fn publish_state(
        &mut self,
        rel: &Relation,
        key: &[u8],
        old: Option<Vec<u8>>,
        new: &BlobState,
    ) -> Result<()> {
        let encoded = new.encode();
        rel.tree.insert(key, &encoded, old.is_some())?;
        self.records.push(match old {
            None => LogRecord::Insert {
                txn: self.id,
                relation: rel.id,
                key: key.to_vec(),
                value: encoded,
            },
            Some(old_value) => LogRecord::Update {
                txn: self.id,
                relation: rel.id,
                key: key.to_vec(),
                old_value,
                new_value: encoded,
            },
        });
        Ok(())
    }

    /// Allocate `plan`'s extents in sequence order — the tier extents, then
    /// the tail — and fill each with the next bytes of `source`, feeding
    /// every byte written to `digest`. The head pages of the tier extents
    /// are pushed onto `extents` and the tail is returned, ready for a Blob
    /// State. The one place a new placement is laid out: put, append
    /// growth and relocation differ only in `source`.
    fn fill_plan(
        &mut self,
        plan: &SequencePlan,
        source: Source<'_>,
        digest: &mut dyn FnMut(&[u8]),
        extents: &mut Vec<Pid>,
    ) -> Result<Option<(Pid, u64)>> {
        let total = match source {
            Source::Bytes(data) => data.len(),
            Source::Placement(state) => state.size as usize,
        };
        let mut tail = None;
        let mut off = 0usize;
        for i in 0..plan.sizes.len() + usize::from(plan.tail_pages.is_some()) {
            let spec = match plan.tail_pages {
                Some(pages) if i == plan.sizes.len() => self.db.alloc.allocate_tail(pages)?,
                _ => self.db.alloc.allocate_tier(plan.first_position + i)?,
            };
            self.allocated.push(spec);
            let len = (total - off).min(self.db.geo.bytes_for(spec.pages) as usize);
            match source {
                Source::Bytes(data) => {
                    self.fill_fresh_eager(spec, &data[off..off + len], digest)?
                }
                Source::Placement(state) => {
                    let buf = self.read_slice(state, off as u64, len, Residency::Uncached)?;
                    let item = self.fill_fresh(spec, &buf, digest)?;
                    self.toflush.push(item);
                }
            }
            off += len;
            if i < plan.sizes.len() {
                extents.push(spec.start);
            } else {
                tail = Some((spec.start, spec.pages));
            }
        }
        debug_assert_eq!(off, total);
        Ok(tail)
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

    /// Read the whole BLOB as one contiguous slice: zero-copy for a single
    /// extent or a BLOB large enough to alias, copied out of the frames
    /// otherwise (`BlobPool::read_blob`).
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

    /// `Config::verify_reads` read path: hash the BLOB's view against the
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
    /// (Listing 1): the copy into `buf`, piece by piece out of the pool's
    /// frames, is the application's own buffer copy. Only the extents
    /// intersecting the range are touched — a 4 KB `pread` into a 1 GB BLOB
    /// loads one extent, not the BLOB.
    pub fn get_blob_range(
        &mut self,
        rel: &Relation,
        key: &[u8],
        offset: u64,
        buf: &mut [u8],
    ) -> Result<usize> {
        let t = self.db.metrics.latencies.timer();
        let (len, mut done) = (buf.len() as u64, 0usize);
        let how = self.foreground(false, None);
        let r = self.read_locked(rel, key, offset, len, usize::MAX, how, &mut |_, b| {
            buf[done..done + b.len()].copy_from_slice(b);
            done += b.len();
            Ok(())
        });
        self.db.metrics.latencies.get_blob_range.record_timer(t);
        r.map(|n| n as usize)
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
    /// across calls; a chunk ends early at an extent boundary); the lease
    /// itself is advisory, so a slow client holds pool *budget*, never a
    /// latch. If `gate` is given, the run's pinned footprint is acquired
    /// from it first — `Error::BufferFull` on timeout means the pin budget
    /// is exhausted and the caller should shed load (BUSY). Leases and gate
    /// budget are released when the stream ends, **including on an early
    /// `sink` error** (client disconnect mid-stream).
    #[allow(clippy::too_many_arguments)]
    pub fn stream_blob_range(
        &mut self,
        rel: &Relation,
        key: &[u8],
        offset: u64,
        len: u64,
        chunk: usize,
        gate: Option<(&PinGate, Duration)>,
        sink: &mut dyn FnMut(u64, &[u8]) -> Result<()>,
    ) -> Result<u64> {
        let how = self.foreground(true, gate);
        self.read_locked(rel, key, offset, len, chunk, how, sink)
    }

    /// This worker's foreground access (see [`Residency::Foreground`]).
    fn foreground<'a>(&self, lease: bool, gate: Option<(&'a PinGate, Duration)>) -> Residency<'a> {
        Residency::Foreground {
            worker: self.worker,
            lease,
            gate,
        }
    }

    /// The ranged read behind [`Txn::get_blob_range`] and
    /// [`Txn::stream_blob_range`]: resolve `key` once under a shared lock,
    /// clamp the range at the BLOB size, and hand it to the one ranged
    /// read as a foreground access — the covering extents faulted as one
    /// batch, readahead past them only on evidence of a sequential reader
    /// (`how`, a [`Residency::Foreground`]).
    #[allow(clippy::too_many_arguments)]
    fn read_locked(
        &mut self,
        rel: &Relation,
        key: &[u8],
        offset: u64,
        len: u64,
        chunk: usize,
        how: Residency<'_>,
        sink: &mut dyn FnMut(u64, &[u8]) -> Result<()>,
    ) -> Result<u64> {
        self.check_active()?;
        self.lock(rel, key, LockMode::Shared)?;
        let state = self.require_state(rel, key)?;
        let n = len.min(state.size.saturating_sub(offset));
        let range = offset..offset.saturating_add(n);
        content::read_range(&self.db, &state, range, chunk, how, &mut |b| sink(n, b))?;
        Ok(n)
    }

    /// `len` bytes of `state`'s content at `offset`, copied out.
    fn read_slice(
        &self,
        state: &BlobState,
        offset: u64,
        len: usize,
        residency: Residency<'_>,
    ) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(len);
        let range = offset..offset + len as u64;
        content::read_range(&self.db, state, range, usize::MAX, residency, &mut |b| {
            out.extend_from_slice(b);
            Ok(())
        })?;
        Ok(out)
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
        // bytes never straddle extents — one small uncached read (none at
        // all while the content still fits the prefix), never a
        // whole-extent load (§III-D: growth does not re-read content).
        let inline_old = state.extents.is_empty() && state.tail.is_none();
        let mut hasher = Sha256::resume(state.midstate());
        let last_block = (old_size & !63)..old_size;
        let uncached = Residency::Uncached;
        content::read_range(&db, &state, last_block, usize::MAX, uncached, &mut |b| {
            hasher.update(b);
            Ok(())
        })?;
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
            let content = self.read_slice(
                &state,
                covered,
                (old_size - covered) as usize,
                Residency::Cached,
            )?;
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
        let source = Source::Bytes(&fill_data[data_off..]);
        state.tail = self.fill_plan(&plan, source, &mut |_| (), &mut state.extents)?;

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

        // Keep the minimal prefix of tier extents covering `new_size`.
        let mut freed = Vec::new();
        let covered_by_tiers = geo.bytes_for(table.cumulative_pages(state.extents.len()));
        if new_size <= covered_by_tiers {
            // The tail (if any) is now entirely beyond the size: free it.
            if let Some((tpid, tpages)) = state.tail.take() {
                freed.push(ExtentSpec::new(tpid, tpages));
            }
            let mut keep = 0usize;
            while geo.bytes_for(table.cumulative_pages(keep)) < new_size {
                keep += 1;
            }
            for (pos, &pid) in state.extents.iter().enumerate().skip(keep) {
                freed.push(ExtentSpec::new(pid, table.size_of(pos)));
            }
            state.extents.truncate(keep);
        }
        // else: the new size still reaches into the tail extent — every
        // extent survives; the tail keeps its (now oversized) page count.

        // The surviving bytes stay where they are, so the shorter state
        // already addresses them: hash it in bounded pieces. The embedded
        // prefix is the old one cut at the new size.
        state.size = new_size;
        state.prefix[new_size.min(PREFIX_LEN as u64) as usize..].fill(0);
        let hasher = content::hash_content(&self.db, &state)?;
        state.sha_midstate = hasher.midstate().state_bytes();
        state.sha256 = hasher.finalize();
        self.freed.extend(freed);
        // The surviving last extent now holds fewer content pages than a
        // resident copy may frame.
        if let Some(last) = self.content_specs(&state).last() {
            self.db.blob_pool.trim_extent(*last);
        }

        self.publish_state(rel, key, Some(old_encoded), &state)?;
        Ok(())
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

        // Walk the extents overlapping [offset, offset+len), by content:
        // an extent's cloning cost is what it holds, not what it reserves.
        // An inline blob has none: its content is the Blob State's prefix,
        // patched below — one WAL record, zero content I/O.
        let specs = self.content_specs(&state);
        let mut done = 0usize;
        for piece in pieces(&specs, geo, offset..offset + data.len() as u64, usize::MAX) {
            let lo = offset + done as u64;
            let slice = &data[done..done + piece.len];
            done += piece.len;
            let ext_bytes = geo.bytes_for(piece.spec.pages);

            // Modeled costs: delta writes the new bytes twice (WAL +
            // extent); cloning writes the old extent content once more.
            if 2 * piece.len as u64 <= ext_bytes {
                self.records.push(LogRecord::BlobDelta {
                    txn: self.id,
                    relation: rel.id,
                    key: key.to_vec(),
                    byte_offset: lo,
                    before: self.read_slice(&state, lo, piece.len, Residency::Cached)?,
                    after: slice.to_vec(),
                });
                for written in content::apply_bytes(&self.db, &state, lo, slice)? {
                    let first = written.offset / page;
                    let last = (written.offset + written.len).div_ceil(page);
                    self.toflush.push(FlushItem {
                        spec: written.spec,
                        dirty_from: first as u64,
                        dirty_pages: (last - first) as u64,
                    });
                }
            } else {
                // Clone: copy the extent, patch it, swap the pointer.
                // The old and new placements are sized by allocation.
                let i = piece.index;
                let is_tail = i == state.extents.len();
                let (clone_spec, old_spec) = match state.tail {
                    Some((tpid, tpages)) if is_tail => (
                        self.db.alloc.allocate_tail(tpages)?,
                        ExtentSpec::new(tpid, tpages),
                    ),
                    _ => (
                        self.db.alloc.allocate_tier(i)?,
                        ExtentSpec::new(piece.spec.start, self.db.table.size_of(i)),
                    ),
                };
                self.allocated.push(clone_spec);
                let extent_start = lo - piece.offset as u64;
                let live = (state.size - extent_start).min(ext_bytes) as usize;
                let mut content = self.read_slice(&state, extent_start, live, Residency::Cached)?;
                content[piece.offset..piece.offset + piece.len].copy_from_slice(slice);
                self.fill_fresh_eager(clone_spec, &content, &mut |_| ())?;
                self.freed.push(old_spec);
                if is_tail {
                    state.tail = Some((clone_spec.start, clone_spec.pages));
                } else {
                    state.extents[i] = clone_spec.start;
                }
            }
        }

        // Content changed: recompute the hash over the full object (growth
        // is the only op with a cheap incremental path, §III-D).
        if offset < PREFIX_LEN as u64 {
            let n = ((PREFIX_LEN as u64 - offset) as usize).min(data.len());
            state.prefix[offset as usize..offset as usize + n].copy_from_slice(&data[..n]);
        }
        let hasher = content::hash_content(&self.db, &state)?;
        state.sha_midstate = hasher.midstate().state_bytes();
        state.sha256 = hasher.finalize();

        self.publish_state(rel, key, Some(old_encoded), &state)?;
        if state.extents.is_empty() && state.tail.is_none() {
            self.stage_physlog(rel, key, offset, data);
        }
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

        // Same size ⇒ same tier-sequence shape for the new placement.
        let pages = self.db.geo.pages_for(state.size);
        let plan = plan_sequence(&self.db.table, pages, state.tail.is_some())?;

        // Copy old → new through the defrag source guard: resident source
        // extents are leased (stable frame reads), cold ones are read
        // uncached from the device — the copy never faults data into the
        // pool or evicts anything hot. Hashing rides the same pass.
        let db = self.db.clone();
        let src = SourceGuard::new(&db.blob_pool, &self.content_specs(&state));
        let mut hasher = Sha256::new();
        let mut extents = Vec::with_capacity(plan.sizes.len());
        let source = Source::Placement(&state);
        let tail = self.fill_plan(&plan, source, &mut |b| hasher.update(b), &mut extents)?;
        drop(src);

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
        let fence = FenceGuard::new(&self.db.alloc, old_specs);
        rel.tree.insert(key, &encoded, true)?;
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
        let src = SourceGuard::new(&self.db.blob_pool, &self.content_specs(&state));
        let ok = content::validate_many(&self.db, &[&state])? == [true];
        drop(src);
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
                db.committer.frontier().wait_for(epoch)?;
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
        let records = Arc::new(std::mem::take(&mut self.records));
        self.submitted = Some(records.clone());
        CommitBatch {
            records,
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
        // Reverse logical undo, through the function restart recovery uses
        // for the records of a transaction that did not commit.
        let submitted = self.submitted.take();
        let staged = std::mem::take(&mut self.records);
        for rec in submitted.as_deref().unwrap_or(&staged).iter().rev() {
            let result = crate::recovery::undo_record(&db, rec);
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
        if submitted.is_none() && !staged.is_empty() {
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
