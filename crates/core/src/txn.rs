//! Transactions and the BLOB operation set (§III-C/D).
//!
//! The write path implements the paper's single-flush commit protocol. A
//! transaction stages everything in one [`WriteSet`] — log records, in-place
//! and fresh extent writes, early-write tickets, allocations, frees and
//! relocation fences — and a commit is four named steps over it:
//!
//! 1. **stage** — the verbs write BLOB content into buffer frames (dirty +
//!    `prevent_evict`) and fill the write set. Under a waiting commit
//!    ([`crate::Config::commit_wait`]) a put **copies** its content into its
//!    freshly allocated extents, **submits** them all as one device write
//!    ([`Txn::write_early`]), and only then **hashes** the caller's bytes,
//!    so the write overlaps the hash: no durable Blob State can reference a
//!    fresh extent, so nothing a crash could resolve to is overwritten. An
//!    asynchronous commit starts no write early; its put copies and hashes
//!    in one pass and leaves the write to the pipeline. [`Txn::stage`]
//!    seals the set with its commit record, for both a local and a
//!    cross-shard commit.
//! 2. **log** (`StageCtx::log`) — content before its record, in both
//!    modes: the group's fresh content not yet on its way goes out as one
//!    batch, everything fresh lands and the data device is synced once;
//!    then the group's records, Blob States and not content, are appended
//!    to the WAL and fsynced once (group commit). That fsync makes a put
//!    or a relocation durable outright.
//! 3. **write in place** (`StageCtx::write_in_place`) — **only after** the
//!    Blob State is durable is anything written *in place* — a delta
//!    update, an append into a partly filled extent — with one batched
//!    write per extent covering only its dirty pages, waited out, then one
//!    data sync. The write clears `prevent_evict` and leaves the extents
//!    *clean*, so eviction never writes BLOB content a second time.
//! 4. **retire** (`StageCtx::retire`) — once every write landed and was
//!    synced (`group_commit`, "Acknowledged means durable"), freed extents
//!    recycle and the commit is acknowledged.
//!
//! Deletes publish extents to the per-tier free lists at commit; growth
//! resumes the SHA-256 from the stored midstate; in-place updates choose
//! delta-logging or extent cloning by modeled cost (§III-D).
//!
//! Reads come in two shapes. [`Txn::get_blob`] presents the whole BLOB as
//! one contiguous slice (`BlobPool::read_blob`: in place when its frames sit
//! back to back, as a placement framed as one run does; otherwise aliased
//! from `lobster_buffer::ALIAS_MIN_BYTES` up, §IV-B, copied out of the
//! frames below). Everything else — [`Txn::get_blob_range`],
//! [`Txn::stream_blob_range`], the before-images and clone sources of the
//! write verbs, every rehash — is a caller of the one ranged read in
//! [`crate::content`], which walks the one addressing function
//! (`lobster_extent::pieces`); a new placement is laid out in one place
//! too, [`Txn::fill_plan`].
//!
//! There is no separate undo log: the staged [`LogRecord`]s carry the
//! before-images, and a rollback walks them backwards through
//! `recovery::undo_record`, the function restart recovery applies to the
//! records of a transaction that did not commit, then discards the rest of
//! the write set ([`WriteSet::undo`]).

use crate::blob_state::{BlobState, PREFIX_LEN};
use crate::catalog::{Relation, RelationKind};
use crate::content::{self, Residency};
use crate::db::Database;
use crate::defrag::{FenceGuard, SourceGuard};
use crate::lock::LockMode;
use lobster_buffer::{FlushItem, FlushTicket, PinGate, Placement};
use lobster_extent::{pieces, plan_growth, plan_sequence, ExtentSpec, SequencePlan};
use lobster_sha256::Sha256;
use lobster_sync::atomic::Ordering;
use lobster_sync::Arc;
use lobster_types::{Error, Pid, Result};
use lobster_wal::LogRecord;
use std::thread::ThreadId;
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
    /// references until the commit, so its write may start before it
    /// ([`Txn::write_early`]).
    Bytes(&'a [u8]),
    /// The whole content of a BLOB being relocated, read from its current
    /// placement without forcing residency. The copy is fresh content too:
    /// the pipeline writes it before the commit's records.
    Placement(&'a BlobState),
}

/// What a transaction stages for its commit, declared once. The verbs fill
/// it, [`Txn::stage`] seals it, `GroupCommitter::submit` takes it whole, a
/// durable group holds it until its retire (`StageCtx::retire`), and a
/// rollback undoes it ([`WriteSet::undo`]).
#[derive(Default)]
pub(crate) struct WriteSet {
    /// Log records. They are also the undo log, walked backwards by a
    /// rollback (`recovery::undo_record`); the pipeline shares them with
    /// the transaction, which rolls back a commit that fails after its
    /// submission like any other.
    pub records: Arc<Vec<LogRecord>>,
    /// Extent ranges to write in place, after the WAL fsync.
    pub toflush: Vec<FlushItem>,
    /// Fresh extents, filled and not yet submitted: a waiting commit's
    /// put, append or update puts them in `flights` before it returns
    /// ([`Txn::write_early`]); a relocation and an asynchronous commit
    /// leave them to the pipeline, which writes them before the commit's
    /// records.
    pub fresh: Vec<FlushItem>,
    /// Writes of fresh extents already on the device's queue. Each holds a
    /// shared latch on its extents until reaped — by the commit pipeline,
    /// or by [`Txn::land_flights`] before this transaction latches one of
    /// them exclusively or drops it.
    pub flights: Vec<FlushTicket>,
    /// Every extent allocated, returned to the allocator by a rollback.
    pub allocated: Vec<ExtentSpec>,
    /// Extents recycled at the retire of the commit's group.
    pub freed: Vec<ExtentSpec>,
    /// Old placements of relocated blobs: quarantine-fenced at swap
    /// staging, so nothing recycles them while readers of the pre-swap
    /// Blob State may still walk them, and released and freed only at the
    /// retire. Distinct from `freed`, whose extents carry no fence and may
    /// be recycled by any later allocation.
    pub refenced: Vec<ExtentSpec>,
}

impl WriteSet {
    /// Bytes of buffer-pool frames the set keeps pinned until its group
    /// retires: what is still to be submitted and what is on its way.
    pub(crate) fn pinned_bytes(&self, page_size: u64) -> u64 {
        let flying = self.flights.iter().flat_map(|t| t.items());
        let items = self.toflush.iter().chain(&self.fresh).chain(flying);
        items.map(|i| i.dirty_pages).sum::<u64>() * page_size
    }

    /// The transaction its commit record names, once sealed.
    pub(crate) fn committed_txn(&self) -> Option<u64> {
        self.records.iter().rev().find_map(|rec| match rec {
            LogRecord::TxnCommit { txn } | LogRecord::TxnCrossCommit { txn, .. } => Some(*txn),
            _ => None,
        })
    }

    /// Roll the set back. Early writes land first: their tickets latch
    /// frames the undo may write and the discard drops. The records are
    /// undone in reverse through the function restart recovery applies to
    /// a transaction that did not commit. Allocations go back to the
    /// allocator: what reached the device early is unreferenced garbage.
    /// Relocation fences are lifted *without* a free: after the undo the
    /// old placement is the live one again. Frees were only staged.
    fn undo(&mut self, db: &Database) {
        for ticket in self.flights.drain(..) {
            let _ = ticket.wait();
        }
        for rec in self.records.iter().rev() {
            let result = crate::recovery::undo_record(db, rec);
            debug_assert!(result.is_ok(), "undo must not fail");
        }
        db.blob_pool.drop_extents(&self.allocated);
        for spec in self.allocated.drain(..) {
            db.alloc.free_extent(spec);
        }
        for spec in self.refenced.drain(..) {
            db.alloc.release_quarantine(spec);
        }
    }
}

/// An active transaction. Dropped without [`Txn::commit`] ⇒ rollback.
pub struct Txn {
    db: Arc<Database>,
    id: u64,
    worker: usize,
    /// Everything staged for the commit.
    ws: WriteSet,
    /// Lock-table shards holding this transaction's locks (one bit each),
    /// so the release visits those and not the whole table.
    lock_shards: u64,
    /// The thread this transaction entered the writer gate on, from its
    /// first write until its records are in the commit pipeline or rolled
    /// back (`crate::writers`): no checkpoint runs in between.
    writing: Option<ThreadId>,
    state: TxnState,
}

impl Txn {
    pub(crate) fn new(db: Arc<Database>, id: u64, worker: usize) -> Self {
        Txn {
            db,
            id,
            worker,
            ws: WriteSet::default(),
            lock_shards: 0,
            writing: None,
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

    /// Lock `key`. Every write verb takes its exclusive lock before it
    /// changes anything, so that is where the transaction enters the
    /// writer gate.
    fn lock(&mut self, rel: &Relation, key: &[u8], mode: LockMode) -> Result<()> {
        if mode == LockMode::Exclusive && self.writing.is_none() {
            self.writing = Some(self.db.writers.enter(self.lock_shards != 0));
        }
        self.lock_shards |= self.db.locks.lock(self.id, rel.id, key, mode)?;
        Ok(())
    }

    /// Leave the writer gate, if this transaction entered it.
    fn stop_writing(&mut self) {
        if let Some(thread) = self.writing.take() {
            self.db.writers.leave(thread);
        }
    }

    /// The content view of `state`'s extents — the only view the buffer
    /// pool is handed (see [`BlobState::content_specs`]).
    fn content_specs(&self, state: &BlobState) -> Vec<ExtentSpec> {
        state.content_specs(&self.db.table, self.db.geo)
    }

    /// Write `chunk` into the freshly allocated extent `alloc` — framed as
    /// the next extent of `placement` if it is one, else on its own —
    /// feeding every copied byte to `digest`, and return the flush it now
    /// owes. Only the pages `chunk` occupies are framed and flushed; the
    /// rest of the allocation is slack the pool never sees.
    fn fill_fresh(
        &self,
        placement: Option<&mut Placement<'_>>,
        alloc: ExtentSpec,
        chunk: &[u8],
        digest: &mut dyn FnMut(&[u8]),
    ) -> Result<FlushItem> {
        let content = ExtentSpec::new(alloc.start, self.content_pages(chunk.len()));
        match placement {
            Some(placement) => placement.fill_hashed(content, chunk, digest)?,
            None => self
                .db
                .blob_pool
                .fill_extent_hashed(content, chunk, digest)?,
        }
        Ok(FlushItem::whole(content))
    }

    /// The pages `len` bytes of fresh content are framed in.
    fn content_pages(&self, len: usize) -> u64 {
        self.db.geo.pages_for(len as u64).max(1)
    }

    /// Put the fresh extents filled so far (a new blob, growth, a cloned
    /// extent) on the device's queue as one batch — where the commit will
    /// wait for their write: nothing durable references them until this
    /// transaction commits. An asynchronous commit returns before the flush
    /// either way, so an early write would buy its caller nothing and cost
    /// it the processor time of the submission.
    fn write_early(&mut self) -> Result<()> {
        let fresh = &mut self.ws.fresh;
        if !self.db.cfg.commit_wait || fresh.is_empty() {
            return Ok(());
        }
        let ticket = self.db.blob_pool.flush_extents_async(fresh)?;
        let pages: u64 = fresh.iter().map(|i| i.dirty_pages).sum();
        fresh.clear();
        let m = &self.db.metrics;
        // ordering: relaxed metrics counters; snapshot readers tolerate staleness
        m.eager_flush_batches.fetch_add(1, Ordering::Relaxed);
        m.eager_flush_pages.fetch_add(pages, Ordering::Relaxed); // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        self.ws.flights.push(ticket);
        Ok(())
    }

    /// Wait for this transaction's early writes and reap them, releasing
    /// their shared latches. Whatever is about to latch one of those
    /// extents exclusively or drop it from the pool — a later verb on the
    /// same blob, the rollback — would otherwise wait on this thread for a
    /// ticket only this thread can reap.
    fn land_flights(&mut self) -> Result<()> {
        let mut result = Ok(());
        for ticket in self.ws.flights.drain(..) {
            result = result.and(ticket.wait());
        }
        result
    }

    /// Stage `record` in the write set.
    fn log(&mut self, record: LogRecord) {
        Arc::make_mut(&mut self.ws.records).push(record);
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
        self.log(record);
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
        self.log(LogRecord::Delete {
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
            return self.publish_state(rel, key, None, &state);
        }

        // The size is known: reserve the largest tier prefix that fits plus
        // one exact tail extent (§III-A) and copy the content into buffer
        // frames (pinned + dirty). Under a waiting commit the copy goes to
        // the device before the hash, which overlaps its write; otherwise
        // the copy hashes in the same pass.
        let pages = self.db.geo.pages_for(data.len() as u64);
        let plan = plan_sequence(&self.db.table, pages, true)?;
        let mut hasher = Sha256::new();
        let mut extents = Vec::with_capacity(plan.sizes.len());
        let source = Source::Bytes(data);
        let tail = if self.db.cfg.commit_wait {
            let tail = self.fill_plan(&plan, source, &mut |_| (), &mut extents)?;
            self.write_early()?;
            hasher.update(data);
            tail
        } else {
            self.fill_plan(&plan, source, &mut |b| hasher.update(b), &mut extents)?
        };

        let sha_midstate = hasher.midstate().state_bytes();
        let state = BlobState {
            size: data.len() as u64,
            sha256: hasher.finalize(),
            sha_midstate,
            prefix: BlobState::make_prefix(data),
            tail,
            extents,
        };
        self.publish_state(rel, key, None, &state)
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
        self.log(match old {
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
    /// growth and relocation differ only in `source`. The extents are framed
    /// as one run of the pool's frames when a free one holds them all
    /// (`BlobPool::place`), so a read of the BLOB finds them back to back.
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
        let count = plan.sizes.len() + usize::from(plan.tail_pages.is_some());
        // Every extent but the last is full, so the content's pages are
        // the placement's.
        let pool = self.db.blob_pool.clone();
        let mut placement = pool.place(count, self.content_pages(total));
        let mut tail = None;
        let mut off = 0usize;
        for i in 0..count {
            let spec = match plan.tail_pages {
                Some(pages) if i == plan.sizes.len() => self.db.alloc.allocate_tail(pages)?,
                _ => self.db.alloc.allocate_tier(plan.first_position + i)?,
            };
            self.ws.allocated.push(spec);
            let len = (total - off).min(self.db.geo.bytes_for(spec.pages) as usize);
            let item = match source {
                Source::Bytes(data) => {
                    self.fill_fresh(Some(&mut placement), spec, &data[off..off + len], digest)?
                }
                Source::Placement(state) => {
                    let buf = self.read_slice(state, off as u64, len, Residency::Uncached)?;
                    self.fill_fresh(Some(&mut placement), spec, &buf, digest)?
                }
            };
            self.ws.fresh.push(item);
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

    // ----------------------------------------------------- blob read ----

    /// Read the whole BLOB as one contiguous slice: zero-copy when its
    /// frames sit back to back or it is large enough to alias, copied out
    /// of the frames otherwise (`BlobPool::read_blob`).
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
        self.ws.freed.extend(state.extent_specs(&self.db.table));
        self.log(LogRecord::Delete {
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
            return self.publish_state(rel, key, Some(old_encoded), &state);
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
        // position first (§III-D). The append below writes into the clone,
        // so the clone's write waits for the fsync with that one instead of
        // going out early: an early flight's latch would make the append
        // wait on this thread, and the two writes could reorder.
        if let Some((tpid, tpages)) = state.tail {
            let pos = state.extents.len();
            let clone_spec = self.db.alloc.allocate_tier(pos)?;
            self.ws.allocated.push(clone_spec);
            let covered = geo.bytes_for(table.cumulative_pages(pos));
            let content = self.read_slice(
                &state,
                covered,
                (old_size - covered) as usize,
                Residency::Cached,
            )?;
            let item = self.fill_fresh(None, clone_spec, &content, &mut |_| ())?;
            self.ws.toflush.push(item);
            self.ws.freed.push(ExtentSpec::new(tpid, tpages));
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
            self.ws.toflush.push(FlushItem {
                spec,
                dirty_from: first_dirty as u64,
                dirty_pages: (last_dirty - first_dirty) as u64,
            });
            data_off = take;
        }

        // Allocate and fill the new extents. Growth climbs the tier ladder
        // and never plans a tail (§III-H), so the next append fills free
        // capacity instead of cloning again.
        let plan = plan_growth(
            table,
            existing,
            table.cumulative_pages(existing),
            geo.pages_for(new_size),
            false,
        )?;
        let source = Source::Bytes(&fill_data[data_off..]);
        state.tail = self.fill_plan(&plan, source, &mut |_| (), &mut state.extents)?;
        self.write_early()?;

        // Refresh the metadata.
        if old_size < PREFIX_LEN as u64 {
            let need = (PREFIX_LEN as u64 - old_size) as usize;
            let n = need.min(data.len());
            state.prefix[old_size as usize..old_size as usize + n].copy_from_slice(&data[..n]);
        }
        state.size = new_size;
        state.sha_midstate = hasher.midstate().state_bytes();
        state.sha256 = hasher.finalize();

        self.publish_state(rel, key, Some(old_encoded), &state)
    }

    /// Shrink an existing BLOB to `new_size` bytes (the inverse of
    /// [`Txn::append_blob`]). The surviving content stays in place: the
    /// minimal prefix of the tier-extent sequence that still covers
    /// `new_size` is kept and every extent beyond it joins the free lists at
    /// commit; a cut inside the tail extent frees the tail's pages past it. Only the metadata is rewritten — except the SHA-256, which
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
        } else if let Some((tpid, tpages)) = state.tail {
            // The new size still reaches into the tail extent: every tier
            // extent survives and the tail shrinks to the pages it still
            // holds. The cut-off pages free at commit like any freed extent
            // (a quarantine fence over the tail parks them).
            let keep = geo.pages_for(new_size) - table.cumulative_pages(state.extents.len());
            if keep < tpages {
                freed.push(ExtentSpec::new(tpid.offset(keep), tpages - keep));
                state.tail = Some((tpid, keep));
            }
        }

        // The surviving bytes stay where they are, so the shorter state
        // already addresses them: hash it in bounded pieces. The embedded
        // prefix is the old one cut at the new size.
        state.size = new_size;
        state.prefix[new_size.min(PREFIX_LEN as u64) as usize..].fill(0);
        let hasher = content::hash_content(&self.db, &state)?;
        state.sha_midstate = hasher.midstate().state_bytes();
        state.sha256 = hasher.finalize();
        self.ws.freed.extend(freed);
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
            // An extent that still owes a flush is cloned whatever the
            // cost: a write of it an earlier commit has yet to issue — an
            // asynchronous put's goes out before that put's record — must
            // not carry this transaction's bytes before its own record.
            let owed = self.db.blob_pool.owes_flush(piece.spec);
            if 2 * piece.len as u64 <= ext_bytes && !owed {
                self.log(LogRecord::BlobDelta {
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
                    self.ws.toflush.push(FlushItem {
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
                self.ws.allocated.push(clone_spec);
                let extent_start = lo - piece.offset as u64;
                let live = (state.size - extent_start).min(ext_bytes) as usize;
                let mut content = self.read_slice(&state, extent_start, live, Residency::Cached)?;
                content[piece.offset..piece.offset + piece.len].copy_from_slice(slice);
                let item = self.fill_fresh(None, clone_spec, &content, &mut |_| ())?;
                self.ws.fresh.push(item);
                self.ws.freed.push(old_spec);
                if is_tail {
                    state.tail = Some((clone_spec.start, clone_spec.pages));
                } else {
                    state.extents[i] = clone_spec.start;
                }
            }
        }

        // Content changed: recompute the hash over the full object (growth
        // is the only op with a cheap incremental path, §III-D), while the
        // clones are written.
        self.write_early()?;
        if offset < PREFIX_LEN as u64 {
            let n = ((PREFIX_LEN as u64 - offset) as usize).min(data.len());
            state.prefix[offset as usize..offset as usize + n].copy_from_slice(&data[..n]);
        }
        let hasher = content::hash_content(&self.db, &state)?;
        state.sha_midstate = hasher.midstate().state_bytes();
        state.sha256 = hasher.finalize();

        self.publish_state(rel, key, Some(old_encoded), &state)
    }

    // ---------------------------------------------- blob relocation -----

    /// Move a BLOB's content to a freshly allocated placement without
    /// changing a single byte of it — the defragmenter's core primitive.
    ///
    /// Protocol (crash-safe at every instant, see DESIGN.md §5g):
    ///  1. exclusive key lock — waits out every in-flight reader, so no
    ///     `get_blob`/`stream_blob_range` can span the swap;
    ///  2. allocate a new placement — the tier prefix plus an exact tail,
    ///     as for a put — and copy the old placement into it through
    ///     non-evicting reads, re-hashing in the same pass (the piggybacked
    ///     scrub);
    ///  3. quarantine-fence the old extents, swap the Blob State in the
    ///     tree, and stage a [`LogRecord::BlobRelocate`];
    ///  4. commit rides the ordinary group-commit pipeline — the new
    ///     placement is freshly allocated, so it is written and synced
    ///     before the swap's record, like a put's content — and the fences
    ///     are released and the old extents freed only at the durability
    ///     frontier (`StageCtx::retire`).
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

        // The size is known: tier prefix plus exact tail, like a put.
        let pages = self.db.geo.pages_for(state.size);
        let plan = plan_sequence(&self.db.table, pages, true)?;

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
        let fence = FenceGuard::new(&db.alloc, old_specs);
        rel.tree.insert(key, &encoded, true)?;
        self.log(LogRecord::BlobRelocate {
            txn: self.id,
            relation: rel.id,
            key: key.to_vec(),
            old_value: old_encoded,
            new_value: encoded,
        });
        self.ws.refenced.extend(fence.disarm());
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

    /// Commit: fresh content landed and synced, then the WAL fsync (Blob
    /// State durable), then every in-place write that had to wait for it;
    /// durable once those have landed and are synced too, then extent
    /// recycling.
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
        // Both commit modes ride the same commit thread (sharing its
        // group fsync and content writes); they differ only in whether
        // this thread blocks on the set's durability epoch before
        // acknowledging. The transaction leaves the writer gate once its
        // set has its epoch: a checkpoint drains the pipeline anyway. A
        // transaction that logged nothing has nothing for the pipeline:
        // what a failed verb left staged is discarded.
        if self.has_writes() {
            let ws = self.stage(LogRecord::TxnCommit { txn: self.id });
            let epoch = db.committer.submit(ws)?;
            self.stop_writing();
            if db.cfg.commit_wait {
                db.committer.frontier().wait_for(epoch)?;
            }
        } else {
            self.ws.undo(&db);
        }
        self.finish();
        db.maybe_checkpoint()?;
        Ok(())
    }

    /// Step 1 of a commit, **stage**, closed: the verbs filled the write
    /// set and a waiting commit's puts already started their fresh
    /// extents' write ([`Txn::write_early`]); this seals the set with its
    /// commit record `end` and hands it out for the pipeline. Fresh
    /// extents still unsubmitted — an asynchronous commit's, or a waiting
    /// one's whose early submission failed — stay fresh: the pipeline
    /// writes them before the records, and owns the retry. The
    /// transaction keeps what a rollback of a commit that fails later
    /// still walks: the records and the allocations.
    pub(crate) fn stage(&mut self, end: LogRecord) -> WriteSet {
        self.db
            .metrics
            .extent_allocs
            .fetch_add(self.ws.allocated.len() as u64, Ordering::Relaxed); // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        Arc::make_mut(&mut self.ws.records).push(end);
        let mut ws = std::mem::take(&mut self.ws);
        self.ws.records = ws.records.clone();
        self.ws.allocated = std::mem::take(&mut ws.allocated);
        ws
    }

    /// The end of a commit, once its set has its epoch: the writer gate
    /// left, locks released, the commit counted.
    pub(crate) fn finish(&mut self) {
        self.stop_writing();
        self.db.locks.release_all(self.id, self.lock_shards);
        // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        self.db.metrics.txn_commits.fetch_add(1, Ordering::Relaxed);
        self.state = TxnState::Committed;
    }

    /// Whether this transaction logged anything, and so needs the commit
    /// pipeline: every verb that stages a write, a free or a flush logs the
    /// record that makes it happen. Read-only participants of a cross-shard
    /// transaction commit locally and are excluded from the participant
    /// mask.
    pub(crate) fn has_writes(&self) -> bool {
        !self.ws.records.is_empty()
    }

    /// Commit this transaction as one shard's slice of a cross-shard
    /// global transaction `gtxn`: a [`LogRecord::TxnCrossCommit`] marker
    /// (never a local `TxnCommit`) seals the write set, which is handed to
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
        let end = LogRecord::TxnCrossCommit {
            txn: self.id,
            gtxn,
            shard,
            mask,
        };
        let ws = self.stage(end);
        let epoch = self.db.committer.submit(ws)?;
        self.finish();
        Ok(epoch)
    }

    /// Roll back every change of this transaction.
    pub fn abort(mut self) {
        self.rollback();
    }

    /// Undo, discard the write set, release. No abort record is logged: no
    /// record of this transaction reached the log, or its commit failed
    /// and the pipeline stopped.
    fn rollback(&mut self) {
        if self.state != TxnState::Active {
            return;
        }
        self.state = TxnState::Aborted;
        self.ws.undo(&self.db);
        self.stop_writing();
        self.db.locks.release_all(self.id, self.lock_shards);
        // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        self.db.metrics.txn_aborts.fetch_add(1, Ordering::Relaxed);
    }
}

impl Drop for Txn {
    fn drop(&mut self) {
        self.rollback();
    }
}
