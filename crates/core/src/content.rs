//! BLOB content through the buffer pool: every read, hash and in-place
//! patch of the bytes a Blob State addresses.
//!
//! Which extent holds BLOB byte *x* is a pure function of the tier table
//! and the Blob State (§III-A/B); [`lobster_extent::pieces`] is that
//! function, and the four routines here are its pool-touching users:
//!
//! * [`read_range`] — the one ranged read, piece by piece, under a
//!   [`Residency`] that says how bytes not in the pool are reached;
//! * [`hash_content`] — SHA-256 over the whole content, for the verbs that
//!   cannot resume a hash (update, truncate);
//! * [`validate_many`] — check many BLOBs against their stored SHA-256
//!   (recovery, scrub), streaming past the pool with the device reads
//!   overlapped with the hashing;
//! * [`apply_bytes`] — write bytes in place at a BLOB offset: the delta
//!   update, and its redo and undo.
//!
//! `Txn::get_blob` is the only content access that does not come through
//! here: it presents the whole BLOB as one contiguous slice through
//! `BlobPool::read_blob`, which aliases it (§IV-B) from
//! `lobster_buffer::ALIAS_MIN_BYTES` up and copies it out of the frames
//! below.

use crate::blob_state::{BlobState, PREFIX_LEN};
use crate::db::Database;
use lobster_buffer::{BlobPool, PinGate};
use lobster_extent::{pieces, ExtentSpec, Piece};
use lobster_sha256::Sha256;
use lobster_types::{Pid, Result};
use std::collections::VecDeque;
use std::ops::Range;
use std::time::Duration;

/// Piece size of [`hash_content`] and [`validate_many`]: bounds the scratch
/// an uncached piece is read into (and the hash-table pool's per-piece
/// gather) while keeping a cold read at a few device requests per extent.
const HASH_PIECE: usize = 256 << 10;

/// Content bytes [`validate_many`] has on the device at once: two batches,
/// one hashing while the other is read, so its memory is bounded whatever
/// the BLOB sizes.
const IN_FLIGHT: usize = 2 << 20;

/// How a ranged read reaches bytes that may not be in the pool.
#[derive(Clone, Copy)]
pub(crate) enum Residency<'a> {
    /// Through the pool, an extent at a time: each piece is read out of its
    /// extent's frames under a brief shared latch (`read_chunk`), which
    /// faults a cold extent whole with one device request. Nothing is held
    /// between pieces, so content larger than the pool still reads.
    Cached,
    /// [`Residency::Cached`] for a range someone is waiting on (`worker` is
    /// the caller's slot in the sequential-access detector). The extents
    /// covering the range — the *run* — are faulted first, as one batch,
    /// and readahead goes only past the run and only on evidence that the
    /// access is sequential. With `lease` the run is also pinned against
    /// eviction until the read ends, so a slow consumer re-faults nothing;
    /// a `gate` is charged the run's size before anything is pinned, and a
    /// refusal (`Error::BufferFull`) pins nothing.
    Foreground {
        worker: usize,
        lease: bool,
        gate: Option<(&'a PinGate, Duration)>,
    },
    /// Never forces residency: a resident extent is read under its latch,
    /// an evicted one straight from the device (current, because the pool
    /// is no-steal). For background work that must not displace hot data,
    /// and for reads too small to be worth a fault.
    Uncached,
}

/// Pass the bytes `range` of `state`'s content to `sink`, in order, in
/// pieces that never span extents and are at most `chunk` bytes long.
/// `range` must lie within the content. The first error — the pool's or
/// `sink`'s — ends the read.
pub(crate) fn read_range(
    db: &Database,
    state: &BlobState,
    range: Range<u64>,
    chunk: usize,
    residency: Residency<'_>,
    sink: &mut dyn FnMut(&[u8]) -> Result<()>,
) -> Result<()> {
    if range.is_empty() {
        return Ok(());
    }
    debug_assert!(range.end <= state.size);
    // Header reads (file-type sniffing, magic bytes — §III-B's reason for
    // embedding the prefix) and inline BLOBs are served straight from the
    // Blob State: one piece, zero content I/O, zero latches.
    if range.end <= PREFIX_LEN as u64 {
        return sink(&state.prefix[range.start as usize..range.end as usize]);
    }
    let view = state.content_specs(&db.table, db.geo);
    let pool = &db.blob_pool;
    let _run = match residency {
        Residency::Foreground {
            worker,
            lease,
            gate,
        } => Some(Run::admit(db, state, &view, &range, worker, lease, gate)?),
        _ => None,
    };
    let mut scratch = Vec::new();
    for piece in pieces(&view, db.geo, range, chunk) {
        if let Residency::Uncached = residency {
            scratch.resize(piece.len, 0);
            pool.read_range_uncached(piece.spec, piece.offset, &mut scratch)?;
            sink(&scratch)?;
        } else {
            pool.read_chunk(piece.spec, piece.offset, piece.len, &mut *sink)??;
        }
    }
    Ok(())
}

/// The covering run of a foreground read: leases and gate budget it holds
/// are released on every exit path, including a `sink` error (a client
/// that disconnected mid-stream).
struct Run<'a> {
    pool: &'a BlobPool,
    extents: &'a [ExtentSpec],
    leased: usize,
    gate: Option<(&'a PinGate, u64)>,
}

impl<'a> Run<'a> {
    fn admit(
        db: &'a Database,
        state: &BlobState,
        view: &'a [ExtentSpec],
        range: &Range<u64>,
        worker: usize,
        lease: bool,
        gate: Option<(&'a PinGate, Duration)>,
    ) -> Result<Self> {
        let touched = pieces(view, db.geo, range.clone(), usize::MAX).map(|p| p.index);
        let (first, last) = touched.fold((usize::MAX, 0), |(first, _), i| (first.min(i), i + 1));
        let mut run = Run {
            pool: &db.blob_pool,
            extents: view.get(first..last).unwrap_or(&[]),
            leased: 0,
            gate: None,
        };
        if let Some((gate, timeout)) = gate {
            let bytes = db.geo.bytes_for(run.extents.iter().map(|s| s.pages).sum());
            gate.acquire(bytes, timeout)?;
            run.gate = Some((gate, bytes));
        }
        // A sequential reader touches the extents after the run next. The
        // prefetch goes out before the foreground fault so that the two
        // batches overlap on the device; a random read prefetches nothing.
        let window = db.cfg.readahead_extents;
        if window > 0 && note_range_access(db, worker, state, range) {
            run.pool
                .prefetch(&view[last..view.len().min(last + window)]);
        }
        if run.extents.len() > 1 {
            run.pool.fault_many(run.extents)?;
        }
        if lease {
            for spec in run.extents {
                run.pool.lease_extent(*spec)?;
                run.leased += 1;
            }
        }
        Ok(run)
    }
}

impl Drop for Run<'_> {
    fn drop(&mut self) {
        for spec in &self.extents[..self.leased] {
            self.pool.unlease_extent(*spec);
        }
        if let Some((gate, bytes)) = self.gate {
            gate.release(bytes);
        }
    }
}

/// Record `worker`'s access to `range` of `state`'s BLOB and report whether
/// it is observably sequential: it starts the BLOB, or it starts where this
/// worker's previous range access to the same BLOB ended. Only then may
/// readahead run past the touched extents.
fn note_range_access(db: &Database, worker: usize, state: &BlobState, range: &Range<u64>) -> bool {
    let blob = state
        .extents
        .first()
        .copied()
        .or(state.tail.map(|(pid, _)| pid))
        .map_or(u64::MAX, Pid::raw);
    let cells = &db.last_range;
    let prev = std::mem::replace(&mut *cells[worker % cells.len()].lock(), (blob, range.end));
    range.start == 0 || prev == (blob, range.start)
}

/// SHA-256 over `state`'s whole content, returned unfinalized so a caller
/// that stores the result can take the midstate too. Hashing holds nothing
/// between pieces, under [`Residency::Cached`]: a cold extent costs one
/// device request and stays resident for the verb that hashes it.
pub(crate) fn hash_content(db: &Database, state: &BlobState) -> Result<Sha256> {
    let mut hasher = Sha256::new();
    let residency = Residency::Cached;
    read_range(db, state, 0..state.size, HASH_PIECE, residency, &mut |b| {
        hasher.update(b);
        Ok(())
    })?;
    Ok(hasher)
}

/// Whether each Blob State's content still hashes to its stored SHA-256:
/// the recovery fixpoint's check and the online scrub's. The pieces of all
/// the BLOBs, in order, are read in batches through
/// [`lobster_buffer::BlobPool::read_pieces`] — a resident extent under its
/// latch, the rest straight from the device (current, because the pool is
/// no-steal) — and the next batch is on the device while the current one
/// hashes. Nothing is faulted into the pool or evicted from it.
pub(crate) fn validate_many(db: &Database, states: &[&BlobState]) -> Result<Vec<bool>> {
    let mut hashers: Vec<Sha256> = vec![Sha256::new(); states.len()];
    let views: Vec<Vec<ExtentSpec>> = states
        .iter()
        .map(|s| s.content_specs(&db.table, db.geo))
        .collect();
    let mut todo = states
        .iter()
        .zip(&views)
        .enumerate()
        .flat_map(|(i, (state, view))| {
            // Content that fits the prefix is hashed from the Blob State
            // below, as `read_range` serves it.
            let end = if state.size <= PREFIX_LEN as u64 {
                0
            } else {
                state.size
            };
            pieces(view, db.geo, 0..end, HASH_PIECE).map(move |p| (i, p))
        });
    for (hasher, state) in hashers.iter_mut().zip(states) {
        if state.size <= PREFIX_LEN as u64 {
            hasher.update(&state.prefix[..state.size as usize]);
        }
    }
    const BATCH: usize = IN_FLIGHT / 2;
    let mut flights = VecDeque::new();
    let mut spare: Vec<Vec<u8>> = Vec::new();
    loop {
        while flights.len() * BATCH < IN_FLIGHT {
            let mut batch: Vec<(usize, Piece)> = Vec::new();
            let mut bytes = 0;
            while bytes < BATCH {
                let Some((i, piece)) = todo.next() else { break };
                bytes += piece.len;
                batch.push((i, piece));
            }
            if batch.is_empty() {
                break;
            }
            // Buffers only grow, so each is zeroed once, not per batch.
            let mut buf = spare.pop().unwrap_or_default();
            if buf.len() < bytes {
                buf.resize(bytes, 0);
            }
            let list: Vec<Piece> = batch.iter().map(|&(_, piece)| piece).collect();
            flights.push_back((batch, db.blob_pool.read_pieces(&list, buf)?));
        }
        let Some((batch, reads)) = flights.pop_front() else {
            break;
        };
        let buf = reads.wait()?;
        let mut at = 0;
        for (i, piece) in batch {
            hashers[i].update(&buf[at..at + piece.len]);
            at += piece.len;
        }
        spare.push(buf);
    }
    Ok(hashers
        .into_iter()
        .zip(states)
        .map(|(hasher, state)| hasher.finalize() == state.sha256)
        .collect())
}

/// Overwrite `data.len()` bytes of `state`'s content at BLOB byte `offset`,
/// in the pool, in place — a delta update, its redo, or (with the before
/// image) its undo. Returns the pieces written: each extent touched is now
/// dirty and pinned and owes a flush, which is the caller's to stage or to
/// waive. Bytes past the content `state` addresses are dropped.
pub(crate) fn apply_bytes(
    db: &Database,
    state: &BlobState,
    offset: u64,
    data: &[u8],
) -> Result<Vec<Piece>> {
    let view = state.content_specs(&db.table, db.geo);
    let mut done = 0usize;
    pieces(
        &view,
        db.geo,
        offset..offset + data.len() as u64,
        usize::MAX,
    )
    .map(|piece| {
        db.blob_pool
            .write_range(piece.spec, piece.offset, &data[done..done + piece.len])?;
        done += piece.len;
        Ok(piece)
    })
    .collect()
}
