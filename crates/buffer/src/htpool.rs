//! Traditional hash-table buffer pool — the paper's `Our.ht` baseline
//! (§V-B "Baselines").
//!
//! Pages are translated *individually* through a sharded hash map, frames
//! are scattered heap allocations, and BLOB reads must allocate a buffer and
//! gather the pages with `memcpy` — the exact costs §V-E attributes to
//! pre-vmcache buffer pools (N translations per N-page extent, plus
//! malloc+memcpy on every read).

use crate::flush_ledger::FlushLedger;
use crate::pool::{FlushBatch, FlushItem};
use lobster_extent::ExtentSpec;
use lobster_metrics::Metrics;
use lobster_storage::{AsyncIo, Device, IoKind, IoReq};
use lobster_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use lobster_sync::audit::LatchLedger;
use lobster_sync::{Arc, Mutex, RwLock};
use lobster_types::{Error, Geometry, Pid, Result, RetryPolicy};
use rand::Rng;
use std::collections::{HashMap, HashSet};

// Memory-ordering note (satellite audit, PR 4): `Relaxed` here is confined
// to metrics bumps and the `pages` size estimate (eviction pacing only — the
// sharded maps are the authoritative residency state, under their locks).
// The per-frame `dirty`/`prevent_evict` flags use Acquire/Release: eviction
// reads them to decide whether a frame may be dropped.

const SHARDS: usize = 64;

struct PageFrame {
    data: RwLock<Box<[u8]>>,
    dirty: AtomicBool,
    prevent_evict: AtomicBool,
}

/// Page-granular hash-table buffer pool.
pub struct HashTablePool {
    device: Arc<dyn Device>,
    geo: Geometry,
    shards: Vec<Mutex<HashMap<u64, Arc<PageFrame>>>>,
    max_pages: u64,
    pages: AtomicU64,
    io: AsyncIo,
    metrics: Metrics,
    /// Commit-time flushes owed to and in flight for each dirty extent,
    /// keyed by the extent's start page.
    flushes: FlushLedger,
    /// Debug-only pin ledger (per-page `prevent_evict` shadow).
    audit: LatchLedger,
}

impl HashTablePool {
    pub fn new(
        device: Arc<dyn Device>,
        geo: Geometry,
        max_pages: u64,
        metrics: Metrics,
    ) -> Arc<Self> {
        Arc::new(HashTablePool {
            device: device.clone(),
            geo,
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            max_pages,
            pages: AtomicU64::new(0),
            io: AsyncIo::new(device, 2),
            metrics,
            flushes: FlushLedger::new(),
            audit: LatchLedger::new(),
        })
    }

    pub fn pages_in_use(&self) -> u64 {
        // ordering: Relaxed; occupancy gauge for tests and diagnostics
        self.pages.load(Ordering::Relaxed)
    }

    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The pool's pin ledger (debug-only invariant auditor).
    pub fn audit(&self) -> &LatchLedger {
        &self.audit
    }

    pub fn page_size(&self) -> usize {
        self.geo.page_size()
    }

    #[inline]
    fn shard(&self, pid: Pid) -> &Mutex<HashMap<u64, Arc<PageFrame>>> {
        // Multiplicative hash keeps consecutive pids on different shards.
        let h = pid.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(h >> 58) as usize % SHARDS]
    }

    /// Residency probe that charges no translation/latch cost — used only
    /// to partition extents before a batched fault.
    fn resident_quiet(&self, pid: Pid) -> bool {
        self.shard(pid).lock().contains_key(&pid.raw())
    }

    fn lookup(&self, pid: Pid) -> Option<Arc<PageFrame>> {
        // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        self.metrics.translations.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .latch_acquisitions
            .fetch_add(1, Ordering::Relaxed); // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        self.shard(pid).lock().get(&pid.raw()).cloned()
    }

    fn insert(&self, pid: Pid, frame: Arc<PageFrame>) {
        if self.shard(pid).lock().insert(pid.raw(), frame).is_none() {
            // ordering: Relaxed occupancy counter; the shard mutexes order the maps themselves
            self.pages.fetch_add(1, Ordering::Relaxed);
        }
        // ordering: Relaxed; pressure check tolerates a stale count by a page or two
        while self.pages.load(Ordering::Relaxed) > self.max_pages {
            if !self.evict_one() {
                break;
            }
        }
    }

    /// Random eviction of one clean, unpinned page.
    fn evict_one(&self) -> bool {
        let mut rng = rand::thread_rng();
        for _ in 0..SHARDS * 4 {
            let idx = rng.gen_range(0..SHARDS);
            let victim = {
                let shard = self.shards[idx].lock();
                if shard.is_empty() {
                    continue;
                }
                let skip = rng.gen_range(0..shard.len());
                shard.iter().nth(skip).map(|(&pid, f)| (pid, f.clone()))
            };
            let Some((pid, frame)) = victim else { continue };
            // No-steal: dirty or pinned pages stay resident until the
            // commit flush or a checkpoint cleans them.
            // ordering: Acquire; pairs with writers' Release stores, clean+unpinned implies no unflushed bytes
            if frame.prevent_evict.load(Ordering::Acquire) || frame.dirty.load(Ordering::Acquire) {
                continue;
            }
            if self.shards[idx].lock().remove(&pid).is_some() {
                // ordering: Relaxed occupancy counter; the shard mutex ordered the remove
                let prev = self.pages.fetch_sub(1, Ordering::Relaxed);
                debug_assert!(prev > 0, "page counter underflow on eviction");
                return true;
            }
        }
        false
    }

    /// Load one whole extent from the device and distribute it into page
    /// frames (one I/O, then per-page copies).
    fn load_extent(&self, spec: ExtentSpec) -> Result<()> {
        let p = self.geo.page_size();
        let mut scratch = vec![0u8; (spec.pages as usize) * p];
        let t = self.metrics.latencies.timer();
        let (res, stats) = RetryPolicy::DEFAULT.run(|| {
            self.device
                .read_at(&mut scratch, self.geo.offset_of(spec.start))
        });
        self.metrics.bump_io_retry(stats.retries, stats.gave_up);
        res?;
        self.metrics.latencies.pool_fault.record_timer(t);
        self.metrics
            .pages_read
            .fetch_add(spec.pages, Ordering::Relaxed); // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        self.distribute(spec, &scratch);
        Ok(())
    }

    /// Copy an extent image into individual page frames, skipping pages that
    /// became resident in the meantime.
    fn distribute(&self, spec: ExtentSpec, scratch: &[u8]) {
        let p = self.geo.page_size();
        for i in 0..spec.pages {
            let pid = spec.start.offset(i);
            if self.lookup(pid).is_some() {
                continue;
            }
            let mut page = vec![0u8; p].into_boxed_slice();
            page.copy_from_slice(&scratch[(i as usize) * p..(i as usize + 1) * p]);
            self.metrics.bump_memcpy(p as u64);
            self.insert(
                pid,
                Arc::new(PageFrame {
                    data: RwLock::new(page),
                    dirty: AtomicBool::new(false),
                    prevent_evict: AtomicBool::new(false),
                }),
            );
        }
    }

    /// Batched cold-read faulting: every extent with a missing page is read
    /// from the device in ONE [`AsyncIo`] submission, then distributed into
    /// page frames. A lone cold extent is left to `get_or_load_page`, which
    /// issues one blocking read for it.
    pub fn fault_many(&self, extents: &[ExtentSpec]) -> Result<()> {
        let p = self.geo.page_size();
        let missing: Vec<ExtentSpec> = extents
            .iter()
            .copied()
            .filter(|spec| (0..spec.pages).any(|i| !self.resident_quiet(spec.start.offset(i))))
            .collect();
        if missing.len() < 2 {
            // Zero or one cold extent: `get_or_load_page` is already minimal.
            return Ok(());
        }
        let mut bufs: Vec<Vec<u8>> = missing
            .iter()
            .map(|spec| vec![0u8; (spec.pages as usize) * p])
            .collect();
        let reqs: Vec<IoReq> = missing
            .iter()
            .zip(bufs.iter_mut())
            .map(|(spec, buf)| IoReq {
                kind: IoKind::Read,
                offset: self.geo.offset_of(spec.start),
                ptr: buf.as_mut_ptr(),
                len: buf.len(),
            })
            .collect();
        let t = self.metrics.latencies.timer();
        // SAFETY: `bufs` outlives the blocking wait and is not touched until
        // the batch completes.
        if unsafe { self.io.submit_and_wait(reqs) }.is_err() {
            // The engine reports only the first error per batch. Fall back
            // to serial re-reads into the same owned buffers: each extent
            // runs under the retry policy, successes distribute into page
            // frames, and the first extent that exhausts its budget
            // surfaces its error (its pages stay cold for the caller's
            // serial path to report consistently).
            let mut first_err: Option<Error> = None;
            for (spec, buf) in missing.iter().zip(bufs.iter_mut()) {
                let (res, stats) = RetryPolicy::DEFAULT
                    .run(|| self.device.read_at(buf, self.geo.offset_of(spec.start)));
                self.metrics.bump_io_retry(stats.retries, stats.gave_up);
                match res {
                    Ok(()) => {
                        self.metrics
                            .pages_read
                            .fetch_add(spec.pages, Ordering::Relaxed); // ordering: relaxed metrics counter; snapshot readers tolerate staleness
                        self.distribute(*spec, buf);
                    }
                    Err(e) => {
                        if first_err.is_none() {
                            first_err = Some(e);
                        }
                    }
                }
            }
            return match first_err {
                Some(e) => Err(e),
                None => Ok(()),
            };
        }
        self.metrics.latencies.pool_fault.record_timer(t);
        let total: u64 = missing.iter().map(|s| s.pages).sum();
        self.metrics.pages_read.fetch_add(total, Ordering::Relaxed); // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        self.metrics.fault_batches.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .pages_faulted_batched
            .fetch_add(total, Ordering::Relaxed); // ordering: relaxed metrics counter; snapshot readers tolerate staleness

        // One miss per cold extent, matching what `get_or_load_page` charges
        // a lone cold extent via its triggering page.
        self.metrics
            .cache_misses
            .fetch_add(missing.len() as u64, Ordering::Relaxed); // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        for (spec, buf) in missing.iter().zip(&bufs) {
            self.distribute(*spec, buf);
        }
        Ok(())
    }

    fn get_or_load_page(&self, spec: ExtentSpec, pid: Pid) -> Result<Arc<PageFrame>> {
        if let Some(f) = self.lookup(pid) {
            // ordering: relaxed metrics counter; snapshot readers tolerate staleness
            self.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(f);
        }
        // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        self.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
        // Under memory pressure a freshly loaded page can be evicted before
        // we re-find it; retry a few times before giving up.
        for _ in 0..8 {
            self.load_extent(spec)?;
            if let Some(f) = self.lookup(pid) {
                return Ok(f);
            }
        }
        Err(Error::BufferFull)
    }

    /// Write fresh content into a newly allocated extent's page frames
    /// (dirty + pinned until the commit flush), hashing as it copies:
    /// `digest` sees each page-sized chunk right after it is copied, while
    /// the bytes are still hot in cache — one pass over `src` instead of
    /// copy-then-rehash.
    pub fn fill_extent_hashed(
        &self,
        spec: ExtentSpec,
        src: &[u8],
        digest: &mut dyn FnMut(&[u8]),
    ) -> Result<()> {
        let p = self.geo.page_size();
        debug_assert!(src.len() <= (spec.pages as usize) * p);
        // Before any flag is set: a flush finishing meanwhile then sees the
        // count and leaves the flags alone.
        self.flushes.stage(spec.start);
        let mut off = 0usize;
        let mut page = 0u64;
        // At least one iteration: an empty source still dirties (and pins)
        // the extent's first page.
        loop {
            let take = (src.len() - off).min(p);
            let pid = spec.start.offset(page);
            let frame = match self.lookup(pid) {
                Some(f) => f,
                None => {
                    let f = Arc::new(PageFrame {
                        data: RwLock::new(vec![0u8; p].into_boxed_slice()),
                        dirty: AtomicBool::new(false),
                        prevent_evict: AtomicBool::new(false),
                    });
                    self.insert(pid, f.clone());
                    f
                }
            };
            let mut data = frame.data.write();
            data[..take].copy_from_slice(&src[off..off + take]);
            self.metrics.bump_memcpy(take as u64);
            digest(&data[..take]);
            frame.dirty.store(true, Ordering::Release); // ordering: Release; written bytes are published before the flags the evictor Acquires
            frame.prevent_evict.store(true, Ordering::Release);
            self.audit.pin(pid.raw());
            off += take;
            page += 1;
            if off >= src.len() {
                break;
            }
        }
        Ok(())
    }

    /// Overwrite a byte range within an existing extent, pulling the pages
    /// it touches from the device first (they may be partially overwritten).
    pub fn write_range(&self, spec: ExtentSpec, byte_off: usize, src: &[u8]) -> Result<()> {
        let p = self.geo.page_size();
        debug_assert!(byte_off + src.len() <= (spec.pages as usize) * p);
        self.flushes.stage(spec.start); // see fill_extent_hashed
        let first_page = byte_off / p;
        let last_page = (byte_off + src.len()).div_ceil(p).max(first_page + 1);
        for i in first_page..last_page.min(spec.pages as usize) {
            let pid = spec.start.offset(i as u64);
            let frame = self.get_or_load_page(spec, pid)?;
            // Byte range of this page within the extent.
            let page_start = i * p;
            let page_end = page_start + p;
            let copy_start = byte_off.max(page_start);
            let copy_end = (byte_off + src.len()).min(page_end);
            let mut data = frame.data.write();
            data[copy_start - page_start..copy_end - page_start]
                .copy_from_slice(&src[copy_start - byte_off..copy_end - byte_off]);
            self.metrics.bump_memcpy((copy_end - copy_start) as u64);
            frame.dirty.store(true, Ordering::Release); // ordering: Release; written bytes are published before the flags the evictor Acquires
            frame.prevent_evict.store(true, Ordering::Release);
            self.audit.pin(pid.raw());
        }
        Ok(())
    }

    /// Gather a BLOB into a freshly allocated buffer and hand it to `f` —
    /// the malloc+memcpy read path of hash-table pools (§V-E).
    pub fn read_blob<R>(
        &self,
        extents: &[ExtentSpec],
        len: u64,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R> {
        if extents.len() > 1 {
            self.fault_many(extents)?;
        }
        let p = self.geo.page_size();
        let len = len as usize;
        let mut buf = Vec::with_capacity(len);
        'outer: for spec in extents {
            for i in 0..spec.pages {
                let pid = spec.start.offset(i);
                let frame = self.get_or_load_page(*spec, pid)?;
                let data = frame.data.read();
                let take = (len - buf.len()).min(p);
                buf.extend_from_slice(&data[..take]);
                self.metrics.bump_memcpy(take as u64);
                if buf.len() == len {
                    break 'outer;
                }
            }
        }
        Ok(f(&buf))
    }

    /// Read a byte range of one extent, loading only the touched pages.
    pub fn read_range(&self, spec: ExtentSpec, byte_off: usize, out: &mut [u8]) -> Result<()> {
        let p = self.geo.page_size();
        debug_assert!(byte_off + out.len() <= (spec.pages as usize) * p);
        let mut done = 0usize;
        while done < out.len() {
            let abs = byte_off + done;
            let page_idx = abs / p;
            let in_page = abs % p;
            let take = (out.len() - done).min(p - in_page);
            let frame = self.get_or_load_page(spec, spec.start.offset(page_idx as u64))?;
            let data = frame.data.read();
            out[done..done + take].copy_from_slice(&data[in_page..in_page + take]);
            self.metrics.bump_memcpy(take as u64);
            done += take;
        }
        Ok(())
    }

    /// Commit-time flush: one contiguous device write per extent (gathered
    /// from the page frames), then unpin and mark clean.
    pub fn flush_extents(&self, items: &[FlushItem]) -> Result<()> {
        let batch = self.flush_extents_begin(items)?;
        let result = batch.wait();
        self.flush_extents_finish(&batch, &result);
        result
    }

    /// First half of the commit-time flush, without blocking: gather each
    /// extent's dirty pages into owned scratch buffers (the frames are
    /// scattered heap pages, not a contiguous arena) and submit one batched
    /// asynchronous write. The scratch lives in the returned batch until
    /// [`HashTablePool::flush_extents_finish`], so the page frames stay
    /// free to be written or even evicted while the I/O is in flight —
    /// which is exactly why the committer must never keep two in-flight
    /// batches touching the same extent (stale scratch could reorder).
    pub fn flush_extents_begin(&self, items: &[FlushItem]) -> Result<FlushBatch> {
        let p = self.geo.page_size();
        let mut bufs = Vec::with_capacity(items.len());
        for item in items {
            let mut scratch = vec![0u8; (item.dirty_pages as usize) * p];
            for i in 0..item.dirty_pages {
                let pid = item.spec.start.offset(item.dirty_from + i);
                if let Some(frame) = self.lookup(pid) {
                    let data = frame.data.read();
                    scratch[(i as usize) * p..(i as usize + 1) * p].copy_from_slice(&data);
                    self.metrics.bump_memcpy(p as u64);
                }
            }
            bufs.push(scratch);
        }
        let reqs: Vec<IoReq> = items
            .iter()
            .zip(bufs.iter_mut())
            .map(|(item, buf)| IoReq {
                kind: IoKind::Write,
                offset: self.geo.offset_of(item.spec.start.offset(item.dirty_from)),
                ptr: buf.as_mut_ptr(),
                len: buf.len(),
            })
            .collect();
        for item in items {
            self.flushes.begin(item.spec.start, item.spec.pages);
        }
        // SAFETY: the write sources are owned by the returned batch and
        // outlive the requests.
        let handle = unsafe { self.io.submit(reqs) };
        Ok(FlushBatch {
            handle,
            items: items.to_vec(),
            _scratch: bufs,
        })
    }

    /// Second half of the commit-time flush: called exactly once per batch
    /// with the reaped completion result. On success an extent's pages
    /// become clean and evictable, unless a later flush of it is still
    /// owed.
    pub fn flush_extents_finish(&self, batch: &FlushBatch, result: &Result<()>) {
        let landed = result.is_ok();
        if landed {
            let p = self.geo.page_size() as u64;
            let total_pages: u64 = batch.items.iter().map(|i| i.dirty_pages).sum();
            self.metrics
                .pages_written
                .fetch_add(total_pages, Ordering::Relaxed); // ordering: relaxed metrics counter; snapshot readers tolerate staleness
            self.metrics
                .bytes_written
                .fetch_add(total_pages * p, Ordering::Relaxed); // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        }
        for item in &batch.items {
            if !self.flushes.finish(item.spec.start, landed) {
                continue;
            }
            for i in 0..item.spec.pages {
                let pid = item.spec.start.offset(i);
                if let Some(frame) = self.lookup(pid) {
                    frame.dirty.store(false, Ordering::Release); // ordering: Release; clean flags are published only after the flush write landed
                    frame.prevent_evict.store(false, Ordering::Release);
                }
                self.audit.unpin(pid.raw());
            }
        }
    }

    /// Flush every dirty page (checkpoint / shutdown), except the pages of
    /// an extent with a flush on the device right now — see
    /// [`crate::ExtentPool::flush_all_dirty`].
    pub fn flush_all_dirty(&self) -> Result<()> {
        let flying: HashSet<u64> = self
            .flushes
            .flights()
            .into_iter()
            .flat_map(|(start, pages)| (0..pages).map(move |i| start.offset(i).raw()))
            .collect();
        for shard in &self.shards {
            let entries: Vec<(u64, Arc<PageFrame>)> = shard
                .lock()
                .iter()
                .filter(|(pid, _)| !flying.contains(pid))
                .map(|(&pid, f)| (pid, f.clone()))
                .collect();
            for (pid, frame) in entries {
                // ordering: AcqRel; claim the dirty bit, acquiring the writer's bytes and publishing the clean state
                if frame.dirty.swap(false, Ordering::AcqRel) {
                    let data = frame.data.read();
                    self.device
                        .write_at(&data, self.geo.offset_of(Pid::new(pid)))?;
                    // ordering: relaxed metrics counter; snapshot readers tolerate staleness
                    self.metrics.pages_written.fetch_add(1, Ordering::Relaxed);
                }
                // ordering: Release; unpin is published only after the page write above
                frame.prevent_evict.store(false, Ordering::Release);
                self.audit.unpin(pid);
                // Keyed by extent start: a no-op for every other page.
                self.flushes.forget(Pid::new(pid));
            }
        }
        Ok(())
    }

    /// Drop every cached page (recovery epilogue / cold-cache runs). Dirty
    /// pages must have been flushed first.
    pub fn drop_all(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock();
            let n = shard.len() as u64;
            shard.clear();
            // ordering: Relaxed occupancy counter; the shard mutexes ordered the clears
            let prev = self.pages.fetch_sub(n, Ordering::Relaxed);
            debug_assert!(prev >= n, "page counter underflow on drop_all");
        }
    }

    /// Clear `prevent_evict` on an extent's pages without flushing.
    pub fn unpin_extent(&self, spec: ExtentSpec) {
        self.flushes.forget(spec.start);
        for i in 0..spec.pages {
            let pid = spec.start.offset(i);
            if let Some(frame) = self.lookup(pid) {
                // ordering: Release; unpin on abort-cleanup, pairs with the evictor's Acquire
                frame.prevent_evict.store(false, Ordering::Release);
            }
            self.audit.unpin(pid.raw());
        }
    }

    /// Discard an extent's pages without writing them back.
    pub fn drop_extent(&self, spec: ExtentSpec) {
        self.flushes.forget(spec.start);
        for i in 0..spec.pages {
            let pid = spec.start.offset(i);
            if self.shard(pid).lock().remove(&pid.raw()).is_some() {
                // ordering: Relaxed occupancy counter; the shard mutex ordered the remove
                let prev = self.pages.fetch_sub(1, Ordering::Relaxed);
                debug_assert!(prev > 0, "page counter underflow on drop_extent");
            }
            // Rollback may drop pages that are still pinned.
            self.audit.unpin(pid.raw());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobster_storage::MemDevice;

    fn pool(max_pages: u64) -> (Arc<HashTablePool>, Arc<dyn Device>) {
        let dev: Arc<dyn Device> = Arc::new(MemDevice::new(4 << 20));
        let m = lobster_metrics::new_metrics();
        (
            HashTablePool::new(dev.clone(), Geometry::new(4096), max_pages, m),
            dev,
        )
    }

    #[test]
    fn fill_flush_read_roundtrip() {
        let (p, _dev) = pool(64);
        let spec = ExtentSpec::new(Pid::new(10), 3);
        let data: Vec<u8> = (0..3 * 4096).map(|i| (i % 256) as u8).collect();
        p.fill_extent_hashed(spec, &data, &mut |_| ()).unwrap();
        p.flush_extents(&[FlushItem::whole(spec)]).unwrap();
        p.drop_extent(spec);
        // Reload from device.
        let out = p
            .read_blob(&[spec], data.len() as u64, |b| b.to_vec())
            .unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn eviction_respects_budget_and_pins() {
        let (p, _dev) = pool(8);
        for e in 0..4u64 {
            let spec = ExtentSpec::new(Pid::new(e * 4), 4);
            p.fill_extent_hashed(spec, &vec![e as u8; 4 * 4096], &mut |_| ())
                .unwrap();
            // Unpin so eviction can work.
            p.flush_extents(&[FlushItem::whole(spec)]).unwrap();
        }
        assert!(
            p.pages_in_use() <= 9,
            "pool must stay near its budget, got {}",
            p.pages_in_use()
        );
    }

    #[test]
    fn partial_overwrite_with_load() {
        let (p, _dev) = pool(64);
        let spec = ExtentSpec::new(Pid::new(0), 2);
        p.fill_extent_hashed(spec, &vec![7u8; 8192], &mut |_| ())
            .unwrap();
        p.flush_extents(&[FlushItem::whole(spec)]).unwrap();
        p.drop_extent(spec);
        // Overwrite bytes 100..300 after reload.
        p.write_range(spec, 100, &[9u8; 200]).unwrap();
        let out = p.read_blob(&[spec], 8192, |b| b.to_vec()).unwrap();
        assert_eq!(&out[..100], &vec![7u8; 100][..]);
        assert_eq!(&out[100..300], &vec![9u8; 200][..]);
        assert_eq!(&out[300..], &vec![7u8; 8192 - 300][..]);
    }

    #[test]
    fn per_page_translations_counted() {
        let (p, _dev) = pool(64);
        let m = p.metrics().clone();
        let spec = ExtentSpec::new(Pid::new(0), 8);
        p.fill_extent_hashed(spec, &vec![1u8; 8 * 4096], &mut |_| ())
            .unwrap();
        let before = m.snapshot().translations;
        p.read_blob(&[spec], 8 * 4096, |_| ()).unwrap();
        let delta = m.snapshot().translations - before;
        assert!(
            delta >= 8,
            "hash-table pool must translate per page, got {delta}"
        );
    }
}
