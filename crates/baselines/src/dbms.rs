//! DBMS BLOB-storage models: PostgreSQL TOAST, MySQL/InnoDB overflow
//! chains, and SQLite (§II and Table I).
//!
//! Each model implements the *storage-format logic* the paper catalogues —
//! the indirection layers, duplicate copies, and write amplification —
//! over the shared [`Device`], with a page cache so "in-memory" workloads
//! behave like the real systems with warm buffer pools. PostgreSQL and
//! MySQL additionally charge a client/server cost (socket round trip +
//! serialization copies), which §V-B identifies as their dominant overhead
//! for small objects.
// lint-allow-file(ordering-audit): baseline cost-model bookkeeping (op/tuple/byte counters); Relaxed by design, nothing synchronizes on these atomics.

use crate::alloc::RangeAllocator;
use crate::fskit::PageCache;
use crate::store::{snapshot_of, ObjectStore, StoreStats};
use lobster_metrics::{new_metrics, Metrics};
use lobster_storage::Device;
use lobster_types::{Error, Result};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

const PAGE: usize = 4096;

/// Client/server overhead per statement: one socket round trip plus two
/// payload copies (serialize into the wire format, copy across the
/// socket).
#[derive(Clone, Copy, Debug)]
pub struct ClientServerCost {
    pub round_trip: Duration,
    /// Per-byte cost of (de)serialization, in nanoseconds per KiB.
    pub ns_per_kib: u64,
}

impl ClientServerCost {
    /// Unix-domain-socket configuration (the paper's setup).
    pub fn unix_socket() -> Self {
        ClientServerCost {
            round_trip: Duration::from_micros(25),
            ns_per_kib: 40,
        }
    }

    /// No client/server layer (in-process systems: SQLite and ours).
    pub fn none() -> Self {
        ClientServerCost {
            round_trip: Duration::ZERO,
            ns_per_kib: 0,
        }
    }

    fn charge(&self, metrics: &Metrics, payload: usize) {
        if self.round_trip.is_zero() && self.ns_per_kib == 0 {
            return;
        }
        // Two copies of the payload (client serialize + kernel socket).
        metrics.bump_memcpy(payload as u64);
        metrics.bump_memcpy(payload as u64);
        metrics.syscalls.fetch_add(2, Ordering::Relaxed); // send + recv
        let per_byte = Duration::from_nanos(self.ns_per_kib * (payload as u64).div_ceil(1024));
        spin(self.round_trip + per_byte);
    }
}

fn spin(d: Duration) {
    if d.is_zero() {
        return;
    }
    let end = Instant::now() + d;
    while Instant::now() < end {
        if d > Duration::from_micros(5) {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Shared paged substrate: page allocation, a WAL region, and a cache.
struct PagedStore {
    device: Arc<dyn Device>,
    alloc: RangeAllocator,
    cache: Mutex<PageCache>,
    metrics: Metrics,
    data_base: u64,
    wal_blocks: u64,
    wal_pos: Mutex<u64>,
    /// Bytes appended to the WAL since the last checkpoint.
    wal_since_ckpt: Mutex<u64>,
}

impl PagedStore {
    fn new(device: Arc<dyn Device>, cache_pages: usize) -> Self {
        let total = device.capacity() / PAGE as u64;
        let wal_blocks = (32u64 << 20) / PAGE as u64;
        assert!(total > wal_blocks + 16, "device too small");
        PagedStore {
            device,
            alloc: RangeAllocator::new(total - wal_blocks),
            cache: Mutex::new(PageCache::new(cache_pages)),
            metrics: new_metrics(),
            data_base: wal_blocks,
            wal_blocks,
            wal_pos: Mutex::new(0),
            wal_since_ckpt: Mutex::new(0),
        }
    }

    /// Append `bytes` of log (sequential write to the WAL region).
    fn wal_append(&self, bytes: usize) -> Result<u64> {
        let blocks = (bytes.div_ceil(PAGE)) as u64;
        let pos = {
            let mut p = self.wal_pos.lock();
            let pos = *p;
            *p = (pos + blocks) % self.wal_blocks;
            pos
        };
        let fit = ((self.wal_blocks - pos) as usize * PAGE).min(blocks as usize * PAGE);
        let zeros = vec![0u8; fit];
        self.device.write_at(&zeros, pos * PAGE as u64)?;
        self.metrics
            .wal_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
        self.metrics
            .pages_written
            .fetch_add(blocks, Ordering::Relaxed);
        self.metrics
            .bytes_written
            .fetch_add(blocks * PAGE as u64, Ordering::Relaxed);
        *self.wal_since_ckpt.lock() += bytes as u64;
        Ok(blocks)
    }

    /// Write one data page (given its content) and cache it.
    fn write_page(&self, page: u64, data: &[u8]) -> Result<()> {
        debug_assert!(data.len() <= PAGE);
        let mut buf = vec![0u8; PAGE];
        buf[..data.len()].copy_from_slice(data);
        self.device
            .write_at(&buf, (self.data_base + page) * PAGE as u64)?;
        self.metrics.pages_written.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .bytes_written
            .fetch_add(PAGE as u64, Ordering::Relaxed);
        self.cache.lock().insert(self.data_base + page, buf.into());
        Ok(())
    }

    /// Read one data page through the cache.
    fn read_page(&self, page: u64, out: &mut [u8]) -> Result<()> {
        debug_assert!(out.len() <= PAGE);
        let key = self.data_base + page;
        {
            let cache = self.cache.lock();
            if let Some(cached) = cache.get(key) {
                out.copy_from_slice(&cached[..out.len()]);
                self.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
        }
        self.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
        let mut buf = vec![0u8; PAGE];
        self.device.read_at(&mut buf, key * PAGE as u64)?;
        self.metrics.pages_read.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .bytes_read
            .fetch_add(PAGE as u64, Ordering::Relaxed);
        out.copy_from_slice(&buf[..out.len()]);
        self.cache.lock().insert(key, buf.into());
        Ok(())
    }

    fn free_pages(&self, pages: &[u64]) {
        let mut cache = self.cache.lock();
        for &p in pages {
            cache.remove_range(self.data_base + p, 1);
            self.alloc.free(p, 1);
        }
    }
}

// ------------------------------------------------------------- PostgreSQL

struct ToastEntry {
    size: u64,
    pages: Vec<u64>,
}

/// PostgreSQL's TOAST storage model: BLOBs chunked into a separate
/// relation with ~4 chunks per page; every read is two index lookups plus
/// a multi-page chunk scan; the WAL receives full content.
pub struct ToastStore {
    store: PagedStore,
    entries: Mutex<HashMap<String, ToastEntry>>,
    cost: ClientServerCost,
}

/// Bytes of one TOAST chunk (4 chunks per page, minus tuple overhead).
const TOAST_CHUNK: usize = PAGE / 4 - 28;
/// Payload bytes stored per TOAST page.
const TOAST_PER_PAGE: usize = TOAST_CHUNK * 4;

impl ToastStore {
    pub fn new(device: Arc<dyn Device>, cache_pages: usize, cost: ClientServerCost) -> Self {
        ToastStore {
            store: PagedStore::new(device, cache_pages),
            entries: Mutex::new(HashMap::new()),
            cost,
        }
    }
}

impl ObjectStore for ToastStore {
    fn label(&self) -> &str {
        "PostgreSQL"
    }

    fn put(&self, key: &str, data: &[u8]) -> Result<()> {
        if self.entries.lock().contains_key(key) {
            return Err(Error::KeyExists);
        }
        self.cost.charge(&self.store.metrics, data.len());
        // Chunk into TOAST pages; pages allocated row-by-row (scattered).
        let n_pages = data.len().div_ceil(TOAST_PER_PAGE).max(1);
        let mut pages = Vec::with_capacity(n_pages);
        for i in 0..n_pages {
            let page = self.store.alloc.allocate(1)?;
            let lo = i * TOAST_PER_PAGE;
            let hi = (lo + TOAST_PER_PAGE).min(data.len());
            // Chunking copies the payload into tuples.
            self.store.metrics.bump_memcpy((hi - lo) as u64);
            self.store.write_page(page, &data[lo..hi])?;
            pages.push(page);
        }
        // WAL: full content plus per-chunk record headers.
        self.store.wal_append(data.len() + n_pages * 4 * 32)?;
        // Main-relation index maintenance.
        self.store
            .metrics
            .btree_node_accesses
            .fetch_add(3, Ordering::Relaxed);
        self.entries.lock().insert(
            key.to_string(),
            ToastEntry {
                size: data.len() as u64,
                pages,
            },
        );
        Ok(())
    }

    fn get(&self, key: &str, f: &mut dyn FnMut(&[u8])) -> Result<()> {
        self.cost.charge(&self.store.metrics, 64); // the query itself
                                                   // Two lookups: main relation, then the TOAST index.
        self.store
            .metrics
            .btree_node_accesses
            .fetch_add(6, Ordering::Relaxed);
        let (size, pages) = {
            let entries = self.entries.lock();
            let e = entries.get(key).ok_or(Error::KeyNotFound)?;
            (e.size, e.pages.clone())
        };
        // Chunk scan: page-at-a-time reads, reassembled with memcpy; every
        // chunk row is one more indirection the scan must chase.
        let mut out = vec![0u8; size as usize];
        for (i, &page) in pages.iter().enumerate() {
            let lo = i * TOAST_PER_PAGE;
            let hi = (lo + TOAST_PER_PAGE).min(size as usize);
            self.store.read_page(page, &mut out[lo..hi])?;
            self.store.metrics.bump_memcpy((hi - lo) as u64);
            self.store
                .metrics
                .btree_node_accesses
                .fetch_add(4, Ordering::Relaxed); // 4 chunk tuples per page
        }
        // Result serialization back to the client.
        self.cost.charge(&self.store.metrics, size as usize);
        f(&out);
        Ok(())
    }

    fn delete(&self, key: &str) -> Result<()> {
        self.cost.charge(&self.store.metrics, 64);
        let entry = self.entries.lock().remove(key).ok_or(Error::KeyNotFound)?;
        self.store.free_pages(&entry.pages);
        self.store.wal_append(entry.pages.len() * 32 + 64)?;
        Ok(())
    }

    fn stat(&self, key: &str) -> Result<Option<u64>> {
        self.cost.charge(&self.store.metrics, 64);
        self.store
            .metrics
            .metadata_ops
            .fetch_add(1, Ordering::Relaxed);
        Ok(self.entries.lock().get(key).map(|e| e.size))
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            metrics: snapshot_of(&self.store.metrics),
            utilization: self.store.alloc.utilization(),
        }
    }
}

// ---------------------------------------------------------- MySQL/InnoDB

struct ChainEntry {
    size: u64,
    pages: Vec<u64>,
}

/// Payload bytes per overflow page (page minus header and next-pointer).
const OVERFLOW_PER_PAGE: usize = PAGE - 38;

/// MySQL/InnoDB's externally stored fields: a linked list of overflow
/// pages traversed sequentially, a doublewrite buffer (every page written
/// twice), and redo logging of content.
pub struct OverflowStore {
    store: PagedStore,
    entries: Mutex<HashMap<String, ChainEntry>>,
    cost: ClientServerCost,
}

impl OverflowStore {
    pub fn new(device: Arc<dyn Device>, cache_pages: usize, cost: ClientServerCost) -> Self {
        OverflowStore {
            store: PagedStore::new(device, cache_pages),
            entries: Mutex::new(HashMap::new()),
            cost,
        }
    }
}

impl ObjectStore for OverflowStore {
    fn label(&self) -> &str {
        "MySQL"
    }

    fn put(&self, key: &str, data: &[u8]) -> Result<()> {
        if self.entries.lock().contains_key(key) {
            return Err(Error::KeyExists);
        }
        self.cost.charge(&self.store.metrics, data.len());
        let n_pages = data.len().div_ceil(OVERFLOW_PER_PAGE).max(1);
        let mut pages = Vec::with_capacity(n_pages);
        for i in 0..n_pages {
            let page = self.store.alloc.allocate(1)?;
            let lo = i * OVERFLOW_PER_PAGE;
            let hi = (lo + OVERFLOW_PER_PAGE).min(data.len());
            self.store.metrics.bump_memcpy((hi - lo) as u64);
            // Doublewrite buffer: the page is written to the DWB region
            // first, then in place.
            self.store.wal_append(PAGE)?; // DWB write (sequential region)
            self.store.write_page(page, &data[lo..hi])?;
            pages.push(page);
        }
        // Redo log carries the content as well.
        self.store.wal_append(data.len())?;
        self.store
            .metrics
            .btree_node_accesses
            .fetch_add(3, Ordering::Relaxed);
        self.entries.lock().insert(
            key.to_string(),
            ChainEntry {
                size: data.len() as u64,
                pages,
            },
        );
        Ok(())
    }

    fn get(&self, key: &str, f: &mut dyn FnMut(&[u8])) -> Result<()> {
        self.cost.charge(&self.store.metrics, 64);
        self.store
            .metrics
            .btree_node_accesses
            .fetch_add(3, Ordering::Relaxed);
        let (size, pages) = {
            let entries = self.entries.lock();
            let e = entries.get(key).ok_or(Error::KeyNotFound)?;
            (e.size, e.pages.clone())
        };
        // The chain is walked strictly sequentially: each page must be
        // read before the next pointer is known — one indirection per page.
        let mut out = vec![0u8; size as usize];
        for (i, &page) in pages.iter().enumerate() {
            let lo = i * OVERFLOW_PER_PAGE;
            let hi = (lo + OVERFLOW_PER_PAGE).min(size as usize);
            self.store.read_page(page, &mut out[lo..hi])?;
            self.store.metrics.bump_memcpy((hi - lo) as u64);
            self.store
                .metrics
                .btree_node_accesses
                .fetch_add(1, Ordering::Relaxed);
        }
        self.cost.charge(&self.store.metrics, size as usize);
        f(&out);
        Ok(())
    }

    fn delete(&self, key: &str) -> Result<()> {
        self.cost.charge(&self.store.metrics, 64);
        let entry = self.entries.lock().remove(key).ok_or(Error::KeyNotFound)?;
        self.store.free_pages(&entry.pages);
        self.store.wal_append(entry.pages.len() * 16 + 64)?;
        Ok(())
    }

    fn stat(&self, key: &str) -> Result<Option<u64>> {
        self.cost.charge(&self.store.metrics, 64);
        self.store
            .metrics
            .metadata_ops
            .fetch_add(1, Ordering::Relaxed);
        Ok(self.entries.lock().get(key).map(|e| e.size))
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            metrics: snapshot_of(&self.store.metrics),
            utilization: self.store.alloc.utilization(),
        }
    }
}

// ----------------------------------------------------------------- SQLite

/// SQLite model: in-process (no socket), linked list of pages, WAL-mode
/// journaling with aggressive checkpointing (default 1000-page WAL limit,
/// which yields the ≈ 2.5 checkpoints per 10 MB BLOB the paper cites), and
/// optionally a WITHOUT-ROWID index that copies the content twice more.
pub struct SqliteStore {
    store: PagedStore,
    entries: Mutex<HashMap<String, ChainEntry>>,
    /// WAL auto-checkpoint threshold in pages (SQLite default 1000).
    wal_limit_pages: u64,
    /// WITHOUT-ROWID content index (content duplicated in the index and in
    /// the index's WAL entries — four copies total).
    without_rowid_index: bool,
    /// Per-statement cost: SQL parsing + VDBE bytecode execution.
    stmt_overhead: Duration,
}

impl SqliteStore {
    pub fn new(device: Arc<dyn Device>, cache_pages: usize, without_rowid_index: bool) -> Self {
        SqliteStore {
            store: PagedStore::new(device, cache_pages),
            entries: Mutex::new(HashMap::new()),
            wal_limit_pages: 1000,
            without_rowid_index,
            stmt_overhead: Duration::from_nanos(2500),
        }
    }

    fn statement(&self) {
        spin(self.stmt_overhead);
    }

    /// Checkpoint if the WAL exceeds its limit: copy the accumulated WAL
    /// content back into the main database (more page writes).
    fn maybe_checkpoint(&self) -> Result<()> {
        let pending = {
            let mut since = self.store.wal_since_ckpt.lock();
            if *since < self.wal_limit_pages * PAGE as u64 {
                return Ok(());
            }
            std::mem::take(&mut *since)
        };
        // Checkpoint rewrites the WAL frames into the database file.
        let pages = pending / PAGE as u64;
        let zeros = vec![0u8; PAGE];
        for i in 0..pages.min(self.wal_limit_pages) {
            self.store
                .device
                .write_at(&zeros, (self.store.data_base + i % 64) * PAGE as u64)?;
        }
        self.store
            .metrics
            .pages_written
            .fetch_add(pages, Ordering::Relaxed);
        self.store
            .metrics
            .checkpoints
            .fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

impl ObjectStore for SqliteStore {
    fn label(&self) -> &str {
        "SQLite"
    }

    fn put(&self, key: &str, data: &[u8]) -> Result<()> {
        self.statement();
        if self.entries.lock().contains_key(key) {
            return Err(Error::KeyExists);
        }
        // SQLite's 2 GB BLOB limit (§V-B: the 1 GB-class experiment still
        // passes here, but the real limit is enforced for fidelity).
        if data.len() as u64 > 2 * 1024 * 1024 * 1024 {
            return Err(Error::InvalidArgument("BLOB too big".into()));
        }
        let n_pages = data.len().div_ceil(OVERFLOW_PER_PAGE).max(1);
        let mut pages = Vec::with_capacity(n_pages);
        for i in 0..n_pages {
            let page = self.store.alloc.allocate(1)?;
            let lo = i * OVERFLOW_PER_PAGE;
            let hi = (lo + OVERFLOW_PER_PAGE).min(data.len());
            self.store.metrics.bump_memcpy((hi - lo) as u64);
            self.store.write_page(page, &data[lo..hi])?;
            pages.push(page);
        }
        // WAL mode: content goes to the WAL as well.
        self.store.wal_append(data.len())?;
        if self.without_rowid_index {
            // Index copy of the content + its WAL entries (copies 3 and 4).
            for chunk in data.chunks(OVERFLOW_PER_PAGE) {
                let page = self.store.alloc.allocate(1)?;
                self.store.metrics.bump_memcpy(chunk.len() as u64);
                self.store.write_page(page, chunk)?;
                pages.push(page);
            }
            self.store.wal_append(data.len())?;
        }
        self.maybe_checkpoint()?;
        self.entries.lock().insert(
            key.to_string(),
            ChainEntry {
                size: data.len() as u64,
                pages,
            },
        );
        Ok(())
    }

    fn get(&self, key: &str, f: &mut dyn FnMut(&[u8])) -> Result<()> {
        self.statement();
        self.store
            .metrics
            .btree_node_accesses
            .fetch_add(3, Ordering::Relaxed);
        let (size, pages) = {
            let entries = self.entries.lock();
            let e = entries.get(key).ok_or(Error::KeyNotFound)?;
            (e.size, e.pages.clone())
        };
        let data_pages = (size as usize).div_ceil(OVERFLOW_PER_PAGE).max(1);
        let mut out = vec![0u8; size as usize];
        for (i, &page) in pages.iter().take(data_pages).enumerate() {
            let lo = i * OVERFLOW_PER_PAGE;
            let hi = (lo + OVERFLOW_PER_PAGE).min(size as usize);
            self.store.read_page(page, &mut out[lo..hi])?;
            self.store.metrics.bump_memcpy((hi - lo) as u64);
            self.store
                .metrics
                .btree_node_accesses
                .fetch_add(1, Ordering::Relaxed);
        }
        f(&out);
        Ok(())
    }

    fn delete(&self, key: &str) -> Result<()> {
        self.statement();
        let entry = self.entries.lock().remove(key).ok_or(Error::KeyNotFound)?;
        self.store.free_pages(&entry.pages);
        self.store.wal_append(entry.pages.len() * 16 + 64)?;
        self.maybe_checkpoint()?;
        Ok(())
    }

    fn stat(&self, key: &str) -> Result<Option<u64>> {
        self.statement();
        self.store
            .metrics
            .metadata_ops
            .fetch_add(1, Ordering::Relaxed);
        Ok(self.entries.lock().get(key).map(|e| e.size))
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            metrics: snapshot_of(&self.store.metrics),
            utilization: self.store.alloc.utilization(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobster_storage::MemDevice;

    fn dev() -> Arc<dyn Device> {
        Arc::new(MemDevice::new(512 << 20))
    }

    fn no_cost() -> ClientServerCost {
        ClientServerCost::none()
    }

    #[test]
    fn toast_roundtrip_and_write_amplification() {
        let s = ToastStore::new(dev(), 8192, no_cost());
        let data: Vec<u8> = (0..500_000).map(|i| (i % 249) as u8).collect();
        s.put("k", &data).unwrap();
        let mut out = Vec::new();
        s.get("k", &mut |b| out = b.to_vec()).unwrap();
        assert_eq!(out, data);
        // Content written at least twice: TOAST pages + WAL.
        let m = s.stats().metrics;
        assert!(
            m.bytes_written >= 2 * data.len() as u64,
            "TOAST must double-write: {}",
            m.bytes_written
        );
        s.delete("k").unwrap();
        assert_eq!(s.stat("k").unwrap(), None);
    }

    #[test]
    fn innodb_doublewrite_triples_content() {
        let s = OverflowStore::new(dev(), 8192, no_cost());
        let data = vec![1u8; 400_000];
        s.put("k", &data).unwrap();
        let m = s.stats().metrics;
        // DWB + in-place + redo ≈ 3x.
        assert!(
            m.bytes_written >= 3 * data.len() as u64 * 9 / 10,
            "InnoDB writes ≈3x: {}",
            m.bytes_written
        );
        let mut out = Vec::new();
        s.get("k", &mut |b| out = b.to_vec()).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn sqlite_checkpoints_aggressively() {
        let s = SqliteStore::new(dev(), 8192, false);
        // A 10 MB BLOB should trigger ~2.5 checkpoints (1000-page WAL).
        let data = vec![2u8; 10 << 20];
        s.put("k", &data).unwrap();
        s.put("k2", &data).unwrap();
        let ckpts = s.stats().metrics.checkpoints;
        assert!(
            (2..=8).contains(&ckpts),
            "≈2.5 checkpoints per 10MB blob write, got {ckpts} for two"
        );
    }

    #[test]
    fn sqlite_without_rowid_quadruples_copies() {
        let plain = SqliteStore::new(dev(), 8192, false);
        let indexed = SqliteStore::new(dev(), 8192, true);
        let data = vec![3u8; 200_000];
        plain.put("k", &data).unwrap();
        indexed.put("k", &data).unwrap();
        let wp = plain.stats().metrics.bytes_written;
        let wi = indexed.stats().metrics.bytes_written;
        assert!(
            wi as f64 >= wp as f64 * 1.8,
            "WITHOUT-ROWID must ~double again: {wp} vs {wi}"
        );
        let mut out = Vec::new();
        indexed.get("k", &mut |b| out = b.to_vec()).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn client_server_cost_is_charged() {
        let cheap = ToastStore::new(dev(), 64, no_cost());
        let pricey = ToastStore::new(dev(), 64, ClientServerCost::unix_socket());
        let data = vec![1u8; 120];
        cheap.put("k", &data).unwrap();
        pricey.put("k", &data).unwrap();
        let sc = cheap.stats().metrics;
        let sp = pricey.stats().metrics;
        assert!(sp.syscalls > sc.syscalls);
        assert!(sp.memcpy_bytes > sc.memcpy_bytes);
    }

    #[test]
    fn duplicate_and_missing_keys() {
        let s = SqliteStore::new(dev(), 64, false);
        s.put("k", b"x").unwrap();
        assert!(matches!(s.put("k", b"y"), Err(Error::KeyExists)));
        assert!(matches!(s.delete("zz"), Err(Error::KeyNotFound)));
        let mut hit = false;
        assert!(s.get("zz", &mut |_| hit = true).is_err());
        assert!(!hit);
        // replace() default works through delete+put.
        s.replace("k", b"yy").unwrap();
        assert_eq!(s.stat("k").unwrap(), Some(2));
    }
}
