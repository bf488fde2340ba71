//! Parameterized file-system model: ext4 (ordered / data-journal), XFS,
//! BtrFS, and F2FS behaviour over a shared [`Device`].
//!
//! The model captures exactly the mechanisms the paper's evaluation
//! attributes costs to:
//!
//! * **syscall crossings** — every operation charges a fixed kernel-entry
//!   cost (busy-wait, deterministic), the overhead §V-B/§V-I measures for
//!   `open`/`fstat`/`close`;
//! * **extent trees** — per-file logical→physical maps whose traversal
//!   depth grows with fragmentation; reads proceed extent by extent,
//!   interleaving computation with I/O (§II "High read cost");
//! * **page cache + `pread` copy** — hits skip the device but every read
//!   still copies kernel → user (the extra memcpy §V-D highlights);
//! * **journaling** — `data=journal` writes file content twice (journal +
//!   in-place), `data=ordered` journals metadata only (§II "Excessive BLOB
//!   writes");
//! * **allocation strategies** — best-effort largest-contiguous for
//!   ext4/XFS/BtrFS degrades near-full (Figure 11), while F2FS's
//!   fixed-size log-structured segments stay O(1).
// lint-allow-file(ordering-audit): baseline cost-model bookkeeping (block/byte counters, fd ids); Relaxed by design, nothing synchronizes on these atomics.

use crate::alloc::RangeAllocator;
use crate::store::{snapshot_of, ObjectStore, StoreStats};
use lobster_metrics::{new_metrics, Metrics};
use lobster_storage::Device;
use lobster_types::{Error, Result};
use lobster_vfs::{Errno, Fd, FileKind, FileStat, FileSystem, EBADF, ENOENT, ENOTDIR};

type VfsResult<T> = std::result::Result<T, Errno>;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const BLOCK: usize = 4096;

/// Behavioural parameters of one modeled file system.
#[derive(Clone, Copy, Debug)]
pub struct FsProfile {
    pub name: &'static str,
    /// Journal file content (ext4 `data=journal`).
    pub journal_data: bool,
    /// Journal metadata blocks on create/delete (all but none here).
    pub journal_metadata: bool,
    /// Copy-on-write: replacing content always allocates fresh blocks.
    pub cow: bool,
    /// Log-structured: allocate fixed-size segments (stable near-full).
    pub log_structured: bool,
    /// Kernel-crossing cost charged per system call.
    pub syscall: Duration,
    /// Extent-tree fanout (depth = ceil(log_fanout(extents))).
    pub extent_fanout: usize,
    /// Preferred contiguous allocation in blocks (delayed allocation
    /// gives XFS a larger target).
    pub alloc_target: u64,
    /// Per-page cost of buffered I/O (page-cache allocation, radix-tree
    /// insert, dirty accounting — what write(2)/read(2) pay per 4 KiB).
    pub page_op: Duration,
}

impl FsProfile {
    pub fn ext4_ordered() -> Self {
        FsProfile {
            name: "Ext4.ordered",
            journal_data: false,
            journal_metadata: true,
            cow: false,
            log_structured: false,
            syscall: Duration::from_nanos(1500),
            extent_fanout: 340,
            alloc_target: 2048, // 8 MB best effort
            page_op: Duration::from_nanos(600),
        }
    }

    pub fn ext4_journal() -> Self {
        FsProfile {
            name: "Ext4.journal",
            journal_data: true,
            ..Self::ext4_ordered()
        }
    }

    pub fn xfs() -> Self {
        FsProfile {
            name: "XFS",
            journal_data: false,
            journal_metadata: true,
            cow: false,
            log_structured: false,
            // Cheaper metadata path (the paper: XFS spends the least time
            // in syscalls among the file systems).
            syscall: Duration::from_nanos(1100),
            extent_fanout: 256,
            alloc_target: 4096, // 16 MB delayed allocation
            page_op: Duration::from_nanos(550),
        }
    }

    pub fn btrfs() -> Self {
        FsProfile {
            name: "BtrFS",
            journal_data: false,
            journal_metadata: true,
            cow: true,
            log_structured: false,
            syscall: Duration::from_nanos(1600),
            extent_fanout: 121,
            alloc_target: 2048,
            page_op: Duration::from_nanos(700), // COW metadata per page
        }
    }

    pub fn f2fs() -> Self {
        FsProfile {
            name: "F2FS",
            journal_data: false,
            journal_metadata: true,
            cow: false,
            log_structured: true,
            syscall: Duration::from_nanos(1500),
            extent_fanout: 340,
            alloc_target: 512, // 2 MB fixed segments
            page_op: Duration::from_nanos(600),
        }
    }
}

/// Deterministic busy-wait standing in for time spent inside the kernel.
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

struct Inode {
    size: u64,
    /// `(physical_block, blocks)` in logical order.
    extents: Vec<(u64, u64)>,
}

/// Bounded page cache holding real block copies; FIFO eviction keeps the
/// model simple. Shared with the DBMS models.
pub(crate) struct PageCache {
    pages: HashMap<u64, Box<[u8]>>,
    order: VecDeque<u64>,
    budget: usize,
}

impl PageCache {
    pub(crate) fn new(budget_pages: usize) -> Self {
        PageCache {
            pages: HashMap::new(),
            order: VecDeque::new(),
            budget: budget_pages,
        }
    }

    pub(crate) fn get(&self, block: u64) -> Option<&[u8]> {
        self.pages.get(&block).map(|b| &b[..])
    }

    pub(crate) fn insert(&mut self, block: u64, data: Box<[u8]>) {
        if self.pages.insert(block, data).is_none() {
            self.order.push_back(block);
        }
        while self.pages.len() > self.budget {
            let Some(victim) = self.order.pop_front() else {
                break;
            };
            self.pages.remove(&victim);
        }
    }

    pub(crate) fn remove_range(&mut self, start: u64, blocks: u64) {
        for b in start..start + blocks {
            self.pages.remove(&b);
        }
    }

    pub(crate) fn clear(&mut self) {
        self.pages.clear();
        self.order.clear();
    }
}

struct FsInner {
    files: HashMap<String, Inode>,
    cache: PageCache,
    /// Next journal write offset (wraps; the journal is a sliding window).
    journal_pos: u64,
}

struct OpenFile {
    path: String,
    /// Pending content for files being created (materialized at close).
    pending: Option<Vec<u8>>,
}

/// One modeled file system instance.
pub struct ModelFs {
    profile: FsProfile,
    device: Arc<dyn Device>,
    alloc: RangeAllocator,
    inner: Mutex<FsInner>,
    open: Mutex<HashMap<u64, OpenFile>>,
    next_fd: AtomicU64,
    metrics: Metrics,
    /// First data block (after the journal region).
    data_base: u64,
    journal_blocks: u64,
}

impl ModelFs {
    /// Build a model over `device`, reserving 32 MiB for the journal and
    /// `cache_pages` pages of page cache.
    pub fn new(profile: FsProfile, device: Arc<dyn Device>, cache_pages: usize) -> Self {
        let total_blocks = device.capacity() / BLOCK as u64;
        let journal_blocks = (32u64 << 20) / BLOCK as u64;
        assert!(total_blocks > journal_blocks + 16, "device too small");
        ModelFs {
            profile,
            device,
            alloc: RangeAllocator::new(total_blocks - journal_blocks),
            inner: Mutex::new(FsInner {
                files: HashMap::new(),
                cache: PageCache::new(cache_pages),
                journal_pos: 0,
            }),
            open: Mutex::new(HashMap::new()),
            next_fd: AtomicU64::new(3),
            metrics: new_metrics(),
            data_base: journal_blocks,
            journal_blocks,
        }
    }

    pub fn profile(&self) -> &FsProfile {
        &self.profile
    }

    /// Free-space fragments in the block allocator — the aging signal
    /// behind Figure 11 (log-structured profiles stay low; extent-based
    /// ones splinter under churn).
    pub fn fragment_count(&self) -> usize {
        self.alloc.fragment_count()
    }

    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Drop the entire page cache (the cold-cache experiments).
    pub fn drop_caches(&self) {
        self.inner.lock().cache.clear();
    }

    fn syscall(&self) {
        self.metrics.bump_syscall();
        spin(self.profile.syscall);
    }

    /// Allocate `blocks` using the profile's strategy; returns extents.
    fn allocate(&self, mut blocks: u64) -> Result<Vec<(u64, u64)>> {
        let mut extents = Vec::new();
        while blocks > 0 {
            if self.profile.log_structured {
                // Fixed-size segments: constant-time exact reuse.
                let seg = self.profile.alloc_target.min(blocks.next_power_of_two());
                let want = seg.min(self.profile.alloc_target).min(blocks.max(1));
                // Round small files up to whole small units to keep the
                // free lists exact-size (log-structured slack).
                let unit = want.next_power_of_two().min(self.profile.alloc_target);
                match self.alloc.allocate(unit) {
                    Ok(start) => {
                        extents.push((start, unit));
                        blocks = blocks.saturating_sub(unit);
                    }
                    Err(e) => {
                        self.rollback(&extents);
                        return Err(e);
                    }
                }
            } else {
                // Best effort: largest contiguous run up to the target,
                // halving on failure — the search that degrades as the
                // volume fills (Figure 11).
                let mut want = self.profile.alloc_target.min(blocks);
                loop {
                    match self.alloc.allocate(want) {
                        Ok(start) => {
                            extents.push((start, want));
                            blocks -= want;
                            break;
                        }
                        Err(_) if want > 1 => {
                            // Fragmented: scanning block-group bitmaps for a
                            // smaller run is the work that makes ext4-style
                            // allocators crawl near-full (Figure 11). The
                            // search cost scales with the number of free
                            // fragments the scan must walk.
                            self.metrics
                                .latch_acquisitions
                                .fetch_add(1, Ordering::Relaxed);
                            let fragments = self.alloc.fragment_count();
                            spin(
                                Duration::from_nanos(200) * fragments as u32
                                    + Duration::from_micros(20),
                            );
                            want = want.div_ceil(2);
                        }
                        Err(e) => {
                            self.rollback(&extents);
                            return Err(e);
                        }
                    }
                }
            }
        }
        Ok(extents)
    }

    fn rollback(&self, extents: &[(u64, u64)]) {
        for &(start, len) in extents {
            self.alloc.free(start, len);
        }
    }

    /// Depth of the extent tree for `n` extents (1 node holds `fanout`).
    fn tree_depth(&self, n: usize) -> u64 {
        let mut depth = 1u64;
        let mut capacity = self.profile.extent_fanout;
        while capacity < n.max(1) {
            depth += 1;
            capacity *= self.profile.extent_fanout;
        }
        depth
    }

    fn journal_write(&self, bytes: usize) -> Result<()> {
        let blocks = (bytes.div_ceil(BLOCK)) as u64;
        let mut inner = self.inner.lock();
        let pos = inner.journal_pos;
        inner.journal_pos = (pos + blocks) % self.journal_blocks.max(1);
        drop(inner);
        // Journal writes are sequential appends.
        let zeros = vec![0u8; (blocks as usize * BLOCK).min(self.journal_blocks as usize * BLOCK)];
        let off = (pos % self.journal_blocks) * BLOCK as u64;
        let fit =
            ((self.journal_blocks - pos % self.journal_blocks) as usize * BLOCK).min(zeros.len());
        self.device.write_at(&zeros[..fit], off)?;
        self.metrics
            .wal_bytes
            .fetch_add(zeros.len() as u64, Ordering::Relaxed);
        self.metrics
            .pages_written
            .fetch_add(blocks, Ordering::Relaxed);
        self.metrics
            .bytes_written
            .fetch_add(zeros.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Materialize a created file: allocate, write data (and journal it in
    /// data=journal mode), update metadata.
    fn materialize(&self, path: &str, data: &[u8]) -> Result<()> {
        let blocks = (data.len().div_ceil(BLOCK) as u64).max(1);
        // Buffered write: per-page page-cache work.
        spin(self.profile.page_op * blocks as u32);
        let extents = self.allocate(blocks)?;

        // data=journal: content goes to the journal first (the second
        // copy), then in place.
        if self.profile.journal_data {
            self.journal_write(data.len())?;
        }
        // In-place data write, extent by extent; write-through page cache
        // (user → kernel copy counted).
        let mut off = 0usize;
        let mut inner = self.inner.lock();
        for &(start, len) in &extents {
            let ext_bytes = (len as usize) * BLOCK;
            let take = (data.len() - off).min(ext_bytes);
            if take > 0 {
                let mut buf = vec![0u8; take.div_ceil(BLOCK) * BLOCK];
                buf[..take].copy_from_slice(&data[off..off + take]);
                self.metrics.bump_memcpy(take as u64);
                self.device
                    .write_at(&buf, (self.data_base + start) * BLOCK as u64)?;
                self.metrics
                    .pages_written
                    .fetch_add(buf.len() as u64 / BLOCK as u64, Ordering::Relaxed);
                self.metrics
                    .bytes_written
                    .fetch_add(buf.len() as u64, Ordering::Relaxed);
                for (i, chunk) in buf.chunks(BLOCK).enumerate() {
                    inner
                        .cache
                        .insert(self.data_base + start + i as u64, chunk.to_vec().into());
                }
            }
            off += take;
        }
        // Metadata journal commit (inode + allocation bitmaps).
        drop(inner);
        if self.profile.journal_metadata {
            self.journal_write(BLOCK)?;
        }
        let mut inner = self.inner.lock();
        if let Some(old) = inner.files.insert(
            path.to_string(),
            Inode {
                size: data.len() as u64,
                extents: extents.clone(),
            },
        ) {
            // Replaced file: free old blocks (COW frees after commit too).
            for (start, len) in old.extents {
                inner.cache.remove_range(self.data_base + start, len);
                self.alloc.free(start, len);
            }
        }
        self.metrics.metadata_ops.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Read a byte range of a file into `buf`: extent-tree traversal, page
    /// cache, and the kernel→user copy.
    fn read_range(&self, path: &str, offset: u64, buf: &mut [u8]) -> Result<usize> {
        let (extents, size) = {
            let inner = self.inner.lock();
            let inode = inner.files.get(path).ok_or(Error::KeyNotFound)?;
            (inode.extents.clone(), inode.size)
        };
        if offset >= size {
            return Ok(0);
        }
        let want = (buf.len() as u64).min(size - offset) as usize;
        // Buffered read: per-page page-cache lookups.
        spin(self.profile.page_op * (want.div_ceil(BLOCK) as u32));

        // Extent-tree traversal: one lookup per touched extent, each
        // costing `depth` node visits (computation interleaved with I/O).
        let depth = self.tree_depth(extents.len());

        let mut done = 0usize;
        let mut logical = offset;
        while done < want {
            // Locate the extent containing `logical`.
            self.metrics
                .btree_node_accesses
                .fetch_add(depth, Ordering::Relaxed);
            let mut scan = 0u64;
            let mut found = None;
            for &(start, len) in &extents {
                let ext_bytes = len * BLOCK as u64;
                if logical < scan + ext_bytes {
                    found = Some((start, len, logical - scan));
                    break;
                }
                scan += ext_bytes;
            }
            let Some((start, len, off_in_ext)) = found else {
                break;
            };
            let take = ((len * BLOCK as u64 - off_in_ext) as usize).min(want - done);

            // Per-block cache check; misses read the whole remainder of
            // the extent from the device in one request.
            let first_block = self.data_base + start + off_in_ext / BLOCK as u64;
            let blocks_needed = (off_in_ext % BLOCK as u64 + take as u64).div_ceil(BLOCK as u64);
            let mut inner = self.inner.lock();
            let all_cached = (0..blocks_needed).all(|i| inner.cache.get(first_block + i).is_some());
            if all_cached {
                self.metrics
                    .cache_hits
                    .fetch_add(blocks_needed, Ordering::Relaxed);
                let mut copied = 0usize;
                let mut block_off = (off_in_ext % BLOCK as u64) as usize;
                for i in 0..blocks_needed {
                    let page = inner.cache.get(first_block + i).expect("checked");
                    let n = (BLOCK - block_off).min(take - copied);
                    buf[done + copied..done + copied + n]
                        .copy_from_slice(&page[block_off..block_off + n]);
                    copied += n;
                    block_off = 0;
                }
            } else {
                self.metrics
                    .cache_misses
                    .fetch_add(blocks_needed, Ordering::Relaxed);
                // Readahead is disabled (§V-A), so a cold buffered read
                // faults pages in one block at a time — the behaviour
                // behind the paper's 59 MB/s ext4 read ceiling.
                let mut raw = vec![0u8; (blocks_needed as usize) * BLOCK];
                for i in 0..blocks_needed as usize {
                    self.device.read_at(
                        &mut raw[i * BLOCK..(i + 1) * BLOCK],
                        (first_block + i as u64) * BLOCK as u64,
                    )?;
                }
                self.metrics
                    .pages_read
                    .fetch_add(blocks_needed, Ordering::Relaxed);
                self.metrics
                    .bytes_read
                    .fetch_add(raw.len() as u64, Ordering::Relaxed);
                for (i, chunk) in raw.chunks(BLOCK).enumerate() {
                    inner
                        .cache
                        .insert(first_block + i as u64, chunk.to_vec().into());
                }
                let block_off = (off_in_ext % BLOCK as u64) as usize;
                buf[done..done + take].copy_from_slice(&raw[block_off..block_off + take]);
            }
            // The pread kernel→user copy.
            self.metrics.bump_memcpy(take as u64);
            done += take;
            logical += take as u64;
        }
        Ok(done)
    }

    fn delete_file(&self, path: &str) -> Result<()> {
        let mut inner = self.inner.lock();
        let inode = inner.files.remove(path).ok_or(Error::KeyNotFound)?;
        for (start, len) in inode.extents {
            inner.cache.remove_range(self.data_base + start, len);
            if self.profile.log_structured || len < 8 {
                self.alloc.free(start, len);
            } else {
                // Extent-based allocators do not keep freed space as
                // ready-to-reuse exact-size runs: merges/splits against
                // neighbours fragment it (the aging §VI discusses). Model:
                // a freed run returns as two halves, so churn erodes the
                // large-run supply and best-effort allocation degrades
                // near-full — except for F2FS's fixed segments.
                let half = len / 2;
                self.alloc.free(start, half);
                self.alloc.free(start + half, len - half);
            }
        }
        drop(inner);
        if self.profile.journal_metadata {
            self.journal_write(BLOCK)?;
        }
        self.metrics.metadata_ops.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

// ------------------------------------------------------------ ObjectStore

impl ObjectStore for ModelFs {
    fn label(&self) -> &str {
        self.profile.name
    }

    fn put(&self, key: &str, data: &[u8]) -> Result<()> {
        // open(O_CREAT) + write + close.
        self.syscall();
        self.syscall();
        self.syscall();
        if self.inner.lock().files.contains_key(key) {
            return Err(Error::KeyExists);
        }
        self.materialize(key, data)
    }

    fn replace(&self, key: &str, data: &[u8]) -> Result<()> {
        self.syscall();
        self.syscall();
        self.syscall();
        if self.profile.cow {
            // COW: always fresh blocks; materialize frees the old copy.
            self.materialize(key, data)
        } else {
            // Overwrite via truncate + rewrite (ftruncate = 1 more syscall).
            self.syscall();
            match self.delete_file(key) {
                Ok(()) | Err(Error::KeyNotFound) => {}
                Err(e) => return Err(e),
            }
            self.materialize(key, data)
        }
    }

    fn get(&self, key: &str, f: &mut dyn FnMut(&[u8])) -> Result<()> {
        // open + fstat + read(s) + close.
        self.syscall();
        self.syscall();
        let size = {
            let inner = self.inner.lock();
            inner.files.get(key).ok_or(Error::KeyNotFound)?.size
        };
        let mut buf = vec![0u8; size as usize];
        self.syscall();
        let n = self.read_range(key, 0, &mut buf)?;
        self.syscall();
        f(&buf[..n]);
        Ok(())
    }

    fn delete(&self, key: &str) -> Result<()> {
        self.syscall();
        self.delete_file(key)
    }

    fn stat(&self, key: &str) -> Result<Option<u64>> {
        self.syscall();
        self.metrics.metadata_ops.fetch_add(1, Ordering::Relaxed);
        Ok(self.inner.lock().files.get(key).map(|i| i.size))
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            metrics: snapshot_of(&self.metrics),
            utilization: self.alloc.utilization(),
        }
    }
}

// ------------------------------------------------------------- FileSystem

impl FileSystem for ModelFs {
    fn open(&self, path: &str) -> VfsResult<Fd> {
        self.syscall();
        if !self.inner.lock().files.contains_key(path) {
            return Err(ENOENT);
        }
        let fd = Fd(self.next_fd.fetch_add(1, Ordering::Relaxed));
        self.open.lock().insert(
            fd.0,
            OpenFile {
                path: path.to_string(),
                pending: None,
            },
        );
        Ok(fd)
    }

    fn read(&self, fd: Fd, offset: u64, buf: &mut [u8]) -> VfsResult<usize> {
        self.syscall();
        let path = {
            let open = self.open.lock();
            open.get(&fd.0).ok_or(EBADF)?.path.clone()
        };
        self.read_range(&path, offset, buf).map_err(|e| match e {
            Error::KeyNotFound => ENOENT,
            _ => Errno(5),
        })
    }

    fn close(&self, fd: Fd) -> VfsResult<()> {
        self.syscall();
        let of = self.open.lock().remove(&fd.0).ok_or(EBADF)?;
        if let Some(pending) = of.pending {
            self.materialize(&of.path, &pending).map_err(|_| Errno(5))?;
        }
        Ok(())
    }

    fn getattr(&self, path: &str) -> VfsResult<FileStat> {
        self.syscall();
        self.metrics.metadata_ops.fetch_add(1, Ordering::Relaxed);
        let inner = self.inner.lock();
        match inner.files.get(path) {
            Some(inode) => Ok(FileStat {
                kind: FileKind::File,
                size: inode.size,
            }),
            None => {
                // Directories are implicit: a path is a directory iff some
                // file lives beneath it.
                let prefix = format!("{}/", path.trim_end_matches('/'));
                if path == "/" || inner.files.keys().any(|k| k.starts_with(&prefix)) {
                    Ok(FileStat {
                        kind: FileKind::Directory,
                        size: 0,
                    })
                } else {
                    Err(ENOENT)
                }
            }
        }
    }

    fn readdir(&self, path: &str) -> VfsResult<Vec<String>> {
        self.syscall();
        let prefix = format!("{}/", path.trim_end_matches('/'));
        let inner = self.inner.lock();
        let mut names: Vec<String> = inner
            .files
            .keys()
            .filter(|k| k.starts_with(&prefix))
            .map(|k| {
                k[prefix.len()..]
                    .split('/')
                    .next()
                    .unwrap_or("")
                    .to_string()
            })
            .collect();
        names.sort();
        names.dedup();
        if names.is_empty() && !inner.files.keys().any(|k| k.starts_with(&prefix)) {
            return Err(ENOTDIR);
        }
        Ok(names)
    }

    fn write(&self, fd: Fd, offset: u64, data: &[u8]) -> VfsResult<usize> {
        self.syscall();
        let mut open = self.open.lock();
        let of = open.get_mut(&fd.0).ok_or(EBADF)?;
        let pending = of.pending.get_or_insert_with(Vec::new);
        let end = offset as usize + data.len();
        if pending.len() < end {
            pending.resize(end, 0);
        }
        pending[offset as usize..end].copy_from_slice(data);
        self.metrics.bump_memcpy(data.len() as u64);
        Ok(data.len())
    }

    fn create(&self, path: &str) -> VfsResult<Fd> {
        self.syscall();
        let fd = Fd(self.next_fd.fetch_add(1, Ordering::Relaxed));
        self.open.lock().insert(
            fd.0,
            OpenFile {
                path: path.to_string(),
                pending: Some(Vec::new()),
            },
        );
        Ok(fd)
    }

    fn unlink(&self, path: &str) -> VfsResult<()> {
        self.syscall();
        self.delete_file(path).map_err(|e| match e {
            Error::KeyNotFound => ENOENT,
            _ => Errno(5),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobster_storage::MemDevice;
    use lobster_vfs::{read_to_vec, write_all};

    fn all_profiles() -> Vec<FsProfile> {
        vec![
            FsProfile::ext4_ordered(),
            FsProfile::ext4_journal(),
            FsProfile::xfs(),
            FsProfile::btrfs(),
            FsProfile::f2fs(),
        ]
    }

    fn fast(mut p: FsProfile) -> FsProfile {
        p.syscall = Duration::ZERO; // keep unit tests quick
        p
    }

    fn fs(profile: FsProfile) -> ModelFs {
        ModelFs::new(fast(profile), Arc::new(MemDevice::new(256 << 20)), 4096)
    }

    #[test]
    fn object_roundtrip_all_profiles() {
        for profile in all_profiles() {
            let m = fs(profile);
            let data: Vec<u8> = (0..100_000).map(|i| (i % 251) as u8).collect();
            m.put("file.bin", &data).unwrap();
            let mut out = Vec::new();
            m.get("file.bin", &mut |b| out = b.to_vec()).unwrap();
            assert_eq!(out, data, "{}", m.label());
            assert_eq!(m.stat("file.bin").unwrap(), Some(100_000));
            m.replace("file.bin", b"tiny").unwrap();
            assert_eq!(m.stat("file.bin").unwrap(), Some(4));
            m.delete("file.bin").unwrap();
            assert_eq!(m.stat("file.bin").unwrap(), None);
        }
    }

    #[test]
    fn journal_mode_doubles_data_writes() {
        let ordered = fs(FsProfile::ext4_ordered());
        let journal = fs(FsProfile::ext4_journal());
        let data = vec![7u8; 1 << 20];
        ordered.put("f", &data).unwrap();
        journal.put("f", &data).unwrap();
        let wo = ordered.stats().metrics.pages_written;
        let wj = journal.stats().metrics.pages_written;
        assert!(
            wj as f64 >= wo as f64 * 1.8,
            "journal mode must ~double writes: {wo} vs {wj}"
        );
    }

    #[test]
    fn cold_read_after_cache_drop() {
        let m = fs(FsProfile::ext4_ordered());
        let data = vec![3u8; 500_000];
        m.put("f", &data).unwrap();
        // Warm read: cache hits, no device pages.
        let before = m.stats().metrics;
        let mut out = Vec::new();
        m.get("f", &mut |b| out = b.to_vec()).unwrap();
        let warm = m.stats().metrics - before;
        assert_eq!(warm.pages_read, 0, "warm read must hit the cache");
        assert_eq!(out, data);

        m.drop_caches();
        let before = m.stats().metrics;
        m.get("f", &mut |b| out = b.to_vec()).unwrap();
        let cold = m.stats().metrics - before;
        assert!(cold.pages_read >= 122, "cold read must hit the device");
        assert_eq!(out, data);
    }

    #[test]
    fn fragmentation_increases_extent_count() {
        // Fill, punch holes, then allocate: the best-effort allocator must
        // fall back to scattered extents.
        let m = fs(FsProfile::ext4_ordered());
        for i in 0..100 {
            m.put(&format!("pad{i}"), &vec![1u8; 400_000]).unwrap();
        }
        for i in (0..100).step_by(2) {
            m.delete(&format!("pad{i}")).unwrap();
        }
        let big = vec![2u8; 4 << 20];
        m.put("big", &big).unwrap();
        let mut out = Vec::new();
        m.get("big", &mut |b| out = b.to_vec()).unwrap();
        assert_eq!(out, big);
    }

    #[test]
    fn filesystem_trait_create_write_read() {
        let m = fs(FsProfile::xfs());
        write_all(&m, "/src/main.c", b"int main() {}").unwrap();
        assert_eq!(read_to_vec(&m, "/src/main.c").unwrap(), b"int main() {}");
        let stat = m.getattr("/src/main.c").unwrap();
        assert_eq!(stat.size, 13);
        assert_eq!(m.readdir("/src").unwrap(), vec!["main.c"]);
        m.unlink("/src/main.c").unwrap();
        assert!(m.open("/src/main.c").is_err());
    }

    #[test]
    fn f2fs_stays_stable_near_full() {
        // Churn at ~85 % utilization: log-structured allocation must keep
        // succeeding with exact-size segment reuse.
        let m = fs(FsProfile::f2fs());
        let obj = vec![1u8; 2 << 20];
        let mut live = Vec::new();
        let mut i = 0;
        loop {
            let key = format!("o{i}");
            i += 1;
            match m.put(&key, &obj) {
                Ok(()) => live.push(key),
                Err(_) => break,
            }
            if m.stats().utilization > 0.85 {
                break;
            }
        }
        for round in 0..200 {
            let victim = live.swap_remove(round % live.len());
            m.delete(&victim).unwrap();
            let key = format!("churn{round}");
            m.put(&key, &obj)
                .expect("log-structured reuse must not fail");
            live.push(key);
        }
    }

    #[test]
    fn syscalls_are_counted() {
        let m = fs(FsProfile::ext4_ordered());
        m.put("f", b"x").unwrap();
        let mut sink = Vec::new();
        m.get("f", &mut |b| sink = b.to_vec()).unwrap();
        m.stat("f").unwrap();
        let s = m.stats().metrics;
        assert!(s.syscalls >= 8, "syscalls={}", s.syscalls);
    }
}
