//! The write-ahead log: per-session staging buffers, a shared sequential
//! log with group commit, and epoch-based logical truncation at checkpoints.
//!
//! *Group commit* (§V-A): a committing session publishes its staged records
//! to the shared buffer and then either becomes the flusher — writing the
//! whole accumulated buffer and issuing one fsync for every waiting
//! session — or waits for the current flusher to cover its LSN. This
//! batches fsyncs exactly like the group-commit designs the paper builds on.

use crate::record::{frame_len, frame_record, parse_frame, LogRecord, FRAME_HEADER};
use lobster_metrics::Metrics;
use lobster_storage::Device;
use lobster_sync::atomic::{AtomicU32, AtomicU64, Ordering};
use lobster_sync::Arc;
use lobster_sync::{Condvar, Mutex};
use lobster_types::{Error, Result, RetryPolicy};

/// Byte offset within the log device; doubles as the LSN.
pub type Lsn = u64;

/// Result of [`Wal::analyze`]: the durable log's composition.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalAnalysis {
    pub records: u64,
    pub bytes: u64,
    pub begins: u64,
    pub commits: u64,
    pub aborts: u64,
    pub inserts: u64,
    pub updates: u64,
    pub deletes: u64,
    pub deltas: u64,
    pub chunks: u64,
    /// Placement-only Blob State swaps staged by the defragmenter.
    pub relocations: u64,
    pub checkpoints: u64,
    /// BLOB content bytes in the log (zero under asynchronous BLOB
    /// logging; dominant under physical logging).
    pub content_bytes: u64,
    /// Checkpoint page images and their byte volume.
    pub page_images: u64,
    pub image_bytes: u64,
}

/// What one read of a log device found ([`Wal::scan`]).
#[derive(Debug)]
pub struct LogScan {
    /// The epoch in the log's header.
    pub epoch: u32,
    /// Every durable record of that epoch, in log order.
    pub records: Vec<LogRecord>,
    /// The offset one past the last record: where the next append goes.
    pub end: Lsn,
}

/// Size of the log header block at offset 0.
pub const WAL_HEADER: u64 = 4096;
const WAL_MAGIC: u32 = 0x4C4F_4253; // "LOBS"

struct Staged {
    buf: Vec<u8>,
    /// Device offset at which `buf` begins.
    base: Lsn,
}

/// The shared write-ahead log.
pub struct Wal {
    device: Arc<dyn Device>,
    epoch: AtomicU32,
    staged: Mutex<Staged>,
    flush_mutex: Mutex<()>,
    flushed: AtomicU64,
    flushed_cv: Condvar,
    flushed_cv_mutex: Mutex<()>,
    metrics: Metrics,
}

impl Wal {
    /// Create a fresh log on `device` (epoch 1, empty).
    pub fn create(device: Arc<dyn Device>, metrics: Metrics) -> Result<Arc<Self>> {
        let wal = Arc::new(Wal {
            device,
            epoch: AtomicU32::new(1),
            staged: Mutex::new(Staged {
                buf: Vec::new(),
                base: WAL_HEADER,
            }),
            flush_mutex: Mutex::new(()),
            flushed: AtomicU64::new(WAL_HEADER),
            flushed_cv: Condvar::new(),
            flushed_cv_mutex: Mutex::new(()),
            metrics,
        });
        wal.write_header(1)?;
        Ok(wal)
    }

    /// Open an existing log, reading its epoch from the header.
    pub fn open(device: Arc<dyn Device>, metrics: Metrics) -> Result<Arc<Self>> {
        let scan = Self::scan(&device)?;
        Ok(Self::open_scanned(device, &scan, metrics))
    }

    /// Open the log `scan` read from `device`: new appends go after the
    /// records it found, so the device is not read again.
    pub fn open_scanned(device: Arc<dyn Device>, scan: &LogScan, metrics: Metrics) -> Arc<Self> {
        Arc::new(Wal {
            device,
            epoch: AtomicU32::new(scan.epoch),
            staged: Mutex::new(Staged {
                buf: Vec::new(),
                base: scan.end,
            }),
            flush_mutex: Mutex::new(()),
            flushed: AtomicU64::new(scan.end),
            flushed_cv: Condvar::new(),
            flushed_cv_mutex: Mutex::new(()),
            metrics,
        })
    }

    /// Write and sync a header naming `epoch`, retrying transient faults.
    fn write_header(&self, epoch: u32) -> Result<()> {
        let mut header = vec![0u8; WAL_HEADER as usize];
        header[0..4].copy_from_slice(&WAL_MAGIC.to_le_bytes());
        header[4..8].copy_from_slice(&epoch.to_le_bytes());
        let (res, stats) = RetryPolicy::DEFAULT.run(|| {
            self.device.write_at(&header, 0)?;
            self.device.sync()
        });
        self.metrics.bump_io_retry(stats.retries, stats.gave_up);
        res?;
        // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        self.metrics.fsyncs.fetch_add(1, Ordering::Relaxed);
        // The header is log bytes on the device like the records: counted
        // where they are, so the device and the engine agree.
        self.metrics
            .bytes_written
            .fetch_add(WAL_HEADER, Ordering::Relaxed); // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        self.metrics
            .wal_bytes
            .fetch_add(WAL_HEADER, Ordering::Relaxed); // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        Ok(())
    }

    pub fn current_epoch(&self) -> u32 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Bytes of log written since the last checkpoint (drives checkpoint
    /// scheduling).
    pub fn active_bytes(&self) -> u64 {
        let staged = self.staged.lock();
        staged.base + staged.buf.len() as u64 - WAL_HEADER
    }

    pub fn flushed_lsn(&self) -> Lsn {
        // ordering: Acquire; pairs with the Release stores after fsync, the LSN implies durable bytes
        self.flushed.load(Ordering::Acquire)
    }

    /// Stage a batch of records (one transaction's worth); returns the LSN
    /// one past the batch, to be passed to [`Wal::commit_to`].
    pub fn append_batch(&self, records: &[LogRecord]) -> Result<Lsn> {
        let mut staged = self.staged.lock();
        // Read under the lock a truncate changes it under.
        let epoch = self.epoch.load(Ordering::SeqCst);
        let before = staged.buf.len();
        for rec in records {
            frame_record(&mut staged.buf, epoch, rec);
        }
        let end = staged.base + staged.buf.len() as u64;
        if end > self.device.capacity() {
            staged.buf.truncate(before);
            return Err(Error::OutOfSpace);
        }
        self.metrics
            .wal_bytes
            .fetch_add((staged.buf.len() - before) as u64, Ordering::Relaxed); // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        Ok(end)
    }

    /// Group commit: make everything up to `lsn` durable.
    pub fn commit_to(&self, lsn: Lsn) -> Result<()> {
        loop {
            // ordering: Acquire fast path; pairs with the post-fsync Release store
            if self.flushed.load(Ordering::Acquire) >= lsn {
                return Ok(());
            }
            if let Some(_guard) = self.flush_mutex.try_lock() {
                // We are the flusher: take the staged buffer and write it.
                let (buf, base) = {
                    let mut staged = self.staged.lock();
                    let buf = std::mem::take(&mut staged.buf);
                    let base = staged.base;
                    staged.base = base + buf.len() as u64;
                    (buf, base)
                };
                if !buf.is_empty() {
                    let t = self.metrics.latencies.timer();
                    // Re-run the write along with the fsync on retry: the
                    // write is idempotent, and after a failed fsync the
                    // device may not have the data.
                    let (res, stats) = RetryPolicy::DEFAULT.run(|| {
                        self.device.write_at(&buf, base)?;
                        self.device.sync()
                    });
                    self.metrics.bump_io_retry(stats.retries, stats.gave_up);
                    res?;
                    self.metrics.latencies.wal_flush.record_timer(t);
                    // ordering: relaxed metrics counter; snapshot readers tolerate staleness
                    self.metrics.fsyncs.fetch_add(1, Ordering::Relaxed);
                    self.metrics
                        .bytes_written
                        .fetch_add(buf.len() as u64, Ordering::Relaxed); // ordering: relaxed metrics counter; snapshot readers tolerate staleness
                    self.flushed
                        .store(base + buf.len() as u64, Ordering::Release); // ordering: Release; published only after the fsync above succeeded
                }
                let _m = self.flushed_cv_mutex.lock();
                self.flushed_cv.notify_all();
            } else {
                // Wait for the active flusher, then re-check.
                let mut m = self.flushed_cv_mutex.lock();
                // ordering: Acquire; re-check after the flusher handoff, pairs with the post-fsync Release
                if self.flushed.load(Ordering::Acquire) >= lsn {
                    return Ok(());
                }
                self.flushed_cv
                    .wait_for(&mut m, std::time::Duration::from_millis(1));
            }
        }
    }

    /// Convenience: stage and make durable in one call.
    pub fn append_and_commit(&self, records: &[LogRecord]) -> Result<Lsn> {
        let lsn = self.append_batch(records)?;
        self.commit_to(lsn)?;
        Ok(lsn)
    }

    /// Logically truncate the log after a checkpoint: write a header of the
    /// next epoch (old records become unparseable), then restart right
    /// after it. The caller must have flushed all dirty state *before*
    /// calling this. A failed header write changes nothing: appends go on
    /// in the old epoch, after its records.
    pub fn checkpoint_truncate(&self) -> Result<()> {
        let _flush = self.flush_mutex.lock();
        let epoch = self.epoch.load(Ordering::SeqCst) + 1;
        self.write_header(epoch)?;
        let mut staged = self.staged.lock();
        // Anything staged but unflushed is from uncommitted transactions;
        // committing later will re-stage. Truncation discards it.
        staged.buf.clear();
        staged.base = WAL_HEADER;
        self.epoch.store(epoch, Ordering::SeqCst);
        drop(staged);
        self.flushed.store(WAL_HEADER, Ordering::Release); // ordering: Release; the rewritten header is durable before the frontier resets
        self.metrics.checkpoints.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Read back every durable record of the current epoch (recovery scan).
    pub fn read_all(&self) -> Result<Vec<LogRecord>> {
        Self::read_records(&self.device, self.current_epoch())
    }

    /// Analyze the durable log: record counts and byte volumes by type —
    /// the observability hook behind the "WAL carries only Blob States"
    /// claims in the benchmarks.
    pub fn analyze(&self) -> Result<WalAnalysis> {
        let records = self.read_all()?;
        let mut a = WalAnalysis::default();
        for rec in &records {
            a.records += 1;
            let mut payload = Vec::new();
            rec.encode(&mut payload);
            a.bytes += payload.len() as u64 + crate::record::FRAME_HEADER as u64;
            match rec {
                LogRecord::TxnBegin { .. } => a.begins += 1,
                LogRecord::TxnCommit { .. } | LogRecord::TxnCrossCommit { .. } => a.commits += 1,
                LogRecord::TxnAbort { .. } => a.aborts += 1,
                LogRecord::Insert { .. } => a.inserts += 1,
                LogRecord::Update { .. } => a.updates += 1,
                LogRecord::Delete { .. } => a.deletes += 1,
                LogRecord::BlobRelocate { .. } => a.relocations += 1,
                LogRecord::BlobDelta { after, .. } => {
                    a.deltas += 1;
                    a.content_bytes += after.len() as u64;
                }
                LogRecord::BlobChunk { data, .. } => {
                    a.chunks += 1;
                    a.content_bytes += data.len() as u64;
                }
                LogRecord::Checkpoint => a.checkpoints += 1,
                LogRecord::PageImage { data, .. } => {
                    a.page_images += 1;
                    a.image_bytes += data.len() as u64;
                }
                LogRecord::DataDurable { .. } => {}
            }
        }
        Ok(a)
    }

    /// Read a log device once without opening it: the epoch from its
    /// header and every durable record of that epoch. The sharded engine
    /// pre-scans every shard's log for cross-shard commit markers this way
    /// and then opens each log from its scan ([`Wal::open_scanned`]), whose
    /// records recovery replays.
    pub fn scan(device: &Arc<dyn Device>) -> Result<LogScan> {
        if device.capacity() < WAL_HEADER {
            // A log file shorter than its header block cannot hold a valid
            // header; surface corruption rather than reading out of bounds.
            return Err(Error::Corruption("truncated WAL header".into()));
        }
        let mut header = [0u8; 8];
        device.read_at(&mut header, 0)?;
        // lint-allow(no-panic-in-request-path): constant split of the fixed 8-byte header; cannot fail
        let magic = u32::from_le_bytes(header[0..4].try_into().unwrap());
        if magic != WAL_MAGIC {
            return Err(Error::Corruption("bad WAL magic".into()));
        }
        // lint-allow(no-panic-in-request-path): constant split of the fixed 8-byte header; cannot fail
        let epoch = u32::from_le_bytes(header[4..8].try_into().unwrap());
        let (records, end) = Self::read_from(device, epoch)?;
        Ok(LogScan {
            epoch,
            records,
            end,
        })
    }

    /// Scan `device` for all valid records of `epoch`.
    pub fn read_records(device: &Arc<dyn Device>, epoch: u32) -> Result<Vec<LogRecord>> {
        Ok(Self::read_from(device, epoch)?.0)
    }

    /// The valid records of `epoch` and the offset one past the last.
    ///
    /// Reads in windows that start at 64 KiB, so a short log costs one
    /// short read, and double up to 1 MiB — or to the frame that needs
    /// more. A frame of `epoch` that runs past a window is read again at
    /// the start of the next; the log ends at the first frame that does not
    /// parse although the window holds it whole.
    fn read_from(device: &Arc<dyn Device>, epoch: u32) -> Result<(Vec<LogRecord>, Lsn)> {
        let end = device.capacity();
        let mut records = Vec::new();
        let mut pos = WAL_HEADER;
        let mut window = vec![0u8; 64 << 10];
        loop {
            let take = window.len().min((end - pos) as usize);
            if take < FRAME_HEADER {
                break;
            }
            device.read_at(&mut window[..take], pos)?;
            let mut local = 0usize;
            while let Some((rec, n)) = parse_frame(&window[local..take], epoch) {
                records.push(rec);
                local += n;
            }
            pos += local as u64;
            let rest = &window[local..take];
            match frame_len(rest, epoch) {
                // A header that runs past the window.
                None if rest.len() < FRAME_HEADER && take == window.len() => {}
                // A frame that does.
                Some(need) if need > rest.len() && need as u64 <= end - pos => {
                    let grown = (window.len() * 2).min(1 << 20).max(need);
                    window.resize(grown, 0);
                }
                _ => break,
            }
        }
        Ok((records, pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobster_storage::MemDevice;

    fn mk() -> (Arc<Wal>, Arc<dyn Device>) {
        let dev: Arc<dyn Device> = Arc::new(MemDevice::new(8 << 20));
        let wal = Wal::create(dev.clone(), lobster_metrics::new_metrics()).unwrap();
        (wal, dev)
    }

    #[test]
    fn append_commit_read_back() {
        let (wal, _dev) = mk();
        let recs = vec![
            LogRecord::TxnBegin { txn: 1 },
            LogRecord::Insert {
                txn: 1,
                relation: 0,
                key: b"a".to_vec(),
                value: b"v".to_vec(),
            },
            LogRecord::TxnCommit { txn: 1 },
        ];
        wal.append_and_commit(&recs).unwrap();
        assert_eq!(wal.read_all().unwrap(), recs);
    }

    #[test]
    fn unflushed_records_are_not_durable() {
        let (wal, _dev) = mk();
        wal.append_batch(&[LogRecord::TxnBegin { txn: 1 }]).unwrap();
        assert!(wal.read_all().unwrap().is_empty());
    }

    #[test]
    fn reopen_finds_end_of_log() {
        let (wal, dev) = mk();
        wal.append_and_commit(&[LogRecord::TxnCommit { txn: 1 }])
            .unwrap();
        let end = wal.flushed_lsn();
        drop(wal);

        let wal2 = Wal::open(dev, lobster_metrics::new_metrics()).unwrap();
        assert_eq!(wal2.flushed_lsn(), end);
        wal2.append_and_commit(&[LogRecord::TxnCommit { txn: 2 }])
            .unwrap();
        let recs = wal2.read_all().unwrap();
        assert_eq!(
            recs,
            vec![
                LogRecord::TxnCommit { txn: 1 },
                LogRecord::TxnCommit { txn: 2 }
            ]
        );
    }

    #[test]
    fn checkpoint_truncation_discards_old_records() {
        let (wal, _dev) = mk();
        wal.append_and_commit(&[LogRecord::TxnCommit { txn: 1 }])
            .unwrap();
        assert!(wal.active_bytes() > 0);
        wal.checkpoint_truncate().unwrap();
        assert_eq!(wal.active_bytes(), 0);
        assert!(wal.read_all().unwrap().is_empty());
        // New records land in the new epoch and are visible.
        wal.append_and_commit(&[LogRecord::TxnCommit { txn: 2 }])
            .unwrap();
        assert_eq!(
            wal.read_all().unwrap(),
            vec![LogRecord::TxnCommit { txn: 2 }]
        );
    }

    /// A truncate whose header write fails leaves the log as it was: the
    /// next append lands after the old records, in the old epoch, and a
    /// scan returns both.
    #[test]
    fn a_failed_truncate_keeps_the_log_appendable() {
        use lobster_storage::{FaultConfig, FaultDevice, FaultKind};
        let mut cfg = FaultConfig::new(7, 1000, &[FaultKind::PermanentWrite]);
        cfg.max_injections = 1;
        let fdev = Arc::new(FaultDevice::new(MemDevice::new(8 << 20), cfg));
        let dev: Arc<dyn Device> = fdev.clone();
        let wal = Wal::create(dev.clone(), lobster_metrics::new_metrics()).unwrap();
        let first = LogRecord::TxnCommit { txn: 1 };
        wal.append_and_commit(std::slice::from_ref(&first)).unwrap();
        fdev.arm();
        assert!(wal.checkpoint_truncate().is_err());
        assert_eq!(fdev.injection_log()[0].offset, 0, "the header write failed");
        let second = LogRecord::TxnCommit { txn: 2 };
        wal.append_and_commit(std::slice::from_ref(&second))
            .unwrap();
        let scan = Wal::scan(&dev).unwrap();
        assert_eq!((scan.epoch, scan.records), (1, vec![first, second]));
    }

    /// A checkpoint rewrites the header block: across one, the device's
    /// write-byte count and both of the log's byte counters move together.
    #[test]
    fn header_rewrite_is_counted_like_the_records() {
        let device_side = lobster_metrics::new_metrics();
        let dev: Arc<dyn Device> =
            Arc::new(MemDevice::with_metrics(8 << 20, Some(device_side.clone())));
        let wal = Wal::create(dev, lobster_metrics::new_metrics()).unwrap();
        let (dev0, wal0) = (device_side.snapshot(), wal.metrics.snapshot());
        wal.append_and_commit(&[LogRecord::TxnCommit { txn: 1 }])
            .unwrap();
        wal.checkpoint_truncate().unwrap();
        wal.append_and_commit(&[LogRecord::TxnCommit { txn: 2 }])
            .unwrap();
        let written = (device_side.snapshot() - dev0).bytes_written;
        let counted = wal.metrics.snapshot() - wal0;
        assert!(written > WAL_HEADER, "the header was rewritten");
        assert_eq!(counted.bytes_written, written);
        assert_eq!(counted.wal_bytes, written);
    }

    #[test]
    fn group_commit_from_many_threads() {
        let (wal, _dev) = mk();
        let wal = Arc::new(wal);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let wal = wal.clone();
                s.spawn(move || {
                    for i in 0..50 {
                        wal.append_and_commit(&[LogRecord::TxnCommit { txn: t * 1000 + i }])
                            .unwrap();
                    }
                });
            }
        });
        let recs = wal.read_all().unwrap();
        assert_eq!(recs.len(), 400);
        // Group commit must have batched: far fewer fsyncs than commits.
        let fsyncs = wal.metrics.fsyncs.load(Ordering::Relaxed);
        assert!(fsyncs <= 401, "fsyncs {fsyncs}");
    }

    #[test]
    fn analyze_counts_by_type() {
        let (wal, _dev) = mk();
        wal.append_and_commit(&[
            LogRecord::TxnBegin { txn: 1 },
            LogRecord::Insert {
                txn: 1,
                relation: 1,
                key: b"k".to_vec(),
                value: vec![0; 100],
            },
            LogRecord::BlobChunk {
                txn: 1,
                relation: 1,
                key: b"k".to_vec(),
                byte_offset: 0,
                data: vec![0; 5000],
            },
            LogRecord::TxnCommit { txn: 1 },
        ])
        .unwrap();
        let a = wal.analyze().unwrap();
        assert_eq!(a.records, 4);
        assert_eq!(a.begins, 1);
        assert_eq!(a.commits, 1);
        assert_eq!(a.inserts, 1);
        assert_eq!(a.chunks, 1);
        assert_eq!(a.content_bytes, 5000);
        assert!(a.bytes > 5100);
    }

    /// Frames that run past a read window — many 4 KiB images, then one
    /// frame larger than the largest window — all read back, and the scan
    /// ends where the log does.
    #[test]
    fn frames_across_and_beyond_the_read_window_read_back() {
        let (wal, dev) = mk();
        let image = |i: u64, len: usize| LogRecord::PageImage {
            pid: i,
            data: vec![i as u8; len],
        };
        let mut recs: Vec<LogRecord> = (0..600).map(|i| image(i, 4000 + i as usize % 7)).collect();
        recs.push(image(600, 1 << 20));
        recs.push(image(601, 10));
        wal.append_and_commit(&recs).unwrap();
        let scan = Wal::scan(&dev).unwrap();
        assert_eq!(scan.records.len(), recs.len());
        assert!(scan.records == recs, "a record read back changed");
        assert_eq!(scan.end, wal.flushed_lsn());
    }

    #[test]
    fn truncated_header_is_corruption_not_panic() {
        // A log file shorter than the header block must surface
        // Error::Corruption instead of panicking in the header parse.
        for cap in [0usize, 8, 15, WAL_HEADER as usize - 1] {
            let dev: Arc<dyn Device> = Arc::new(MemDevice::new(cap));
            match Wal::open(dev, lobster_metrics::new_metrics()) {
                Err(Error::Corruption(msg)) => assert!(msg.contains("truncated"), "{msg}"),
                Err(other) => panic!("cap {cap}: expected corruption, got {other:?}"),
                Ok(_) => panic!("cap {cap}: open of a truncated log succeeded"),
            }
        }
    }

    #[test]
    fn zeroed_header_is_bad_magic() {
        let dev: Arc<dyn Device> = Arc::new(MemDevice::new(WAL_HEADER as usize));
        assert!(matches!(
            Wal::open(dev, lobster_metrics::new_metrics()),
            Err(Error::Corruption(_))
        ));
    }

    #[test]
    fn commit_retries_through_transient_write_faults() {
        use lobster_storage::{FaultConfig, FaultDevice, FaultKind};
        let mem = MemDevice::new(8 << 20);
        let mut cfg = FaultConfig::new(7, 1000, &[FaultKind::TransientWrite]);
        cfg.max_injections = 2;
        let fdev = Arc::new(FaultDevice::new(mem, cfg));
        let dev: Arc<dyn Device> = fdev.clone();
        let wal = Wal::create(dev, lobster_metrics::new_metrics()).unwrap();
        fdev.arm();
        wal.append_and_commit(&[LogRecord::TxnCommit { txn: 1 }])
            .unwrap();
        fdev.disarm();
        assert_eq!(
            wal.read_all().unwrap(),
            vec![LogRecord::TxnCommit { txn: 1 }]
        );
        let retried = wal.metrics.io_retries.load(Ordering::Relaxed);
        assert_eq!(retried, fdev.injections());
        assert_eq!(wal.metrics.io_giveups.load(Ordering::Relaxed), 0);
    }

    /// A write fault that never clears: `commit_to` re-attempts exactly the
    /// policy's budget, then surfaces the injected error to the caller.
    #[test]
    fn commit_gives_up_on_a_persistent_write_fault() {
        use lobster_storage::{FaultConfig, FaultDevice, FaultKind};
        let mem = MemDevice::new(8 << 20);
        let cfg = FaultConfig::new(7, 1000, &[FaultKind::TransientWrite]);
        let fdev = Arc::new(FaultDevice::new(mem, cfg));
        let dev: Arc<dyn Device> = fdev.clone();
        let wal = Wal::create(dev, lobster_metrics::new_metrics()).unwrap();
        fdev.arm();
        let res = wal.append_and_commit(&[LogRecord::TxnCommit { txn: 1 }]);
        fdev.disarm();
        match res {
            Err(Error::Io(e)) => assert!(e.to_string().contains("injected transient write")),
            other => panic!("expected the injected write error, got {other:?}"),
        }
        let budget = u64::from(RetryPolicy::DEFAULT.max_retries);
        assert_eq!(wal.metrics.io_retries.load(Ordering::Relaxed), budget);
        assert_eq!(wal.metrics.io_giveups.load(Ordering::Relaxed), 1);
        assert_eq!(fdev.injections(), budget + 1);
    }

    #[test]
    fn log_full_is_reported() {
        let dev: Arc<dyn Device> = Arc::new(MemDevice::new(8192));
        let wal = Wal::create(dev, lobster_metrics::new_metrics()).unwrap();
        let big = LogRecord::BlobChunk {
            txn: 1,
            relation: 0,
            key: vec![],
            byte_offset: 0,
            data: vec![0; 8192],
        };
        assert!(matches!(wal.append_batch(&[big]), Err(Error::OutOfSpace)));
    }
}
