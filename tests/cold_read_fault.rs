//! Engine-level cold-read pipeline tests: a multi-extent BLOB read from a
//! fully evicted pool must go to the device as one batched IoEngine
//! submission (not one blocking read per extent), stay byte-exact over
//! latency-modeling and crash-injecting devices, and sequential range reads
//! must drive the readahead prefetcher. Over a counting device, a cold read
//! moves exactly the pages that hold content: no tier slack, no extent past
//! the requested range, no readahead on random access.

use lobster::core::{Config, Database, RelationKind};
use lobster::storage::{CrashDevice, Device, MemDevice, ThrottleProfile, ThrottledDevice};
use lobster::types::Result;
use std::sync::{Arc, Mutex};

const BLOB_LEN: usize = 600 << 10; // ~150 pages => dozens of tiered extents

fn payload() -> Vec<u8> {
    (0..BLOB_LEN).map(|i| (i * 31 % 251) as u8).collect()
}

fn cfg() -> Config {
    Config {
        pool_frames: 4096,
        ..Config::default()
    }
}

/// Write one multi-extent BLOB, make everything durable, and evict both
/// pools — the cold-start state of Fig. 9.
fn seed_cold(db: &Arc<Database>) -> Vec<u8> {
    let rel = db.create_relation("blobs", RelationKind::Blob).unwrap();
    let data = payload();
    let mut txn = db.begin();
    txn.put_blob(&rel, b"big", &data).unwrap();
    txn.commit().unwrap();
    db.checkpoint().unwrap();
    db.blob_pool().drop_caches();
    db.node_pool().drop_caches();
    data
}

fn read_back(db: &Arc<Database>) -> Vec<u8> {
    let rel = db.relation("blobs").unwrap();
    let mut txn = db.begin();
    let out = txn.get_blob(&rel, b"big", |b| b.to_vec()).unwrap();
    txn.commit().unwrap();
    out
}

#[test]
fn cold_read_over_throttled_device_is_batched() {
    let dev: Arc<dyn Device> = Arc::new(ThrottledDevice::new(
        MemDevice::new(256 << 20),
        ThrottleProfile::nvme(),
    ));
    let wal: Arc<dyn Device> = Arc::new(ThrottledDevice::new(
        MemDevice::new(64 << 20),
        ThrottleProfile::nvme(),
    ));
    let db = Database::create(dev, wal, cfg()).unwrap();
    let data = seed_cold(&db);

    let before = db.metrics().snapshot();
    let out = read_back(&db);
    let delta = db.metrics().snapshot() - before;

    assert_eq!(out, data, "cold batched read must be byte-exact");
    assert!(
        (1..=2).contains(&delta.fault_batches),
        "expected <=2 IoEngine batches for the cold BLOB, got {}",
        delta.fault_batches
    );
    assert!(
        delta.pages_faulted_batched >= (BLOB_LEN / 4096) as u64,
        "content pages must fault through the batch, got {}",
        delta.pages_faulted_batched
    );
}

#[test]
fn cold_read_over_crash_device_is_batched_and_exact() {
    let dev: Arc<dyn Device> = Arc::new(CrashDevice::new(MemDevice::new(256 << 20)));
    let wal: Arc<dyn Device> = Arc::new(CrashDevice::new(MemDevice::new(64 << 20)));
    let db = Database::create(dev, wal, cfg()).unwrap();
    let data = seed_cold(&db);

    let before = db.metrics().snapshot();
    let out = read_back(&db);
    let delta = db.metrics().snapshot() - before;

    assert_eq!(out, data);
    assert!((1..=2).contains(&delta.fault_batches));
}

#[test]
fn sequential_range_reads_drive_readahead() {
    let dev: Arc<dyn Device> = Arc::new(ThrottledDevice::new(
        MemDevice::new(256 << 20),
        ThrottleProfile::nvme(),
    ));
    let wal: Arc<dyn Device> = Arc::new(MemDevice::new(64 << 20));
    let db = Database::create(dev, wal, cfg()).unwrap();
    let data = seed_cold(&db);

    let rel = db.relation("blobs").unwrap();
    let before = db.metrics().snapshot();
    let mut txn = db.begin();
    let mut buf = vec![0u8; 16 << 10];
    let mut off = 0usize;
    while off < data.len() {
        let n = txn
            .get_blob_range(&rel, b"big", off as u64, &mut buf)
            .unwrap();
        assert!(n > 0);
        assert_eq!(&buf[..n], &data[off..off + n], "range at {off} corrupted");
        off += n;
    }
    txn.commit().unwrap();
    let delta = db.metrics().snapshot() - before;

    assert!(
        delta.readahead_issued > 0,
        "sequential scan must issue readahead"
    );
    assert!(
        delta.readahead_hit > 0,
        "later chunks must consume prefetched extents"
    );
}

#[test]
fn readahead_can_be_disabled() {
    let dev: Arc<dyn Device> = Arc::new(MemDevice::new(256 << 20));
    let wal: Arc<dyn Device> = Arc::new(MemDevice::new(64 << 20));
    let db = Database::create(
        dev,
        wal,
        Config {
            readahead_extents: 0,
            ..cfg()
        },
    )
    .unwrap();
    let data = seed_cold(&db);

    let rel = db.relation("blobs").unwrap();
    let before = db.metrics().snapshot();
    let mut txn = db.begin();
    let mut buf = vec![0u8; 16 << 10];
    let mut off = 0usize;
    while off < data.len() {
        let n = txn
            .get_blob_range(&rel, b"big", off as u64, &mut buf)
            .unwrap();
        assert_eq!(&buf[..n], &data[off..off + n]);
        off += n;
    }
    txn.commit().unwrap();
    let delta = db.metrics().snapshot() - before;
    assert_eq!(delta.readahead_issued, 0);
}

// ------------------------------------------------- exact device counts ---

/// A memory device that logs every read as `(byte offset, byte length)`.
struct CountingDevice {
    inner: MemDevice,
    reads: Mutex<Vec<(u64, usize)>>,
}

impl CountingDevice {
    fn new(capacity: usize) -> Arc<Self> {
        Arc::new(CountingDevice {
            inner: MemDevice::new(capacity),
            reads: Mutex::new(Vec::new()),
        })
    }

    /// The reads logged since the last call.
    fn take_reads(&self) -> Vec<(u64, usize)> {
        std::mem::take(&mut self.reads.lock().unwrap())
    }
}

impl Device for CountingDevice {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> Result<()> {
        self.reads.lock().unwrap().push((offset, buf.len()));
        self.inner.read_at(buf, offset)
    }
    fn write_at(&self, buf: &[u8], offset: u64) -> Result<()> {
        self.inner.write_at(buf, offset)
    }
    fn sync(&self) -> Result<()> {
        self.inner.sync()
    }
    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }
}

const MIB: usize = 1 << 20;
const PAGE: usize = 4096;

/// One cold 1 MiB BLOB over a counting device, default tier table: nine
/// tier extents of 1, 2, 4, ..., 256 pages (511 allocated), 256 of content.
/// The B-Tree path to the key is warm, so the device log that follows
/// holds content reads only.
fn cold_mib_blob() -> (Arc<CountingDevice>, Arc<Database>, Vec<u8>) {
    let dev = CountingDevice::new(256 << 20);
    let wal: Arc<dyn Device> = Arc::new(MemDevice::new(64 << 20));
    let db = Database::create(dev.clone(), wal, cfg()).unwrap();
    let rel = db.create_relation("blobs", RelationKind::Blob).unwrap();
    let data: Vec<u8> = (0..MIB).map(|i| (i * 131 % 251) as u8).collect();
    let mut txn = db.begin();
    txn.put_blob(&rel, b"big", &data).unwrap();
    txn.commit().unwrap();
    db.checkpoint().unwrap();
    db.blob_pool().drop_caches();
    db.node_pool().drop_caches();
    let mut txn = db.begin();
    let state = txn.blob_state(&rel, b"big").unwrap().unwrap();
    txn.commit().unwrap();
    assert_eq!(state.extents.len(), 9, "1 MiB spans nine default tiers");
    dev.take_reads();
    (dev, db, data)
}

#[test]
fn cold_get_reads_and_frames_exactly_the_content_pages() {
    let (dev, db, data) = cold_mib_blob();
    let frames_before = db.node_pool().frames_in_use();
    let before = db.metrics().snapshot();

    assert_eq!(read_back(&db), data);

    let reads = dev.take_reads();
    let delta = db.metrics().snapshot() - before;
    assert_eq!(
        reads.iter().map(|&(_, len)| len).sum::<usize>(),
        MIB,
        "a cold 1 MiB get reads 256 pages, not the 511 allocated: {reads:?}"
    );
    assert_eq!(reads.len(), 9, "one device read per extent");
    assert_eq!(delta.pages_read, 256);
    assert_eq!(
        delta.cache_misses,
        reads.len() as u64,
        "a pool miss is a device read"
    );
    assert_eq!(
        db.node_pool().frames_in_use() - frames_before,
        256,
        "only content pages are framed"
    );
}

#[test]
fn random_range_reads_issue_no_readahead() {
    let (_dev, db, data) = cold_mib_blob();
    let rel = db.relation("blobs").unwrap();
    let before = db.metrics().snapshot();
    let mut buf = vec![0u8; 64 << 10];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..200 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        // Never offset 0 and never where the previous read ended: those are
        // the two patterns that count as sequential.
        let off = 1 + (x % (MIB - buf.len() - 1) as u64) as usize;
        let mut txn = db.begin();
        let n = txn
            .get_blob_range(&rel, b"big", off as u64, &mut buf)
            .unwrap();
        txn.commit().unwrap();
        assert_eq!(&buf[..n], &data[off..off + n], "range at {off} corrupted");
    }
    let delta = db.metrics().snapshot() - before;
    assert_eq!(delta.readahead_issued, 0, "random access must not prefetch");
}

#[test]
fn range_read_never_fetches_an_extent_past_its_end() {
    let (dev, db, data) = cold_mib_blob();
    let rel = db.relation("blobs").unwrap();
    let mut txn = db.begin();
    let state = txn.blob_state(&rel, b"big").unwrap().unwrap();
    // 64 KiB starting in the 16-page extent (blob pages 15..31) and ending
    // in the 32-page one (pages 31..63): exactly those two may be read.
    let off = 20 * PAGE + 5;
    let mut buf = vec![0u8; 64 << 10];
    let n = txn
        .get_blob_range(&rel, b"big", off as u64, &mut buf)
        .unwrap();
    txn.commit().unwrap();
    assert_eq!(&buf[..n], &data[off..off + n]);

    let mut reads = dev.take_reads();
    reads.sort_unstable();
    let mut want = vec![
        (state.extents[4].raw() * PAGE as u64, 16 * PAGE),
        (state.extents[5].raw() * PAGE as u64, 32 * PAGE),
    ];
    want.sort_unstable();
    assert_eq!(reads, want, "only the covering extents are fetched");
}

#[test]
fn cold_range_read_over_three_extents_is_one_batch_of_exactly_their_pages() {
    let (dev, db, data) = cold_mib_blob();
    let rel = db.relation("blobs").unwrap();
    let mut txn = db.begin();
    let state = txn.blob_state(&rel, b"big").unwrap().unwrap();
    // From the middle of the 8-page extent (blob pages 7..15), through the
    // whole 16-page one (15..31), into the 32-page one (31..63).
    let off = 10 * PAGE + 100;
    let mut buf = vec![0u8; 30 * PAGE];
    let before = db.metrics().snapshot();
    let n = txn
        .get_blob_range(&rel, b"big", off as u64, &mut buf)
        .unwrap();
    txn.commit().unwrap();
    let delta = db.metrics().snapshot() - before;
    assert_eq!(n, buf.len());
    assert_eq!(&buf[..n], &data[off..off + n]);

    let mut reads = dev.take_reads();
    reads.sort_unstable();
    let mut want: Vec<(u64, usize)> = [(3, 8), (4, 16), (5, 32)]
        .iter()
        .map(|&(i, pages)| (state.extents[i].raw() * PAGE as u64, pages * PAGE))
        .collect();
    want.sort_unstable();
    assert_eq!(reads, want, "one device read per covering extent");
    assert_eq!(delta.fault_batches, 1, "the run faults as one batch");
    assert_eq!(delta.pages_faulted_batched, 56);
    assert_eq!(delta.pages_read, 56);
    assert_eq!(delta.cache_misses, 3);
    assert_eq!(
        delta.alias_ops, 0,
        "a range read copies out of the frames; it maps nothing"
    );
    assert_eq!(
        delta.readahead_issued, 0,
        "neither at the blob's start nor where the last read ended"
    );
}

// ------------------------------------------------- recovery validation ---

/// `k` 1 MiB BLOBs committed after the last checkpoint, then the process
/// stops without another one: the reopen validates every one of them.
/// Returns the data-device byte range of each BLOB's allocated extents.
fn uncheckpointed_mib_blobs(
    dev: Arc<dyn Device>,
    wal: Arc<dyn Device>,
    k: usize,
) -> Vec<std::ops::Range<u64>> {
    let db = Database::create(dev, wal, cfg()).unwrap();
    let rel = db.create_relation("blobs", RelationKind::Blob).unwrap();
    db.checkpoint().unwrap();
    let mut allocated = Vec::new();
    for i in 0..k {
        let data: Vec<u8> = (0..MIB).map(|b| ((b + i) * 131 % 251) as u8).collect();
        let mut txn = db.begin();
        txn.put_blob(&rel, format!("mib-{i}").as_bytes(), &data)
            .unwrap();
        let state = txn
            .blob_state(&rel, format!("mib-{i}").as_bytes())
            .unwrap()
            .unwrap();
        txn.commit().unwrap();
        for spec in state.extent_specs(db.tier_table()) {
            let start = spec.start.raw() * PAGE as u64;
            allocated.push(start..start + spec.pages * PAGE as u64);
        }
    }
    allocated
}

#[test]
fn recovery_validates_past_the_pool_reading_only_content() {
    const K: usize = 4;
    let dev = CountingDevice::new(256 << 20);
    let wal: Arc<dyn Device> = Arc::new(MemDevice::new(64 << 20));
    let allocated = uncheckpointed_mib_blobs(dev.clone(), wal.clone(), K);
    dev.take_reads();

    let (db, report) = Database::open(dev.clone(), wal, cfg()).unwrap();
    assert_eq!((report.committed, report.sha_failures), (K as u64, 0));
    let m = db.metrics().snapshot();
    let reads = dev.take_reads();
    let in_blobs = |off: u64| allocated.iter().any(|r| r.contains(&off));
    let content: usize = reads
        .iter()
        .filter(|&&(off, _)| in_blobs(off))
        .map(|&(_, len)| len)
        .sum();
    assert_eq!(
        content,
        K * MIB,
        "validation reads the content, not the {} allocated bytes",
        allocated.iter().map(|r| r.end - r.start).sum::<u64>()
    );
    // Blob and node extents share the pool: every miss during open is a
    // B-Tree node read (all but the header read at offset 0), none a blob.
    let node_reads = reads
        .iter()
        .filter(|&&(off, _)| off != 0 && !in_blobs(off))
        .count();
    assert_eq!(m.cache_misses, node_reads as u64, "no blob extent faulted");
    assert_eq!(m.fault_batches, 0, "nothing batch-faulted into the pool");

    let rel = db.relation("blobs").unwrap();
    let mut txn = db.begin();
    let got = txn.get_blob(&rel, b"mib-3", |b| b.to_vec()).unwrap();
    txn.commit().unwrap();
    assert_eq!(
        got,
        (0..MIB)
            .map(|b| ((b + 3) * 131 % 251) as u8)
            .collect::<Vec<_>>()
    );
}

fn copy_device(src: &MemDevice) -> Arc<MemDevice> {
    let dst = MemDevice::new(src.capacity() as usize);
    let mut buf = vec![0u8; MIB];
    for off in (0..src.capacity()).step_by(MIB) {
        src.read_at(&mut buf, off).unwrap();
        dst.write_at(&buf, off).unwrap();
    }
    Arc::new(dst)
}

#[test]
fn recovery_validates_a_blob_larger_than_its_in_flight_window() {
    // 8 MiB: four times the content validation keeps in flight at once.
    const LEN: usize = 8 * MIB;
    let dev = Arc::new(MemDevice::new(256 << 20));
    let wal = Arc::new(MemDevice::new(64 << 20));
    let data: Vec<u8> = (0..LEN).map(|i| (i * 7 % 253) as u8).collect();
    let last = {
        let db = Database::create(dev.clone(), wal.clone(), cfg()).unwrap();
        let rel = db.create_relation("blobs", RelationKind::Blob).unwrap();
        db.checkpoint().unwrap();
        let mut txn = db.begin();
        txn.put_blob(&rel, b"huge", &data).unwrap();
        let state = txn.blob_state(&rel, b"huge").unwrap().unwrap();
        txn.commit().unwrap();
        let view = state.content_specs(db.tier_table(), db.geometry());
        view.last().unwrap().start.raw() * PAGE as u64
    };

    let (db, report) = Database::open(copy_device(&dev), copy_device(&wal), cfg()).unwrap();
    assert_eq!((report.committed, report.sha_failures), (1, 0));
    let rel = db.relation("blobs").unwrap();
    let mut txn = db.begin();
    assert_eq!(txn.get_blob(&rel, b"huge", |b| b.to_vec()).unwrap(), data);
    txn.commit().unwrap();

    // One byte torn in the last extent, past the first window: the
    // transaction fails validation and the blob is gone.
    let torn = copy_device(&dev);
    let mut byte = [0u8];
    torn.read_at(&mut byte, last).unwrap();
    torn.write_at(&[!byte[0]], last).unwrap();
    let (db, report) = Database::open(torn, copy_device(&wal), cfg()).unwrap();
    assert_eq!((report.committed, report.sha_failures), (0, 1));
    let rel = db.relation("blobs").unwrap();
    let mut txn = db.begin();
    assert!(txn.get_blob(&rel, b"huge", |b| b.len()).is_err());
}
