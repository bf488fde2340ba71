//! `Our.physlog` against the engine's one recovery path. The store stages
//! each BLOB's content in the WAL as `BlobChunk` records; recovery never
//! applies them, so a BLOB whose content write was cut rolls back, and one
//! whose content landed survives on its SHA-256 as under `Our`.

use lobster_baselines::{LobsterStore, ObjectStore};
use lobster_core::{Config, Database, RecoveryReport};
use lobster_sha256::Sha256;
use lobster_storage::{CrashDevice, Device, MemDevice};
use lobster_wal::{LogRecord, Wal, WAL_HEADER};
use std::sync::Arc;

const SIZE: usize = 500_000;

/// Asynchronous commits, drained by `wait_for_durability`.
fn cfg() -> Config {
    Config {
        pool_frames: 2048,
        commit_wait: false,
        ..Config::default()
    }
}

fn pattern(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u8
        })
        .collect()
}

/// Put `data` under `"k"` through a physlog store on `dev`, checking that
/// the content went to the WAL, then abandon the store without a shutdown.
/// `before_put` runs once the relation is durable.
fn put_and_abandon(
    dev: Arc<dyn Device>,
    wal: Arc<MemDevice>,
    data: &[u8],
    before_put: impl FnOnce(),
) {
    let store = LobsterStore::physlog(dev, wal, cfg()).unwrap();
    store.flush().unwrap();
    before_put();
    let before = store.stats().metrics;
    store.put("k", data).unwrap();
    store.database().wait_for_durability().unwrap();
    let delta = store.stats().metrics - before;
    assert!(
        delta.wal_bytes >= SIZE as u64,
        "physical logging must put the content in the WAL ({} bytes)",
        delta.wal_bytes
    );
    std::mem::forget(store);
}

fn reopen(dev: Arc<dyn Device>, wal: Arc<MemDevice>) -> (Arc<Database>, RecoveryReport) {
    Database::open(dev, wal, cfg()).unwrap()
}

/// `wal`'s log as an ordering that logged each commit before writing its
/// content left it: the same header and records, without the data-durable
/// marks, so an open validates every BLOB committed since the checkpoint.
fn without_marks(wal: Arc<dyn Device>) -> Arc<MemDevice> {
    let records = Wal::scan(&wal).unwrap().records;
    let copy = Arc::new(MemDevice::new(wal.capacity() as usize));
    let mut header = vec![0u8; WAL_HEADER as usize];
    wal.read_at(&mut header, 0).unwrap();
    copy.write_at(&header, 0).unwrap();
    let log = Wal::open(copy.clone(), lobster_metrics::new_metrics()).unwrap();
    let mark = |r: &LogRecord| matches!(r, LogRecord::DataDurable { .. });
    let kept: Vec<LogRecord> = records.into_iter().filter(|r| !mark(r)).collect();
    log.commit_to(log.append_batch(&kept).unwrap()).unwrap();
    copy
}

#[test]
fn a_cut_content_write_rolls_back_and_is_not_restored_from_the_log() {
    let dev = Arc::new(CrashDevice::new(MemDevice::new(64 << 20)));
    let wal = Arc::new(MemDevice::new(16 << 20));
    // The cut drops every data write from the put's on and acknowledges
    // the syncs after it; the WAL holds the Blob State and every byte of
    // the content, read as an ordering that logged first left it.
    put_and_abandon(dev.clone(), wal.clone(), &pattern(SIZE, 1), || {
        dev.arm_after_writes(0, 0)
    });
    assert!(dev.has_crashed());
    let survived = MemDevice::new(64 << 20);
    let mut buf = vec![0u8; 1 << 20];
    for off in (0..dev.capacity()).step_by(buf.len()) {
        dev.inner().read_at(&mut buf, off).unwrap();
        survived.write_at(&buf, off).unwrap();
    }

    let (db, report) = reopen(Arc::new(survived), without_marks(wal));
    assert_eq!(report.sha_failures, 1, "the cut put must fail validation");
    let rel = db.relation("objects").unwrap();
    let mut t = db.begin();
    assert!(t.blob_state(&rel, b"k").unwrap().is_none());
    t.commit().unwrap();
}

#[test]
fn content_that_landed_reopens_with_a_matching_sha() {
    let dev = Arc::new(MemDevice::new(64 << 20));
    let wal = Arc::new(MemDevice::new(16 << 20));
    let data = pattern(SIZE, 2);
    put_and_abandon(dev.clone(), wal.clone(), &data, || ());

    let (db, report) = reopen(dev, wal);
    assert_eq!(report.sha_failures, 0);
    let rel = db.relation("objects").unwrap();
    let mut t = db.begin();
    let state = t.blob_state(&rel, b"k").unwrap().unwrap();
    let got = t.get_blob(&rel, b"k", |b| b.to_vec()).unwrap();
    t.commit().unwrap();
    assert_eq!(state.sha256, Sha256::digest(&got));
    assert_eq!(got, data);
}
