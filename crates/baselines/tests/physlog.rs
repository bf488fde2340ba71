//! `Our.physlog` against the engine's one recovery path. The store stages
//! each BLOB's content in the WAL as `BlobChunk` records; recovery never
//! applies them, so a BLOB whose content write was cut rolls back, and one
//! whose content landed survives on its SHA-256 as under `Our`.

use lobster_baselines::{LobsterStore, ObjectStore};
use lobster_core::{Config, Database, RecoveryReport};
use lobster_sha256::Sha256;
use lobster_storage::{CrashDevice, Device, MemDevice};
use std::sync::Arc;

const SIZE: usize = 500_000;

/// Asynchronous commits: a waiting one would sync the data device before
/// it is acknowledged, so no cut could take its content.
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
fn put_and_abandon(dev: Arc<dyn Device>, wal: Arc<MemDevice>, data: &[u8]) {
    let store = LobsterStore::physlog(dev, wal, cfg()).unwrap();
    // Make the relation durable on a write-back data device.
    store.flush().unwrap();
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

#[test]
fn a_cut_content_write_rolls_back_and_is_not_restored_from_the_log() {
    let dev = Arc::new(CrashDevice::write_back(MemDevice::new(64 << 20)));
    let wal = Arc::new(MemDevice::new(16 << 20));
    put_and_abandon(dev.clone(), wal.clone(), &pattern(SIZE, 1));
    // The content sits in the write cache no sync covered; the WAL holds
    // the Blob State and every byte of the content.
    dev.crash_now();
    let survived = MemDevice::new(64 << 20);
    let mut buf = vec![0u8; 1 << 20];
    for off in (0..dev.capacity()).step_by(buf.len()) {
        dev.inner().read_at(&mut buf, off).unwrap();
        survived.write_at(&buf, off).unwrap();
    }

    let (db, report) = reopen(Arc::new(survived), wal);
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
    put_and_abandon(dev.clone(), wal.clone(), &data);

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
