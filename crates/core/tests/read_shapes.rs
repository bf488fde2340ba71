//! The three shapes of a whole-BLOB read (`Txn::get_blob`): a multi-extent
//! BLOB below `ALIAS_MIN_BYTES` is copied out of its frames, one at or
//! above it is aliased, and a single extent is passed straight out of its
//! frame. Each returns the bytes that were put — under `verify_reads` too,
//! where a transient device lie clears on the re-read and persistent rot
//! quarantines — and a read nested in another's closure on the same worker
//! completes with its own bytes.

use lobster_buffer::ALIAS_MIN_BYTES;
use lobster_core::{Config, Database, Relation, RelationKind};
use lobster_storage::{Device, FaultConfig, FaultDevice, FaultKind, MemDevice};
use lobster_types::Error;
use std::sync::Arc;

const SMALL: usize = 100 << 10; // five extents under the default tiers
const LARGE: usize = ALIAS_MIN_BYTES as usize; // nine extents
const SINGLE: usize = 3000; // one page: one extent

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

fn cfg(verify_reads: bool) -> Config {
    Config {
        pool_frames: 2048,
        verify_reads,
        // Foreground reads only, so the fault device sees exactly them.
        readahead_extents: 0,
        ..Config::default()
    }
}

fn put(db: &Arc<Database>, rel: &Relation, key: &[u8], data: &[u8]) {
    let mut t = db.begin();
    t.put_blob(rel, key, data).unwrap();
    t.commit().unwrap();
}

/// `get_blob` on worker 0: the bytes, and the `alias_ops` and
/// `memcpy_bytes` the read cost.
fn get_counted(db: &Arc<Database>, rel: &Relation, key: &[u8]) -> (Vec<u8>, u64, u64) {
    let before = db.metrics().snapshot();
    let got = db
        .begin_with_worker(0)
        .get_blob(rel, key, |b| b.to_vec())
        .unwrap();
    let delta = db.metrics().snapshot() - before;
    (got, delta.alias_ops, delta.memcpy_bytes)
}

fn aliasing(db: &Database) -> bool {
    match db.blob_pool() {
        lobster_buffer::BlobPool::Vm(p) => p.aliasing_enabled(),
        lobster_buffer::BlobPool::Ht(_) => false,
    }
}

#[test]
fn each_size_reads_its_own_way() {
    let db = Database::create(
        Arc::new(MemDevice::new(64 << 20)),
        Arc::new(MemDevice::new(8 << 20)),
        cfg(false),
    )
    .unwrap();
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    let blobs = [(b"small", SMALL), (b"large", LARGE), (b"singl", SINGLE)];
    for (i, (key, len)) in blobs.iter().enumerate() {
        put(&db, &rel, *key, &pattern(*len, i as u64));
    }

    let (got, alias_ops, memcpy) = get_counted(&db, &rel, b"small");
    assert_eq!(got, pattern(SMALL, 0));
    assert_eq!(alias_ops, 0, "a BLOB below the threshold is not mapped");
    assert_eq!(memcpy, SMALL as u64, "it is copied once");

    let (got, alias_ops, memcpy) = get_counted(&db, &rel, b"large");
    assert_eq!(got, pattern(LARGE, 1));
    if aliasing(&db) {
        assert!(alias_ops > 0, "a BLOB at the threshold is mapped");
        assert_eq!(memcpy, 0, "and not copied");
    }

    let (got, alias_ops, memcpy) = get_counted(&db, &rel, b"singl");
    assert_eq!(got, pattern(SINGLE, 2));
    assert_eq!((alias_ops, memcpy), (0, 0), "one extent is read in place");
}

/// A database whose data device garbles one bit of the first
/// `injections` reads once armed, holding one `SMALL` BLOB that is not
/// resident.
fn rotting(injections: u64) -> (Arc<Database>, Arc<Relation>, Arc<FaultDevice<MemDevice>>) {
    let mut fc = FaultConfig::new(0x5AFE, 1000, &[FaultKind::BitRotRead]);
    fc.max_injections = injections;
    let data = Arc::new(FaultDevice::new(MemDevice::new(64 << 20), fc));
    let db = Database::create(
        data.clone() as Arc<dyn Device>,
        Arc::new(MemDevice::new(8 << 20)),
        cfg(true),
    )
    .unwrap();
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    put(&db, &rel, b"k", &pattern(SMALL, 7));
    let state = db.begin().blob_state(&rel, b"k").unwrap().unwrap();
    db.blob_pool()
        .drop_extents(&state.extent_specs(db.tier_table()));
    (db, rel, data)
}

#[test]
fn verified_copy_clears_a_transient_lie_on_the_reread() {
    let (db, rel, data) = rotting(1);
    data.arm();
    let (got, alias_ops, memcpy) = get_counted(&db, &rel, b"k");
    data.disarm();
    assert_eq!(got, pattern(SMALL, 7));
    assert_eq!(data.injections(), 1, "the lie must actually have fired");
    assert_eq!(alias_ops, 0, "both reads took the copy path");
    assert_eq!(
        memcpy,
        2 * SMALL as u64,
        "the garbled copy, then the clean one"
    );
    assert!(db.quarantined_blobs().is_empty());
}

#[test]
fn verified_copy_quarantines_persistent_rot() {
    let (db, rel, data) = rotting(u64::MAX);
    data.arm();
    let before = db.metrics().snapshot();
    let res = db.begin_with_worker(0).get_blob(&rel, b"k", |b| b.to_vec());
    let delta = db.metrics().snapshot() - before;
    data.disarm();
    assert!(matches!(res, Err(Error::Corruption(_))), "got {res:?}");
    assert!(db.is_blob_quarantined("b", b"k"));
    assert_eq!(delta.alias_ops, 0, "both reads took the copy path");
}

#[test]
fn a_read_nested_in_another_on_the_same_worker_completes() {
    let db = Database::create(
        Arc::new(MemDevice::new(64 << 20)),
        Arc::new(MemDevice::new(8 << 20)),
        cfg(false),
    )
    .unwrap();
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    let keys: [(&[u8], usize); 2] = [(b"small", SMALL), (b"large", LARGE)];
    for (i, (key, len)) in keys.iter().enumerate() {
        put(&db, &rel, key, &pattern(*len, i as u64));
    }
    // Every pairing of the copy and alias paths, the inner read inside the
    // outer one's closure, on one worker: the inner copy gets a buffer of
    // its own, the inner view an area of its own.
    for (i, (outer, outer_len)) in keys.iter().enumerate() {
        for (j, (inner, inner_len)) in keys.iter().enumerate() {
            db.begin_with_worker(0)
                .get_blob(&rel, outer, |view| {
                    let got = db
                        .begin_with_worker(0)
                        .get_blob(&rel, inner, |v| v.to_vec())
                        .unwrap();
                    assert_eq!(got, pattern(*inner_len, j as u64));
                    assert_eq!(view, &pattern(*outer_len, i as u64)[..]);
                })
                .unwrap();
        }
    }
}
