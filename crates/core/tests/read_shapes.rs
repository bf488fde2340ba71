//! The three shapes of a whole-BLOB read (`Txn::get_blob`): a BLOB whose
//! extents sit back to back in the pool's frames — a single extent, or a
//! placement framed as one run — is read in place; one whose
//! frames are scattered is copied out of them below `ALIAS_MIN_BYTES` and
//! aliased at or above it. Each returns the bytes that were put — under
//! `verify_reads` too, where a transient device lie clears on the re-read
//! and persistent rot quarantines — and a read nested in another's closure
//! on the same worker completes with its own bytes.

use lobster_buffer::{BlobPool, ALIAS_MIN_BYTES};
use lobster_core::{Config, Database, Relation, RelationKind};
use lobster_extent::ExtentSpec;
use lobster_storage::{Device, FaultConfig, FaultDevice, FaultKind, MemDevice};
use lobster_types::{Error, Pid};
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

/// First pid of the spacers [`scatter`] frames: far above anything the
/// tests' stores allocate on their 64 MiB devices.
const SPACERS: u64 = 12_000;

/// Make the next faults of the `keys`' BLOBs land scattered: drop their
/// extents and an earlier round's spacers from the pool, pin every other
/// extent still resident, then fill every free frame with a pinned
/// one-frame spacer except one hole per extent, of that extent's size, each
/// walled off from the next. No free run then holds two of the extents,
/// best fit gives each extent a hole of its own size, and the evictor's
/// hand finds nothing it may evict to make a run, so a read must copy or
/// alias them.
fn scatter<K: AsRef<[u8]>>(db: &Arc<Database>, rel: &Relation, keys: &[K]) {
    let BlobPool::Vm(pool) = db.blob_pool() else {
        panic!("the shapes are the vmcache pool's");
    };
    let mut extents = Vec::new();
    for key in keys {
        let state = db.begin().blob_state(rel, key.as_ref()).unwrap().unwrap();
        extents.extend(state.extent_specs(db.tier_table()));
    }
    db.blob_pool().drop_extents(&extents);
    let earlier = (SPACERS..SPACERS + pool.frame_count()).map(|p| ExtentSpec::new(Pid::new(p), 1));
    db.blob_pool().drop_extents(&earlier.collect::<Vec<_>>());
    for pid in (0..SPACERS).map(Pid::new) {
        if pool.is_resident(pid) {
            pool.set_prevent_evict(pid, true);
        }
    }
    // Best fit fills the smaller free runs first, so the last spacers come
    // from one run, back to back: free those in the holes' pattern.
    let mut framed = Vec::new();
    while pool.frames_in_use() < pool.frame_count() {
        let spacer = ExtentSpec::new(Pid::new(SPACERS + framed.len() as u64), 1);
        pool.create_extent(spacer).unwrap().set_prevent_evict();
        framed.push(spacer);
    }
    let pattern: u64 = extents.iter().map(|e| e.pages + 1).sum();
    let mut at = framed.len() - pattern as usize;
    for hole in extents.iter().map(|e| e.pages as usize) {
        framed[at..at + hole]
            .iter()
            .for_each(|&s| pool.drop_extent(s));
        at += hole + 1; // the wall stays
    }
}

fn aliasing(db: &Database) -> bool {
    match db.blob_pool() {
        lobster_buffer::BlobPool::Vm(p) => p.aliasing_enabled(),
        lobster_buffer::BlobPool::Ht(_) => false,
    }
}

/// Whether a read of `len` scattered bytes maps them, and the bytes it
/// copies: aliased from `ALIAS_MIN_BYTES` up when the pool aliases, else
/// copied once.
fn scattered_shape(db: &Database, len: usize) -> (bool, u64) {
    if len as u64 >= ALIAS_MIN_BYTES && aliasing(db) {
        (true, 0)
    } else {
        (false, len as u64)
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

    scatter(&db, &rel, &[b"small"]);
    let (got, alias_ops, memcpy) = get_counted(&db, &rel, b"small");
    assert_eq!(got, pattern(SMALL, 0));
    assert_eq!(alias_ops, 0, "a BLOB below the threshold is not mapped");
    assert_eq!(memcpy, SMALL as u64, "it is copied once");

    scatter(&db, &rel, &[b"large"]);
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
    scatter(&db, &rel, &[b"k"]);
    (db, rel, data)
}

#[test]
fn adjacent_extents_are_read_in_place() {
    // A put frames its extents as one run, and a cold read into an emptied
    // pool frames them back to back from its one free run: five extents
    // and nine, neither mapped nor copied, warm and cold.
    let db = Database::create(
        Arc::new(MemDevice::new(64 << 20)),
        Arc::new(MemDevice::new(8 << 20)),
        cfg(false),
    )
    .unwrap();
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    let blobs: [(&[u8], usize, usize); 2] = [(b"small", SMALL, 5), (b"large", LARGE, 9)];
    for (i, &(key, len, extents)) in blobs.iter().enumerate() {
        put(&db, &rel, key, &pattern(len, i as u64));
        let state = db.begin().blob_state(&rel, key).unwrap().unwrap();
        assert_eq!(state.extent_specs(db.tier_table()).len(), extents);
    }
    for cold in [false, true] {
        if cold {
            db.checkpoint().unwrap();
            db.blob_pool().drop_caches();
        }
        for (i, &(key, len, _)) in blobs.iter().enumerate() {
            let (got, alias_ops, memcpy) = get_counted(&db, &rel, key);
            assert!(got == pattern(len, i as u64), "{len} bytes, cold {cold}");
            assert_eq!((alias_ops, memcpy), (0, 0), "{len} bytes, cold {cold}");
        }
    }
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
    // The large BLOB first: a fault batch of a whole BLOB takes one run
    // where a free one holds it, and the hole of one of the large BLOB's
    // extents would hold the whole small one.
    let keys: [(&[u8], usize); 2] = [(b"large", LARGE), (b"small", SMALL)];
    for (i, (key, len)) in keys.iter().enumerate() {
        put(&db, &rel, key, &pattern(*len, i as u64));
    }
    scatter(&db, &rel, &keys.map(|(key, _)| key));
    // Every pairing of the copy and alias paths, the inner read inside the
    // outer one's closure, on one worker: the inner copy gets a buffer of
    // its own, the inner view an area of its own. Each read takes its
    // scattered shape, so neither is read in place.
    for (i, &(outer, outer_len)) in keys.iter().enumerate() {
        for (j, &(inner, inner_len)) in keys.iter().enumerate() {
            let before = db.metrics().snapshot();
            let (inner_aliases, inner_copied) = db
                .begin_with_worker(0)
                .get_blob(&rel, outer, |view| {
                    let (got, alias_ops, memcpy) = get_counted(&db, &rel, inner);
                    assert_eq!(got, pattern(inner_len, j as u64));
                    assert_eq!(view, &pattern(outer_len, i as u64)[..]);
                    (alias_ops, memcpy)
                })
                .unwrap();
            let delta = db.metrics().snapshot() - before;
            let (outer_aliases, outer_copied) = (
                delta.alias_ops - inner_aliases,
                delta.memcpy_bytes - inner_copied,
            );
            let pair = format!("{outer_len} bytes around {inner_len}");
            let inner_shape = (inner_aliases > 0, inner_copied);
            let outer_shape = (outer_aliases > 0, outer_copied);
            assert_eq!(inner_shape, scattered_shape(&db, inner_len), "{pair}");
            assert_eq!(outer_shape, scattered_shape(&db, outer_len), "{pair}");
        }
    }
}
