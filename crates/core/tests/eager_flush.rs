//! A transaction that keeps working on a blob whose put is still being
//! written: the eager flights of a large `put_blob` hold shared latches on
//! its fresh extents until reaped, and only the transaction itself (or the
//! commit pipeline, later) can reap them. A following append, in-place
//! update or delete of the same blob in the same transaction must therefore
//! land the flights first instead of waiting on its own latch — on a slow
//! device, where the flights really are still in flight when the next verb
//! starts — and the result must be the right bytes under the right SHA-256,
//! before and after a reopen.

use lobster_core::{Config, Database, RelationKind, ShardDevices, ShardedDatabase};
use lobster_sha256::Sha256;
use lobster_storage::{Device, MemDevice, ThrottleProfile, ThrottledDevice};
use std::sync::Arc;

const MIB: usize = 1 << 20;
/// 331 pages: the ninth extent holds 76 of them and has room for the
/// append that follows.
const APPENDED: usize = MIB + (300 << 10);

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

fn sha(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

fn cfg() -> Config {
    Config {
        pool_frames: 4096,
        commit_wait: true,
        checkpoint_threshold: u64::MAX,
        ..Config::default()
    }
}

fn slow_device(cap: usize) -> Arc<dyn Device> {
    Arc::new(ThrottledDevice::new(
        MemDevice::new(cap),
        ThrottleProfile::sata(),
    ))
}

/// What each hazard leaves behind: `(key, expected content)`, `None` for a
/// key that must be gone.
fn expectations() -> Vec<(&'static [u8], Option<Vec<u8>>)> {
    let appended = [pattern(APPENDED, 1), pattern(200_000, 2)].concat();
    let mut updated = pattern(MIB + 4096, 3);
    updated[700_000..705_000].copy_from_slice(&pattern(5_000, 4));
    vec![
        (b"appended", Some(appended)),
        (b"updated", Some(updated)),
        (b"deleted", None),
    ]
}

#[test]
fn same_txn_verbs_after_a_large_put_on_txn() {
    let (data, wal) = (slow_device(64 << 20), slow_device(16 << 20));
    let db = Database::create(data.clone(), wal.clone(), cfg()).unwrap();
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    let pages = db.allocator().pages_in_use();

    let mut t = db.begin();
    t.put_blob(&rel, b"appended", &pattern(APPENDED, 1))
        .unwrap();
    t.append_blob(&rel, b"appended", &pattern(200_000, 2))
        .unwrap();
    t.commit().unwrap();

    let mut t = db.begin();
    t.put_blob(&rel, b"updated", &pattern(MIB + 4096, 3))
        .unwrap();
    // 5 000 bytes of a 128-page extent patch in place, so the update takes
    // the exclusive latch of an extent the put is still writing.
    t.update_blob(&rel, b"updated", 700_000, &pattern(5_000, 4))
        .unwrap();
    t.commit().unwrap();

    let live = db.allocator().pages_in_use();
    let mut t = db.begin();
    t.put_blob(&rel, b"deleted", &pattern(MIB, 5)).unwrap();
    t.delete_blob(&rel, b"deleted").unwrap();
    t.commit().unwrap();
    assert_eq!(db.allocator().pages_in_use(), live, "put+delete leaked");
    assert!(live > pages);

    let m = db.metrics().snapshot();
    assert!(m.eager_flush_batches >= 3, "every large put wrote early");
    assert_eq!(m.commit_errors, 0);

    let check = |db: &Arc<Database>| {
        let rel = db.relation("b").unwrap();
        for (key, want) in expectations() {
            let mut t = db.begin();
            let state = t.blob_state(&rel, key).unwrap();
            match want {
                Some(want) => {
                    let got = t.get_blob(&rel, key, |b| b.to_vec()).unwrap();
                    assert!(got == want, "content of {:?}", String::from_utf8_lossy(key));
                    assert_eq!(state.unwrap().sha256, sha(&want));
                }
                None => assert!(state.is_none()),
            }
            t.commit().unwrap();
        }
        assert!(db.scrub().unwrap().is_clean());
        assert_eq!(db.blob_pool().audit().held_latches(), 0);
    };
    check(&db);
    drop(rel);
    drop(db);
    let (db, _) = Database::open(data, wal, cfg()).unwrap();
    check(&db);
    assert_eq!(db.allocator().pages_in_use(), live);
}

#[test]
fn same_txn_verbs_after_a_large_put_on_sharded_txn() {
    let devices: Vec<_> = (0..2)
        .map(|_| (slow_device(64 << 20), slow_device(16 << 20)))
        .collect();
    let parts = || -> Vec<ShardDevices> {
        (devices.iter().cloned())
            .map(|(data, wal)| ShardDevices { data, wal })
            .collect()
    };
    let sdb = ShardedDatabase::create(parts(), cfg()).unwrap();
    let rel = sdb.create_relation("b", RelationKind::Blob).unwrap();

    // One transaction, all three hazards, both shards written (the keys
    // route by hash; `other` makes sure the commit is a cross-shard one).
    let other = (0u8..)
        .map(|i| [b'o', i])
        .find(|k| sdb.shard_for_key(k) != sdb.shard_for_key(b"appended"))
        .unwrap();
    let mut t = sdb.begin();
    t.put_blob(&rel, b"appended", &pattern(APPENDED, 1))
        .unwrap();
    t.append_blob(&rel, b"appended", &pattern(200_000, 2))
        .unwrap();
    t.put_blob(&rel, b"updated", &pattern(MIB + 4096, 3))
        .unwrap();
    t.update_blob(&rel, b"updated", 700_000, &pattern(5_000, 4))
        .unwrap();
    t.put_blob(&rel, b"deleted", &pattern(MIB, 5)).unwrap();
    t.delete_blob(&rel, b"deleted").unwrap();
    t.put_blob(&rel, &other, &pattern(MIB, 6)).unwrap();
    t.commit().unwrap();

    let m = sdb.metrics().snapshot();
    assert!(m.eager_flush_batches >= 4);
    assert_eq!(m.commit_errors, 0);

    let check = |sdb: &Arc<ShardedDatabase>| {
        let rel = sdb.relation("b").unwrap();
        let mut wants = expectations();
        wants.push((&other, Some(pattern(MIB, 6))));
        for (key, want) in wants {
            let mut t = sdb.begin();
            let state = t.blob_state(&rel, key).unwrap();
            match want {
                Some(want) => {
                    let got = t.get_blob(&rel, key, |b| b.to_vec()).unwrap();
                    assert!(got == want, "content of {:?}", String::from_utf8_lossy(key));
                    assert_eq!(state.unwrap().sha256, sha(&want));
                }
                None => assert!(state.is_none()),
            }
            t.commit().unwrap();
        }
        for shard in sdb.shards() {
            assert!(shard.scrub().unwrap().is_clean());
            assert_eq!(shard.blob_pool().audit().held_latches(), 0);
        }
    };
    check(&sdb);
    drop(rel);
    drop(sdb);
    let (sdb, _) = ShardedDatabase::open(parts(), cfg()).unwrap();
    check(&sdb);
}
