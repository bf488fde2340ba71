//! End-to-end tests of the LOBSTER engine: BLOB life-cycle, the
//! single-flush commit protocol, transactions, and crash recovery.

mod support;

use lobster_core::{
    BlobStateCmp, Config, Database, ExpressionIndex, PoolVariant, RelationKind, Txn,
};
use lobster_sha256::Sha256;
use lobster_storage::{CrashDevice, Device, MemDevice};
use lobster_types::Error;
use std::sync::atomic::Ordering as AtomicOrdering;
use std::sync::Arc;

fn small_cfg() -> Config {
    Config {
        pool_frames: 4096, // 16 MiB
        workers: 4,
        ..Config::default()
    }
}

fn mem_db(cfg: Config) -> Arc<Database> {
    let dev = Arc::new(MemDevice::new(256 << 20));
    let wal = Arc::new(MemDevice::new(64 << 20));
    Database::create(dev, wal, cfg).unwrap()
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

fn put(db: &Arc<Database>, rel: &lobster_core::Relation, key: &[u8], data: &[u8]) {
    let mut t = db.begin();
    t.put_blob(rel, key, data).unwrap();
    t.commit().unwrap();
}

/// Store `data` the way growth lays it out — a one-page put, the rest
/// appended in the same transaction — so it ends in tier extents, where
/// [`put`] ends in an exact tail.
fn put_by_growth(db: &Arc<Database>, rel: &lobster_core::Relation, key: &[u8], data: &[u8]) {
    let mut t = db.begin();
    t.put_blob(rel, key, &data[..4096]).unwrap();
    t.append_blob(rel, key, &data[4096..]).unwrap();
    t.commit().unwrap();
}

fn get(db: &Arc<Database>, rel: &lobster_core::Relation, key: &[u8]) -> Vec<u8> {
    let mut t = db.begin();
    let out = t.get_blob(rel, key, |b| b.to_vec()).unwrap();
    t.commit().unwrap();
    out
}

// ------------------------------------------------------------ lifecycle ---

#[test]
fn roundtrip_many_sizes() {
    let db = mem_db(small_cfg());
    let rel = db.create_relation("blobs", RelationKind::Blob).unwrap();
    // Sizes straddling page and extent boundaries.
    for (i, size) in [
        0usize, 1, 63, 64, 120, 4095, 4096, 4097, 12288, 100_000, 1_000_000,
    ]
    .iter()
    .enumerate()
    {
        let key = format!("k{i}");
        let data = pattern(*size, i as u64);
        put(&db, &rel, key.as_bytes(), &data);
        assert_eq!(get(&db, &rel, key.as_bytes()), data, "size {size}");
    }
}

/// The two layouts of one size: a put knows it and ends in an exact tail
/// extent; growth climbs the tier ladder. Both round-trip.
#[test]
fn tail_extents_roundtrip_and_save_space() {
    let db = mem_db(small_cfg());
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    let data = pattern(6 * 4096, 1); // Figure 1: 6 pages -> 1+2 extents + 3-page tail
    put(&db, &rel, b"six", &data);
    put_by_growth(&db, &rel, b"grown", &data);

    let mut t = db.begin();
    let put_state = t.blob_state(&rel, b"six").unwrap().unwrap();
    let grown_state = t.blob_state(&rel, b"grown").unwrap().unwrap();
    t.commit().unwrap();
    assert_eq!(put_state.extents.len(), 2);
    assert_eq!(put_state.tail.map(|(_, p)| p), Some(3));
    assert_eq!(
        put_state.capacity_pages(db.tier_table()),
        6,
        "no slack at all"
    );
    assert_eq!(grown_state.extents.len(), 3, "tiers 1, 2, 4");
    assert_eq!(grown_state.tail, None);
    assert_eq!(grown_state.capacity_pages(db.tier_table()), 7);
    assert_eq!(get(&db, &rel, b"six"), data);
    assert_eq!(get(&db, &rel, b"grown"), data);
}

#[test]
fn duplicate_key_and_missing_key_errors() {
    let db = mem_db(small_cfg());
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    put(&db, &rel, b"k", b"data");
    let mut t = db.begin();
    assert!(matches!(
        t.put_blob(&rel, b"k", b"other"),
        Err(Error::KeyExists)
    ));
    drop(t);
    let mut t = db.begin();
    assert!(matches!(
        t.get_blob(&rel, b"missing", |_| ()),
        Err(Error::KeyNotFound)
    ));
    assert!(matches!(
        t.delete_blob(&rel, b"missing"),
        Err(Error::KeyNotFound)
    ));
    drop(t);
}

#[test]
fn blob_state_metadata_is_correct() {
    let db = mem_db(small_cfg());
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    let data = pattern(200_000, 9);
    put(&db, &rel, b"k", &data);
    let mut t = db.begin();
    let state = t.blob_state(&rel, b"k").unwrap().unwrap();
    t.commit().unwrap();
    assert_eq!(state.size, 200_000);
    assert_eq!(state.sha256, Sha256::digest(&data));
    assert_eq!(&state.prefix[..], &data[..32]);
}

#[test]
fn get_blob_range_clamps() {
    let db = mem_db(small_cfg());
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    let data = pattern(10_000, 3);
    put(&db, &rel, b"k", &data);
    let mut t = db.begin();
    let mut buf = vec![0u8; 4000];
    let n = t.get_blob_range(&rel, b"k", 8000, &mut buf).unwrap();
    assert_eq!(n, 2000);
    assert_eq!(&buf[..n], &data[8000..]);
    let n = t.get_blob_range(&rel, b"k", 20_000, &mut buf).unwrap();
    assert_eq!(n, 0);
    t.commit().unwrap();
}

// ---------------------------------------------------------------- growth ---

#[test]
fn append_resumes_sha_and_preserves_content() {
    let db = mem_db(small_cfg());
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    let mut full = pattern(10_000, 7);
    put(&db, &rel, b"k", &full);

    for (i, grow) in [1usize, 63, 64, 5000, 100_000].iter().enumerate() {
        let extra = pattern(*grow, 100 + i as u64);
        let mut t = db.begin();
        t.append_blob(&rel, b"k", &extra).unwrap();
        t.commit().unwrap();
        full.extend_from_slice(&extra);
    }
    assert_eq!(get(&db, &rel, b"k"), full);
    let mut t = db.begin();
    let state = t.blob_state(&rel, b"k").unwrap().unwrap();
    t.commit().unwrap();
    assert_eq!(state.size as usize, full.len());
    assert_eq!(
        state.sha256,
        Sha256::digest(&full),
        "resumed hash must equal full hash"
    );
}

/// Appending to a put's tail clones it once into the tier extent of its
/// position; growth then stays on the tier ladder, so a later append
/// allocates only the tier extents it needs. A BLOB built by growth never
/// clones.
#[test]
fn append_to_tail_extent_blob_clones_tail() {
    let db = mem_db(small_cfg());
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    let allocs = || db.metrics().extent_allocs.load(AtomicOrdering::Relaxed);
    let state = |key: &[u8]| {
        let mut t = db.begin();
        let state = t.blob_state(&rel, key).unwrap().unwrap();
        t.commit().unwrap();
        state
    };
    for by_growth in [false, true] {
        let key: &[u8] = if by_growth { b"grown" } else { b"put" };
        let mut full = pattern(6 * 4096, 4);
        if by_growth {
            put_by_growth(&db, &rel, key, &full);
        } else {
            put(&db, &rel, key, &full);
        }
        assert_eq!(state(key).tail.is_some(), !by_growth);

        // 6 + 3 pages: the tail (if any) becomes the 4-page tier at
        // position 2, then the 8-page tier at position 3 is added.
        let before = allocs();
        let extra = pattern(3 * 4096, 5);
        let mut t = db.begin();
        t.append_blob(&rel, key, &extra).unwrap();
        t.commit().unwrap();
        full.extend_from_slice(&extra);
        let grown = state(key);
        assert_eq!(grown.tail, None, "growth plans no tail");
        assert_eq!(grown.extents.len(), 4);
        let clones = u64::from(!by_growth);
        assert_eq!(allocs() - before, 1 + clones);

        // 9 + 6 pages fit the 15-page capacity: nothing to allocate.
        let before = allocs();
        let extra = pattern(6 * 4096, 6);
        let mut t = db.begin();
        t.append_blob(&rel, key, &extra).unwrap();
        t.commit().unwrap();
        full.extend_from_slice(&extra);
        assert_eq!(allocs(), before, "a second append clones nothing");
        assert_eq!(get(&db, &rel, key), full);
        assert_eq!(state(key).sha256, Sha256::digest(&full));
    }
}

/// A tail large enough to be written eagerly (900 KiB = 127 tier pages
/// and a 98-page tail) is cloned and then appended into by the same
/// transaction: the clone's write must not hold a latch the append waits
/// on.
#[test]
fn append_to_a_large_tail_clones_it_without_waiting_on_itself() {
    let db = mem_db(small_cfg());
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    let mut full = pattern(900 * 1024, 12);
    put(&db, &rel, b"k", &full);
    let extra = pattern(10_000, 13);
    let mut t = db.begin();
    t.append_blob(&rel, b"k", &extra).unwrap();
    t.commit().unwrap();
    full.extend_from_slice(&extra);
    assert_eq!(get(&db, &rel, b"k"), full);
}

#[test]
fn append_to_empty_blob() {
    let db = mem_db(small_cfg());
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    put(&db, &rel, b"k", b"");
    let data = pattern(5000, 11);
    let mut t = db.begin();
    t.append_blob(&rel, b"k", &data).unwrap();
    t.commit().unwrap();
    assert_eq!(get(&db, &rel, b"k"), data);
}

// ------------------------------------------------------------- shrinking ---

#[test]
fn truncate_frees_extent_suffix_and_rehashes() {
    let db = mem_db(small_cfg());
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    let data = pattern(200_000, 9);
    put(&db, &rel, b"k", &data);
    let frees_before = db.metrics().extent_frees.load(AtomicOrdering::Relaxed);

    for new_size in [150_000u64, 65_536, 4096, 100, 0] {
        let mut t = db.begin();
        t.truncate_blob(&rel, b"k", new_size).unwrap();
        t.commit().unwrap();
        let mut t = db.begin();
        let state = t.blob_state(&rel, b"k").unwrap().unwrap();
        assert_eq!(state.size, new_size);
        assert_eq!(state.sha256, Sha256::digest(&data[..new_size as usize]));
        let got = t.get_blob(&rel, b"k", |b| b.to_vec()).unwrap();
        assert_eq!(got, &data[..new_size as usize]);
        t.commit().unwrap();
    }
    assert!(
        db.metrics().extent_frees.load(AtomicOrdering::Relaxed) > frees_before,
        "shrinking must return extents to the free lists"
    );

    // Truncation to zero keeps the key alive and appendable.
    let extra = pattern(3000, 10);
    let mut t = db.begin();
    t.append_blob(&rel, b"k", &extra).unwrap();
    t.commit().unwrap();
    assert_eq!(get(&db, &rel, b"k"), extra);
}

#[test]
fn truncate_rejects_growth_and_roundtrips_noop() {
    let db = mem_db(small_cfg());
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    let data = pattern(10_000, 2);
    put(&db, &rel, b"k", &data);
    let mut t = db.begin();
    assert!(t.truncate_blob(&rel, b"k", 10_001).is_err());
    t.truncate_blob(&rel, b"k", 10_000).unwrap(); // same size: no-op
    assert!(t.truncate_blob(&rel, b"missing", 0).is_err());
    t.commit().unwrap();
    assert_eq!(get(&db, &rel, b"k"), data);
}

/// A cut inside the tail extent keeps the tail, shrunk to the pages it
/// still holds; a cut below it frees it. A BLOB built by growth has no
/// tail and keeps its tier prefix.
#[test]
fn truncate_into_tail_extent_keeps_tail() {
    let db = mem_db(small_cfg());
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    let in_use = || {
        db.wait_for_durability().unwrap();
        db.allocator().pages_in_use()
    };
    let state = |key: &[u8]| {
        let mut t = db.begin();
        let state = t.blob_state(&rel, key).unwrap().unwrap();
        t.commit().unwrap();
        state
    };
    let truncate = |key: &[u8], new_size: u64| {
        let mut t = db.begin();
        t.truncate_blob(&rel, key, new_size).unwrap();
        t.commit().unwrap();
    };
    // 6 pages: tiers 1 + 2 cover the head, a 3-page tail holds the rest.
    let data = pattern(6 * 4096, 4);
    for by_growth in [false, true] {
        let key: &[u8] = if by_growth { b"grown" } else { b"put" };
        if by_growth {
            put_by_growth(&db, &rel, key, &data);
        } else {
            put(&db, &rel, key, &data);
        }
        let had = state(key);
        assert_eq!(had.tail.is_some(), !by_growth);

        // Shrink by half a page: the cut lands in the last extent, which
        // still holds six pages of content.
        let new_size = (6 * 4096 - 2048) as u64;
        let pages = in_use();
        truncate(key, new_size);
        let s = state(key);
        assert_eq!(s.tail, had.tail, "tail still holds six live pages");
        assert_eq!(s.extents, had.extents);
        assert_eq!(s.sha256, Sha256::digest(&data[..new_size as usize]));
        assert_eq!(in_use(), pages);

        // Shrink to 4.5 pages: the tail gives back its sixth page.
        let new_size = (4 * 4096 + 2048) as u64;
        truncate(key, new_size);
        let s = state(key);
        if by_growth {
            assert_eq!(
                s.extents, had.extents,
                "the 4-page tier still holds content"
            );
            assert_eq!(in_use(), pages);
        } else {
            assert_eq!(s.tail, had.tail.map(|(pid, _)| (pid, 2)));
            assert_eq!(in_use(), pages - 1, "the cut-off tail page is freed");
        }
        assert_eq!(get(&db, &rel, key), &data[..new_size as usize]);

        // Shrink past the tail: it must be freed.
        truncate(key, 4096);
        let s = state(key);
        assert!(s.tail.is_none());
        assert_eq!(s.extents.len(), 1);
        assert_eq!(in_use(), pages - (had.capacity_pages(db.tier_table()) - 1));
        assert_eq!(get(&db, &rel, key), &data[..4096]);
    }
}

/// Truncating into a tail frees the pages past the cut at commit, so the
/// allocator holds exactly the content pages — and a reopen, which rebuilds
/// the allocator from the Blob States, counts the same.
#[test]
fn truncate_into_tail_frees_the_cut_pages_across_reopen() {
    let dev = Arc::new(MemDevice::new(128 << 20));
    let wal = Arc::new(MemDevice::new(32 << 20));
    let (size, cut) = ((1 << 20) + 40 * 1024, (1 << 20) + 4096);
    let data = pattern(size, 31);
    let (nodes, in_use) = {
        let db = Database::create(dev.clone(), wal.clone(), small_cfg()).unwrap();
        let rel = db.create_relation("b", RelationKind::Blob).unwrap();
        let nodes = db.allocator().pages_in_use();
        put(&db, &rel, b"k", &data);
        assert_eq!(
            db.allocator().pages_in_use(),
            nodes + 266,
            "255 tier + 11 tail"
        );
        let mut t = db.begin();
        t.truncate_blob(&rel, b"k", cut as u64).unwrap();
        t.commit().unwrap();
        db.wait_for_durability().unwrap();
        let in_use = db.allocator().pages_in_use();
        std::mem::forget(db); // crash
        (nodes, in_use)
    };
    assert_eq!(in_use, nodes + 257, "tail shrunk to 2 pages");
    let (db, _) = Database::open(dev, wal, small_cfg()).unwrap();
    assert_eq!(db.allocator().pages_in_use(), in_use);
    assert_eq!(get(&db, &db.relation("b").unwrap(), b"k"), &data[..cut]);
}

#[test]
fn truncate_survives_recovery() {
    let dev = Arc::new(MemDevice::new(128 << 20));
    let wal = Arc::new(MemDevice::new(32 << 20));
    let data = pattern(150_000, 21);
    {
        let db = Database::create(dev.clone(), wal.clone(), small_cfg()).unwrap();
        let rel = db.create_relation("b", RelationKind::Blob).unwrap();
        put(&db, &rel, b"k", &data);
        let mut t = db.begin();
        t.truncate_blob(&rel, b"k", 70_000).unwrap();
        t.commit().unwrap();
        db.wait_for_durability().unwrap();
        std::mem::forget(db); // crash
    }
    let (db, _) = Database::open(dev, wal, small_cfg()).unwrap();
    let rel = db.relation("b").unwrap();
    let mut t = db.begin();
    assert_eq!(
        t.get_blob(&rel, b"k", |b| b.to_vec()).unwrap(),
        &data[..70_000]
    );
    t.commit().unwrap();
}

// --------------------------------------------------------------- updates ---

#[test]
fn update_in_place_delta_and_clone() {
    let db = mem_db(small_cfg());
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    let mut data = pattern(100_000, 21);
    put(&db, &rel, b"k", &data);
    let state_of = |db: &Arc<Database>| {
        let mut t = db.begin();
        let state = t.blob_state(&rel, b"k").unwrap().unwrap();
        t.commit().unwrap();
        state
    };
    let before = state_of(&db).extents;

    // One overwrite on both sides of the rule (a patch of at most half an
    // extent is delta-logged, a larger one clones the extent): it covers a
    // quarter of the 1-page extent, all of the 2-page one and two thirds
    // of the 4-page one.
    let patch = pattern(20_000, 22);
    let mut t = db.begin();
    t.update_blob(&rel, b"k", 3_000, &patch).unwrap();
    t.commit().unwrap();
    data[3_000..23_000].copy_from_slice(&patch);
    assert_eq!(get(&db, &rel, b"k"), data);

    let state = state_of(&db);
    assert_eq!(state.sha256, Sha256::digest(&data));
    assert_eq!(state.extents[0], before[0], "patched in place");
    assert_ne!(state.extents[1], before[1], "cloned");
    assert_ne!(state.extents[2], before[2], "cloned");
    assert_eq!(state.extents[3..], before[3..], "untouched");

    // Prefix must reflect an update at offset 0 too.
    let mut t = db.begin();
    t.update_blob(&rel, b"k", 0, b"XYZ").unwrap();
    t.commit().unwrap();
    assert_eq!(&state_of(&db).prefix[..3], b"XYZ");
}

#[test]
fn update_beyond_size_is_rejected() {
    let db = mem_db(small_cfg());
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    put(&db, &rel, b"k", &pattern(1000, 1));
    let mut t = db.begin();
    assert!(matches!(
        t.update_blob(&rel, b"k", 900, &[0u8; 200]),
        Err(Error::InvalidArgument(_))
    ));
    drop(t);
}

// ------------------------------------------------------- delete & reuse ---

#[test]
fn delete_recycles_extents() {
    let db = mem_db(small_cfg());
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    let data = pattern(500_000, 31);
    put(&db, &rel, b"a", &data);
    let used_after_one = db.allocator().pages_in_use();

    let mut t = db.begin();
    t.delete_blob(&rel, b"a").unwrap();
    t.commit().unwrap();

    // The same-size blob must reuse the freed extents exactly.
    put(&db, &rel, b"b", &data);
    assert_eq!(
        db.allocator().pages_in_use(),
        used_after_one,
        "free lists must recycle the deleted extents"
    );
    assert_eq!(get(&db, &rel, b"b"), data);
    let mut t = db.begin();
    assert!(t.blob_state(&rel, b"a").unwrap().is_none());
    t.commit().unwrap();
}

#[test]
fn churn_alloc_delete_stays_stable() {
    // Figure 11 in miniature: 80/20 alloc/delete churn at a fixed budget.
    let db = mem_db(small_cfg());
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    let mut live: Vec<String> = Vec::new();
    let mut next = 0u64;
    for round in 0..300 {
        if round % 5 == 4 && !live.is_empty() {
            let key = live.swap_remove((round * 7) % live.len());
            let mut t = db.begin();
            t.delete_blob(&rel, key.as_bytes()).unwrap();
            t.commit().unwrap();
        } else {
            let key = format!("obj{next}");
            next += 1;
            let size = 1000 + (round * 37) % 60_000;
            put(&db, &rel, key.as_bytes(), &pattern(size, next));
            live.push(key);
        }
    }
    // All survivors readable.
    for key in live.iter().take(20) {
        let mut t = db.begin();
        assert!(t.blob_state(&rel, key.as_bytes()).unwrap().is_some());
        t.commit().unwrap();
    }
}

// ---------------------------------------------------- transactions / 2PL ---

#[test]
fn abort_rolls_back_everything() {
    let db = mem_db(small_cfg());
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    put(&db, &rel, b"keep", &pattern(50_000, 41));
    let pages_before = db.allocator().pages_in_use();

    let mut t = db.begin();
    t.put_blob(&rel, b"new", &pattern(100_000, 42)).unwrap();
    t.delete_blob(&rel, b"keep").unwrap();
    t.abort();

    assert_eq!(db.allocator().pages_in_use(), pages_before);
    let mut t = db.begin();
    assert!(t.blob_state(&rel, b"new").unwrap().is_none());
    assert!(t.blob_state(&rel, b"keep").unwrap().is_some());
    t.commit().unwrap();
    assert_eq!(get(&db, &rel, b"keep"), pattern(50_000, 41));
}

#[test]
fn drop_without_commit_is_abort() {
    let db = mem_db(small_cfg());
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    {
        let mut t = db.begin();
        t.put_blob(&rel, b"x", b"data").unwrap();
        // dropped here
    }
    let mut t = db.begin();
    assert!(t.blob_state(&rel, b"x").unwrap().is_none());
    t.commit().unwrap();
    assert_eq!(db.metrics().snapshot().txn_aborts, 1);
}

#[test]
fn wait_die_aborts_younger_writer() {
    let db = mem_db(small_cfg());
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    put(&db, &rel, b"k", b"v");

    let mut older = db.begin();
    let mut younger = db.begin();
    // Older takes the exclusive lock first.
    older.delete_blob(&rel, b"k").unwrap();
    // Younger must die.
    assert!(matches!(
        younger.get_blob(&rel, b"k", |_| ()),
        Err(Error::TxnConflict)
    ));
    drop(younger);
    older.abort(); // release
}

#[test]
fn concurrent_readers_share() {
    let db = mem_db(small_cfg());
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    let data = pattern(200_000, 51);
    put(&db, &rel, b"k", &data);
    std::thread::scope(|s| {
        for w in 0..4 {
            let db = db.clone();
            let rel = rel.clone();
            let data = data.clone();
            s.spawn(move || {
                for _ in 0..20 {
                    let mut t = db.begin_with_worker(w);
                    t.get_blob(&rel, b"k", |b| assert_eq!(b, &data[..]))
                        .unwrap();
                    t.commit().unwrap();
                }
            });
        }
    });
}

#[test]
fn kv_relation_roundtrip() {
    let db = mem_db(small_cfg());
    let rel = db.create_relation("meta", RelationKind::Kv).unwrap();
    let mut t = db.begin();
    t.put_kv(&rel, b"a", b"1").unwrap();
    t.put_kv(&rel, b"b", b"2").unwrap();
    t.put_kv(&rel, b"a", b"1x").unwrap(); // overwrite
    t.commit().unwrap();

    let mut t = db.begin();
    assert_eq!(t.get_kv(&rel, b"a").unwrap(), Some(b"1x".to_vec()));
    assert!(t.delete_kv(&rel, b"b").unwrap());
    assert!(!t.delete_kv(&rel, b"b").unwrap());
    t.commit().unwrap();
}

// --------------------------------------------------- single-flush check ---

#[test]
fn blob_written_exactly_once() {
    // The headline property (§III-C): committing a BLOB writes its content
    // pages exactly once, and the WAL receives only the Blob State.
    let db = mem_db(small_cfg());
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    let size = 1_000_000usize;
    let before = db.metrics().snapshot();
    put(&db, &rel, b"k", &pattern(size, 61));
    let delta = db.metrics().snapshot() - before;

    let content_pages = (size as u64).div_ceil(4096);
    assert!(
        delta.pages_written <= content_pages + 4,
        "content must be written once: {} pages written for {} content pages",
        delta.pages_written,
        content_pages
    );
    assert!(
        delta.wal_bytes < 4096,
        "WAL must carry only the Blob State, got {} bytes",
        delta.wal_bytes
    );
    assert_eq!(delta.fsyncs, 1, "one group-commit fsync");
}

// -------------------------------------------------------------- recovery ---

fn reopen(
    dev: Arc<MemDevice>,
    wal: Arc<MemDevice>,
    cfg: Config,
) -> (Arc<Database>, lobster_core::RecoveryReport) {
    Database::open(dev, wal, cfg).unwrap()
}

#[test]
fn clean_shutdown_reopen() {
    let dev = Arc::new(MemDevice::new(128 << 20));
    let wal = Arc::new(MemDevice::new(32 << 20));
    let data = pattern(300_000, 81);
    {
        let db = Database::create(dev.clone(), wal.clone(), small_cfg()).unwrap();
        let rel = db.create_relation("b", RelationKind::Blob).unwrap();
        put(&db, &rel, b"k", &data);
        db.shutdown().unwrap();
    }
    let (db, report) = reopen(dev, wal, small_cfg());
    assert_eq!(report.records, 0, "clean shutdown leaves an empty log");
    let rel = db.relation("b").unwrap();
    assert_eq!(get(&db, &rel, b"k"), data);
    // And the database stays writable with correct allocation state.
    put(&db, &rel, b"k2", &pattern(10_000, 82));
}

#[test]
fn recovery_replays_committed_transactions() {
    let dev = Arc::new(MemDevice::new(128 << 20));
    let wal = Arc::new(MemDevice::new(32 << 20));
    let data = pattern(100_000, 91);
    {
        let db = Database::create(dev.clone(), wal.clone(), small_cfg()).unwrap();
        let rel = db.create_relation("b", RelationKind::Blob).unwrap();
        put(&db, &rel, b"committed", &data);
        // Uncommitted work is lost.
        let mut t = db.begin();
        t.put_blob(&rel, b"uncommitted", &pattern(5000, 92))
            .unwrap();
        std::mem::forget(t); // simulate crash: no commit, no rollback
                             // No shutdown: the B-Tree state was never checkpointed.
    }
    let (db, report) = reopen(dev, wal, small_cfg());
    assert!(report.committed >= 2); // DDL txn + blob txn
    let rel = db.relation("b").unwrap();
    assert_eq!(get(&db, &rel, b"committed"), data);
    let mut t = db.begin();
    assert!(t.blob_state(&rel, b"uncommitted").unwrap().is_none());
    t.commit().unwrap();
}

#[test]
fn recovery_detects_lost_blob_content_via_sha() {
    // The crash window the paper's protocol defends: WAL fsync succeeded
    // (Blob State durable) but the content never reached the device. A
    // group syncs its content before its records, so the window is
    // staged: the cut drops the content's write and acknowledges the sync
    // after it, and the log is read as an ordering that logged first left
    // it (`support::without_marks`).
    let raw = MemDevice::new(128 << 20);
    let crash_dev = Arc::new(CrashDevice::new(raw));
    let wal = Arc::new(MemDevice::new(32 << 20));
    let data = pattern(200_000, 101);
    let cfg = Config {
        commit_wait: false,
        ..small_cfg()
    };
    {
        let db = Database::create(crash_dev.clone(), wal.clone(), cfg.clone()).unwrap();
        let rel = db.create_relation("b", RelationKind::Blob).unwrap();
        put(&db, &rel, b"good", &data);
        db.checkpoint().unwrap();

        // The commit's content write is the first the cut drops; the WAL
        // (separate device) records the commit.
        crash_dev.arm_after_writes(0, 0);
        let mut t = db.begin();
        t.put_blob(&rel, b"lost", &pattern(100_000, 102)).unwrap();
        t.commit().unwrap();
        db.wait_for_durability().unwrap();
        assert!(crash_dev.has_crashed());
        std::mem::forget(db);
    }
    // Reopen against what physically survived.
    let survived = Arc::new({
        // Copy surviving bytes into a fresh device.
        let src = crash_dev.inner();
        let dst = MemDevice::new(128 << 20);
        let mut buf = vec![0u8; 1 << 20];
        let mut off = 0u64;
        while off < src.capacity() {
            let n = buf.len().min((src.capacity() - off) as usize);
            src.read_at(&mut buf[..n], off).unwrap();
            dst.write_at(&buf[..n], off).unwrap();
            off += n as u64;
        }
        dst
    });
    let (db, report) = Database::open(survived, support::without_marks(wal), cfg).unwrap();
    assert_eq!(report.sha_failures, 1, "lost blob must fail validation");
    let rel = db.relation("b").unwrap();
    let mut t = db.begin();
    assert!(
        t.blob_state(&rel, b"lost").unwrap().is_none(),
        "failed transaction must be undone"
    );
    t.commit().unwrap();
    assert_eq!(get(&db, &rel, b"good"), data, "checkpointed blob survives");
}

#[test]
fn recovery_applies_deltas_and_appends() {
    let dev = Arc::new(MemDevice::new(128 << 20));
    let wal = Arc::new(MemDevice::new(32 << 20));
    let mut data = pattern(50_000, 111);
    {
        let db = Database::create(dev.clone(), wal.clone(), small_cfg()).unwrap();
        let rel = db.create_relation("b", RelationKind::Blob).unwrap();
        put(&db, &rel, b"k", &data);
        db.checkpoint().unwrap();

        // 3 000 bytes inside the last extent's six pages: a delta.
        let mut t = db.begin();
        let placed = t.blob_state(&rel, b"k").unwrap().unwrap().extents;
        t.update_blob(&rel, b"k", 30_000, &[0xEEu8; 3000]).unwrap();
        assert_eq!(
            t.blob_state(&rel, b"k").unwrap().unwrap().extents,
            placed,
            "a cloned extent would leave no delta to replay"
        );
        t.commit().unwrap();
        let extra = pattern(20_000, 112);
        let mut t = db.begin();
        t.append_blob(&rel, b"k", &extra).unwrap();
        t.commit().unwrap();
        data[30_000..33_000].fill(0xEE);
        data.extend_from_slice(&extra);
        std::mem::forget(db); // crash without checkpoint
    }
    let (db, _) = reopen(dev, wal, small_cfg());
    let rel = db.relation("b").unwrap();
    assert_eq!(get(&db, &rel, b"k"), data);
}

#[test]
fn checkpoint_truncates_log_and_database_remains_usable() {
    let mut cfg = small_cfg();
    // Asynchronous BLOB logging keeps the WAL tiny (Blob States only), so
    // force checkpoints with a very low threshold.
    cfg.checkpoint_threshold = 4 * 1024;
    let db = mem_db(cfg);
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    for i in 0..50 {
        put(&db, &rel, format!("k{i}").as_bytes(), &pattern(10_000, i));
    }
    let ckpts = db.metrics().snapshot().checkpoints;
    assert!(ckpts > 0, "threshold must have triggered checkpoints");
    for i in (0..50).step_by(7) {
        assert_eq!(
            get(&db, &rel, format!("k{i}").as_bytes()),
            pattern(10_000, i)
        );
    }
}

// ------------------------------------------------------- ht pool variant ---

#[test]
fn hash_table_pool_variant_works() {
    let mut cfg = small_cfg();
    cfg.pool_variant = PoolVariant::Ht;
    let db = mem_db(cfg);
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    let data = pattern(300_000, 131);
    put(&db, &rel, b"k", &data);
    assert_eq!(get(&db, &rel, b"k"), data);
    // Reads through the hash-table pool must copy.
    let before = db.metrics().snapshot();
    let _ = get(&db, &rel, b"k");
    let delta = db.metrics().snapshot() - before;
    assert!(delta.memcpy_bytes >= data.len() as u64);
}

// --------------------------------------------------------------- indexes ---

#[test]
fn blob_state_index_orders_by_content() {
    let db = mem_db(small_cfg());
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    // Contents that share a long prefix (forcing incremental comparison).
    let mut contents: Vec<Vec<u8>> = Vec::new();
    for i in 0..20u8 {
        let mut c = vec![b'P'; 40_000];
        c.extend_from_slice(&[i; 1000]);
        contents.push(c);
    }
    let mut t = db.begin();
    for (i, c) in contents.iter().enumerate() {
        t.put_blob(&rel, format!("row{i}").as_bytes(), c).unwrap();
    }
    t.commit().unwrap();

    // Build the Blob State index: key = encoded state, value = row key.
    let cmp = BlobStateCmp::new(&db);
    let index = db
        .create_relation_with("b_content_idx", RelationKind::Kv, cmp, 1)
        .unwrap();
    let mut t = db.begin();
    for (i, _) in contents.iter().enumerate() {
        let key = format!("row{i}");
        let state = t.blob_state(&rel, key.as_bytes()).unwrap().unwrap();
        index
            .tree
            .insert(&state.encode(), key.as_bytes(), false)
            .unwrap();
    }
    t.commit().unwrap();

    // Point query through the index: probe with a state for known content.
    let mut t = db.begin();
    let probe = t.blob_state(&rel, b"row7").unwrap().unwrap();
    let row = index.tree.lookup(&probe.encode()).unwrap();
    t.commit().unwrap();
    assert_eq!(row, Some(b"row7".to_vec()));

    // Order must follow content order (contents sorted by their suffix).
    let mut rows = Vec::new();
    index
        .tree
        .for_each(|_, v| {
            rows.push(String::from_utf8(v.to_vec()).unwrap());
            true
        })
        .unwrap();
    let expect: Vec<String> = (0..20).map(|i| format!("row{i}")).collect();
    assert_eq!(rows, expect, "index order must equal content order");
}

#[test]
fn expression_index_semantic_queries() {
    let db = mem_db(small_cfg());
    let rel = db.create_relation("image", RelationKind::Blob).unwrap();
    // "classify" UDF: first byte decides the class.
    let classify: lobster_core::Udf = Arc::new(|content: &[u8]| {
        if content.first() == Some(&b'c') {
            b"cat".to_vec()
        } else {
            b"dog".to_vec()
        }
    });
    let index = ExpressionIndex::create(&db, &rel, "classify", classify).unwrap();

    let mut t = db.begin();
    for (key, content) in [
        (&b"img1"[..], &b"cat picture"[..]),
        (b"img2", b"dog picture"),
        (b"img3", b"cat again"),
    ] {
        t.put_blob(&rel, key, content).unwrap();
        index.insert(&mut t, &rel, key).unwrap();
    }
    t.commit().unwrap();

    let cats = index.scan_eq(b"cat").unwrap();
    assert_eq!(cats, vec![b"img1".to_vec(), b"img3".to_vec()]);
    let dogs = index.scan_eq(b"dog").unwrap();
    assert_eq!(dogs, vec![b"img2".to_vec()]);
    assert!(index.scan_eq(b"bird").unwrap().is_empty());
}

// ----------------------------------------------------------- metadata ops ---

#[test]
fn scan_states_visits_in_key_order() {
    let db = mem_db(small_cfg());
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    for i in 0..30 {
        put(&db, &rel, format!("f{i:03}").as_bytes(), &pattern(2000, i));
    }
    let mut t = db.begin();
    let mut seen = Vec::new();
    t.scan_states(&rel, b"f010", |k, state| {
        assert_eq!(state.size, 2000);
        seen.push(String::from_utf8(k.to_vec()).unwrap());
        seen.len() < 10
    })
    .unwrap();
    t.commit().unwrap();
    assert_eq!(seen.len(), 10);
    assert_eq!(seen[0], "f010");
    assert_eq!(seen[9], "f019");
    assert!(db.metrics().snapshot().metadata_ops >= 1);
}

// --------------------------------------------------------- misc plumbing ---

#[test]
fn utilization_reflects_stored_bytes() {
    let db = mem_db(small_cfg());
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    let u0 = db.utilization();
    put(&db, &rel, b"k", &pattern(4 << 20, 141));
    assert!(db.utilization() > u0);
}

#[test]
fn async_commit_mode_is_equivalent_after_drain() {
    let mut cfg = small_cfg();
    cfg.commit_wait = false;
    let dev = Arc::new(MemDevice::new(128 << 20));
    let wal = Arc::new(MemDevice::new(32 << 20));
    let data: Vec<Vec<u8>> = (0..20)
        .map(|i| pattern(20_000 + i * 777, i as u64))
        .collect();
    {
        let db = Database::create(dev.clone(), wal.clone(), cfg.clone()).unwrap();
        let rel = db.create_relation("b", RelationKind::Blob).unwrap();
        for (i, d) in data.iter().enumerate() {
            let mut t = db.begin();
            t.put_blob(&rel, format!("k{i}").as_bytes(), d).unwrap();
            t.commit().unwrap(); // returns before durability
        }
        // Deletes and re-inserts also ride the committer.
        let mut t = db.begin();
        t.delete_blob(&rel, b"k3").unwrap();
        t.commit().unwrap();
        // Reads see all async-committed writes immediately.
        let mut t = db.begin();
        assert_eq!(t.get_blob(&rel, b"k5", |b| b.to_vec()).unwrap(), data[5]);
        assert!(t.blob_state(&rel, b"k3").unwrap().is_none());
        t.commit().unwrap();
        db.wait_for_durability().unwrap();
        std::mem::forget(db); // crash after drain: everything must survive
    }
    let (db, _) = Database::open(dev, wal, cfg).unwrap();
    let rel = db.relation("b").unwrap();
    let mut t = db.begin();
    for (i, d) in data.iter().enumerate() {
        if i == 3 {
            assert!(t.blob_state(&rel, b"k3").unwrap().is_none());
        } else {
            assert_eq!(
                t.get_blob(&rel, format!("k{i}").as_bytes(), |b| b.to_vec())
                    .unwrap(),
                *d,
                "blob {i}"
            );
        }
    }
    t.commit().unwrap();
}

#[test]
fn metrics_track_txn_outcomes() {
    let db = mem_db(small_cfg());
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    put(&db, &rel, b"k", &pattern(1000, 1)); // big enough to need an extent
    let t: Txn = db.begin();
    t.abort();
    let s = db.metrics().snapshot();
    assert!(s.txn_commits >= 1);
    assert!(s.txn_aborts >= 1);
    assert!(db.metrics().extent_allocs.load(AtomicOrdering::Relaxed) >= 1);
}

// ------------------------------------------------------------------ DDL ---

#[test]
fn drop_relation_recycles_all_storage() {
    let db = mem_db(small_cfg());
    let rel = db.create_relation("victim", RelationKind::Blob).unwrap();
    let keep = db.create_relation("keep", RelationKind::Blob).unwrap();
    for i in 0..20 {
        put(&db, &rel, format!("k{i}").as_bytes(), &pattern(40_000, i));
        put(
            &db,
            &keep,
            format!("k{i}").as_bytes(),
            &pattern(10_000, 100 + i),
        );
    }
    let used_before = db.utilization();

    db.drop_relation("victim").unwrap();
    assert!(db.relation("victim").is_none());
    assert!(db.relation_names().iter().all(|n| n != "victim"));
    assert!(db.drop_relation("victim").is_err(), "double drop");
    // The space returns with the next checkpoint.
    db.checkpoint().unwrap();
    assert!(
        db.utilization() < used_before,
        "dropping must return space: {} -> {}",
        used_before,
        db.utilization()
    );

    // The name is immediately reusable, and the freed extents are
    // recyclable without clashing with the survivor.
    let rel2 = db.create_relation("victim", RelationKind::Blob).unwrap();
    for i in 0..20 {
        put(
            &db,
            &rel2,
            format!("n{i}").as_bytes(),
            &pattern(40_000, 500 + i),
        );
    }
    for i in 0..20 {
        assert_eq!(
            get(&db, &keep, format!("k{i}").as_bytes()),
            pattern(10_000, 100 + i),
            "survivor blob {i} intact"
        );
        assert_eq!(
            get(&db, &rel2, format!("n{i}").as_bytes()),
            pattern(40_000, 500 + i)
        );
    }
}

#[test]
fn drop_relation_survives_recovery() {
    let dev = Arc::new(MemDevice::new(256 << 20));
    let wal = Arc::new(MemDevice::new(64 << 20));
    {
        let db = Database::create(dev.clone(), wal.clone(), small_cfg()).unwrap();
        let gone = db.create_relation("gone", RelationKind::Blob).unwrap();
        let keep = db.create_relation("keep", RelationKind::Kv).unwrap();
        put(&db, &gone, b"blob", &pattern(100_000, 3));
        let mut t = db.begin();
        t.put_kv(&keep, b"row", b"value").unwrap();
        t.commit().unwrap();
        db.drop_relation("gone").unwrap();
        db.wait_for_durability().unwrap();
        std::mem::forget(db); // crash after the drop committed
    }
    let (db, _) = Database::open(dev.clone(), wal.clone(), small_cfg()).unwrap();
    assert!(
        db.relation("gone").is_none(),
        "dropped relation must stay dropped"
    );
    assert!(db.audit_allocator().unwrap().is_exact());
    let keep = db.relation("keep").unwrap();
    let mut t = db.begin();
    assert_eq!(t.get_kv(&keep, b"row").unwrap().unwrap(), b"value");
    t.commit().unwrap();

    // The reclaimed space is allocatable after recovery.
    let again = db.create_relation("gone", RelationKind::Blob).unwrap();
    put(&db, &again, b"fresh", &pattern(200_000, 9));
    assert_eq!(get(&db, &again, b"fresh"), pattern(200_000, 9));
}

/// A relation the last checkpoint holds, dropped in the log tail after its
/// pages were partly recycled: the open walks the dropped tree once and
/// frees what the recycling did not take; everything else stays put.
#[test]
fn drop_of_a_checkpointed_relation_is_freed_by_recovery() {
    let dev = Arc::new(MemDevice::new(256 << 20));
    let wal = Arc::new(MemDevice::new(64 << 20));
    {
        let db = Database::create(dev.clone(), wal.clone(), small_cfg()).unwrap();
        let gone = db.create_relation("gone", RelationKind::Blob).unwrap();
        let keep = db.create_relation("keep", RelationKind::Blob).unwrap();
        for i in 0..6u8 {
            put(&db, &gone, &[i], &pattern(30_000, i.into()));
            put(&db, &keep, &[i], &pattern(20_000, 50 + u64::from(i)));
        }
        db.checkpoint().unwrap();
        db.drop_relation("gone").unwrap();
        put(&db, &keep, b"after", &pattern(90_000, 99));
        db.wait_for_durability().unwrap();
        std::mem::forget(db); // crash after the drop committed
    }
    let (db, report) = Database::open(dev.clone(), wal.clone(), small_cfg()).unwrap();
    assert!(db.relation("gone").is_none());
    assert!(
        report.index_nodes >= 1,
        "the dropped tree is walked: {report:?}"
    );
    let audit = db.audit_allocator().unwrap();
    assert!(audit.is_exact(), "{audit:?}");
    let keep = db.relation("keep").unwrap();
    for i in 0..6u8 {
        assert_eq!(get(&db, &keep, &[i]), pattern(20_000, 50 + u64::from(i)));
    }
    assert_eq!(get(&db, &keep, b"after"), pattern(90_000, 99));
}

#[test]
fn drop_kv_relation() {
    let db = mem_db(small_cfg());
    let rel = db.create_relation("rows", RelationKind::Kv).unwrap();
    let mut t = db.begin();
    for i in 0..100 {
        t.put_kv(&rel, format!("k{i}").as_bytes(), &[i as u8; 50])
            .unwrap();
    }
    t.commit().unwrap();
    db.drop_relation("rows").unwrap();
    assert!(db.relation("rows").is_none());
    assert!(db.drop_relation("never-existed").is_err());
}

// ---------------------------------------------------------------- scrub ---

#[test]
fn scrub_detects_silent_corruption() {
    let dev = Arc::new(MemDevice::new(256 << 20));
    let wal = Arc::new(MemDevice::new(64 << 20));
    let db = Database::create(dev.clone(), wal, small_cfg()).unwrap();
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    for i in 0..10u64 {
        put(
            &db,
            &rel,
            format!("k{i}").as_bytes(),
            &pattern(50_000 + i as usize, i),
        );
    }
    db.wait_for_durability().unwrap();

    let clean = db.scrub().unwrap();
    assert!(clean.is_clean());
    assert_eq!(clean.blobs, 10);
    assert!(clean.bytes >= 500_000);

    // Flip one byte of k3's content directly on the device (bit rot).
    let mut t = db.begin();
    let state = t.blob_state(&rel, b"k3").unwrap().unwrap();
    t.commit().unwrap();
    let victim_pid = state.extents[0];
    let off = db.geometry().offset_of(victim_pid) + 100;
    let mut b = [0u8; 1];
    dev.read_at(&mut b, off).unwrap();
    b[0] ^= 0x40;
    dev.write_at(&b, off).unwrap();
    // Drop caches so the scrub reads the rotten device bytes.
    db.blob_pool().drop_caches();

    let dirty = db.scrub().unwrap();
    assert_eq!(dirty.corrupt.len(), 1, "exactly the damaged blob");
    assert_eq!(dirty.corrupt[0].0, "b");
    assert_eq!(dirty.corrupt[0].1, b"k3");

    // Repair and re-verify.
    dev.read_at(&mut b, off).unwrap();
    b[0] ^= 0x40;
    dev.write_at(&b, off).unwrap();
    db.blob_pool().drop_caches();
    assert!(db.scrub().unwrap().is_clean());
}

#[test]
fn scrub_skips_kv_relations_and_counts_empty_blobs() {
    let db = mem_db(small_cfg());
    let blobs = db.create_relation("b", RelationKind::Blob).unwrap();
    let rows = db.create_relation("r", RelationKind::Kv).unwrap();
    put(&db, &blobs, b"empty", b"");
    let mut t = db.begin();
    t.put_kv(&rows, b"k", b"v").unwrap();
    t.commit().unwrap();

    let rep = db.scrub().unwrap();
    assert!(rep.is_clean());
    assert_eq!(rep.blobs, 1);
    assert_eq!(rep.bytes, 0);
}

#[test]
fn range_read_touches_only_covering_extents() {
    let db = mem_db(small_cfg());
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    let data = pattern(8 << 20, 5); // 2048 pages across ~11 extents
    put(&db, &rel, b"big", &data);
    db.wait_for_durability().unwrap();
    db.blob_pool().drop_caches();

    // A 4 KiB pread deep inside the BLOB must not load the whole BLOB.
    let before = db.metrics().pages_read.load(AtomicOrdering::Relaxed);
    let mut t = db.begin();
    let mut buf = vec![0u8; 4096];
    let off = 5 << 20;
    let n = t.get_blob_range(&rel, b"big", off, &mut buf).unwrap();
    t.commit().unwrap();
    assert_eq!(n, 4096);
    assert_eq!(&buf, &data[off as usize..off as usize + 4096]);
    let loaded = db.metrics().pages_read.load(AtomicOrdering::Relaxed) - before;
    assert!(
        loaded < 1500,
        "4 KiB pread loaded {loaded} pages (whole blob would be ~2048)"
    );

    // Correctness across every extent boundary (tier sizes 1,2,4,8,...).
    let mut t = db.begin();
    let mut edge = 0u64;
    for pages in [1u64, 2, 4, 8, 16, 32, 64, 128, 256, 512] {
        edge += pages * 4096;
        if edge + 64 > data.len() as u64 {
            break;
        }
        let mut b = vec![0u8; 128];
        let start = edge - 64;
        let n = t.get_blob_range(&rel, b"big", start, &mut b).unwrap();
        assert_eq!(n, 128);
        assert_eq!(
            &b,
            &data[start as usize..start as usize + 128],
            "boundary at {edge}"
        );
    }
    t.commit().unwrap();
}

#[test]
fn append_reads_only_the_final_partial_block() {
    let db = mem_db(small_cfg());
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    // 4 MiB + 17 bytes: append must reread only the 17-byte tail block.
    let mut data = pattern((4 << 20) + 17, 6);
    put(&db, &rel, b"k", &data);
    db.wait_for_durability().unwrap();
    db.blob_pool().drop_caches();

    let before = db.metrics().pages_read.load(AtomicOrdering::Relaxed);
    let extra = pattern(100, 7);
    let mut t = db.begin();
    t.append_blob(&rel, b"k", &extra).unwrap();
    t.commit().unwrap();
    data.extend_from_slice(&extra);
    let loaded = db.metrics().pages_read.load(AtomicOrdering::Relaxed) - before;
    assert!(
        loaded <= 8,
        "append reloaded {loaded} pages; only the final partial block and the \
         partially filled growth pages should load"
    );
    assert_eq!(get(&db, &rel, b"k"), data);
    let mut t = db.begin();
    let state = t.blob_state(&rel, b"k").unwrap().unwrap();
    t.commit().unwrap();
    assert_eq!(state.sha256, Sha256::digest(&data));
}

// ----------------------------------------------------- auto checkpointing ---

#[test]
fn wal_growth_triggers_automatic_checkpoint() {
    let mut cfg = small_cfg();
    cfg.checkpoint_threshold = 16 << 10; // 16 KiB: a few dozen commits
    let db = mem_db(cfg);
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();

    let ckpts_before = db.metrics().checkpoints.load(AtomicOrdering::Relaxed);
    // Each commit logs a few hundred bytes; hundreds of commits must cross
    // the threshold repeatedly.
    for i in 0..400u64 {
        let mut t = db.begin();
        t.put_blob(&rel, &i.to_be_bytes(), &pattern(2000, i))
            .unwrap();
        t.commit().unwrap();
    }
    db.wait_for_durability().unwrap();
    let ckpts = db.metrics().checkpoints.load(AtomicOrdering::Relaxed) - ckpts_before;
    assert!(
        ckpts >= 2,
        "expected repeated auto-checkpoints, got {ckpts}"
    );
    assert!(
        db.wal().active_bytes() < (16 << 10) * 2,
        "the log must stay near the threshold, not grow without bound"
    );

    // Everything survives a crash right after heavy checkpointing.
    let dev = db.device();
    let wal_rec: Vec<_> = db.wal().read_all().unwrap();
    let _ = wal_rec;
    db.wait_for_durability().unwrap();
    std::mem::forget(db);
    // NOTE: mem_db's WAL device is not retrievable here; correctness of
    // checkpoint+recovery interplay is covered by crash_sweep/crash_fuzz.
    drop(dev);
}

#[test]
fn header_reads_are_served_from_the_blob_state() {
    let db = mem_db(small_cfg());
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    let data = pattern(2 << 20, 13);
    put(&db, &rel, b"file.png", &data);
    db.wait_for_durability().unwrap();
    db.blob_pool().drop_caches();

    // MIME sniffing: the first bytes come from the Blob State; no content
    // page is touched even on a fully cold cache.
    let before = db.metrics().pages_read.load(AtomicOrdering::Relaxed);
    let mut t = db.begin();
    let mut magic = [0u8; 16];
    assert_eq!(
        t.get_blob_range(&rel, b"file.png", 0, &mut magic).unwrap(),
        16
    );
    let mut mid = [0u8; 8];
    assert_eq!(
        t.get_blob_range(&rel, b"file.png", 24, &mut mid).unwrap(),
        8
    );
    t.commit().unwrap();
    assert_eq!(&magic, &data[..16]);
    assert_eq!(&mid, &data[24..32]);
    assert_eq!(
        db.metrics().pages_read.load(AtomicOrdering::Relaxed),
        before,
        "prefix reads must cost zero content I/O"
    );

    // A read straddling the 32-byte boundary falls through to content.
    let mut t = db.begin();
    let mut buf = [0u8; 40];
    assert_eq!(
        t.get_blob_range(&rel, b"file.png", 10, &mut buf).unwrap(),
        40
    );
    t.commit().unwrap();
    assert_eq!(&buf, &data[10..50]);

    // The prefix stays correct through overwrites of the header.
    let mut t = db.begin();
    t.update_blob(&rel, b"file.png", 0, b"NEWMAGIC").unwrap();
    t.commit().unwrap();
    let mut t = db.begin();
    let mut magic = [0u8; 8];
    t.get_blob_range(&rel, b"file.png", 0, &mut magic).unwrap();
    t.commit().unwrap();
    assert_eq!(&magic, b"NEWMAGIC");
}

// ---------------------------------------------------------- space hygiene ---

#[test]
fn churn_does_not_leak_space() {
    let db = mem_db(small_cfg());
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();

    // Baseline after one full put+delete round.
    for i in 0..30u64 {
        put(&db, &rel, &i.to_be_bytes(), &pattern(64_000, i));
    }
    for i in 0..30u64 {
        let mut t = db.begin();
        t.delete_blob(&rel, &i.to_be_bytes()).unwrap();
        t.commit().unwrap();
    }
    db.wait_for_durability().unwrap();
    let baseline = db.utilization();

    // 10 more rounds of identical churn must not grow the footprint: every
    // freed extent merges back into the free runs the next round takes.
    for round in 0..10u64 {
        for i in 0..30u64 {
            put(
                &db,
                &rel,
                &i.to_be_bytes(),
                &pattern(64_000, round * 100 + i),
            );
        }
        for i in 0..30u64 {
            let mut t = db.begin();
            t.delete_blob(&rel, &i.to_be_bytes()).unwrap();
            t.commit().unwrap();
        }
    }
    db.wait_for_durability().unwrap();
    assert!(
        db.utilization() <= baseline * 1.05 + 0.01,
        "space leaked: {} -> {}",
        baseline,
        db.utilization()
    );
}

#[test]
fn repeated_reopen_cycles_are_stable() {
    let dev = Arc::new(MemDevice::new(256 << 20));
    let wal = Arc::new(MemDevice::new(32 << 20));
    {
        let db = Database::create(dev.clone(), wal.clone(), small_cfg()).unwrap();
        db.create_relation("b", RelationKind::Blob).unwrap();
        db.shutdown().unwrap();
    }
    let mut last_util = None;
    for cycle in 0..12u64 {
        let (db, _) = Database::open(dev.clone(), wal.clone(), small_cfg()).unwrap();
        let rel = db.relation("b").unwrap();
        // Replace one blob per cycle; read the survivor of the last cycle.
        if cycle > 0 {
            let mut t = db.begin();
            let got = t.get_blob(&rel, b"survivor", |b| b.to_vec()).unwrap();
            assert_eq!(got, pattern(90_000, cycle - 1), "cycle {cycle}");
            t.delete_blob(&rel, b"survivor").unwrap();
            t.commit().unwrap();
        }
        put(&db, &rel, b"survivor", &pattern(90_000, cycle));
        // Alternate clean and dirty shutdowns.
        if cycle % 2 == 0 {
            db.shutdown().unwrap();
        } else {
            db.wait_for_durability().unwrap();
            std::mem::forget(db.clone());
        }
        let util = db.utilization();
        if let Some(prev) = last_util {
            assert!(
                util <= prev + 0.02,
                "cycle {cycle}: utilization creeping {prev} -> {util}"
            );
        }
        last_util = Some(util);
        drop(db);
    }
}

// ----------------------------------------------------------- inline blobs ---

#[test]
fn tiny_blobs_are_fully_inline() {
    let db = mem_db(small_cfg());
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    let allocs_before = db.metrics().extent_allocs.load(AtomicOrdering::Relaxed);

    for (i, size) in [0usize, 1, 16, 31, 32].iter().enumerate() {
        let key = format!("t{i}");
        let data = pattern(*size, i as u64);
        put(&db, &rel, key.as_bytes(), &data);
        assert_eq!(get(&db, &rel, key.as_bytes()), data, "size {size}");
        let mut t = db.begin();
        let state = t.blob_state(&rel, key.as_bytes()).unwrap().unwrap();
        t.commit().unwrap();
        assert!(state.extents.is_empty(), "size {size} must be inline");
        assert!(state.tail.is_none());
        assert_eq!(state.sha256, Sha256::digest(&data));
    }
    assert_eq!(
        db.metrics().extent_allocs.load(AtomicOrdering::Relaxed),
        allocs_before,
        "inline blobs must not allocate extents"
    );

    // 33 bytes crosses the bound and gets an extent.
    put(&db, &rel, b"big", &pattern(33, 99));
    let mut t = db.begin();
    let state = t.blob_state(&rel, b"big").unwrap().unwrap();
    t.commit().unwrap();
    assert_eq!(state.extents.len(), 1);
}

#[test]
fn inline_blob_lifecycle_appends_updates_truncates() {
    let db = mem_db(small_cfg());
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    let mut oracle = pattern(10, 1);
    put(&db, &rel, b"k", &oracle);

    // Inline-to-inline append.
    let mut t = db.begin();
    t.append_blob(&rel, b"k", &pattern(12, 2)).unwrap();
    t.commit().unwrap();
    oracle.extend_from_slice(&pattern(12, 2));
    assert_eq!(get(&db, &rel, b"k"), oracle);

    // Inline update in place.
    let mut t = db.begin();
    t.update_blob(&rel, b"k", 4, b"XYZ").unwrap();
    t.commit().unwrap();
    oracle[4..7].copy_from_slice(b"XYZ");
    assert_eq!(get(&db, &rel, b"k"), oracle);

    // Append crossing the inline bound materializes extents.
    let extra = pattern(100_000, 3);
    let mut t = db.begin();
    t.append_blob(&rel, b"k", &extra).unwrap();
    t.commit().unwrap();
    oracle.extend_from_slice(&extra);
    assert_eq!(get(&db, &rel, b"k"), oracle);
    let mut t = db.begin();
    let state = t.blob_state(&rel, b"k").unwrap().unwrap();
    assert!(!state.extents.is_empty());
    assert_eq!(state.sha256, Sha256::digest(&oracle));
    t.commit().unwrap();

    // Truncating back below the bound keeps content correct (the kept
    // tier prefix remains; that is an implementation detail).
    let mut t = db.begin();
    t.truncate_blob(&rel, b"k", 20).unwrap();
    t.commit().unwrap();
    oracle.truncate(20);
    assert_eq!(get(&db, &rel, b"k"), oracle);
}

#[test]
fn inline_blobs_survive_recovery_and_scrub() {
    let dev = Arc::new(MemDevice::new(128 << 20));
    let wal = Arc::new(MemDevice::new(32 << 20));
    {
        let db = Database::create(dev.clone(), wal.clone(), small_cfg()).unwrap();
        let rel = db.create_relation("b", RelationKind::Blob).unwrap();
        put(&db, &rel, b"tiny", b"hello inline world");
        put(&db, &rel, b"big", &pattern(50_000, 7));
        db.wait_for_durability().unwrap();
        std::mem::forget(db); // crash: tiny must ride the WAL alone
    }
    let (db, report) = Database::open(dev, wal, small_cfg()).unwrap();
    assert_eq!(report.sha_failures, 0);
    let rel = db.relation("b").unwrap();
    assert_eq!(get(&db, &rel, b"tiny"), b"hello inline world");
    assert!(db.scrub().unwrap().is_clean());
}
