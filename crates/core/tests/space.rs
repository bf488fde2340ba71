//! Space accounting: a put of known size allocates exactly the pages its
//! content needs — the largest tier prefix plus one exact tail extent —
//! on one shard or several, and a reopen, which rebuilds each allocator
//! from the extents its trees and Blob States name, counts the same pages.
//! A BLOB that grows climbs the tier ladder instead and clones a tail at
//! most once.

use lobster_core::{Config, Database, RelationKind, ShardDevices, ShardedDatabase};
use lobster_storage::{Device, MemDevice};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;

const MIB: usize = 1 << 20;
/// Live BLOBs the churn keeps: each put past this deletes the oldest.
const LIVE: usize = 6;
const PUTS: u32 = 20;

fn cfg() -> Config {
    Config {
        pool_frames: 4096, // 16 MiB
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

/// Pages the B-Trees of `db` hold: what the allocator holds besides content.
fn node_pages(db: &Database) -> u64 {
    (db.relation_names().iter())
        .map(|name| {
            let tree = &db.relation(name).unwrap().tree;
            tree.stats().unwrap().nodes * tree.node_pages()
        })
        .sum()
}

/// Uniform put / delete-oldest churn. After every quiesce, each shard's
/// allocator holds its trees' nodes, the catalog's, and exactly
/// Σ `pages_for(size)` of its live BLOBs; after a reopen, the same.
fn churn_allocates_exactly_the_content(shards: usize, size: usize) {
    let parts: Vec<(Arc<dyn Device>, Arc<dyn Device>)> = (0..shards)
        .map(|_| {
            let data: Arc<dyn Device> = Arc::new(MemDevice::new(64 << 20));
            let wal: Arc<dyn Device> = Arc::new(MemDevice::new(32 << 20));
            (data, wal)
        })
        .collect();
    let devices = || {
        (parts.iter())
            .map(|(data, wal)| ShardDevices {
                data: data.clone(),
                wal: wal.clone(),
            })
            .collect::<Vec<_>>()
    };
    let sdb = ShardedDatabase::create(devices(), cfg()).unwrap();
    let rel = sdb.create_relation("b", RelationKind::Blob).unwrap();
    // Everything but content and relation nodes: the catalog tree.
    let catalog: Vec<u64> = (sdb.shards().iter())
        .map(|db| db.allocator().pages_in_use() - node_pages(db))
        .collect();
    let content_pages = sdb.shards()[0].geometry().pages_for(size as u64);
    let expected = |live: &VecDeque<u32>| -> Vec<u64> {
        (0..shards)
            .map(|shard| {
                let blobs = (live.iter())
                    .filter(|key| sdb.shard_for_key(&key.to_be_bytes()) == shard)
                    .count() as u64;
                catalog[shard] + node_pages(&sdb.shards()[shard]) + blobs * content_pages
            })
            .collect()
    };
    let in_use = |sdb: &ShardedDatabase| -> Vec<u64> {
        (sdb.shards().iter())
            .map(|db| db.allocator().pages_in_use())
            .collect()
    };

    let mut live = VecDeque::new();
    for key in 0..PUTS {
        let mut t = sdb.begin();
        t.put_blob(&rel, &key.to_be_bytes(), &pattern(size, key as u64))
            .unwrap();
        t.commit().unwrap();
        live.push_back(key);
        if live.len() > LIVE {
            let oldest = live.pop_front().unwrap();
            let mut t = sdb.begin();
            t.delete_blob(&rel, &oldest.to_be_bytes()).unwrap();
            t.commit().unwrap();
        }
        sdb.wait_for_durability().unwrap();
        assert_eq!(in_use(&sdb), expected(&live), "after put {key}");
    }
    let before = in_use(&sdb);
    drop(sdb); // no checkpoint: the allocators rebuild from the trees

    let (sdb, _) = ShardedDatabase::open(devices(), cfg()).unwrap();
    assert_eq!(in_use(&sdb), before, "a reopen counts the same pages");
    let rel = sdb.relation("b").unwrap();
    let mut t = sdb.begin();
    for &key in &live {
        let want = pattern(size, key as u64);
        assert!(t.get_blob(&rel, &key.to_be_bytes(), |b| b == want).unwrap());
    }
    t.commit().unwrap();
}

#[test]
fn one_mib_churn_on_one_shard_allocates_one_page_per_content_page() {
    churn_allocates_exactly_the_content(1, MIB);
}

#[test]
fn one_mib_churn_on_two_shards_allocates_one_page_per_content_page() {
    churn_allocates_exactly_the_content(2, MIB);
}

#[test]
fn hundred_kib_churn_on_one_shard_allocates_one_page_per_content_page() {
    churn_allocates_exactly_the_content(1, 100 * 1024);
}

#[test]
fn hundred_kib_churn_on_two_shards_allocates_one_page_per_content_page() {
    churn_allocates_exactly_the_content(2, 100 * 1024);
}

/// A 1 MiB put takes its 256 content pages: eight tiers (255 pages) and a
/// one-page tail, where the tier formula alone would take 511.
#[test]
fn a_one_mib_put_allocates_its_256_content_pages() {
    let db = Database::create(
        Arc::new(MemDevice::new(64 << 20)),
        Arc::new(MemDevice::new(32 << 20)),
        cfg(),
    )
    .unwrap();
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    let base = db.allocator().pages_in_use();
    let mut t = db.begin();
    t.put_blob(&rel, b"k", &pattern(MIB, 1)).unwrap();
    let state = t.blob_state(&rel, b"k").unwrap().unwrap();
    t.commit().unwrap();
    assert_eq!(state.extents.len(), 8);
    assert_eq!(state.tail.map(|(_, pages)| pages), Some(1));
    let per_content_page = (db.allocator().pages_in_use() - base) as f64 / 256.0;
    assert_eq!(per_content_page, 1.0);
}

/// A BLOB built by growth has no tail after its first append, and its
/// second append allocates no clone — only the tier extents growth needs.
/// Growth keeps the tier ladder's slack, and a reopen counts it the same.
#[test]
fn an_append_built_blob_clones_its_tail_once() {
    let data: Arc<dyn Device> = Arc::new(MemDevice::new(64 << 20));
    let wal: Arc<dyn Device> = Arc::new(MemDevice::new(32 << 20));
    let db = Database::create(data.clone(), wal.clone(), cfg()).unwrap();
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    let base = db.allocator().pages_in_use() - node_pages(&db);
    let allocs = || db.metrics().extent_allocs.load(Ordering::Relaxed);
    let state = || {
        let mut t = db.begin();
        let state = t.blob_state(&rel, b"k").unwrap().unwrap();
        t.commit().unwrap();
        state
    };
    let append = |len: usize, seed: u64| {
        let mut t = db.begin();
        t.append_blob(&rel, b"k", &pattern(len, seed)).unwrap();
        t.commit().unwrap();
    };

    // 100 KiB = 25 pages: tiers 1 + 2 + 4 + 8 and a 10-page tail.
    let mut t = db.begin();
    t.put_blob(&rel, b"k", &pattern(100 * 1024, 1)).unwrap();
    t.commit().unwrap();
    assert_eq!(state().tail.map(|(_, pages)| pages), Some(10));

    // To 50 pages: the tail becomes the 16-page tier at position 4, and
    // the 32-page tier at position 5 is added. No tail is planned.
    let before = allocs();
    append(100 * 1024, 2);
    let grown = state();
    assert_eq!((grown.extents.len(), grown.tail), (6, None));
    assert_eq!(allocs() - before, 2, "one clone, one tier");

    // To 75 pages: only the 64-page tier at position 6 is new.
    let before = allocs();
    append(100 * 1024, 3);
    let grown = state();
    assert_eq!((grown.extents.len(), grown.tail), (7, None));
    assert_eq!(allocs() - before, 1, "no clone on the second append");

    db.wait_for_durability().unwrap();
    let capacity = grown.capacity_pages(db.tier_table());
    assert_eq!(capacity, 127);
    let in_use = db.allocator().pages_in_use();
    assert_eq!(in_use, base + node_pages(&db) + capacity);
    drop(db); // no checkpoint

    let (db, _) = Database::open(data, wal, cfg()).unwrap();
    assert_eq!(db.allocator().pages_in_use(), in_use);
}
