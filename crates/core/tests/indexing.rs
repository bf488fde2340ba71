//! Tests of the transactional Blob State index and its interaction with
//! rollback and recovery.

use lobster_core::{BlobIndex, BlobStateCmp, ComparatorFactory, Config, Database, RelationKind};
use lobster_storage::{FaultConfig, FaultDevice, FaultKind, MemDevice};
use std::collections::HashMap;
use std::sync::Arc;

fn cfg() -> Config {
    Config {
        pool_frames: 4096,
        ..Config::default()
    }
}

fn body(tag: u8, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    let mut state = (tag as u64) << 8 | 1;
    for b in &mut v {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        *b = state as u8;
    }
    v
}

#[test]
fn indexed_put_lookup_delete() {
    let db = Database::create(
        Arc::new(MemDevice::new(128 << 20)),
        Arc::new(MemDevice::new(32 << 20)),
        cfg(),
    )
    .unwrap();
    let images = db.create_relation("image", RelationKind::Blob).unwrap();
    let index = BlobIndex::create(&db, &images).unwrap();

    let contents: Vec<Vec<u8>> = (0..20).map(|i| body(i, 40_000 + i as usize * 13)).collect();
    let mut t = db.begin();
    for (i, c) in contents.iter().enumerate() {
        index
            .put_blob(&mut t, &images, format!("row{i}").as_bytes(), c)
            .unwrap();
    }
    t.commit().unwrap();

    // Content lookup: probe with a state describing known content.
    let mut t = db.begin();
    let probe = t.blob_state(&images, b"row7").unwrap().unwrap();
    t.commit().unwrap();
    assert_eq!(index.lookup(&probe).unwrap(), Some(b"row7".to_vec()));

    // Scan in content order from the probe: the probe itself first.
    let mut first = None;
    index
        .scan_from(&probe, |_, row| {
            first = Some(row.to_vec());
            false
        })
        .unwrap();
    assert_eq!(first, Some(b"row7".to_vec()));

    // Indexed delete removes both sides.
    let mut t = db.begin();
    index.delete_blob(&mut t, &images, b"row7").unwrap();
    t.commit().unwrap();
    assert_eq!(index.lookup(&probe).unwrap(), None);
    let mut t = db.begin();
    assert!(t.blob_state(&images, b"row7").unwrap().is_none());
    t.commit().unwrap();
}

#[test]
fn rollback_restores_index_and_blob_together() {
    let db = Database::create(
        Arc::new(MemDevice::new(128 << 20)),
        Arc::new(MemDevice::new(32 << 20)),
        cfg(),
    )
    .unwrap();
    let images = db.create_relation("image", RelationKind::Blob).unwrap();
    let index = BlobIndex::create(&db, &images).unwrap();

    let keep = body(1, 30_000);
    let mut t = db.begin();
    index.put_blob(&mut t, &images, b"keep", &keep).unwrap();
    t.commit().unwrap();
    let keep_state = {
        let mut t = db.begin();
        let s = t.blob_state(&images, b"keep").unwrap().unwrap();
        t.commit().unwrap();
        s
    };

    // Abort a transaction that deleted one entry and added another.
    let mut t = db.begin();
    index.delete_blob(&mut t, &images, b"keep").unwrap();
    index
        .put_blob(&mut t, &images, b"ephemeral", &body(2, 10_000))
        .unwrap();
    t.abort();

    assert_eq!(index.lookup(&keep_state).unwrap(), Some(b"keep".to_vec()));
    let mut t = db.begin();
    assert!(t.blob_state(&images, b"ephemeral").unwrap().is_none());
    let got = t.get_blob(&images, b"keep", |b| b.to_vec()).unwrap();
    t.commit().unwrap();
    assert_eq!(got, keep);
}

#[test]
fn index_recovery_replays_under_the_registered_comparator() {
    // Recovery *redoes* index inserts, so the tree must be attached with
    // the content comparator during replay — otherwise the rebuilt index
    // would be ordered byte-wise and multi-node lookups would miss.
    let dev = Arc::new(MemDevice::new(256 << 20));
    let wal = Arc::new(MemDevice::new(64 << 20));
    let n = 40usize;
    {
        let db = Database::create(dev.clone(), wal.clone(), cfg()).unwrap();
        let images = db.create_relation("image", RelationKind::Blob).unwrap();
        let index = BlobIndex::create(&db, &images).unwrap();
        for i in 0..n {
            let mut t = db.begin();
            index
                .put_blob(
                    &mut t,
                    &images,
                    format!("pic{i:03}").as_bytes(),
                    &body(i as u8, 30_000 + i * 777),
                )
                .unwrap();
            t.commit().unwrap();
        }
        // Crash (no shutdown): all index inserts live only in the WAL.
    }
    let mut factories: HashMap<String, ComparatorFactory> = HashMap::new();
    factories.insert(
        "image__content".into(),
        Arc::new(|db: &Database| BlobStateCmp::new(db) as _),
    );
    let (db, report) = Database::open_with_comparators(dev, wal, cfg(), factories).unwrap();
    assert!(report.committed as usize >= n);
    let images = db.relation("image").unwrap();
    let index = BlobIndex {
        relation: db.relation("image__content").unwrap(),
    };
    // Every entry must be findable through the content comparator.
    let mut t = db.begin();
    for i in 0..n {
        let key = format!("pic{i:03}");
        let state = t.blob_state(&images, key.as_bytes()).unwrap().unwrap();
        assert_eq!(
            index.lookup(&state).unwrap(),
            Some(key.clone().into_bytes()),
            "{key} lost after recovery"
        );
    }
    t.commit().unwrap();

    // And the index keeps working for new inserts.
    let mut t = db.begin();
    index
        .put_blob(&mut t, &images, b"pic-new", &body(99, 55_555))
        .unwrap();
    t.commit().unwrap();
}

#[test]
fn reopen_helper_rebinds_after_plain_open() {
    let dev = Arc::new(MemDevice::new(128 << 20));
    let wal = Arc::new(MemDevice::new(32 << 20));
    let content = body(7, 123_456);
    {
        let db = Database::create(dev.clone(), wal.clone(), cfg()).unwrap();
        let images = db.create_relation("image", RelationKind::Blob).unwrap();
        let index = BlobIndex::create(&db, &images).unwrap();
        let mut t = db.begin();
        index.put_blob(&mut t, &images, b"pic", &content).unwrap();
        t.commit().unwrap();
        db.shutdown().unwrap(); // clean: nothing to replay
    }
    let (db, _) = Database::open(dev, wal, cfg()).unwrap();
    let index = BlobIndex::reopen(&db, "image").unwrap();
    let images = db.relation("image").unwrap();
    let mut t = db.begin();
    let state = t.blob_state(&images, b"pic").unwrap().unwrap();
    t.commit().unwrap();
    assert_eq!(index.lookup(&state).unwrap(), Some(b"pic".to_vec()));
}

/// A pool or device error inside the content comparator is an error of the
/// index operation that asked — not "end of blob", which would file the
/// entry as a strict prefix of its neighbour. Contents here share a long
/// head, so every comparison has to read content; the stored side is cold
/// and its device read fails.
#[test]
fn comparator_read_error_fails_the_index_operation() {
    let dev = Arc::new(FaultDevice::new(
        MemDevice::new(128 << 20),
        FaultConfig::new(3, 1000, &[FaultKind::PermanentRead]),
    ));
    let db = Database::create(dev.clone(), Arc::new(MemDevice::new(32 << 20)), cfg()).unwrap();
    let images = db.create_relation("image", RelationKind::Blob).unwrap();
    let index = BlobIndex::create(&db, &images).unwrap();

    let head = body(42, 5_000);
    let content = |tag: u8| [head.clone(), body(tag, 60_000)].concat();
    let mut t = db.begin();
    for tag in [10u8, 30, 50] {
        index
            .put_blob(&mut t, &images, &[b'r', tag], &content(tag))
            .unwrap();
    }
    t.commit().unwrap();
    let mut t = db.begin();
    let probe = t.blob_state(&images, &[b'r', 30]).unwrap().unwrap();
    t.commit().unwrap();
    db.checkpoint().unwrap();

    // Cold content, warm trees (`for_each` walks the leaves without the
    // comparator): the only device reads left are the comparator's.
    db.blob_pool().drop_caches();
    for rel in [&images, &index.relation] {
        rel.tree.for_each(|_, _| true).unwrap();
    }
    dev.arm();
    let mut t = db.begin();
    let put = index.put_blob(&mut t, &images, &[b'r', 20], &content(20));
    assert!(put.is_err(), "a failed content read must fail the put");
    t.abort();
    // The SHA fast path needs no content; a probe that differs does.
    let mut other = probe.clone();
    other.sha256[0] ^= 1;
    assert!(index.lookup(&other).is_err());
    assert!(dev.injections() > 0);
    dev.disarm();

    // The fault cleared: the retry succeeds and nothing was misfiled.
    let mut t = db.begin();
    assert!(t.blob_state(&images, &[b'r', 20]).unwrap().is_none());
    index
        .put_blob(&mut t, &images, &[b'r', 20], &content(20))
        .unwrap();
    t.commit().unwrap();
    assert_eq!(index.lookup(&probe).unwrap(), Some(vec![b'r', 30]));
    let mut first = probe.clone();
    first.prefix = [0; 32];
    first.size = 0;
    let mut scanned = Vec::new();
    index
        .scan_from(&first, |_, row| {
            scanned.push(row.to_vec());
            true
        })
        .unwrap();
    let mut want: Vec<(Vec<u8>, Vec<u8>)> = [10u8, 20, 30, 50]
        .iter()
        .map(|&tag| (content(tag), vec![b'r', tag]))
        .collect();
    want.sort();
    let want: Vec<Vec<u8>> = want.into_iter().map(|(_, row)| row).collect();
    assert_eq!(scanned, want, "the index is in content order");
}

// --------------------------------------------------- comparator ordering ---

use proptest::prelude::*;

/// The index's logical order: contents compare bytewise, with a strict
/// prefix ordering before its extension (ties broken by size inside the
/// comparator, which for distinct contents is exactly `Vec<u8>` order).
fn oracle_order(mut contents: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
    contents.sort();
    contents
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Scanning the Blob State index visits rows in exact content order,
    /// for arbitrary content sets straddling every comparator step (shared
    /// 32-byte prefixes force the incremental extent walk; nested prefixes
    /// force the size tiebreak).
    #[test]
    fn index_scan_is_content_order(
        shapes in proptest::collection::vec((0usize..4, 1usize..20_000), 2..24)
    ) {
        let db = Database::create(
            Arc::new(MemDevice::new(256 << 20)),
            Arc::new(MemDevice::new(64 << 20)),
            cfg(),
        ).unwrap();
        let images = db.create_relation("image", RelationKind::Blob).unwrap();
        let index = BlobIndex::create(&db, &images).unwrap();

        // Adversarial content families: a few distinct 64-byte stems, so
        // many pairs share the embedded prefix and differ only deep in the
        // extents; lengths also create strict prefix-of relationships.
        let mut contents: Vec<Vec<u8>> = Vec::new();
        for (i, (family, len)) in shapes.iter().enumerate() {
            let mut c = vec![*family as u8; 64];
            c.extend_from_slice(&body(*family as u8, *len));
            c.extend_from_slice(&(i as u32).to_be_bytes()); // force distinct
            contents.push(c);
        }

        let mut t = db.begin();
        for (i, c) in contents.iter().enumerate() {
            index.put_blob(&mut t, &images, format!("row{i:03}").as_bytes(), c).unwrap();
        }
        t.commit().unwrap();

        // Expected order of row keys, by content.
        let mut tagged: Vec<(Vec<u8>, String)> = contents
            .iter()
            .enumerate()
            .map(|(i, c)| (c.clone(), format!("row{i:03}")))
            .collect();
        tagged.sort();
        let expect: Vec<String> = tagged.into_iter().map(|(_, k)| k).collect();
        prop_assert_eq!(
            oracle_order(contents.clone()).len(),
            contents.len(),
            "sanity: all contents distinct"
        );

        // Scan from the smallest element.
        let mut t = db.begin();
        let smallest_key = expect[0].as_bytes();
        let from = t.blob_state(&images, smallest_key).unwrap().unwrap();
        t.commit().unwrap();
        let mut visited: Vec<String> = Vec::new();
        index.scan_from(&from, |_, row_key| {
            visited.push(String::from_utf8_lossy(row_key).into_owned());
            true
        }).unwrap();
        prop_assert_eq!(visited, expect);

        // Point lookups find every row through the SHA fast path.
        let mut t = db.begin();
        for (i, _) in contents.iter().enumerate() {
            let key = format!("row{i:03}");
            let state = t.blob_state(&images, key.as_bytes()).unwrap().unwrap();
            let found = index.lookup(&state).unwrap().unwrap();
            prop_assert_eq!(found, key.as_bytes().to_vec());
        }
        t.commit().unwrap();
    }
}
