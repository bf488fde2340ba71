//! Online defragmentation + background scrub (DESIGN.md §5g).
//!
//! Covers the relocation protocol end to end (atomic Blob State swap,
//! fence lifecycle at the durability frontier, abort path), the
//! maintenance pass (gauge + bounded relocation batch driving the
//! fragmentation score down), the standalone scrubber's degradation
//! ladder, the background thread's pause/resume/drain contract, and the
//! quarantine-fence round-trips — standalone and per-shard.

use lobster_core::{
    Config, Database, DefragConfig, Defragmenter, RelationKind, ShardDevices, ShardedDatabase,
};
use lobster_storage::{Device, MemDevice};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn cfg() -> Config {
    Config {
        pool_frames: 2048,
        ..Config::default()
    }
}

fn mem_db(cap: usize) -> Arc<Database> {
    let data = Arc::new(MemDevice::new(cap));
    let wal = Arc::new(MemDevice::new(32 << 20));
    Database::create(data, wal, cfg()).unwrap()
}

fn pattern(len: usize, seed: u64) -> Vec<u8> {
    let mut out = vec![0u8; len];
    let mut state = seed | 1;
    for b in &mut out {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        *b = state as u8;
    }
    out
}

/// Interleaved create/delete churn that leaves holes between live blobs,
/// then a round of re-puts that inherit the scattered placements.
fn churn(db: &Arc<Database>, rel: &Arc<lobster_core::Relation>, n: usize) {
    for i in 0..n {
        let mut t = db.begin();
        t.put_blob(
            rel,
            format!("churn{i:04}").as_bytes(),
            &pattern(200_000, i as u64),
        )
        .unwrap();
        t.commit().unwrap();
    }
    for i in (0..n).step_by(2) {
        let mut t = db.begin();
        t.delete_blob(rel, format!("churn{i:04}").as_bytes())
            .unwrap();
        t.commit().unwrap();
    }
    for i in (0..n).step_by(2) {
        let mut t = db.begin();
        t.put_blob(
            rel,
            format!("rechurn{i:04}").as_bytes(),
            &pattern(200_000, 1000 + i as u64),
        )
        .unwrap();
        t.commit().unwrap();
    }
}

#[test]
fn relocation_swaps_placement_and_preserves_content() {
    let db = mem_db(96 << 20);
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    let data = pattern(500_000, 7);
    let mut t = db.begin();
    t.put_blob(&rel, b"x", &data).unwrap();
    t.commit().unwrap();

    let mut t = db.begin();
    let before = t.blob_state(&rel, b"x").unwrap().unwrap();
    t.commit().unwrap();
    let in_use_before = db.allocator().pages_in_use();

    let mut t = db.begin();
    assert!(t.relocate_blob(&rel, b"x").unwrap());
    t.commit().unwrap();

    let mut t = db.begin();
    let after = t.blob_state(&rel, b"x").unwrap().unwrap();
    assert_ne!(before.extents, after.extents, "placement must change");
    assert_eq!(before.sha256, after.sha256, "content hash must not");
    assert_eq!(before.size, after.size);
    let got = t.get_blob(&rel, b"x", |b| b.to_vec()).unwrap();
    assert_eq!(got, data, "relocated content must be byte-identical");
    // The copy doubles as a scrub and must agree with the stored hash.
    assert_eq!(t.scrub_blob(&rel, b"x").unwrap(), Some(true));
    t.commit().unwrap();

    // commit_wait=true rode the pipeline through the durability frontier:
    // the old placement is released and freed — page accounting balances.
    assert_eq!(
        db.allocator().pages_in_use(),
        in_use_before,
        "old extents must be freed at the durability frontier"
    );
    for spec in before.extent_specs(db.tier_table()) {
        assert!(
            !db.allocator().is_quarantined(&spec),
            "no fence may outlive the swap's durability"
        );
    }
    assert_eq!(
        db.metrics()
            .defrag_relocations
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    db.blob_pool().audit().assert_no_leaked_pins();
    assert_eq!(db.blob_pool().audit().held_latches(), 0);
}

#[test]
fn relocation_abort_lifts_fences_and_keeps_old_placement() {
    let db = mem_db(96 << 20);
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    let data = pattern(300_000, 21);
    let mut t = db.begin();
    t.put_blob(&rel, b"x", &data).unwrap();
    t.commit().unwrap();
    let mut t = db.begin();
    let before = t.blob_state(&rel, b"x").unwrap().unwrap();
    t.commit().unwrap();

    let mut t = db.begin();
    assert!(t.relocate_blob(&rel, b"x").unwrap());
    t.abort();

    let mut t = db.begin();
    let after = t.blob_state(&rel, b"x").unwrap().unwrap();
    assert_eq!(before.extents, after.extents, "abort must restore the swap");
    assert_eq!(t.get_blob(&rel, b"x", |b| b.to_vec()).unwrap(), data);
    t.commit().unwrap();
    for spec in before.extent_specs(db.tier_table()) {
        assert!(
            !db.allocator().is_quarantined(&spec),
            "abort must lift the relocation fences"
        );
    }
    db.blob_pool().audit().assert_no_leaked_pins();
}

#[test]
fn relocation_skips_inline_and_missing_blobs() {
    let db = mem_db(64 << 20);
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    let mut t = db.begin();
    t.put_blob(&rel, b"inline", b"tiny").unwrap();
    t.commit().unwrap();
    let mut t = db.begin();
    assert!(!t.relocate_blob(&rel, b"inline").unwrap());
    assert!(!t.relocate_blob(&rel, b"missing").unwrap());
    t.commit().unwrap();
}

#[test]
fn defrag_pass_bounds_fragmentation_under_churn() {
    let db = mem_db(128 << 20);
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    for i in 0..24 {
        let mut t = db.begin();
        t.put_blob(
            &rel,
            format!("churn{i:04}").as_bytes(),
            &pattern(200_000, i as u64),
        )
        .unwrap();
        t.commit().unwrap();
    }
    for i in (0..24).step_by(2) {
        let mut t = db.begin();
        t.delete_blob(&rel, format!("churn{i:04}").as_bytes())
            .unwrap();
        t.commit().unwrap();
    }
    // Peak fragmentation: twelve holes, kept apart by live blobs.
    let shattered = db.fragmentation_score();
    assert!(shattered > 0.0, "churn must fragment the free space");
    for i in (0..24).step_by(2) {
        let mut t = db.begin();
        t.put_blob(
            &rel,
            format!("rechurn{i:04}").as_bytes(),
            &pattern(200_000, 1000 + i as u64),
        )
        .unwrap();
        t.commit().unwrap();
    }

    let cfg = DefragConfig {
        min_score: 0.0,
        batch_blobs: 32,
        scrub_batch: 0,
        ..DefragConfig::default()
    };
    let mut relocated = 0;
    for _ in 0..6 {
        let rep = db.defrag_pass(&cfg).unwrap();
        relocated += rep.relocated;
    }
    let repaired = db.fragmentation_score();
    assert!(
        repaired <= shattered,
        "maintenance must not worsen fragmentation ({repaired} > {shattered})"
    );

    // Every blob still byte-exact after the relocation storm.
    let mut keys: Vec<Vec<u8>> = Vec::new();
    let mut t = db.begin();
    t.scan_states(&rel, b"", |k, _| {
        keys.push(k.to_vec());
        true
    })
    .unwrap();
    for key in &keys {
        assert_eq!(
            t.scrub_blob(&rel, key).unwrap(),
            Some(true),
            "blob {:?} corrupted by defrag",
            String::from_utf8_lossy(key)
        );
    }
    t.commit().unwrap();
    assert!(relocated > 0, "churned placements must yield candidates");
    db.blob_pool().audit().assert_no_leaked_pins();
    assert_eq!(db.blob_pool().audit().held_latches(), 0);
}

#[test]
fn scrub_pass_feeds_quarantine_ladder_on_bit_rot() {
    let data_dev = Arc::new(MemDevice::new(64 << 20));
    let wal_dev = Arc::new(MemDevice::new(16 << 20));
    let db = Database::create(data_dev.clone(), wal_dev, cfg()).unwrap();
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    let mut t = db.begin();
    t.put_blob(&rel, b"good", &pattern(150_000, 3)).unwrap();
    t.put_blob(&rel, b"rotten", &pattern(150_000, 4)).unwrap();
    t.commit().unwrap();

    // Rot a page of `rotten`'s first extent on the device, then drop the
    // caches so the scrubber's non-evicting read sees the medium.
    let mut t = db.begin();
    let state = t.blob_state(&rel, b"rotten").unwrap().unwrap();
    t.commit().unwrap();
    let pid = state.extents[0].raw();
    data_dev.write_at(&[0xAAu8; 4096], pid * 4096).unwrap();
    db.blob_pool().drop_caches();

    let mut cursor = lobster_core::ScrubCursor::default();
    let checked = lobster_core::scrub_pass(&db, &mut cursor, 16).unwrap();
    assert!(checked >= 2, "scrub must visit both blobs, saw {checked}");
    assert!(db.is_blob_quarantined("b", b"rotten"));
    assert!(!db.is_blob_quarantined("b", b"good"));
    assert_eq!(
        db.metrics()
            .scrub_failures
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    // Quarantined blobs are off-limits for relocation: evidence stays put.
    let mut t = db.begin();
    assert!(!t.relocate_blob(&rel, b"rotten").unwrap());
    t.commit().unwrap();
}

#[test]
fn defragmenter_thread_pause_resume_drain() {
    let db = mem_db(96 << 20);
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    churn(&db, &rel, 8);

    let d = Defragmenter::start(
        vec![db.clone()],
        DefragConfig {
            interval: Duration::from_millis(10),
            min_score: 0.0,
            batch_blobs: 4,
            scrub_batch: 2,
        },
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    while d.passes() < 2 {
        assert!(Instant::now() < deadline, "defragmenter never ran a pass");
        std::thread::sleep(Duration::from_millis(5));
    }
    d.pause();
    let at_pause = d.passes();
    std::thread::sleep(Duration::from_millis(80));
    assert!(
        d.passes() <= at_pause + 1,
        "paused defragmenter kept running ({} > {})",
        d.passes(),
        at_pause + 1
    );
    d.resume();
    let deadline = Instant::now() + Duration::from_secs(10);
    while d.passes() <= at_pause + 1 {
        assert!(Instant::now() < deadline, "resume did not restart passes");
        std::thread::sleep(Duration::from_millis(5));
    }
    // Drain: stop() joins the thread; the in-flight batch quiesces and
    // the engine is left with a clean ledger and intact data.
    d.stop();
    let mut t = db.begin();
    assert_eq!(t.scrub_blob(&rel, b"churn0001").unwrap(), Some(true));
    t.commit().unwrap();
    db.blob_pool().audit().assert_no_leaked_pins();
    assert_eq!(db.blob_pool().audit().held_latches(), 0);
}

#[test]
fn quarantine_release_reallocation_round_trip_per_shard() {
    let parts: Vec<ShardDevices> = (0..2)
        .map(|_| ShardDevices {
            data: Arc::new(MemDevice::new(48 << 20)),
            wal: Arc::new(MemDevice::new(8 << 20)),
        })
        .collect();
    let sdb = ShardedDatabase::create(parts, cfg()).unwrap();

    // One fenced extent per shard: quarantine (twice — idempotent), free
    // parks it, release + free returns it to the exact-size lists, and
    // the next same-tier allocation hands the range back out.
    for db in sdb.shards() {
        let alloc = db.allocator();
        let spec = alloc.allocate_tier(0).unwrap();
        alloc.quarantine_extent(spec);
        alloc.quarantine_extent(spec); // double-quarantine: no-op
        assert!(alloc.is_quarantined(&spec));
        alloc.free_extent(spec); // parked, not recycled
        let replacement = alloc.allocate_tier(0).unwrap();
        assert_ne!(
            replacement.start, spec.start,
            "fenced range must not be re-issued"
        );
        alloc.free_extent(replacement);
        alloc.release_quarantine(spec);
        assert!(!alloc.is_quarantined(&spec));
        alloc.free_extent(spec);
        // Round-trip: the released range is allocatable again.
        let again = alloc.allocate_tier(0).unwrap();
        let reissued = std::iter::once(again)
            .chain(std::iter::once(alloc.allocate_tier(0).unwrap()))
            .any(|s| s.start == spec.start);
        assert!(reissued, "released range must rejoin the free lists");
    }
    sdb.shutdown().unwrap();
}

#[test]
fn sharded_defrag_passes_keep_blobs_intact() {
    let parts: Vec<ShardDevices> = (0..2)
        .map(|_| ShardDevices {
            data: Arc::new(MemDevice::new(64 << 20)),
            wal: Arc::new(MemDevice::new(8 << 20)),
        })
        .collect();
    let sdb = ShardedDatabase::create(parts, cfg()).unwrap();
    let rel = sdb.create_relation("b", RelationKind::Blob).unwrap();

    let mut contents: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    for i in 0..16u64 {
        let key = format!("k{i:03}").into_bytes();
        let data = pattern(180_000, i + 1);
        let mut t = sdb.begin();
        t.put_blob(&rel, &key, &data).unwrap();
        t.commit().unwrap();
        contents.push((key, data));
    }
    for i in (0..16u64).step_by(2) {
        let mut t = sdb.begin();
        t.delete_blob(&rel, format!("k{i:03}").as_bytes()).unwrap();
        t.commit().unwrap();
    }
    contents.retain(|(k, _)| k[1..].iter().fold(0u64, |a, &c| a * 10 + (c - b'0') as u64) % 2 == 1);

    let dcfg = DefragConfig {
        min_score: 0.0,
        batch_blobs: 16,
        scrub_batch: 4,
        ..DefragConfig::default()
    };
    for db in sdb.shards() {
        db.defrag_pass(&dcfg).unwrap();
    }
    sdb.wait_for_durability().unwrap();
    for (key, data) in &contents {
        let mut t = sdb.begin();
        let got = t.get_blob(&rel, key, |b| b.to_vec()).unwrap();
        assert_eq!(&got, data, "shard-relocated blob torn");
        t.commit().unwrap();
    }
    for db in sdb.shards() {
        db.blob_pool().audit().assert_no_leaked_pins();
    }
    sdb.shutdown().unwrap();
}
