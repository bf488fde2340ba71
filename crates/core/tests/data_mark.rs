//! The data-durable mark: once a data-device sync covers the content of a
//! prefix of the log's commits, the group committer writes a mark naming
//! it, and recovery re-hashes only what was committed after it.
//!
//! * A seeded crash sweep over write-back devices (both sides lose what no
//!   sync covered) for `commit_wait` true and false: no key ever resolves
//!   to content that was not written for it or that fails its SHA-256,
//!   and under `commit_wait` every acknowledged operation survives.
//! * A delta update after the mark whose in-place write is lost: the
//!   version the mark covers is hashed after all, and wins.
//! * A checkpoint between an in-place group's sync and the next group
//!   keeps the stale mark out of the new log.
//! * A drained relocation survives a cut of write-back devices hashing
//!   nothing: its copy is fresh content, synced before its record and
//!   marked in its own fsync.
//! * 200 × 1 MiB puts on two shards reopen hashing nothing, waiting or
//!   asynchronous: every group's content is synced before its records,
//!   and its own mark covers it. Drained asynchronous puts survive a cut
//!   of write-back data devices.
//! * Restart undo never writes a failed delta's before-image into extents
//!   its version lost to recycling (found by the sweep).
//! * A log whose asynchronous commits follow its last mark, as an ordering
//!   that logged before it wrote left it, still opens and validates them.
//!
//! Every commit's content is synced before it is durable, so a targeted
//! scenario that needs a committed write to be lost cuts a write-through
//! data device with [`CrashDevice::arm_after_writes`]: the writes after
//! the cut are dropped while the syncs are still acknowledged.

mod support;

use lobster_core::{Config, Database, Relation, RelationKind, ShardDevices, ShardedDatabase};
use lobster_storage::{CrashDevice, Device, MemDevice};
use lobster_types::Error;
use lobster_wal::LogRecord;
use std::collections::HashMap;
use std::sync::Arc;

const MIB: usize = 1 << 20;

fn cfg(commit_wait: bool) -> Config {
    Config {
        pool_frames: 8192,
        commit_wait,
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

/// What reached the medium, on a device of its own; all-zero windows stay
/// unmaterialized.
fn survivor(dev: &MemDevice) -> Arc<MemDevice> {
    let copy = MemDevice::new(dev.capacity() as usize);
    let mut buf = vec![0u8; MIB];
    for off in (0..dev.capacity()).step_by(MIB) {
        let n = buf.len().min((dev.capacity() - off) as usize);
        dev.read_at(&mut buf[..n], off).unwrap();
        if buf[..n].iter().any(|&b| b != 0) {
            copy.write_at(&buf[..n], off).unwrap();
        }
    }
    Arc::new(copy)
}

fn put(db: &Arc<Database>, rel: &Relation, key: &[u8], data: &[u8]) {
    let mut t = db.begin();
    t.put_blob(rel, key, data).unwrap();
    t.commit().unwrap();
}

/// The allocator a recovery left holds exactly what the trees reference.
fn assert_exact(db: &Database) {
    let audit = db.audit_allocator().unwrap();
    assert!(audit.is_exact(), "{audit:?}");
}

fn is_mark(r: &LogRecord) -> bool {
    matches!(r, LogRecord::DataDurable { .. })
}

fn marks(records: &[LogRecord]) -> usize {
    records.iter().filter(|r| is_mark(r)).count()
}

// ---------------------------------------------------------- crash sweep ---

/// One seeded run: a mix of puts, overwrites, deletes, delta updates and
/// appends of up to 1 MiB over 12 keys, then a power cut after a seeded
/// number of operations — log device first, then data device, so no mark
/// can reach the log after the data device lost anything. Returns (marks
/// in the surviving log, BLOBs the reopen hashed, committed BLOB versions
/// it could have hashed).
fn crash_run(seed: u64, commit_wait: bool) -> (usize, u64, usize) {
    const DATA_CAP: usize = 96 << 20;
    const WAL_CAP: usize = 16 << 20;
    let data = Arc::new(CrashDevice::write_back(MemDevice::new(DATA_CAP)));
    let wal = Arc::new(CrashDevice::write_back(MemDevice::new(WAL_CAP)));
    let db = Database::create(data.clone(), wal.clone(), cfg(commit_wait)).unwrap();
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();

    // Every content a key was ever given (the oracle) and what it holds now.
    let mut written: HashMap<Vec<u8>, Vec<Vec<u8>>> = HashMap::new();
    let mut now: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
    let mut rng = seed.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
    let mut next = move |n: u64| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng % n
    };
    let ops = 40 + next(20);
    let cut_at = ops / 2 + next(ops / 2);
    for op in 0..ops {
        if op == cut_at {
            break;
        }
        let key = format!("k{}", next(12)).into_bytes();
        let mut t = db.begin();
        let new = match (now.get(&key), next(10)) {
            (Some(_), 0..=1) => {
                t.delete_blob(&rel, &key).unwrap();
                None
            }
            (Some(cur), 2..=3) => {
                let len = (1 + next(3000) as usize).min(cur.len());
                let at = next((cur.len() - len) as u64 + 1) as usize;
                let patch = pattern(len, seed * 1000 + op);
                t.update_blob(&rel, &key, at as u64, &patch).unwrap();
                let mut v = cur.clone();
                v[at..at + len].copy_from_slice(&patch);
                Some(v)
            }
            (Some(cur), 4) if cur.len() < 2 * MIB => {
                let more = pattern(1 + next(200_000) as usize, seed * 1000 + op);
                t.append_blob(&rel, &key, &more).unwrap();
                let mut v = cur.clone();
                v.extend_from_slice(&more);
                Some(v)
            }
            (cur, _) => {
                let v = pattern(64 * 1024 + next(MIB as u64) as usize, seed * 1000 + op);
                if cur.is_some() {
                    t.delete_blob(&rel, &key).unwrap();
                }
                t.put_blob(&rel, &key, &v).unwrap();
                Some(v)
            }
        };
        t.commit().unwrap();
        match new {
            Some(v) => {
                written.entry(key.clone()).or_default().push(v.clone());
                now.insert(key, v);
            }
            None => {
                now.remove(&key);
            }
        }
    }
    wal.crash_now();
    data.crash_now();
    drop(db);

    let data2 = survivor(data.inner());
    let wal2 = survivor(wal.inner());
    let wal_dyn: Arc<dyn Device> = wal2.clone();
    let log = lobster_wal::Wal::scan(&wal_dyn).unwrap().records;
    let versions = log
        .iter()
        .filter(|r| matches!(r, LogRecord::Insert { .. } | LogRecord::Update { .. }))
        .count();
    let (db2, report) = Database::open(data2, wal2, cfg(commit_wait)).unwrap();
    assert_exact(&db2);
    let rel2 = db2
        .relation("b")
        .expect("the relation's creation is durable");
    let ctx = format!("seed {seed} commit_wait {commit_wait}");
    if commit_wait {
        // Acknowledged means durable: every key holds its last content.
        for key in written.keys() {
            let mut t = db2.begin();
            let got = t.get_blob(&rel2, key, |b| b.to_vec());
            let name = String::from_utf8_lossy(key);
            match (now.get(key), got) {
                (Some(want), Ok(got)) => {
                    assert!(got == *want, "{ctx}: {name} lost an acknowledged write")
                }
                (None, Err(Error::KeyNotFound)) => {}
                (want, got) => panic!(
                    "{ctx}: {name} acknowledged as {:?} bytes, reads back as {:?}",
                    want.map(Vec::len),
                    got.map(|b| b.len())
                ),
            }
            t.commit().unwrap();
        }
    }
    for (key, versions) in &written {
        let mut t = db2.begin();
        match t.get_blob(&rel2, key, |b| b.to_vec()) {
            Ok(got) => assert!(
                versions.contains(&got),
                "{ctx}: {} resolved to content never written for it ({} bytes)",
                String::from_utf8_lossy(key),
                got.len()
            ),
            Err(Error::KeyNotFound) => {}
            Err(e) => panic!("{ctx}: read failed: {e}"),
        }
        t.commit().unwrap();
    }
    let scrub = db2.scrub().unwrap();
    assert!(scrub.is_clean(), "{ctx}: SHA mismatch {:?}", scrub.corrupt);
    // Still writable.
    put(&db2, &rel2, b"after", &pattern(300_000, seed));
    (marks(&log), report.validated, versions)
}

/// Sweep-width multiplier for the nightly torture CI job
/// (`LOBSTER_TORTURE_MULT=10`); unset or invalid means 1.
fn torture_mult() -> u64 {
    std::env::var("LOBSTER_TORTURE_MULT")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&m| m >= 1)
        .unwrap_or(1)
}

#[test]
fn write_back_crash_sweep_never_resolves_to_bad_content() {
    for commit_wait in [true, false] {
        let (mut marked, mut hashed, mut versions) = (0, 0, 0);
        for seed in 1..=6 * torture_mult() {
            let (m, h, v) = crash_run(seed, commit_wait);
            (marked, hashed, versions) = (marked + m, hashed + h, versions + v);
        }
        // The sweep must exercise the mark, not only the old path.
        assert!(marked > 0, "commit_wait {commit_wait}: no run wrote a mark");
        assert!(
            (hashed as usize) < versions,
            "commit_wait {commit_wait}: the marks spared no hashing ({hashed} of {versions})"
        );
    }
}

// ---------------------------------------------------- targeted scenarios ---

const PUTS: u64 = 8;

/// Eight asynchronous 1 MiB puts, drained: each group synced its content
/// before its records, and its own mark covers it.
fn store_of_synced_puts(
    data: Arc<dyn Device>,
    wal: Arc<dyn Device>,
) -> (Arc<Database>, Arc<Relation>) {
    let db = Database::create(data, wal, cfg(false)).unwrap();
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    for i in 0..PUTS {
        put(&db, &rel, format!("k{i}").as_bytes(), &pattern(MIB, i));
    }
    db.wait_for_durability().unwrap();
    (db, rel)
}

#[test]
fn a_lost_delta_after_the_mark_exposes_a_hashed_earlier_version() {
    let data = Arc::new(CrashDevice::new(MemDevice::new(64 << 20)));
    let wal = Arc::new(MemDevice::new(16 << 20));
    let (db, rel) = store_of_synced_puts(data.clone(), wal.clone());
    // The cut drops the delta's in-place write and acknowledges the sync
    // after it.
    data.arm_after_writes(0, 0);
    let mut t = db.begin();
    t.update_blob(&rel, b"k0", 4096, &[0xEE; 100]).unwrap();
    t.commit().unwrap();
    db.wait_for_durability().unwrap();
    assert!(data.has_crashed(), "the delta wrote nothing in place");
    drop(db);
    let wal_dyn: Arc<dyn Device> = wal.clone();
    let log = lobster_wal::Wal::scan(&wal_dyn).unwrap().records;
    let last_mark = log.iter().rposition(is_mark).expect("the puts are marked");
    let delta = log
        .iter()
        .position(|r| matches!(r, LogRecord::BlobDelta { .. }));
    assert!(
        delta > Some(last_mark),
        "the delta's group follows the mark"
    );

    let (db2, report) = Database::open(survivor(data.inner()), wal, cfg(false)).unwrap();
    assert_exact(&db2);
    // The delta's version fails; the version before it, inside the prefix,
    // is hashed too (the delta could have torn it) and survives. Nothing
    // else is hashed.
    assert_eq!(report.sha_failures, 1);
    assert_eq!(report.validated, 2, "{report:?}");
    let rel2 = db2.relation("b").unwrap();
    let mut t = db2.begin();
    for i in 0..PUTS {
        let key = format!("k{i}");
        let ok = t.get_blob(&rel2, key.as_bytes(), |b| b == pattern(MIB, i));
        assert!(ok.unwrap(), "{key} is not its committed content");
    }
    t.commit().unwrap();
}

/// Found by the sweep: a failed delta's before-image must not be written
/// into extents its version lost to recycling. `a`'s first version is
/// checkpointed, and the cut drops every data write after it: `a`'s
/// overwrite frees its extents, `b` is put into them, and a last
/// transaction patches both in place. The marks vouch for the overwrite
/// and for `b`, but the last transaction touches both keys after them, so
/// both chains are hashed all the way down. Recovery falls back to `a`'s
/// first version and rolls `b` back — without writing `b`'s before-image
/// over `a`.
#[test]
fn a_failed_delta_never_writes_into_a_recycled_extent() {
    let data = Arc::new(CrashDevice::new(MemDevice::new(64 << 20)));
    let wal = Arc::new(MemDevice::new(16 << 20));
    let db = Database::create(data.clone(), wal.clone(), cfg(false)).unwrap();
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    // Each commit lands before the next begins.
    let landed = |t: lobster_core::Txn| {
        t.commit().unwrap();
        db.wait_for_durability().unwrap();
    };
    let first = pattern(MIB, 1);
    let mut t = db.begin();
    t.put_blob(&rel, b"a", &first).unwrap();
    landed(t);
    db.checkpoint().unwrap();
    data.arm_after_writes(0, 0);
    // The pages a BLOB occupies, in address order: a's one-page tier and
    // one-page tail may trade places when b recycles them.
    let placement = |key: &[u8]| {
        let state = db.begin().blob_state(&rel, key).unwrap().unwrap();
        let mut specs = state.extent_specs(db.tier_table());
        specs.sort_unstable_by_key(|spec| spec.start);
        specs
    };
    let placed = placement(b"a");
    let mut t = db.begin();
    t.delete_blob(&rel, b"a").unwrap();
    t.put_blob(&rel, b"a", &pattern(MIB, 2)).unwrap();
    landed(t);
    let mut t = db.begin();
    t.put_blob(&rel, b"b", &pattern(MIB, 3)).unwrap();
    landed(t);
    assert_eq!(placement(b"b"), placed, "b must take a's recycled extents");
    let mut t = db.begin();
    t.update_blob(&rel, b"b", 600_000, &[0xEE; 100]).unwrap();
    t.update_blob(&rel, b"a", 4096, &[0xDD; 100]).unwrap();
    landed(t);
    assert!(data.has_crashed());
    drop(db);

    let (db2, report) = Database::open(survivor(data.inner()), wal, cfg(false)).unwrap();
    assert_exact(&db2);
    assert_eq!(report.sha_failures, 3, "{report:?}");
    let rel2 = db2.relation("b").unwrap();
    let mut t = db2.begin();
    assert!(t.get_blob(&rel2, b"a", |got| got == first).unwrap());
    assert!(t.blob_state(&rel2, b"b").unwrap().is_none());
    t.commit().unwrap();
}

#[test]
fn a_checkpoint_between_the_sync_and_the_next_group_keeps_the_mark_out() {
    for checkpoint in [false, true] {
        let data = Arc::new(MemDevice::new(64 << 20));
        let wal = Arc::new(MemDevice::new(16 << 20));
        let (db, rel) = store_of_synced_puts(data, wal);
        // An in-place group: its retire syncs and publishes a mark that
        // only the next group can write.
        let mut t = db.begin();
        t.update_blob(&rel, b"k0", 4096, &[0xEE; 100]).unwrap();
        t.commit().unwrap();
        db.wait_for_durability().unwrap();
        if checkpoint {
            db.checkpoint().unwrap();
        }
        // The next group has no content to mark of its own.
        let mut t = db.begin();
        t.delete_blob(&rel, b"k1").unwrap();
        t.commit().unwrap();
        db.wait_for_durability().unwrap();
        let log = db.wal().read_all().unwrap();
        let delete = (log.iter())
            .position(|r| matches!(r, LogRecord::Delete { .. }))
            .unwrap();
        let want = usize::from(!checkpoint);
        let tail = &log[delete..];
        assert_eq!(marks(tail), want, "checkpoint {checkpoint}: {tail:?}");
    }
}

#[test]
fn a_drained_relocation_survives_a_cut_hashing_nothing() {
    let data = Arc::new(CrashDevice::write_back(MemDevice::new(64 << 20)));
    let wal = Arc::new(CrashDevice::write_back(MemDevice::new(16 << 20)));
    let (db, rel) = store_of_synced_puts(data.clone(), wal.clone());
    let placement = |db: &Arc<Database>| {
        let state = db.begin().blob_state(&rel, b"k3").unwrap().unwrap();
        state.extent_specs(db.tier_table())
    };
    let old = placement(&db);
    let mut t = db.begin();
    assert!(t.relocate_blob(&rel, b"k3").unwrap(), "nothing to move");
    t.commit().unwrap();
    db.wait_for_durability().unwrap();
    let new = placement(&db);
    assert!(new.iter().all(|e| !old.contains(e)), "{new:?} vs {old:?}");
    wal.crash_now();
    data.crash_now();
    drop(db);

    let (db2, report) =
        Database::open(survivor(data.inner()), survivor(wal.inner()), cfg(false)).unwrap();
    assert_exact(&db2);
    assert_eq!(report.validated, 0, "{report:?}");
    let rel2 = db2.relation("b").unwrap();
    let state = db2.begin().blob_state(&rel2, b"k3").unwrap().unwrap();
    assert_eq!(state.extent_specs(db2.tier_table()), new);
    let mut t = db2.begin();
    for i in 0..PUTS {
        let key = format!("k{i}");
        let ok = t.get_blob(&rel2, key.as_bytes(), |b| b == pattern(MIB, i));
        assert!(ok.unwrap(), "{key} is not its committed content");
    }
    t.commit().unwrap();
}

/// Two shards' data and log devices.
fn two_shards<D: Device + 'static>(data: &[Arc<D>], wal: &[Arc<MemDevice>]) -> Vec<ShardDevices> {
    (data.iter().zip(wal))
        .map(|(data, wal)| ShardDevices {
            data: data.clone(),
            wal: wal.clone(),
        })
        .collect()
}

fn log_devices() -> Vec<Arc<MemDevice>> {
    (0..2).map(|_| Arc::new(MemDevice::new(16 << 20))).collect()
}

#[test]
fn reopen_after_200_one_mib_puts_hashes_only_the_tail() {
    // The tail is empty: every waiting group syncs and marks its own
    // content.
    let data: Vec<_> = (0..2)
        .map(|_| Arc::new(MemDevice::new(320 << 20)))
        .collect();
    let wal = log_devices();
    let sdb = ShardedDatabase::create(two_shards(&data, &wal), cfg(true)).unwrap();
    let rel = sdb.create_relation("b", RelationKind::Blob).unwrap();
    let blob = pattern(MIB, 7);
    for i in 0..200u32 {
        let mut t = sdb.begin();
        t.put_blob(&rel, &i.to_be_bytes(), &blob).unwrap();
        t.commit().unwrap();
    }
    drop(sdb); // no checkpoint: every put is in the logs

    let (sdb, reports) = ShardedDatabase::open(two_shards(&data, &wal), cfg(true)).unwrap();
    sdb.shards().iter().for_each(|db| assert_exact(db));
    for (shard, report) in reports.iter().enumerate() {
        assert!(report.committed > 50, "shard {shard}: {report:?}");
        assert_eq!(report.validated, 0, "shard {shard} hashed: {report:?}");
    }
    let rel = sdb.relation("b").unwrap();
    let mut t = sdb.begin();
    for i in (0..200u32).step_by(17) {
        assert!(t.get_blob(&rel, &i.to_be_bytes(), |b| b == blob).unwrap());
    }
    t.commit().unwrap();
}

/// The asynchronous twin: 200 × 1 MiB puts drained, then more not
/// drained, and a cut of both write-back data devices. A drained put's
/// content was synced before its records, and its group's own mark covers
/// it: every one survives, and the reopen hashes nothing.
#[test]
fn reopen_after_200_drained_async_puts_hashes_nothing_and_loses_none() {
    for round in 0..torture_mult() {
        let data: Vec<_> = (0..2)
            .map(|_| Arc::new(CrashDevice::write_back(MemDevice::new(320 << 20))))
            .collect();
        let wal = log_devices();
        let sdb = ShardedDatabase::create(two_shards(&data, &wal), cfg(false)).unwrap();
        let rel = sdb.create_relation("b", RelationKind::Blob).unwrap();
        let blob = pattern(MIB, 7 + round);
        let put = |i: u32| {
            let mut t = sdb.begin();
            t.put_blob(&rel, &i.to_be_bytes(), &blob).unwrap();
            t.commit().unwrap();
        };
        (0..200).for_each(put);
        sdb.wait_for_durability().unwrap();
        let undrained = 200 + 20 + round as u32;
        (200..undrained).for_each(put);
        data.iter().for_each(|d| d.crash_now());
        drop(sdb);

        let survivors: Vec<_> = data.iter().map(|d| survivor(d.inner())).collect();
        let (sdb, reports) =
            ShardedDatabase::open(two_shards(&survivors, &wal), cfg(false)).unwrap();
        sdb.shards().iter().for_each(|db| assert_exact(db));
        for (shard, report) in reports.iter().enumerate() {
            assert!(report.committed > 50, "shard {shard}: {report:?}");
            assert_eq!(
                report.validated, 0,
                "round {round} shard {shard}: {report:?}"
            );
        }
        let rel = sdb.relation("b").unwrap();
        let mut t = sdb.begin();
        for i in 0..undrained {
            match t.get_blob(&rel, &i.to_be_bytes(), |b| b == blob) {
                Ok(whole) => assert!(whole, "round {round}: {i} reads bytes never put"),
                Err(Error::KeyNotFound) if i >= 200 => {}
                Err(e) => panic!("round {round}: drained put {i} is lost: {e}"),
            }
        }
        t.commit().unwrap();
    }
}

/// A log whose asynchronous commits logged before their content
/// ([`support::without_marks`]) opens: every commit after the last mark is
/// hashed, and one whose content never arrived is rolled back.
#[test]
fn a_log_of_async_commits_after_its_last_mark_still_opens_and_validates_them() {
    let data = Arc::new(CrashDevice::new(MemDevice::new(64 << 20)));
    let wal = Arc::new(MemDevice::new(16 << 20));
    let db = Database::create(data.clone(), wal.clone(), cfg(false)).unwrap();
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    for i in 0..3 {
        put(&db, &rel, format!("k{i}").as_bytes(), &pattern(MIB, i));
    }
    db.wait_for_durability().unwrap();
    // The last put's content never arrives.
    data.arm_after_writes(0, 0);
    put(&db, &rel, b"k3", &pattern(MIB, 3));
    db.wait_for_durability().unwrap();
    drop(db);
    let log = support::without_marks(wal);

    let (db2, report) = Database::open(survivor(data.inner()), log, cfg(false)).unwrap();
    assert_exact(&db2);
    assert_eq!(
        (report.validated, report.sha_failures),
        (4, 1),
        "{report:?}"
    );
    let rel2 = db2.relation("b").unwrap();
    let mut t = db2.begin();
    for i in 0..3 {
        let key = format!("k{i}");
        let ok = t.get_blob(&rel2, key.as_bytes(), |b| b == pattern(MIB, i));
        assert!(ok.unwrap(), "{key} is not its committed content");
    }
    assert!(matches!(
        t.get_blob(&rel2, b"k3", |_| ()),
        Err(Error::KeyNotFound)
    ));
    t.commit().unwrap();
}
