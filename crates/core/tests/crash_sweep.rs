//! Systematic crash-point sweep: arm the fault injector to cut power after
//! every possible number of device writes (including torn final writes),
//! reopen from the surviving bytes, and verify the recovery invariants at
//! every crash point.
//!
//! Invariants checked after every crash:
//! 1. The database opens (recovery never wedges).
//! 2. Data committed *before the checkpoint* is always intact.
//! 3. Any blob visible after recovery has exactly the content that was
//!    committed for it (the SHA-256 validation guarantee) — never a torn
//!    mixture.
//! 4. The database remains fully writable afterwards.
//!
//! A second axis cuts power *inside a large put*: its fresh extents are
//! written before the commit record exists, so every prefix of those writes
//! — including a torn one — must recover to "the put never happened", with
//! nothing leaked.
//!
//! A third cuts power twice: an open that undid nothing runs on from the
//! log it replayed, without a checkpoint, and the second cut lands at each
//! write of the session after it, its first checkpoint included. Before
//! that, a process crash with the machine up leaves writes that no sync
//! covered in the devices' caches; an open reads them, and a power cut
//! follows.

use lobster_core::{Config, Database, RelationKind};
use lobster_extent::ExtentSpec;
use lobster_storage::{CrashDevice, Device, MemDevice};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn cfg() -> Config {
    Config {
        pool_frames: 2048,
        ..Config::default()
    }
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

/// Do two extents share a page?
fn overlaps(a: ExtentSpec, b: ExtentSpec) -> bool {
    a.start.raw() < b.start.raw() + b.pages && b.start.raw() < a.start.raw() + a.pages
}

/// The allocator a recovery left holds exactly what the trees reference.
fn assert_exact(db: &Database, crash_after: u64) {
    let audit = db.audit_allocator().unwrap();
    assert!(audit.is_exact(), "crash_after={crash_after}: {audit:?}");
}

fn copy_device(src: &MemDevice, capacity: usize) -> Arc<MemDevice> {
    let dst = MemDevice::new(capacity);
    let mut buf = vec![0u8; 1 << 20];
    let mut off = 0u64;
    while off < src.capacity() {
        let n = buf.len().min((src.capacity() - off) as usize);
        src.read_at(&mut buf[..n], off).unwrap();
        dst.write_at(&buf[..n], off).unwrap();
        off += n as u64;
    }
    Arc::new(dst)
}

/// The log device of the machine whose power the data device's cut takes
/// down: once the data device has crashed, every write and sync here is
/// dropped while reporting success, like the data device's own. A log that
/// outlived the cut could take a data-durable mark over content the cut
/// dropped behind a lying sync.
struct SamePower {
    log: Arc<MemDevice>,
    data: Arc<CrashDevice<MemDevice>>,
}

impl Device for SamePower {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> lobster_types::Result<()> {
        self.log.read_at(buf, offset)
    }

    fn write_at(&self, buf: &[u8], offset: u64) -> lobster_types::Result<()> {
        match self.data.has_crashed() {
            true => Ok(()),
            false => self.log.write_at(buf, offset),
        }
    }

    fn sync(&self) -> lobster_types::Result<()> {
        match self.data.has_crashed() {
            true => Ok(()),
            false => self.log.sync(),
        }
    }

    fn capacity(&self) -> u64 {
        self.log.capacity()
    }
}

/// One scenario execution with a power cut armed after `crash_after`
/// data-device writes (the trigger write is torn in half); the log loses
/// power with the data device. Returns whether the scenario completed
/// before the crash fired.
fn run_scenario(crash_after: u64) -> bool {
    const CAP: usize = 96 << 20;
    let data_dev = Arc::new(CrashDevice::new(MemDevice::new(CAP)));
    let wal_dev = Arc::new(MemDevice::new(32 << 20));
    let same_power = Arc::new(SamePower {
        log: wal_dev.clone(),
        data: data_dev.clone(),
    });

    let stable = pattern(150_000, 1);
    let late_a = pattern(60_000, 2);
    let late_b = pattern(90_000, 3);

    // Phase 1: stable data, checkpointed.
    let db = Database::create(data_dev.clone(), same_power, cfg()).unwrap();
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    {
        let mut t = db.begin();
        t.put_blob(&rel, b"stable", &stable).unwrap();
        t.commit().unwrap();
    }
    db.checkpoint().unwrap();

    // Phase 2: arm the crash, then two more commits and an append.
    data_dev.arm_after_writes(crash_after, 128);
    let completed = (|| -> lobster_types::Result<()> {
        let mut t = db.begin();
        t.put_blob(&rel, b"late_a", &late_a)?;
        t.commit()?;
        let mut t = db.begin();
        t.put_blob(&rel, b"late_b", &late_b)?;
        t.commit()?;
        let mut t = db.begin();
        t.append_blob(&rel, b"late_a", &late_b)?;
        t.commit()?;
        Ok(())
    })()
    .is_ok();
    // Simulate the process dying: no shutdown, no rollback.
    std::mem::forget(db);

    // Phase 3: recover from what physically survived.
    let survivor = copy_device(data_dev.inner(), CAP);
    let (db2, _report) = Database::open(survivor, wal_dev, cfg()).unwrap();
    assert_exact(&db2, crash_after);
    let rel2 = db2.relation("b").expect("relation survives the checkpoint");

    // Invariant 2: checkpointed data always intact.
    let mut t = db2.begin();
    let got = t.get_blob(&rel2, b"stable", |b| b.to_vec()).unwrap();
    assert_eq!(
        got, stable,
        "crash_after={crash_after}: stable blob damaged"
    );

    // Invariant 3: visible blobs have exactly a committed content version.
    let mut late_a_full = late_a.clone();
    late_a_full.extend_from_slice(&late_b);
    if let Some(state) = t.blob_state(&rel2, b"late_a").unwrap() {
        let got = t.get_blob(&rel2, b"late_a", |b| b.to_vec()).unwrap();
        assert!(
            got == late_a || got == late_a_full,
            "crash_after={crash_after}: late_a is a torn mixture (len {} vs {} / {})",
            got.len(),
            late_a.len(),
            late_a_full.len()
        );
        assert_eq!(state.size as usize, got.len());
    }
    if t.blob_state(&rel2, b"late_b").unwrap().is_some() {
        let got = t.get_blob(&rel2, b"late_b", |b| b.to_vec()).unwrap();
        assert_eq!(got, late_b, "crash_after={crash_after}: late_b torn");
    }
    t.commit().unwrap();

    // Invariant 4: still writable.
    let post = pattern(30_000, 99);
    let mut t = db2.begin();
    t.put_blob(&rel2, b"post_recovery", &post).unwrap();
    t.commit().unwrap();
    let mut t = db2.begin();
    assert_eq!(
        t.get_blob(&rel2, b"post_recovery", |b| b.to_vec()).unwrap(),
        post
    );
    t.commit().unwrap();

    completed
}

#[test]
fn crash_at_every_early_write() {
    // Sweep the first 24 post-checkpoint writes one by one: this covers
    // crashes during the first commit's WAL flush, between WAL fsync and
    // the extent flush (the SHA-validation window), and mid-extent-flush.
    for crash_after in 0..24 * torture_mult() {
        run_scenario(crash_after);
    }
}

#[test]
fn crash_across_later_writes() {
    // Coarser sweep further into the scenario (second commit + append).
    // The torture multiplier widens the sweep rather than repeating it.
    let mut completed_once = false;
    for crash_after in (24..24 + 96 * torture_mult()).step_by(7) {
        completed_once |= run_scenario(crash_after);
    }
    // Sanity: with a late enough crash point the whole scenario commits.
    assert!(
        completed_once || run_scenario(100_000),
        "scenario must complete when the crash never fires"
    );
}

/// Like [`run_scenario`], but the controller *dies* instead of silently
/// dropping writes: every post-crash write and sync returns an error
/// (`CrashDevice::set_fail_after_crash`). The engine surfaces those as
/// clean commit failures, and recovery from the surviving bytes must still
/// land on a SHA-validated state.
fn run_dead_controller_scenario(crash_after: u64) {
    const CAP: usize = 96 << 20;
    let data_dev = Arc::new(CrashDevice::new(MemDevice::new(CAP)));
    data_dev.set_fail_after_crash(true);
    let wal_dev = Arc::new(MemDevice::new(32 << 20));

    let stable = pattern(150_000, 11);
    let late = pattern(70_000, 12);

    let db = Database::create(data_dev.clone(), wal_dev.clone(), cfg()).unwrap();
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    {
        let mut t = db.begin();
        t.put_blob(&rel, b"stable", &stable).unwrap();
        t.commit().unwrap();
    }
    db.checkpoint().unwrap();

    data_dev.arm_after_writes(crash_after, 128);
    // Post-crash commits now *error* (dead controller) rather than being
    // silently absorbed; either way the process must not panic or hang.
    let _ = (|| -> lobster_types::Result<()> {
        let mut t = db.begin();
        t.put_blob(&rel, b"late", &late)?;
        t.commit()?;
        let mut t = db.begin();
        t.append_blob(&rel, b"late", &stable)?;
        t.commit()?;
        Ok(())
    })();
    std::mem::forget(db);

    // Recover from what physically reached the medium before the crash.
    let survivor = copy_device(data_dev.inner(), CAP);
    let (db2, _report) = Database::open(survivor, wal_dev, cfg()).unwrap();
    assert_exact(&db2, crash_after);
    let rel2 = db2.relation("b").expect("relation survives the checkpoint");

    let mut t = db2.begin();
    let got = t.get_blob(&rel2, b"stable", |b| b.to_vec()).unwrap();
    assert_eq!(
        got, stable,
        "crash_after={crash_after}: checkpointed blob damaged by a dead controller"
    );
    // SHA validation: any visible version of `late` is a committed one.
    let mut late_full = late.clone();
    late_full.extend_from_slice(&stable);
    if t.blob_state(&rel2, b"late").unwrap().is_some() {
        let got = t.get_blob(&rel2, b"late", |b| b.to_vec()).unwrap();
        assert!(
            got == late || got == late_full,
            "crash_after={crash_after}: late is a torn mixture after dead-controller crash"
        );
    }
    t.commit().unwrap();

    // The recovered database is fully writable.
    let post = pattern(25_000, 13);
    let mut t = db2.begin();
    t.put_blob(&rel2, b"post", &post).unwrap();
    t.commit().unwrap();
    let mut t = db2.begin();
    assert_eq!(t.get_blob(&rel2, b"post", |b| b.to_vec()).unwrap(), post);
    t.commit().unwrap();
}

#[test]
fn dead_controller_crash_sweep() {
    // Sweep crash points where post-crash writes *error* instead of being
    // dropped: commit failures must surface cleanly, and recovery must
    // still land on the SHA-validated state.
    for crash_after in (0..20 * torture_mult()).step_by(3) {
        run_dead_controller_scenario(crash_after);
    }
}

/// A 1 MiB put writes its fresh extents while it is still hashing, before
/// its commit record exists. Power is cut after `crash_after` of those data
/// writes (the next one torn in half), and the WAL never sees the commit.
/// Recovery must not expose the key, must leave the checkpointed blob
/// alone, and must hand every page the put touched back to the allocator.
fn run_torn_eager_scenario(crash_after: u64) {
    const CAP: usize = 96 << 20;
    let data_dev = Arc::new(CrashDevice::new(MemDevice::new(CAP)));
    let wal_dev = Arc::new(CrashDevice::new(MemDevice::new(32 << 20)));
    let stable = pattern(150_000, 21);

    let db = Database::create(data_dev.clone(), wal_dev.clone(), cfg()).unwrap();
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    let mut t = db.begin();
    t.put_blob(&rel, b"stable", &stable).unwrap();
    t.commit().unwrap();
    db.checkpoint().unwrap();
    let pages = db.allocator().pages_in_use();
    let writes = data_dev.write_log().len();

    data_dev.arm_after_writes(crash_after, 128);
    wal_dev.crash_now(); // the commit record is acknowledged and lost
    let mut t = db.begin();
    t.put_blob(&rel, b"big", &pattern(1 << 20, 22)).unwrap();
    let state = t.blob_state(&rel, b"big").unwrap().unwrap();
    let _ = t.commit(); // "succeeds": both devices lie from here on
    assert!(
        db.metrics().snapshot().eager_flush_batches >= 1,
        "the put must have written before its commit"
    );
    let survived = data_dev.write_log().len() - writes;
    assert!(
        survived as u64 <= crash_after + 1,
        "crash_after={crash_after}: {survived} data writes survived the cut"
    );
    assert_eq!(db.blob_pool().audit().held_latches(), 0);
    std::mem::forget(db);

    let (db2, _report) = Database::open(
        copy_device(data_dev.inner(), CAP),
        copy_device(wal_dev.inner(), 32 << 20),
        cfg(),
    )
    .unwrap();
    let rel2 = db2.relation("b").expect("relation survives the checkpoint");
    let mut t = db2.begin();
    assert!(
        t.blob_state(&rel2, b"big").unwrap().is_none(),
        "crash_after={crash_after}: an uncommitted put surfaced"
    );
    assert_eq!(
        t.get_blob(&rel2, b"stable", |b| b.to_vec()).unwrap(),
        stable
    );
    t.commit().unwrap();
    assert_eq!(
        db2.allocator().pages_in_use(),
        pages,
        "crash_after={crash_after}: pages of the torn put leaked"
    );

    assert_exact(&db2, crash_after);

    // The same pages take the next put, whatever garbage they hold — but
    // for an extent the reopen's checkpoint gave its free map.
    let map = db2.audit_allocator().unwrap().retiring[0];
    let again = pattern(1 << 20, 23);
    let mut t = db2.begin();
    t.put_blob(&rel2, b"big", &again).unwrap();
    let state2 = t.blob_state(&rel2, b"big").unwrap().unwrap();
    assert_eq!(state2.extents.len(), state.extents.len());
    let specs = state.extent_specs(db2.tier_table());
    for (i, (new, old)) in state2.extents.iter().zip(&state.extents).enumerate() {
        assert!(
            new == old || overlaps(specs[i], map),
            "crash_after={crash_after}: extent {i} moved off the torn put's \
             pages: {:?} vs {:?}, map {map:?}",
            state2.extents,
            state.extents
        );
    }
    t.commit().unwrap();
    let mut t = db2.begin();
    assert!(t.get_blob(&rel2, b"big", |b| b == again).unwrap());
    t.commit().unwrap();
    db2.checkpoint().unwrap();
    assert_eq!(db2.blob_pool().audit().held_latches(), 0);
    db2.blob_pool().audit().assert_no_leaked_pins();
    assert!(db2.scrub().unwrap().is_clean());
}

#[test]
fn torn_eager_writes_never_surface() {
    // A 1 MiB put issues nine data writes; sweep the cut across all of them
    // and one past (no data write lost, commit record lost).
    for crash_after in 0..=9 {
        run_torn_eager_scenario(crash_after);
    }
}

#[test]
fn torn_wal_write_rolls_back_cleanly() {
    // Crash on the WAL device instead: the commit record is half-written,
    // so recovery must treat the transaction as uncommitted.
    const CAP: usize = 64 << 20;
    let data_dev = Arc::new(MemDevice::new(CAP));
    let wal_dev = Arc::new(CrashDevice::new(MemDevice::new(16 << 20)));

    let db = Database::create(data_dev.clone(), wal_dev.clone(), cfg()).unwrap();
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    let good = pattern(40_000, 5);
    {
        let mut t = db.begin();
        t.put_blob(&rel, b"good", &good).unwrap();
        t.commit().unwrap();
    }
    // Tear the very next WAL write in half.
    wal_dev.arm_after_writes(0, 128);
    let mut t = db.begin();
    t.put_blob(&rel, b"torn", &pattern(50_000, 6)).unwrap();
    let _ = t.commit(); // may "succeed" from the app's view — device lied
    std::mem::forget(db);

    let surviving_wal = copy_device(wal_dev.inner(), 16 << 20);
    let (db2, _) = Database::open(data_dev, surviving_wal, cfg()).unwrap();
    assert_exact(&db2, 0);
    let rel2 = db2.relation("b").unwrap();
    let mut t = db2.begin();
    assert_eq!(t.get_blob(&rel2, b"good", |b| b.to_vec()).unwrap(), good);
    assert!(
        t.blob_state(&rel2, b"torn").unwrap().is_none(),
        "a torn commit record must roll the transaction back"
    );
    t.commit().unwrap();
}

/// Live keys and their contents.
type Live = std::collections::BTreeMap<u64, Vec<u8>>;

/// A store whose checkpoint has a free map of a dozen runs, with a log tail
/// after it: twenty-four BLOBs, every even one deleted, checkpointed, then
/// six more puts and two deletes.
fn mapped_store(
    data: &Arc<CrashDevice<MemDevice>>,
    wal: &Arc<CrashDevice<MemDevice>>,
) -> (Arc<Database>, Live) {
    let db = Database::create(data.clone(), wal.clone(), cfg()).unwrap();
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    let mut live = Live::new();
    let mut write = |i: u64, put: bool| {
        let mut t = db.begin();
        if put {
            let blob = pattern(9000 + 700 * i as usize, 40 + i);
            t.put_blob(&rel, &i.to_be_bytes(), &blob).unwrap();
            live.insert(i, blob);
        } else {
            t.delete_blob(&rel, &i.to_be_bytes()).unwrap();
            live.remove(&i);
        }
        t.commit().unwrap();
    };
    (0..24).for_each(|i| write(i, true));
    (0..24).step_by(2).for_each(|i| write(i, false));
    db.checkpoint().unwrap();
    (24..30).for_each(|i| write(i, true));
    [1, 3].into_iter().for_each(|i| write(i, false));
    (db, live)
}

/// Power is cut inside a checkpoint: on the data device after `data_cut`
/// of its writes (the trigger write torn to its first 64 bytes of 4 KiB:
/// inside the free map's run list when it is the map), or on the log device
/// after `wal_cut` of its writes (the trigger write lost whole: cut at the
/// truncate, the log keeps its epoch under a header that has moved on —
/// the open finishes the truncate). Both controllers die with the power, so
/// nothing runs past the cut. Every committed BLOB survives, the allocator
/// holds exactly what the trees reference, and so it does again after the
/// next checkpoint and reopen. Returns whether the checkpoint completed.
fn run_checkpoint_cut(data_cut: Option<u64>, wal_cut: Option<u64>) -> bool {
    const CAP: usize = 64 << 20;
    let data = Arc::new(CrashDevice::new(MemDevice::new(CAP)));
    let wal = Arc::new(CrashDevice::new(MemDevice::new(16 << 20)));
    let (db, live) = mapped_store(&data, &wal);
    for dev in [&data, &wal] {
        dev.set_fail_after_crash(true);
    }
    data_cut.inspect(|&n| data.arm_after_writes(n, 4));
    wal_cut.inspect(|&n| wal.arm_after_writes(n, 0));
    let completed = db.checkpoint().is_ok();
    std::mem::forget(db);

    let at = format!("data_cut={data_cut:?} wal_cut={wal_cut:?}");
    let mut devices = (
        copy_device(data.inner(), CAP),
        copy_device(wal.inner(), 16 << 20),
    );
    for round in 0..2 {
        let (db, _) = Database::open(devices.0.clone(), devices.1.clone(), cfg()).unwrap();
        let audit = db.audit_allocator().unwrap();
        assert!(audit.is_exact(), "{at} round {round}: {audit:?}");
        let rel = db.relation("b").unwrap();
        let mut t = db.begin();
        for (key, want) in &live {
            let got = t.get_blob(&rel, &key.to_be_bytes(), |b| b == &want[..]);
            assert!(got.unwrap(), "{at} round {round}: {key} changed");
        }
        t.commit().unwrap();
        let mut t = db.begin();
        t.put_blob(
            &rel,
            format!("post{round}").as_bytes(),
            &pattern(20_000, 77),
        )
        .unwrap();
        t.commit().unwrap();
        db.checkpoint().unwrap();
        devices = (copy_device(&as_mem(&db.device()), CAP), devices.1.clone());
    }
    completed
}

/// The bytes of `dev` on a `MemDevice` of its own.
fn as_mem(dev: &Arc<dyn Device>) -> MemDevice {
    let mem = MemDevice::new(dev.capacity() as usize);
    let mut buf = vec![0u8; 1 << 20];
    for off in (0..dev.capacity()).step_by(buf.len()) {
        dev.read_at(&mut buf, off).unwrap();
        mem.write_at(&buf, off).unwrap();
    }
    mem
}

/// Device writes a checkpoint of [`mapped_store`] issues: `(data, log)`.
fn checkpoint_writes() -> (u64, u64) {
    let data = Arc::new(CrashDevice::new(MemDevice::new(64 << 20)));
    let wal = Arc::new(CrashDevice::new(MemDevice::new(16 << 20)));
    let (db, _) = mapped_store(&data, &wal);
    let before = (data.write_log().len(), wal.write_log().len());
    db.checkpoint().unwrap();
    (
        (data.write_log().len() - before.0) as u64,
        (wal.write_log().len() - before.1) as u64,
    )
}

#[test]
fn checkpoint_cut_at_every_map_and_header_write() {
    // The data writes are the node flushes, the free map and the header;
    // the log writes are the page images (nodes and map) and the truncate.
    // A cut after the last write of each is the uncut checkpoint.
    let (data_writes, wal_writes) = checkpoint_writes();
    assert!(
        data_writes >= 3 && wal_writes >= 2,
        "{data_writes} / {wal_writes}"
    );
    for _ in 0..torture_mult() {
        for n in 0..data_writes {
            assert!(
                !run_checkpoint_cut(Some(n), None),
                "data_cut={n} cut nothing"
            );
        }
        // Between the header's sync and the truncate, and before.
        for n in 0..wal_writes {
            assert!(
                !run_checkpoint_cut(None, Some(n)),
                "wal_cut={n} cut nothing"
            );
        }
        assert!(run_checkpoint_cut(Some(data_writes), Some(wal_writes)));
    }
}

/// A log older than its header — power cut between a checkpoint's header
/// sync and its truncate — names pages that became B-Tree nodes before
/// that checkpoint: a BLOB put and deleted in the log freed its one-page
/// extents, and the leaf splits of the inline puts after it took them.
/// The header's checkpoint already holds everything that log does, so the
/// open finishes the truncate and replays none of it: it walks no tree,
/// and no page the log names is freed from under those nodes.
#[test]
fn a_log_older_than_its_header_keeps_the_nodes_it_names() {
    const CAP: usize = 64 << 20;
    let data = Arc::new(CrashDevice::new(MemDevice::new(CAP)));
    let wal = Arc::new(CrashDevice::new(MemDevice::new(16 << 20)));
    let db = Database::create(data.clone(), wal.clone(), cfg()).unwrap();
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    db.checkpoint().unwrap();
    let mut t = db.begin();
    t.put_blob(&rel, b"two pages", &pattern(5000, 61)).unwrap();
    t.commit().unwrap();
    let mut t = db.begin();
    t.delete_blob(&rel, b"two pages").unwrap();
    t.commit().unwrap();
    db.wait_for_durability().unwrap();
    let nodes = |db: &Database| db.relation("b").unwrap().tree.stats().unwrap().nodes;
    for i in 0..200u32 {
        let mut t = db.begin();
        t.put_blob(&rel, &i.to_be_bytes(), &[i as u8; 20]).unwrap();
        t.commit().unwrap();
    }
    assert!(nodes(&db) >= 3, "the inline puts split the root");
    wal.set_fail_after_crash(true);
    wal.arm_after_writes(1, 0); // the images land, the truncate does not
    assert!(db.checkpoint().is_err());
    std::mem::forget(db);

    let (db, report) = Database::open(
        copy_device(data.inner(), CAP),
        copy_device(wal.inner(), 16 << 20),
        cfg(),
    )
    .unwrap();
    assert_eq!(
        (report.index_nodes, report.records),
        (0, 0),
        "the open replayed the superseded log: {report:?}"
    );
    let audit = db.audit_allocator().unwrap();
    assert!(audit.is_exact(), "{audit:?}");
    let rel = db.relation("b").unwrap();
    let mut t = db.begin();
    for i in 0..200u32 {
        assert!(t
            .get_blob(&rel, &i.to_be_bytes(), |b| b == [i as u8; 20])
            .unwrap());
    }
    t.commit().unwrap();
}

/// A data device that records, for every header write (page 0), whether
/// a sync has covered every write before it.
struct HeaderOrder {
    inner: MemDevice,
    /// `(a write since the last sync, covered flag of each header write)`.
    seen: std::sync::Mutex<(bool, Vec<bool>)>,
}

impl Device for HeaderOrder {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> lobster_types::Result<()> {
        self.inner.read_at(buf, offset)
    }
    fn write_at(&self, buf: &[u8], offset: u64) -> lobster_types::Result<()> {
        let mut seen = self.seen.lock().unwrap();
        if offset == 0 {
            let covered = !seen.0;
            seen.1.push(covered);
        }
        seen.0 = true;
        self.inner.write_at(buf, offset)
    }
    fn sync(&self) -> lobster_types::Result<()> {
        self.seen.lock().unwrap().0 = false;
        self.inner.sync()
    }
    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }
}

/// The checkpoint's barrier: every header write — at creation, at each
/// checkpoint and at recovery's closing checkpoint — follows a sync that
/// covers every earlier data write, the node flushes and the free map it
/// names among them. A device that reorders unsynced writes cannot land
/// the header before them. The log ends in a torn group, so the open rolls
/// a transaction back and closes with a checkpoint.
#[test]
fn every_header_write_follows_a_sync_of_the_writes_before_it() {
    let data = Arc::new(HeaderOrder {
        inner: MemDevice::new(64 << 20),
        seen: Default::default(),
    });
    let wal = Arc::new(CrashDevice::new(MemDevice::new(16 << 20)));
    let db = Database::create(data.clone(), wal.clone(), cfg()).unwrap();
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    for i in 0..40u64 {
        let mut t = db.begin();
        t.put_blob(&rel, &i.to_be_bytes(), &pattern(3000 + 900 * i as usize, i))
            .unwrap();
        t.commit().unwrap();
        if i % 10 == 9 {
            db.checkpoint().unwrap();
        }
    }
    // Four puts in one group, whose log write is torn in half: the first
    // records land, the commit record does not.
    wal.arm_after_writes(0, 128);
    let mut t = db.begin();
    for i in 40..44u64 {
        t.put_blob(&rel, &i.to_be_bytes(), &pattern(3000, i))
            .unwrap();
    }
    let _ = t.commit(); // "succeeds": the log lied
    drop(db); // a crash: the last puts are in the log
    let wal = copy_device(wal.inner(), 16 << 20);
    let (db, report) = Database::open(data.clone(), wal, cfg()).unwrap();
    assert_eq!(report.uncommitted, 1, "{report:?}");
    db.checkpoint().unwrap();
    let headers = data.seen.lock().unwrap().1.clone();
    assert!(headers.len() >= 7, "{headers:?}");
    assert!(headers.iter().all(|&covered| covered), "{headers:?}");
}

/// An open that rolls a transaction back closes with a checkpoint, the one
/// way the rollback is made durable. Were the log to run on, the next
/// recovery would redo a later commit to the same key and then undo the
/// torn transaction after it, putting the key back to where both began.
#[test]
fn a_rollback_at_open_is_checkpointed_before_the_log_runs_on() {
    let data = Arc::new(MemDevice::new(64 << 20));
    let wal = Arc::new(CrashDevice::new(MemDevice::new(16 << 20)));
    let db = Database::create(data.clone(), wal.clone(), cfg()).unwrap();
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    let mut t = db.begin();
    t.put_blob(&rel, b"k", &pattern(6000, 1)).unwrap();
    t.commit().unwrap();
    // A group whose log write is torn in half: its first records, the
    // delete of `k` among them, land; its commit record does not.
    wal.arm_after_writes(0, 128);
    let mut t = db.begin();
    t.delete_blob(&rel, b"k").unwrap();
    for key in [b"x", b"y", b"z"] {
        t.put_blob(&rel, key, &pattern(6000, 2)).unwrap();
    }
    let _ = t.commit(); // "succeeds": the log lied
    drop((db, rel));
    let wal = copy_device(wal.inner(), 16 << 20);

    let (db, report) = Database::open(data.clone(), wal.clone(), cfg()).unwrap();
    assert_eq!(report.uncommitted, 1, "{report:?}");
    assert_eq!(db.metrics().snapshot().checkpoints, 1);
    let rel = db.relation("b").unwrap();
    let mut t = db.begin();
    t.delete_blob(&rel, b"k").unwrap();
    t.commit().unwrap();
    drop((db, rel)); // a crash: the delete is in the log

    let (db, _) = Database::open(data, wal, cfg()).unwrap();
    let mut t = db.begin();
    let got = t.get_blob(&db.relation("b").unwrap(), b"k", |b| b.len());
    assert!(got.is_err(), "the later delete was undone");
    t.commit().unwrap();
}

/// A relation created after an open that ran on from its log takes an id
/// the log never named: replay attached every relation the log names, the
/// one it drops too. The log still holds that drop, and the next recovery
/// tells relations apart by id: it skips validating a dropped one's keys.
#[test]
fn a_relation_created_after_an_open_that_ran_on_takes_a_fresh_id() {
    let data = Arc::new(MemDevice::new(32 << 20));
    let wal = Arc::new(MemDevice::new(8 << 20));
    let db = Database::create(data.clone(), wal.clone(), cfg()).unwrap();
    let old = db.create_relation("old", RelationKind::Blob).unwrap();
    let mut t = db.begin();
    t.put_blob(&old, b"k", &pattern(9000, 1)).unwrap();
    t.commit().unwrap();
    db.drop_relation("old").unwrap();
    std::mem::forget(db);

    let (db, report) = Database::open(data, wal, cfg()).unwrap();
    assert!(report.phases.checkpoint.is_zero(), "{report:?}");
    let new = db.create_relation("new", RelationKind::Blob).unwrap();
    assert!(new.id > old.id, "{} reuses the dropped id", new.id);
}

/// The broken control: a checkpoint that wrote its free map after the
/// header's sync, cut between the two, leaves a header naming a map that
/// never reached the medium. The open must refuse it, not trust it.
#[test]
fn a_header_naming_an_unwritten_map_is_caught() {
    const CAP: usize = 64 << 20;
    let data = Arc::new(CrashDevice::new(MemDevice::new(CAP)));
    let wal = Arc::new(CrashDevice::new(MemDevice::new(16 << 20)));
    let (db, _) = mapped_store(&data, &wal);
    let before = copy_device(data.inner(), CAP);
    db.checkpoint().unwrap();
    let map = db.audit_allocator().unwrap().retiring[0];
    std::mem::forget(db);

    // The map's pages as they were before the checkpoint wrote them.
    let after = copy_device(data.inner(), CAP);
    let mut pages = vec![0u8; map.pages as usize * 4096];
    let offset = map.start.raw() * 4096;
    before.read_at(&mut pages, offset).unwrap();
    after.write_at(&pages, offset).unwrap();
    let wal = copy_device(wal.inner(), 16 << 20);
    match Database::open(after, wal, cfg()) {
        Err(lobster_types::Error::Corruption(msg)) => assert!(msg.contains("free map"), "{msg}"),
        Err(e) => panic!("refused for the wrong reason: {e}"),
        Ok(_) => panic!("a header naming an unwritten map was trusted"),
    }
}

/// A device over a write-back cache whose syncs fail once `dead` is set:
/// the process stops between a write and the sync that would cover it,
/// and the write stays readable in the cache while the machine is up.
struct SyncLost {
    cache: Arc<CrashDevice<MemDevice>>,
    dead: AtomicBool,
}

impl Device for SyncLost {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> lobster_types::Result<()> {
        self.cache.read_at(buf, offset)
    }

    fn write_at(&self, buf: &[u8], offset: u64) -> lobster_types::Result<()> {
        self.cache.write_at(buf, offset)
    }

    fn sync(&self) -> lobster_types::Result<()> {
        match self.dead.load(Ordering::SeqCst) {
            true => Err(lobster_types::Error::Io(std::io::Error::other(
                "the process died before its sync",
            ))),
            false => self.cache.sync(),
        }
    }

    fn capacity(&self) -> u64 {
        self.cache.capacity()
    }
}

/// A process crash, then a power cut. The process dies between a write of
/// its last commit and the sync that would cover it — the log's records
/// (`in_log`: a put) or the content of an in-place delta — with the
/// machine up. An open on what the devices' caches hold replays the commit
/// and runs on from the log; power then fails before anything else, and
/// every version that open read must survive.
fn process_crash_then_power_cut(in_log: bool) {
    let data = Arc::new(CrashDevice::write_back(MemDevice::new(32 << 20)));
    let wal = Arc::new(CrashDevice::write_back(MemDevice::new(8 << 20)));
    let lost = |cache: &Arc<CrashDevice<MemDevice>>| {
        Arc::new(SyncLost {
            cache: cache.clone(),
            dead: AtomicBool::new(false),
        })
    };
    let (on_data, on_wal) = (lost(&data), lost(&wal));
    let db = Database::create(on_data.clone(), on_wal.clone(), cfg()).unwrap();
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    let mut t = db.begin();
    t.put_blob(&rel, b"k", &pattern(40_000, 51)).unwrap();
    t.commit().unwrap();
    let dying = if in_log { &on_wal } else { &on_data };
    dying.dead.store(true, Ordering::SeqCst);
    let mut t = db.begin();
    match in_log {
        true => t.put_blob(&rel, b"n", &pattern(30_000, 52)),
        false => t.update_blob(&rel, b"k", 100, &[7; 16]),
    }
    .unwrap();
    assert!(t.commit().is_err(), "the commit's sync failed");
    drop((db, rel));

    let read = |db: &Arc<Database>| {
        let rel = db.relation("b").unwrap();
        let mut t = db.begin();
        let got = [&b"k"[..], b"n"].map(|key| t.get_blob(&rel, key, |b| b.to_vec()).ok());
        t.commit().unwrap();
        got
    };
    let (db, report) = Database::open(data.clone(), wal.clone(), cfg()).unwrap();
    assert_eq!(report.uncommitted, 0, "{report:?}");
    assert!(report.phases.checkpoint.is_zero(), "{report:?}");
    let served = read(&db);
    match in_log {
        true => assert!(served[1].is_some(), "the open did not replay the put"),
        false => assert_eq!(served[0].as_ref().unwrap()[100..116], [7; 16]),
    }
    drop(db);

    data.crash_now();
    wal.crash_now();
    let (data, wal) = (
        copy_device(data.inner(), 32 << 20),
        copy_device(wal.inner(), 8 << 20),
    );
    let (db, _) = Database::open(data, wal, cfg()).unwrap();
    assert!(
        read(&db) == served,
        "a power cut took back what an open served"
    );
    assert!(db.audit_allocator().unwrap().is_exact());
}

/// The open that runs on syncs the log device: the put's records, which
/// only the crashed process's cache held, survive the later power cut.
#[test]
fn a_process_crash_before_a_log_sync_then_a_power_cut_keeps_what_the_open_read() {
    process_crash_then_power_cut(true);
}

/// The open that runs on syncs the data device: the delta's content, which
/// the open validated in the cache, survives the later power cut.
#[test]
fn a_process_crash_before_a_data_sync_then_a_power_cut_keeps_what_the_open_read() {
    process_crash_then_power_cut(false);
}

/// One power supply for a data and a log device: the write that uses up
/// `left` — counted across both — is torn to `tear`/256 of its length, and
/// it and every later write and sync fail on either device.
struct Mains {
    left: AtomicU64,
    tear: usize,
    /// Writes since the last [`Mains::arm`], the torn one included.
    writes: AtomicU64,
}

impl Mains {
    fn new(tear: usize) -> Arc<Self> {
        Arc::new(Mains {
            left: AtomicU64::new(u64::MAX),
            tear,
            writes: AtomicU64::new(0),
        })
    }

    /// Cut at the `cut`-th write from now (`u64::MAX`: never).
    fn arm(&self, cut: u64) {
        self.writes.store(0, Ordering::SeqCst);
        self.left.store(cut, Ordering::SeqCst);
    }

    fn off() -> lobster_types::Error {
        lobster_types::Error::Io(std::io::Error::other("power cut"))
    }
}

/// A device on [`Mains`].
struct OnMains {
    inner: MemDevice,
    mains: Arc<Mains>,
}

impl Device for OnMains {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> lobster_types::Result<()> {
        self.inner.read_at(buf, offset)
    }

    fn write_at(&self, buf: &[u8], offset: u64) -> lobster_types::Result<()> {
        let left = &self.mains.left;
        match left.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1)) {
            Err(_) => Err(Mains::off()),
            Ok(n) => {
                self.mains.writes.fetch_add(1, Ordering::SeqCst);
                if n > 1 {
                    return self.inner.write_at(buf, offset);
                }
                let torn = buf.len() * self.mains.tear / 256;
                self.inner.write_at(&buf[..torn], offset)?;
                Err(Mains::off())
            }
        }
    }

    fn sync(&self) -> lobster_types::Result<()> {
        match self.mains.left.load(Ordering::SeqCst) {
            0 => Err(Mains::off()),
            _ => self.inner.sync(),
        }
    }

    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }
}

/// Per key, every version a session tried to leave, the first being what
/// it began with, and how many of them are acknowledged.
type Tried = std::collections::BTreeMap<&'static [u8], (Vec<Option<Vec<u8>>>, usize)>;

/// A store whose log ends in committed work after its checkpoint, cut
/// there: its media, and what they hold.
fn run_on_media() -> (MemDevice, MemDevice, Tried) {
    let data = MemDevice::new(32 << 20);
    let wal = MemDevice::new(8 << 20);
    let (data, wal) = (Arc::new(data), Arc::new(wal));
    let db = Database::create(data.clone(), wal.clone(), cfg()).unwrap();
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    db.checkpoint().unwrap();
    let mut tried = Tried::new();
    for (key, len, seed) in [
        (&b"a0"[..], 40_000, 32),
        (b"a1", 70_000, 33),
        (b"gone", 9_000, 34),
    ] {
        let blob = pattern(len, seed);
        let mut t = db.begin();
        t.put_blob(&rel, key, &blob).unwrap();
        t.commit().unwrap();
        tried.insert(key, (vec![Some(blob)], 1));
    }
    let mut t = db.begin();
    t.delete_blob(&rel, b"gone").unwrap();
    t.commit().unwrap();
    tried.insert(b"gone", (vec![None], 1));
    std::mem::forget(db);
    (
        as_mem(&(data as Arc<dyn Device>)),
        as_mem(&(wal as Arc<dyn Device>)),
        tried,
    )
}

/// One transaction of `verb` that leaves `new` at `key`, recorded in
/// `tried` as acknowledged if its commit returns.
fn attempt(
    db: &Arc<Database>,
    tried: &mut Tried,
    key: &'static [u8],
    new: Option<Vec<u8>>,
    verb: impl FnOnce(&mut lobster_core::Txn) -> lobster_types::Result<()>,
) -> lobster_types::Result<()> {
    let (versions, acked) = tried.entry(key).or_insert_with(|| (vec![None], 1));
    versions.push(new);
    let mut t = db.begin();
    verb(&mut t)?;
    t.commit()?;
    *acked = versions.len();
    Ok(())
}

/// The session after an open that ran on from its log: a put, an in-place
/// delta, an append, a delete, another put, the first checkpoint, a last
/// put. It stops at the first error, as the power cut stops the process.
fn session(db: &Arc<Database>, tried: &mut Tried) -> lobster_types::Result<()> {
    let rel = db.relation("b").unwrap();
    let last = |tried: &Tried, key: &[u8]| tried[key].0.last().cloned().flatten().unwrap();
    let s0 = pattern(60_000, 41);
    attempt(db, tried, b"s0", Some(s0.clone()), |t| {
        t.put_blob(&rel, b"s0", &s0)
    })?;
    let mut a0 = last(tried, b"a0");
    a0[100..116].fill(7);
    attempt(db, tried, b"a0", Some(a0), |t| {
        t.update_blob(&rel, b"a0", 100, &[7; 16])
    })?;
    let (mut a1, more) = (last(tried, b"a1"), pattern(20_000, 42));
    a1.extend_from_slice(&more);
    attempt(db, tried, b"a1", Some(a1), |t| {
        t.append_blob(&rel, b"a1", &more)
    })?;
    attempt(db, tried, b"s0", None, |t| t.delete_blob(&rel, b"s0"))?;
    let s1 = pattern(90_000, 43);
    attempt(db, tried, b"s1", Some(s1.clone()), |t| {
        t.put_blob(&rel, b"s1", &s1)
    })?;
    db.checkpoint()?;
    let s2 = pattern(30_000, 44);
    attempt(db, tried, b"s2", Some(s2.clone()), |t| {
        t.put_blob(&rel, b"s2", &s2)
    })
}

/// Power is cut at write `cut` of the session after an open that ran on
/// from its log (`u64::MAX`: never), torn to `tear`/256. The reopen holds,
/// for every key, its last acknowledged version or a later one the session
/// tried; the allocator is the audit walk, and the store takes writes.
/// Returns the writes the session issued.
fn run_on_cut(cut: u64, tear: usize) -> u64 {
    let (data, wal, mut tried) = run_on_media();
    let mains = Mains::new(tear);
    let on = |inner| {
        Arc::new(OnMains {
            inner,
            mains: mains.clone(),
        })
    };
    let (data, wal) = (on(data), on(wal));
    let (db, report) = Database::open(data.clone(), wal.clone(), cfg()).unwrap();
    let ran_on = db.metrics().snapshot().checkpoints == 0;
    assert!(ran_on && report.phases.checkpoint.is_zero(), "{report:?}");
    mains.arm(cut);
    let completed = session(&db, &mut tried).is_ok();
    assert!(completed || cut != u64::MAX);
    std::mem::forget(db);

    let at = format!("cut={cut} tear={tear}");
    let capacity = |dev: &OnMains| dev.inner.capacity() as usize;
    let reopened = (
        copy_device(&data.inner, capacity(&data)),
        copy_device(&wal.inner, capacity(&wal)),
    );
    let (db, _) = Database::open(reopened.0, reopened.1, cfg()).unwrap();
    let audit = db.audit_allocator().unwrap();
    assert!(audit.is_exact(), "{at}: {audit:?}");
    let rel = db.relation("b").unwrap();
    let mut t = db.begin();
    for (key, (versions, acked)) in &tried {
        let got = t.get_blob(&rel, key, |b| b.to_vec()).ok();
        assert!(
            versions[acked - 1..].contains(&got),
            "{at}: {} holds no version it may",
            String::from_utf8_lossy(key)
        );
    }
    t.commit().unwrap();
    let mut t = db.begin();
    t.put_blob(&rel, b"post", &pattern(25_000, 45)).unwrap();
    t.commit().unwrap();
    db.checkpoint().unwrap();
    let audit = db.audit_allocator().unwrap();
    assert!(audit.is_exact(), "{at}, after a put: {audit:?}");
    mains.writes.load(Ordering::SeqCst)
}

/// The double cut: an open that undid nothing runs on from its log, and
/// power fails again at each write of the session after it — inside its
/// commits and inside its first checkpoint, which carries what the open
/// deferred. The torture multiplier adds tear points.
#[test]
fn second_cut_at_every_write_after_an_open_that_ran_on() {
    let writes = run_on_cut(u64::MAX, 128);
    assert!(writes >= 10, "{writes} writes");
    let tears = [128, 0, 64, 192, 255, 32, 224, 96, 160, 1];
    for &tear in tears.iter().cycle().take(torture_mult() as usize) {
        for cut in 1..=writes {
            run_on_cut(cut, tear);
        }
    }
}
