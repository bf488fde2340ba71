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

use lobster_core::{Config, Database, RelationKind};
use lobster_storage::{CrashDevice, Device, MemDevice};
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

/// One scenario execution with a crash armed after `crash_after` data-device
/// writes (the trigger write is torn in half). Returns whether the scenario
/// completed before the crash fired.
fn run_scenario(crash_after: u64) -> bool {
    const CAP: usize = 96 << 20;
    let data_dev = Arc::new(CrashDevice::new(MemDevice::new(CAP)));
    let wal_dev = Arc::new(MemDevice::new(32 << 20));

    let stable = pattern(150_000, 1);
    let late_a = pattern(60_000, 2);
    let late_b = pattern(90_000, 3);

    // Phase 1: stable data, checkpointed.
    let db = Database::create(data_dev.clone(), wal_dev.clone(), cfg()).unwrap();
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

    // The same pages take the next put, whatever garbage they hold.
    let again = pattern(1 << 20, 23);
    let mut t = db2.begin();
    t.put_blob(&rel2, b"big", &again).unwrap();
    let state2 = t.blob_state(&rel2, b"big").unwrap().unwrap();
    assert_eq!(state2.extents, state.extents);
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
    let rel2 = db2.relation("b").unwrap();
    let mut t = db2.begin();
    assert_eq!(t.get_blob(&rel2, b"good", |b| b.to_vec()).unwrap(), good);
    assert!(
        t.blob_state(&rel2, b"torn").unwrap().is_none(),
        "a torn commit record must roll the transaction back"
    );
    t.commit().unwrap();
}
