//! A checkpoint describes committed state only. A transaction changes its
//! relation's tree at put time, so a checkpoint that flushed the tree while
//! the transaction was open would make a write durable that a crash never
//! commits. Reproduced before the writer gate: commit `a`, open a
//! transaction, put 200 KB under `uncommitted`, checkpoint, roll back,
//! crash, reopen — and `uncommitted` read back with all its bytes.
//!
//! * On the thread that holds the transaction, the checkpoint fails with a
//!   typed error instead of waiting for itself.
//! * On another thread, it waits until the transaction is gone.
//! * Either way the rolled-back put is absent after a crash, and so is an
//!   open transaction's staged delete: the deleted BLOB survives, and the
//!   allocator matches the trees.

use lobster_core::{Config, Database, RelationKind};
use lobster_storage::{Device, MemDevice};
use lobster_types::Error;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

fn cfg() -> Config {
    Config {
        pool_frames: 2048,
        ..Config::default()
    }
}

fn pattern(len: usize, seed: u8) -> Vec<u8> {
    (0..len).map(|i| (i * 31 + seed as usize) as u8).collect()
}

fn devices() -> (Arc<dyn Device>, Arc<dyn Device>) {
    (
        Arc::new(MemDevice::new(64 << 20)),
        Arc::new(MemDevice::new(16 << 20)),
    )
}

/// Commit `a`, then hand `work` a database with it.
fn store(dev: &Arc<dyn Device>, wal: &Arc<dyn Device>) -> Arc<Database> {
    let db = Database::create(dev.clone(), wal.clone(), cfg()).unwrap();
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    let mut t = db.begin();
    t.put_blob(&rel, b"a", &pattern(50_000, 1)).unwrap();
    t.commit().unwrap();
    db
}

/// Reopen after a crash: `a` reads back, `uncommitted` does not exist, and
/// the allocator holds exactly what the trees reference.
fn reopen_and_check(dev: Arc<dyn Device>, wal: Arc<dyn Device>) {
    let (db, _) = Database::open(dev, wal, cfg()).unwrap();
    let rel = db.relation("b").unwrap();
    let mut t = db.begin();
    assert!(t.get_blob(&rel, b"a", |b| b == pattern(50_000, 1)).unwrap());
    assert!(matches!(
        t.get_blob(&rel, b"uncommitted", |b| b.len()),
        Err(Error::KeyNotFound)
    ));
    t.commit().unwrap();
    let audit = db.audit_allocator().unwrap();
    assert!(audit.is_exact(), "{audit:?}");
}

#[test]
fn a_checkpoint_on_the_writing_thread_fails_and_persists_nothing() {
    let (dev, wal) = devices();
    let db = store(&dev, &wal);
    let rel = db.relation("b").unwrap();
    let mut t = db.begin();
    t.put_blob(&rel, b"uncommitted", &pattern(200_000, 2))
        .unwrap();
    assert!(matches!(db.checkpoint(), Err(Error::Unsupported(_))));
    drop(t); // rollback
    drop(db); // crash: no shutdown checkpoint
    reopen_and_check(dev, wal);
}

#[test]
fn a_checkpoint_on_another_thread_waits_for_the_open_transaction() {
    let (dev, wal) = devices();
    let db = store(&dev, &wal);
    let rel = db.relation("b").unwrap();
    let mut t = db.begin();
    t.put_blob(&rel, b"uncommitted", &pattern(200_000, 2))
        .unwrap();
    let done = Arc::new(AtomicBool::new(false));
    let (started, waiting) = mpsc::channel();
    let checkpointer = {
        let (db, done) = (db.clone(), done.clone());
        std::thread::spawn(move || {
            started.send(()).unwrap();
            db.checkpoint().unwrap();
            done.store(true, Ordering::SeqCst);
        })
    };
    waiting.recv().unwrap();
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        !done.load(Ordering::SeqCst),
        "checkpointed an open transaction"
    );
    drop(t); // rollback: the checkpoint may run now
    checkpointer.join().unwrap();
    assert!(done.load(Ordering::SeqCst));
    drop(db);
    reopen_and_check(dev, wal);
}

/// An open transaction's staged delete: the tree no longer holds `a`, but
/// its extents stay allocated until the commit. A checkpoint waits it out;
/// after the rollback and a crash, `a` is back and the allocator exact.
#[test]
fn an_open_delete_is_not_checkpointed() {
    let (dev, wal) = devices();
    let db = store(&dev, &wal);
    let rel = db.relation("b").unwrap();
    let mut t = db.begin();
    t.delete_blob(&rel, b"a").unwrap();
    let checkpointer = {
        let db = db.clone();
        std::thread::spawn(move || db.checkpoint().unwrap())
    };
    std::thread::sleep(Duration::from_millis(20));
    t.abort();
    checkpointer.join().unwrap();
    drop(db);
    reopen_and_check(dev, wal);
}

/// A new transaction's first write waits while a checkpoint holds the gate
/// closed, and proceeds once it is done.
#[test]
fn writers_resume_after_a_checkpoint() {
    let (dev, wal) = devices();
    let db = store(&dev, &wal);
    let rel = db.relation("b").unwrap();
    let threads: Vec<_> = (0..3u8)
        .map(|i| {
            let (db, rel) = (db.clone(), rel.clone());
            std::thread::spawn(move || {
                for j in 0..20u8 {
                    let mut t = db.begin();
                    let key = [i, j];
                    t.put_blob(&rel, &key, &pattern(5_000, i ^ j)).unwrap();
                    t.commit().unwrap();
                }
            })
        })
        .collect();
    for _ in 0..5 {
        db.checkpoint().unwrap();
    }
    threads.into_iter().for_each(|t| t.join().unwrap());
    drop(db);
    let (db, _) = Database::open(dev, wal, cfg()).unwrap();
    let rel = db.relation("b").unwrap();
    let mut t = db.begin();
    for (i, j) in (0..3u8).flat_map(|i| (0..20u8).map(move |j| (i, j))) {
        assert!(t
            .get_blob(&rel, &[i, j], |b| b == pattern(5_000, i ^ j))
            .unwrap());
    }
    t.commit().unwrap();
    assert!(db.audit_allocator().unwrap().is_exact());
}
