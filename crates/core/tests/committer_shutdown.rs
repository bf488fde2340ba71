//! Regression tests for group-committer teardown: dropping the database
//! must terminate the commit thread promptly — it finishes the groups
//! still queued and exits once the queue disconnects — including when the
//! committer is sitting on a sticky I/O error.

use lobster_core::{Config, Database, RelationKind};
use lobster_storage::{FaultConfig, FaultDevice, FaultKind, MemDevice};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

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

/// Move the database to a helper thread, drop it there, and fail loudly if
/// the teardown does not complete within the deadline (a hung committer
/// stage would otherwise hang the whole test binary).
fn assert_drop_terminates(db: Arc<Database>, deadline: Duration, what: &str) {
    let (tx, rx) = mpsc::channel();
    let h = std::thread::spawn(move || {
        drop(db);
        let _ = tx.send(());
    });
    rx.recv_timeout(deadline)
        .unwrap_or_else(|_| panic!("{what}: committer teardown hung"));
    h.join().unwrap();
}

#[test]
fn pipelined_committer_drop_terminates_under_load() {
    let cfg = Config {
        pool_frames: 2048,
        commit_wait: false, // async commits keep the commit thread busy
        ..Config::default()
    };
    let data = Arc::new(MemDevice::new(64 << 20));
    let wal = Arc::new(MemDevice::new(16 << 20));
    let db = Database::create(data, wal, cfg).unwrap();
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    for i in 0u64..32 {
        let mut t = db.begin();
        t.put_blob(&rel, format!("k{i}").as_bytes(), &pattern(40_000, i))
            .unwrap();
        t.commit().unwrap();
    }
    // Drop with groups still queued: the commit thread must finish them
    // and notice the disconnect.
    drop(rel);
    assert_drop_terminates(db, Duration::from_secs(60), "under load");
}

#[test]
fn pipelined_committer_drop_terminates_after_sticky_error() {
    // Permanent write faults push the committer into its sticky fail-stop;
    // teardown must still terminate.
    let mut fc = FaultConfig::new(0xD1E, 1000, &[FaultKind::PermanentWrite]);
    fc.max_injections = 8;
    let data = Arc::new(FaultDevice::new(MemDevice::new(64 << 20), fc));
    let wal = Arc::new(MemDevice::new(16 << 20));
    let cfg = Config {
        pool_frames: 2048,
        commit_wait: false,
        ..Config::default()
    };
    let db = Database::create(data.clone(), wal, cfg).unwrap();
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    data.arm();
    for i in 0u64..16 {
        let mut t = db.begin();
        let _ = t
            .put_blob(&rel, format!("k{i}").as_bytes(), &pattern(40_000, i))
            .and_then(|()| t.commit());
    }
    // The sticky error (if any commit's flush hit the injector) must be a
    // clean fail-stop, not a wedge.
    let _ = db.wait_for_durability();
    data.disarm();
    drop(rel);
    assert_drop_terminates(db, Duration::from_secs(60), "after sticky error");
}
