//! Tests for the two-stage (pipelined) group committer: per-group
//! WAL-fsync-before-extent-write ordering, sticky error surfacing, and pin
//! budget release on flush completion.

use lobster_core::{Config, Database, PoolVariant, RelationKind};
use lobster_storage::{CrashDevice, Device, MemDevice};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

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

fn pipelined_cfg() -> Config {
    Config {
        pool_frames: 4096, // 16 MiB
        commit_wait: false,
        // Keep checkpoints out of the picture: they flush dirty extents
        // outside the committer and would pollute the device write logs.
        checkpoint_threshold: u64::MAX,
        ..Config::default()
    }
}

/// Spin (test-only) until `cond` holds or the timeout elapses.
fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    cond()
}

// ------------------------------------------------- WAL-before-extents ---

/// §III-C per group: if a batch's WAL fsync never succeeds, none of its
/// extent writes may reach the data device — even with pipelining — and the
/// failure sticks: later commits and drains keep erroring.
#[test]
fn wal_failure_blocks_extent_writes_and_sticks() {
    let data = Arc::new(CrashDevice::new(MemDevice::new(256 << 20)));
    let wal = Arc::new(CrashDevice::new(MemDevice::new(64 << 20)));
    let db = Database::create(data.clone(), wal.clone(), pipelined_cfg()).unwrap();
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();

    // Healthy phase: several async commits, fully flushed.
    for i in 0..4u64 {
        let mut t = db.begin();
        t.put_blob(&rel, &i.to_be_bytes(), &pattern(300_000, i))
            .unwrap();
        t.commit().unwrap();
    }
    db.wait_for_durability().unwrap();
    let m = db.metrics().snapshot();
    assert!(m.commit_flush_batches >= 1, "commits must have flushed");
    assert_eq!(m.commit_errors, 0);
    let healthy_writes = data.write_log().len();
    assert!(healthy_writes > 0, "healthy commits write extents");

    // Kill the WAL device: every append/fsync from here on fails.
    wal.crash_now();
    wal.set_fail_after_crash(true);

    // The next async commit is accepted (no sticky error yet)...
    let mut t = db.begin();
    t.put_blob(&rel, b"lost", &pattern(300_000, 99)).unwrap();
    t.commit().unwrap();

    // ...but its group's fsync fails, so the flush stage must never see it:
    // no extent write for the batch reaches the data device.
    assert!(
        db.wait_for_durability().is_err(),
        "lost commits must surface as Err"
    );
    assert_eq!(
        data.write_log().len(),
        healthy_writes,
        "extent writes issued for a batch whose WAL fsync failed"
    );

    // The failure is sticky: later commits fail fast instead of being
    // acknowledged on top of a lost one.
    let mut t = db.begin();
    t.put_blob(&rel, b"after", &pattern(10_000, 7)).unwrap();
    assert!(t.commit().is_err(), "commit after committer failure");
    assert!(db.wait_for_durability().is_err());
    assert!(db.metrics().snapshot().commit_errors >= 1);
    drop(db);
}

// ------------------------------------------------------- pin budget ---

/// A device whose writes block while the gate is shut. Reads, syncs, and
/// the initial setup writes pass through untouched.
struct GateDevice {
    inner: MemDevice,
    open: Mutex<bool>,
    cv: Condvar,
}

impl GateDevice {
    fn new(cap: usize) -> Self {
        GateDevice {
            inner: MemDevice::new(cap),
            open: Mutex::new(true),
            cv: Condvar::new(),
        }
    }

    fn close(&self) {
        *self.open.lock().unwrap() = false;
    }

    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

impl Device for GateDevice {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> lobster_types::Result<()> {
        self.inner.read_at(buf, offset)
    }

    fn write_at(&self, buf: &[u8], offset: u64) -> lobster_types::Result<()> {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
        drop(open);
        self.inner.write_at(buf, offset)
    }

    fn sync(&self) -> lobster_types::Result<()> {
        self.inner.sync()
    }

    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }
}

/// The pin budget must be released when a batch's *flush* completes, not
/// when its fsync returns: with two groups fsynced but their extent writes
/// stuck on the device, a third oversized commit has to block in `submit`.
#[test]
fn pin_budget_releases_on_flush_completion_not_fsync() {
    let data = Arc::new(GateDevice::new(256 << 20));
    let wal = Arc::new(MemDevice::new(64 << 20));
    let mut cfg = pipelined_cfg();
    cfg.pool_frames = 1024; // 4 MiB pool -> 1 MiB pin budget
    let db = Database::create(data.clone(), wal, cfg).unwrap();
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    data.close();

    let payload = pattern(400 * 1024, 1);
    let flushes = |db: &Database| db.metrics().snapshot().commit_flush_batches;

    // First commit: wait for its group's flush to be submitted so the
    // second commit lands in a group of its own.
    let mut t = db.begin();
    t.put_blob(&rel, b"a", &payload).unwrap();
    t.commit().unwrap();
    assert!(
        wait_until(Duration::from_secs(10), || flushes(&db) == 1),
        "first group's flush never submitted"
    );

    // Second commit: both groups now have their WAL records fsynced and
    // their extent flushes stuck behind the gate.
    let mut t = db.begin();
    t.put_blob(&rel, b"b", &payload).unwrap();
    t.commit().unwrap();
    assert!(
        wait_until(Duration::from_secs(10), || flushes(&db) == 2),
        "second group's flush never submitted"
    );

    // Third commit: 3 x 400 KiB > 1 MiB budget, so `submit` must block
    // until an in-flight flush lands — fsync completion alone is not
    // enough to admit it.
    let done = Arc::new(AtomicBool::new(false));
    let committer = {
        let db = db.clone();
        let rel = rel.clone();
        let payload = payload.clone();
        let done = done.clone();
        std::thread::spawn(move || {
            let mut t = db.begin();
            t.put_blob(&rel, b"c", &payload).unwrap();
            t.commit().unwrap();
            done.store(true, Ordering::Release);
        })
    };
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        !done.load(Ordering::Acquire),
        "third commit admitted while both flushes were still in flight"
    );
    assert!(db.metrics().snapshot().commit_inflight_peak >= 2);

    // Open the gate: flushes land, the budget frees, the commit goes
    // through, and everything becomes durable.
    data.open();
    committer.join().unwrap();
    assert!(done.load(Ordering::Acquire));
    db.wait_for_durability().unwrap();
    for (key, seed) in [(b"a", 1u64), (b"b", 1), (b"c", 1)] {
        let mut t = db.begin();
        let out = t.get_blob(&rel, key, |b| b.to_vec()).unwrap();
        t.commit().unwrap();
        assert_eq!(out, pattern(400 * 1024, seed));
    }
}

// ---------------------------------------------------- fused fill+hash ---

/// `fill_extent_hashed` copies and hashes in one pass; the stored SHA-256
/// must still match the content for both pool variants (scrub verifies).
#[test]
fn fused_fill_hash_matches_scrub_both_variants() {
    for (label, variant) in [
        ("vm", PoolVariant::Vm { alias: None }),
        ("ht", PoolVariant::Ht),
    ] {
        let cfg = Config {
            pool_variant: variant,
            ..pipelined_cfg()
        };
        let db = Database::create(
            Arc::new(MemDevice::new(256 << 20)),
            Arc::new(MemDevice::new(64 << 20)),
            cfg,
        )
        .unwrap();
        let rel = db.create_relation("b", RelationKind::Blob).unwrap();
        for (i, size) in [0usize, 1, 4096, 70_000, 1_000_000].iter().enumerate() {
            let data = pattern(*size, i as u64 + 10);
            let mut t = db.begin();
            t.put_blob(&rel, &(i as u64).to_be_bytes(), &data).unwrap();
            t.commit().unwrap();
            let mut t = db.begin();
            let out = t
                .get_blob(&rel, &(i as u64).to_be_bytes(), |b| b.to_vec())
                .unwrap();
            t.commit().unwrap();
            assert_eq!(out, data, "{label} size {size}");
        }
        db.wait_for_durability().unwrap();
        let report = db.scrub().unwrap();
        assert!(report.is_clean(), "{label}: {:?}", report.corrupt);
        assert_eq!(report.blobs, 5, "{label}");
    }
}

// ------------------------------- delete racing an in-flight flush ---

/// A delete whose blob has an extent flush still in flight must not
/// deadlock the pipeline: the delete's group is metadata-only (nothing to
/// flush), but retiring it drops + frees the blob's extents, and
/// `drop_extent` spin-waits on the in-flight batch's shared latches — on
/// the flush-stage thread itself, the only thread that can ever reap that
/// batch. The flush stage must wait the conflicting flight out first.
#[test]
fn delete_racing_inflight_append_flush_does_not_deadlock() {
    let data = Arc::new(GateDevice::new(256 << 20));
    let wal = Arc::new(MemDevice::new(64 << 20));
    let db = Database::create(data.clone(), wal, pipelined_cfg()).unwrap();
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();

    // Blob with a partially-filled tail extent, fully durable.
    let mut t = db.begin();
    t.put_blob(&rel, b"x", &pattern(300_000, 3)).unwrap();
    t.commit().unwrap();
    db.wait_for_durability().unwrap();
    let flushes = |db: &Database| db.metrics().snapshot().commit_flush_batches;
    let base = flushes(&db);

    // Append: dirties the existing tail extent; its flush wedges on the
    // gate holding shared latches on the blob's extents.
    data.close();
    let mut t = db.begin();
    t.append_blob(&rel, b"x", &pattern(100_000, 4)).unwrap();
    t.commit().unwrap();
    assert!(
        wait_until(Duration::from_secs(10), || flushes(&db) == base + 1),
        "append flush never submitted"
    );

    // Delete the same blob: its metadata-only group frees the extents the
    // stuck flight is still latching.
    let mut t = db.begin();
    t.delete_blob(&rel, b"x").unwrap();
    t.commit().unwrap();
    // Give the flush stage time to pick the delete group up (pre-fix this
    // is where it wedged spinning in drop_extent).
    std::thread::sleep(Duration::from_millis(200));

    // Open the gate: the append flush lands, the delete retires, the
    // frontier advances. Pre-fix, the spinning flush stage never reaped
    // the landed flight and this wait hung forever.
    data.open();
    let done = Arc::new(AtomicBool::new(false));
    let waiter = {
        let db = db.clone();
        let done = done.clone();
        std::thread::spawn(move || {
            db.wait_for_durability().unwrap();
            done.store(true, Ordering::Release);
        })
    };
    assert!(
        wait_until(Duration::from_secs(20), || done.load(Ordering::Acquire)),
        "durability frontier stuck: delete group deadlocked the flush stage"
    );
    waiter.join().unwrap();

    let mut t = db.begin();
    assert!(
        t.get_blob(&rel, b"x", |b| b.to_vec()).is_err(),
        "deleted blob still readable"
    );
    t.commit().unwrap();
    assert_eq!(db.metrics().snapshot().commit_errors, 0);
    assert!(db.scrub().unwrap().is_clean());
}
