//! Tests for the two-stage (pipelined) group committer: the per-group
//! ordering rule (WAL fsync before any in-place extent write; fresh extents
//! may precede it), sticky error surfacing, pin budget release on flush
//! completion, and the flags of an extent with more than one flush owed.

use lobster_core::{Config, Database, PoolVariant, RelationKind};
use lobster_extent::ExtentSpec;
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

/// The configuration in which a large put starts writing before it commits:
/// the commit waits for the flush.
fn waiting_cfg() -> Config {
    Config {
        commit_wait: true,
        ..pipelined_cfg()
    }
}

fn copy_device(src: &MemDevice) -> Arc<MemDevice> {
    let dst = MemDevice::new(src.capacity() as usize);
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

/// The allocation view of `key`'s extents, read inside `t`.
fn extents_of(
    db: &Database,
    t: &mut lobster_core::Txn,
    rel: &lobster_core::Relation,
    key: &[u8],
) -> Vec<ExtentSpec> {
    let state = t.blob_state(rel, key).unwrap().expect("blob exists");
    let table = db.allocator().table().clone();
    (state.extents.iter().enumerate())
        .map(|(pos, &pid)| ExtentSpec::new(pid, table.size_of(pos)))
        .collect()
}

/// Whether every page of `spec` is free in `db`'s allocator. The allocator
/// reports free runs in its own units, which start at page 1 (page 0 is
/// the header).
fn is_free(db: &Database, spec: ExtentSpec) -> bool {
    let start = spec.start.raw() - 1;
    (db.allocator().free_runs().iter()).any(|&(s, l)| s <= start && start + spec.pages <= s + l)
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

/// In place never: while the WAL cannot become durable, no write that
/// changes an extent a durable Blob State references reaches the data
/// device — not a delta update, not an append into a partly filled extent —
/// even in the configuration where large puts write early. The failure
/// sticks: later commits and drains keep erroring.
#[test]
fn wal_failure_in_place_writes_never_reach_the_data_device() {
    let data = Arc::new(CrashDevice::new(MemDevice::new(256 << 20)));
    let wal = Arc::new(CrashDevice::new(MemDevice::new(64 << 20)));
    let db = Database::create(data.clone(), wal.clone(), waiting_cfg()).unwrap();
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();

    // Healthy phase: 74 pages of content, the last 11 of them in a 64-page
    // extent, so a small append stays inside it.
    let mut t = db.begin();
    t.put_blob(&rel, b"x", &pattern(300_000, 1)).unwrap();
    t.commit().unwrap();
    let m = db.metrics().snapshot();
    assert!(m.commit_flush_batches >= 1, "commits must have flushed");
    assert_eq!(m.commit_errors, 0);
    let healthy_writes = data.write_log().len();
    assert!(healthy_writes > 0, "healthy commits write extents");
    let healthy_eager = m.eager_flush_batches;

    // Kill the WAL device: every append/fsync from here on fails.
    wal.crash_now();
    wal.set_fail_after_crash(true);

    // 5 000 bytes of a 16-page extent: a delta, patched in place.
    let mut t = db.begin();
    t.update_blob(&rel, b"x", 100_000, &pattern(5_000, 2))
        .unwrap();
    t.append_blob(&rel, b"x", &pattern(10_000, 3)).unwrap();
    assert!(
        t.commit().is_err(),
        "a commit whose fsync failed must error"
    );
    assert_eq!(
        data.write_log().len(),
        healthy_writes,
        "in-place extent writes issued for a batch whose WAL fsync failed"
    );
    assert_eq!(db.metrics().snapshot().eager_flush_batches, healthy_eager);

    // The failure is sticky: later commits fail fast instead of being
    // acknowledged on top of a lost one.
    let mut t = db.begin();
    t.put_blob(&rel, b"after", &pattern(10_000, 7)).unwrap();
    assert!(t.commit().is_err(), "commit after committer failure");
    assert!(db.wait_for_durability().is_err());
    assert!(db.metrics().snapshot().commit_errors >= 1);
    assert_eq!(data.write_log().len(), healthy_writes);
    drop(db);
}

/// Fresh may precede: a 1 MiB put under the same dead WAL does write to
/// the data device before its commit — into freshly allocated extents only.
/// The commit still errors and sticks; after a reopen the key is absent,
/// the extents it wrote are free, and the next put takes them again.
#[test]
fn wal_failure_fresh_extents_may_precede_and_are_reclaimed() {
    let data = Arc::new(CrashDevice::new(MemDevice::new(256 << 20)));
    let wal = Arc::new(CrashDevice::new(MemDevice::new(64 << 20)));
    let db = Database::create(data.clone(), wal.clone(), waiting_cfg()).unwrap();
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    let mut t = db.begin();
    t.put_blob(&rel, b"kept", &pattern(300_000, 1)).unwrap();
    t.commit().unwrap();
    db.checkpoint().unwrap();
    let healthy_writes = data.write_log().len();
    let healthy_pages = db.allocator().pages_in_use();

    wal.crash_now();
    wal.set_fail_after_crash(true);

    let mut t = db.begin();
    t.put_blob(&rel, b"lost", &pattern(1 << 20, 9)).unwrap();
    let lost = extents_of(&db, &mut t, &rel, b"lost");
    assert!(db.metrics().snapshot().eager_flush_batches >= 1);
    assert!(
        t.commit().is_err(),
        "a commit whose fsync failed must error"
    );
    // The group retired (as failed) only after its flights landed.
    let early: Vec<(u64, usize)> = data.write_log()[healthy_writes..].to_vec();
    assert!(!early.is_empty(), "a 1 MiB put writes before its commit");
    for (off, len) in &early {
        let (first, last) = (off / 4096, (off + *len as u64 - 1) / 4096);
        assert!(
            (lost.iter()).any(|e| e.start.raw() <= first && last < e.start.raw() + e.pages),
            "early write at pages {first}..={last} is outside the put's fresh extents"
        );
    }
    let mut t = db.begin();
    t.put_blob(&rel, b"after", &pattern(10_000, 7)).unwrap();
    assert!(t.commit().is_err(), "commit after committer failure");
    assert!(db.wait_for_durability().is_err());
    std::mem::forget(db); // the process dies with its WAL device

    let (db, _) = Database::open(
        copy_device(data.inner()),
        copy_device(wal.inner()),
        waiting_cfg(),
    )
    .unwrap();
    let rel = db.relation("b").unwrap();
    let mut t = db.begin();
    assert!(t.blob_state(&rel, b"lost").unwrap().is_none());
    assert_eq!(
        t.get_blob(&rel, b"kept", |b| b.to_vec()).unwrap(),
        pattern(300_000, 1)
    );
    t.commit().unwrap();
    assert_eq!(db.allocator().pages_in_use(), healthy_pages);
    for e in &lost {
        assert!(is_free(&db, *e), "{e:?} leaked by the failed put");
    }
    let mut t = db.begin();
    t.put_blob(&rel, b"next", &pattern(1 << 20, 11)).unwrap();
    assert_eq!(extents_of(&db, &mut t, &rel, b"next"), lost);
    t.commit().unwrap();
    assert!(db.scrub().unwrap().is_clean());
}

/// Eligibility is observable, not configured: only a put large enough for
/// the overlap to pay writes early, and only where the commit waits.
#[test]
fn only_large_puts_under_a_waiting_commit_write_early() {
    let eager = |cfg: Config, len: usize| {
        let db = Database::create(
            Arc::new(MemDevice::new(64 << 20)),
            Arc::new(MemDevice::new(16 << 20)),
            cfg,
        )
        .unwrap();
        let rel = db.create_relation("b", RelationKind::Blob).unwrap();
        let before = db.metrics().snapshot();
        let mut t = db.begin();
        t.put_blob(&rel, b"k", &pattern(len, 5)).unwrap();
        t.commit().unwrap();
        db.wait_for_durability().unwrap();
        let got = (db.begin())
            .get_blob(&rel, b"k", |b| b == pattern(len, 5))
            .unwrap();
        assert!(got, "{len} bytes read back wrong");
        let m = db.metrics().snapshot() - before;
        // Every content page is written exactly once either way.
        assert_eq!(m.pages_written, (len as u64).div_ceil(4096));
        (m.eager_flush_batches, m.eager_flush_pages)
    };
    assert_eq!(eager(waiting_cfg(), 4 << 10), (0, 0));
    assert_eq!(eager(waiting_cfg(), 100 << 10), (0, 0));
    let (batches, pages) = eager(waiting_cfg(), 1 << 20);
    assert!(batches >= 1);
    assert_eq!(
        pages, 256,
        "an eager put leaves no page for after the fsync"
    );
    assert_eq!(eager(pipelined_cfg(), 1 << 20), (0, 0));
}

// ------------------------------------------------------- pin budget ---

/// A device whose writes block while the gate is shut, except for as many
/// as the test lets through one by one. Reads, syncs, and the initial setup
/// writes pass through untouched.
struct GateDevice {
    inner: MemDevice,
    gate: Mutex<Gate>,
    cv: Condvar,
}

struct Gate {
    open: bool,
    /// Writes that may pass a shut gate.
    permits: u64,
    /// Writes blocked at the gate right now.
    waiting: u64,
}

impl GateDevice {
    fn new(cap: usize) -> Self {
        GateDevice {
            inner: MemDevice::new(cap),
            gate: Mutex::new(Gate {
                open: true,
                permits: 0,
                waiting: 0,
            }),
            cv: Condvar::new(),
        }
    }

    fn close(&self) {
        self.gate.lock().unwrap().open = false;
    }

    fn open(&self) {
        self.gate.lock().unwrap().open = true;
        self.cv.notify_all();
    }

    fn permit(&self, writes: u64) {
        self.gate.lock().unwrap().permits += writes;
        self.cv.notify_all();
    }

    fn waiting(&self) -> u64 {
        self.gate.lock().unwrap().waiting
    }
}

/// Opens the gates when a test ends, failed assertion or not: dropping the
/// database drains the committer, which waits on the devices.
struct OpenOnDrop(Vec<Arc<GateDevice>>);

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        self.0.iter().for_each(|gate| gate.open());
    }
}

impl Device for GateDevice {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> lobster_types::Result<()> {
        self.inner.read_at(buf, offset)
    }

    fn write_at(&self, buf: &[u8], offset: u64) -> lobster_types::Result<()> {
        let mut gate = self.gate.lock().unwrap();
        gate.waiting += 1;
        while !gate.open && gate.permits == 0 {
            gate = self.cv.wait(gate).unwrap();
        }
        gate.waiting -= 1;
        if !gate.open {
            gate.permits -= 1;
        }
        drop(gate);
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

// ------------------------------- two flushes owed to one extent ---

/// Two transactions wrote the same extent before either was flushed. When
/// the first one's flush lands, the second one's is still queued behind its
/// WAL fsync — not submitted, holding no latch — and the extent still
/// holds bytes the device has not seen: it must stay dirty and pinned,
/// neither evictable nor trimmable, until that second flush lands too.
#[test]
fn flags_outlive_a_landed_flush_while_a_later_one_is_owed() {
    let data = Arc::new(GateDevice::new(256 << 20));
    let wal = Arc::new(GateDevice::new(64 << 20));
    let db = Database::create(data.clone(), wal.clone(), pipelined_cfg()).unwrap();
    let _open = OpenOnDrop(vec![data.clone(), wal.clone()]);
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    let pool = db.node_pool().clone(); // the vm variant's one pool

    // 74 pages of content; the last extent holds 11 of its 64 pages.
    let mut expected = pattern(300_000, 3);
    let mut t = db.begin();
    t.put_blob(&rel, b"x", &expected).unwrap();
    let last = *extents_of(&db, &mut t, &rel, b"x").last().unwrap();
    t.commit().unwrap();
    db.wait_for_durability().unwrap();
    assert!(!pool.is_dirty(last.start));

    // T1 appends into the last extent; its group sticks at the WAL write.
    wal.close();
    data.close();
    let mut t = db.begin();
    t.append_blob(&rel, b"x", &pattern(10_000, 4)).unwrap();
    expected.extend(pattern(10_000, 4));
    t.commit().unwrap();
    assert!(wait_until(Duration::from_secs(10), || wal.waiting() == 1));
    // T2 appends into the same extent — nothing latches it yet — and
    // queues behind T1.
    let mut t = db.begin();
    t.append_blob(&rel, b"x", &pattern(10_000, 5)).unwrap();
    expected.extend(pattern(10_000, 5));
    t.commit().unwrap();

    // T1's group becomes durable and its flush N reaches the data gate;
    // T2's group is held at the WAL gate, its flush N+1 not yet begun.
    wal.permit(1);
    assert!(wait_until(Duration::from_secs(10), || {
        data.waiting() == 1 && wal.waiting() == 1
    }));
    let written = db.metrics().snapshot().pages_written;
    data.permit(1);
    assert!(
        wait_until(Duration::from_secs(10), || {
            db.metrics().snapshot().pages_written > written
        }),
        "flush N never landed"
    );

    // N landed and released its latch; N+1 is still owed.
    assert!(
        pool.is_dirty(last.start),
        "first flush cleaned an extent a later flush still has to write"
    );
    let frames = pool.frames_in_use();
    pool.trim_extent(ExtentSpec::new(last.start, 1));
    assert_eq!(pool.frames_in_use(), frames, "trimmed under a queued flush");
    pool.drop_caches();
    assert!(pool.is_resident(last.start), "evicted under a queued flush");

    wal.open();
    data.open();
    db.wait_for_durability().unwrap();
    assert!(!pool.is_dirty(last.start), "last flush owed must clean");
    pool.drop_caches();
    assert!(!pool.is_resident(last.start));
    let got = db.begin().get_blob(&rel, b"x", |b| b.to_vec()).unwrap();
    assert!(got == expected, "content after both flushes landed");
    assert_eq!(db.metrics().snapshot().commit_errors, 0);
}

// -------------------------------------- abort with writes in flight ---

/// Aborting a transaction whose eager writes are still on the device waits
/// for them: their tickets latch the frames the rollback drops, and the
/// pages must not return to the allocator under a write in progress. After
/// the abort nothing is left behind — no frame, no page, no latch, no pin.
#[test]
fn abort_waits_for_eager_writes_before_discarding_extents() {
    let data = Arc::new(GateDevice::new(256 << 20));
    let wal = Arc::new(MemDevice::new(64 << 20));
    let db = Database::create(data.clone(), wal, waiting_cfg()).unwrap();
    let _open = OpenOnDrop(vec![data.clone()]);
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    let pool = db.node_pool().clone();
    db.checkpoint().unwrap();
    let (frames, pages) = (pool.frames_in_use(), db.allocator().pages_in_use());

    data.close();
    let mut t = db.begin();
    t.put_blob(&rel, b"doomed", &pattern(1 << 20, 8)).unwrap();
    assert!(db.metrics().snapshot().eager_flush_batches >= 1);
    assert!(wait_until(Duration::from_secs(10), || data.waiting() >= 1));
    assert!(pool.frames_in_use() >= frames + 256);

    let done = Arc::new(AtomicBool::new(false));
    let aborter = {
        let done = done.clone();
        std::thread::spawn(move || {
            t.abort();
            done.store(true, Ordering::Release);
        })
    };
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        !done.load(Ordering::Acquire),
        "abort returned while its eager writes were still on the device"
    );
    assert!(pool.frames_in_use() >= frames + 256, "frames dropped early");
    assert!(db.allocator().pages_in_use() > pages, "pages freed early");

    data.open();
    aborter.join().unwrap();
    assert_eq!(pool.frames_in_use(), frames);
    assert_eq!(db.allocator().pages_in_use(), pages);
    assert_eq!(pool.audit().held_latches(), 0);
    pool.audit().assert_no_leaked_pins();
    assert!(db.begin().blob_state(&rel, b"doomed").unwrap().is_none());

    // The pages are reusable at once, and clean.
    let mut t = db.begin();
    t.put_blob(&rel, b"next", &pattern(1 << 20, 9)).unwrap();
    t.commit().unwrap();
    let got = db.begin().get_blob(&rel, b"next", |b| b.to_vec()).unwrap();
    assert!(got == pattern(1 << 20, 9));
    assert!(db.scrub().unwrap().is_clean());
}
