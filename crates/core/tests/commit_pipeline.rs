//! Tests for the group committer's one commit thread: the per-group
//! ordering rule (WAL fsync before any in-place extent write; fresh extents
//! and relocation copies precede it), sticky error surfacing, pin budget
//! release on in-place write completion and the stalls it causes, a
//! checkpoint behind a held in-place write, and the flags of an extent
//! with more than one flush owed.

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

/// The configuration in which a put starts writing before it commits: the
/// commit waits for the flush.
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
    state.extent_specs(db.tier_table())
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
/// even in the configuration where puts write early. The failure
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
    // acknowledged on top of a lost one. The later put wrote its fresh
    // extents before its commit failed; nothing else reached the device.
    let mut t = db.begin();
    t.put_blob(&rel, b"after", &pattern(10_000, 7)).unwrap();
    let fresh = extents_of(&db, &mut t, &rel, b"after");
    assert!(t.commit().is_err(), "commit after committer failure");
    assert!(db.wait_for_durability().is_err());
    assert!(db.metrics().snapshot().commit_errors >= 1);
    for (off, len) in &data.write_log()[healthy_writes..] {
        let (first, last) = (off / 4096, (off + *len as u64 - 1) / 4096);
        assert!(
            (fresh.iter()).any(|e| e.start.raw() <= first && last < e.start.raw() + e.pages),
            "write at pages {first}..={last} outside the later put's fresh extents"
        );
    }
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
    // The reopen's checkpoint may have put its free map on pages the put
    // held; nothing else of the put is held, and the next put takes the
    // same pages.
    let audit = db.audit_allocator().unwrap();
    assert!(audit.is_exact(), "{audit:?}");
    let map = audit.retiring[0];
    let overlaps_map = |e: &ExtentSpec| {
        e.start < map.start.offset(map.pages) && map.start < e.start.offset(e.pages)
    };
    for e in &lost {
        assert!(
            is_free(&db, *e) || overlaps_map(e),
            "{e:?} leaked by the failed put (map {map:?})"
        );
    }
    let mut t = db.begin();
    t.put_blob(&rel, b"next", &pattern(1 << 20, 11)).unwrap();
    let next = extents_of(&db, &mut t, &rel, b"next");
    assert_eq!(next.len(), lost.len());
    for (new, old) in next.iter().zip(&lost) {
        assert!(
            new == old || overlaps_map(old),
            "the next put reuses the pages: {next:?} vs {lost:?}, map {map:?}"
        );
    }
    t.commit().unwrap();
    assert!(db.scrub().unwrap().is_clean());
}

/// Fresh may precede, for a relocation: its copy goes to a freshly
/// allocated placement and is written before its record, so under a dead
/// WAL the data device sees writes into the new placement only. The
/// commit errors; after a reopen the blob reads from its old placement and
/// the new pages are free.
#[test]
fn wal_failure_relocation_copies_may_precede_and_are_reclaimed() {
    let data = Arc::new(CrashDevice::new(MemDevice::new(256 << 20)));
    let wal = Arc::new(CrashDevice::new(MemDevice::new(64 << 20)));
    let db = Database::create(data.clone(), wal.clone(), waiting_cfg()).unwrap();
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    let content = pattern(700_000, 4);
    let mut t = db.begin();
    t.put_blob(&rel, b"moved", &content).unwrap();
    let old = extents_of(&db, &mut t, &rel, b"moved");
    t.commit().unwrap();
    db.checkpoint().unwrap();
    let healthy_writes = data.write_log().len();
    let healthy_pages = db.allocator().pages_in_use();

    wal.crash_now();
    wal.set_fail_after_crash(true);

    let mut t = db.begin();
    assert!(t.relocate_blob(&rel, b"moved").unwrap(), "nothing to move");
    let new = extents_of(&db, &mut t, &rel, b"moved");
    assert!(new.iter().all(|e| !old.contains(e)), "{new:?} vs {old:?}");
    assert!(
        t.commit().is_err(),
        "a commit whose fsync failed must error"
    );
    let early: Vec<(u64, usize)> = data.write_log()[healthy_writes..].to_vec();
    assert!(!early.is_empty(), "the copy is written before the record");
    for (off, len) in &early {
        let (first, last) = (off / 4096, (off + *len as u64 - 1) / 4096);
        assert!(
            (new.iter()).any(|e| e.start.raw() <= first && last < e.start.raw() + e.pages),
            "write at pages {first}..={last} is outside the new placement"
        );
    }
    std::mem::forget(db); // the process dies with its WAL device

    let (db, _) = Database::open(
        copy_device(data.inner()),
        copy_device(wal.inner()),
        waiting_cfg(),
    )
    .unwrap();
    let rel = db.relation("b").unwrap();
    let mut t = db.begin();
    assert_eq!(extents_of(&db, &mut t, &rel, b"moved"), old);
    assert!(t.get_blob(&rel, b"moved", |b| b == content).unwrap());
    t.commit().unwrap();
    assert_eq!(db.allocator().pages_in_use(), healthy_pages);
    let audit = db.audit_allocator().unwrap();
    assert!(audit.is_exact(), "{audit:?}");
    // The reopen's checkpoint may have put its free map on pages the copy
    // held; nothing else of the copy is held.
    let map = audit.retiring[0];
    let overlaps_map = |e: &ExtentSpec| {
        e.start < map.start.offset(map.pages) && map.start < e.start.offset(e.pages)
    };
    for e in &new {
        assert!(
            is_free(&db, *e) || overlaps_map(e),
            "{e:?} leaked by the failed relocation (map {map:?})"
        );
    }
    assert!(db.scrub().unwrap().is_clean());
}

/// Eligibility is observable, not configured: under a waiting commit every
/// put with extents copies, submits all of them as one batch and then
/// hashes; where the commit does not wait, none writes early.
#[test]
fn every_put_under_a_waiting_commit_writes_early_in_one_batch() {
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
    assert_eq!(eager(waiting_cfg(), 4 << 10), (1, 1));
    assert_eq!(eager(waiting_cfg(), 100 << 10), (1, 25));
    assert_eq!(
        eager(waiting_cfg(), 1 << 20),
        (1, 256),
        "a put leaves no page for after the fsync"
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

/// A 2 MiB blob, durable, whose two largest extents then get a delta each
/// over half of their pages: 768 KiB of in-place writes in one
/// transaction, committed asynchronously once `gate` is shut. Returns the
/// patched content.
fn patch_in_place(db: &Arc<Database>, rel: &lobster_core::Relation, gate: &GateDevice) -> Vec<u8> {
    let blob = pattern(2 << 20, 1);
    let mut t = db.begin();
    t.put_blob(rel, b"a", &blob).unwrap();
    t.commit().unwrap();
    db.wait_for_durability().unwrap();
    let patches: Vec<(u64, Vec<u8>)> = {
        let state = db.begin().blob_state(rel, b"a").unwrap().unwrap();
        let specs = state.content_specs(db.tier_table(), db.geometry());
        let mut by_size: Vec<usize> = (0..specs.len()).collect();
        by_size.sort_by_key(|&i| std::cmp::Reverse(specs[i].pages));
        (by_size[..2].iter())
            .map(|&i| {
                let at = specs[..i].iter().map(|s| s.pages * 4096).sum::<u64>();
                (at, pattern(specs[i].pages as usize * 4096 / 2, i as u64))
            })
            .collect()
    };
    gate.close();
    let mut patched = blob;
    let mut t = db.begin();
    for (at, patch) in &patches {
        t.update_blob(rel, b"a", *at, patch).unwrap();
        patched[*at as usize..*at as usize + patch.len()].copy_from_slice(patch);
    }
    t.commit().unwrap();
    patched
}

/// A store whose one unretired group's in-place writes are held at the
/// gate of its data device.
struct Gated {
    db: Arc<Database>,
    rel: Arc<lobster_core::Relation>,
    data: Arc<GateDevice>,
    wal: Arc<MemDevice>,
    /// The blob's content once the group's writes land.
    patched: Vec<u8>,
}

/// A 4 MiB pool (1 MiB pin budget) on a gated data device, with one group
/// of 768 KiB of deltas whose in-place writes are held at the gate: its
/// WAL fsync returned, its writes did not land.
fn gated_group() -> Gated {
    let data = Arc::new(GateDevice::new(256 << 20));
    let wal = Arc::new(MemDevice::new(64 << 20));
    let mut cfg = pipelined_cfg();
    cfg.pool_frames = 1024; // 4 MiB pool -> 1 MiB pin budget
    let db = Database::create(data.clone(), wal.clone(), cfg).unwrap();
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    let patched = patch_in_place(&db, &rel, &data);
    assert!(
        wait_until(Duration::from_secs(10), || data.waiting() >= 1),
        "the group's in-place writes never reached the gate"
    );
    Gated {
        db,
        rel,
        data,
        wal,
        patched,
    }
}

/// Commit a 400 KiB put on another thread; the flag is raised once its
/// `commit` returned.
fn put_on_a_thread(
    db: &Arc<Database>,
    rel: &Arc<lobster_core::Relation>,
    payload: &[u8],
) -> (std::thread::JoinHandle<()>, Arc<AtomicBool>) {
    let done = Arc::new(AtomicBool::new(false));
    let (db, rel, payload, flag) = (db.clone(), rel.clone(), payload.to_vec(), done.clone());
    let h = std::thread::spawn(move || {
        let mut t = db.begin();
        t.put_blob(&rel, b"c", &payload).unwrap();
        t.commit().unwrap();
        flag.store(true, Ordering::Release);
    });
    (h, done)
}

/// The pin budget is released when a group's in-place writes land, not
/// when its fsync returns: with one group fsynced but its in-place writes
/// held at the gate, a 400 KiB commit (768 KiB + 400 KiB > 1 MiB) has to
/// block in `submit`.
#[test]
fn pin_budget_releases_on_flush_completion_not_fsync() {
    let Gated {
        db,
        rel,
        data,
        patched,
        ..
    } = gated_group();
    let _open = OpenOnDrop(vec![data.clone()]);
    let payload = pattern(400 * 1024, 3);
    let (committer, done) = put_on_a_thread(&db, &rel, &payload);
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        !done.load(Ordering::Acquire),
        "a commit admitted while the group's writes were still held"
    );

    // Open the gate: the writes land, the budget frees, the commit goes
    // through, and everything becomes durable.
    data.open();
    committer.join().unwrap();
    assert!(done.load(Ordering::Acquire));
    db.wait_for_durability().unwrap();
    for (key, want) in [(&b"a"[..], &patched), (b"c", &payload)] {
        let mut t = db.begin();
        let out = t.get_blob(&rel, key, |b| b.to_vec()).unwrap();
        t.commit().unwrap();
        assert!(
            out == *want,
            "{} reads back wrong",
            String::from_utf8_lossy(key)
        );
    }
}

/// The one place the pipeline makes a committer wait is the pin budget,
/// and `commit_stalls` counts exactly those waits: a submit that finds the
/// budget full counts one, and one that fits counts none.
#[test]
fn a_submit_that_waits_on_a_full_budget_is_one_stall() {
    let Gated { db, rel, data, .. } = gated_group();
    let _open = OpenOnDrop(vec![data.clone()]);
    let stalls = |db: &Database| db.metrics().snapshot().commit_stalls;
    assert_eq!(stalls(&db), 0, "every earlier submit fit");
    let (committer, done) = put_on_a_thread(&db, &rel, &pattern(400 * 1024, 3));
    // Long enough for the submit to reach the full budget on a busy host.
    std::thread::sleep(Duration::from_millis(300));
    assert!(!done.load(Ordering::Acquire), "the submit did not wait");
    data.open();
    committer.join().unwrap();
    assert_eq!(stalls(&db), 1);
    db.wait_for_durability().unwrap();
    let mut t = db.begin();
    t.put_blob(&rel, b"d", &pattern(4096, 5)).unwrap();
    t.commit().unwrap();
    db.wait_for_durability().unwrap();
    assert_eq!(stalls(&db), 1, "a submit that fits is no stall");
}

/// A checkpoint started while a group's in-place writes are held at the
/// gate returns only after they landed (it drains the pipeline, and the
/// commit thread holds the checkpoint gate from a group's log to its
/// retire), and the reopen reads the update.
#[test]
fn a_checkpoint_waits_for_a_held_in_place_write() {
    let Gated {
        db,
        rel,
        data,
        wal,
        patched,
    } = gated_group();
    let _open = OpenOnDrop(vec![data.clone()]);
    let done = Arc::new(AtomicBool::new(false));
    let checkpoint = {
        let (db, done) = (db.clone(), done.clone());
        std::thread::spawn(move || {
            db.checkpoint().unwrap();
            done.store(true, Ordering::Release);
        })
    };
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        !done.load(Ordering::Acquire),
        "the checkpoint returned while an in-place write was held"
    );
    data.open();
    checkpoint.join().unwrap();
    // The process dies right after the checkpoint: what it wrote is all
    // the reopen has.
    let (data, wal) = (copy_device(&data.inner), copy_device(&wal));
    drop(rel);
    drop(db);

    let (db, report) = Database::open(data, wal, pipelined_cfg()).unwrap();
    assert_eq!(report.committed, 0, "the checkpoint left a log: {report:?}");
    let rel = db.relation("b").unwrap();
    let got = db.begin().get_blob(&rel, b"a", |b| b == patched).unwrap();
    assert!(got, "the update is lost");
    assert!(db.audit_allocator().unwrap().is_exact());
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

/// A delete whose blob has an append's in-place write still held at the
/// gate must not deadlock the pipeline: the delete's group is
/// metadata-only (nothing to flush), but retiring it drops + frees the
/// blob's extents, and `drop_extent` spin-waits on shared latches of a
/// batch in flight. The commit thread retires the delete only after the
/// append's write landed and was reaped, on the same thread.
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
    std::thread::sleep(Duration::from_millis(200));

    // Open the gate: the append flush lands, the delete retires, the
    // frontier advances.
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
        "durability frontier stuck: delete group deadlocked the commit thread"
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
/// the first one's flush lands, the second one's group is still held at
/// its WAL write — its flush not submitted, holding no latch — and the
/// extent still holds bytes the device has not seen: it must stay dirty
/// and pinned, neither evictable nor trimmable, until that second flush
/// lands too.
#[test]
fn flags_outlive_a_landed_flush_while_a_later_one_is_owed() {
    let data = Arc::new(GateDevice::new(256 << 20));
    let wal = Arc::new(GateDevice::new(64 << 20));
    let db = Database::create(data.clone(), wal.clone(), pipelined_cfg()).unwrap();
    let _open = OpenOnDrop(vec![data.clone(), wal.clone()]);
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    let pool = db.node_pool().clone(); // the vm variant's one pool

    // 74 pages of content, laid out by growth (a put would end in an
    // exact tail): the last extent holds 11 of its 64 pages.
    let mut expected = pattern(300_000, 3);
    let mut t = db.begin();
    t.put_blob(&rel, b"x", &expected[..4096]).unwrap();
    t.append_blob(&rel, b"x", &expected[4096..]).unwrap();
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

    // T1's group becomes durable and its flush N reaches the data gate.
    wal.permit(1);
    assert!(wait_until(Duration::from_secs(10), || data.waiting() == 1));
    // N lands; the commit thread retires T1's group and takes T2's, which
    // is held at the WAL gate, its flush N+1 not yet begun.
    let written = db.metrics().snapshot().pages_written;
    data.permit(1);
    assert!(
        wait_until(Duration::from_secs(10), || {
            db.metrics().snapshot().pages_written > written && wal.waiting() == 1
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
