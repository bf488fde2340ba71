//! Growth and shrink on a content-framed resident extent: the pool holds
//! only the pages of a BLOB that carry content, so `append_blob`,
//! `truncate_blob`, `update_blob` and `relocate_blob` each meet a last
//! extent whose resident framing is narrower (or, after a shrink, wider)
//! than the content they leave behind. Every operation is followed by a
//! SHA-checked full read, a clean latch/pin ledger and an allocator audit,
//! warm and again cold after a reopen; one crash round proves recovery's
//! SHA fixpoint sees the same content.

use lobster_core::{Config, Database, RelationKind};
use lobster_storage::{CrashDevice, Device, MemDevice};
use std::sync::Arc;

const PAGE: usize = 4096;
const KEY: &[u8] = b"blob";

fn cfg() -> Config {
    Config {
        pool_frames: 4096,
        ..Config::default()
    }
}

fn pattern(len: usize, seed: u64) -> Vec<u8> {
    let mut out = vec![0u8; len];
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for b in &mut out {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        *b = state as u8;
    }
    out
}

/// A database on memory devices, kept so the test can reopen it.
struct Harness {
    data: Arc<MemDevice>,
    wal: Arc<MemDevice>,
    cfg: Config,
    db: Arc<Database>,
}

impl Harness {
    fn new(cfg: Config) -> Harness {
        let data = Arc::new(MemDevice::new(128 << 20));
        let wal = Arc::new(MemDevice::new(32 << 20));
        let db = Database::create(data.clone(), wal.clone(), cfg.clone()).unwrap();
        db.create_relation("b", RelationKind::Blob).unwrap();
        Harness { data, wal, cfg, db }
    }

    /// Run `op` in its own committed transaction.
    fn commit(&self, op: impl FnOnce(&mut lobster_core::Txn, &lobster_core::Relation)) {
        let rel = self.db.relation("b").unwrap();
        let mut t = self.db.begin();
        op(&mut t, &rel);
        t.commit().unwrap();
    }

    /// Evict everything, then fault the BLOB back in by reading it: the
    /// resident copy is now framed by the content view of a cold read.
    fn refault(&self) {
        self.db.wait_for_durability().unwrap();
        self.db.checkpoint().unwrap();
        self.db.blob_pool().drop_caches();
        self.commit(|t, rel| {
            t.get_blob(rel, KEY, |_| ()).unwrap();
        });
    }

    /// Full read equals `want`, the content hashes to the Blob State's
    /// SHA-256, and no latch is held.
    fn check_read(db: &Arc<Database>, want: &[u8], tag: &str) {
        let rel = db.relation("b").unwrap();
        let mut t = db.begin();
        let got = t.get_blob(&rel, KEY, |b| b.to_vec()).unwrap();
        assert!(
            got == want,
            "{tag}: content differs (len {} vs {})",
            got.len(),
            want.len()
        );
        let state = t.blob_state(&rel, KEY).unwrap().unwrap();
        assert_eq!(state.size as usize, want.len(), "{tag}: size");
        assert_eq!(
            state.sha256,
            lobster_sha256::Sha256::digest(want),
            "{tag}: Blob State SHA"
        );
        assert_eq!(t.scrub_blob(&rel, KEY).unwrap(), Some(true), "{tag}: scrub");
        t.commit().unwrap();
        assert_eq!(
            db.blob_pool().audit().held_latches(),
            0,
            "{tag}: held latches"
        );
    }

    /// The full post-operation audit. Warm: read + SHA + ledger. Quiesced:
    /// no pin outlives the flush. Cold: a reopen rebuilds the allocator from
    /// the reachable extents — the running allocator must agree page for
    /// page (nothing leaked, nothing freed twice) — and the device alone
    /// must reproduce the content.
    fn audit(&mut self, want: &[u8], tag: &str) {
        Self::check_read(&self.db, want, tag);
        self.db.wait_for_durability().unwrap();
        self.db.checkpoint().unwrap();
        self.db.blob_pool().audit().assert_no_leaked_pins();
        let live_pages = self.db.allocator().pages_in_use();

        let (db, _) =
            Database::open(self.data.clone(), self.wal.clone(), self.cfg.clone()).unwrap();
        assert_eq!(
            db.allocator().pages_in_use(),
            live_pages,
            "{tag}: running allocator disagrees with the rebuilt one"
        );
        Self::check_read(&db, want, &format!("{tag} (reopened)"));
        self.db = db;
    }
}

/// 300 000 bytes = 74 pages: tiers 1..32 are full (63 pages) and the
/// 64-page tier holds 11 — a last extent with 53 spare pages.
const BASE: usize = 300_000;

/// Store `data` under [`KEY`] the way growth lays it out: one page put,
/// the rest appended, so the last extent is a tier with spare pages. A put
/// alone would end in an exact tail extent, with none.
fn put_by_growth(t: &mut lobster_core::Txn, rel: &lobster_core::Relation, data: &[u8]) {
    t.put_blob(rel, KEY, &data[..PAGE]).unwrap();
    t.append_blob(rel, KEY, &data[PAGE..]).unwrap();
}

#[test]
fn append_into_spare_pages_of_a_resident_last_extent() {
    // Clean: the resident copy was flushed by its commit.
    let mut h = Harness::new(cfg());
    let mut want = pattern(BASE, 1);
    h.commit(|t, rel| put_by_growth(t, rel, &want));
    let frames = h.db.node_pool().frames_in_use();
    let more = pattern(50_000, 2);
    h.commit(|t, rel| t.append_blob(rel, KEY, &more).unwrap());
    want.extend_from_slice(&more);
    assert!(
        h.db.node_pool().frames_in_use() - frames < 53,
        "growth frames the new content, not the whole tier"
    );
    h.audit(&want, "clean append");

    // Framed by a cold read, then grown across the extent's end into a
    // freshly allocated tier.
    h.refault();
    let more = pattern(200_000, 3);
    h.commit(|t, rel| t.append_blob(rel, KEY, &more).unwrap());
    want.extend_from_slice(&more);
    h.audit(&want, "append past the extent");

    // Dirty: put and two appends in one transaction, nothing flushed yet.
    let mut h = Harness::new(cfg());
    let mut want = pattern(BASE, 4);
    let (a, b) = (pattern(9_000, 5), pattern(70_000, 6));
    h.commit(|t, rel| {
        put_by_growth(t, rel, &want);
        t.append_blob(rel, KEY, &a).unwrap();
        t.append_blob(rel, KEY, &b).unwrap();
    });
    want.extend_from_slice(&a);
    want.extend_from_slice(&b);
    h.audit(&want, "dirty append");

    // Dirty across transactions: the first append's flush is still queued
    // (asynchronous commit) when the second re-frames the extent.
    let mut h = Harness::new(Config {
        commit_wait: false,
        ..cfg()
    });
    let mut want = pattern(BASE, 7);
    h.commit(|t, rel| put_by_growth(t, rel, &want));
    for seed in 8..16 {
        let more = pattern(3_000 * (seed as usize - 6), seed);
        h.commit(|t, rel| t.append_blob(rel, KEY, &more).unwrap());
        want.extend_from_slice(&more);
    }
    h.audit(&want, "queued-flush appends");
}

#[test]
fn aborted_append_leaves_the_old_content_readable() {
    let mut h = Harness::new(cfg());
    let want = pattern(BASE, 1);
    h.commit(|t, rel| put_by_growth(t, rel, &want));
    let rel = h.db.relation("b").unwrap();
    let mut t = h.db.begin();
    t.append_blob(&rel, KEY, &pattern(120_000, 2)).unwrap();
    t.abort();
    h.audit(&want, "aborted append");
}

#[test]
fn truncate_below_a_resident_last_extent_then_regrow() {
    let mut h = Harness::new(cfg());
    let mut want = pattern(BASE, 1);
    h.commit(|t, rel| put_by_growth(t, rel, &want));

    // Inside the last extent: 11 content pages become 4.
    let frames = h.db.node_pool().frames_in_use();
    want.truncate(66 * PAGE + 17);
    h.commit(|t, rel| t.truncate_blob(rel, KEY, want.len() as u64).unwrap());
    assert_eq!(
        frames - h.db.node_pool().frames_in_use(),
        7,
        "the clean resident extent gives back the pages past its content"
    );
    h.audit(&want, "truncate inside the last extent");

    // Below it: the 64-page tier is freed and the full 32-page tier
    // becomes a partial last extent (25 pages = 1+2+4+8 + 10 of 16).
    h.refault();
    want.truncate(100_000);
    h.commit(|t, rel| t.truncate_blob(rel, KEY, want.len() as u64).unwrap());
    h.audit(&want, "truncate below the last extent");

    // Regrow into the trimmed extent, warm and cold.
    let more = pattern(20_000, 2);
    h.commit(|t, rel| t.append_blob(rel, KEY, &more).unwrap());
    want.extend_from_slice(&more);
    h.audit(&want, "append after truncate");

    // Dirty: truncating an unflushed BLOB must not cut frames a queued
    // flush still names.
    let mut h = Harness::new(Config {
        commit_wait: false,
        ..cfg()
    });
    let mut want = pattern(BASE, 3);
    h.commit(|t, rel| put_by_growth(t, rel, &want));
    want.truncate(64 * PAGE);
    h.commit(|t, rel| t.truncate_blob(rel, KEY, want.len() as u64).unwrap());
    h.audit(&want, "truncate with a queued flush");
}

/// A rolled-back truncate has already trimmed the clean resident extent;
/// the restored, wider content view must get the cut pages back from the
/// device.
#[test]
fn aborted_truncate_regrows_the_trimmed_extent() {
    let mut h = Harness::new(cfg());
    let want = pattern(BASE, 1);
    h.commit(|t, rel| put_by_growth(t, rel, &want));
    let frames = h.db.node_pool().frames_in_use();
    let rel = h.db.relation("b").unwrap();
    let mut t = h.db.begin();
    t.truncate_blob(&rel, KEY, (64 * PAGE) as u64).unwrap();
    t.abort();
    assert_eq!(
        frames - h.db.node_pool().frames_in_use(),
        10,
        "trimmed to one page"
    );
    let before = h.db.metrics().snapshot();
    Harness::check_read(&h.db, &want, "aborted truncate");
    let delta = h.db.metrics().snapshot() - before;
    assert_eq!(delta.pages_read, 10, "only the cut pages are re-read");
    assert_eq!(h.db.node_pool().frames_in_use(), frames);
    h.audit(&want, "aborted truncate");
}

#[test]
fn update_by_delta_and_by_clone_on_a_partial_last_extent() {
    let mut h = Harness::new(cfg());
    let mut want = pattern(BASE, 1);
    h.commit(|t, rel| put_by_growth(t, rel, &want));
    let extents = |h: &Harness| {
        let mut placed = Vec::new();
        h.commit(|t, rel| placed = t.blob_state(rel, KEY).unwrap().unwrap().extents);
        placed
    };
    let put = extents(&h);

    // Warm, inside the partial last extent (blob pages 63..74): 5 000 of
    // its 45 056 content bytes, well under half, so a delta in place.
    let patch = pattern(5_000, 2);
    let at = 65 * PAGE + 100;
    h.commit(|t, rel| t.update_blob(rel, KEY, at as u64, &patch).unwrap());
    want[at..at + patch.len()].copy_from_slice(&patch);
    assert_eq!(extents(&h), put, "delta");
    h.audit(&want, "delta warm");

    // Cold, straddling the last two extents and reaching the final byte:
    // three pages of the 32-page extent (a delta) and all the content of
    // the last one (a clone, sized by what it holds, not what it reserves).
    h.db.blob_pool().drop_caches();
    let patch = pattern(BASE - 60 * PAGE, 3);
    let at = 60 * PAGE;
    h.commit(|t, rel| t.update_blob(rel, KEY, at as u64, &patch).unwrap());
    want[at..].copy_from_slice(&patch);
    let cloned = extents(&h);
    assert_eq!(cloned[..6], put[..6], "delta");
    assert_ne!(cloned[6], put[6], "clone");
    h.audit(&want, "clone cold");

    // The cloned last extent still grows.
    let more = pattern(40_000, 4);
    h.commit(|t, rel| t.append_blob(rel, KEY, &more).unwrap());
    want.extend_from_slice(&more);
    h.audit(&want, "append after update");
}

#[test]
fn aborted_delta_update_restores_the_bytes() {
    let mut h = Harness::new(cfg());
    let want = pattern(BASE, 1);
    h.commit(|t, rel| put_by_growth(t, rel, &want));
    h.refault();
    let rel = h.db.relation("b").unwrap();
    let mut t = h.db.begin();
    // 9 000 bytes of the last extent's 45 056: under half, so a delta.
    t.update_blob(&rel, KEY, (70 * PAGE) as u64, &pattern(9_000, 2))
        .unwrap();
    t.abort();
    h.audit(&want, "aborted delta");
}

#[test]
fn relocate_with_a_resident_and_a_cold_source() {
    let mut h = Harness::new(cfg());
    let want = pattern(BASE, 1);
    h.commit(|t, rel| put_by_growth(t, rel, &want));
    for (round, cold) in [false, true, false].into_iter().enumerate() {
        if cold {
            h.db.wait_for_durability().unwrap();
            h.db.checkpoint().unwrap();
            h.db.blob_pool().drop_caches();
        }
        let before = h.db.relation("b").map(|rel| {
            let mut t = h.db.begin();
            let s = t.blob_state(&rel, KEY).unwrap().unwrap();
            t.commit().unwrap();
            s
        });
        h.commit(|t, rel| assert!(t.relocate_blob(rel, KEY).unwrap()));
        let frames = h.db.node_pool().frames_in_use();
        h.commit(|t, rel| {
            let after = t.blob_state(rel, KEY).unwrap().unwrap();
            assert_ne!(
                Some(after.extents),
                before.map(|s| s.extents),
                "round {round}"
            );
        });
        assert!(frames < 4096, "round {round}");
        h.audit(&want, &format!("relocate round {round}"));
    }
    // The relocated placement's partial last extent still grows.
    let mut want = want;
    let more = pattern(33_333, 2);
    h.commit(|t, rel| t.append_blob(rel, KEY, &more).unwrap());
    want.extend_from_slice(&more);
    h.audit(&want, "append after relocate");
}

/// Recovery validates the newest version of a BLOB against its SHA-256 and,
/// when that fails, the version before it — through a content view
/// narrower than what the failed validation left resident. A torn append
/// rolls back to the version before it; an intact one survives.
#[test]
fn crash_round_keeps_recoverys_sha_fixpoint() {
    for torn in [true, false] {
        const CAP: usize = 64 << 20;
        let data = Arc::new(CrashDevice::new(MemDevice::new(CAP)));
        let wal = Arc::new(MemDevice::new(16 << 20));
        let db = Database::create(data.clone(), wal.clone(), cfg()).unwrap();
        let rel = db.create_relation("b", RelationKind::Blob).unwrap();
        let v1 = pattern(BASE, 1);
        let more = pattern(90_000, 2);
        let mut t = db.begin();
        put_by_growth(&mut t, &rel, &v1);
        t.commit().unwrap();

        // Both versions stay in the log: no checkpoint in between. The
        // torn run loses the append's extent flush after the WAL fsync.
        if torn {
            data.arm_after_writes(0, 100);
        }
        let mut t = db.begin();
        t.append_blob(&rel, KEY, &more).unwrap();
        t.commit().unwrap();
        data.crash_now();
        std::mem::forget(db);

        let survivor = MemDevice::new(CAP);
        let mut buf = vec![0u8; 1 << 20];
        for off in (0..CAP as u64).step_by(buf.len()) {
            data.inner().read_at(&mut buf, off).unwrap();
            survivor.write_at(&buf, off).unwrap();
        }
        let (db2, report) = Database::open(Arc::new(survivor), wal, cfg()).unwrap();
        let mut want = v1.clone();
        if torn {
            assert_eq!(report.sha_failures, 1, "the torn append fails validation");
        } else {
            assert_eq!(report.sha_failures, 0);
            want.extend_from_slice(&more);
        }
        Harness::check_read(&db2, &want, &format!("recovered (torn={torn})"));
        db2.blob_pool().audit().assert_no_leaked_pins();
    }
}

#[test]
fn a_put_that_fails_partway_through_its_plan_returns_every_frame() {
    // Device room for the four tier extents of a 100 KiB put (1 + 2 + 4 + 8
    // pages) and none for its 10-page tail: the put frames and fills four
    // extents out of its run of frames, then fails. Its rollback, and the
    // run's unused frames, must give back every frame it took.
    let h = Harness::new(cfg());
    let lobster_buffer::BlobPool::Vm(pool) = h.db.blob_pool() else {
        panic!("frames are the vmcache pool's");
    };
    let alloc = h.db.allocator();
    let room = alloc.allocate_tail(15).unwrap();
    let mut hoard = Vec::new();
    while let Ok(page) = alloc.allocate_tail(1) {
        hoard.push(page);
    }
    alloc.free_extent(room);

    let before = pool.frames_in_use();
    let copied = h.db.metrics().snapshot().memcpy_bytes;
    let rel = h.db.relation("b").unwrap();
    let mut t = h.db.begin();
    let res = t.put_blob(&rel, KEY, &pattern(100 << 10, 3));
    assert!(
        matches!(res, Err(lobster_types::Error::OutOfSpace)),
        "the tail must find no room: {res:?}"
    );
    let filled = h.db.metrics().snapshot().memcpy_bytes - copied;
    assert_eq!(
        filled,
        15 * PAGE as u64,
        "the four tier extents were filled"
    );
    t.abort();
    assert_eq!(
        pool.frames_in_use(),
        before,
        "frames leaked by the rollback"
    );
    h.db.blob_pool().audit().assert_no_leaked_pins();
    for page in hoard {
        alloc.free_extent(page);
    }
}
