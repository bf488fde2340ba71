//! Extracted protocol cores from the LOBSTER latch/commit fast paths,
//! written against `lobster-sync` so the same code runs two ways:
//!
//! * `cargo test -p lobster-sync-models` — smoke mode: each model body runs
//!   `LOBSTER_MODEL_ITERS` times (default 50) with real threads;
//! * `RUSTFLAGS="--cfg lobster_loom" cargo test -p lobster-sync-models` —
//!   model-checking mode: each body runs under every interleaving reachable
//!   within `LOOM_MAX_PREEMPTIONS` (default 3) and fails on the first
//!   schedule that violates an assertion.
//!
//! The cores mirror, at reduced scale, the protocols in
//! `crates/buffer/src/pool.rs`, `crates/core/src/group_commit.rs`,
//! `crates/core/src/shard.rs` and `crates/storage/src/async_io.rs`:
//!
//! 1. [`latch`] — the vmcache-style packed page-table entry: shared-count /
//!    exclusive-tag CAS transitions, and the optimistic version-validate
//!    read pattern.
//! 2. [`claim`] — PR 1's fault-batch protocol: racing `EVICTED -> LOCKED`
//!    CAS claims, frame allocation, and rollback on failure.
//! 3. [`frontier`] — PR 3's two-stage commit: WAL durability strictly before
//!    extent writes, and the contiguous durable-epoch frontier.
//! 4. [`pins`] — `prevent_evict` pins released exactly once, pin budget
//!    never going negative, eviction never observing a pinned extent.
//! 5. [`xshard`] — the sharded engine's cross-shard commit epoch
//!    (`crates/core/src/shard.rs`): a multi-shard transaction is durable
//!    iff *every* participant's stage-1 WAL fsync covers the epoch its
//!    marker landed in, and the global epoch is the minimum over shard
//!    frontiers — never ahead of any shard's disk.
//!
//! 6. [`landed`] — the completion signal from an I/O worker to the commit
//!    flush stage (`BatchHandle::notify_when_executed` feeding the stage's
//!    inbox): registered-or-already-executed is decided under the lock the
//!    worker completes under, so the stage never sleeps through the
//!    completion of a flight it is tracking.
//!
//! Every model keeps spin loops *bounded* (a give-up path instead of an
//! unbounded retry) so the exhaustive explorer terminates; invariants are
//! asserted only on paths that actually acquired the resource.

#![forbid(unsafe_code)]

pub mod latch {
    //! Core 1: the packed-entry latch word from `pool.rs`.
    //!
    //! Layout mirror: `[tag:8][...56 bits unused here]`, tag `0xFE` =
    //! exclusive, `0..` = shared count. A writer updates two cells under the
    //! exclusive tag; a reader under a shared latch must never observe them
    //! torn.

    use lobster_sync::atomic::{AtomicU64, Ordering};
    use lobster_sync::{hint, thread, Arc};

    const TAG_SHIFT: u32 = 56;
    const TAG_LOCKED: u64 = 0xFE;
    const ONE_SHARED: u64 = 1 << TAG_SHIFT;

    struct Page {
        entry: AtomicU64,
        a: AtomicU64,
        b: AtomicU64,
    }

    fn reader(p: &Page, check_tag: bool) {
        // Bounded acquisition attempts keep the schedule space finite.
        for _ in 0..4 {
            let e = p.entry.load(Ordering::Acquire);
            if check_tag && (e >> TAG_SHIFT) >= TAG_LOCKED {
                hint::spin_loop();
                continue;
            }
            if p.entry
                .compare_exchange(e, e + ONE_SHARED, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                continue;
            }
            // Shared latch held: the two cells must be coherent.
            let x = p.a.load(Ordering::Acquire);
            let y = p.b.load(Ordering::Acquire);
            assert_eq!(x, y, "torn read under shared latch");
            // Release: decrement the shared count.
            loop {
                let cur = p.entry.load(Ordering::Acquire);
                if p.entry
                    .compare_exchange(cur, cur - ONE_SHARED, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    break;
                }
            }
            return;
        }
    }

    fn writer(p: &Page) {
        // Bounded try-exclusive: only an unlatched entry (tag 0) can be
        // locked, exactly as `fix_exclusive`'s hit path.
        for _ in 0..4 {
            if p.entry
                .compare_exchange(
                    0,
                    TAG_LOCKED << TAG_SHIFT,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
            {
                let v = p.a.load(Ordering::Acquire) + 1;
                p.a.store(v, Ordering::Release);
                // A reader sneaking in here would observe a != b.
                p.b.store(v, Ordering::Release);
                p.entry.store(0, Ordering::Release);
                return;
            }
            hint::spin_loop();
        }
    }

    fn run(check_tag: bool) {
        let p = Arc::new(Page {
            entry: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
        });
        let p1 = Arc::clone(&p);
        let r = thread::spawn(move || reader(&p1, check_tag));
        let p2 = Arc::clone(&p);
        let w = thread::spawn(move || writer(&p2));
        r.join().unwrap();
        w.join().unwrap();
    }

    /// The correct protocol: readers refuse `TAG_LOCKED` entries.
    pub fn check_latch_excludes() {
        lobster_sync::model(|| run(true));
    }

    /// Deliberately broken protocol (reader ignores the exclusive tag);
    /// the checker must find the torn read. Only meaningful under loom.
    pub fn run_broken_latch() {
        lobster_sync::model(|| run(false));
    }

    struct Versioned {
        v: AtomicU64,
        a: AtomicU64,
        b: AtomicU64,
    }

    fn opt_reader(s: &Versioned, revalidate: bool) {
        for _ in 0..4 {
            let v1 = s.v.load(Ordering::Acquire);
            if v1 % 2 == 1 {
                hint::spin_loop();
                continue;
            }
            let x = s.a.load(Ordering::Acquire);
            let y = s.b.load(Ordering::Acquire);
            if revalidate && s.v.load(Ordering::Acquire) != v1 {
                continue; // writer raced us; retry
            }
            assert_eq!(x, y, "optimistic read not validated against version bump");
            return;
        }
    }

    fn opt_writer(s: &Versioned) {
        // begin: even -> odd
        let v = s.v.load(Ordering::Acquire);
        s.v.store(v + 1, Ordering::Release);
        let n = s.a.load(Ordering::Acquire) + 1;
        s.a.store(n, Ordering::Release);
        s.b.store(n, Ordering::Release);
        // end: odd -> even
        s.v.store(v + 2, Ordering::Release);
    }

    fn run_opt(revalidate: bool) {
        let s = Arc::new(Versioned {
            v: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
        });
        let s1 = Arc::clone(&s);
        let r = thread::spawn(move || opt_reader(&s1, revalidate));
        let s2 = Arc::clone(&s);
        let w = thread::spawn(move || opt_writer(&s2));
        r.join().unwrap();
        w.join().unwrap();
    }

    /// Optimistic read with the second version check: never torn.
    pub fn check_optimistic_read_validates() {
        lobster_sync::model(|| run_opt(true));
    }

    /// Optimistic read *without* revalidation; the checker must catch it.
    pub fn run_broken_optimistic_read() {
        lobster_sync::model(|| run_opt(false));
    }
}

pub mod claim {
    //! Core 2: `fault_many`'s CAS claim + rollback (PR 1).
    //!
    //! Two faulting threads race `EVICTED -> LOCKED` claims over two extents
    //! with only one free frame. Whatever the schedule: no claim is leaked
    //! (`LOCKED` left behind), no extent is loaded twice, and frames are
    //! conserved (resident + free == initial).

    use lobster_sync::atomic::{AtomicU64, Ordering};
    use lobster_sync::{thread, Arc};

    const EVICTED: u64 = u64::MAX;
    const LOCKED: u64 = u64::MAX - 1;
    const EXTENTS: usize = 2;

    struct Table {
        entries: [AtomicU64; EXTENTS],
        free_frames: AtomicU64,
        loads: [AtomicU64; EXTENTS],
    }

    fn fault_batch(t: &Table) {
        // Phase 1: claim every evicted extent we can (list order, as in
        // fault_many).
        let mut claimed = [false; EXTENTS];
        for (i, c) in claimed.iter_mut().enumerate() {
            *c = t.entries[i]
                .compare_exchange(EVICTED, LOCKED, Ordering::AcqRel, Ordering::Acquire)
                .is_ok();
        }
        // Phase 2: allocate a frame per claim; roll back claims that lose
        // the allocation race (store EVICTED, exactly like fault_many's
        // rollback closure).
        for (i, &c) in claimed.iter().enumerate() {
            if !c {
                continue;
            }
            let mut got = false;
            loop {
                let f = t.free_frames.load(Ordering::Acquire);
                if f == 0 {
                    break;
                }
                if t.free_frames
                    .compare_exchange(f, f - 1, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    got = true;
                    break;
                }
            }
            if got {
                // "Load" the extent and publish it resident (tag 0).
                t.loads[i].fetch_add(1, Ordering::AcqRel);
                t.entries[i].store(i as u64, Ordering::Release);
            } else {
                t.entries[i].store(EVICTED, Ordering::Release);
            }
        }
    }

    fn run() {
        let t = Arc::new(Table {
            entries: [AtomicU64::new(EVICTED), AtomicU64::new(EVICTED)],
            free_frames: AtomicU64::new(1),
            loads: [AtomicU64::new(0), AtomicU64::new(0)],
        });
        let hs: Vec<_> = (0..2)
            .map(|_| {
                let t = Arc::clone(&t);
                thread::spawn(move || fault_batch(&t))
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        let mut resident = 0u64;
        for (i, e) in t.entries.iter().enumerate() {
            let v = e.load(Ordering::Acquire);
            assert_ne!(v, LOCKED, "leaked claim on extent {i}");
            if v != EVICTED {
                resident += 1;
            }
            let loads = t.loads[i].load(Ordering::Acquire);
            assert!(loads <= 1, "extent {i} loaded {loads} times");
        }
        // Frame conservation: every rollback must return nothing (it never
        // allocated) and every publish must consume exactly one frame.
        assert_eq!(
            resident + t.free_frames.load(Ordering::Acquire),
            1,
            "frames leaked or double-allocated"
        );
    }

    pub fn check_claim_rollback() {
        lobster_sync::model(run);
    }
}

pub mod frontier {
    //! Core 3: the two-stage commit pipeline (PR 3).
    //!
    //! A WAL-stage thread marks groups durable and forwards them; two flush
    //! workers complete them out of order. Invariants: a flush worker never
    //! observes a group whose WAL fsync has not happened, the durable-epoch
    //! frontier advances contiguously and monotonically, and no epoch
    //! completes twice.

    use lobster_sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use lobster_sync::{thread, Arc, Condvar, Mutex};
    use std::collections::BTreeSet;

    const GROUPS: usize = 2;

    struct Pipeline {
        wal_durable: [AtomicBool; GROUPS],
        ext_written: [AtomicBool; GROUPS],
        queue: Mutex<Vec<usize>>,
        queue_cv: Condvar,
        // Durable-epoch frontier, mirroring group_commit::Progress.
        processed: AtomicU64,
        done_above: Mutex<BTreeSet<u64>>,
        frontier_cv: Condvar,
        frontier_mx: Mutex<()>,
    }

    impl Pipeline {
        /// Mirror of `Progress::complete_epochs` with the auditor's
        /// exactly-once and contiguity checks inlined.
        fn complete_epoch(&self, epoch: u64) {
            let mut set = self.done_above.lock();
            let mut frontier = self.processed.load(Ordering::Acquire);
            assert!(epoch > frontier, "epoch {epoch} completed twice");
            assert!(set.insert(epoch), "epoch {epoch} already pending");
            while set.remove(&(frontier + 1)) {
                frontier += 1;
            }
            self.processed.store(frontier, Ordering::Release);
            drop(set);
            let _g = self.frontier_mx.lock();
            self.frontier_cv.notify_all();
        }
    }

    fn wal_stage(p: &Pipeline, broken: bool) {
        for g in 0..GROUPS {
            if !broken {
                // fsync happens-before the group is forwarded to flush.
                p.wal_durable[g].store(true, Ordering::Release);
            }
            p.queue.lock().push(g);
            p.queue_cv.notify_all();
            if broken {
                p.wal_durable[g].store(true, Ordering::Release);
            }
        }
    }

    fn flush_worker(p: &Pipeline) {
        let g = {
            let mut q = p.queue.lock();
            while q.is_empty() {
                p.queue_cv.wait(&mut q);
            }
            q.remove(0)
        };
        // The WAL-before-extents invariant: this group's fsync must already
        // be observable.
        assert!(
            p.wal_durable[g].load(Ordering::Acquire),
            "flush of group {g} observable before its WAL fsync"
        );
        p.ext_written[g].store(true, Ordering::Release);
        p.complete_epoch(g as u64 + 1);
    }

    fn run(broken: bool) {
        let p = Arc::new(Pipeline {
            wal_durable: [AtomicBool::new(false), AtomicBool::new(false)],
            ext_written: [AtomicBool::new(false), AtomicBool::new(false)],
            queue: Mutex::new(Vec::new()),
            queue_cv: Condvar::new(),
            processed: AtomicU64::new(0),
            done_above: Mutex::new(BTreeSet::new()),
            frontier_cv: Condvar::new(),
            frontier_mx: Mutex::new(()),
        });
        let mut hs = Vec::new();
        for _ in 0..2 {
            let p2 = Arc::clone(&p);
            hs.push(thread::spawn(move || flush_worker(&p2)));
        }
        let p1 = Arc::clone(&p);
        hs.push(thread::spawn(move || wal_stage(&p1, broken)));
        for h in hs {
            h.join().unwrap();
        }
        // Frontier reached the last epoch, and nothing is left pending.
        assert_eq!(p.processed.load(Ordering::Acquire), GROUPS as u64);
        assert!(p.done_above.lock().is_empty());
        for g in 0..GROUPS {
            assert!(p.ext_written[g].load(Ordering::Acquire));
            assert!(p.wal_durable[g].load(Ordering::Acquire));
        }
    }

    /// The correct pipeline: fsync strictly before forward.
    pub fn check_wal_before_extents() {
        lobster_sync::model(|| run(false));
    }

    /// Broken ordering (group forwarded before its fsync); the checker must
    /// find a schedule where a flush worker sees a non-durable group.
    pub fn run_broken_ordering() {
        lobster_sync::model(|| run(true));
    }
}

pub mod pins {
    //! Core 4: `prevent_evict` pins and the commit pin budget.
    //!
    //! Committers acquire budget, pin + dirty an extent, and hand it to a
    //! flusher that clears the pin and returns the budget — exactly once.
    //! An evictor races try-CAS evictions. Invariants: the pin is released
    //! once (a second release trips the ledger), the budget never goes
    //! negative, and eviction only ever sees flushed, unpinned extents.

    use lobster_sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use lobster_sync::{thread, Arc, Condvar, Mutex};

    const PIN: u64 = 1 << 55;
    const DIRTY: u64 = 1 << 54;
    const EVICTED: u64 = u64::MAX;

    struct Budget {
        used: Mutex<u64>,
        cv: Condvar,
        limit: u64,
    }

    impl Budget {
        fn acquire(&self, n: u64) {
            let mut used = self.used.lock();
            // Mirror of PinBudget::acquire: always admit when idle so a
            // single oversized batch cannot deadlock.
            while *used > 0 && *used + n > self.limit {
                self.cv.wait(&mut used);
            }
            *used += n;
        }

        fn release(&self, n: u64) {
            let mut used = self.used.lock();
            assert!(*used >= n, "pin budget went negative: {} - {n}", *used);
            *used -= n;
            self.cv.notify_all();
        }
    }

    struct World {
        entries: [AtomicU64; 2],
        flushed: [AtomicBool; 2],
        releases: [AtomicU64; 2],
        budget: Budget,
    }

    fn committer(w: &World, i: usize) {
        w.budget.acquire(1);
        // Create resident, dirty, pinned (as the commit path does before
        // handing the extent to the flush stage). The extent starts
        // evicted, so the evictor never sees a resident-but-unflushed
        // window before this store.
        let prev = w.entries[i].swap(PIN | DIRTY, Ordering::AcqRel);
        assert_eq!(prev, EVICTED, "extent {i} created twice");
        // The device write completes (IO reaped by poll) strictly before
        // flush completion clears the flags — mirroring flush_extents_finish,
        // which only runs after the async batch is done.
        w.flushed[i].store(true, Ordering::Release);
        // Flush completion: clear dirty+pin exactly once, then return the
        // budget (PR 3 moved budget release to flush completion).
        let prev = w.entries[i].swap(0, Ordering::AcqRel);
        assert_eq!(prev & PIN, PIN, "pin released twice on extent {i}");
        let n = w.releases[i].fetch_add(1, Ordering::AcqRel);
        assert_eq!(n, 0, "flush completion ran twice for extent {i}");
        w.budget.release(1);
    }

    fn evictor(w: &World) {
        for i in 0..2 {
            for _ in 0..3 {
                let e = w.entries[i].load(Ordering::Acquire);
                if e == EVICTED || e & (PIN | DIRTY) != 0 {
                    continue; // pinned or dirty: not evictable
                }
                if w.entries[i]
                    .compare_exchange(e, EVICTED, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    // We evicted it, so its flush must have completed.
                    assert!(
                        w.flushed[i].load(Ordering::Acquire),
                        "extent {i} evicted before flush completion"
                    );
                    break;
                }
            }
        }
    }

    fn run() {
        let w = Arc::new(World {
            entries: [AtomicU64::new(EVICTED), AtomicU64::new(EVICTED)],
            flushed: [AtomicBool::new(false), AtomicBool::new(false)],
            releases: [AtomicU64::new(0), AtomicU64::new(0)],
            budget: Budget {
                used: Mutex::new(0),
                cv: Condvar::new(),
                limit: 1,
            },
        });
        let mut hs = Vec::new();
        for i in 0..2 {
            let w2 = Arc::clone(&w);
            hs.push(thread::spawn(move || committer(&w2, i)));
        }
        let w3 = Arc::clone(&w);
        hs.push(thread::spawn(move || evictor(&w3)));
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(*w.budget.used.lock(), 0, "budget not fully returned");
        for i in 0..2 {
            assert_eq!(w.releases[i].load(Ordering::Acquire), 1);
        }
    }

    pub fn check_pin_release_exactly_once() {
        lobster_sync::model(run);
    }
}

pub mod xshard {
    //! Core 5: the cross-shard commit epoch from `ShardedDatabase`.
    //!
    //! Each shard runs an independent group-commit pipeline whose stage-1
    //! fsync advances a *local* durable-epoch frontier. A cross-shard
    //! transaction appends a commit marker to every participant's WAL (all
    //! landing in the same commit epoch here) and is durable only once the
    //! *global* epoch — the minimum over participant frontiers — covers
    //! that epoch. The model separates what a shard has *persisted* (the
    //! crash image) from what it *advertises* as durable, so the checked
    //! invariant is the real one: when the coordinator declares the
    //! transaction durable, a crash at that instant still finds the marker
    //! on every participant's disk.
    //!
    //! Broken canaries: advancing the global epoch from one shard's
    //! frontier only, and covering a stale epoch (off by one) — both must
    //! be caught under loom.

    use lobster_sync::atomic::{AtomicU64, Ordering};
    use lobster_sync::{hint, thread, Arc};

    const SHARDS: usize = 2;
    /// Epoch 1 on each shard carries an unrelated single-shard commit; the
    /// cross-shard marker lands in epoch 2. A stale-epoch coordinator is
    /// satisfied by the first fsync alone.
    const MARKER_EPOCH: u64 = 2;

    #[derive(Clone, Copy)]
    enum Variant {
        /// Global epoch = min over all participant frontiers.
        Correct,
        /// Global epoch advanced from shard 0's frontier only.
        OneShard,
        /// All shards consulted, but against `MARKER_EPOCH - 1`.
        StaleEpoch,
    }

    struct Shard {
        /// Highest epoch whose records are physically on disk (the image a
        /// crash would recover from).
        persisted: AtomicU64,
        /// Highest epoch whose stage-1 fsync completion was published to
        /// the coordinator. Always stored *after* `persisted`.
        durable: AtomicU64,
    }

    fn shard_pipeline(sh: &Shard) {
        // Two group-commit rounds: the local txn's epoch, then the epoch
        // holding the cross-shard marker. Each round persists before it
        // publishes — the per-shard stage-1 contract.
        for e in 1..=MARKER_EPOCH {
            sh.persisted.store(e, Ordering::Release);
            sh.durable.store(e, Ordering::Release);
        }
    }

    fn coordinator(shards: &[Shard; SHARDS], variant: Variant) {
        let mut prev_global = 0u64;
        // Bounded wait, as everywhere in these models: give up rather than
        // spin forever so the explorer terminates. Invariants fire only on
        // schedules where the decision was actually reached.
        for _ in 0..8 {
            let global = match variant {
                Variant::Correct | Variant::StaleEpoch => (0..SHARDS)
                    .map(|s| shards[s].durable.load(Ordering::Acquire))
                    .min()
                    .unwrap(),
                Variant::OneShard => shards[0].durable.load(Ordering::Acquire),
            };
            assert!(global >= prev_global, "global epoch moved backwards");
            prev_global = global;
            let needed = match variant {
                Variant::StaleEpoch => MARKER_EPOCH - 1,
                _ => MARKER_EPOCH,
            };
            if global >= needed {
                // Durability declared: a crash now must still recover the
                // marker on every participant.
                for (s, sh) in shards.iter().enumerate() {
                    let img = sh.persisted.load(Ordering::Acquire);
                    assert!(
                        img >= MARKER_EPOCH,
                        "gtxn declared durable but shard {s} only persisted \
                         epoch {img} < {MARKER_EPOCH}"
                    );
                }
                return;
            }
            hint::spin_loop();
        }
    }

    fn run(variant: Variant) {
        let shards = Arc::new([
            Shard {
                persisted: AtomicU64::new(0),
                durable: AtomicU64::new(0),
            },
            Shard {
                persisted: AtomicU64::new(0),
                durable: AtomicU64::new(0),
            },
        ]);
        let mut hs = Vec::new();
        for s in 0..SHARDS {
            let sh = Arc::clone(&shards);
            hs.push(thread::spawn(move || shard_pipeline(&sh[s])));
        }
        let sh = Arc::clone(&shards);
        hs.push(thread::spawn(move || coordinator(&sh, variant)));
        for h in hs {
            h.join().unwrap();
        }
    }

    /// The correct protocol: min-over-frontiers, marker epoch required.
    pub fn check_epoch_covers_all_participants() {
        lobster_sync::model(|| run(Variant::Correct));
    }

    /// Broken canary 1: the global epoch follows one shard's frontier;
    /// the checker must find the schedule where the other shard's marker
    /// is not yet on disk.
    pub fn run_broken_single_shard_epoch() {
        lobster_sync::model(|| run(Variant::OneShard));
    }

    /// Broken canary 2: every shard is consulted but against a stale
    /// epoch; the first fsync satisfies it before the marker persists.
    pub fn run_broken_stale_epoch() {
        lobster_sync::model(|| run(Variant::StaleEpoch));
    }
}

pub mod landed {
    //! Core 6: the completion signal (`storage/src/async_io.rs`) and the
    //! flush stage's inbox (`core/src/group_commit.rs`).
    //!
    //! The worker that executes a flight's last request marks the batch
    //! executed and takes the registered waker under the batch lock, then
    //! calls it: the waker raises `landed` under the inbox lock and
    //! notifies. The flush stage, adopting the flight, registers its waker
    //! under the same batch lock — unless the batch has executed already,
    //! in which case it is told so and looks at once — and then sleeps on
    //! the inbox until `landed`. Invariants: the stage always comes back
    //! (a lost wake-up is a deadlock, which the checker reports), the batch
    //! has executed when it does, and the waker runs at most once.
    //!
    //! Broken canary: storing the waker without looking at `executed`. A
    //! worker that finished first has nothing to call, and the stage sleeps
    //! forever.

    use lobster_sync::atomic::{AtomicU64, Ordering};
    use lobster_sync::{thread, Arc, Condvar, Mutex};

    #[derive(Default)]
    struct Executed {
        done: bool,
        /// A waker is registered (the real one is a boxed closure).
        waker: bool,
    }

    struct World {
        executed: Mutex<Executed>,
        landed: Mutex<bool>,
        inbox_cv: Condvar,
        wakes: AtomicU64,
    }

    /// Mirror of `BatchState::run_one`'s last-request branch.
    fn worker(w: &World) {
        let wake = {
            let mut e = w.executed.lock();
            e.done = true;
            std::mem::take(&mut e.waker)
        };
        if wake {
            w.wakes.fetch_add(1, Ordering::AcqRel);
            // `FlushInbox::signal_landed`.
            *w.landed.lock() = true;
            w.inbox_cv.notify_one();
        }
    }

    /// Mirror of the flush stage adopting one flight and waiting for it.
    fn stage(w: &World, broken: bool) {
        // `BatchHandle::notify_when_executed`.
        let stored = {
            let mut e = w.executed.lock();
            if e.done && !broken {
                false
            } else {
                e.waker = true;
                true
            }
        };
        if stored {
            // `FlushInbox::wait` with nothing else to wake for.
            let mut landed = w.landed.lock();
            while !*landed {
                w.inbox_cv.wait(&mut landed);
            }
            *landed = false;
        }
        assert!(w.executed.lock().done, "stage looked before completion");
    }

    fn run(broken: bool) {
        let w = Arc::new(World {
            executed: Mutex::new(Executed::default()),
            landed: Mutex::new(false),
            inbox_cv: Condvar::new(),
            wakes: AtomicU64::new(0),
        });
        let (w1, w2) = (Arc::clone(&w), Arc::clone(&w));
        let hs = [
            thread::spawn(move || worker(&w1)),
            thread::spawn(move || stage(&w2, broken)),
        ];
        for h in hs {
            h.join().unwrap();
        }
        assert!(w.wakes.load(Ordering::Acquire) <= 1, "waker ran twice");
        assert!(!*w.landed.lock(), "a signal was left unconsumed");
    }

    /// The protocol as implemented.
    pub fn check_completion_signal_never_lost() {
        lobster_sync::model(|| run(false));
    }

    /// Broken canary: register blindly; the checker must find the schedule
    /// where the worker finished first and the stage never wakes.
    pub fn run_broken_blind_registration() {
        lobster_sync::model(|| run(true));
    }
}
