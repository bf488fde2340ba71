//! Protocol cores of the LOBSTER commit fast paths, written against
//! `lobster-sync` so the same code runs two ways:
//!
//! * `cargo test -p lobster-sync-models` — smoke mode: each model body runs
//!   `LOBSTER_MODEL_ITERS` times (default 50) with real threads;
//! * `RUSTFLAGS="--cfg lobster_loom" cargo test -p lobster-sync-models` —
//!   model-checking mode: each body runs under every interleaving reachable
//!   within `LOOM_MAX_PREEMPTIONS` (default 3) and fails on the first
//!   schedule that violates an assertion.
//!
//! The cores here are *mirrors*: reduced-scale copies of protocols in
//! `crates/core/src/group_commit.rs`, `crates/core/src/shard.rs` and
//! `crates/storage/src/async_io.rs`, whose production homes own threads,
//! devices and timers that cannot run inside a model. The page-table entry
//! word needs no mirror — its models drive the real type, next to it, in
//! `crates/buffer/src/entry.rs` (`entry::model`: latch exclusion, fault-batch
//! claim/rollback, flags against the flush ledger).
//!
//! 1. [`frontier`] — the two-stage commit: WAL durability strictly before
//!    extent writes, and the contiguous durable-epoch frontier.
//! 2. [`pins`] — the commit pin budget: never negative, never over its
//!    limit with more than one batch admitted, returned exactly once.
//! 3. [`xshard`] — the sharded engine's cross-shard commit epoch
//!    (`crates/core/src/shard.rs`): a multi-shard transaction is durable
//!    iff *every* participant's stage-1 WAL fsync covers the epoch its
//!    marker landed in, and the global epoch is the minimum over shard
//!    frontiers — never ahead of any shard's disk.
//! 4. [`landed`] — the completion signal from an I/O worker to the commit
//!    flush stage (`BatchHandle::notify_when_executed` feeding the stage's
//!    inbox): registered-or-already-executed is decided under the lock the
//!    worker completes under, so the stage never sleeps through the
//!    completion of a flight it is tracking.
//!
//! Every model keeps spin loops *bounded* (a give-up path instead of an
//! unbounded retry) so the exhaustive explorer terminates; invariants are
//! asserted only on paths that actually acquired the resource.

#![forbid(unsafe_code)]

pub mod frontier {
    //! The two-stage commit pipeline.
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
    //! The commit pin budget (`PinBudget` in `group_commit.rs`).
    //!
    //! Committers take budget for the extents they pin and return it when
    //! their flush completes. Invariants: the budget never goes negative,
    //! two batches are never admitted together past the limit, a batch
    //! larger than the limit is still admitted when the pipeline is idle
    //! (no deadlock — which the checker reports), and everything comes
    //! back. The `prevent_evict` flag the budget pays for is the entry
    //! word's, and is checked where the word lives.

    use lobster_sync::{thread, Arc, Condvar, Mutex};

    const LIMIT: u64 = 2;

    struct Budget {
        used: Mutex<u64>,
        cv: Condvar,
    }

    impl Budget {
        fn acquire(&self, n: u64) {
            let mut used = self.used.lock();
            // Mirror of PinBudget::acquire: always admit when idle so a
            // single oversized batch cannot deadlock.
            while *used > 0 && *used + n > LIMIT {
                self.cv.wait(&mut used);
            }
            *used += n;
            assert!(
                *used <= LIMIT || *used == n,
                "{n} admitted beside {} past the limit",
                *used - n
            );
        }

        fn release(&self, n: u64) {
            let mut used = self.used.lock();
            assert!(*used >= n, "pin budget went negative: {} - {n}", *used);
            *used -= n;
            self.cv.notify_all();
        }
    }

    fn run() {
        let budget = Arc::new(Budget {
            used: Mutex::new(0),
            cv: Condvar::new(),
        });
        // One batch at the limit, one past it, one small.
        let hs: Vec<_> = [2, 3, 1]
            .into_iter()
            .map(|n| {
                let b = Arc::clone(&budget);
                thread::spawn(move || {
                    b.acquire(n);
                    b.release(n);
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(*budget.used.lock(), 0, "budget not fully returned");
    }

    pub fn check_budget_conserved() {
        lobster_sync::model(run);
    }
}

pub mod xshard {
    //! The cross-shard commit epoch from `ShardedDatabase`.
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
    //! The completion signal (`storage/src/async_io.rs`) and the
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
