//! The page-table entry word and every legal transition of it.
//!
//! One `AtomicU64` per extent head page carries latch, pin, dirty, size and
//! frame (64 bits):
//!
//! ```text
//!   [tag:8][prevent:1][dirty:1][pages:22][frame:32]
//! ```
//!
//! `tag`: `0xFF` = evicted, `0xFE` = locked exclusive, `0..=0xFC` = shared
//! count (0 = resident, unlatched). An evicted word carries nothing else.
//!
//! | from            | to              | method                          |
//! |-----------------|-----------------|---------------------------------|
//! | evicted         | locked, unframed | [`Entry::try_claim`]           |
//! | unlatched       | locked          | [`Entry::try_lock`]             |
//! | shared n < max  | shared n + 1    | [`Entry::try_share`]            |
//! | shared n ≥ 1    | shared n − 1    | [`Entry::unshare`]              |
//! | locked          | locked, re-framed | [`Entry::reframe`]            |
//! | locked          | unlatched       | [`Entry::unlock`]               |
//! | locked          | shared 1        | [`Entry::downgrade`]            |
//! | locked          | evicted         | [`Entry::evict`]                |
//! | resident        | flag set / cleared | [`Entry::set_dirty`], [`Entry::set_prevent_evict`], [`Entry::stage_flush`], [`Entry::finish_flush`] |
//!
//! Every transition performs its own CAS and makes its own [`LatchLedger`]
//! note: after the CAS when it acquires, before the word changes when it
//! releases (the release republishes availability, so a note made after it
//! could race a fresh acquirer and report a false double unlock). The holder
//! of the exclusive latch owns tag, pages and frame; the two flags may be
//! flipped under it by anyone, so every rewrite of a live word goes through
//! one CAS loop that keeps the bits it does not own.
//!
//! `mod model` drives this type — not a copy of it — through
//! `lobster_sync::model`: a smoke run in a normal build, every interleaving
//! within the preemption bound under `--cfg lobster_loom`.

use crate::flush_ledger::FlushLedger;
use lobster_sync::atomic::{AtomicU64, Ordering};
use lobster_sync::audit::LatchLedger;
use lobster_types::Pid;

const TAG_SHIFT: u32 = 56;
const TAG_EVICTED: u64 = 0xFF;
const TAG_LOCKED: u64 = 0xFE;
const MAX_SHARED: u64 = 0xFC;
const ONE_SHARED: u64 = 1 << TAG_SHIFT;

const PREVENT_BIT: u64 = 1 << 55;
const DIRTY_BIT: u64 = 1 << 54;
const PAGES_SHIFT: u32 = 32;
const PAGES_MASK: u64 = (1 << 22) - 1;
const FRAME_MASK: u64 = (1 << 32) - 1;

const EVICTED: u64 = TAG_EVICTED << TAG_SHIFT;

/// The latch state a word's tag decodes to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Latch {
    Evicted,
    /// Held exclusively: by a writer, a fault in progress, or an eviction.
    Locked,
    /// Resident with this many shared holders (0 = unlatched).
    Shared(u64),
}

/// One observation of an entry word: what [`Entry::peek`] saw, and what a
/// `try_*` transition expects the word still to be.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Seen(u64);

impl Seen {
    #[inline]
    pub(crate) fn latch(self) -> Latch {
        match self.0 >> TAG_SHIFT {
            TAG_EVICTED => Latch::Evicted,
            TAG_LOCKED => Latch::Locked,
            n => Latch::Shared(n),
        }
    }

    /// Resident, or on its way in or out under the exclusive latch.
    #[inline]
    pub(crate) fn is_resident(self) -> bool {
        self.latch() != Latch::Evicted
    }

    /// Pages framed (0 when evicted).
    #[inline]
    pub(crate) fn pages(self) -> u64 {
        (self.0 >> PAGES_SHIFT) & PAGES_MASK
    }

    /// First frame of the contiguous range.
    #[inline]
    pub(crate) fn frame(self) -> u64 {
        self.0 & FRAME_MASK
    }

    #[inline]
    pub(crate) fn dirty(self) -> bool {
        self.0 & DIRTY_BIT != 0
    }

    /// Unlatched, clean and unpinned: the only state eviction and trimming
    /// may take. No-steal: a dirty extent still has a flush owed.
    #[inline]
    pub(crate) fn evictable(self) -> bool {
        self.latch() == Latch::Shared(0) && self.0 & (DIRTY_BIT | PREVENT_BIT) == 0
    }

    #[inline]
    fn with_tag(self, tag: u64) -> u64 {
        (self.0 & (ONE_SHARED - 1)) | (tag << TAG_SHIFT)
    }
}

/// Which ledger entry an exclusive latch is: the two are released
/// differently, so every transition into or out of `Locked` names its kind.
#[derive(Clone, Copy)]
pub(crate) enum Excl {
    /// A try-claim (fault, readahead, eviction, trim): never waited for,
    /// and possibly released by another thread.
    Claim,
    /// A blocking acquisition an `XGuard` holds on the acquiring thread,
    /// counted by the ledger's self-deadlock checks.
    Guard,
}

/// Handle on one extent's entry word. The only code that reads or writes
/// the word.
#[derive(Clone, Copy)]
pub(crate) struct Entry<'a> {
    word: &'a AtomicU64,
    key: u64,
    audit: &'a LatchLedger,
}

impl<'a> Entry<'a> {
    /// Largest frame index the word can name.
    pub(crate) const MAX_FRAME: u64 = FRAME_MASK;

    /// A page table of `pages` evicted entries.
    pub(crate) fn table(pages: u64) -> Vec<AtomicU64> {
        (0..pages).map(|_| AtomicU64::new(EVICTED)).collect()
    }

    #[inline]
    pub(crate) fn at(table: &'a [AtomicU64], pid: Pid, audit: &'a LatchLedger) -> Self {
        Entry {
            word: &table[pid.raw() as usize],
            key: pid.raw(),
            audit,
        }
    }

    #[inline]
    pub(crate) fn peek(self) -> Seen {
        // ordering: Acquire; pairs with the AcqRel/Release rewrites of this word, so tag+frame imply visible bytes
        Seen(self.word.load(Ordering::Acquire))
    }

    /// One attempt at `seen -> new`.
    #[inline]
    fn cas(self, seen: Seen, new: u64) -> bool {
        self.word
            // ordering: AcqRel on success (latch handoff: the holder's frame writes are visible to the next), Acquire on failure
            .compare_exchange(seen.0, new, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Rewrite the word through `f` until the CAS lands, or `f` declines.
    /// Returns the word replaced.
    #[inline]
    fn update(self, f: impl Fn(Seen) -> Option<u64>) -> Option<Seen> {
        let mut cur = self.peek();
        loop {
            let new = f(cur)?;
            // ordering: AcqRel on success (publishes the holder's frame writes with the new word), Acquire on failure retry
            let (success, failure) = (Ordering::AcqRel, Ordering::Acquire);
            match self
                .word
                .compare_exchange_weak(cur.0, new, success, failure)
            {
                Ok(_) => return Some(cur),
                Err(now) => cur = Seen(now),
            }
        }
    }

    /// One attempt at `seen -> new` that takes the exclusive latch.
    #[inline]
    fn cas_locking(self, seen: Seen, new: u64, by: Excl) -> bool {
        let locked = self.cas(seen, new);
        if locked {
            match by {
                Excl::Claim => self.audit.claim_exclusive(self.key),
                Excl::Guard => self.audit.acquire_exclusive(self.key),
            }
        }
        locked
    }

    #[inline]
    fn note_unlocking(self, by: Excl) {
        match by {
            Excl::Claim => self.audit.release_claim(self.key),
            Excl::Guard => self.audit.release_exclusive(self.key),
        }
    }

    /// Evicted → locked, with nothing framed yet.
    #[inline]
    pub(crate) fn try_claim(self, seen: Seen, by: Excl) -> bool {
        seen.latch() == Latch::Evicted && self.cas_locking(seen, TAG_LOCKED << TAG_SHIFT, by)
    }

    /// Unlatched → locked; flags, pages and frame stand.
    #[inline]
    pub(crate) fn try_lock(self, seen: Seen, by: Excl) -> bool {
        seen.latch() == Latch::Shared(0) && self.cas_locking(seen, seen.with_tag(TAG_LOCKED), by)
    }

    /// One more shared holder of a framing of at least `pages` pages.
    /// Refuses a saturated count — the tag never reaches `TAG_LOCKED` — and
    /// a framing too small, which must drain and re-frame first.
    #[inline]
    pub(crate) fn try_share(self, seen: Seen, pages: u64) -> bool {
        let shared = matches!(seen.latch(), Latch::Shared(n) if n < MAX_SHARED)
            && seen.pages() >= pages
            && self.cas(seen, seen.0 + ONE_SHARED);
        if shared {
            self.audit.acquire_shared(self.key);
        }
        shared
    }

    /// Drop one shared hold.
    #[inline]
    pub(crate) fn unshare(self) {
        self.audit.release_shared(self.key);
        // ordering: AcqRel; the reads under the latch complete before the count drops, and a later locker sees that
        let was = Seen(self.word.fetch_sub(ONE_SHARED, Ordering::AcqRel));
        debug_assert!(matches!(was.latch(), Latch::Shared(n) if n >= 1));
    }

    /// Rewrite a locked word, keeping whatever flags are set by then.
    #[inline]
    fn leave_locked(self, f: impl Fn(Seen) -> u64) {
        let was = self.update(|s| Some(f(s)));
        debug_assert_eq!(was.map(Seen::latch), Some(Latch::Locked));
    }

    /// Locked → locked over a new frame range (a load landed, or the
    /// extent grew).
    #[inline]
    pub(crate) fn reframe(self, pages: u64, frame: u64) {
        debug_assert!(pages <= PAGES_MASK && frame <= FRAME_MASK);
        self.leave_locked(|s| {
            (s.0 & !((PAGES_MASK << PAGES_SHIFT) | FRAME_MASK)) | (pages << PAGES_SHIFT) | frame
        });
    }

    /// Locked → unlatched.
    #[inline]
    pub(crate) fn unlock(self, by: Excl) {
        self.note_unlocking(by);
        self.leave_locked(|s| s.with_tag(0));
    }

    /// Locked by a claim → shared, count 1: the thread that faulted the
    /// extent in reads it without a window in which it could be evicted.
    #[inline]
    pub(crate) fn downgrade(self) {
        self.audit.convert_claim_to_shared(self.key);
        self.leave_locked(|s| s.with_tag(1));
    }

    /// Locked → evicted: an eviction, or a claim abandoned after a failed
    /// load. The flags go with the word, and the ledger's pin with them.
    #[inline]
    pub(crate) fn evict(self, by: Excl) {
        debug_assert_eq!(self.peek().latch(), Latch::Locked);
        self.audit.unpin(self.key);
        self.note_unlocking(by);
        // ordering: Release; the frames were given back before the word says so
        self.word.store(EVICTED, Ordering::Release);
    }

    /// Set or clear flag bits of a resident word; an evicted one has none.
    /// The ledger's pin follows the `prevent_evict` bit.
    #[inline]
    fn set_flags(self, bits: u64, on: bool) {
        let resident = self.update(|s| {
            s.is_resident()
                .then_some(if on { s.0 | bits } else { s.0 & !bits })
        });
        if resident.is_some() && bits & PREVENT_BIT != 0 {
            if on {
                self.audit.pin(self.key);
            } else {
                self.audit.unpin(self.key);
            }
        }
    }

    #[inline]
    pub(crate) fn set_dirty(self, on: bool) {
        self.set_flags(DIRTY_BIT, on);
    }

    /// The `prevent_evict` pin (§III-C "BLOB eviction").
    #[inline]
    pub(crate) fn set_prevent_evict(self, on: bool) {
        self.set_flags(PREVENT_BIT, on);
    }

    /// The bytes just written under the exclusive latch owe the extent one
    /// commit-time flush: dirty and pinned until that flush — and every
    /// other one owed — has landed.
    #[inline]
    pub(crate) fn stage_flush(self, flushes: &FlushLedger) {
        self.set_flags(DIRTY_BIT | PREVENT_BIT, true);
        flushes.stage(Pid::new(self.key));
    }

    /// A flush of the extent was reaped, its shared latch still held — so no
    /// writer can stage another between the count reaching zero and the
    /// clear. The extent becomes clean and evictable only if the flush
    /// landed and no later one is owed.
    #[inline]
    pub(crate) fn finish_flush(self, flushes: &FlushLedger, landed: bool) {
        if flushes.finish(Pid::new(self.key), landed) {
            self.set_flags(DIRTY_BIT | PREVENT_BIT, false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Copy, Debug)]
    enum Op {
        Claim,
        Lock,
        Share(u64),
        Unshare,
        Reframe(u64, u64),
        Unlock,
        Downgrade,
        Evict,
        Dirty(bool),
        Pin(bool),
    }
    use Op::*;

    /// Each row: the transition, whether it must be granted, and the latch
    /// and page count the word must show afterwards.
    type Row = (Op, bool, Latch, u64);

    /// Walk one entry through `rows`; the ledger must end with no latch
    /// held. Returns the final word and the pins the ledger still records.
    fn run(name: &str, rows: &[Row]) -> (Seen, Vec<u64>) {
        let table = Entry::table(1);
        let audit = LatchLedger::new();
        let e = Entry::at(&table, Pid::new(0), &audit);
        for (i, &(op, granted, latch, pages)) in rows.iter().enumerate() {
            let seen = e.peek();
            // Only the try_* transitions can be refused.
            let got = match op {
                Claim => e.try_claim(seen, Excl::Claim),
                Lock => e.try_lock(seen, Excl::Claim),
                Share(pages) => e.try_share(seen, pages),
                _ => true,
            };
            match op {
                Claim | Lock | Share(_) => {}
                Unshare => e.unshare(),
                Reframe(pages, frame) => e.reframe(pages, frame),
                Unlock => e.unlock(Excl::Claim),
                Downgrade => e.downgrade(),
                Evict => e.evict(Excl::Claim),
                Dirty(on) => e.set_dirty(on),
                Pin(on) => e.set_prevent_evict(on),
            }
            let now = e.peek();
            assert_eq!(
                (got, now.latch(), now.pages()),
                (granted, latch, pages),
                "{name}: row {i} {op:?}"
            );
        }
        assert_eq!(audit.held_latches(), 0, "{name}: ledger not clean");
        (e.peek(), audit.leaked_pins())
    }

    #[test]
    fn transition_tables() {
        // The shared count saturates: the next reader waits, and the tag
        // never walks into TAG_LOCKED.
        let mut saturate: Vec<Row> = vec![
            (Claim, true, Latch::Locked, 0),
            (Reframe(1, 7), true, Latch::Locked, 1),
            (Unlock, true, Latch::Shared(0), 1),
        ];
        saturate.extend((1..=MAX_SHARED).map(|n| (Share(1), true, Latch::Shared(n), 1)));
        saturate.push((Share(1), false, Latch::Shared(MAX_SHARED), 1));
        saturate.push((Unshare, true, Latch::Shared(MAX_SHARED - 1), 1));
        saturate.push((Share(1), true, Latch::Shared(MAX_SHARED), 1));
        saturate.extend(
            (0..MAX_SHARED)
                .rev()
                .map(|n| (Unshare, true, Latch::Shared(n), 1)),
        );
        run("saturate", &saturate);

        // A share naming more pages than are resident is refused, and the
        // re-frame it needs waits for the readers of the smaller framing.
        run(
            "grow",
            &[
                (Claim, true, Latch::Locked, 0),
                (Reframe(2, 3), true, Latch::Locked, 2),
                (Downgrade, true, Latch::Shared(1), 2),
                (Share(4), false, Latch::Shared(1), 2),
                (Lock, false, Latch::Shared(1), 2),
                (Unshare, true, Latch::Shared(0), 2),
                (Lock, true, Latch::Locked, 2),
                (Reframe(4, 9), true, Latch::Locked, 4),
                (Downgrade, true, Latch::Shared(1), 4),
                (Share(4), true, Latch::Shared(2), 4),
                (Unshare, true, Latch::Shared(1), 4),
                (Unshare, true, Latch::Shared(0), 4),
            ],
        );

        // A claim abandoned after a failed load leaves the word evicted,
        // claimable again, and the ledger clean; flags die with the word,
        // and the ledger's pin with them.
        let (word, pins) = run(
            "abandon, then drop while pinned",
            &[
                (Claim, true, Latch::Locked, 0),
                (Claim, false, Latch::Locked, 0),
                (Share(1), false, Latch::Locked, 0),
                (Evict, true, Latch::Evicted, 0),
                (Lock, false, Latch::Evicted, 0),
                (Claim, true, Latch::Locked, 0),
                (Reframe(3, 0), true, Latch::Locked, 3),
                (Pin(true), true, Latch::Locked, 3),
                (Unlock, true, Latch::Shared(0), 3),
                (Lock, true, Latch::Locked, 3),
                (Evict, true, Latch::Evicted, 0),
            ],
        );
        assert_eq!((word, pins), (Seen(EVICTED), vec![]));

        // An evicted word takes no flag; a re-frame under the latch keeps
        // the ones set meanwhile; a pinned extent is not evictable.
        let (word, pins) = run(
            "flags",
            &[
                (Dirty(true), true, Latch::Evicted, 0),
                (Pin(true), true, Latch::Evicted, 0),
                (Claim, true, Latch::Locked, 0),
                (Reframe(2, 5), true, Latch::Locked, 2),
                (Dirty(true), true, Latch::Locked, 2),
                (Pin(true), true, Latch::Locked, 2),
                (Reframe(4, 11), true, Latch::Locked, 4),
                (Unlock, true, Latch::Shared(0), 4),
                (Dirty(false), true, Latch::Shared(0), 4),
            ],
        );
        assert!(!word.dirty() && !word.evictable() && word.frame() == 11);
        assert_eq!(
            pins,
            if cfg!(debug_assertions) {
                vec![0]
            } else {
                vec![]
            }
        );
    }
}

#[cfg(test)]
mod model {
    //! Protocol models over the real [`Entry`]. Spin loops are bounded (a
    //! give-up path instead of an unbounded retry) so the exhaustive
    //! explorer terminates; invariants are asserted only on paths that
    //! acquired the resource. Each `broken_*` test swaps in one
    //! deliberately wrong participant and requires the checker to find the
    //! violation — under loom only, where detection is deterministic.

    use super::*;
    use lobster_sync::{hint, model_catches, race, Actor};
    // Bookkeeping the models assert on, invisible to the scheduler.
    use std::sync::atomic::{AtomicU64 as Plain, Ordering::SeqCst};

    const PID: Pid = Pid::new(0);

    struct World {
        table: Vec<AtomicU64>,
        audit: LatchLedger,
        flushes: FlushLedger,
        /// `latch`: two cells a writer updates under the exclusive latch.
        cells: [AtomicU64; 2],
        /// `claim`: frames left, and loads performed per extent.
        free_frames: AtomicU64,
        loads: [Plain; 2],
        /// `flags`: flushes staged, and flushes landed.
        staged: Plain,
        landed: Plain,
    }

    impl World {
        fn entry(&self, pid: Pid) -> Entry<'_> {
            Entry::at(&self.table, pid, &self.audit)
        }
    }

    /// `extents` entries, the first `resident` of them framed and unlatched.
    fn world(extents: u64, resident: u64, free_frames: u64) -> World {
        let w = World {
            table: Entry::table(extents),
            audit: LatchLedger::new(),
            flushes: FlushLedger::new(),
            cells: Default::default(),
            free_frames: AtomicU64::new(free_frames),
            loads: Default::default(),
            staged: Plain::new(0),
            landed: Plain::new(0),
        };
        for pid in (0..resident).map(Pid::new) {
            let e = w.entry(pid);
            assert!(e.try_claim(e.peek(), Excl::Claim));
            e.reframe(1, pid.raw());
            e.unlock(Excl::Claim);
        }
        w
    }

    /// Run `threads` against one world, under every schedule.
    fn check(build: fn() -> World, threads: &[fn(&World)], then: fn(&World)) {
        let threads = threads.to_vec();
        lobster_sync::model(move || {
            let actors = threads.iter().map(|&f| Box::new(f) as Actor<World>);
            let w = race(build(), actors.collect());
            then(&w);
            assert_eq!(w.audit.held_latches(), 0);
        });
    }

    /// Up to four tries at `f`.
    fn bounded(f: impl Fn() -> bool) -> bool {
        for _ in 0..4 {
            if f() {
                return true;
            }
            hint::spin_loop();
        }
        false
    }

    // ---- latch: shared and exclusive holders exclude each other --------

    fn check_coherent(w: &World) {
        let [x, y] = [0, 1].map(|i| w.cells[i].load(Ordering::Acquire));
        assert_eq!(x, y, "torn read under shared latch");
    }

    fn reader(w: &World) {
        let e = w.entry(PID);
        if bounded(|| e.try_share(e.peek(), 1)) {
            check_coherent(w);
            e.unshare();
        }
    }

    /// Bumps the count whatever the tag says, as no `Entry` method will.
    fn reader_ignoring_the_exclusive_tag(w: &World) {
        let word = &w.table[0];
        let (ok, err) = (Ordering::AcqRel, Ordering::Acquire);
        let bump = || {
            let e = word.load(err);
            word.compare_exchange(e, e + ONE_SHARED, ok, err).is_ok()
        };
        if bounded(bump) {
            check_coherent(w);
            word.fetch_sub(ONE_SHARED, ok);
        }
    }

    fn writer(w: &World) {
        let e = w.entry(PID);
        if bounded(|| e.try_lock(e.peek(), Excl::Guard)) {
            let v = w.cells[0].load(Ordering::Acquire) + 1;
            w.cells[0].store(v, Ordering::Release);
            // A reader sneaking in here would observe the cells torn.
            w.cells[1].store(v, Ordering::Release);
            e.unlock(Excl::Guard);
        }
    }

    #[test]
    fn latch_excludes() {
        check(
            || world(1, 1, 0),
            &[reader, writer],
            |w| {
                assert_eq!(w.entry(PID).peek().latch(), Latch::Shared(0));
            },
        );
    }

    #[test]
    fn broken_reader_ignoring_the_exclusive_tag_is_caught() {
        let broken = || {
            let threads: &[fn(&World)] = &[reader_ignoring_the_exclusive_tag, writer];
            check(|| world(1, 1, 0), threads, |_| ())
        };
        assert!(model_catches(broken, "torn read under shared latch"));
    }

    // ---- claim: fault batches race over two extents and one frame ------

    /// `fault_many` in miniature: claim every evicted extent in list order,
    /// then frame each claim or abandon it.
    fn fault_batch(w: &World) {
        let claimed = [0, 1].map(|i| {
            let e = w.entry(Pid::new(i));
            e.try_claim(e.peek(), Excl::Claim).then_some(e)
        });
        for (i, e) in claimed.into_iter().enumerate() {
            let Some(e) = e else { continue };
            let took_frame = bounded(|| {
                let f = w.free_frames.load(Ordering::Acquire);
                let (ok, err) = (Ordering::AcqRel, Ordering::Acquire);
                f > 0 && w.free_frames.compare_exchange(f, f - 1, ok, err).is_ok()
            });
            if took_frame {
                w.loads[i].fetch_add(1, SeqCst);
                e.reframe(1, i as u64);
                e.unlock(Excl::Claim);
            } else {
                e.evict(Excl::Claim);
            }
        }
    }

    #[test]
    fn claim_rollback() {
        check(
            || world(2, 0, 1),
            &[fault_batch, fault_batch],
            |w| {
                let mut frames = w.free_frames.load(Ordering::Acquire);
                for i in 0..2 {
                    let latch = w.entry(Pid::new(i)).peek().latch();
                    assert_ne!(latch, Latch::Locked, "leaked claim on extent {i}");
                    frames += u64::from(latch != Latch::Evicted);
                    let loads = w.loads[i as usize].load(SeqCst);
                    assert!(loads <= 1, "extent {i} loaded {loads} times");
                }
                assert_eq!(frames, 1, "frames leaked or double-allocated");
            },
        );
    }

    // ---- flags: dirty and pinned until every owed flush has landed -----

    /// One transaction's write of the extent and, later, its commit-time
    /// flush: `XGuard::stage_flush`, then `flush_extents_begin`/`_finish`.
    fn write_then_flush(w: &World, finish: fn(Entry<'_>, &FlushLedger)) {
        let e = w.entry(PID);
        if !bounded(|| e.try_lock(e.peek(), Excl::Guard)) {
            return;
        }
        e.stage_flush(&w.flushes);
        w.staged.fetch_add(1, SeqCst);
        e.unlock(Excl::Guard);

        if !bounded(|| e.try_share(e.peek(), 1)) {
            return;
        }
        w.flushes.begin(PID, 1);
        w.landed.fetch_add(1, SeqCst); // the device write
        finish(e, &w.flushes);
        e.unshare();
    }

    fn committer(w: &World) {
        write_then_flush(w, |e, flushes| e.finish_flush(flushes, true));
    }

    /// The boolean the flags were before the flush ledger: whichever flush
    /// lands first cleans the extent.
    fn committer_clearing_on_first_landing(w: &World) {
        write_then_flush(w, |e, flushes| {
            flushes.finish(PID, true);
            e.set_dirty(false);
            e.set_prevent_evict(false);
        });
    }

    /// Eviction and trimming take the same state — `Seen::evictable`, under
    /// a claim — so one racer stands for both.
    fn evictor(w: &World) {
        let e = w.entry(PID);
        if bounded(|| {
            let seen = e.peek();
            seen.evictable() && e.try_lock(seen, Excl::Claim)
        }) {
            let (staged, landed) = (w.staged.load(SeqCst), w.landed.load(SeqCst));
            assert_eq!(staged, landed, "evictable while a flush is owed");
            e.evict(Excl::Claim);
        }
    }

    #[test]
    fn flags_outlive_a_landed_flush_while_a_later_one_is_owed() {
        check(
            || world(1, 1, 0),
            &[committer, committer, evictor],
            |w| {
                let seen = w.entry(PID).peek();
                if w.staged.load(SeqCst) == w.landed.load(SeqCst) {
                    assert!(!seen.dirty(), "flags outlived the last owed flush");
                    assert!(w.audit.leaked_pins().is_empty());
                } else {
                    assert!(seen.dirty() && !seen.evictable());
                }
            },
        );
    }

    #[test]
    fn broken_clear_on_first_landing_is_caught() {
        let broken = || {
            let committer = committer_clearing_on_first_landing;
            let threads: &[fn(&World)] = &[committer, committer, evictor];
            check(|| world(1, 1, 0), threads, |_| ())
        };
        assert!(model_catches(broken, "evictable while a flush is owed"));
    }
}
