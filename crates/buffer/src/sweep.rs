//! The pool's one evictor: a hand that sweeps the arena's frames in order
//! and frees a *window* of contiguous frames.
//!
//! A window is made of free runs and of whole extents that are clean,
//! unlatched and unpinned ([`Seen::evictable`]). A frame of any other
//! extent, or one in transit (taken from the free frames and not yet
//! published as a framing), ends it, and the next window starts past it.
//! The window is found before anything in it is evicted; each victim is
//! then evicted through a `try_lock` on the word the hand saw, so a reader
//! or writer that latched it since, or a pin or dirty bit set since, makes
//! the claim fail and the hand go on: no-steal and `prevent_evict` hold as
//! for any other eviction. A sweep that finds no window in one revolution
//! evicts nothing.
//!
//! Every frame passes under the hand once a revolution, whatever the size
//! of the extent framing it, so eviction stays per-page fair, as §III-G's
//! "Fair extent eviction" asks of its dice: an N-page extent is N times as
//! likely to be evicted as a single page.
//!
//! The hand finds extents through the *owner map*: the head frame of each
//! framing holds its pid, written wherever a framing is published
//! ([`Sweep::own`]). An entry of the map is only a hint: a frame is taken
//! for the head of a framing only while that pid's entry word says it is
//! framed there, so a stale entry costs a step of the hand, never a frame.
//!
//! `mod model` drives this type through `lobster_sync::model`: a smoke
//! run in a normal build, every interleaving within the preemption bound
//! under `--cfg lobster_loom`.

use crate::entry::{Entry, Excl, Seen, Table};
use lobster_extent::FreeFrames;
use lobster_sync::atomic::Ordering;
use lobster_sync::Mutex;
use lobster_types::Pid;

/// A stretch of a window the hand has found: free frames, or an extent to
/// evict.
#[derive(Clone, Copy)]
enum Part {
    Free { frame: u64, pages: u64 },
    Victim { pid: Pid, seen: Seen },
}

/// The owner map and the hand of one arena.
pub(crate) struct Sweep {
    /// Per frame: 1 + the pid of the framing whose head frame it is, or 0.
    /// Zeroed memory of its own, as the page table is ([`Table`]).
    owners: Table,
    /// The frame the hand looks at next. Its lock makes one sweep at a
    /// time, so two never take apart each other's windows.
    hand: Mutex<u64>,
}

impl Sweep {
    /// The owner map and hand of an arena of `frames` frames, none framed.
    pub(crate) fn new(frames: u64) -> Sweep {
        Sweep {
            owners: Table::new(frames),
            hand: Mutex::new(0),
        }
    }

    fn frames(&self) -> u64 {
        self.owners.len() as u64
    }

    /// The framing of `pid` starts at `frame` from now on.
    pub(crate) fn own(&self, frame: u64, pid: Pid) {
        // ordering: Relaxed; a hint, checked against the entry word before use
        self.owners[frame as usize].store(pid.raw() + 1, Ordering::Relaxed);
    }

    /// The extent whose framing starts at `frame`, and its word as read
    /// now, if the owner map's hint holds.
    fn head<'e>(&self, frame: u64, entry: impl Fn(Pid) -> Entry<'e>) -> Option<(Pid, Seen)> {
        // ordering: Relaxed; a hint, checked against the entry word below
        let owner = self.owners[frame as usize].load(Ordering::Relaxed);
        let pid = Pid::new(owner.checked_sub(1)?);
        let seen = entry(pid).peek();
        (seen.is_resident() && seen.pages() > 0 && seen.frame() == frame).then_some((pid, seen))
    }

    /// Every extent framed at the walk, in arena order, with its word as
    /// the walk read it. The walk steps over each framing and each free
    /// run whole, so it costs one step per extent and per free run, not
    /// one per frame.
    pub(crate) fn heads<'e>(
        &self,
        free: &FreeFrames,
        entry: impl Fn(Pid) -> Entry<'e> + Copy,
    ) -> Vec<(Pid, Seen)> {
        let mut heads = Vec::new();
        let mut frame = 0;
        while frame < self.frames() {
            match self.head(frame, entry) {
                Some((pid, seen)) => {
                    heads.push((pid, seen));
                    frame += seen.pages();
                }
                None => frame += free.run_from(frame).unwrap_or(1),
            }
        }
        heads
    }

    /// Find a window of `pages` frames from the hand on and take it: its
    /// free runs come out of `free`, its victims are evicted (`evicted`
    /// hears of each), and the frames of the last victim past the window go
    /// back to `free`. Returns the window's first frame, or `None` when the
    /// hand found none in one revolution.
    pub(crate) fn window<'e>(
        &self,
        pages: u64,
        free: &FreeFrames,
        entry: impl Fn(Pid) -> Entry<'e> + Copy,
        mut evicted: impl FnMut(Pid),
    ) -> Option<u64> {
        let frames = self.frames();
        if pages == 0 || pages > frames {
            return None;
        }
        let mut hand = self.hand.lock();
        // The window found so far is `parts`, covering `[start, end)`.
        let (mut start, mut end) = (*hand, *hand);
        let mut parts = Vec::new();
        // The window may straddle where the hand started, so a revolution
        // ends `pages` past it.
        let mut swept = 0;
        while swept < frames + pages {
            // A window does not wrap around the end of the arena.
            if end >= frames {
                (start, end) = (0, 0);
                parts.clear();
            }
            // No-steal: a dirty extent is never a victim. BLOB content
            // becomes clean at the commit flush, B-Tree nodes at
            // checkpoints, so the on-device tree always equals the last
            // checkpoint, which logical redo/undo recovery relies on.
            let (step, part) = match self.head(end, entry) {
                Some((pid, seen)) => (
                    seen.pages(),
                    seen.evictable().then_some(Part::Victim { pid, seen }),
                ),
                None => match free.run_from(end) {
                    Some(n) => (
                        n,
                        Some(Part::Free {
                            frame: end,
                            pages: n,
                        }),
                    ),
                    None => (1, None),
                },
            };
            end += step;
            swept += step;
            let Some(part) = part else {
                start = end;
                parts.clear();
                continue;
            };
            parts.push(part);
            if end - start >= pages {
                match claim(&parts, start, pages, free, entry, &mut evicted) {
                    Ok(()) => {
                        *hand = (start + pages) % frames;
                        return Some(start);
                    }
                    Err(changed) => (start, end) = (changed, changed),
                }
                parts.clear();
            }
        }
        *hand = end % frames;
        None
    }
}

/// Take the window `[start, start + pages)` that `parts` cover, in order.
/// At a part that changed since the hand saw it, give back what was taken
/// and return the part's first frame, where the hand looks again.
fn claim<'e>(
    parts: &[Part],
    start: u64,
    pages: u64,
    free: &FreeFrames,
    entry: impl Fn(Pid) -> Entry<'e>,
    evicted: &mut impl FnMut(Pid),
) -> Result<(), u64> {
    let end = start + pages;
    // Frames `[start, taken)` are the window's.
    let mut taken = start;
    for &part in parts {
        let (frame, took) = match part {
            Part::Free { frame, pages } => {
                let want = pages.min(end - frame);
                (frame, free.take(frame, want).then_some(want))
            }
            Part::Victim { pid, seen } => {
                let e = entry(pid);
                let locked = e.try_lock(seen, Excl::Claim);
                if locked {
                    e.evict(Excl::Claim);
                    evicted(pid);
                }
                (seen.frame(), locked.then_some(seen.pages()))
            }
        };
        debug_assert_eq!(frame, taken, "the parts of a window are back to back");
        match took {
            Some(n) => taken += n,
            None => {
                if taken > start {
                    free.free(start, taken - start);
                }
                return Err(frame);
            }
        }
    }
    if taken > end {
        free.free(end, taken - end);
    }
    Ok(())
}

#[cfg(test)]
mod model {
    //! The sweep against a reader of its victim, over the real [`Sweep`],
    //! [`FreeFrames`] and [`Entry`]. The broken control frees a victim on
    //! the word it saw, without the `try_lock` that makes the claim fail,
    //! and must be caught, under loom only, where detection is
    //! deterministic.

    use super::*;
    use lobster_sync::atomic::AtomicU64;
    use lobster_sync::audit::LatchLedger;
    use lobster_sync::{hint, model_catches, race, Actor};

    const PID: Pid = Pid::new(0);
    /// What a frame's cell holds once the sweep has handed it on.
    const SWEPT: u64 = 1;

    struct World {
        table: Table,
        audit: LatchLedger,
        free: FreeFrames,
        sweep: Sweep,
        /// One cell per frame: whoever holds the frame writes here.
        cells: [AtomicU64; 1],
    }

    impl World {
        fn entry(&self, pid: Pid) -> Entry<'_> {
            Entry::at(&self.table, pid, &self.audit)
        }
    }

    /// One frame, framing one clean, unlatched, unpinned extent.
    fn world() -> World {
        let w = World {
            table: Table::new(1),
            audit: LatchLedger::new(),
            free: FreeFrames::new(1),
            sweep: Sweep::new(1),
            cells: Default::default(),
        };
        let frame = w.free.allocate(1).unwrap();
        let e = w.entry(PID);
        assert!(e.try_claim(e.peek(), Excl::Claim));
        w.sweep.own(frame, PID);
        e.reframe(1, frame);
        e.unlock(Excl::Claim);
        w
    }

    fn check(threads: &[fn(&World)]) {
        let threads = threads.to_vec();
        lobster_sync::model(move || {
            let actors = threads.iter().map(|&f| Box::new(f) as Actor<World>);
            let w = race(world(), actors.collect());
            assert_eq!(w.audit.held_latches(), 0);
        });
    }

    /// Hand a window's frames on: the next holder writes them.
    fn hand_on(w: &World, frame: u64) {
        w.cells[frame as usize].store(SWEPT, Ordering::Release);
    }

    fn sweeper(w: &World) {
        if let Some(frame) = w.sweep.window(1, &w.free, |pid| w.entry(pid), |_| ()) {
            hand_on(w, frame);
        }
    }

    /// Sees the victim evictable, then frees its frame on that stale word.
    fn sweeper_freeing_without_the_claim(w: &World) {
        let seen = w.entry(PID).peek();
        if seen.evictable() {
            hand_on(w, seen.frame());
        }
    }

    fn reader(w: &World) {
        let e = w.entry(PID);
        let mut shared = None;
        for _ in 0..4 {
            let seen = e.peek();
            if e.try_share(seen, 1) {
                shared = Some(seen);
                break;
            }
            hint::spin_loop();
        }
        let Some(seen) = shared else { return };
        let frame = seen.frame();
        let now = e.peek();
        assert_eq!(
            (now.frame(), now.pages()),
            (frame, 1),
            "reader's frames reframed"
        );
        let cell = w.cells[frame as usize].load(Ordering::Acquire);
        assert_ne!(cell, SWEPT, "frames freed under a shared latch");
        e.unshare();
    }

    #[test]
    fn a_victim_shared_after_the_hand_saw_it_stays_framed() {
        check(&[sweeper, reader]);
    }

    #[test]
    fn broken_sweep_freeing_without_the_claim_is_caught() {
        let broken = || check(&[sweeper_freeing_without_the_claim, reader]);
        assert!(model_catches(broken, "frames freed under a shared latch"));
    }
}
