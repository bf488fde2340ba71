//! Free space as a map of free runs of frames (page-sized units): the one
//! map for the buffer pool's frames and for a shard's device pages.
//!
//! Each run is kept twice: by start, so a freed range finds both of its
//! neighbours and merges with them, and by length, so an allocation takes
//! the smallest run that fits (best fit, the lowest start among equals)
//! and leaves what it does not need as a shorter run. An exact-size hole
//! is therefore taken first, so a freed tier extent is the next extent of
//! its tier (§V-G), in O(log n). Freed space never stays split along the
//! boundaries of the extents that held it: a request for one long run —
//! a placement framing several extents, a large BLOB's tier extent after
//! mixed-size churn — gets one whenever that much free space sits together.
//!
//! The pool's evictor (`lobster-buffer`'s `sweep.rs`) also asks by
//! position: how many frames are free from a given one on
//! ([`FreeFrames::run_from`]), and for exactly those frames
//! ([`FreeFrames::take`]). Recovery builds the map from what is in use
//! ([`FreeFrames::reset_from_used`]) or from a checkpoint's free runs
//! ([`FreeFrames::reset_from_free`]).

use lobster_sync::Mutex;
use std::collections::{BTreeMap, BTreeSet};

/// Free frames of `[0, capacity)`.
pub struct FreeFrames {
    runs: Mutex<Runs>,
    capacity: u64,
}

#[derive(Default)]
struct Runs {
    /// start → length.
    by_start: BTreeMap<u64, u64>,
    /// (length, start).
    by_len: BTreeSet<(u64, u64)>,
    /// Frames in all runs.
    free: u64,
}

impl Runs {
    fn insert(&mut self, start: u64, len: u64) {
        self.by_start.insert(start, len);
        self.by_len.insert((len, start));
        self.free += len;
    }

    fn remove(&mut self, start: u64, len: u64) {
        self.by_start.remove(&start);
        self.by_len.remove(&(len, start));
        self.free -= len;
    }

    /// The runs of `[0, capacity)` that no range of `used` covers; the
    /// ranges may overlap.
    fn outside(capacity: u64, used: &mut [(u64, u64)]) -> Runs {
        used.sort_unstable();
        let mut runs = Runs::default();
        let mut cursor = 0;
        for &(start, len) in used.iter() {
            if start > cursor {
                runs.insert(cursor, start - cursor);
            }
            cursor = cursor.max(start + len);
        }
        if cursor < capacity {
            runs.insert(cursor, capacity - cursor);
        }
        runs
    }
}

impl FreeFrames {
    /// Every frame of `[0, capacity)` free, as one run.
    pub fn new(capacity: u64) -> Self {
        FreeFrames {
            runs: Mutex::new(Runs::outside(capacity, &mut [])),
            capacity,
        }
    }

    /// Frames the map covers, free or not.
    pub(crate) fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Make exactly the union of `used` in use. The ranges may overlap:
    /// before its fixpoint, recovery reserves every logged version of a
    /// BLOB, and a tail extent cut by a truncate overlaps its longer self
    /// and whatever recycled the cut frames.
    pub(crate) fn reset_from_used(&self, used: &mut [(u64, u64)]) {
        *self.runs.lock() = Runs::outside(self.capacity, used);
    }

    /// Make `free` (sorted, disjoint runs, as [`FreeFrames::runs`] gives
    /// them) the free runs, less every `reserved` range, free in them or not.
    pub(crate) fn reset_from_free(&self, free: &[(u64, u64)], reserved: &[(u64, u64)]) {
        let mut used = Vec::with_capacity(free.len() + reserved.len() + 1);
        let mut cursor = 0;
        for &(start, len) in free {
            if start > cursor {
                used.push((cursor, start - cursor));
            }
            cursor = start + len;
        }
        used.push((cursor, self.capacity - cursor));
        used.extend_from_slice(reserved);
        self.reset_from_used(&mut used);
    }

    /// Frames handed out and not yet freed.
    pub fn in_use(&self) -> u64 {
        self.capacity - self.runs.lock().free
    }

    /// `pages` frames back to back from the smallest free run that holds
    /// them, or `None` when no run does.
    pub fn allocate(&self, pages: u64) -> Option<u64> {
        assert!(pages > 0);
        let mut runs = self.runs.lock();
        let &(len, start) = runs.by_len.range((pages, 0)..).next()?;
        runs.remove(start, len);
        if len > pages {
            runs.insert(start + pages, len - pages);
        }
        Some(start)
    }

    /// Give back `[start, start + pages)`, merged with the free runs that
    /// end where it starts and start where it ends. A range outside the map
    /// or overlapping a free run panics: device pages handed out twice
    /// would hold two BLOBs.
    pub fn free(&self, start: u64, pages: u64) {
        assert!(pages > 0 && start + pages <= self.capacity);
        let mut runs = self.runs.lock();
        let (mut from, mut to) = (start, start + pages);
        if let Some((&s, &l)) = runs.by_start.range(..start).next_back() {
            assert!(s + l <= start, "frames {start}+{pages} freed twice");
            if s + l == start {
                runs.remove(s, l);
                from = s;
            }
        }
        if let Some((&s, &l)) = runs.by_start.range(start..).next() {
            assert!(s >= to, "frames {start}+{pages} freed twice");
            if s == to {
                runs.remove(s, l);
                to = s + l;
            }
        }
        runs.insert(from, to - from);
    }

    /// How many free frames lie back to back from `frame` on: `frame` to the
    /// end of the free run holding it, or `None` when it is in use.
    pub fn run_from(&self, frame: u64) -> Option<u64> {
        let runs = self.runs.lock();
        let (&s, &l) = runs.by_start.range(..=frame).next_back()?;
        (frame < s + l).then(|| s + l - frame)
    }

    /// Take `[start, start + pages)` if one free run holds it all, and say
    /// whether it did; what the run holds around it stays free.
    pub fn take(&self, start: u64, pages: u64) -> bool {
        debug_assert!(pages > 0);
        let mut runs = self.runs.lock();
        let Some((&s, &l)) = runs.by_start.range(..=start).next_back() else {
            return false;
        };
        if start + pages > s + l {
            return false;
        }
        runs.remove(s, l);
        if s < start {
            runs.insert(s, start - s);
        }
        if start + pages < s + l {
            runs.insert(start + pages, s + l - start - pages);
        }
        true
    }

    /// Every free run as `(start, len)`, by start: sorted, disjoint, and
    /// never two that touch.
    pub fn runs(&self) -> Vec<(u64, u64)> {
        let runs = self.runs.lock();
        runs.by_start.iter().map(|(&s, &l)| (s, l)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Check `map` against `used`, the model: one flag per frame.
    fn agrees(map: &FreeFrames, used: &[bool]) -> Result<(), TestCaseError> {
        let runs = map.runs();
        let mut free = vec![false; used.len()];
        for (i, &(s, l)) in runs.iter().enumerate() {
            prop_assert!(l > 0, "empty run at {s}");
            if let Some(&(next, _)) = runs.get(i + 1) {
                // Sorted, disjoint, and never two runs that touch.
                prop_assert!(s + l < next, "runs {s}+{l} and {next} not merged");
            }
            for f in s..s + l {
                prop_assert!(!used[f as usize], "frame {f} free and in use");
                free[f as usize] = true;
            }
        }
        for (f, (&u, &fr)) in used.iter().zip(&free).enumerate() {
            prop_assert!(u || fr, "frame {f} neither free nor in use");
        }
        let in_use = used.iter().filter(|&&u| u).count() as u64;
        prop_assert_eq!(map.in_use(), in_use);
        Ok(())
    }

    /// The maximal runs of frames in use.
    fn in_use_runs(used: &[bool]) -> Vec<(u64, u64)> {
        let mut runs: Vec<(u64, u64)> = Vec::new();
        for (f, _) in used.iter().enumerate().filter(|(_, &u)| u) {
            match runs.last_mut() {
                Some((s, l)) if *s + *l == f as u64 => *l += 1,
                _ => runs.push((f as u64, 1)),
            }
        }
        runs
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 64 }))]

        /// Random allocations, takes by position, frees of what is held,
        /// and rebuilds: the map and a frame bitmap agree after every step,
        /// no two allocations overlap, an allocation fails only when no free
        /// run is long enough, and a take only when a frame it names is in
        /// use. A rebuild from overlapping used ranges — every held range,
        /// its truncated self and one more range anywhere, as recovery
        /// reserves them — leaves their union in use; one from the map's own
        /// runs (a checkpoint's free map) leaves it as it was, less the
        /// reserved range.
        #[test]
        fn runs_match_a_frame_bitmap(
            ops in proptest::collection::vec((0u8..5, 1u64..12, any::<u64>()), 1..80)
        ) {
            const FRAMES: u64 = 64;
            let map = FreeFrames::new(FRAMES);
            let mut used = vec![false; FRAMES as usize];
            let mut held: Vec<(u64, u64)> = Vec::new();
            for (op, pages, pick) in ops {
                let range = (pick % (FRAMES - pages + 1), pages);
                match op {
                    1 if !held.is_empty() => {
                        let (start, pages) = held.swap_remove((pick % held.len() as u64) as usize);
                        map.free(start, pages);
                        used[start as usize..(start + pages) as usize].fill(false);
                    }
                    2 => {
                        let (start, pages) = range;
                        let free_from = used[start as usize..].iter().take_while(|&&u| !u).count() as u64;
                        prop_assert_eq!(map.run_from(start), (free_from > 0).then_some(free_from));
                        prop_assert_eq!(map.take(start, pages), free_from >= pages);
                        if free_from >= pages {
                            used[start as usize..(start + pages) as usize].fill(true);
                            held.push((start, pages));
                        }
                    }
                    3 | 4 => {
                        if op == 3 {
                            let mut ranges = held.clone();
                            ranges.extend(held.iter().map(|&(s, l)| (s, l.div_ceil(2))));
                            ranges.push(range);
                            map.reset_from_used(&mut ranges);
                        } else {
                            map.reset_from_free(&map.runs(), &[range]);
                        }
                        used[range.0 as usize..(range.0 + range.1) as usize].fill(true);
                        held = in_use_runs(&used);
                    }
                    _ => {
                        let longest = map.runs().iter().map(|&(_, l)| l).max().unwrap_or(0);
                        match map.allocate(pages) {
                            Some(start) => {
                                for f in start..start + pages {
                                    prop_assert!(!used[f as usize], "frame {f} handed out twice");
                                    used[f as usize] = true;
                                }
                                held.push((start, pages));
                            }
                            None => prop_assert!(longest < pages, "{pages} refused, run of {longest} free"),
                        }
                    }
                }
                agrees(&map, &used)?;
            }
        }

        /// Freeing the two neighbours of a hole, in either order, leaves one
        /// run of the three sizes summed.
        #[test]
        fn freeing_both_neighbours_of_a_hole_makes_one_run(
            a in 1u64..8, hole in 1u64..8, b in 1u64..8, left_first in any::<bool>()
        ) {
            let map = FreeFrames::new(a + hole + b + 1);
            let left = map.allocate(a).unwrap();
            let mid = map.allocate(hole).unwrap();
            let right = map.allocate(b).unwrap();
            let wall = map.allocate(1).unwrap();
            prop_assert_eq!((left, mid, right, wall), (0, a, a + hole, a + hole + b));
            map.free(mid, hole);
            let (first, second) = if left_first { ((left, a), (right, b)) } else { ((right, b), (left, a)) };
            map.free(first.0, first.1);
            map.free(second.0, second.1);
            prop_assert_eq!(map.runs(), vec![(0, a + hole + b)]);
            prop_assert_eq!(map.in_use(), 1);
        }
    }

    #[test]
    fn best_fit_takes_the_smallest_run_that_holds_the_request() {
        let map = FreeFrames::new(20);
        let held: Vec<u64> = [3, 1, 5, 1, 2, 1]
            .iter()
            .map(|&n| map.allocate(n).unwrap())
            .collect();
        // Runs of 3 at 0, 5 at 4, 2 at 10, and the untouched 7 at 13.
        map.free(held[0], 3);
        map.free(held[2], 5);
        map.free(held[4], 2);
        assert_eq!(map.allocate(2), Some(10));
        assert_eq!(map.allocate(4), Some(4));
        assert_eq!(map.allocate(6), Some(13));
        assert_eq!(map.allocate(4), None);
        assert_eq!(map.runs(), vec![(0, 3), (8, 1), (19, 1)]);
    }
}
