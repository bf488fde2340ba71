use crate::{ExtentSpec, TierTable};
use lobster_sync::Arc;
use lobster_sync::Mutex;
use lobster_types::{Error, Pid, Result};
use std::collections::BTreeMap;

/// Contiguous-range allocator with segregated (exact-size) free lists,
/// a bump region, and best-fit splitting for arbitrary sizes.
///
/// Because tier sizes are static, freed tier extents are recycled by exact
/// size in O(1) — the property §V-G's experiment (Figure 11) relies on for
/// stable performance at high storage utilization. Arbitrary sizes (tail
/// extents) fall back to best-fit over the free map.
pub struct RangeAllocator {
    inner: Mutex<Inner>,
    capacity: u64,
}

struct Inner {
    /// Next never-allocated unit.
    bump: u64,
    /// Exact-size free lists: size → start addresses.
    free: BTreeMap<u64, Vec<u64>>,
    /// Units currently free (inside `free`).
    free_units: u64,
}

impl RangeAllocator {
    /// Manage the address space `[0, capacity)`.
    pub fn new(capacity: u64) -> Self {
        RangeAllocator {
            inner: Mutex::new(Inner {
                bump: 0,
                free: BTreeMap::new(),
                free_units: 0,
            }),
            capacity,
        }
    }

    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Units handed out and not yet freed.
    pub fn in_use(&self) -> u64 {
        let g = self.inner.lock();
        g.bump - g.free_units
    }

    /// Number of free fragments on the free lists (a fragmentation gauge:
    /// allocation searches scale with it).
    pub fn fragment_count(&self) -> usize {
        let g = self.inner.lock();
        g.free.values().map(|v| v.len()).sum()
    }

    /// Every free run as `(start, len)`, sorted by start, with adjacent
    /// runs coalesced and the untouched bump tail included as one final
    /// run. This is the allocator's *geometry*: the defragmenter scores
    /// placement quality from the run-length distribution.
    pub fn free_runs(&self) -> Vec<(u64, u64)> {
        let g = self.inner.lock();
        let mut runs: Vec<(u64, u64)> = Vec::with_capacity(g.free_units as usize / 4 + 1);
        for (&len, starts) in &g.free {
            for &s in starts {
                runs.push((s, len));
            }
        }
        runs.sort_unstable();
        // Coalesce: the exact-size lists fragment a hole of size 5 into
        // entries [x,2] + [x+2,3]; geometrically it is one run.
        let mut coalesced: Vec<(u64, u64)> = Vec::with_capacity(runs.len());
        for (s, l) in runs {
            match coalesced.last_mut() {
                Some((ps, pl)) if *ps + *pl == s => *pl += l,
                _ => coalesced.push((s, l)),
            }
        }
        if g.bump < self.capacity {
            match coalesced.last_mut() {
                Some((ps, pl)) if *ps + *pl == g.bump => *pl += self.capacity - g.bump,
                _ => coalesced.push((g.bump, self.capacity - g.bump)),
            }
        }
        coalesced
    }

    /// Fragmentation score in `[0, 1)` from the free-run-length
    /// distribution: `1 - sqrt(Σ len²) / Σ len`. One contiguous free run
    /// scores 0; `n` equal scattered runs score `1 - 1/√n`, climbing
    /// toward 1 as free space shatters. With no free space at all the
    /// score is 0 (nothing to fragment).
    pub fn fragmentation_score(&self) -> f64 {
        let runs = self.free_runs();
        let total: u64 = runs.iter().map(|&(_, l)| l).sum();
        if total == 0 {
            return 0.0;
        }
        let sumsq: f64 = runs.iter().map(|&(_, l)| (l as f64) * (l as f64)).sum();
        1.0 - sumsq.sqrt() / total as f64
    }

    /// Fraction of the address space handed out (including fragmentation
    /// holes inside the bump region that sit on free lists).
    pub fn utilization(&self) -> f64 {
        self.in_use() as f64 / self.capacity as f64
    }

    /// Allocate `size` contiguous units: exact-size free list first (O(1)),
    /// then the bump region, then best-fit splitting of a larger free range.
    pub fn allocate(&self, size: u64) -> Result<u64> {
        assert!(size > 0);
        let mut g = self.inner.lock();
        // 1. Exact-size reuse.
        if let Some(list) = g.free.get_mut(&size) {
            if let Some(start) = list.pop() {
                if list.is_empty() {
                    g.free.remove(&size);
                }
                g.free_units -= size;
                return Ok(start);
            }
        }
        // 2. Fresh range.
        if g.bump + size <= self.capacity {
            let start = g.bump;
            g.bump += size;
            return Ok(start);
        }
        // 3. Best fit: smallest free range that is large enough, splitting
        //    the remainder back.
        let found = g
            .free
            .range(size..)
            .next()
            .map(|(&range_size, _)| range_size);
        if let Some(range_size) = found {
            let list = g.free.get_mut(&range_size).expect("present");
            let start = list.pop().expect("non-empty list");
            if list.is_empty() {
                g.free.remove(&range_size);
            }
            let leftover = range_size - size;
            if leftover > 0 {
                g.free.entry(leftover).or_default().push(start + size);
            }
            g.free_units -= size;
            return Ok(start);
        }
        Err(Error::OutOfSpace)
    }

    /// Return a previously allocated range.
    pub fn free(&self, start: u64, size: u64) {
        assert!(size > 0 && start + size <= self.capacity);
        let mut g = self.inner.lock();
        debug_assert!(start + size <= g.bump, "freeing never-allocated range");
        g.free.entry(size).or_default().push(start);
        g.free_units += size;
    }

    /// Merge adjacent free ranges into maximal runs and absorb a run
    /// ending at the bump pointer back into the bump region. The
    /// exact-size free lists recycle fixed tier sizes in O(1) but never
    /// merge neighbours, so long create/delete churn with mixed sizes
    /// shatters free space until large contiguous requests fail even at
    /// moderate utilization — the aging decay the defragmenter repairs.
    /// Returns the number of merges performed.
    pub fn coalesce(&self) -> usize {
        let mut g = self.inner.lock();
        let mut runs: Vec<(u64, u64)> = Vec::with_capacity(g.free.len() * 2);
        for (&len, starts) in &g.free {
            for &s in starts {
                runs.push((s, len));
            }
        }
        if runs.is_empty() {
            return 0;
        }
        runs.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(runs.len());
        let mut merges = 0usize;
        for (s, l) in runs {
            match merged.last_mut() {
                Some((ps, pl)) if *ps + *pl == s => {
                    *pl += l;
                    merges += 1;
                }
                _ => merged.push((s, l)),
            }
        }
        // A maximal run ending exactly at the bump pointer rejoins the
        // never-allocated region: future allocations of any size can carve
        // it, not just best-fit matches.
        if let Some(&(ls, ll)) = merged.last() {
            if ls + ll == g.bump {
                merged.pop();
                g.bump = ls;
                g.free_units -= ll;
                merges += 1;
            }
        }
        g.free.clear();
        for (s, l) in merged {
            g.free.entry(l).or_default().push(s);
        }
        merges
    }

    /// Reset the allocator so exactly the union of the `used` ranges is
    /// allocated: the bump pointer moves past the highest used unit and
    /// every hole below it becomes a free range. Used by recovery, which
    /// rediscovers the live ranges by walking all relation trees and Blob
    /// States. Ranges may overlap: before its fixpoint, recovery reserves
    /// every logged version of a BLOB, and a tail extent cut by a truncate
    /// overlaps its longer self and whatever recycled the cut pages.
    pub fn reset_from_used(&self, used: &mut [(u64, u64)]) {
        used.sort_unstable();
        let mut g = self.inner.lock();
        g.free.clear();
        g.free_units = 0;
        let mut cursor = 0u64;
        for &(start, len) in used.iter() {
            if start > cursor {
                let hole = start - cursor;
                g.free.entry(hole).or_default().push(cursor);
                g.free_units += hole;
            }
            cursor = cursor.max(start + len);
        }
        g.bump = cursor;
    }
}

/// `extents` as sorted, disjoint, maximal runs: overlapping and adjacent
/// extents merge.
pub fn union(mut extents: Vec<ExtentSpec>) -> Vec<ExtentSpec> {
    extents.sort_by_key(|e| e.start);
    let mut out: Vec<ExtentSpec> = Vec::with_capacity(extents.len());
    for e in extents {
        let end = e.start.raw() + e.pages;
        match out.last_mut() {
            Some(last) if e.start.raw() <= last.start.raw() + last.pages => {
                last.pages = last.pages.max(end - last.start.raw());
            }
            _ => out.push(e),
        }
    }
    out
}

/// Page-space allocator for tiered extents and tail extents.
///
/// Addresses are `Pid`s offset by `base` (the first page available for
/// extent data, after the engine's metadata region).
pub struct ExtentAllocator {
    table: Arc<TierTable>,
    ranges: RangeAllocator,
    base: u64,
    /// Quarantined pid ranges, keyed `start pid → pages`: a `free_extent`
    /// whose range *overlaps* any fenced range parks the extent instead of
    /// returning it to the free lists, so storage under corruption
    /// investigation is never re-allocated. Keying on the full range (not
    /// just the start pid) closes the hole where a later free whose range
    /// overlapped only a fenced extent's tail slipped past the fence.
    quarantined: Mutex<BTreeMap<u64, u64>>,
    /// Extents freed while fenced: in use for allocation, free for a
    /// checkpoint's map. Locked after `quarantined`.
    parked: Mutex<Vec<ExtentSpec>>,
}

/// Does `[start, start + pages)` overlap any fenced range in `q`?
fn overlaps_fence(q: &BTreeMap<u64, u64>, start: u64, pages: u64) -> bool {
    // The only candidate is the fenced range with the greatest start pid
    // strictly below our end; ranges never overlap each other.
    match q.range(..start + pages).next_back() {
        Some((&qs, &qp)) => qs + qp > start,
        None => false,
    }
}

impl ExtentAllocator {
    pub fn new(table: Arc<TierTable>, base: Pid, page_capacity: u64) -> Self {
        assert!(page_capacity > base.raw());
        ExtentAllocator {
            table,
            ranges: RangeAllocator::new(page_capacity - base.raw()),
            base: base.raw(),
            quarantined: Mutex::new(BTreeMap::new()),
            parked: Mutex::new(Vec::new()),
        }
    }

    pub fn table(&self) -> &Arc<TierTable> {
        &self.table
    }

    /// Allocate the extent at sequence position `pos` (its size comes from
    /// the tier table).
    pub fn allocate_tier(&self, pos: usize) -> Result<ExtentSpec> {
        let pages = self.table.size_of(pos);
        let start = self.ranges.allocate(pages)?;
        Ok(ExtentSpec::new(Pid::new(self.base + start), pages))
    }

    /// Allocate an arbitrarily-sized tail extent.
    pub fn allocate_tail(&self, pages: u64) -> Result<ExtentSpec> {
        let start = self.ranges.allocate(pages)?;
        Ok(ExtentSpec::new(Pid::new(self.base + start), pages))
    }

    /// Release an extent (tier or tail) back to the free lists. Callers do
    /// this at transaction commit, after moving extents from the
    /// transaction's temporary list (§III-D "BLOB deletion").
    ///
    /// Quarantined extents are parked instead: they stay accounted as
    /// in-use and are never handed out again until
    /// [`ExtentAllocator::release_quarantine`] lifts the fence.
    pub fn free_extent(&self, extent: ExtentSpec) {
        let q = self.quarantined.lock();
        if overlaps_fence(&q, extent.start.raw(), extent.pages) {
            self.parked.lock().push(extent);
            return;
        }
        drop(q);
        self.ranges
            .free(extent.start.raw() - self.base, extent.pages);
    }

    /// Fence an extent from re-allocation: once its current owner frees
    /// it, the pages are parked rather than recycled (verify-on-read
    /// corruption quarantine). Idempotent: re-fencing the same extent —
    /// or a longer range at the same start — widens the fence, never
    /// narrows it.
    pub fn quarantine_extent(&self, extent: ExtentSpec) {
        let mut q = self.quarantined.lock();
        let entry = q.entry(extent.start.raw()).or_insert(0);
        *entry = (*entry).max(extent.pages);
    }

    /// Lift the fence on a quarantined extent *without* freeing it; the
    /// owner (or an operator tool) frees it explicitly afterwards, so what
    /// was parked under this fence alone is forgotten.
    pub fn release_quarantine(&self, extent: ExtentSpec) {
        let mut q = self.quarantined.lock();
        q.remove(&extent.start.raw());
        (self.parked.lock()).retain(|p| overlaps_fence(&q, p.start.raw(), p.pages));
    }

    /// Extents freed while fenced, which stay parked until a reopen: a
    /// checkpoint's map counts them free.
    pub fn parked_extents(&self) -> Vec<ExtentSpec> {
        self.parked.lock().clone()
    }

    /// Is this extent currently fenced from re-allocation (does its pid
    /// range overlap any fenced range)?
    pub fn is_quarantined(&self, extent: &ExtentSpec) -> bool {
        overlaps_fence(&self.quarantined.lock(), extent.start.raw(), extent.pages)
    }

    /// Number of extents currently fenced.
    pub fn quarantined_count(&self) -> usize {
        self.quarantined.lock().len()
    }

    /// Rebuild allocation state from the set of live extents (recovery).
    pub fn reset_from_extents(&self, extents: &[ExtentSpec]) {
        let mut used: Vec<(u64, u64)> = extents
            .iter()
            .map(|e| (e.start.raw() - self.base, e.pages))
            .collect();
        self.ranges.reset_from_used(&mut used);
    }

    /// The free runs as extents, sorted and coalesced: what a checkpoint
    /// persists ([`RangeAllocator::free_runs`] in pids).
    pub fn free_extents(&self) -> Vec<ExtentSpec> {
        let base = self.base;
        (self.ranges.free_runs().into_iter())
            .map(|(start, pages)| ExtentSpec::new(Pid::new(base + start), pages))
            .collect()
    }

    /// Rebuild allocation state from persisted free runs (sorted, disjoint,
    /// inside the managed space): every page outside `free` is in use, and
    /// so is every `reserved` extent, free in the runs or not.
    pub fn reset_from_free(&self, free: &[ExtentSpec], reserved: &[ExtentSpec]) {
        let mut used = Vec::with_capacity(free.len() + reserved.len() + 1);
        let mut cursor = 0;
        for run in free {
            let start = run.start.raw() - self.base;
            if start > cursor {
                used.push((cursor, start - cursor));
            }
            cursor = start + run.pages;
        }
        if cursor < self.ranges.capacity() {
            used.push((cursor, self.ranges.capacity() - cursor));
        }
        used.extend(
            reserved
                .iter()
                .map(|e| (e.start.raw() - self.base, e.pages)),
        );
        self.ranges.reset_from_used(&mut used);
    }

    /// Pages handed out and not yet freed.
    pub fn pages_in_use(&self) -> u64 {
        self.ranges.in_use()
    }

    /// Fragmentation score of the managed page space (see
    /// [`RangeAllocator::fragmentation_score`]).
    pub fn fragmentation_score(&self) -> f64 {
        self.ranges.fragmentation_score()
    }

    /// Free-run geometry of the managed page space, in allocator-local
    /// units (add `base` for pids).
    pub fn free_runs(&self) -> Vec<(u64, u64)> {
        self.ranges.free_runs()
    }

    /// Merge adjacent free ranges (see [`RangeAllocator::coalesce`]).
    pub fn coalesce_free_space(&self) -> usize {
        self.ranges.coalesce()
    }

    /// Fraction of the managed page space in use.
    pub fn utilization(&self) -> f64 {
        self.ranges.utilization()
    }

    /// Pages the allocator manages in total.
    pub fn page_capacity(&self) -> u64 {
        self.ranges.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TierPolicy;

    #[test]
    fn bump_then_reuse() {
        let a = RangeAllocator::new(100);
        let x = a.allocate(10).unwrap();
        let y = a.allocate(10).unwrap();
        assert_ne!(x, y);
        a.free(x, 10);
        let z = a.allocate(10).unwrap();
        assert_eq!(z, x, "exact-size free list must be preferred");
        assert_eq!(a.in_use(), 20);
    }

    #[test]
    fn best_fit_split_when_bump_exhausted() {
        let a = RangeAllocator::new(32);
        let big = a.allocate(24).unwrap();
        let _small = a.allocate(8).unwrap();
        a.free(big, 24);
        // Bump region is exhausted; a 10-unit request must split the free 24.
        let s = a.allocate(10).unwrap();
        assert_eq!(s, big);
        // Remaining 14-unit hole is still allocatable.
        let t = a.allocate(14).unwrap();
        assert_eq!(t, big + 10);
        assert!(a.allocate(1).is_err());
    }

    #[test]
    fn out_of_space() {
        let a = RangeAllocator::new(10);
        assert!(a.allocate(11).is_err());
        a.allocate(10).unwrap();
        assert!(a.allocate(1).is_err());
    }

    #[test]
    fn utilization_tracks_in_use() {
        let a = RangeAllocator::new(100);
        assert_eq!(a.utilization(), 0.0);
        let x = a.allocate(50).unwrap();
        assert!((a.utilization() - 0.5).abs() < 1e-9);
        a.free(x, 50);
        assert_eq!(a.utilization(), 0.0);
    }

    #[test]
    fn reset_from_overlapping_ranges_allocates_their_union() {
        let a = RangeAllocator::new(100);
        // A 10-unit tail, its 2-unit truncated self, a range that recycled
        // the cut units, and one more range past a hole.
        a.reset_from_used(&mut [(0, 10), (0, 2), (4, 3), (12, 2)]);
        assert_eq!(a.in_use(), 12);
        assert_eq!(a.free_runs(), vec![(10, 2), (14, 86)]);
    }

    #[test]
    fn free_extents_reload_to_the_same_geometry_plus_reservations() {
        let table = Arc::new(TierTable::new(TierPolicy::default()));
        let alloc = ExtentAllocator::new(table.clone(), Pid::new(1), 200);
        let kept: Vec<_> = (0..6)
            .map(|i| alloc.allocate_tail(3 + i).unwrap())
            .collect();
        alloc.free_extent(kept[1]);
        alloc.free_extent(kept[2]);
        alloc.free_extent(kept[4]);
        let free = alloc.free_extents();
        assert_eq!(free.len(), 3, "{free:?}");

        let loaded = ExtentAllocator::new(table, Pid::new(1), 200);
        loaded.reset_from_free(&free, &[]);
        assert_eq!(loaded.free_extents(), free);
        assert_eq!(loaded.pages_in_use(), alloc.pages_in_use());
        // A reservation inside a free run splits it; one over used pages
        // changes nothing.
        loaded.reset_from_free(&free, &[kept[4], kept[0]]);
        assert_eq!(loaded.pages_in_use(), alloc.pages_in_use() + kept[4].pages);
    }

    #[test]
    fn extent_allocator_tiers_and_tails() {
        let table = Arc::new(TierTable::new(TierPolicy::default()));
        let alloc = ExtentAllocator::new(table, Pid::new(8), 1000);
        let e0 = alloc.allocate_tier(0).unwrap();
        assert_eq!(e0.pages, 1);
        assert!(e0.start.raw() >= 8);
        let e1 = alloc.allocate_tier(1).unwrap();
        assert_eq!(e1.pages, 2);
        let tail = alloc.allocate_tail(5).unwrap();
        assert_eq!(tail.pages, 5);
        assert_eq!(alloc.pages_in_use(), 8);

        alloc.free_extent(e1);
        let e1b = alloc.allocate_tier(1).unwrap();
        assert_eq!(e1b.start, e1.start, "tier extent recycled exactly");
    }

    #[test]
    fn quarantined_extent_is_never_recycled() {
        let table = Arc::new(TierTable::new(TierPolicy::default()));
        let alloc = ExtentAllocator::new(table, Pid::new(0), 1000);
        let e = alloc.allocate_tier(1).unwrap();
        let in_use = alloc.pages_in_use();
        alloc.quarantine_extent(e);
        assert!(alloc.is_quarantined(&e));
        assert_eq!(alloc.quarantined_count(), 1);
        alloc.free_extent(e); // parked, not recycled
        assert_eq!(
            alloc.pages_in_use(),
            in_use,
            "quarantined pages stay in use"
        );
        let e2 = alloc.allocate_tier(1).unwrap();
        assert_ne!(e2.start, e.start, "fenced extent must not be handed out");
        // Lifting the fence makes an explicit free effective again.
        alloc.release_quarantine(e);
        alloc.free_extent(e);
        let e3 = alloc.allocate_tier(1).unwrap();
        assert_eq!(e3.start, e.start);
    }

    #[test]
    fn fence_covers_full_pid_range_not_just_start() {
        // The PR 10 satellite fix: a free whose range overlaps only the
        // *tail* of a fenced extent must be parked too. Before the fix the
        // fence was keyed on the start pid alone and such frees slipped
        // straight back onto the free lists.
        let table = Arc::new(TierTable::new(TierPolicy::default()));
        let alloc = ExtentAllocator::new(table, Pid::new(0), 1000);
        let big = alloc.allocate_tail(8).unwrap();
        alloc.quarantine_extent(big);
        let in_use = alloc.pages_in_use();
        // A free of the tail half (different start pid, overlapping range).
        let tail_half = ExtentSpec::new(Pid::new(big.start.raw() + 4), 4);
        assert!(alloc.is_quarantined(&tail_half), "overlap must be fenced");
        alloc.free_extent(tail_half);
        assert_eq!(
            alloc.pages_in_use(),
            in_use,
            "a free overlapping a fenced extent's tail must be parked"
        );
        // A free overlapping the head from below is fenced as well.
        let straddle_head = ExtentSpec::new(big.start, 2);
        alloc.free_extent(straddle_head);
        assert_eq!(alloc.pages_in_use(), in_use);
        // A disjoint neighbour is not fenced.
        let disjoint = ExtentSpec::new(Pid::new(big.start.raw() + 8), 4);
        assert!(!alloc.is_quarantined(&disjoint));
    }

    #[test]
    fn double_quarantine_is_idempotent() {
        let table = Arc::new(TierTable::new(TierPolicy::default()));
        let alloc = ExtentAllocator::new(table, Pid::new(0), 1000);
        let e = alloc.allocate_tier(2).unwrap();
        alloc.quarantine_extent(e);
        alloc.quarantine_extent(e);
        assert_eq!(alloc.quarantined_count(), 1, "re-fencing must not stack");
        let in_use = alloc.pages_in_use();
        alloc.free_extent(e);
        assert_eq!(alloc.pages_in_use(), in_use);
        // One release lifts the fence completely.
        alloc.release_quarantine(e);
        assert!(!alloc.is_quarantined(&e));
        alloc.free_extent(e);
        let again = alloc.allocate_tier(2).unwrap();
        assert_eq!(again.start, e.start, "released pages recycle exactly");
    }

    #[test]
    fn quarantine_release_reallocation_round_trip() {
        let table = Arc::new(TierTable::new(TierPolicy::default()));
        let alloc = ExtentAllocator::new(table, Pid::new(0), 1000);
        let e = alloc.allocate_tier(3).unwrap();
        alloc.quarantine_extent(e);
        alloc.free_extent(e); // parked
        let other = alloc.allocate_tier(3).unwrap();
        assert_ne!(other.start, e.start);
        alloc.release_quarantine(e);
        alloc.free_extent(e);
        let reused = alloc.allocate_tier(3).unwrap();
        assert_eq!(reused.start, e.start, "round trip must re-allocate");
        assert_eq!(alloc.quarantined_count(), 0);
    }

    #[test]
    fn free_runs_and_fragmentation_score() {
        let a = RangeAllocator::new(100);
        assert_eq!(a.free_runs(), vec![(0, 100)], "fresh space is one run");
        assert_eq!(a.fragmentation_score(), 0.0);
        // Carve out ranges and free every other one: scattered holes.
        let xs: Vec<u64> = (0..10).map(|_| a.allocate(10).unwrap()).collect();
        for (i, &x) in xs.iter().enumerate() {
            if i % 2 == 0 {
                a.free(x, 10);
            }
        }
        let runs = a.free_runs();
        assert_eq!(runs.len(), 5, "five scattered 10-unit holes: {runs:?}");
        let scattered = a.fragmentation_score();
        assert!(scattered > 0.0 && scattered < 1.0);
        // Freeing the rest coalesces everything into one run again.
        for (i, &x) in xs.iter().enumerate() {
            if i % 2 == 1 {
                a.free(x, 10);
            }
        }
        assert_eq!(a.free_runs(), vec![(0, 100)]);
        assert_eq!(a.fragmentation_score(), 0.0);
        assert!(scattered > a.fragmentation_score());
    }

    #[test]
    fn coalesce_merges_neighbours_and_rejoins_bump() {
        let a = RangeAllocator::new(100);
        let xs: Vec<u64> = (0..10).map(|_| a.allocate(10).unwrap()).collect();
        for &x in &xs {
            a.free(x, 10);
        }
        // All freed, but the exact-size lists hold ten separate 10-unit
        // entries: a 20-unit request cannot be satisfied.
        assert!(a.allocate(20).is_err(), "shattered free lists");
        let merges = a.coalesce();
        assert!(merges > 0);
        // Everything merged and absorbed back into the bump region.
        assert_eq!(a.free_runs(), vec![(0, 100)]);
        assert_eq!(a.in_use(), 0);
        let big = a.allocate(64).unwrap();
        assert_eq!(big, 0);
        a.free(big, 64);
    }

    #[test]
    fn coalesce_preserves_used_ranges() {
        let a = RangeAllocator::new(100);
        let xs: Vec<u64> = (0..10).map(|_| a.allocate(10).unwrap()).collect();
        // Free every other range: holes cannot merge across live ranges.
        for (i, &x) in xs.iter().enumerate() {
            if i % 2 == 0 {
                a.free(x, 10);
            }
        }
        let before = a.in_use();
        a.coalesce();
        assert_eq!(a.in_use(), before);
        assert_eq!(a.free_runs().len(), 5, "live ranges keep holes apart");
        // Live ranges must still be intact: allocating over them is
        // impossible because best-fit only hands out free space.
        for (i, &x) in xs.iter().enumerate() {
            if i % 2 == 1 {
                a.free(x, 10);
            }
            let _ = i;
            let _ = x;
        }
        a.coalesce();
        assert_eq!(a.free_runs(), vec![(0, 100)]);
    }

    #[test]
    fn stable_reuse_at_high_utilization() {
        // Mimic Figure 11: alternating alloc/free must keep succeeding at
        // high utilization because free lists recycle exact sizes.
        let table = Arc::new(TierTable::new(TierPolicy::default()));
        let alloc = ExtentAllocator::new(table, Pid::new(0), 4096);
        let mut live: Vec<ExtentSpec> = Vec::new();
        // Fill to ~90 %.
        while alloc.utilization() < 0.9 {
            match alloc.allocate_tier(4) {
                Ok(e) => live.push(e),
                Err(_) => break,
            }
        }
        let before = alloc.utilization();
        // Churn: free one, allocate one, 1000 times.
        for i in 0..1000 {
            let e = live.swap_remove(i % live.len());
            alloc.free_extent(e);
            live.push(alloc.allocate_tier(4).expect("reuse must succeed"));
        }
        assert!((alloc.utilization() - before).abs() < 1e-9);
    }

    #[test]
    fn concurrent_allocation_is_disjoint() {
        let a = Arc::new(RangeAllocator::new(100_000));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let a = a.clone();
            handles.push(std::thread::spawn(move || {
                (0..100).map(|_| a.allocate(7).unwrap()).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        for w in all.windows(2) {
            assert!(w[1] - w[0] >= 7, "ranges {} and {} overlap", w[0], w[1]);
        }
    }
}
