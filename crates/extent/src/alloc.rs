use crate::{ExtentSpec, FreeFrames, TierTable};
use lobster_sync::Arc;
use lobster_sync::Mutex;
use lobster_types::{Error, Pid, Result};
use std::collections::BTreeMap;

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

/// Page-space allocator for tiered extents and tail extents: a
/// [`FreeFrames`] map of the device's pages, so a freed extent merges with
/// its free neighbours and an allocation takes the smallest free run that
/// holds it — an exact-size hole first.
///
/// Addresses are `Pid`s offset by `base` (the first page available for
/// extent data, after the engine's metadata region).
pub struct ExtentAllocator {
    table: Arc<TierTable>,
    ranges: FreeFrames,
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
            ranges: FreeFrames::new(page_capacity - base.raw()),
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
        self.allocate_tail(self.table.size_of(pos))
    }

    /// Allocate an arbitrarily-sized tail extent.
    pub fn allocate_tail(&self, pages: u64) -> Result<ExtentSpec> {
        let start = self.ranges.allocate(pages).ok_or(Error::OutOfSpace)?;
        Ok(ExtentSpec::new(Pid::new(self.base + start), pages))
    }

    /// Release an extent (tier or tail), merged with its free neighbours. Callers do
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
        (self.ranges).free(extent.start.raw() - self.base, extent.pages);
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

    /// Rebuild allocation state from the set of live extents (recovery):
    /// exactly their union is in use.
    pub fn reset_from_extents(&self, extents: &[ExtentSpec]) {
        let mut used = self.local(extents);
        self.ranges.reset_from_used(&mut used);
    }

    /// The free runs as extents, sorted and coalesced: what a checkpoint
    /// persists.
    pub fn free_extents(&self) -> Vec<ExtentSpec> {
        let base = self.base;
        (self.ranges.runs().into_iter())
            .map(|(start, pages)| ExtentSpec::new(Pid::new(base + start), pages))
            .collect()
    }

    /// Rebuild allocation state from persisted free runs (sorted, disjoint,
    /// inside the managed space): every page outside `free` is in use, and
    /// so is every `reserved` extent, free in the runs or not.
    pub fn reset_from_free(&self, free: &[ExtentSpec], reserved: &[ExtentSpec]) {
        (self.ranges).reset_from_free(&self.local(free), &self.local(reserved));
    }

    /// `extents` as allocator-local `(start, pages)` ranges.
    fn local(&self, extents: &[ExtentSpec]) -> Vec<(u64, u64)> {
        (extents.iter())
            .map(|e| (e.start.raw() - self.base, e.pages))
            .collect()
    }

    /// Pages handed out and not yet freed.
    pub fn pages_in_use(&self) -> u64 {
        self.ranges.in_use()
    }

    /// Fragmentation score in `[0, 1)` from the free-run-length
    /// distribution: `1 - sqrt(Σ len²) / Σ len`. One contiguous free run
    /// scores 0; `n` equal scattered runs score `1 - 1/√n`, climbing
    /// toward 1 as free space shatters. With no free space at all the
    /// score is 0 (nothing to fragment).
    pub fn fragmentation_score(&self) -> f64 {
        let runs = self.ranges.runs();
        let total: u64 = runs.iter().map(|&(_, l)| l).sum();
        if total == 0 {
            return 0.0;
        }
        let sumsq: f64 = runs.iter().map(|&(_, l)| (l as f64) * (l as f64)).sum();
        1.0 - sumsq.sqrt() / total as f64
    }

    /// Free-run geometry of the managed page space, in allocator-local
    /// units (add `base` for pids): sorted, disjoint, never two that touch.
    pub fn free_runs(&self) -> Vec<(u64, u64)> {
        self.ranges.runs()
    }

    /// Fraction of the managed page space in use.
    pub fn utilization(&self) -> f64 {
        self.ranges.in_use() as f64 / self.ranges.capacity() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TierPolicy;

    fn allocator(pages: u64) -> ExtentAllocator {
        let table = Arc::new(TierTable::new(TierPolicy::default()));
        ExtentAllocator::new(table, Pid::new(0), pages)
    }

    #[test]
    fn reset_from_overlapping_ranges_allocates_their_union() {
        let a = allocator(100);
        // A 10-page tail, its 2-page truncated self, an extent that recycled
        // the cut pages, and one more extent past a hole.
        let used = [(0, 10), (0, 2), (4, 3), (12, 2)];
        let used: Vec<_> = (used.iter())
            .map(|&(s, p)| ExtentSpec::new(Pid::new(s), p))
            .collect();
        a.reset_from_extents(&used);
        assert_eq!(a.pages_in_use(), 12);
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
        let a = allocator(100);
        assert_eq!(a.free_runs(), vec![(0, 100)], "fresh space is one run");
        assert_eq!(a.fragmentation_score(), 0.0);
        // Carve out extents and free every other one: scattered holes.
        let xs: Vec<_> = (0..10).map(|_| a.allocate_tail(10).unwrap()).collect();
        for x in xs.iter().step_by(2) {
            a.free_extent(*x);
        }
        let runs = a.free_runs();
        assert_eq!(runs.len(), 5, "five scattered 10-page holes: {runs:?}");
        let scattered = a.fragmentation_score();
        assert!(scattered > 0.0 && scattered < 1.0);
        // Freeing the rest merges everything into one run again.
        for x in xs.iter().skip(1).step_by(2) {
            a.free_extent(*x);
        }
        assert_eq!(a.free_runs(), vec![(0, 100)]);
        assert_eq!(a.fragmentation_score(), 0.0);
        assert!(scattered > a.fragmentation_score());
    }

    #[test]
    fn stable_reuse_at_high_utilization() {
        // Mimic Figure 11: alternating alloc/free must keep succeeding at
        // high utilization because a freed extent is the exact-size hole
        // the next allocation of its tier takes.
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
        let a = Arc::new(allocator(100_000));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let a = a.clone();
            handles.push(std::thread::spawn(move || {
                (0..100)
                    .map(|_| a.allocate_tail(7).unwrap().start.raw())
                    .collect::<Vec<_>>()
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
