//! Aliasing-area management (§IV-B).
//!
//! Every worker owns a *worker-local aliasing area*; BLOBs larger than the
//! local area reserve a contiguous run of logical blocks from a *shared
//! aliasing area* guarded by a bitmap range lock using compare-and-swap —
//! exactly the design the paper evaluates in Table II. A view that finds
//! its worker's local area held by another live view (a read nested in
//! another's closure) takes a shared run instead of mapping over it.

use crate::arena::{Arena, OS_PAGE};
use lobster_metrics::Metrics;
use lobster_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use lobster_types::{Error, Result};
use std::ops::Range;

/// Sizing of the aliasing areas.
#[derive(Clone, Copy, Debug)]
pub struct AliasConfig {
    /// Number of workers, each with an exclusive local area.
    pub workers: usize,
    /// Bytes of each worker-local area (the paper discusses 4 MB vs 16 MB;
    /// production default 1 GB).
    pub worker_local_bytes: usize,
    /// Bytes of the shared area, split into blocks of
    /// `worker_local_bytes` each.
    pub shared_bytes: usize,
}

impl AliasConfig {
    pub fn total_bytes(&self) -> usize {
        self.workers * self.worker_local_bytes + self.shared_bytes
    }

    pub fn blocks(&self) -> usize {
        self.shared_bytes / self.worker_local_bytes
    }
}

/// Reservation statistics (reported by the Table II experiment).
#[derive(Clone, Copy, Debug, Default)]
pub struct AliasStats {
    pub local_uses: u64,
    pub shared_uses: u64,
    pub reservation_retries: u64,
}

/// Manages the worker-local and shared aliasing areas over an [`Arena`]'s
/// aliasing region.
pub struct AliasingManager {
    cfg: AliasConfig,
    /// Per worker: a live view maps the worker-local area.
    local_held: Vec<AtomicBool>,
    bitmap: Vec<AtomicU64>,
    local_uses: AtomicU64,
    shared_uses: AtomicU64,
    retries: AtomicU64,
}

impl AliasingManager {
    pub fn new(cfg: AliasConfig) -> Self {
        assert!(cfg.workers > 0);
        assert!(cfg.worker_local_bytes.is_multiple_of(OS_PAGE) && cfg.worker_local_bytes > 0);
        assert!(cfg.shared_bytes.is_multiple_of(cfg.worker_local_bytes));
        let words = cfg.blocks().div_ceil(64);
        AliasingManager {
            cfg,
            local_held: (0..cfg.workers).map(|_| AtomicBool::new(false)).collect(),
            bitmap: (0..words).map(|_| AtomicU64::new(0)).collect(),
            local_uses: AtomicU64::new(0),
            shared_uses: AtomicU64::new(0),
            retries: AtomicU64::new(0),
        }
    }

    pub fn config(&self) -> AliasConfig {
        self.cfg
    }

    pub fn stats(&self) -> AliasStats {
        AliasStats {
            local_uses: self.local_uses.load(Ordering::Relaxed), // ordering: Relaxed; stats snapshot, counters may be mutually torn
            shared_uses: self.shared_uses.load(Ordering::Relaxed),
            reservation_retries: self.retries.load(Ordering::Relaxed), // ordering: Relaxed; stats snapshot, counters may be mutually torn
        }
    }

    /// Map the given frame ranges (`(frame_byte_offset, byte_len)`, each
    /// OS-page aligned) contiguously and return a guard exposing the view.
    ///
    /// # Safety
    /// The caller must hold latches on all frames in `parts` for the guard's
    /// lifetime (the pool's `read_blob` does).
    pub unsafe fn alias<'a>(
        &'a self,
        arena: &'a Arena,
        worker: usize,
        parts: &[(usize, usize)],
        metrics: &Metrics,
    ) -> Result<AliasGuard<'a>> {
        assert!(
            worker < self.cfg.workers,
            "worker {worker} outside the {} configured aliasing areas",
            self.cfg.workers
        );
        let total: usize = parts.iter().map(|&(_, len)| len).sum();
        let local_free = || {
            // ordering: Acquire; pairs with the Release in `release`: the last view's unmap precedes our map
            !self.local_held[worker].swap(true, Ordering::Acquire)
        };
        let (base, area) = if total <= self.cfg.worker_local_bytes && local_free() {
            // Case 1: the worker-local area suffices and is free; no
            // synchronization with other workers.
            // ordering: Relaxed usage counter; read only by stats()
            self.local_uses.fetch_add(1, Ordering::Relaxed);
            (worker * self.cfg.worker_local_bytes, Area::Local(worker))
        } else {
            // Case 2: reserve contiguous logical blocks from the shared
            // area via the bitmap range lock.
            let nblocks = total.div_ceil(self.cfg.worker_local_bytes);
            let range = self.reserve_blocks(nblocks).ok_or(Error::BufferFull)?;
            // ordering: Relaxed usage counter; read only by stats()
            self.shared_uses.fetch_add(1, Ordering::Relaxed);
            let base = self.cfg.workers * self.cfg.worker_local_bytes
                + range.start * self.cfg.worker_local_bytes;
            (base, Area::Shared(range))
        };

        // Map every part consecutively.
        let mut off = base;
        for &(src, len) in parts {
            if let Err(e) = arena.alias_map(off, src, len) {
                // Unwind partial mappings.
                arena.alias_unmap(base, off - base);
                self.release(area);
                return Err(e);
            }
            off += len;
        }
        metrics
            .alias_ops
            .fetch_add(parts.len() as u64, Ordering::Relaxed); // ordering: relaxed metrics counter; snapshot readers tolerate staleness

        Ok(AliasGuard {
            arena,
            mgr: self,
            base,
            mapped: total,
            area: Some(area),
            metrics: metrics.clone(),
        })
    }

    /// Hand an unmapped area back.
    fn release(&self, area: Area) {
        match area {
            // ordering: Release; our unmap happens-before the next view's map of this area
            Area::Local(worker) => self.local_held[worker].store(false, Ordering::Release),
            Area::Shared(range) => self.release_blocks(range),
        }
    }

    /// Reserve `n` contiguous blocks. Lock-free: set bits one at a time with
    /// CAS, rolling back and restarting after the conflicting position on a
    /// collision.
    fn reserve_blocks(&self, n: usize) -> Option<Range<usize>> {
        let blocks = self.cfg.blocks();
        if n > blocks {
            return None;
        }
        let mut attempts = 0;
        'outer: while attempts < blocks * 4 {
            attempts += 1;
            let mut start = None;
            // Find a candidate run of clear bits.
            let mut run = 0usize;
            for i in 0..blocks {
                if self.bit(i) {
                    run = 0;
                } else {
                    run += 1;
                    if run == n {
                        start = Some(i + 1 - n);
                        break;
                    }
                }
            }
            let start = start?;
            // Claim the run bit by bit.
            for i in start..start + n {
                if !self.try_set_bit(i) {
                    // Roll back what we claimed and retry.
                    for j in start..i {
                        self.clear_bit(j);
                    }
                    // ordering: Relaxed retry counter; read only by stats()
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    continue 'outer;
                }
            }
            return Some(start..start + n);
        }
        None
    }

    fn release_blocks(&self, range: Range<usize>) {
        for i in range {
            self.clear_bit(i);
        }
    }

    fn bit(&self, i: usize) -> bool {
        // ordering: Acquire; pairs with the AcqRel bit ops, a set bit implies the holder's writes are visible
        self.bitmap[i / 64].load(Ordering::Acquire) & (1 << (i % 64)) != 0
    }

    fn try_set_bit(&self, i: usize) -> bool {
        let word = &self.bitmap[i / 64];
        let mask = 1u64 << (i % 64);
        // ordering: AcqRel; winning the bit acquires the last holder's release and publishes our claim
        word.fetch_or(mask, Ordering::AcqRel) & mask == 0
    }

    fn clear_bit(&self, i: usize) {
        // ordering: AcqRel; freeing the block publishes our writes to the next fetch_or winner
        self.bitmap[i / 64].fetch_and(!(1 << (i % 64)), Ordering::AcqRel);
    }
}

/// Where a view is mapped: a worker's local area or a run of shared blocks.
enum Area {
    Local(usize),
    Shared(Range<usize>),
}

/// A live contiguous view of a BLOB through the aliasing region. Unmaps and
/// releases its area on drop.
pub struct AliasGuard<'a> {
    arena: &'a Arena,
    mgr: &'a AliasingManager,
    base: usize,
    mapped: usize,
    /// `None` once released.
    area: Option<Area>,
    metrics: Metrics,
}

impl AliasGuard<'_> {
    /// The contiguous byte view of all aliased parts.
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: the mapping established in `alias` covers
        // `base..base+mapped` and stays valid until drop.
        unsafe { std::slice::from_raw_parts(self.arena.alias_base().add(self.base), self.mapped) }
    }
}

impl Drop for AliasGuard<'_> {
    fn drop(&mut self) {
        // SAFETY: we own this range until now.
        unsafe {
            self.arena.alias_unmap(self.base, self.mapped);
        }
        // Count the shootdown-equivalent unmap.
        // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        self.metrics.alias_ops.fetch_add(1, Ordering::Relaxed);
        if let Some(area) = self.area.take() {
            self.mgr.release(area);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr(workers: usize, local: usize, shared: usize) -> AliasingManager {
        AliasingManager::new(AliasConfig {
            workers,
            worker_local_bytes: local,
            shared_bytes: shared,
        })
    }

    /// Hammer the CAS range lock from many threads: no two concurrent
    /// reservations may ever overlap, and everything reserved must come
    /// back (the bitmap ends empty).
    #[test]
    fn concurrent_reservations_never_overlap() {
        use lobster_sync::atomic::AtomicUsize;

        const BLOCKS: usize = 64 + 17; // straddle a bitmap word boundary
        let m = lobster_sync::Arc::new(mgr(1, OS_PAGE, BLOCKS * OS_PAGE));
        // owners[i] = thread id currently holding block i (0 = free).
        let owners: std::sync::Arc<Vec<AtomicUsize>> =
            lobster_sync::Arc::new((0..BLOCKS).map(|_| AtomicUsize::new(0)).collect());

        std::thread::scope(|s| {
            for tid in 1..=8usize {
                let m = m.clone();
                let owners = owners.clone();
                s.spawn(move || {
                    let mut rng = tid as u64 * 0x9E37_79B9;
                    for _ in 0..400 {
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        let n = 1 + (rng as usize) % 9;
                        let Some(range) = m.reserve_blocks(n) else {
                            continue; // transiently full under contention
                        };
                        for i in range.clone() {
                            let prev = owners[i].swap(tid, Ordering::SeqCst);
                            assert_eq!(prev, 0, "block {i} double-reserved by {prev} and {tid}");
                        }
                        // Hold briefly so overlaps would actually collide.
                        std::hint::spin_loop();
                        for i in range.clone() {
                            let prev = owners[i].swap(0, Ordering::SeqCst);
                            assert_eq!(prev, tid);
                        }
                        m.release_blocks(range);
                    }
                });
            }
        });

        for i in 0..BLOCKS {
            assert!(!m.bit(i), "block {i} leaked");
        }
        assert!(m.stats().reservation_retries < 400 * 8, "retries bounded");
    }

    /// Fragmentation probe: interleaved holds leave single-block holes that
    /// must still satisfy single-block requests but not larger runs.
    #[test]
    fn fragmented_bitmap_finds_exact_holes() {
        let m = mgr(1, OS_PAGE, 8 * OS_PAGE);
        let held: Vec<_> = (0..4).map(|_| m.reserve_blocks(1).expect("room")).collect();
        let r2 = m.reserve_blocks(4).expect("4 contiguous remain");
        assert_eq!(r2, 4..8);
        // Now only nothing is left; a 1-block ask must fail.
        assert!(m.reserve_blocks(1).is_none());
        m.release_blocks(held[1].clone());
        assert_eq!(m.reserve_blocks(1), Some(1..2), "freed hole is reused");
    }

    #[test]
    fn block_reservation_and_release() {
        let m = mgr(2, OS_PAGE, OS_PAGE * 8);
        let a = m.reserve_blocks(3).unwrap();
        let b = m.reserve_blocks(3).unwrap();
        assert!(a.end <= b.start || b.end <= a.start);
        assert!(m.reserve_blocks(3).is_none(), "only 2 blocks left");
        m.release_blocks(a.clone());
        let c = m.reserve_blocks(3).unwrap();
        assert_eq!(c, a);
        m.release_blocks(b);
        m.release_blocks(c);
        assert!(m.reserve_blocks(8).is_some());
    }

    #[test]
    fn oversized_reservation_fails() {
        let m = mgr(1, OS_PAGE, OS_PAGE * 4);
        assert!(m.reserve_blocks(5).is_none());
    }

    #[test]
    fn concurrent_reservations_do_not_overlap() {
        let m = lobster_sync::Arc::new(mgr(1, OS_PAGE, OS_PAGE * 64));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let m = m.clone();
            handles.push(std::thread::spawn(move || {
                let mut owned = Vec::new();
                for _ in 0..100 {
                    if let Some(r) = m.reserve_blocks(3) {
                        owned.push(r.clone());
                        if owned.len() > 4 {
                            m.release_blocks(owned.remove(0));
                        }
                    }
                }
                for r in owned.drain(..) {
                    m.release_blocks(r);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Everything released: full reservation must succeed again.
        assert!(m.reserve_blocks(64).is_some());
    }

    #[test]
    fn alias_through_arena_end_to_end() {
        let arena = Arena::new(OS_PAGE * 16, OS_PAGE * 16);
        if !arena.supports_alias() {
            eprintln!("no mmap arena; skipping");
            return;
        }
        let m = mgr(2, OS_PAGE * 2, OS_PAGE * 8);
        let metrics = lobster_metrics::new_metrics();
        // SAFETY: single-threaded test; the frame ranges touched are disjoint
        // and within the arena, so no aliasing mutable access occurs.
        unsafe {
            arena.frame_slice_mut(0, OS_PAGE).fill(1);
            arena.frame_slice_mut(4 * OS_PAGE, OS_PAGE).fill(2);
            // Fits the 2-page worker-local area.
            let g = m
                .alias(&arena, 1, &[(0, OS_PAGE), (4 * OS_PAGE, OS_PAGE)], &metrics)
                .unwrap();
            let v = g.as_slice();
            assert!(v[..OS_PAGE].iter().all(|&b| b == 1));
            assert!(v[OS_PAGE..].iter().all(|&b| b == 2));
            drop(g);
            assert_eq!(m.stats().local_uses, 1);
            assert_eq!(m.stats().shared_uses, 0);

            // Larger than local: must use the shared area.
            arena.frame_slice_mut(8 * OS_PAGE, 3 * OS_PAGE).fill(3);
            let g = m
                .alias(&arena, 0, &[(8 * OS_PAGE, 3 * OS_PAGE)], &metrics)
                .unwrap();
            assert!(g.as_slice().iter().all(|&b| b == 3));
            drop(g);
            assert_eq!(m.stats().shared_uses, 1);
        }
        assert!(metrics.snapshot().alias_ops > 0);
    }

    #[test]
    fn nested_views_on_one_worker_do_not_overlap() {
        let arena = Arena::new(OS_PAGE * 4, OS_PAGE * 8);
        if !arena.supports_alias() {
            eprintln!("no mmap arena; skipping");
            return;
        }
        let m = mgr(1, OS_PAGE * 2, OS_PAGE * 4);
        let metrics = lobster_metrics::new_metrics();
        // SAFETY: single-threaded test; the frame ranges touched are disjoint
        // and within the arena, so no aliasing mutable access occurs.
        unsafe {
            arena.frame_slice_mut(0, OS_PAGE).fill(1);
            arena.frame_slice_mut(OS_PAGE, OS_PAGE).fill(2);
            let outer = m.alias(&arena, 0, &[(0, OS_PAGE)], &metrics).unwrap();
            // The worker's local area is taken: the inner view goes shared
            // instead of mapping over the outer one.
            let inner = m.alias(&arena, 0, &[(OS_PAGE, OS_PAGE)], &metrics).unwrap();
            assert_eq!((m.stats().local_uses, m.stats().shared_uses), (1, 1));
            assert!(inner.as_slice().iter().all(|&b| b == 2));
            drop(inner);
            assert!(outer.as_slice().iter().all(|&b| b == 1));
            drop(outer);
            let again = m.alias(&arena, 0, &[(OS_PAGE, OS_PAGE)], &metrics).unwrap();
            assert_eq!(m.stats().local_uses, 2, "the local area is free again");
            drop(again);
        }
    }
}

#[cfg(test)]
mod model {
    //! The worker-local area claim, over the real [`AliasingManager`]: two
    //! views on one worker, each live across a preemption point, never hold
    //! the local area at once — the one that finds it taken goes to the
    //! shared area (refused here: the views are empty, so only the area
    //! protocol runs and no memory is mapped). The `broken_*` test hands the
    //! area back while its view is still live and requires the checker to
    //! find the overlap, under loom only.

    use super::*;
    // Bookkeeping the model asserts on, invisible to the scheduler.
    use std::sync::atomic::{AtomicUsize as Plain, Ordering::SeqCst};

    struct World {
        mgr: AliasingManager,
        arena: Arena,
        metrics: Metrics,
        /// Live views holding the worker-local area.
        local_views: Plain,
        /// Claims of the local area made while another view held it.
        overlaps: Plain,
    }

    fn view(w: &World, release_early: bool) {
        // SAFETY: an empty view maps no frames, so there is nothing to latch.
        let Ok(mut g) = (unsafe { w.mgr.alias(&w.arena, 0, &[(0, 0)], &w.metrics) }) else {
            return; // local area taken, and no shared run for an empty view
        };
        if matches!(g.area, Some(Area::Local(_))) {
            // Counted, not asserted: a panic here would unwind through the
            // guard's loom-tracked drop.
            if w.local_views.fetch_add(1, SeqCst) > 0 {
                w.overlaps.fetch_add(1, SeqCst);
            }
            if release_early {
                if let Some(area) = g.area.take() {
                    w.mgr.release(area);
                }
            }
            lobster_sync::thread::yield_now();
            w.local_views.fetch_sub(1, SeqCst);
        }
    }

    fn run(release_early: bool) {
        let world = World {
            mgr: AliasingManager::new(AliasConfig {
                workers: 1,
                worker_local_bytes: OS_PAGE,
                shared_bytes: OS_PAGE,
            }),
            arena: Arena::new(OS_PAGE, 2 * OS_PAGE),
            metrics: lobster_metrics::new_metrics(),
            local_views: Plain::new(0),
            overlaps: Plain::new(0),
        };
        let world = lobster_sync::race(
            world,
            vec![
                Box::new(move |w: &World| view(w, release_early)),
                Box::new(move |w: &World| view(w, release_early)),
            ],
        );
        assert_eq!(
            world.overlaps.load(SeqCst),
            0,
            "two live views share the local area"
        );
        assert!(
            !world.mgr.local_held[0].load(Ordering::SeqCst),
            "the local area stayed claimed"
        );
    }

    #[test]
    fn one_live_view_per_local_area() {
        lobster_sync::model(|| run(false));
    }

    #[test]
    fn broken_early_release_is_caught() {
        let broken = || lobster_sync::model(|| run(true));
        assert!(lobster_sync::model_catches(
            broken,
            "two live views share the local area"
        ));
    }
}
