//! The file-system and DBMS models' block allocator.
//!
//! Segregated (exact-size) free lists, a bump region, and best-fit
//! splitting for arbitrary sizes. Freed ranges never merge with their
//! neighbours: the models' aging (`fskit.rs` frees a large extent as two
//! halves) relies on it, so churn erodes the supply of long runs the way
//! §VI describes for file systems. Our engine's device space merges on
//! free instead (`lobster_extent::FreeFrames`).

use lobster_types::{Error, Result};
use parking_lot::Mutex;
use std::collections::BTreeMap;

/// Contiguous-range allocator over `[0, capacity)`.
pub(crate) struct RangeAllocator {
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
    pub(crate) fn new(capacity: u64) -> Self {
        RangeAllocator {
            inner: Mutex::new(Inner {
                bump: 0,
                free: BTreeMap::new(),
                free_units: 0,
            }),
            capacity,
        }
    }

    /// Number of free fragments on the free lists (a fragmentation gauge:
    /// allocation searches scale with it).
    pub(crate) fn fragment_count(&self) -> usize {
        let g = self.inner.lock();
        g.free.values().map(|v| v.len()).sum()
    }

    /// Fraction of the address space handed out (including fragmentation
    /// holes inside the bump region that sit on free lists).
    pub(crate) fn utilization(&self) -> f64 {
        let g = self.inner.lock();
        (g.bump - g.free_units) as f64 / self.capacity as f64
    }

    /// Allocate `size` contiguous units: exact-size free list first (O(1)),
    /// then the bump region, then best-fit splitting of a larger free range.
    pub(crate) fn allocate(&self, size: u64) -> Result<u64> {
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

    /// Return a previously allocated range, as one more entry on the
    /// free list of its size.
    pub(crate) fn free(&self, start: u64, size: u64) {
        assert!(size > 0 && start + size <= self.capacity);
        let mut g = self.inner.lock();
        debug_assert!(start + size <= g.bump, "freeing never-allocated range");
        g.free.entry(size).or_default().push(start);
        g.free_units += size;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_then_reuse() {
        let a = RangeAllocator::new(100);
        let x = a.allocate(10).unwrap();
        let y = a.allocate(10).unwrap();
        assert_ne!(x, y);
        a.free(x, 10);
        let z = a.allocate(10).unwrap();
        assert_eq!(z, x, "exact-size free list must be preferred");
        assert!((a.utilization() - 0.2).abs() < 1e-9);
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
    fn freed_neighbours_stay_apart() {
        let a = RangeAllocator::new(20);
        let x = a.allocate(10).unwrap();
        let y = a.allocate(10).unwrap();
        a.free(x, 10);
        a.free(y, 10);
        assert_eq!(a.fragment_count(), 2);
        assert!(a.allocate(20).is_err(), "two 10-unit entries, no 20");
    }
}
