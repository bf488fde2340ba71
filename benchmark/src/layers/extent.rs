//! `lobster-extent`. Pinned: `TierPolicy::default`, `TierTable::{new,
//! size_of}`, `ExtentAllocator::{new, allocate_tier, free_extent}`,
//! `ExtentSpec::{start, pages}`.

use lobster_extent::{TierPolicy, TierTable};
use lobster_types::{Pid, Result};
use std::sync::Arc;

pub use lobster_extent::{ExtentAllocator, ExtentSpec};

pub fn tier_table() -> Arc<TierTable> {
    Arc::new(TierTable::new(TierPolicy::default()))
}

/// An allocator over `pages` pages starting at page 1 (page 0 is the
/// engine's header).
pub fn allocator(table: Arc<TierTable>, pages: u64) -> Arc<ExtentAllocator> {
    Arc::new(ExtentAllocator::new(table, Pid::new(1), pages))
}

/// Tier positions whose extents together hold `pages` pages.
pub fn positions_for(table: &TierTable, pages: u64) -> usize {
    let mut total = 0;
    let mut n = 0;
    while total < pages {
        total += table.size_of(n);
        n += 1;
    }
    n
}

/// The extent sequence of one blob of `pages` pages.
pub fn allocate_sequence(
    alloc: &ExtentAllocator,
    table: &TierTable,
    pages: u64,
) -> Result<Vec<ExtentSpec>> {
    (0..positions_for(table, pages))
        .map(|pos| alloc.allocate_tier(pos))
        .collect()
}

pub fn alloc_free_pair(alloc: &ExtentAllocator, pos: usize) -> Result<()> {
    let spec = alloc.allocate_tier(pos)?;
    alloc.free_extent(spec);
    Ok(())
}
