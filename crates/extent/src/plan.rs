use crate::TierTable;
use lobster_types::{Error, Pid, Result};

/// A placed extent: `pages` consecutive pages starting at `start`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExtentSpec {
    pub start: Pid,
    pub pages: u64,
}

impl ExtentSpec {
    pub fn new(start: Pid, pages: u64) -> Self {
        ExtentSpec { start, pages }
    }

    /// Whether `pid` falls inside this extent.
    pub fn contains(&self, pid: Pid) -> bool {
        pid >= self.start && pid.raw() < self.start.raw() + self.pages
    }
}

/// The allocation plan for (an extension of) an extent sequence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SequencePlan {
    /// Sequence position of the first *new* extent (0 for a fresh BLOB,
    /// the current extent count for growth).
    pub first_position: usize,
    /// Tier sizes (pages) of the new full extents, in sequence order.
    pub sizes: Vec<u64>,
    /// Pages of the arbitrarily-sized tail extent, if one is used instead of
    /// the final tier extent (§III-A "Tail extent").
    pub tail_pages: Option<u64>,
}

impl SequencePlan {
    /// Total pages the plan allocates.
    pub fn allocated_pages(&self) -> u64 {
        self.sizes.iter().sum::<u64>() + self.tail_pages.unwrap_or(0)
    }
}

/// Plan the minimal extent sequence for a fresh BLOB of `pages` pages.
///
/// With `with_tail`, the final tier extent is replaced by a tail extent of
/// exactly the remaining size, eliminating internal fragmentation at the
/// cost of slower growth operations (§III-H).
pub fn plan_sequence(table: &TierTable, pages: u64, with_tail: bool) -> Result<SequencePlan> {
    plan_growth(table, 0, 0, pages, with_tail)
}

/// Plan the extents to append when growing a BLOB.
///
/// `existing_extents` full tier extents currently hold
/// `existing_pages` pages of capacity; the BLOB must grow to `total_pages`
/// total capacity. Returns the plan for positions
/// `existing_extents..`; empty if current capacity already suffices.
pub fn plan_growth(
    table: &TierTable,
    existing_extents: usize,
    existing_pages: u64,
    total_pages: u64,
    with_tail: bool,
) -> Result<SequencePlan> {
    debug_assert_eq!(table.cumulative_pages(existing_extents), existing_pages);
    if total_pages <= existing_pages {
        return Ok(SequencePlan {
            first_position: existing_extents,
            sizes: Vec::new(),
            tail_pages: None,
        });
    }
    let n = table
        .extents_for_pages(total_pages)
        .ok_or(Error::BlobTooLarge)?;
    debug_assert!(n > existing_extents);

    let mut sizes: Vec<u64> = (existing_extents..n).map(|i| table.size_of(i)).collect();
    let mut tail_pages = None;
    if with_tail {
        // Replace the last tier extent with an exact-size tail.
        let before_last = table.cumulative_pages(n - 1);
        let needed = total_pages - before_last.max(existing_pages);
        if needed < *sizes.last().expect("n > existing") {
            sizes.pop();
            tail_pages = Some(needed);
        }
    }
    Ok(SequencePlan {
        first_position: existing_extents,
        sizes,
        tail_pages,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TierPolicy;

    fn table() -> TierTable {
        TierTable::new(TierPolicy::default())
    }

    #[test]
    fn fresh_blob_minimal_sequence() {
        let t = table();
        // 6 pages -> extents of 1,2,4 (cumulative 7): the paper's Figure 1(a).
        let p = plan_sequence(&t, 6, false).unwrap();
        assert_eq!(p.first_position, 0);
        assert_eq!(p.sizes, vec![1, 2, 4]);
        assert_eq!(p.tail_pages, None);
        assert_eq!(p.allocated_pages(), 7);
    }

    #[test]
    fn fresh_blob_with_tail() {
        let t = table();
        // Figure 1(b): 6 pages -> extents 1,2 plus a 3-page tail.
        let p = plan_sequence(&t, 6, true).unwrap();
        assert_eq!(p.sizes, vec![1, 2]);
        assert_eq!(p.tail_pages, Some(3));
        assert_eq!(p.allocated_pages(), 6, "tail eliminates fragmentation");
    }

    #[test]
    fn exact_fit_needs_no_tail() {
        let t = table();
        // 7 pages fit 1+2+4 exactly.
        let p = plan_sequence(&t, 7, true).unwrap();
        assert_eq!(p.sizes, vec![1, 2, 4]);
        assert_eq!(p.tail_pages, None);
    }

    #[test]
    fn zero_page_blob() {
        let t = table();
        let p = plan_sequence(&t, 0, true).unwrap();
        assert!(p.sizes.is_empty());
        assert_eq!(p.tail_pages, None);
        assert_eq!(p.allocated_pages(), 0);
    }

    #[test]
    fn growth_appends_correct_positions() {
        let t = table();
        // Figure 3: a 2-page BLOB (extents 1+2 = positions 0,1) grows to 6
        // pages -> needs position 2 (size 4).
        let p = plan_growth(&t, 2, 3, 6, false).unwrap();
        assert_eq!(p.first_position, 2);
        assert_eq!(p.sizes, vec![4]);
        assert_eq!(p.tail_pages, None);
    }

    #[test]
    fn growth_noop_when_capacity_sufficient() {
        let t = table();
        let p = plan_growth(&t, 3, 7, 5, false).unwrap();
        assert!(p.sizes.is_empty());
        assert_eq!(p.tail_pages, None);
    }

    #[test]
    fn growth_with_tail() {
        let t = table();
        // 3 existing pages of capacity, grow to 12: positions 2 (4 pages)
        // and tail of 12-7=5 pages instead of the 8-page tier.
        let p = plan_growth(&t, 2, 3, 12, true).unwrap();
        assert_eq!(p.sizes, vec![4]);
        assert_eq!(p.tail_pages, Some(5));
        assert_eq!(p.allocated_pages(), 9);
    }

    #[test]
    fn too_large_is_an_error() {
        let t = TierTable::new(TierPolicy::Paper {
            tiers_per_level: 2,
            levels: 1,
        });
        let err = plan_sequence(&t, t.max_pages() + 1, false).unwrap_err();
        assert!(matches!(err, Error::BlobTooLarge));
    }

    #[test]
    fn extent_spec_contains() {
        let e = ExtentSpec::new(Pid::new(10), 4);
        assert!(e.contains(Pid::new(10)));
        assert!(e.contains(Pid::new(13)));
        assert!(!e.contains(Pid::new(14)));
        assert!(!e.contains(Pid::new(9)));
    }
}
