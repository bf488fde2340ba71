use crate::ExtentSpec;
use lobster_types::Geometry;
use std::ops::Range;

/// A run of BLOB bytes that lies inside one extent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Piece {
    /// Position of the extent in the view that was walked.
    pub index: usize,
    pub spec: ExtentSpec,
    /// Byte offset of the run within the extent.
    pub offset: usize,
    pub len: usize,
}

/// Where the bytes `range` of a BLOB live: the pieces, in order, that tile
/// `range` over `view`, none crossing an extent boundary and none longer
/// than `chunk` bytes (`usize::MAX` for one piece per extent touched).
///
/// `view` lists the BLOB's extents in sequence order, each holding the
/// bytes that follow the extent before it; BLOB byte 0 is byte 0 of
/// `view[0]`. Bytes of `range` past the end of the view yield no piece.
///
/// This is the one place that turns a BLOB offset into an extent and an
/// offset within it. Every read, hash, delta and comparison of content walks
/// it, so a change to how content is laid out over the extent sequence is a
/// change here and in the view handed in.
pub fn pieces(view: &[ExtentSpec], geo: Geometry, range: Range<u64>, chunk: usize) -> Pieces<'_> {
    Pieces {
        view,
        geo,
        index: 0,
        base: 0,
        pos: range.start,
        end: range.end,
        chunk: chunk.max(1) as u64,
    }
}

/// Iterator returned by [`pieces`].
#[derive(Clone, Debug)]
pub struct Pieces<'a> {
    view: &'a [ExtentSpec],
    geo: Geometry,
    /// The extent holding `pos`, or an earlier one.
    index: usize,
    /// BLOB byte at which `view[index]` starts.
    base: u64,
    pos: u64,
    end: u64,
    chunk: u64,
}

impl Iterator for Pieces<'_> {
    type Item = Piece;

    fn next(&mut self) -> Option<Piece> {
        while self.pos < self.end {
            let spec = *self.view.get(self.index)?;
            let next_base = self.base + self.geo.bytes_for(spec.pages);
            if self.pos >= next_base {
                self.index += 1;
                self.base = next_base;
                continue;
            }
            let len = (self.end.min(next_base) - self.pos).min(self.chunk);
            let piece = Piece {
                index: self.index,
                spec,
                offset: (self.pos - self.base) as usize,
                len: len as usize,
            };
            self.pos += len;
            return Some(piece);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{plan_sequence, TierPolicy, TierTable};
    use lobster_types::Pid;
    use proptest::prelude::*;

    const PAGE: u64 = 512;

    fn policies() -> [TierPolicy; 3] {
        [
            TierPolicy::default(),
            TierPolicy::PowerOfTwo,
            TierPolicy::Fibonacci,
        ]
    }

    /// The content view of a `size`-byte BLOB placed by `plan_sequence`:
    /// extent `i` starts at page `1000 * (i + 1)` and is clipped to the
    /// content pages the extents before it leave over.
    fn content_view(table: &TierTable, size: u64, with_tail: bool) -> Vec<ExtentSpec> {
        let mut left = size.div_ceil(PAGE);
        let plan = plan_sequence(table, left, with_tail).unwrap();
        plan.sizes
            .iter()
            .chain(plan.tail_pages.iter())
            .enumerate()
            .map(|(i, &pages)| {
                let spec = ExtentSpec::new(Pid::new(1000 * (i as u64 + 1)), pages.min(left));
                left -= spec.pages;
                spec
            })
            .filter(|spec| spec.pages > 0)
            .collect()
    }

    /// Extent index and offset of BLOB byte `x`, from the tier table alone.
    fn naive(table: &TierTable, view: &[ExtentSpec], x: u64) -> (usize, usize) {
        let page = x / PAGE;
        let index = (0..view.len())
            .find(|&i| i + 1 == view.len() || page < table.cumulative_pages(i + 1))
            .unwrap();
        let base = table.cumulative_pages(index) * PAGE;
        (index, (x - base) as usize)
    }

    /// Sizes on and around every tier boundary up to `limit` pages.
    fn boundary_sizes(table: &TierTable, limit: u64) -> Vec<u64> {
        let mut out = vec![1, PAGE - 1, PAGE, PAGE + 1];
        for n in 1.. {
            let edge = table.cumulative_pages(n) * PAGE;
            if edge > limit * PAGE {
                break;
            }
            out.extend([edge - 1, edge, edge + 1, edge + PAGE]);
        }
        out
    }

    fn check(
        table: &TierTable,
        size: u64,
        with_tail: bool,
        range: Range<u64>,
        chunk: usize,
    ) -> std::result::Result<(), TestCaseError> {
        let view = content_view(table, size, with_tail);
        let mut pos = range.start;
        for piece in pieces(&view, Geometry::new(PAGE as usize), range.clone(), chunk) {
            prop_assert!(piece.len > 0 && piece.len <= chunk);
            prop_assert_eq!(piece.spec, view[piece.index]);
            prop_assert!(piece.offset + piece.len <= (piece.spec.pages * PAGE) as usize);
            for i in 0..piece.len {
                let want = naive(table, &view, pos + i as u64);
                prop_assert_eq!((piece.index, piece.offset + i), want);
            }
            pos += piece.len as u64;
        }
        prop_assert_eq!(pos, range.end.max(range.start), "pieces tile the range");
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn pieces_tile_the_range_like_a_per_byte_map(
            policy in 0usize..3,
            with_tail in any::<bool>(),
            size_pick in any::<u64>(),
            nudge in 0u64..3,
            start in any::<u64>(),
            len in 0u64..6000,
            chunk in prop_oneof![Just(1usize), 1usize..5000, Just(usize::MAX)],
        ) {
            let table = TierTable::new(policies()[policy]);
            let sizes = boundary_sizes(&table, 300);
            // A boundary size, or one nudged off it by a few hundred bytes.
            let size = sizes[(size_pick % sizes.len() as u64) as usize] + nudge * 211;
            let start = start % size;
            let end = (start + len).min(size);
            check(&table, size, with_tail, start..end, chunk)?;
        }
    }

    #[test]
    fn whole_blob_in_one_piece_per_extent() {
        for policy in policies() {
            let table = TierTable::new(policy);
            for with_tail in [false, true] {
                for size in boundary_sizes(&table, 300) {
                    let view = content_view(&table, size, with_tail);
                    let got: Vec<Piece> =
                        pieces(&view, Geometry::new(PAGE as usize), 0..size, usize::MAX).collect();
                    assert_eq!(got.len(), view.len());
                    assert_eq!(got.iter().map(|p| p.len as u64).sum::<u64>(), size);
                    assert!(got.iter().all(|p| p.offset == 0));
                }
            }
        }
    }

    #[test]
    fn a_range_past_the_view_ends_with_the_view() {
        let view = [ExtentSpec::new(Pid::new(7), 2)];
        let geo = Geometry::new(PAGE as usize);
        let got: Vec<Piece> = pieces(&view, geo, 1000..5000, usize::MAX).collect();
        assert_eq!(got.len(), 1);
        assert_eq!((got[0].offset, got[0].len), (1000, 24));
        assert_eq!(pieces(&view, geo, 2000..2000, 1).count(), 0);
        assert_eq!(pieces(&[], geo, 0..10, 1).count(), 0);
    }
}
