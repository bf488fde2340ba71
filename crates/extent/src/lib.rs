//! Extent management: tier tables, extent sequences, tail extents, and
//! free-list allocation (§III-A of the paper).
//!
//! A BLOB is stored as an *extent sequence* — a flat list of extents whose
//! sizes grow according to a static *extent tier* table, so that a small,
//! bounded list (≤ 127 entries) can represent arbitrarily large objects
//! while keeping internal fragmentation low. Because tier sizes are static,
//! deleted extents are recycled through simple per-tier free lists.
//!
//! This crate provides:
//! * [`TierTable`] — the paper's tier-size formula plus the Power-of-Two and
//!   Fibonacci baselines it compares against,
//! * [`plan_sequence`] / [`SequencePlan`] — choosing the minimal extent
//!   sequence (optionally with a *tail extent*) for a byte size,
//! * [`pieces`] — the inverse question: which extent of a sequence holds a
//!   given BLOB byte range, as an iterator of per-extent [`Piece`]s,
//! * [`RangeAllocator`] — contiguous-range allocation with segregated free
//!   lists (also reused by the buffer manager for frame ranges),
//! * [`ExtentAllocator`] — page-space allocation of tiered extents and
//!   arbitrary-size tail extents.

#![forbid(unsafe_code)]

mod alloc;
mod pieces;
mod plan;
mod tier;

pub use alloc::{ExtentAllocator, RangeAllocator};
pub use pieces::{pieces, Piece, Pieces};
pub use plan::{plan_growth, plan_sequence, ExtentSpec, SequencePlan};
pub use tier::{TierPolicy, TierTable};
