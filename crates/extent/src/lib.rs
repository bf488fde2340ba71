//! Extent management: tier tables, extent sequences, tail extents, and
//! free-space allocation (§III-A of the paper).
//!
//! A BLOB is stored as an *extent sequence* — a flat list of extents whose
//! sizes grow according to a static *extent tier* table, so that a small,
//! bounded list (≤ 127 entries) can represent arbitrarily large objects
//! while keeping internal fragmentation low. Because tier sizes are static,
//! a deleted extent is an exact-size hole that the next extent of its tier
//! takes.
//!
//! This crate provides:
//! * [`TierTable`] — the paper's tier-size formula plus the Power-of-Two and
//!   Fibonacci baselines it compares against,
//! * [`plan_sequence`] / [`SequencePlan`] — choosing the minimal extent
//!   sequence (optionally with a *tail extent*) for a byte size,
//! * [`pieces`] — the inverse question: which extent of a sequence holds a
//!   given BLOB byte range, as an iterator of per-extent [`Piece`]s,
//! * [`FreeFrames`] — free space as a map of free runs that merge when
//!   freed and are taken best fit: the one map for the buffer pool's frames
//!   and a shard's device pages,
//! * [`ExtentAllocator`] — page-space allocation of tiered extents and
//!   arbitrary-size tail extents over that map, with the quarantine fence.

#![forbid(unsafe_code)]

mod alloc;
mod free_frames;
mod pieces;
mod plan;
mod tier;

pub use alloc::{union, ExtentAllocator};
pub use free_frames::FreeFrames;
pub use pieces::{pieces, Piece, Pieces};
pub use plan::{plan_growth, plan_sequence, ExtentSpec, SequencePlan};
pub use tier::{TierPolicy, TierTable};
