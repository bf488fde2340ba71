//! Comparator systems for the evaluation (§II Table I and §V).
//!
//! Everything the paper benchmarks against is modeled here, running over
//! the *same* [`lobster_storage::Device`] abstraction as our engine so
//! comparisons isolate storage-format behaviour (DESIGN.md substitutions
//! 3–4):
//!
//! * [`ModelFs`] — a parameterized file-system model implementing ext4
//!   (ordered and data-journal modes), XFS, BtrFS, and F2FS behaviour:
//!   per-file extent trees with multi-level traversal, block allocation
//!   strategies, jbd2-style journaling, a page cache, and per-syscall
//!   kernel-crossing costs.
//! * [`ToastStore`] — PostgreSQL's TOAST: BLOBs chunked into a separate
//!   relation (4 chunks per page), two lookups plus a chunk scan per read,
//!   full-content WAL, and a client/server round-trip cost.
//! * [`OverflowStore`] — MySQL/InnoDB: linked overflow-page chains walked
//!   sequentially (I/O interleaved with computation), doublewrite buffer +
//!   redo logging of content, and the client/server cost.
//! * [`SqliteStore`] — SQLite: in-process (no socket), linked page list,
//!   WAL with aggressive checkpointing (the paper cites ≈ 2.5 checkpoints
//!   per BLOB write), and optionally a WITHOUT-ROWID-style index that
//!   duplicates content a third and fourth time.
//! * [`LobsterStore`] — our engine behind the same [`ObjectStore`] trait
//!   (configurable as `Our`, `Our.ht`, `Our.physlog`).
//!
//! The [`ObjectStore`] trait is the uniform surface every YCSB-style bench
//! drives; the filesystem models additionally implement
//! [`lobster_vfs::FileSystem`] for the path-based git-clone replay.

#![forbid(unsafe_code)]

mod alloc;
mod dbms;
mod fskit;
mod store;

pub use dbms::{ClientServerCost, OverflowStore, SqliteStore, ToastStore};
pub use fskit::{FsProfile, ModelFs};
pub use store::{LobsterMode, LobsterStore, ObjectStore, StoreStats};
