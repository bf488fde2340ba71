//! # LOBSTER core engine
//!
//! The primary contribution of *"Why Files If You Have a DBMS?"* (ICDE
//! 2024), rebuilt as a Rust library:
//!
//! * **Blob State** ([`BlobState`]) — a single-layer indirection bundling
//!   size, SHA-256, SHA midstate, 32-byte content prefix, tail extent, and
//!   the extent-sequence head pages (§III-B).
//! * **Single-flush BLOB logging** — the WAL carries Blob States only; BLOB
//!   content is written to storage exactly once, at commit, after the WAL
//!   fsync (§III-C). Recovery validates committed BLOBs with their SHA-256.
//! * **Extent sequences** with the static tier table, tail extents, and
//!   commit-time extent recycling (§III-A/D).
//! * **Transactions** with record-level 2PL (wait-die) on Blob State rows
//!   (§III-H) and logical redo/undo recovery.
//! * **BLOB indexing** via the incremental Blob State comparator and
//!   semantic (expression) indexes (§III-F).
//!
//! ```
//! use lobster_core::{Config, Database, RelationKind};
//! use lobster_storage::MemDevice;
//! use std::sync::Arc;
//!
//! let dev = Arc::new(MemDevice::new(64 << 20));
//! let wal = Arc::new(MemDevice::new(16 << 20));
//! let db = Database::create(dev, wal, Config::default()).unwrap();
//! let images = db.create_relation("image", RelationKind::Blob).unwrap();
//!
//! let mut txn = db.begin();
//! txn.put_blob(&images, b"cat.png", &vec![7u8; 100_000]).unwrap();
//! txn.commit().unwrap();
//!
//! let mut txn = db.begin();
//! let len = txn.get_blob(&images, b"cat.png", |data| data.len()).unwrap();
//! assert_eq!(len, 100_000);
//! txn.commit().unwrap();
//! ```

#![forbid(unsafe_code)]

mod blob_state;
mod catalog;
mod content;
mod db;
mod defrag;
mod group_commit;
mod header;
mod index;
mod lock;
mod recovery;
mod shard;
mod txn;
mod writers;

pub use blob_state::{BlobState, PREFIX_LEN};
pub use catalog::{Relation, RelationKind};
pub use db::{AllocatorAudit, ComparatorFactory, Config, Database, PoolVariant, ScrubReport};
pub use defrag::{
    defrag_pass, scrub_pass, DefragConfig, DefragPassReport, Defragmenter, ScrubCursor,
};
pub use index::{BlobIndex, BlobStateCmp, ExpressionIndex, Udf};
pub use lock::{LockManager, LockMode};
pub use recovery::{OpenPhases, RecoveryReport};
pub use shard::{ShardDevices, ShardedDatabase, ShardedRelation, ShardedTxn, MAX_SHARDS};
pub use txn::Txn;

// Re-exports that appear in the public API surface.
pub use lobster_buffer::AliasConfig;
pub use lobster_extent::TierPolicy;

#[cfg(test)]
mod sim;
