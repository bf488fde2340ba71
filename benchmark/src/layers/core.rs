//! `lobster-core`: the in-process front door.
//!
//! Pinned: `Config { pool_frames, workers, commit_wait,
//! checkpoint_threshold, .. }` + `Default`, `ShardDevices`,
//! `ShardedDatabase::{create, open, create_relation, relation,
//! begin_with_worker, wait_for_durability, checkpoint, metrics, shards}`,
//! `ShardedTxn::{blob_state, get_blob, get_blob_range, put_blob,
//! delete_blob, commit, abort}`, `BlobState::{extents, tail}`,
//! `RelationKind::Blob`, and per shard `Database::{blob_pool,
//! utilization, fragmentation_score}` with `BlobPool::drop_caches`.

use crate::device::ProbeDevice;
use crate::trace;
use lobster_core::{Config, RelationKind, ShardDevices, ShardedDatabase};
use lobster_types::Result;
use std::sync::Arc;

pub use lobster_core::{ShardedRelation, ShardedTxn};
pub use lobster_metrics::Snapshot;
pub use lobster_types::Error;

pub const SHARDS: usize = 2;
pub const RELATION: &str = "blobs";

/// The devices of one shard.
#[derive(Clone)]
pub struct ShardProbes {
    pub data: Arc<ProbeDevice>,
    pub wal: Arc<ProbeDevice>,
}

/// The four engine settings a workload fixes. Nothing else is set: the
/// remaining `Config` fields are ablation knobs the roadmap wants to
/// delete, and the benchmark must not pin them.
#[derive(Clone, Copy, Debug)]
pub struct EngineSettings {
    pub pool_frames: u64,
    pub workers: usize,
    pub commit_wait: bool,
    pub checkpoint_threshold: u64,
}

impl EngineSettings {
    fn config(&self) -> Config {
        Config {
            pool_frames: self.pool_frames,
            workers: self.workers,
            commit_wait: self.commit_wait,
            checkpoint_threshold: self.checkpoint_threshold,
            ..Config::default()
        }
    }
}

fn parts(devices: &[ShardProbes]) -> Vec<ShardDevices> {
    devices
        .iter()
        .map(|d| ShardDevices {
            data: d.data.clone(),
            wal: d.wal.clone(),
        })
        .collect()
}

/// A sharded engine with its one blob relation.
#[derive(Clone)]
pub struct Engine {
    pub sdb: Arc<ShardedDatabase>,
    pub rel: ShardedRelation,
}

impl Engine {
    pub fn create(devices: &[ShardProbes], settings: EngineSettings) -> Result<Engine> {
        let sdb = ShardedDatabase::create(parts(devices), settings.config())?;
        let rel = sdb.create_relation(RELATION, RelationKind::Blob)?;
        Ok(Engine { sdb, rel })
    }

    /// Reopen after a crash; the time of this call is `recovery_ms`.
    pub fn open(devices: &[ShardProbes], settings: EngineSettings) -> Result<Engine> {
        let _s = trace::span("core.open");
        let (sdb, _reports) = ShardedDatabase::open(parts(devices), settings.config())?;
        let rel = sdb.relation(RELATION).ok_or(Error::KeyNotFound)?;
        Ok(Engine { sdb, rel })
    }

    pub fn begin(&self, worker: usize) -> ShardedTxn {
        let _s = trace::span("core.begin");
        self.sdb.begin_with_worker(worker)
    }

    pub fn drain(&self) -> Result<()> {
        let _s = trace::span("core.drain");
        self.sdb.wait_for_durability()
    }

    pub fn checkpoint(&self) -> Result<()> {
        let _s = trace::span("core.checkpoint");
        self.sdb.checkpoint()
    }

    pub fn counters(&self) -> Snapshot {
        self.sdb.metrics().snapshot()
    }

    /// Evict every clean extent of every shard's pool.
    pub fn drop_caches(&self) {
        for shard in self.sdb.shards() {
            shard.blob_pool().drop_caches();
        }
    }

    /// Mean allocator utilization and free-space fragmentation score over
    /// the shards.
    pub fn space_stats(&self) -> (f64, f64) {
        let shards = self.sdb.shards();
        let n = shards.len() as f64;
        (
            shards.iter().map(|s| s.utilization()).sum::<f64>() / n,
            shards.iter().map(|s| s.fragmentation_score()).sum::<f64>() / n,
        )
    }
}

/// Size and extent count of a blob, from its Blob State alone.
pub fn stat(
    txn: &mut ShardedTxn,
    rel: &ShardedRelation,
    key: &[u8],
) -> Result<Option<(u64, usize)>> {
    let _s = trace::span("core.stat");
    Ok(txn
        .blob_state(rel, key)?
        .map(|st| (st.size, st.extents.len() + usize::from(st.tail.is_some()))))
}

pub fn get<R>(
    txn: &mut ShardedTxn,
    rel: &ShardedRelation,
    key: &[u8],
    f: impl FnOnce(&[u8]) -> R,
) -> Result<R> {
    let _s = trace::span("core.get");
    txn.get_blob(rel, key, f)
}

pub fn get_range(
    txn: &mut ShardedTxn,
    rel: &ShardedRelation,
    key: &[u8],
    offset: u64,
    buf: &mut [u8],
) -> Result<usize> {
    let _s = trace::span("core.get_range");
    txn.get_blob_range(rel, key, offset, buf)
}

pub fn put(txn: &mut ShardedTxn, rel: &ShardedRelation, key: &[u8], data: &[u8]) -> Result<()> {
    let _s = trace::span("core.put");
    txn.put_blob(rel, key, data)
}

pub fn delete(txn: &mut ShardedTxn, rel: &ShardedRelation, key: &[u8]) -> Result<()> {
    let _s = trace::span("core.delete");
    txn.delete_blob(rel, key)
}

pub fn commit(txn: ShardedTxn) -> Result<()> {
    let _s = trace::span("core.commit");
    txn.commit()
}
