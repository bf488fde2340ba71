//! `lobster-buffer`. Pinned: `PoolConfig { frames, alias, .. }` +
//! `Default`, `AliasConfig`, `ExtentPool::new`, `BlobPool::Vm` with
//! `fill_extent_hashed`, `read_blob`, `flush_extents`, `drop_extents`,
//! `drop_caches`, and `FlushItem::whole`.

use crate::layers::extent::ExtentSpec;
use crate::layers::storage::Device;
use lobster_buffer::{AliasConfig, BlobPool, ExtentPool, FlushItem, PoolConfig};
use lobster_metrics::new_metrics;
use lobster_types::{Geometry, Result};
use std::sync::Arc;

pub const PAGE: usize = 4096;

pub struct Pool {
    pool: BlobPool,
    extent_pool: Arc<ExtentPool>,
}

impl Pool {
    /// A vm pool of `frames` pages with zero-copy aliasing for one worker.
    pub fn new(device: Arc<dyn Device>, frames: u64) -> Pool {
        let extent_pool = ExtentPool::new(
            device,
            Geometry::new(PAGE),
            PoolConfig {
                frames,
                alias: Some(AliasConfig {
                    workers: 1,
                    worker_local_bytes: 4 << 20,
                    shared_bytes: 16 << 20,
                }),
                ..PoolConfig::default()
            },
            new_metrics(),
        );
        Pool {
            pool: BlobPool::Vm(extent_pool.clone()),
            extent_pool,
        }
    }

    /// The pool B-Tree nodes live in.
    pub fn extent_pool(&self) -> Arc<ExtentPool> {
        self.extent_pool.clone()
    }

    /// Copy `data` into fresh frames for `extents`, feeding every copied
    /// byte to `digest` (what `put_blob` does with the content).
    pub fn fill_hashed(
        &self,
        extents: &[ExtentSpec],
        data: &[u8],
        digest: &mut dyn FnMut(&[u8]),
    ) -> Result<()> {
        let mut off = 0;
        for &spec in extents {
            let take = (spec.pages as usize * PAGE).min(data.len() - off);
            self.pool
                .fill_extent_hashed(spec, &data[off..off + take], digest)?;
            off += take;
        }
        Ok(())
    }

    pub fn read<R>(
        &self,
        extents: &[ExtentSpec],
        len: u64,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R> {
        self.pool.read_blob(0, extents, len, f)
    }

    pub fn flush(&self, extents: &[ExtentSpec]) -> Result<()> {
        let items: Vec<FlushItem> = extents.iter().map(|&s| FlushItem::whole(s)).collect();
        self.pool.flush_extents(&items)
    }

    pub fn drop_caches(&self) {
        self.pool.drop_caches();
    }

    pub fn discard(&self, extents: &[ExtentSpec]) {
        self.pool.drop_extents(extents);
    }
}
