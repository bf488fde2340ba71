//! `lobster-btree`. Pinned: `BTree::{create, insert, lookup_map, remove}`
//! and `LexCmp`, over an `ExtentPool` and an `ExtentAllocator`.

use crate::layers::buffer::Pool;
use crate::layers::extent::ExtentAllocator;
use lobster_btree::{BTree, LexCmp};
use lobster_types::Result;
use std::sync::Arc;

pub struct Tree(BTree);

impl Tree {
    /// An empty tree with one-page nodes, as the engine configures it.
    pub fn create(pool: &Pool, alloc: Arc<ExtentAllocator>) -> Result<Tree> {
        BTree::create(pool.extent_pool(), alloc, Arc::new(LexCmp), 1).map(Tree)
    }

    pub fn insert(&self, key: &[u8], value: &[u8]) -> Result<bool> {
        self.0.insert(key, value, false)
    }

    /// Length of the value under `key`.
    pub fn lookup(&self, key: &[u8]) -> Result<Option<usize>> {
        self.0.lookup_map(key, |v| v.len())
    }

    pub fn remove(&self, key: &[u8]) -> Result<bool> {
        Ok(self.0.remove(key)?.is_some())
    }
}
