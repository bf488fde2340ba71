//! The batched walk: a cold `collect_extents` reads every node exactly
//! once, in about one device batch per inner node, and returns exactly the
//! nodes the tree was built from. A batch the device fails, or one the
//! pool has no frames for, falls back to per-node reads: the walk still
//! returns every node, or the device's error, never part of the list.

use lobster_btree::{BTree, LexCmp, TreeStats};
use lobster_buffer::{ExtentPool, PoolConfig};
use lobster_extent::{ExtentAllocator, TierPolicy, TierTable};
use lobster_storage::{Device, FaultConfig, FaultDevice, FaultKind, MemDevice};
use lobster_types::{Error, Geometry, Pid, Result};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const PAGE: u64 = 4096;
/// 100-byte keys and values: ~35 children per inner node, so a few
/// thousand keys make a tree of three levels and a few hundred leaves.
const KEYS: u32 = 4000;

/// A device counting read requests and recording the page of every write.
struct Counting {
    inner: FaultDevice<MemDevice>,
    reads: AtomicU64,
    written: Mutex<BTreeSet<u64>>,
}

impl Device for Counting {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> Result<()> {
        self.reads.fetch_add(1, Ordering::SeqCst);
        self.inner.read_at(buf, offset)
    }
    fn write_at(&self, buf: &[u8], offset: u64) -> Result<()> {
        self.written.lock().unwrap().insert(offset / PAGE);
        self.inner.write_at(buf, offset)
    }
    fn sync(&self) -> Result<()> {
        self.inner.sync()
    }
    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }
}

/// A flushed tree over `faults`, cold (nothing resident), in a pool of
/// `frames`; with its warm statistics and the pages the flush wrote.
struct Built {
    dev: Arc<Counting>,
    pool: Arc<ExtentPool>,
    tree: BTree,
    warm: TreeStats,
    nodes: BTreeSet<u64>,
}

fn build(faults: FaultConfig, frames: u64) -> Built {
    let dev = Arc::new(Counting {
        inner: FaultDevice::new(MemDevice::new(64 << 20), faults),
        reads: AtomicU64::new(0),
        written: Mutex::new(BTreeSet::new()),
    });
    // The tree is built in a pool that holds all of it, so the flush below
    // writes every node once; the walk then runs in a pool of `frames`.
    let pool_of = |frames| {
        let config = PoolConfig {
            frames,
            alias: None,
            io_threads: 4,
        };
        ExtentPool::new(
            dev.clone(),
            Geometry::new(PAGE as usize),
            config,
            lobster_metrics::new_metrics(),
        )
    };
    let table = Arc::new(TierTable::new(TierPolicy::default()));
    let alloc = Arc::new(ExtentAllocator::new(table, Pid::new(0), 16 * 1024));
    let building = pool_of(4096);
    let tree = BTree::create(building.clone(), alloc.clone(), Arc::new(LexCmp), 1).unwrap();
    for k in 0..KEYS {
        // Spread over the key space so splits happen everywhere.
        let k = k.wrapping_mul(2_654_435_761) % 1_000_003;
        tree.insert(format!("{k:0100}").as_bytes(), &[k as u8; 100], true)
            .unwrap();
    }
    let warm = tree.stats().unwrap();
    building.flush_all_dirty().unwrap();
    let nodes = dev.written.lock().unwrap().clone();
    let pool = pool_of(frames);
    let tree = BTree::open(pool.clone(), alloc, Arc::new(LexCmp), 1, tree.root());
    Built {
        dev,
        pool,
        tree,
        warm,
        nodes,
    }
}

fn clean() -> FaultConfig {
    FaultConfig::new(0, 0, &[])
}

fn pids(extents: &[lobster_extent::ExtentSpec]) -> BTreeSet<u64> {
    extents.iter().map(|e| e.start.raw()).collect()
}

#[test]
fn a_cold_walk_reads_each_node_once_in_a_batch_per_inner_node() {
    let b = build(clean(), 4096);
    let inner = b.warm.nodes - b.warm.leaves;
    assert!(b.warm.height >= 3 && b.warm.leaves >= 200, "{:?}", b.warm);
    assert_eq!(
        b.nodes.len() as u64,
        b.warm.nodes,
        "the flush wrote every node"
    );

    let reads = b.dev.reads.load(Ordering::SeqCst);
    let batches = b.pool.metrics().snapshot().fault_batches;
    let extents = b.tree.collect_extents().unwrap();
    assert_eq!(b.dev.reads.load(Ordering::SeqCst) - reads, b.warm.nodes);
    let batched = b.pool.metrics().snapshot().fault_batches - batches;
    assert!(
        batched <= inner + 1,
        "{batched} batches for {inner} inner nodes"
    );
    assert_eq!(extents.len() as u64, b.warm.nodes, "no node twice");
    assert_eq!(pids(&extents), b.nodes);
    assert_eq!(b.tree.stats().unwrap(), b.warm);

    // The walk's own count says the same, and a warm walk reads nothing.
    b.pool.drop_caches();
    let mut visited = 0;
    let walk = b.tree.walk(|_, _, _| {
        visited += 1;
        Ok(())
    });
    assert_eq!(visited, b.warm.nodes);
    assert!((1..=inner + 1).contains(&walk.unwrap()));
    let reads = b.dev.reads.load(Ordering::SeqCst);
    assert_eq!(b.tree.walk(|_, _, _| Ok(())).unwrap(), 0);
    assert_eq!(b.dev.reads.load(Ordering::SeqCst), reads);
}

#[test]
fn a_failed_batch_falls_back_to_per_node_reads() {
    // The root reads cleanly; one read of the root's child batch fails.
    let mut once = FaultConfig::new(1, 1000, &[FaultKind::TransientRead]);
    once.warmup_ops = 1;
    once.max_injections = 1;
    let b = build(once, 4096);
    b.dev.inner.arm();
    let extents = b.tree.collect_extents().unwrap();
    assert_eq!(b.dev.inner.injections(), 1);
    assert_eq!(pids(&extents), b.nodes);
    assert_eq!(b.tree.stats().unwrap(), b.warm);
}

#[test]
fn a_device_that_keeps_failing_fails_the_walk() {
    let mut dead = FaultConfig::new(2, 1000, &[FaultKind::PermanentRead]);
    dead.warmup_ops = 1;
    let b = build(dead, 4096);
    b.dev.inner.arm();
    assert!(matches!(b.tree.collect_extents(), Err(Error::Io(_))));
    assert!(matches!(b.tree.stats(), Err(Error::Io(_))));
    b.dev.inner.disarm();
    assert_eq!(pids(&b.tree.collect_extents().unwrap()), b.nodes);
}

#[test]
fn a_pool_smaller_than_a_child_batch_still_walks_every_node() {
    let b = build(clean(), 8);
    let extents = b.tree.collect_extents().unwrap();
    assert_eq!(extents.len() as u64, b.warm.nodes);
    assert_eq!(pids(&extents), b.nodes);
    assert_eq!(b.tree.stats().unwrap(), b.warm);
}
