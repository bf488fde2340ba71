//! An open after a churn that leaves emptied leaves behind: ever-increasing
//! keys, the oldest deleted, ten times the live set. A crash and reopen
//! walks no tree (`RecoveryReport::index_nodes` is 0): the checkpoint's
//! free map stands in for the walk, and the reopen's device reads grow
//! with the tree's height only, not the churn's length. The allocator
//! audit walks the trees
//! instead, in about one read batch per inner node, visiting every node
//! the trees hold, and finds the allocator holding exactly the nodes, the
//! live content and the map; every live BLOB reads back with its SHA-256.

use lobster_core::{Config, Database, RelationKind};
use lobster_storage::{Device, MemDevice};
use lobster_types::Result;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const LIVE: usize = 64;
const PUTS: u32 = 10 * LIVE as u32;
/// Puts after the checkpoint, which recovery replays from the log.
const TAIL: u32 = 16;
const SIZE: usize = 6000;

fn cfg() -> Config {
    Config {
        pool_frames: 4096,
        ..Config::default()
    }
}

fn pattern(seed: u32) -> Vec<u8> {
    let mut state = u64::from(seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..SIZE)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u8
        })
        .collect()
}

/// Put `key` and, past `LIVE` live keys, delete the oldest.
fn churn(db: &Arc<Database>, live: &mut VecDeque<u32>, keys: std::ops::Range<u32>) {
    let rel = db.relation("b").unwrap();
    for key in keys {
        let mut t = db.begin();
        t.put_blob(&rel, &key.to_be_bytes(), &pattern(key)).unwrap();
        if live.len() == LIVE {
            let oldest = live.pop_front().unwrap();
            t.delete_blob(&rel, &oldest.to_be_bytes()).unwrap();
        }
        t.commit().unwrap();
        live.push_back(key);
    }
    db.wait_for_durability().unwrap();
}

#[test]
fn reopen_walks_the_index_a_batch_per_inner_node() {
    let dev: Arc<dyn Device> = Arc::new(MemDevice::new(64 << 20));
    let wal: Arc<dyn Device> = Arc::new(MemDevice::new(16 << 20));
    let db = Database::create(dev.clone(), wal.clone(), cfg()).unwrap();
    db.create_relation("b", RelationKind::Blob).unwrap();
    let node_pages = |db: &Database| {
        let tree = &db.relation("b").unwrap().tree;
        tree.stats().unwrap().nodes * tree.node_pages()
    };
    // Everything but content and the relation's nodes: the catalog tree
    // and the free map.
    let catalog = db.allocator().pages_in_use() - node_pages(&db);

    let mut live = VecDeque::new();
    churn(&db, &mut live, 0..PUTS);
    db.checkpoint().unwrap();
    let walked = db.relation("b").unwrap().tree.stats().unwrap();
    assert_eq!(walked.entries, LIVE as u64);
    churn(&db, &mut live, PUTS..PUTS + TAIL);
    drop(db); // a crash: no shutdown checkpoint

    let (db, report) = Database::open(dev, wal, cfg()).unwrap();
    assert_eq!((report.index_nodes, report.index_batches), (0, 0));
    // The audit walks the relation's tree and the catalog's (one
    // relation: a single leaf, whose read is not a batch).
    let audit = db.audit_allocator().unwrap();
    assert!(audit.is_exact(), "{audit:?}");
    let walked = db.relation("b").unwrap().tree.stats().unwrap();
    assert_eq!(audit.nodes, walked.nodes + 1);
    let inner = walked.nodes - walked.leaves;
    assert!(
        audit.batches >= 1 && audit.batches <= inner + 1,
        "{} batches for {inner} inner nodes",
        audit.batches
    );

    let content = live.len() as u64 * db.geometry().pages_for(SIZE as u64);
    assert_eq!(
        db.allocator().pages_in_use(),
        catalog + node_pages(&db) + content,
        "the rebuilt allocator holds the nodes and the live content, nothing else"
    );
    let rel = db.relation("b").unwrap();
    let mut t = db.begin();
    for &key in &live {
        let want = pattern(key);
        assert!(t.get_blob(&rel, &key.to_be_bytes(), |b| b == want).unwrap());
        assert_eq!(t.scrub_blob(&rel, &key.to_be_bytes()).unwrap(), Some(true));
    }
    t.commit().unwrap();
    db.blob_pool().audit().assert_no_leaked_pins();
    assert_eq!(db.blob_pool().audit().held_latches(), 0);
}

/// A device that counts its reads.
struct CountingDevice {
    inner: MemDevice,
    reads: AtomicU64,
}

impl Device for CountingDevice {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> Result<()> {
        self.reads.fetch_add(1, Ordering::SeqCst);
        self.inner.read_at(buf, offset)
    }
    fn write_at(&self, buf: &[u8], offset: u64) -> Result<()> {
        self.inner.write_at(buf, offset)
    }
    fn sync(&self) -> Result<()> {
        self.inner.sync()
    }
    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }
}

/// `RecoveryReport::index_nodes`, the data-device reads of a reopen after
/// `puts` churn puts, a checkpoint and the same tail of `TAIL`, and the
/// height of the tree it reopened.
fn reopen_after(puts: u32) -> (u64, u64, u32) {
    let dev = Arc::new(CountingDevice {
        inner: MemDevice::new(64 << 20),
        reads: AtomicU64::new(0),
    });
    let wal: Arc<dyn Device> = Arc::new(MemDevice::new(16 << 20));
    let db = Database::create(dev.clone(), wal.clone(), cfg()).unwrap();
    db.create_relation("b", RelationKind::Blob).unwrap();
    let mut live = VecDeque::new();
    churn(&db, &mut live, 0..puts);
    db.checkpoint().unwrap();
    churn(&db, &mut live, puts..puts + TAIL);
    drop(db); // a crash

    dev.reads.store(0, Ordering::SeqCst);
    let (db, report) = Database::open(dev.clone(), wal, cfg()).unwrap();
    let reads = dev.reads.load(Ordering::SeqCst);
    assert!(db.audit_allocator().unwrap().is_exact());
    let height = db.relation("b").unwrap().tree.stats().unwrap().height;
    (report.index_nodes, reads, height)
}

/// An open's cost follows the log tail, not the history: after ten times
/// the churn, with the same tail, it walks no node, and it reads the
/// device as often but for the one path level the emptied leaves of the
/// longer churn add (ROADMAP item 13), where a walk of the trees would
/// read 546 nodes instead of 57.
#[test]
fn reopen_costs_the_same_after_ten_times_the_history() {
    let (short_nodes, short_reads, short_height) = reopen_after(PUTS);
    let (long_nodes, long_reads, long_height) = reopen_after(10 * PUTS);
    assert_eq!((short_nodes, long_nodes), (0, 0));
    assert_eq!((short_height, long_height), (2, 3));
    assert_eq!(
        long_reads,
        short_reads + 1,
        "one more level on the redo's path"
    );
}
