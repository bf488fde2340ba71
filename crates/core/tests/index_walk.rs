//! The open's index walk after a churn that leaves emptied leaves behind:
//! ever-increasing keys, the oldest deleted, ten times the live set. A
//! crash and reopen walks the checkpointed trees in about one read batch
//! per inner node (`RecoveryReport::index_batches`), visits every node the
//! trees hold (`index_nodes`), rebuilds the allocator to exactly the
//! nodes plus the live content, and every live BLOB reads back with its
//! SHA-256.

use lobster_core::{Config, Database, RelationKind};
use lobster_storage::{Device, MemDevice};
use std::collections::VecDeque;
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
    // Everything but content and the relation's nodes: the catalog tree.
    let catalog = db.allocator().pages_in_use() - node_pages(&db);

    let mut live = VecDeque::new();
    churn(&db, &mut live, 0..PUTS);
    db.checkpoint().unwrap();
    let walked = db.relation("b").unwrap().tree.stats().unwrap();
    assert_eq!(walked.entries, LIVE as u64);
    churn(&db, &mut live, PUTS..PUTS + TAIL);
    drop(db); // a crash: no shutdown checkpoint

    let (db, report) = Database::open(dev, wal, cfg()).unwrap();
    // The walk ran over the checkpointed trees: the relation's and the
    // catalog's (one relation: a single leaf, read before the walk to
    // attach the relation, so it costs no batch).
    assert_eq!(report.index_nodes, walked.nodes + catalog);
    let inner = walked.nodes - walked.leaves;
    assert!(
        report.index_batches >= 1 && report.index_batches <= inner + 1,
        "{} batches for {inner} inner nodes",
        report.index_batches
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
