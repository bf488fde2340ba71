//! Paged B+Tree for LOBSTER: slotted nodes, leaf prefix truncation, and
//! pluggable comparators (the Blob State index of §III-F plugs in a custom
//! [`KeyCmp`]).

#![forbid(unsafe_code)]

pub mod node;
mod tree;

pub use node::Node;
pub use tree::{BTree, KeyCmp, LexCmp, TreeStats};

#[cfg(test)]
mod tests {
    use super::*;
    use lobster_buffer::{ExtentPool, PoolConfig};
    use lobster_extent::{ExtentAllocator, TierPolicy, TierTable};
    use lobster_storage::{Device, MemDevice};
    use lobster_sync::Arc;
    use lobster_types::{Error, Geometry, Pid};

    fn setup(frames: u64) -> (Arc<ExtentPool>, Arc<ExtentAllocator>) {
        let dev: Arc<dyn Device> = Arc::new(MemDevice::new(64 << 20));
        let pool = ExtentPool::new(
            dev,
            Geometry::new(4096),
            PoolConfig {
                frames,
                alias: None,
                io_threads: 1,
            },
            lobster_metrics::new_metrics(),
        );
        let table = Arc::new(TierTable::new(TierPolicy::default()));
        let alloc = Arc::new(ExtentAllocator::new(table, Pid::new(0), 16 * 1024));
        (pool, alloc)
    }

    fn tree(frames: u64) -> BTree {
        let (pool, alloc) = setup(frames);
        BTree::create(pool, alloc, Arc::new(LexCmp), 1).unwrap()
    }

    #[test]
    fn insert_lookup_small() {
        let t = tree(256);
        assert!(t.insert(b"b", b"2", false).unwrap());
        assert!(t.insert(b"a", b"1", false).unwrap());
        assert!(t.insert(b"c", b"3", false).unwrap());
        assert_eq!(t.lookup(b"a").unwrap(), Some(b"1".to_vec()));
        assert_eq!(t.lookup(b"b").unwrap(), Some(b"2".to_vec()));
        assert_eq!(t.lookup(b"c").unwrap(), Some(b"3".to_vec()));
        assert_eq!(t.lookup(b"d").unwrap(), None);
    }

    #[test]
    fn duplicate_key_behaviour() {
        let t = tree(256);
        t.insert(b"k", b"v1", false).unwrap();
        assert!(matches!(
            t.insert(b"k", b"v2", false),
            Err(Error::KeyExists)
        ));
        assert!(!t.insert(b"k", b"v2", true).unwrap());
        assert_eq!(t.lookup(b"k").unwrap(), Some(b"v2".to_vec()));
    }

    #[test]
    fn oversized_entry_rejected() {
        let t = tree(256);
        let big = vec![0u8; 4096];
        assert!(matches!(
            t.insert(b"k", &big, false),
            Err(Error::InvalidArgument(_))
        ));
    }

    #[test]
    fn thousands_of_keys_with_splits() {
        let t = tree(4096);
        let n = 5000u32;
        // Pseudo-random insertion order.
        let mut keys: Vec<u32> = (0..n).collect();
        let mut state = 12345u64;
        for i in (1..keys.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            keys.swap(i, (state % (i as u64 + 1)) as usize);
        }
        for &k in &keys {
            let key = format!("key{k:08}");
            let val = format!("value-{k}");
            t.insert(key.as_bytes(), val.as_bytes(), false).unwrap();
        }
        let s = t.stats().unwrap();
        assert_eq!(s.entries, n as u64);
        assert!(s.height >= 2, "tree must have split, height={}", s.height);
        for k in (0..n).step_by(97) {
            let key = format!("key{k:08}");
            assert_eq!(
                t.lookup(key.as_bytes()).unwrap(),
                Some(format!("value-{k}").into_bytes()),
                "key {k}"
            );
        }
    }

    #[test]
    fn ordered_scan_visits_everything_in_order() {
        let t = tree(1024);
        for k in (0..1000u32).rev() {
            t.insert(format!("{k:06}").as_bytes(), &k.to_le_bytes(), false)
                .unwrap();
        }
        let mut seen = Vec::new();
        t.for_each(|k, _| {
            seen.push(k.to_vec());
            true
        })
        .unwrap();
        assert_eq!(seen.len(), 1000);
        let mut sorted = seen.clone();
        sorted.sort();
        assert_eq!(seen, sorted);
    }

    #[test]
    fn scan_from_midpoint_and_early_stop() {
        let t = tree(1024);
        for k in 0..100u32 {
            t.insert(format!("{k:04}").as_bytes(), b"x", false).unwrap();
        }
        let mut seen = Vec::new();
        t.scan_from(b"0050", |k, _| {
            seen.push(String::from_utf8(k.to_vec()).unwrap());
            seen.len() < 10
        })
        .unwrap();
        assert_eq!(seen.len(), 10);
        assert_eq!(seen[0], "0050");
        assert_eq!(seen[9], "0059");
    }

    #[test]
    fn remove_and_reinsert() {
        let t = tree(1024);
        for k in 0..500u32 {
            t.insert(format!("{k:05}").as_bytes(), &k.to_le_bytes(), false)
                .unwrap();
        }
        for k in (0..500u32).step_by(2) {
            let old = t.remove(format!("{k:05}").as_bytes()).unwrap();
            assert_eq!(old, Some(k.to_le_bytes().to_vec()), "key {k}");
        }
        assert_eq!(t.remove(b"00000").unwrap(), None, "already removed");
        for k in 0..500u32 {
            let expect = k % 2 == 1;
            assert_eq!(t.contains(format!("{k:05}").as_bytes()).unwrap(), expect);
        }
        // Reinsert the removed half.
        for k in (0..500u32).step_by(2) {
            t.insert(format!("{k:05}").as_bytes(), b"new", false)
                .unwrap();
        }
        assert_eq!(t.stats().unwrap().entries, 500);
    }

    #[test]
    fn prefix_compression_reduces_leaf_count() {
        // Keys share a long prefix; with truncation far more entries fit
        // per leaf than without (custom non-bytewise comparator disables
        // truncation, giving the baseline).
        struct NoPrefixLex;
        impl KeyCmp for NoPrefixLex {
            fn cmp_keys(&self, a: &[u8], b: &[u8]) -> lobster_types::Result<std::cmp::Ordering> {
                Ok(a.cmp(b))
            }
        }

        let make_keys = || {
            (0..2000u32).map(|k| {
                let mut key = vec![b'p'; 200]; // long shared prefix
                key.extend_from_slice(format!("{k:08}").as_bytes());
                key
            })
        };

        let (pool, alloc) = setup(4096);
        let compressed = BTree::create(pool, alloc, Arc::new(LexCmp), 1).unwrap();
        for key in make_keys() {
            compressed.insert(&key, b"v", false).unwrap();
        }

        let (pool, alloc) = setup(4096);
        let plain = BTree::create(pool, alloc, Arc::new(NoPrefixLex), 1).unwrap();
        for key in make_keys() {
            plain.insert(&key, b"v", false).unwrap();
        }

        let sc = compressed.stats().unwrap();
        let sp = plain.stats().unwrap();
        assert_eq!(sc.entries, sp.entries);
        assert!(
            sc.leaves * 2 < sp.leaves,
            "prefix truncation should at least halve leaves: {} vs {}",
            sc.leaves,
            sp.leaves
        );
    }

    #[test]
    fn custom_comparator_orders_by_it() {
        // Compare by the *numeric* value of an 8-byte LE key: byte order
        // and numeric order differ, proving the comparator is honored.
        struct NumCmp;
        impl KeyCmp for NumCmp {
            fn cmp_keys(&self, a: &[u8], b: &[u8]) -> lobster_types::Result<std::cmp::Ordering> {
                let x = u64::from_le_bytes(a.try_into().unwrap());
                let y = u64::from_le_bytes(b.try_into().unwrap());
                Ok(x.cmp(&y))
            }
        }
        let (pool, alloc) = setup(1024);
        let t = BTree::create(pool, alloc, Arc::new(NumCmp), 1).unwrap();
        for k in [300u64, 5, 1_000_000, 256, 77] {
            t.insert(&k.to_le_bytes(), &k.to_be_bytes(), false).unwrap();
        }
        let mut order = Vec::new();
        t.for_each(|k, _| {
            order.push(u64::from_le_bytes(k.try_into().unwrap()));
            true
        })
        .unwrap();
        assert_eq!(order, vec![5, 77, 256, 300, 1_000_000]);
        assert!(t.contains(&256u64.to_le_bytes()).unwrap());
    }

    #[test]
    fn multi_page_nodes() {
        let (pool, alloc) = setup(4096);
        let t = BTree::create(pool, alloc, Arc::new(LexCmp), 4).unwrap();
        assert!(t.max_entry() > 4000, "4-page nodes allow larger entries");
        let big_val = vec![7u8; 3000];
        for k in 0..200u32 {
            t.insert(format!("{k:06}").as_bytes(), &big_val, false)
                .unwrap();
        }
        assert_eq!(t.stats().unwrap().entries, 200);
        assert_eq!(t.lookup(b"000199").unwrap(), Some(big_val));
    }

    #[test]
    fn concurrent_readers_and_writer() {
        let (pool, alloc) = setup(4096);
        let t = Arc::new(BTree::create(pool, alloc, Arc::new(LexCmp), 1).unwrap());
        // Preload.
        for k in 0..2000u32 {
            t.insert(format!("{k:06}").as_bytes(), &k.to_le_bytes(), false)
                .unwrap();
        }
        std::thread::scope(|s| {
            let tw = t.clone();
            s.spawn(move || {
                for k in 2000..3000u32 {
                    tw.insert(format!("{k:06}").as_bytes(), &k.to_le_bytes(), false)
                        .unwrap();
                }
            });
            for _ in 0..4 {
                let tr = t.clone();
                s.spawn(move || {
                    for k in (0..2000u32).step_by(7) {
                        assert!(tr.contains(format!("{k:06}").as_bytes()).unwrap());
                    }
                });
            }
        });
        assert_eq!(t.stats().unwrap().entries, 3000);
    }

    #[test]
    fn survives_eviction_pressure() {
        // Pool far smaller than the tree: nodes must round-trip through the
        // device.
        let (pool, alloc) = setup(32);
        let t = BTree::create(pool, alloc, Arc::new(LexCmp), 1).unwrap();
        for k in 0..3000u32 {
            t.insert(format!("{k:07}").as_bytes(), &k.to_le_bytes(), false)
                .unwrap();
        }
        for k in (0..3000u32).step_by(131) {
            assert_eq!(
                t.lookup(format!("{k:07}").as_bytes()).unwrap(),
                Some(k.to_le_bytes().to_vec())
            );
        }
    }

    #[test]
    fn collect_extents_covers_all_nodes() {
        let t = tree(1024);
        for k in 0..1000u32 {
            t.insert(format!("{k:05}").as_bytes(), b"v", false).unwrap();
        }
        let stats = t.stats().unwrap();
        let extents = t.collect_extents().unwrap();
        assert_eq!(extents.len() as u64, stats.nodes);
        assert!(extents.iter().any(|e| e.start == t.root()));
    }

    #[test]
    fn empty_tree_operations() {
        let t = tree(64);
        assert_eq!(t.lookup(b"any").unwrap(), None);
        assert_eq!(t.remove(b"any").unwrap(), None);
        let mut visited = 0;
        t.for_each(|_, _| {
            visited += 1;
            true
        })
        .unwrap();
        assert_eq!(visited, 0);
        let s = t.stats().unwrap();
        assert_eq!(s.leaves, 1);
        assert_eq!(s.height, 1);
    }
}
