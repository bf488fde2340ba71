//! Model-based testing: the paged B+Tree against `std::collections::BTreeMap`
//! under arbitrary operation sequences, plus structural invariant checks.

use lobster_btree::{BTree, KeyCmp, LexCmp};
use lobster_buffer::{ExtentPool, PoolConfig};
use lobster_extent::{ExtentAllocator, TierPolicy, TierTable};
use lobster_storage::{Device, MemDevice};
use lobster_types::{Geometry, Pid};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

fn tree(frames: u64, node_pages: u64) -> BTree {
    let dev: Arc<dyn Device> = Arc::new(MemDevice::new(128 << 20));
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
    let alloc = Arc::new(ExtentAllocator::new(table, Pid::new(0), 28_000));
    BTree::create(pool, alloc, Arc::new(LexCmp), node_pages).unwrap()
}

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<u8>, Vec<u8>),
    Upsert(Vec<u8>, Vec<u8>),
    Remove(Vec<u8>),
    Lookup(Vec<u8>),
    ScanPrefixCount(Vec<u8>),
}

fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    // Mixture of clustered keys (shared prefixes exercise truncation) and
    // free-form ones.
    prop_oneof![
        (0u32..500).prop_map(|k| format!("user:{k:05}").into_bytes()),
        proptest::collection::vec(any::<u8>(), 1..40),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let val = proptest::collection::vec(any::<u8>(), 0..120);
    prop_oneof![
        (key_strategy(), val.clone()).prop_map(|(k, v)| Op::Insert(k, v)),
        (key_strategy(), val).prop_map(|(k, v)| Op::Upsert(k, v)),
        key_strategy().prop_map(Op::Remove),
        key_strategy().prop_map(Op::Lookup),
        (0u32..50).prop_map(|k| Op::ScanPrefixCount(format!("user:{:02}", k % 50).into_bytes())),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn btree_matches_btreemap(ops in proptest::collection::vec(op_strategy(), 1..300),
                              tiny_pool in any::<bool>()) {
        // With a tiny pool every operation round-trips through eviction.
        let t = tree(if tiny_pool { 24 } else { 2048 }, 1);
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();

        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    let r = t.insert(&k, &v, false);
                    if let std::collections::btree_map::Entry::Vacant(slot) = model.entry(k) {
                        prop_assert!(r.unwrap());
                        slot.insert(v);
                    } else {
                        prop_assert!(r.is_err());
                    }
                }
                Op::Upsert(k, v) => {
                    let old = t.upsert(&k, &v).unwrap();
                    prop_assert_eq!(old.as_ref(), model.get(&k));
                    model.insert(k, v);
                }
                Op::Remove(k) => {
                    let got = t.remove(&k).unwrap();
                    prop_assert_eq!(got, model.remove(&k));
                }
                Op::Lookup(k) => {
                    let got = t.lookup(&k).unwrap();
                    prop_assert_eq!(got.as_ref(), model.get(&k));
                }
                Op::ScanPrefixCount(prefix) => {
                    let mut tree_count = 0usize;
                    t.scan_from(&prefix, |k, _| {
                        if k.starts_with(&prefix) {
                            tree_count += 1;
                            true
                        } else {
                            false
                        }
                    })
                    .unwrap();
                    let model_count = model
                        .range(prefix.clone()..)
                        .take_while(|(k, _)| k.starts_with(&prefix))
                        .count();
                    prop_assert_eq!(tree_count, model_count);
                }
            }
        }

        // Full-order agreement at the end.
        let mut pairs = Vec::new();
        t.for_each(|k, v| {
            pairs.push((k.to_vec(), v.to_vec()));
            true
        })
        .unwrap();
        let expect: Vec<(Vec<u8>, Vec<u8>)> =
            model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(pairs, expect);

        // Structural invariants.
        let stats = t.stats().unwrap();
        prop_assert_eq!(stats.entries as usize, model.len());
        prop_assert_eq!(t.collect_extents().unwrap().len() as u64, stats.nodes);
    }

    #[test]
    fn custom_comparator_never_sees_malformed_keys(keys in proptest::collection::vec(any::<u64>(), 1..200)) {
        // A strict comparator that panics on any key that is not exactly
        // 8 bytes — proving the tree never feeds it separator garbage.
        struct Strict;
        impl KeyCmp for Strict {
            fn cmp_keys(&self, a: &[u8], b: &[u8]) -> lobster_types::Result<std::cmp::Ordering> {
                assert_eq!(a.len(), 8, "malformed stored key");
                assert_eq!(b.len(), 8, "malformed probe key");
                Ok(u64::from_be_bytes(a.try_into().unwrap())
                    .cmp(&u64::from_be_bytes(b.try_into().unwrap())))
            }
        }
        let dev: Arc<dyn Device> = Arc::new(MemDevice::new(64 << 20));
        let pool = ExtentPool::new(
            dev,
            Geometry::new(4096),
            PoolConfig { frames: 512, alias: None, io_threads: 1 },
            lobster_metrics::new_metrics(),
        );
        let table = Arc::new(TierTable::new(TierPolicy::default()));
        let alloc = Arc::new(ExtentAllocator::new(table, Pid::new(0), 14_000));
        let t = BTree::create(pool, alloc, Arc::new(Strict), 1).unwrap();

        let mut model = BTreeMap::new();
        for k in keys {
            let _ = t.insert(&k.to_be_bytes(), &k.to_le_bytes(), true);
            model.insert(k, ());
        }
        for &k in model.keys() {
            prop_assert!(t.contains(&k.to_be_bytes()).unwrap());
        }
        prop_assert_eq!(t.stats().unwrap().entries as usize, model.len());
    }
}
