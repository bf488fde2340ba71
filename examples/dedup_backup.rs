//! Deduplicated backup snapshots: content-addressed storage built on the
//! Blob State's SHA-256.
//!
//! A backup tool stores nightly snapshots of a directory tree. Between
//! nights, most files are unchanged — a filesystem-backed store would write
//! every file of every snapshot again, while `DedupStore` (which keys the
//! physical object by the SHA-256 that every Blob State already carries)
//! stores each distinct content exactly once and bumps a reference count
//! for the rest.
//!
//! ```text
//! cargo run --release --example dedup_backup
//! ```

use dedup::DedupStore;
use lobster::core::{Config, Database, RelationKind};
use lobster::storage::MemDevice;
use lobster::workloads::make_payload;
use std::sync::Arc;

const FILES: usize = 200;
const NIGHTS: usize = 7;
/// Fraction of files rewritten each night (the daily churn).
const CHURN: f64 = 0.08;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = Database::create(
        Arc::new(MemDevice::new(512 << 20)),
        Arc::new(MemDevice::new(128 << 20)),
        Config::default(),
    )?;
    let backups = DedupStore::create(&db, "backups")?;
    // A naive (non-deduplicating) relation for comparison.
    let naive = db.create_relation("naive", RelationKind::Blob)?;

    // Each file's content is a function of (file id, version); a night
    // bumps the version of ~CHURN of the files.
    let mut versions = vec![0u64; FILES];
    let mut rng = 0x5EEDu64;
    let mut naive_bytes = 0u64;

    for night in 0..NIGHTS {
        if night > 0 {
            for (i, v) in versions.iter_mut().enumerate() {
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if (rng >> 33) as f64 / (1u64 << 31) as f64 / 2.0 < CHURN {
                    *v += 1;
                    let _ = i;
                }
            }
        }
        let mut txn = db.begin();
        let mut new_objects = 0usize;
        for (file, &version) in versions.iter().enumerate() {
            let size = 8_000 + (file * 997) % 60_000;
            let content = make_payload(size, (file as u64) << 20 | version);
            let snap_key = format!("night{night}/file{file:04}");
            let was_dup = backups.put(&mut txn, snap_key.as_bytes(), &content)?;
            if !was_dup {
                new_objects += 1;
            }
            txn.put_blob(&naive, snap_key.as_bytes(), &content)?;
            naive_bytes += content.len() as u64;
        }
        txn.commit()?;
        println!("night {night}: {FILES} files snapshotted, {new_objects} new objects written");
    }

    // A restore re-attaches to the store by name. Spot-check: the final
    // snapshot is byte-identical.
    let restore = DedupStore::open(&db, "backups")?;
    let mut txn = db.begin();
    let stats = restore.stats(&mut txn)?;
    for file in [0usize, 42, FILES - 1] {
        let size = 8_000 + (file * 997) % 60_000;
        let expect = make_payload(size, (file as u64) << 20 | versions[file]);
        let key = format!("night{}/file{file:04}", NIGHTS - 1);
        let got = restore.get(&mut txn, key.as_bytes(), |b| b.to_vec())?;
        assert_eq!(got, expect, "restore mismatch for {key}");
    }
    // A file untouched all week is one object: its first and last
    // snapshots carry the same digest, known without reading content.
    if let Some(file) = versions.iter().position(|&v| v == 0) {
        let first = format!("night0/file{file:04}");
        let last = format!("night{}/file{file:04}", NIGHTS - 1);
        assert!(restore.contains(&mut txn, last.as_bytes())?);
        assert_eq!(
            restore.digest_of(&mut txn, first.as_bytes())?,
            restore.digest_of(&mut txn, last.as_bytes())?
        );
    }
    txn.commit()?;

    println!("\n--- after {NIGHTS} nights x {FILES} files ---");
    println!(
        "deduplicated: {} objects, {} references, {:.1} MiB physical / {:.1} MiB logical",
        stats.objects,
        stats.references,
        stats.physical_bytes as f64 / (1 << 20) as f64,
        stats.logical_bytes as f64 / (1 << 20) as f64,
    );
    println!(
        "naive store:  {:.1} MiB written",
        naive_bytes as f64 / (1 << 20) as f64
    );
    println!("dedup ratio:  {:.2}x", stats.ratio());
    assert!(stats.ratio() > 3.0, "7 nights at 8% churn should dedup >3x");
    println!("restore check passed: final snapshot is byte-identical");

    // Retention: expire the oldest night. An object is freed only when
    // no later night still references its content.
    let mut txn = db.begin();
    let mut freed = 0u64;
    for file in 0..FILES {
        let key = format!("night0/file{file:04}");
        freed += restore.delete(&mut txn, key.as_bytes())? as u64;
    }
    let after = restore.stats(&mut txn)?;
    txn.commit()?;
    assert_eq!(after.references, stats.references - FILES as u64);
    assert_eq!(after.objects, stats.objects - freed);
    println!(
        "expired night 0: {freed} objects freed, {} kept",
        after.objects
    );
    Ok(())
}

mod dedup {
    //! Content-addressed deduplication on top of the Blob State.
    //!
    //! The paper's Blob State already stores a SHA-256 of every BLOB (§III-B,
    //! used for recovery validation in §III-C). That makes deduplication an
    //! almost-free extension: identical content hashes to the same address, so
    //! storing each distinct object once and counting references costs two
    //! small key/value rows per object — no extra content pass, no background
    //! dedup scan. A filesystem needs a whole new metadata layer for this
    //! (e.g. BtrFS `duperemove` runs offline and re-reads everything).
    //!
    //! Layout — three relations, all updated in the caller's transaction so a
    //! crash can never leave a dangling reference or an orphaned object:
    //!
    //! * `<name>.objects` (BLOB) — content, keyed by its SHA-256.
    //! * `<name>.refs` (KV) — user key → SHA-256 of the referenced object.
    //! * `<name>.counts` (KV) — SHA-256 → little-endian u64 reference count.

    use lobster::core::{Database, Relation, RelationKind, Txn};
    use lobster::sha256::Sha256;
    use lobster::types::{Error, Result};
    use std::sync::Arc;

    /// A deduplicating object store: logically many keys, physically one copy
    /// per distinct content.
    pub struct DedupStore {
        objects: Arc<Relation>,
        refs: Arc<Relation>,
        counts: Arc<Relation>,
    }

    /// Aggregate occupancy of a [`DedupStore`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct DedupStats {
        /// Distinct objects physically stored.
        pub objects: u64,
        /// User keys referencing them.
        pub references: u64,
        /// Bytes as the user sees them (each reference counts in full).
        pub logical_bytes: u64,
        /// Bytes physically stored (each object counted once).
        pub physical_bytes: u64,
    }

    impl DedupStats {
        /// `logical / physical`; 1.0 when nothing is duplicated.
        pub fn ratio(&self) -> f64 {
            if self.physical_bytes == 0 {
                1.0
            } else {
                self.logical_bytes as f64 / self.physical_bytes as f64
            }
        }
    }

    impl DedupStore {
        /// Create the three backing relations.
        pub fn create(db: &Arc<Database>, name: &str) -> Result<Self> {
            Ok(DedupStore {
                objects: db.create_relation(&format!("{name}.objects"), RelationKind::Blob)?,
                refs: db.create_relation(&format!("{name}.refs"), RelationKind::Kv)?,
                counts: db.create_relation(&format!("{name}.counts"), RelationKind::Kv)?,
            })
        }

        /// Re-attach to relations created earlier (e.g. after recovery).
        pub fn open(db: &Arc<Database>, name: &str) -> Result<Self> {
            let get = |suffix: &str| {
                db.relation(&format!("{name}.{suffix}"))
                    .ok_or(Error::KeyNotFound)
            };
            Ok(DedupStore {
                objects: get("objects")?,
                refs: get("refs")?,
                counts: get("counts")?,
            })
        }

        /// Store `data` under `key`. Returns `true` when the content already
        /// existed and only a reference was added (the content write was
        /// skipped entirely). Fails with [`Error::KeyExists`] if `key` is
        /// already bound.
        ///
        /// Concurrent first-puts of identical content race on the object row;
        /// the loser aborts retryably (wait-die), like any write conflict.
        pub fn put(&self, txn: &mut Txn, key: &[u8], data: &[u8]) -> Result<bool> {
            if txn.get_kv(&self.refs, key)?.is_some() {
                return Err(Error::KeyExists);
            }
            let sha = Sha256::digest(data);
            let dup = match txn.get_kv(&self.counts, &sha)? {
                Some(raw) => {
                    let count = decode_count(&raw)?;
                    txn.put_kv(&self.counts, &sha, &(count + 1).to_le_bytes())?;
                    true
                }
                None => {
                    txn.put_blob(&self.objects, &sha, data)?;
                    txn.put_kv(&self.counts, &sha, &1u64.to_le_bytes())?;
                    false
                }
            };
            txn.put_kv(&self.refs, key, &sha)?;
            Ok(dup)
        }

        /// Read the object `key` references.
        pub fn get<R>(&self, txn: &mut Txn, key: &[u8], f: impl FnOnce(&[u8]) -> R) -> Result<R> {
            let sha = txn.get_kv(&self.refs, key)?.ok_or(Error::KeyNotFound)?;
            txn.get_blob(&self.objects, &sha, f)
        }

        /// The SHA-256 a key is bound to, if any — O(1) content identity
        /// without reading the object.
        pub fn digest_of(&self, txn: &mut Txn, key: &[u8]) -> Result<Option<[u8; 32]>> {
            Ok(txn.get_kv(&self.refs, key)?.map(|sha| {
                let mut out = [0u8; 32];
                out.copy_from_slice(&sha);
                out
            }))
        }

        /// Drop `key`'s reference; the object itself is deleted (extents
        /// recycled) only when the last reference goes. Returns `true` when the
        /// physical object was removed.
        pub fn delete(&self, txn: &mut Txn, key: &[u8]) -> Result<bool> {
            let sha = txn.get_kv(&self.refs, key)?.ok_or(Error::KeyNotFound)?;
            txn.delete_kv(&self.refs, key)?;
            let raw = txn
                .get_kv(&self.counts, &sha)?
                .ok_or_else(|| Error::Corruption("dedup reference without a count row".into()))?;
            let count = decode_count(&raw)?;
            if count > 1 {
                txn.put_kv(&self.counts, &sha, &(count - 1).to_le_bytes())?;
                Ok(false)
            } else {
                txn.delete_kv(&self.counts, &sha)?;
                txn.delete_blob(&self.objects, &sha)?;
                Ok(true)
            }
        }

        /// Whether `key` is bound.
        pub fn contains(&self, txn: &mut Txn, key: &[u8]) -> Result<bool> {
            Ok(txn.get_kv(&self.refs, key)?.is_some())
        }

        /// Aggregate logical-vs-physical occupancy (scans the count rows; a
        /// metadata-only pass, no content is read).
        pub fn stats(&self, txn: &mut Txn) -> Result<DedupStats> {
            let mut shas: Vec<(Vec<u8>, u64)> = Vec::new();
            self.counts.tree.for_each(|k, v| {
                shas.push((k.to_vec(), decode_count(v).unwrap_or(0)));
                true
            })?;
            let mut stats = DedupStats {
                objects: shas.len() as u64,
                references: 0,
                logical_bytes: 0,
                physical_bytes: 0,
            };
            for (sha, count) in shas {
                let size = txn
                    .blob_state(&self.objects, &sha)?
                    .map(|s| s.size)
                    .unwrap_or(0);
                stats.references += count;
                stats.logical_bytes += size * count;
                stats.physical_bytes += size;
            }
            Ok(stats)
        }
    }

    fn decode_count(raw: &[u8]) -> Result<u64> {
        let bytes: [u8; 8] = raw
            .try_into()
            .map_err(|_| Error::Corruption("malformed dedup count".into()))?;
        Ok(u64::from_le_bytes(bytes))
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use lobster::core::Config;
        use lobster::storage::MemDevice;
        use proptest::prelude::*;
        use std::collections::{HashMap, HashSet};

        fn db() -> Arc<Database> {
            Database::create(
                Arc::new(MemDevice::new(128 << 20)),
                Arc::new(MemDevice::new(32 << 20)),
                Config {
                    pool_frames: 2048,
                    ..Config::default()
                },
            )
            .unwrap()
        }

        #[test]
        fn duplicate_content_stored_once() {
            let db = db();
            let store = DedupStore::create(&db, "backup").unwrap();
            let content = vec![42u8; 300_000];

            let mut t = db.begin();
            assert!(!store.put(&mut t, b"monday.img", &content).unwrap());
            assert!(store.put(&mut t, b"tuesday.img", &content).unwrap());
            assert!(store.put(&mut t, b"wednesday.img", &content).unwrap());
            t.commit().unwrap();

            let mut t = db.begin();
            let stats = store.stats(&mut t).unwrap();
            assert_eq!(stats.objects, 1);
            assert_eq!(stats.references, 3);
            assert_eq!(stats.physical_bytes, 300_000);
            assert_eq!(stats.logical_bytes, 900_000);
            assert!((stats.ratio() - 3.0).abs() < 1e-9);
            assert_eq!(
                store.digest_of(&mut t, b"monday.img").unwrap(),
                store.digest_of(&mut t, b"tuesday.img").unwrap()
            );
            t.commit().unwrap();
        }

        #[test]
        fn last_reference_frees_the_object() {
            let db = db();
            let store = DedupStore::create(&db, "d").unwrap();
            let content = vec![7u8; 50_000];
            let mut t = db.begin();
            store.put(&mut t, b"a", &content).unwrap();
            store.put(&mut t, b"b", &content).unwrap();
            t.commit().unwrap();

            let frees_before = db
                .metrics()
                .extent_frees
                .load(std::sync::atomic::Ordering::Relaxed);
            let mut t = db.begin();
            assert!(
                !store.delete(&mut t, b"a").unwrap(),
                "b still references it"
            );
            assert!(store.delete(&mut t, b"b").unwrap(), "last ref frees object");
            assert!(store.delete(&mut t, b"a").is_err());
            t.commit().unwrap();
            assert!(
                db.metrics()
                    .extent_frees
                    .load(std::sync::atomic::Ordering::Relaxed)
                    > frees_before
            );

            let mut t = db.begin();
            assert!(!store.contains(&mut t, b"a").unwrap());
            let stats = store.stats(&mut t).unwrap();
            assert_eq!(stats.objects, 0);
            assert_eq!(stats.references, 0);
            t.commit().unwrap();
        }

        #[test]
        fn distinct_content_not_merged() {
            let db = db();
            let store = DedupStore::create(&db, "d").unwrap();
            let mut t = db.begin();
            store.put(&mut t, b"x", b"hello").unwrap();
            store.put(&mut t, b"y", b"world").unwrap();
            assert!(
                store.put(&mut t, b"x", b"again").is_err(),
                "key already bound"
            );
            t.commit().unwrap();

            let mut t = db.begin();
            assert_eq!(store.get(&mut t, b"x", |b| b.to_vec()).unwrap(), b"hello");
            assert_eq!(store.get(&mut t, b"y", |b| b.to_vec()).unwrap(), b"world");
            assert_eq!(store.stats(&mut t).unwrap().objects, 2);
            t.commit().unwrap();
        }

        #[test]
        fn rollback_undoes_reference_counting() {
            let db = db();
            let store = DedupStore::create(&db, "d").unwrap();
            let content = vec![1u8; 10_000];
            let mut t = db.begin();
            store.put(&mut t, b"keep", &content).unwrap();
            t.commit().unwrap();

            let mut t = db.begin();
            store.put(&mut t, b"gone", &content).unwrap();
            t.abort();

            let mut t = db.begin();
            assert!(!store.contains(&mut t, b"gone").unwrap());
            let stats = store.stats(&mut t).unwrap();
            assert_eq!(stats.references, 1);
            assert_eq!(stats.objects, 1);
            // The surviving reference still reads correctly.
            assert_eq!(store.get(&mut t, b"keep", |b| b.len()).unwrap(), 10_000);
            t.commit().unwrap();
        }

        #[test]
        fn survives_recovery() {
            let dev = Arc::new(MemDevice::new(128 << 20));
            let wal = Arc::new(MemDevice::new(32 << 20));
            let cfg = Config {
                pool_frames: 2048,
                ..Config::default()
            };
            let content = vec![9u8; 123_456];
            {
                let db = Database::create(dev.clone(), wal.clone(), cfg.clone()).unwrap();
                let store = DedupStore::create(&db, "d").unwrap();
                let mut t = db.begin();
                store.put(&mut t, b"a", &content).unwrap();
                store.put(&mut t, b"b", &content).unwrap();
                t.commit().unwrap();
                db.wait_for_durability().unwrap();
                std::mem::forget(db); // crash
            }
            let (db, _) = Database::open(dev, wal, cfg).unwrap();
            let store = DedupStore::open(&db, "d").unwrap();
            let mut t = db.begin();
            assert_eq!(store.get(&mut t, b"a", |b| b.to_vec()).unwrap(), content);
            assert_eq!(store.get(&mut t, b"b", |b| b.to_vec()).unwrap(), content);
            let stats = store.stats(&mut t).unwrap();
            assert_eq!(stats.objects, 1);
            assert_eq!(stats.references, 2);
            t.commit().unwrap();
        }

        #[test]
        fn empty_objects_deduplicate_too() {
            let db = db();
            let store = DedupStore::create(&db, "d").unwrap();
            let mut t = db.begin();
            assert!(!store.put(&mut t, b"e1", b"").unwrap());
            assert!(store.put(&mut t, b"e2", b"").unwrap());
            assert_eq!(store.get(&mut t, b"e1", |b| b.len()).unwrap(), 0);
            let stats = store.stats(&mut t).unwrap();
            assert_eq!(stats.objects, 1);
            assert_eq!(stats.physical_bytes, 0);
            assert!(
                (stats.ratio() - 1.0).abs() < 1e-9,
                "0/0 ratio is defined as 1"
            );
            t.commit().unwrap();
        }

        #[derive(Debug, Clone)]
        enum DedupOp {
            /// Store content variant `v` (small alphabet → heavy duplication).
            Put(u8, u8),
            Get(u8),
            Delete(u8),
        }

        fn dedup_op() -> impl Strategy<Value = DedupOp> {
            prop_oneof![
                3 => (any::<u8>(), any::<u8>()).prop_map(|(k, v)| DedupOp::Put(k % 16, v % 5)),
                2 => any::<u8>().prop_map(|k| DedupOp::Get(k % 16)),
                2 => any::<u8>().prop_map(|k| DedupOp::Delete(k % 16)),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// The dedup store behaves like a plain map, while its physical object
            /// count always equals the number of *distinct* live contents.
            #[test]
            fn dedup_store_matches_oracle(ops in proptest::collection::vec(dedup_op(), 1..60)) {
                let db = db();
                let store = DedupStore::create(&db, "d").unwrap();
                let content = |v: u8| -> Vec<u8> { vec![v; 10_000 + v as usize * 1111] };
                let mut oracle: HashMap<u8, u8> = HashMap::new(); // key -> variant

                for op in ops {
                    match op {
                        DedupOp::Put(k, v) => {
                            let mut t = db.begin();
                            let r = store.put(&mut t, &[k], &content(v));
                            if oracle.contains_key(&k) {
                                prop_assert!(r.is_err());
                                drop(t);
                            } else {
                                let was_dup = r.unwrap();
                                t.commit().unwrap();
                                let already = oracle.values().any(|&x| x == v);
                                prop_assert_eq!(was_dup, already, "dup flag for variant {}", v);
                                oracle.insert(k, v);
                            }
                        }
                        DedupOp::Get(k) => {
                            let mut t = db.begin();
                            match oracle.get(&k) {
                                Some(&v) => {
                                    let got = store.get(&mut t, &[k], |b| b.to_vec()).unwrap();
                                    prop_assert_eq!(got, content(v));
                                }
                                None => prop_assert!(store.get(&mut t, &[k], |_| ()).is_err()),
                            }
                            t.commit().unwrap();
                        }
                        DedupOp::Delete(k) => {
                            let mut t = db.begin();
                            let r = store.delete(&mut t, &[k]);
                            match oracle.remove(&k) {
                                Some(v) => {
                                    let freed = r.unwrap();
                                    t.commit().unwrap();
                                    let still_referenced = oracle.values().any(|&x| x == v);
                                    prop_assert_eq!(freed, !still_referenced, "free on last ref of {}", v);
                                }
                                None => { prop_assert!(r.is_err()); drop(t); }
                            }
                        }
                    }
                }

                // Physical objects == distinct live variants; references == keys.
                let mut t = db.begin();
                let stats = store.stats(&mut t).unwrap();
                let distinct: HashSet<u8> = oracle.values().copied().collect();
                prop_assert_eq!(stats.objects, distinct.len() as u64);
                prop_assert_eq!(stats.references, oracle.len() as u64);
                let physical: u64 = distinct.iter().map(|&v| content(v).len() as u64).sum();
                prop_assert_eq!(stats.physical_bytes, physical);
                t.commit().unwrap();
            }
        }
    }
}
