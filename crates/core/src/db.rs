//! The LOBSTER database engine: configuration, lifecycle (create / open
//! with recovery / checkpoint), and DDL.

use crate::catalog::{decode_entry, encode_entry, Registry, Relation, RelationKind};
use crate::group_commit::GroupCommitter;
use crate::header::Header;
use crate::lock::LockManager;
use crate::recovery::{recover, RecoveryReport};
use crate::txn::Txn;
use lobster_btree::{BTree, KeyCmp, LexCmp};
use lobster_buffer::{AliasConfig, BlobPool, ExtentPool, HashTablePool, PoolConfig};
use lobster_extent::{ExtentAllocator, ExtentSpec, TierPolicy, TierTable};
use lobster_metrics::{new_metrics, Metrics};
use lobster_storage::Device;
use lobster_sync::atomic::{AtomicU32, AtomicU64, Ordering};
use lobster_sync::Arc;
use lobster_sync::Mutex;
use lobster_sync::RwLock;
use lobster_types::{Error, Geometry, Pid, Result};
use lobster_wal::{LogRecord, Wal};
use std::collections::{HashMap, HashSet};

/// Builds a relation's comparator once the database (whose pools the
/// comparator may need) exists. Registered by name for
/// [`Database::open_with_comparators`], because comparators are code and
/// cannot be recovered from the catalog.
pub type ComparatorFactory = Arc<dyn Fn(&Database) -> Arc<dyn KeyCmp> + Send + Sync>;

/// Buffer-pool variant (§V-B baselines).
#[derive(Clone, Debug)]
pub enum PoolVariant {
    /// vmcache-style pool with optional virtual-memory aliasing ("Our").
    Vm { alias: Option<AliasConfig> },
    /// Traditional hash-table pool ("Our.ht").
    Ht,
}

/// BLOB logging scheme (§III-C vs the `Our.physlog` baseline).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlobLogging {
    /// Asynchronous BLOB logging: WAL carries Blob States only; content is
    /// flushed once at commit.
    Async,
    /// Physical logging: full BLOB content is appended to the WAL in
    /// segments of the given size; extents are written again at
    /// eviction/checkpoint (the conventional double write).
    Physical { segment: usize },
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct Config {
    // knob: fixed at create; `open` reads it back from the header
    pub page_size: usize,
    /// Buffer frames for the (vm) pool, or page budget for the hash-table
    /// pool; the B-Tree node pool always uses the vm pool.
    pub pool_frames: u64,
    pub pool_variant: PoolVariant,
    pub io_threads: usize,
    // knob: fixed at create; `open` reads it back from the header
    pub tier_policy: TierPolicy,
    /// Allocate tail extents for new BLOBs (§III-A / §III-H trade-off).
    pub use_tail_extents: bool,
    pub blob_logging: BlobLogging,
    /// Checkpoint when the active log exceeds this many bytes.
    pub checkpoint_threshold: u64,
    /// Worker sessions (sizes the aliasing areas).
    pub workers: usize,
    /// Pages per B-Tree node.
    // knob: fixed at create; `open` reads it back from the header
    pub node_pages: u64,
    /// `true`: commit returns only after the WAL fsync and the extent flush
    /// (full durability). `false`: commits are handed to a background group
    /// committer and return immediately — the paper's "critical path does
    /// not involve I/O" configuration (asynchronous commit).
    pub commit_wait: bool,
    /// Sequential-readahead window for range reads: an observably
    /// sequential range read (it starts the blob, or starts where the
    /// worker's previous one on the same blob ended) touching extent `i`
    /// prefetches extents `i+1..i+1+readahead_extents` asynchronously; a
    /// random one prefetches nothing. `0` disables readahead.
    // knob: fault-injection tests set 0 for a foreground-only device-op schedule
    pub readahead_extents: usize,
    /// Verify BLOB content against the Blob State SHA-256 on every
    /// `get_blob`: a mismatch re-reads the extents once from the device
    /// (a transient device lie clears; real rot does not), then
    /// quarantines the blob and returns `Error::Corruption`.
    pub verify_reads: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            page_size: 4096,
            pool_frames: 16 * 1024, // 64 MiB
            pool_variant: PoolVariant::Vm {
                alias: Some(AliasConfig {
                    workers: 4,
                    worker_local_bytes: 4 << 20,
                    shared_bytes: 64 << 20,
                }),
            },
            io_threads: 4,
            tier_policy: TierPolicy::default(),
            use_tail_extents: false,
            blob_logging: BlobLogging::Async,
            checkpoint_threshold: 64 << 20,
            workers: 4,
            node_pages: 1,
            commit_wait: true,
            readahead_extents: 4,
            verify_reads: false,
        }
    }
}

/// How recovery decides the fate of [`lobster_wal::LogRecord::TxnCrossCommit`]
/// markers found in the log (the sharded engine's cross-shard commit
/// protocol; see `crates/core/src/shard.rs` and DESIGN.md).
#[derive(Clone)]
pub enum CrossCommitPolicy {
    /// Standalone database: a surviving marker is treated as a commit. A
    /// single log stream has no other participants to consult, and the
    /// marker is only appended after every local prerequisite of the
    /// commit protocol, so this is exact for non-sharded deployments.
    TrustLocal,
    /// Sharded engine: only global transactions in this set — computed by
    /// pre-scanning *every* shard's log and header watermark before any
    /// shard recovers — are committed; all other markers roll back.
    Decided(Arc<HashSet<u64>>),
}

/// Outcome of [`Database::scrub`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// BLOBs checked.
    pub blobs: u64,
    /// Content bytes hashed.
    pub bytes: u64,
    /// `(relation, key)` of every BLOB whose content no longer matches its
    /// stored SHA-256.
    pub corrupt: Vec<(String, Vec<u8>)>,
}

impl ScrubReport {
    pub fn is_clean(&self) -> bool {
        self.corrupt.is_empty()
    }
}

const CATALOG_REL_ID: u32 = 0;

/// The database engine.
pub struct Database {
    pub(crate) cfg: Config,
    pub(crate) geo: Geometry,
    pub(crate) device: Arc<dyn Device>,
    /// Pool for B-Tree nodes (and BLOB extents in the Vm variant).
    pub(crate) node_pool: Arc<ExtentPool>,
    /// Pool used for BLOB content.
    pub(crate) blob_pool: BlobPool,
    pub(crate) alloc: Arc<ExtentAllocator>,
    pub(crate) table: Arc<TierTable>,
    pub(crate) wal: Arc<Wal>,
    pub(crate) locks: LockManager,
    pub(crate) registry: RwLock<Registry>,
    pub(crate) catalog_tree: BTree,
    pub(crate) next_txn: AtomicU64,
    pub(crate) next_rel: AtomicU32,
    pub(crate) metrics: Metrics,
    /// Commits hold this shared; checkpoints hold it exclusively, so a
    /// checkpoint never truncates records of a commit in flight.
    pub(crate) ckpt_gate: Arc<RwLock<()>>,
    pub(crate) committer: GroupCommitter,
    /// Cross-shard commit decision policy consulted by recovery when it
    /// meets a `TxnCrossCommit` marker.
    pub(crate) cross_commit: CrossCommitPolicy,
    /// Highest global transaction id known globally durable when this
    /// database's header was last written. Persisted in the header *before*
    /// each checkpoint truncates the log, so a marker truncated on this
    /// shard can still be decided committed by peers that kept theirs:
    /// `gtxn <= watermark` proves every participant's stage-1 fsync
    /// covered it.
    pub(crate) xcommit_watermark: AtomicU64,
    /// Comparator factories consulted when recovery reattaches relations.
    cmp_factories: HashMap<String, ComparatorFactory>,
    /// `(relation name, key)` of every BLOB whose content failed
    /// verify-on-read twice this run. Their extents are fenced in the
    /// allocator ([`ExtentAllocator::quarantine_extent`]) so nothing
    /// recycles the evidence; the set itself is runtime-lifetime —
    /// recovery's SHA fixpoint re-detects persistent rot on reopen.
    quarantined: Mutex<HashSet<(String, Vec<u8>)>>,
    /// Per worker: `(first extent pid, end offset)` of its last range read
    /// — the evidence readahead needs that an access is sequential
    /// (`content::read_range` under `Residency::Foreground`). A hint only;
    /// workers sharing an id merely lose readahead.
    pub(crate) last_range: Vec<Mutex<(u64, u64)>>,
    ddl_lock: Mutex<()>,
}

impl Database {
    /// Create a fresh database on `device` with its WAL on `wal_device`.
    pub fn create(
        device: Arc<dyn Device>,
        wal_device: Arc<dyn Device>,
        cfg: Config,
    ) -> Result<Arc<Self>> {
        let policy = CrossCommitPolicy::TrustLocal;
        let db = Self::assemble(device, wal_device, cfg, None, 0, HashMap::new(), policy)?;
        db.write_header()?;
        db.node_pool.flush_all_dirty()?;
        db.device.sync()?;
        Ok(db)
    }

    /// The one constructor. `catalog_root` is `None` to create the WAL and
    /// the catalog tree, or the root an existing header names to open them.
    fn assemble(
        device: Arc<dyn Device>,
        wal_device: Arc<dyn Device>,
        cfg: Config,
        catalog_root: Option<Pid>,
        xcommit_watermark: u64,
        cmp_factories: HashMap<String, ComparatorFactory>,
        cross_commit: CrossCommitPolicy,
    ) -> Result<Arc<Self>> {
        let metrics = new_metrics();
        let geo = Geometry::new(cfg.page_size);
        let table = Arc::new(TierTable::new(cfg.tier_policy));
        let page_capacity = device.capacity() / cfg.page_size as u64;
        // Page 0 is the header.
        let alloc = Arc::new(ExtentAllocator::new(
            table.clone(),
            Pid::new(1),
            page_capacity,
        ));
        let (node_pool, blob_pool) = Self::build_pools(&cfg, device.clone(), geo, metrics.clone());
        let (nodes, cmp) = (node_pool.clone(), Arc::new(LexCmp));
        let (wal, catalog_tree) = match catalog_root {
            None => (
                Wal::create(wal_device, metrics.clone())?,
                BTree::create(nodes, alloc.clone(), cmp, cfg.node_pages)?,
            ),
            Some(root) => (
                Wal::open(wal_device, metrics.clone())?,
                BTree::open(nodes, alloc.clone(), cmp, cfg.node_pages, root),
            ),
        };
        let ckpt_gate = Arc::new(RwLock::new(()));
        let committer = GroupCommitter::new(
            wal.clone(),
            blob_pool.clone(),
            alloc.clone(),
            ckpt_gate.clone(),
            metrics.clone(),
            cfg.page_size as u64,
            cfg.pool_frames * cfg.page_size as u64 / 4,
        );
        Ok(Arc::new(Database {
            geo,
            device,
            node_pool,
            blob_pool,
            alloc,
            table,
            wal,
            locks: LockManager::default(),
            registry: RwLock::new(Registry::default()),
            catalog_tree,
            next_txn: AtomicU64::new(1),
            next_rel: AtomicU32::new(1),
            metrics,
            ckpt_gate,
            committer,
            cross_commit,
            xcommit_watermark: AtomicU64::new(xcommit_watermark),
            cmp_factories,
            quarantined: Mutex::new(HashSet::new()),
            last_range: Self::range_cells(&cfg),
            ddl_lock: Mutex::new(()),
            cfg,
        }))
    }

    /// Open an existing database, running crash recovery. Relations created
    /// with custom comparators reattach byte-wise; use
    /// [`Database::open_with_comparators`] to supply them, or
    /// [`Database::rebind_comparator`] afterwards.
    pub fn open(
        device: Arc<dyn Device>,
        wal_device: Arc<dyn Device>,
        cfg: Config,
    ) -> Result<(Arc<Self>, RecoveryReport)> {
        Self::open_with_comparators(device, wal_device, cfg, HashMap::new())
    }

    /// Open with a registry of comparator factories, keyed by relation
    /// name: recovery then replays index operations under the correct
    /// ordering.
    pub fn open_with_comparators(
        device: Arc<dyn Device>,
        wal_device: Arc<dyn Device>,
        cfg: Config,
        comparators: HashMap<String, ComparatorFactory>,
    ) -> Result<(Arc<Self>, RecoveryReport)> {
        Self::open_with_policy(
            device,
            wal_device,
            cfg,
            comparators,
            CrossCommitPolicy::TrustLocal,
        )
    }

    /// Open with an explicit cross-shard commit decision policy. The
    /// sharded engine pre-scans every shard's log for `TxnCrossCommit`
    /// markers, decides each global transaction, and opens every shard
    /// with the decided set so all shards recover the same outcome.
    pub fn open_with_policy(
        device: Arc<dyn Device>,
        wal_device: Arc<dyn Device>,
        mut cfg: Config,
        comparators: HashMap<String, ComparatorFactory>,
        cross_commit: CrossCommitPolicy,
    ) -> Result<(Arc<Self>, RecoveryReport)> {
        // The on-disk format parameters override the caller's runtime
        // preferences.
        let header = Header::read(&*device)?;
        cfg.page_size = header.page_size;
        cfg.tier_policy = header.tier_policy;
        cfg.use_tail_extents = header.use_tail_extents;
        cfg.node_pages = header.node_pages;
        let db = Self::assemble(
            device,
            wal_device,
            cfg,
            Some(header.catalog_root),
            header.xcommit_watermark,
            comparators,
            cross_commit,
        )?;
        let report = recover(&db)?;
        Ok((db, report))
    }

    fn range_cells(cfg: &Config) -> Vec<Mutex<(u64, u64)>> {
        (0..cfg.workers.max(1))
            .map(|_| Mutex::new((u64::MAX, 0)))
            .collect()
    }

    fn build_pools(
        cfg: &Config,
        device: Arc<dyn Device>,
        geo: Geometry,
        metrics: Metrics,
    ) -> (Arc<ExtentPool>, BlobPool) {
        match &cfg.pool_variant {
            PoolVariant::Vm { alias } => {
                // The aliasing areas must cover every worker session.
                let alias = alias.map(|mut a| {
                    a.workers = a.workers.max(cfg.workers.max(1));
                    a
                });
                let pool = ExtentPool::new(
                    device,
                    geo,
                    PoolConfig {
                        frames: cfg.pool_frames,
                        alias,
                        io_threads: cfg.io_threads,
                    },
                    metrics,
                );
                (pool.clone(), BlobPool::Vm(pool))
            }
            PoolVariant::Ht => {
                // Dedicated (small) node pool; the blob budget goes to the
                // hash table.
                let node_frames = (cfg.pool_frames / 8).max(256);
                let node_pool = ExtentPool::new(
                    device.clone(),
                    geo,
                    PoolConfig {
                        frames: node_frames,
                        alias: None,
                        io_threads: cfg.io_threads,
                    },
                    metrics.clone(),
                );
                let ht = HashTablePool::new(device, geo, cfg.pool_frames, metrics);
                (node_pool, BlobPool::Ht(ht))
            }
        }
    }

    pub(crate) fn write_header(&self) -> Result<()> {
        let header = Header {
            page_size: self.cfg.page_size,
            tier_policy: self.cfg.tier_policy,
            use_tail_extents: self.cfg.use_tail_extents,
            catalog_root: self.catalog_tree.root(),
            node_pages: self.cfg.node_pages,
            xcommit_watermark: self.xcommit_watermark.load(Ordering::SeqCst),
            xcommit_above: Vec::new(),
        };
        header.write(&*self.device)
    }

    /// Whether recovery should treat a `TxnCrossCommit` marker for `gtxn`
    /// as a commit: either the header watermark proves every participant's
    /// fsync covered it, or the pre-scan decided it committed.
    pub(crate) fn cross_commit_decided(&self, gtxn: u64) -> bool {
        if gtxn <= self.xcommit_watermark.load(Ordering::SeqCst) {
            return true;
        }
        match &self.cross_commit {
            CrossCommitPolicy::TrustLocal => true,
            CrossCommitPolicy::Decided(set) => set.contains(&gtxn),
        }
    }

    /// Raise the cross-commit watermark; persisted at the next header
    /// write. The sharded layer calls this *before* checkpointing the
    /// shard, and `checkpoint_locked` writes + syncs the header before the
    /// log is truncated — so the durable proof always precedes the loss of
    /// the markers it replaces.
    pub(crate) fn set_cross_commit_watermark(&self, w: u64) {
        self.xcommit_watermark.fetch_max(w, Ordering::SeqCst);
    }

    pub fn config(&self) -> &Config {
        &self.cfg
    }

    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    pub fn geometry(&self) -> Geometry {
        self.geo
    }

    /// The static tier table shared by every placement decision (sizes
    /// of a Blob State's extent sequence are derived from it).
    pub fn tier_table(&self) -> &Arc<TierTable> {
        &self.table
    }

    pub fn wal(&self) -> &Arc<Wal> {
        &self.wal
    }

    /// The data device this database runs on (reopen after shutdown, crash
    /// harnesses).
    pub fn device(&self) -> Arc<dyn Device> {
        self.device.clone()
    }

    pub fn allocator(&self) -> &Arc<ExtentAllocator> {
        &self.alloc
    }

    pub fn node_pool(&self) -> &Arc<ExtentPool> {
        &self.node_pool
    }

    pub fn blob_pool(&self) -> &BlobPool {
        &self.blob_pool
    }

    /// Verify every BLOB's content against its stored SHA-256 — an online
    /// scrub, the integrity check the Blob State gives for free (§III-B's
    /// hash exists for recovery; here it doubles as `btrfs scrub`-style
    /// bit-rot detection, which file systems need extra metadata for).
    ///
    /// Holds the checkpoint gate shared, so it runs alongside normal
    /// transactions; blobs written during the scan may or may not be
    /// visited. Content is read past the pool (recovery's validator,
    /// `content::validate_many`), so a scrub evicts nothing.
    pub fn scrub(&self) -> Result<ScrubReport> {
        let _gate = self.ckpt_gate.read();
        let mut report = ScrubReport::default();
        for rel in self.registry.read().all() {
            if rel.kind != RelationKind::Blob {
                continue;
            }
            let mut entries: Vec<(Vec<u8>, crate::blob_state::BlobState)> = Vec::new();
            rel.tree.for_each(|k, v| {
                if let Ok(state) = crate::blob_state::BlobState::decode(v) {
                    entries.push((k.to_vec(), state));
                }
                true
            })?;
            let states: Vec<_> = entries.iter().map(|(_, state)| state).collect();
            let verdicts = crate::content::validate_many(self, &states)?;
            for ((key, state), ok) in entries.into_iter().zip(verdicts) {
                report.blobs += 1;
                report.bytes += state.size;
                if !ok {
                    report.corrupt.push((rel.name.clone(), key));
                }
            }
        }
        Ok(report)
    }

    /// Storage utilization of the page space (drives Figure 11).
    pub fn utilization(&self) -> f64 {
        self.alloc.utilization()
    }

    /// Free-run fragmentation score of the page space: 0 for one
    /// contiguous free run, approaching 1 as free space shatters (drives
    /// the aging bench and the `fragmentation_score_milli` gauge).
    pub fn fragmentation_score(&self) -> f64 {
        self.alloc.fragmentation_score()
    }

    /// One synchronous maintenance pass (coalesce + bounded relocation
    /// batch); the [`crate::Defragmenter`] thread calls this on an
    /// interval, tests and benches call it directly.
    pub fn defrag_pass(
        self: &Arc<Self>,
        cfg: &crate::DefragConfig,
    ) -> Result<crate::DefragPassReport> {
        crate::defrag::defrag_pass(self, cfg)
    }

    /// Quarantine a BLOB whose content failed verification: fence each of
    /// its extents in the allocator (a later `free_extent` parks instead of
    /// recycling, so the corrupt evidence survives for forensics) and
    /// record the `(relation, key)` identity. Idempotent per blob.
    pub(crate) fn quarantine_blob(&self, rel: &Relation, key: &[u8], specs: &[ExtentSpec]) {
        for spec in specs {
            self.alloc.quarantine_extent(*spec);
        }
        let mut q = self.quarantined.lock();
        if q.insert((rel.name.clone(), key.to_vec())) {
            self.metrics
                .quarantined_blobs
                .fetch_add(1, Ordering::Relaxed); // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        }
    }

    /// `(relation, key)` of every BLOB quarantined by verify-on-read since
    /// this handle was opened.
    pub fn quarantined_blobs(&self) -> Vec<(String, Vec<u8>)> {
        let mut v: Vec<_> = self.quarantined.lock().iter().cloned().collect();
        v.sort();
        v
    }

    /// Whether verify-on-read has quarantined the given BLOB.
    pub fn is_blob_quarantined(&self, relation: &str, key: &[u8]) -> bool {
        self.quarantined
            .lock()
            .contains(&(relation.to_string(), key.to_vec()))
    }

    // -------------------------------------------------------------- DDL ---

    /// Create a relation. DDL auto-commits (it is logged and durable when
    /// this returns).
    pub fn create_relation(&self, name: &str, kind: RelationKind) -> Result<Arc<Relation>> {
        self.create_relation_with(name, kind, Arc::new(LexCmp), self.cfg.node_pages)
    }

    /// Create a relation with a custom comparator and node size (used for
    /// the Blob State index and the prefix-index baseline).
    pub fn create_relation_with(
        &self,
        name: &str,
        kind: RelationKind,
        cmp: Arc<dyn KeyCmp>,
        node_pages: u64,
    ) -> Result<Arc<Relation>> {
        let _ddl = self.ddl_lock.lock();
        if self.registry.read().by_name(name).is_some() {
            return Err(Error::KeyExists);
        }
        let _gate = self.ckpt_gate.read();
        let id = self.next_rel.fetch_add(1, Ordering::SeqCst);
        let tree = BTree::create(self.node_pool.clone(), self.alloc.clone(), cmp, node_pages)?;
        // Make the empty root durable immediately: recovery walks the
        // on-device tree of every relation named in the log, so the root
        // page must be valid before the DDL record can be replayed.
        self.node_pool
            .flush_extents(&[lobster_buffer::FlushItem::whole(ExtentSpec::new(
                tree.root(),
                node_pages,
            ))])?;
        let entry = encode_entry(id, kind, tree.root(), node_pages);
        self.catalog_tree.insert(name.as_bytes(), &entry, false)?;
        let txn_id = self.next_txn.fetch_add(1, Ordering::SeqCst);
        self.wal.append_and_commit(&[
            LogRecord::Insert {
                txn: txn_id,
                relation: CATALOG_REL_ID,
                key: name.as_bytes().to_vec(),
                value: entry,
            },
            LogRecord::TxnCommit { txn: txn_id },
        ])?;
        let rel = Arc::new(Relation {
            id,
            name: name.to_string(),
            kind,
            tree,
        });
        self.registry.write().insert(rel.clone());
        Ok(rel)
    }

    /// Drop a relation: every BLOB's extents and the relation's own B-Tree
    /// nodes return to the free lists, the catalog entry is removed, and
    /// the name becomes reusable. DDL auto-commits (durable when this
    /// returns). Like `DROP TABLE`, the caller must ensure no transaction
    /// is concurrently operating on the relation.
    pub fn drop_relation(&self, name: &str) -> Result<()> {
        let _ddl = self.ddl_lock.lock();
        let rel = self
            .registry
            .read()
            .by_name(name)
            .ok_or(Error::KeyNotFound)?;
        // Let queued group commits land before their extents are recycled.
        self.wait_for_durability()?;
        let _gate = self.ckpt_gate.read();

        // Gather everything the relation owns before touching the catalog.
        let mut blob_extents: Vec<ExtentSpec> = Vec::new();
        if rel.kind == RelationKind::Blob {
            let table = self.table.clone();
            rel.tree.for_each(|_, v| {
                if let Ok(state) = crate::blob_state::BlobState::decode(v) {
                    blob_extents.extend(state.extent_specs(&table));
                }
                true
            })?;
        }
        let tree_extents = rel.tree.collect_extents()?;

        let old = self
            .catalog_tree
            .remove(name.as_bytes())?
            .ok_or(Error::KeyNotFound)?;
        let txn_id = self.next_txn.fetch_add(1, Ordering::SeqCst);
        self.wal.append_and_commit(&[
            LogRecord::Delete {
                txn: txn_id,
                relation: CATALOG_REL_ID,
                key: name.as_bytes().to_vec(),
                old_value: old,
            },
            LogRecord::TxnCommit { txn: txn_id },
        ])?;
        self.registry.write().remove(name);

        // Evict cached pages, then recycle the storage.
        self.blob_pool.drop_extents(&blob_extents);
        for spec in blob_extents {
            self.alloc.free_extent(spec);
        }
        for spec in tree_extents {
            self.node_pool.drop_extent(spec);
            self.alloc.free_extent(spec);
        }
        Ok(())
    }

    /// Remove a relation from the in-memory registry (recovery redo of a
    /// committed drop).
    pub(crate) fn detach_relation(&self, name: &str) {
        self.registry.write().remove(name);
    }

    /// Look up an open relation by name.
    pub fn relation(&self, name: &str) -> Option<Arc<Relation>> {
        self.registry.read().by_name(name)
    }

    pub fn relation_by_id(&self, id: u32) -> Option<Arc<Relation>> {
        self.registry.read().by_id(id)
    }

    /// Names of all relations (the FUSE facade's directory listing).
    pub fn relation_names(&self) -> Vec<String> {
        self.registry.read().names()
    }

    /// Re-register a custom comparator after [`Database::open`]: relations
    /// created with [`Database::create_relation_with`] reattach with the
    /// default byte-wise comparator during recovery (comparators are code,
    /// not data), so indexes such as the Blob State index must be rebound
    /// before use.
    pub fn rebind_comparator(&self, name: &str, cmp: Arc<dyn KeyCmp>) -> Result<Arc<Relation>> {
        let old = self
            .registry
            .read()
            .by_name(name)
            .ok_or(Error::KeyNotFound)?;
        let entry = self
            .catalog_tree
            .lookup(name.as_bytes())?
            .ok_or(Error::KeyNotFound)?;
        let (id, kind, root, node_pages) = decode_entry(&entry)?;
        debug_assert_eq!(id, old.id);
        let tree = BTree::open(
            self.node_pool.clone(),
            self.alloc.clone(),
            cmp,
            node_pages,
            root,
        );
        let rel = Arc::new(Relation {
            id,
            name: name.to_string(),
            kind,
            tree,
        });
        self.registry.write().insert(rel.clone());
        Ok(rel)
    }

    /// Reattach a relation from a catalog entry (recovery path).
    pub(crate) fn attach_relation(&self, name: &str, entry: &[u8]) -> Result<Arc<Relation>> {
        let (id, kind, root, node_pages) = decode_entry(entry)?;
        let cmp: Arc<dyn KeyCmp> = match self.cmp_factories.get(name) {
            Some(factory) => factory(self),
            None => Arc::new(LexCmp),
        };
        let tree = BTree::open(
            self.node_pool.clone(),
            self.alloc.clone(),
            cmp,
            node_pages,
            root,
        );
        let rel = Arc::new(Relation {
            id,
            name: name.to_string(),
            kind,
            tree,
        });
        let mut reg = self.registry.write();
        reg.insert(rel.clone());
        let max = reg.max_id();
        drop(reg);
        self.next_rel.fetch_max(max + 1, Ordering::SeqCst);
        Ok(rel)
    }

    // ----------------------------------------------------- transactions ---

    /// Begin a transaction bound to worker `worker` (the worker id selects
    /// the worker-local aliasing area).
    ///
    /// # Worker → shard affinity contract
    ///
    /// Under the sharded engine ([`crate::ShardedDatabase`]) worker ids
    /// are the unit of placement:
    ///
    /// * [`crate::ShardedDatabase::begin_with_worker`] passes the *same*
    ///   worker id to every per-shard `begin_with_worker`, so a client
    ///   thread always lands in the same worker-local aliasing area of
    ///   every shard it touches (ids are taken modulo [`Config::workers`],
    ///   which sizes those areas).
    /// * The worker's *home shard* is `worker % num_shards`: operations
    ///   that are not keyed to a specific shard (and closed-loop bench
    ///   clients that pin one thread per shard) route there, so running
    ///   `threads == num_shards` clients gives each shard exactly one
    ///   affine worker and the engine scales without cross-shard
    ///   interference.
    /// * Keyed operations ignore affinity: the hash of the key alone picks
    ///   the shard, so placement is stable across restarts and
    ///   independent of which worker issues the operation.
    pub fn begin_with_worker(self: &Arc<Self>, worker: usize) -> Txn {
        let id = self.next_txn.fetch_add(1, Ordering::SeqCst);
        Txn::new(self.clone(), id, worker)
    }

    /// Begin a transaction on worker 0.
    pub fn begin(self: &Arc<Self>) -> Txn {
        self.begin_with_worker(0)
    }

    // ------------------------------------------------------- checkpoint ---

    /// Checkpoint: journal full images of every dirty node page to the
    /// WAL (so a crash mid-checkpoint replays them into a consistent
    /// tree), then flush all dirty state in place and logically truncate
    /// the WAL.
    pub fn checkpoint(&self) -> Result<()> {
        // Asynchronously committed work must be durable before truncation.
        self.committer.drain()?;
        let _gate = self.ckpt_gate.write();
        // A group forwarded between the drain and the gate acquisition may
        // still have its extent flush in flight; with the gate held no new
        // group can be forwarded, so this converges — and flush_all_dirty
        // below must not run concurrently with an in-flight flush.
        self.committer.flush_quiesce();
        self.checkpoint_locked()
    }

    /// The gate-held body of [`Database::checkpoint`]; recovery reuses it
    /// so mid-recovery crashes are covered by the same image journal.
    pub(crate) fn checkpoint_locked(&self) -> Result<()> {
        // 1. Journal images of the dirty node pages (torn-write armor).
        let mut images: Vec<LogRecord> = Vec::new();
        self.node_pool.collect_dirty(|spec, data| {
            images.push(LogRecord::PageImage {
                pid: spec.start.raw(),
                data: data.to_vec(),
            });
            Ok(())
        })?;
        if !images.is_empty() {
            self.wal.append_and_commit(&images)?;
        }
        // 2. In-place writes.
        self.blob_pool.flush_all_dirty()?;
        self.node_pool.flush_all_dirty()?;
        self.write_header()?;
        self.device.sync()?;
        // 3. Truncate: the images (old epoch) vanish with the log.
        self.wal.checkpoint_truncate()?;
        Ok(())
    }

    pub(crate) fn maybe_checkpoint(&self) -> Result<()> {
        if self.wal.active_bytes() > self.cfg.checkpoint_threshold {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Flush everything and checkpoint (clean shutdown).
    pub fn shutdown(&self) -> Result<()> {
        self.checkpoint()
    }

    /// Block until every asynchronously committed transaction is durable
    /// (WAL records fsynced *and* extent flushes completed). Surfaces the
    /// committer's sticky error: `Err` means at least one acknowledged
    /// asynchronous commit may have been lost to an I/O failure.
    pub fn wait_for_durability(&self) -> Result<()> {
        self.committer.drain()
    }

    /// Extents referenced by every relation tree and every Blob State —
    /// the ground truth for allocator rebuilds.
    pub(crate) fn referenced_extents(&self) -> Result<Vec<ExtentSpec>> {
        let mut used = self.catalog_tree.collect_extents()?;
        for rel in self.registry.read().all() {
            used.extend(rel.tree.collect_extents()?);
            if rel.kind == RelationKind::Blob {
                let mut states = Vec::new();
                rel.tree.for_each(|_, v| {
                    states.push(v.to_vec());
                    true
                })?;
                for v in states {
                    let state = crate::BlobState::decode(&v)?;
                    used.extend(state.extent_specs(&self.table));
                }
            }
        }
        Ok(used)
    }
}
