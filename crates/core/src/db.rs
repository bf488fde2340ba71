//! The LOBSTER database engine: configuration, lifecycle (create / open
//! with recovery / checkpoint), and DDL.

use crate::catalog::{decode_entry, encode_entry, Registry, Relation, RelationKind};
use crate::group_commit::{GroupCommitter, StageCtx};
use crate::header::{encode_map, Header, MapRef};
use crate::lock::LockManager;
use crate::recovery::{recover, RecoveryReport};
use crate::txn::Txn;
use crate::writers::WriterGate;
use lobster_btree::{BTree, KeyCmp, LexCmp, Node};
use lobster_buffer::{AliasConfig, BlobPool, ExtentPool, HashTablePool, PoolConfig};
use lobster_extent::{ExtentAllocator, ExtentSpec, TierPolicy, TierTable};
use lobster_metrics::{new_metrics, Metrics};
use lobster_storage::Device;
use lobster_sync::atomic::{AtomicU32, AtomicU64, Ordering};
use lobster_sync::Arc;
use lobster_sync::Mutex;
use lobster_sync::RwLock;
use lobster_types::{Error, Geometry, Pid, Result, RetryPolicy};
use lobster_wal::{LogRecord, LogScan, Wal};
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

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

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Buffer frames for the (vm) pool, or page budget for the hash-table
    /// pool; the B-Tree node pool always uses the vm pool.
    pub pool_frames: u64,
    pub pool_variant: PoolVariant,
    pub io_threads: usize,
    /// Checkpoint when the active log exceeds this many bytes.
    pub checkpoint_threshold: u64,
    /// Worker sessions (sizes the aliasing areas).
    pub workers: usize,
    /// `true`: commit returns only once its group is durable — content
    /// synced, WAL fsynced (acknowledged means durable) — and a put starts
    /// its content's write on the client thread, overlapping its hash.
    /// `false`: commits are handed to a background group committer and
    /// return immediately — the paper's "critical path does not involve
    /// I/O" configuration (asynchronous commit); the group becomes durable
    /// the same way, later ([`Database::wait_for_durability`]).
    pub commit_wait: bool,
    /// Verify BLOB content against the Blob State SHA-256 on every
    /// `get_blob`: a mismatch re-reads the extents once from the device
    /// (a transient device lie clears; real rot does not), then
    /// quarantines the blob and returns `Error::Corruption`.
    pub verify_reads: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            pool_frames: 16 * 1024, // 64 MiB
            pool_variant: PoolVariant::Vm {
                alias: Some(AliasConfig {
                    workers: 4,
                    worker_local_bytes: 4 << 20,
                    shared_bytes: 64 << 20,
                }),
            },
            io_threads: 4,
            checkpoint_threshold: 64 << 20,
            workers: 4,
            commit_wait: true,
            verify_reads: false,
        }
    }
}

/// How recovery decides the fate of [`lobster_wal::LogRecord::TxnCrossCommit`]
/// markers found in the log (the sharded engine's cross-shard commit
/// protocol; see `crates/core/src/shard.rs` and DESIGN.md).
#[derive(Clone)]
pub(crate) enum CrossCommitPolicy {
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

/// Outcome of [`Database::audit_allocator`]: the allocator's free runs
/// against the ones a walk of every tree implies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AllocatorAudit {
    /// Free runs the walk implies: every page that no tree node, no Blob
    /// State and none of `retiring` holds.
    pub walked: Vec<ExtentSpec>,
    /// Free runs the allocator holds.
    pub held: Vec<ExtentSpec>,
    /// Extents freed while quarantined: free for the walk and the map,
    /// but parked, not allocatable, until a reopen.
    pub parked: Vec<ExtentSpec>,
    /// Extents in use until the next checkpoint's header sync: the free
    /// map the header names (first), and what relations dropped since held.
    pub retiring: Vec<ExtentSpec>,
    /// Index nodes the walk visited.
    pub nodes: u64,
    /// Device read batches it issued ([`BTree::walk`]).
    pub batches: u64,
}

impl AllocatorAudit {
    /// The allocator holds exactly what the trees reference, but for
    /// what it parks.
    pub fn is_exact(&self) -> bool {
        self.walked == lobster_extent::union([&self.held[..], &self.parked].concat())
    }
}

const CATALOG_REL_ID: u32 = 0;

/// Page size of a new store. `open` takes the page size, the tier policy
/// ([`TierPolicy::default`] at create) and the node size from the header.
const PAGE_SIZE: usize = 4096;
/// Pages per B-Tree node of a new store.
const NODE_PAGES: u64 = 1;

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
    /// Transactions with staged writes are inside; a checkpoint closes it,
    /// so it never makes uncommitted work durable.
    pub(crate) writers: WriterGate,
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
    /// Extents that stay in use until the next checkpoint's header sync
    /// and are free in the map it writes: the free map the header names
    /// now, and what every relation dropped since held — a crash before
    /// that header replays the drop, and recovery walks the dropped tree.
    pub(crate) retiring: Mutex<Vec<ExtentSpec>>,
    /// `(relation name, key)` of every BLOB whose content failed
    /// verify-on-read twice this run. Their extents are fenced in the
    /// allocator ([`ExtentAllocator::quarantine_extent`]) so nothing
    /// recycles the evidence; the set itself is runtime-lifetime. On
    /// reopen, recovery's SHA fixpoint re-detects rot only in versions
    /// committed after the log's data-durable mark; for the rest,
    /// verify-on-read and the scrubber are the defence.
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
        let (db, _) = Self::assemble(device, wal_device, cfg, None, HashMap::new(), policy)?;
        db.checkpoint_locked()?;
        Ok(db)
    }

    /// The one constructor. `existing` is `None` to create the WAL and the
    /// catalog tree in the format of a new store, or the header and the
    /// log scan of an existing one to open them in its format. Returns the
    /// store and the time its buffer pools took to build.
    fn assemble(
        device: Arc<dyn Device>,
        wal_device: Arc<dyn Device>,
        cfg: Config,
        existing: Option<(&Header, &LogScan)>,
        cmp_factories: HashMap<String, ComparatorFactory>,
        cross_commit: CrossCommitPolicy,
    ) -> Result<(Arc<Self>, Duration)> {
        let (page_size, policy, node_pages, xcommit_watermark) = match existing {
            Some((h, _)) => (
                h.page_size,
                h.tier_policy,
                h.node_pages,
                h.xcommit_watermark,
            ),
            None => (PAGE_SIZE, TierPolicy::default(), NODE_PAGES, 0),
        };
        let metrics = new_metrics();
        let geo = Geometry::new(page_size);
        let table = Arc::new(TierTable::new(policy));
        let alloc = Arc::new(Self::new_allocator(&table, &*device, geo));
        let t = Instant::now();
        let (node_pool, blob_pool) = Self::build_pools(&cfg, device.clone(), geo, metrics.clone());
        let pools = t.elapsed();
        let (nodes, cmp) = (node_pool.clone(), Arc::new(LexCmp));
        let (wal, catalog_tree) = match existing {
            None => (
                Wal::create(wal_device, metrics.clone())?,
                BTree::create(nodes, alloc.clone(), cmp, node_pages)?,
            ),
            Some((h, log)) => (
                Wal::open_scanned(wal_device, log, metrics.clone()),
                BTree::open(nodes, alloc.clone(), cmp, node_pages, h.catalog_root),
            ),
        };
        let ckpt_gate = Arc::new(RwLock::new(()));
        let stages = StageCtx::new(
            blob_pool.clone(),
            device.clone(),
            alloc.clone(),
            metrics.clone(),
            page_size as u64,
            cfg.pool_frames * page_size as u64 / 4,
        );
        let committer = GroupCommitter::new(wal.clone(), ckpt_gate.clone(), stages);
        let db = Arc::new(Database {
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
            // An open may run on from the log it replayed, so ids resume
            // above every one it holds: a torn transaction of this session
            // must never meet an older one's commit record or mark.
            // (Relation ids resume as each relation is attached.)
            next_txn: AtomicU64::new(existing.map_or(0, |(_, log)| last_txn(log)) + 1),
            next_rel: AtomicU32::new(1),
            metrics,
            ckpt_gate,
            writers: WriterGate::new(),
            committer,
            cross_commit,
            xcommit_watermark: AtomicU64::new(xcommit_watermark),
            cmp_factories,
            retiring: Mutex::new(Vec::new()),
            quarantined: Mutex::new(HashSet::new()),
            last_range: Self::range_cells(&cfg),
            ddl_lock: Mutex::new(()),
            cfg,
        });
        Ok((db, pools))
    }

    /// Open an existing database, running crash recovery. Relations created
    /// with custom comparators reattach byte-wise, and recovery replays
    /// their operations in that order: open a store that has one (such as
    /// a Blob State index) with [`Database::open_with_comparators`].
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
        let t = Instant::now();
        let log = Wal::scan(&wal_device)?;
        Self::open_with_policy(
            device,
            wal_device,
            (log, t.elapsed()),
            cfg,
            comparators,
            CrossCommitPolicy::TrustLocal,
        )
    }

    /// Open with an explicit cross-shard commit decision policy, from
    /// `log`, the one read of `wal_device` ([`Wal::scan`]), and the time
    /// it took. The sharded engine pre-scans every shard's log for
    /// `TxnCrossCommit` markers, decides each global transaction, and opens
    /// every shard from its scan with the decided set so all shards recover
    /// the same outcome.
    pub(crate) fn open_with_policy(
        device: Arc<dyn Device>,
        wal_device: Arc<dyn Device>,
        (log, scan): (LogScan, Duration),
        cfg: Config,
        comparators: HashMap<String, ComparatorFactory>,
        cross_commit: CrossCommitPolicy,
    ) -> Result<(Arc<Self>, RecoveryReport)> {
        let header = Header::read(&*device)?;
        // The log is the one the header's checkpoint started, or the one
        // it superseded: the checkpoint stopped between its header and its
        // truncate. That log holds nothing the checkpoint lacks — writers
        // were held out, and such a failure stops the committer — so the
        // open finishes the truncate and replays nothing.
        let superseded = header.map.log_epoch.wrapping_sub(log.epoch);
        if superseded > 1 {
            let map_epoch = header.map.log_epoch;
            let what = format!("log epoch {} under a map of epoch {map_epoch}", log.epoch);
            return Err(Error::Corruption(what));
        }
        let (db, pools) = Self::assemble(
            device,
            wal_device,
            cfg,
            Some((&header, &log)),
            comparators,
            cross_commit,
        )?;
        // Only a log with chained frames may run on past this open: a frame
        // past its end never joins it. Only a version-4 header's checkpoint
        // begins one, so a chained log is also one under the current header
        // version; a version-3 store's open checkpoints.
        let chained = log.chained;
        let mut records = log.records;
        if superseded == 1 {
            db.wal.checkpoint_truncate()?;
            records.clear();
        }
        let mut report = recover(&db, header.map, records, chained)?;
        report.phases.scan = scan;
        report.phases.pools = pools;
        Ok((db, report))
    }

    /// The page allocator of a store on `device`: every page but page 0,
    /// the header.
    fn new_allocator(
        table: &Arc<TierTable>,
        device: &dyn Device,
        geo: Geometry,
    ) -> ExtentAllocator {
        let page_capacity = device.capacity() / geo.page_size() as u64;
        ExtentAllocator::new(table.clone(), Pid::new(1), page_capacity)
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

    /// Steps 4 and 5 of a checkpoint: write and sync the header naming the
    /// free map in `extent` (`len` bytes) — the checkpoint's commit point —
    /// then truncate the log to the epoch it names. Transient faults are
    /// retried: the write is idempotent, and after a failed sync the device
    /// may not have it (the truncate retries its own header write). From
    /// the header on, the checkpoint finishes or stops the store: the
    /// header may name the next log epoch, so nothing may be logged into
    /// this one any more.
    fn commit_header(&self, extent: ExtentSpec, len: u64) -> Result<()> {
        let header = Header {
            page_size: self.geo.page_size(),
            tier_policy: self.table.policy(),
            catalog_root: self.catalog_tree.root(),
            node_pages: self.catalog_tree.node_pages(),
            xcommit_watermark: self.xcommit_watermark.load(Ordering::SeqCst),
            xcommit_above: Vec::new(),
            map: MapRef {
                extent,
                len,
                log_epoch: self.wal.current_epoch() + 1,
            },
        };
        let (res, stats) = RetryPolicy::DEFAULT.run(|| {
            header.write(&*self.device)?;
            self.device.sync()
        });
        self.metrics.bump_io_retry(stats.retries, stats.gave_up);
        let res = res.and_then(|()| self.wal.checkpoint_truncate());
        res.inspect_err(|e| self.committer.frontier().record_error(e, &self.metrics))
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
        let node_pages = self.catalog_tree.node_pages();
        self.create_relation_with(name, kind, Arc::new(LexCmp), node_pages)
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
        // A stopped database logs nothing, DDL included.
        self.committer.frontier().sticky_error()?;
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
        // On the medium, not in a write cache, before the log names it.
        self.device.sync()?;
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

    /// Drop a relation: the catalog entry is removed and the name becomes
    /// reusable; every BLOB's extents and the relation's own B-Tree nodes
    /// return to the free lists at the next checkpoint. DDL auto-commits
    /// (durable when this returns). Like `DROP TABLE`, the caller must
    /// ensure no transaction is concurrently operating on the relation.
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
        let (mut tree_extents, mut blob_extents) = (Vec::new(), Vec::new());
        let blob = rel.kind == RelationKind::Blob;
        self.tree_extents(&rel.tree, blob, &mut tree_extents, &mut blob_extents)?;

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

        // Evict cached pages; the storage is recycled once a checkpoint
        // has made the drop part of its state.
        self.blob_pool.drop_extents(&blob_extents);
        for &spec in &tree_extents {
            self.node_pool.drop_extent(spec);
        }
        self.retiring
            .lock()
            .extend(blob_extents.into_iter().chain(tree_extents));
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
    ///
    /// It describes committed state only: it waits until no transaction has
    /// staged writes, and new ones wait at their first write until it is
    /// done. Called on a thread that holds an open write transaction of
    /// this database, it fails with [`Error::Unsupported`] instead.
    ///
    /// A failure before the header write leaves the database running on
    /// its log. One from the header write on stops it: every later commit
    /// and checkpoint returns the error, and the next open finishes the
    /// checkpoint.
    pub fn checkpoint(&self) -> Result<()> {
        let _writers = self.writers.close()?;
        // Asynchronously committed work must be durable before truncation.
        self.committer.drain()?;
        // The commit thread holds the gate from a group's log to its
        // retire: once the checkpoint holds it, no group is in flight.
        let _gate = self.ckpt_gate.write();
        self.checkpoint_locked()
    }

    /// The gate-held body of [`Database::checkpoint`]; recovery reuses it
    /// so mid-recovery crashes are covered by the same image journal, and
    /// `create` so that every store starts with a free map.
    pub(crate) fn checkpoint_locked(&self) -> Result<()> {
        let retiring = self.retiring.lock().clone();
        let (extent, bytes) = self.encode_free_map(&retiring)?;
        // Steps 1 and 2, then the barrier: the in-place writes and the map
        // are on the medium before the header names them.
        let written = (self.write_in_place(extent, &bytes))
            .and_then(|()| self.device.sync())
            .and_then(|()| self.commit_header(extent, bytes.len() as u64));
        if let Err(e) = written {
            // The log may hold the map's image and a header may name it: its
            // pages retire like an old map's, free only after a truncate.
            self.retiring.lock().push(extent);
            return Err(e);
        }
        // The retired pages are free in the new map, and no header names
        // them any more: only now may an allocation reuse them.
        for spec in std::mem::replace(&mut *self.retiring.lock(), vec![extent]) {
            self.alloc.free_extent(spec);
        }
        Ok(())
    }

    /// Steps 1 and 2 of a checkpoint, up to the header.
    fn write_in_place(&self, map: ExtentSpec, bytes: &[u8]) -> Result<()> {
        let mut bytes = bytes.to_vec();
        bytes.resize(self.geo.bytes_for(map.pages) as usize, 0);
        // 1. Journal images of the dirty node pages and of the free map
        // (torn-write armor).
        let mut images: Vec<LogRecord> = Vec::new();
        self.node_pool.collect_dirty(|spec, data| {
            images.push(LogRecord::PageImage {
                pid: spec.start.raw(),
                data: data.to_vec(),
            });
            Ok(())
        })?;
        images.push(LogRecord::PageImage {
            pid: map.start.raw(),
            data: bytes.clone(),
        });
        self.wal.append_and_commit(&images)?;
        // 2. In-place writes.
        self.blob_pool.flush_all_dirty()?;
        self.node_pool.flush_all_dirty()?;
        self.device.write_at(&bytes, self.geo.offset_of(map.start))
    }

    /// Allocate the extent of a new free map and encode the allocator's
    /// free runs into it: the map counts its own extent as used, and the
    /// `retiring` and parked ones as free.
    fn encode_free_map(&self, retiring: &[ExtentSpec]) -> Result<(ExtentSpec, Vec<u8>)> {
        let mut pages = 1;
        loop {
            let extent = self.alloc.allocate_tail(pages)?;
            let mut runs = self.alloc.free_extents();
            runs.extend_from_slice(retiring);
            runs.extend(self.alloc.parked_extents());
            let bytes = encode_map(&lobster_extent::union(runs));
            let need = self.geo.pages_for(bytes.len() as u64);
            if need <= pages {
                return Ok((extent, bytes));
            }
            // Taking a larger extent can split one more run.
            self.alloc.free_extent(extent);
            pages = need + 1;
        }
    }

    /// Checkpoint once the log has outgrown its threshold — later, if this
    /// thread still holds a write transaction.
    pub(crate) fn maybe_checkpoint(&self) -> Result<()> {
        if self.wal.active_bytes() > self.cfg.checkpoint_threshold && !self.writers.is_inside() {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Flush everything and checkpoint (clean shutdown).
    pub fn shutdown(&self) -> Result<()> {
        self.checkpoint()
    }

    /// Block until every asynchronously committed transaction is durable
    /// (WAL records fsynced *and* content synced). Surfaces the
    /// committer's sticky error: `Err` means at least one acknowledged
    /// asynchronous commit may have been lost to an I/O failure.
    pub fn wait_for_durability(&self) -> Result<()> {
        self.committer.drain()
    }

    /// Check the allocator against a walk of every tree: the free runs it
    /// holds against those implied by every node, every Blob State and
    /// the checkpoint's free map. The ground truth tests compare recovery
    /// with; an open walks only a store whose header names no usable map.
    /// Call it at rest: an allocation or a free while it runs shows as a
    /// difference.
    pub fn audit_allocator(&self) -> Result<AllocatorAudit> {
        let _gate = self.ckpt_gate.read();
        let (mut used, nodes, batches) = self.referenced_extents()?;
        let retiring = self.retiring.lock().clone();
        used.extend_from_slice(&retiring);
        let walked = Self::new_allocator(&self.table, &*self.device, self.geo);
        walked.reset_from_extents(&used);
        Ok(AllocatorAudit {
            walked: walked.free_extents(),
            held: self.alloc.free_extents(),
            parked: self.alloc.parked_extents(),
            retiring,
            nodes,
            batches,
        })
    }

    /// Extents referenced by every relation tree and every Blob State —
    /// the ground truth for allocator rebuilds — with the number of index
    /// nodes among them and the read batches the walks issued.
    pub(crate) fn referenced_extents(&self) -> Result<(Vec<ExtentSpec>, u64, u64)> {
        let (mut used, mut content, mut batches) = (Vec::new(), Vec::new(), 0);
        let relations = self.registry.read().all();
        let trees = relations
            .iter()
            .map(|rel| (&rel.tree, rel.kind == RelationKind::Blob));
        for (tree, blob) in [(&self.catalog_tree, false)].into_iter().chain(trees) {
            batches += self.tree_extents(tree, blob, &mut used, &mut content)?;
        }
        let nodes = used.len() as u64;
        used.append(&mut content);
        Ok((used, nodes, batches))
    }

    /// Walk `tree` once ([`BTree::walk`]): the extent of every node goes to
    /// `nodes` and, for a BLOB relation, the extents of every Blob State in
    /// its leaves to `content`. Returns the walk's read batches.
    pub(crate) fn tree_extents(
        &self,
        tree: &BTree,
        blob: bool,
        nodes: &mut Vec<ExtentSpec>,
        content: &mut Vec<ExtentSpec>,
    ) -> Result<u64> {
        tree.walk(|spec, node, _| {
            nodes.push(spec);
            if blob && Node::is_leaf(node) {
                for i in 0..Node::count(node) {
                    let state = crate::BlobState::decode(Node::value(node, i))?;
                    content.extend(state.extent_specs(&self.table));
                }
            }
            Ok(())
        })
    }
}

/// The largest transaction id a record of `log` carries, 0 if none does.
fn last_txn(log: &LogScan) -> u64 {
    log.records
        .iter()
        .filter_map(LogRecord::txn)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobster_storage::MemDevice;

    /// A new store is created in one format, but `open` takes its format
    /// from the header: a header naming `PowerOfTwo`, written onto an empty
    /// store, reopens with that tier table, and a BLOB put under it reads
    /// back.
    #[test]
    fn open_follows_the_header() {
        let dev: Arc<dyn Device> = Arc::new(MemDevice::new(64 << 20));
        let wal: Arc<dyn Device> = Arc::new(MemDevice::new(16 << 20));
        let db = Database::create(dev.clone(), wal.clone(), Config::default()).unwrap();
        assert_eq!(db.tier_table().policy(), TierPolicy::default());
        drop(db);
        let mut header = Header::read(&*dev).unwrap();
        assert_eq!(
            (header.page_size, header.node_pages),
            (PAGE_SIZE, NODE_PAGES)
        );
        header.tier_policy = TierPolicy::PowerOfTwo;
        header.write(&*dev).unwrap();

        let (db, _) = Database::open(dev.clone(), wal, Config::default()).unwrap();
        assert_eq!(db.tier_table().policy(), TierPolicy::PowerOfTwo);
        let rel = db.create_relation("b", RelationKind::Blob).unwrap();
        let data: Vec<u8> = (0..100_000u32).map(|i| (i * 7 + i / 251) as u8).collect();
        let mut t = db.begin();
        t.put_blob(&rel, b"k", &data).unwrap();
        t.commit().unwrap();
        let mut t = db.begin();
        assert_eq!(t.get_blob(&rel, b"k", |b| b.to_vec()).unwrap(), data);
        t.commit().unwrap();
        // A checkpoint writes the format back as it found it.
        db.checkpoint().unwrap();
        let written = Header::read(&*dev).unwrap();
        assert_eq!(written.tier_policy, TierPolicy::PowerOfTwo);
        assert_eq!(
            (written.page_size, written.node_pages),
            (PAGE_SIZE, NODE_PAGES)
        );
    }

    /// A version-2 store — the same header block without a free map — is
    /// refused as unsupported, and the open writes nothing to it.
    #[test]
    fn a_version_2_store_is_refused() {
        let dev: Arc<dyn Device> = Arc::new(MemDevice::new(64 << 20));
        let wal: Arc<dyn Device> = Arc::new(MemDevice::new(16 << 20));
        let db = Database::create(dev.clone(), wal.clone(), Config::default()).unwrap();
        let rel = db.create_relation("b", RelationKind::Blob).unwrap();
        let mut t = db.begin();
        t.put_blob(&rel, b"k", &[7; 20_000]).unwrap();
        t.commit().unwrap();
        drop(db); // a crash: the put is in the log
        let mut block = Header::read(&*dev).unwrap().encode();
        block[4..8].copy_from_slice(&2u32.to_le_bytes());
        dev.write_at(&block, 0).unwrap();
        let log = Wal::scan(&wal).unwrap();

        let opened = Database::open(dev.clone(), wal.clone(), Config::default());
        assert!(matches!(opened, Err(Error::Unsupported(_))));
        let mut after = vec![0u8; block.len()];
        dev.read_at(&mut after, 0).unwrap();
        assert!(after == block, "the header changed");
        let after = Wal::scan(&wal).unwrap();
        assert_eq!((after.epoch, after.records), (log.epoch, log.records));
    }
}
