//! Sharded multi-core engine: hash-partitioned shard instances with a
//! cross-shard group-commit protocol.
//!
//! Each shard is a full [`Database`] — its own WAL stream, extent
//! allocator, buffer pool, and two-stage group committer — so shards share
//! *nothing* on the hot path and aggregate throughput scales with cores
//! (the in-process reproduction of the paper's §V-A distributed-WAL
//! discussion / LogBase-style partitioned logging). Keys are partitioned
//! by a stable hash; a transaction that only touches one shard commits
//! through the unmodified single-shard pipeline, so `N = 1` is the
//! zero-regression special case.
//!
//! # Cross-shard commit protocol
//!
//! A transaction touching several shards commits by appending a
//! [`LogRecord::TxnCrossCommit`] marker — `(local txn, global txn id,
//! shard index, participant bitmask)` — to *every* participant's WAL via
//! that shard's group committer. The global transaction is durable iff
//! every participant's stage-1 WAL fsync covers its marker's epoch.
//! Recovery pre-scans all shard logs before any shard recovers and
//! decides each global transaction: **committed** iff a marker survived in
//! every shard named by the mask (or a persisted watermark proves it once
//! had — see below); otherwise aborted. Each shard then recovers with the
//! decided set ([`CrossCommitPolicy::Decided`]), so all shards reach the
//! same all-or-nothing outcome.
//!
//! # Checkpoints and the watermark
//!
//! A shard checkpoint truncates its log — and with it, its markers. The
//! sharded layer therefore coordinates checkpoints: drain every shard's
//! committer (all submitted markers durable everywhere), advance the
//! contiguous *global durability frontier* over gtxn ids, persist that
//! frontier into every shard's header (`xcommit_watermark`) — durable
//! *before* any truncation — and only then checkpoint the shards. On the
//! next recovery, `gtxn <= watermark` is proof of global durability even
//! if some shards no longer hold the marker. Committed gtxns above the
//! watermark (possible only when an I/O-failed gtxn blocks the frontier)
//! are persisted as an explicit list next to the watermark before any
//! shard's recovery truncates evidence, closing the double-crash window.

use crate::catalog::{Relation, RelationKind};
use crate::db::{Config, CrossCommitPolicy, Database};
use crate::group_commit::Progress;
use crate::header::{Header, XCOMMIT_ABOVE_CAP};
use crate::recovery::RecoveryReport;
use crate::txn::Txn;
use crate::BlobState;
use lobster_metrics::{new_metrics, Metrics};
use lobster_storage::Device;
use lobster_sync::Arc;
use lobster_sync::Mutex;
use lobster_types::{Error, Result};
use lobster_wal::{LogRecord, Wal};
use std::collections::{BTreeSet, HashMap, HashSet};

/// The participant bitmask is a `u64`.
pub const MAX_SHARDS: usize = 64;

/// The pair of devices one shard owns.
pub struct ShardDevices {
    pub data: Arc<dyn Device>,
    pub wal: Arc<dyn Device>,
}

/// Global-transaction bookkeeping: ids and the contiguous durability
/// frontier (`durable` = every gtxn `<= durable` is globally durable).
/// A gtxn is *pending* from allocation until all participants' batches
/// were submitted, *submitted* until its durability is confirmed (by
/// per-epoch waits under `commit_wait`, or by a drain of every shard),
/// and *done* after. Failed submissions stay pending forever and block
/// the frontier — their shard's committer error is sticky, so no later
/// checkpoint can truncate evidence against them either.
struct XState {
    next: u64,
    durable: u64,
    done: BTreeSet<u64>,
    submitted: BTreeSet<u64>,
    pending: BTreeSet<u64>,
}

impl XState {
    fn new(durable: u64) -> Self {
        XState {
            next: durable + 1,
            durable,
            done: BTreeSet::new(),
            submitted: BTreeSet::new(),
            pending: BTreeSet::new(),
        }
    }

    fn allocate(&mut self) -> u64 {
        let g = self.next;
        self.next += 1;
        self.pending.insert(g);
        g
    }

    fn mark_submitted(&mut self, g: u64) {
        if self.pending.remove(&g) {
            self.submitted.insert(g);
        }
    }

    fn complete(&mut self, g: u64) {
        self.submitted.remove(&g);
        self.pending.remove(&g);
        self.done.insert(g);
        self.advance();
    }

    /// Every shard's committer just drained cleanly: everything submitted
    /// is durable everywhere.
    fn complete_drained(&mut self) {
        let all: Vec<u64> = self.submitted.iter().copied().collect();
        for g in all {
            self.submitted.remove(&g);
            self.done.insert(g);
        }
        self.advance();
    }

    fn advance(&mut self) {
        while self.done.remove(&(self.durable + 1)) {
            self.durable += 1;
        }
    }

    fn watermark(&self) -> u64 {
        self.durable
    }
}

/// The cross-shard durability decision: a global transaction is durable —
/// and joins the contiguous frontier — once *every* participant's
/// durable-epoch frontier covers the epoch its marker was submitted in.
fn complete_when_durable<'a>(
    xstate: &Mutex<XState>,
    gtxn: u64,
    participants: impl IntoIterator<Item = (&'a Progress, u64)>,
) -> Result<()> {
    for (frontier, epoch) in participants {
        frontier.wait_for(epoch)?;
    }
    xstate.lock().complete(gtxn);
    Ok(())
}

/// Stable 64-bit FNV-1a over the key bytes: shard placement must not
/// change across restarts.
fn hash_key(key: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A relation that exists (under the same name) on every shard.
#[derive(Clone)]
pub struct ShardedRelation {
    name: String,
    kind: RelationKind,
    per_shard: Vec<Arc<Relation>>,
}

impl ShardedRelation {
    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn kind(&self) -> RelationKind {
        self.kind
    }

    /// The shard-local relation handle.
    pub fn on(&self, shard: usize) -> &Arc<Relation> {
        &self.per_shard[shard]
    }
}

/// N independent shard engines behind one façade.
pub struct ShardedDatabase {
    shards: Vec<Arc<Database>>,
    cfg: Config,
    xstate: Mutex<XState>,
    /// Serializes coordinated checkpoints (drain → watermark → truncate).
    ckpt_lock: Mutex<()>,
}

impl ShardedDatabase {
    /// Create a fresh sharded database, one shard per device pair.
    pub fn create(parts: Vec<ShardDevices>, cfg: Config) -> Result<Arc<Self>> {
        Self::check_shard_count(parts.len())?;
        let shard_cfg = Self::shard_config(&cfg);
        let mut shards = Vec::with_capacity(parts.len());
        for p in parts {
            shards.push(Database::create(p.data, p.wal, shard_cfg.clone())?);
        }
        Ok(Self::over(shards, cfg, 0))
    }

    /// `durable`: every gtxn `<=` it is decided and applied.
    fn over(shards: Vec<Arc<Database>>, cfg: Config, durable: u64) -> Arc<Self> {
        Arc::new(ShardedDatabase {
            shards,
            cfg,
            xstate: Mutex::new(XState::new(durable)),
            ckpt_lock: Mutex::new(()),
        })
    }

    /// Open an existing sharded database, running the cross-shard commit
    /// decision pre-scan and then per-shard crash recovery. The pre-scan and
    /// the persisted decision are serial; the shards then recover
    /// concurrently (shard 0 on the calling thread, each other shard on a
    /// thread of its own), every one validating its committed BLOBs
    /// straight from its data device (see `recovery`). Reports come
    /// back in shard order; on failure the first error in shard order is
    /// returned once every shard's recovery has finished.
    pub fn open(parts: Vec<ShardDevices>, cfg: Config) -> Result<(Arc<Self>, Vec<RecoveryReport>)> {
        Self::check_shard_count(parts.len())?;

        // ---- pre-scan: headers + logs of every shard, before anything
        // recovers (and truncates evidence).
        let mut max_watermark = 0u64;
        let mut listed: HashSet<u64> = HashSet::new();
        let mut observed: HashMap<u64, (u64, u64)> = HashMap::new(); // gtxn -> (mask, seen)
        let mut max_gtxn = 0u64;
        for (idx, p) in parts.iter().enumerate() {
            let header = Header::read(&*p.data)?;
            max_watermark = max_watermark.max(header.xcommit_watermark);
            max_gtxn = max_gtxn.max(header.xcommit_watermark);
            for g in header.xcommit_above {
                max_gtxn = max_gtxn.max(g);
                listed.insert(g);
            }
            for rec in Wal::scan_records(&p.wal)? {
                if let LogRecord::TxnCrossCommit { gtxn, mask, .. } = rec {
                    max_gtxn = max_gtxn.max(gtxn);
                    let e = observed.entry(gtxn).or_insert((mask, 0));
                    e.0 |= mask;
                    e.1 |= 1u64 << idx;
                }
            }
        }

        // ---- decide every observed global transaction.
        let mut decided: HashSet<u64> = listed.clone();
        for (&g, &(mask, seen)) in &observed {
            if g <= max_watermark || seen & mask == mask {
                decided.insert(g);
            }
        }

        // ---- persist the decision before any shard recovers: the new
        // watermark covers the contiguous decided-committed prefix of
        // observed gtxns; committed gtxns above it ride the explicit list.
        // Durable on every shard first, so a crash *during* the per-shard
        // recoveries below re-derives exactly the same decisions.
        let mut new_watermark = max_watermark;
        let mut above: Vec<u64> = Vec::new();
        let mut observed_ids: Vec<u64> = observed.keys().copied().collect();
        observed_ids.sort_unstable();
        let mut blocked = false;
        for g in observed_ids {
            if g <= new_watermark {
                continue;
            }
            if !blocked && decided.contains(&g) {
                new_watermark = g;
            } else if decided.contains(&g) {
                above.push(g);
            } else {
                blocked = true;
            }
        }
        if above.len() > XCOMMIT_ABOVE_CAP {
            return Err(Error::Corruption(format!(
                "{} undecidable cross-shard commits exceed the header sidecar",
                above.len()
            )));
        }
        if new_watermark > max_watermark || !above.is_empty() {
            for p in &parts {
                persist_decision(&*p.data, new_watermark, &above)?;
            }
        }

        // ---- per-shard recovery under the decided set, concurrently: the
        // shards share nothing but the decision. The calling thread recovers
        // shard 0 instead of only waiting; every other shard gets a scoped
        // thread. All are joined before the first error (in shard order) is
        // returned, and the shards that did open are dropped with it.
        let decided = Arc::new(decided);
        let shard_cfg = Self::shard_config(&cfg);
        let open = |p: ShardDevices| {
            let policy = CrossCommitPolicy::Decided(decided.clone());
            Database::open_with_policy(p.data, p.wal, shard_cfg.clone(), HashMap::new(), policy)
        };
        let mut parts = parts.into_iter();
        let first = parts.next();
        let opened: Vec<_> = std::thread::scope(|s| {
            let threads: Vec<_> = parts.map(|p| s.spawn(move || open(p))).collect();
            let mut opened: Vec<_> = first.map(open).into_iter().collect();
            opened.extend(threads.into_iter().map(|t| {
                t.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            }));
            opened
        });
        let (shards, reports) = opened
            .into_iter()
            .collect::<Result<Vec<_>>>()?
            .into_iter()
            .unzip();

        // After every shard recovered, all logs were truncated: no marker
        // survives anywhere, every decision is final and fully applied, so
        // the frontier resumes above everything ever observed.
        Ok((Self::over(shards, cfg, max_gtxn), reports))
    }

    fn check_shard_count(n: usize) -> Result<()> {
        if n == 0 || n > MAX_SHARDS {
            return Err(Error::InvalidArgument(format!(
                "shard count {n} not in 1..={MAX_SHARDS}"
            )));
        }
        Ok(())
    }

    /// Per-shard config: automatic checkpoints are disabled (threshold
    /// `u64::MAX`) because truncation must be coordinated — the sharded
    /// layer applies the user's threshold in [`Self::maybe_checkpoint`].
    fn shard_config(cfg: &Config) -> Config {
        let mut c = cfg.clone();
        c.checkpoint_threshold = u64::MAX;
        c
    }

    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    pub fn shards(&self) -> &[Arc<Database>] {
        &self.shards
    }

    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// The owning shard of a key: stable hash, independent of relation,
    /// worker, and restart.
    pub fn shard_for_key(&self, key: &[u8]) -> usize {
        (hash_key(key) % self.shards.len() as u64) as usize
    }

    /// Merged metrics across every shard (satellite: a true global view,
    /// not shard 0's). Counter values and histogram buckets are summed
    /// losslessly into a fresh instance.
    pub fn metrics(&self) -> Metrics {
        let merged = new_metrics();
        for s in &self.shards {
            merged.merge_from(s.metrics());
        }
        merged
    }

    // ------------------------------------------------------------- DDL ---

    /// Create a relation on every shard (auto-committing per shard, like
    /// single-shard DDL).
    pub fn create_relation(&self, name: &str, kind: RelationKind) -> Result<ShardedRelation> {
        let mut per_shard = Vec::with_capacity(self.shards.len());
        for s in &self.shards {
            per_shard.push(s.create_relation(name, kind)?);
        }
        Ok(ShardedRelation {
            name: name.to_string(),
            kind,
            per_shard,
        })
    }

    /// Look up a relation; present only if every shard has it (a crash
    /// between per-shard DDL commits can leave a partial relation — rerun
    /// [`Self::create_relation`] after dropping the stragglers).
    pub fn relation(&self, name: &str) -> Option<ShardedRelation> {
        let mut per_shard = Vec::with_capacity(self.shards.len());
        for s in &self.shards {
            per_shard.push(s.relation(name)?);
        }
        Some(ShardedRelation {
            name: name.to_string(),
            kind: per_shard[0].kind,
            per_shard,
        })
    }

    pub fn drop_relation(&self, name: &str) -> Result<()> {
        for s in &self.shards {
            s.drop_relation(name)?;
        }
        Ok(())
    }

    // ---------------------------------------------------- transactions ---

    /// Begin a transaction on worker 0.
    pub fn begin(self: &Arc<Self>) -> ShardedTxn {
        self.begin_with_worker(0)
    }

    /// Begin a transaction bound to `worker`: the id is routed to every
    /// per-shard transaction (selecting that shard's worker-local aliasing
    /// area) — see the affinity contract on
    /// [`Database::begin_with_worker`].
    pub fn begin_with_worker(self: &Arc<Self>, worker: usize) -> ShardedTxn {
        ShardedTxn {
            sdb: self.clone(),
            worker,
            txns: (0..self.shards.len()).map(|_| None).collect(),
        }
    }

    /// The home shard of a worker id (`worker % num_shards`).
    pub fn home_shard(&self, worker: usize) -> usize {
        worker % self.shards.len()
    }

    // ------------------------------------------- durability/checkpoint ---

    /// Block until every shard's asynchronously committed work is durable,
    /// then advance the global durability frontier over it.
    pub fn wait_for_durability(&self) -> Result<()> {
        for s in &self.shards {
            s.wait_for_durability()?;
        }
        self.xstate.lock().complete_drained();
        Ok(())
    }

    /// Coordinated checkpoint: drain every shard (all submitted
    /// cross-commit markers durable everywhere), advance and persist the
    /// global watermark into every shard's header, *then* truncate the
    /// shard logs. Header-before-truncate ordering inside each shard's
    /// checkpoint guarantees the durable proof always precedes the loss
    /// of the markers it replaces.
    pub fn checkpoint(&self) -> Result<()> {
        let _c = self.ckpt_lock.lock();
        for s in &self.shards {
            s.wait_for_durability()?;
        }
        let w = {
            let mut x = self.xstate.lock();
            x.complete_drained();
            x.watermark()
        };
        for s in &self.shards {
            s.set_cross_commit_watermark(w);
        }
        for s in &self.shards {
            s.checkpoint()?;
        }
        Ok(())
    }

    /// Checkpoint when any shard's active log exceeds the configured
    /// threshold (per-shard auto-checkpoints are disabled; see
    /// `shard_config`).
    pub fn maybe_checkpoint(&self) -> Result<()> {
        let over = self
            .shards
            .iter()
            .any(|s| s.wal().active_bytes() > self.cfg.checkpoint_threshold);
        if over {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Flush everything and checkpoint (clean shutdown).
    pub fn shutdown(&self) -> Result<()> {
        self.checkpoint()
    }
}

/// A transaction over the sharded engine: per-shard [`Txn`]s are begun
/// lazily as keys route to their shards. Dropping without commit rolls
/// every slice back.
pub struct ShardedTxn {
    sdb: Arc<ShardedDatabase>,
    worker: usize,
    txns: Vec<Option<Txn>>,
}

impl ShardedTxn {
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// The worker's home shard (placement for un-keyed work).
    pub fn home_shard(&self) -> usize {
        self.sdb.home_shard(self.worker)
    }

    fn txn_for(&mut self, shard: usize) -> &mut Txn {
        if self.txns[shard].is_none() {
            let worker = self.worker % self.sdb.cfg.workers.max(1);
            self.txns[shard] = Some(self.sdb.shards[shard].begin_with_worker(worker));
        }
        self.txns[shard].as_mut().expect("just inserted")
    }

    fn route(&self, key: &[u8]) -> usize {
        self.sdb.shard_for_key(key)
    }

    // ------------------------------------------------------ operations ---

    pub fn put_blob(&mut self, rel: &ShardedRelation, key: &[u8], data: &[u8]) -> Result<()> {
        let s = self.route(key);
        self.txn_for(s).put_blob(rel.on(s), key, data)
    }

    pub fn get_blob<R>(
        &mut self,
        rel: &ShardedRelation,
        key: &[u8],
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R> {
        let s = self.route(key);
        self.txn_for(s).get_blob(rel.on(s), key, f)
    }

    pub fn get_blob_range(
        &mut self,
        rel: &ShardedRelation,
        key: &[u8],
        offset: u64,
        buf: &mut [u8],
    ) -> Result<usize> {
        let s = self.route(key);
        self.txn_for(s).get_blob_range(rel.on(s), key, offset, buf)
    }

    /// Stream a range to `sink` in `chunk`-sized pieces under streaming
    /// leases (the serving path). See [`crate::Txn::stream_blob_range`].
    #[allow(clippy::too_many_arguments)]
    pub fn stream_blob_range(
        &mut self,
        rel: &ShardedRelation,
        key: &[u8],
        offset: u64,
        len: u64,
        chunk: usize,
        gate: Option<(&lobster_buffer::PinGate, std::time::Duration)>,
        sink: &mut dyn FnMut(u64, &[u8]) -> Result<()>,
    ) -> Result<u64> {
        let s = self.route(key);
        self.txn_for(s)
            .stream_blob_range(rel.on(s), key, offset, len, chunk, gate, sink)
    }

    pub fn append_blob(&mut self, rel: &ShardedRelation, key: &[u8], data: &[u8]) -> Result<()> {
        let s = self.route(key);
        self.txn_for(s).append_blob(rel.on(s), key, data)
    }

    pub fn update_blob(
        &mut self,
        rel: &ShardedRelation,
        key: &[u8],
        offset: u64,
        data: &[u8],
    ) -> Result<()> {
        let s = self.route(key);
        self.txn_for(s).update_blob(rel.on(s), key, offset, data)
    }

    pub fn delete_blob(&mut self, rel: &ShardedRelation, key: &[u8]) -> Result<()> {
        let s = self.route(key);
        self.txn_for(s).delete_blob(rel.on(s), key)
    }

    pub fn blob_state(&mut self, rel: &ShardedRelation, key: &[u8]) -> Result<Option<BlobState>> {
        let s = self.route(key);
        self.txn_for(s).blob_state(rel.on(s), key)
    }

    pub fn put_kv(&mut self, rel: &ShardedRelation, key: &[u8], value: &[u8]) -> Result<()> {
        let s = self.route(key);
        self.txn_for(s).put_kv(rel.on(s), key, value)
    }

    pub fn get_kv(&mut self, rel: &ShardedRelation, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let s = self.route(key);
        self.txn_for(s).get_kv(rel.on(s), key)
    }

    pub fn delete_kv(&mut self, rel: &ShardedRelation, key: &[u8]) -> Result<bool> {
        let s = self.route(key);
        self.txn_for(s).delete_kv(rel.on(s), key)
    }

    // ---------------------------------------------------- commit/abort ---

    /// Commit every shard slice. A single writing participant uses the
    /// plain single-shard pipeline (the `N = 1` zero-regression path);
    /// multiple writers run the cross-shard marker protocol. Read-only
    /// slices just release their locks.
    pub fn commit(mut self) -> Result<()> {
        let mut writers: Vec<(usize, Txn)> = Vec::new();
        for (i, slot) in self.txns.iter_mut().enumerate() {
            if let Some(t) = slot.take() {
                if t.has_writes() {
                    writers.push((i, t));
                } else {
                    t.commit()?;
                }
            }
        }
        let sdb = self.sdb.clone();
        match writers.len() {
            0 => return Ok(()),
            1 => {
                let (_, t) = writers.pop().expect("one writer");
                t.commit()?;
            }
            _ => {
                let gtxn = {
                    let mut x = sdb.xstate.lock();
                    x.allocate()
                };
                let mask = writers.iter().fold(0u64, |m, (i, _)| m | (1u64 << *i));
                let mut epochs: Vec<(usize, u64)> = Vec::with_capacity(writers.len());
                for (i, t) in writers {
                    let epoch = t.commit_cross(gtxn, i as u32, mask)?;
                    epochs.push((i, epoch));
                }
                sdb.xstate.lock().mark_submitted(gtxn);
                if sdb.cfg.commit_wait {
                    let participants = (epochs.iter())
                        .map(|&(i, epoch)| (sdb.shards[i].committer.frontier(), epoch));
                    complete_when_durable(&sdb.xstate, gtxn, participants)?;
                }
            }
        }
        sdb.maybe_checkpoint()
    }

    /// Roll back every shard slice.
    pub fn abort(mut self) {
        for slot in self.txns.iter_mut() {
            if let Some(t) = slot.take() {
                t.abort();
            }
        }
    }
}

/// Persist the pre-scan decision into a shard's header, synced.
fn persist_decision(device: &dyn Device, watermark: u64, above: &[u64]) -> Result<()> {
    let mut header = Header::read(device)?;
    header.xcommit_watermark = watermark;
    header.xcommit_above = above.to_vec();
    header.write(device)?;
    device.sync()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobster_storage::MemDevice;

    fn mem_parts(n: usize) -> Vec<ShardDevices> {
        (0..n)
            .map(|_| ShardDevices {
                data: Arc::new(MemDevice::new(64 << 20)),
                wal: Arc::new(MemDevice::new(16 << 20)),
            })
            .collect()
    }

    /// Handles on the same devices, to reopen what a test is about to drop.
    fn same_devices(parts: &[ShardDevices]) -> Vec<ShardDevices> {
        let share = |p: &ShardDevices| ShardDevices {
            data: p.data.clone(),
            wal: p.wal.clone(),
        };
        parts.iter().map(share).collect()
    }

    fn cfg() -> Config {
        Config {
            pool_frames: 2048,
            ..Config::default()
        }
    }

    #[test]
    fn single_shard_roundtrip() {
        let sdb = ShardedDatabase::create(mem_parts(1), cfg()).unwrap();
        let rel = sdb.create_relation("b", RelationKind::Blob).unwrap();
        let mut t = sdb.begin();
        t.put_blob(&rel, b"k", &[7u8; 50_000]).unwrap();
        t.commit().unwrap();
        let mut t = sdb.begin();
        assert_eq!(t.get_blob(&rel, b"k", |b| b.len()).unwrap(), 50_000);
        t.commit().unwrap();
    }

    #[test]
    fn keys_spread_across_shards() {
        let sdb = ShardedDatabase::create(mem_parts(4), cfg()).unwrap();
        let rel = sdb.create_relation("b", RelationKind::Blob).unwrap();
        let mut t = sdb.begin();
        for i in 0..64u64 {
            let key = format!("user{i:012}");
            t.put_blob(&rel, key.as_bytes(), &[i as u8; 200]).unwrap();
        }
        t.commit().unwrap();
        // Every shard must own some keys (balanced hashing).
        let counts: Vec<u64> = sdb
            .shards()
            .iter()
            .map(|s| {
                let r = s.relation("b").unwrap();
                let mut n = 0;
                r.tree
                    .for_each(|_, _| {
                        n += 1;
                        true
                    })
                    .unwrap();
                n
            })
            .collect();
        assert_eq!(counts.iter().sum::<u64>(), 64);
        assert!(counts.iter().all(|&c| c > 0), "counts {counts:?}");
    }

    #[test]
    fn cross_shard_commit_survives_reopen() {
        let parts = mem_parts(4);
        let keep = same_devices(&parts);
        let sdb = ShardedDatabase::create(parts, cfg()).unwrap();
        let rel = sdb.create_relation("b", RelationKind::Blob).unwrap();
        let mut t = sdb.begin();
        for i in 0..16u64 {
            let key = format!("user{i:012}");
            t.put_blob(&rel, key.as_bytes(), &[i as u8 + 1; 10_000])
                .unwrap();
        }
        t.commit().unwrap();
        sdb.wait_for_durability().unwrap();
        drop(sdb); // no shutdown: recovery replays from the WALs

        let (sdb2, _reports) = ShardedDatabase::open(keep, cfg()).unwrap();
        let rel2 = sdb2.relation("b").unwrap();
        let mut t = sdb2.begin();
        for i in 0..16u64 {
            let key = format!("user{i:012}");
            let got = t.get_blob(&rel2, key.as_bytes(), |b| b.to_vec()).unwrap();
            assert_eq!(got, vec![i as u8 + 1; 10_000]);
        }
        t.commit().unwrap();
    }

    #[test]
    fn coordinated_checkpoint_preserves_cross_commits() {
        let parts = mem_parts(2);
        let keep = same_devices(&parts);
        let sdb = ShardedDatabase::create(parts, cfg()).unwrap();
        let rel = sdb.create_relation("b", RelationKind::Blob).unwrap();
        let mut t = sdb.begin();
        for i in 0..8u64 {
            let key = format!("user{i:012}");
            t.put_blob(&rel, key.as_bytes(), &[9u8; 5_000]).unwrap();
        }
        t.commit().unwrap();
        sdb.checkpoint().unwrap(); // truncates markers, persists watermark
        drop(sdb);

        let (sdb2, _) = ShardedDatabase::open(keep, cfg()).unwrap();
        let rel2 = sdb2.relation("b").unwrap();
        let mut t = sdb2.begin();
        for i in 0..8u64 {
            let key = format!("user{i:012}");
            assert_eq!(
                t.get_blob(&rel2, key.as_bytes(), |b| b.len()).unwrap(),
                5_000
            );
        }
        t.commit().unwrap();
    }

    #[test]
    fn merged_metrics_count_all_shards() {
        let sdb = ShardedDatabase::create(mem_parts(3), cfg()).unwrap();
        let rel = sdb.create_relation("b", RelationKind::Blob).unwrap();
        let mut t = sdb.begin();
        for i in 0..32u64 {
            let key = format!("user{i:012}");
            t.put_blob(&rel, key.as_bytes(), &[1u8; 100]).unwrap();
        }
        t.commit().unwrap();
        let merged = sdb.metrics().snapshot();
        let direct: u64 = sdb
            .shards()
            .iter()
            .map(|s| s.metrics().snapshot().txn_commits)
            .sum();
        assert_eq!(merged.txn_commits, direct);
        assert!(direct >= 1, "at least one shard slice committed");
        let shard0 = sdb.shards()[0].metrics().snapshot().txn_commits;
        assert!(
            merged.txn_commits >= shard0,
            "merged view must not be shard-0 only"
        );
    }

    #[test]
    fn frontier_is_contiguous() {
        let mut x = XState::new(0);
        let a = x.allocate();
        let b = x.allocate();
        let c = x.allocate();
        x.mark_submitted(a);
        x.mark_submitted(b);
        x.mark_submitted(c);
        x.complete(c);
        assert_eq!(x.watermark(), 0, "gap before c must hold the frontier");
        x.complete(a);
        assert_eq!(x.watermark(), 1);
        x.complete(b);
        assert_eq!(x.watermark(), 3);
    }

    #[test]
    fn pending_gtxn_blocks_drained_frontier() {
        let mut x = XState::new(0);
        let a = x.allocate();
        let b = x.allocate();
        x.mark_submitted(b); // `a` never finished submission (failed shard)
        x.complete_drained();
        assert_eq!(x.watermark(), 0, "pending a must block the frontier");
        x.mark_submitted(a);
        x.complete_drained();
        assert_eq!(x.watermark(), 2);
    }
}

#[cfg(test)]
mod model {
    //! The cross-shard durability decision over the real [`XState`] and two
    //! real [`Progress`] frontiers, through [`complete_when_durable`]. Each
    //! shard pipeline *persists* an epoch (the image a crash would recover
    //! from) before it *publishes* it on its frontier — the per-shard
    //! stage-1 contract. Epoch 1 on each shard carries an unrelated local
    //! commit; the cross-shard marker lands in epoch 2. Checked: when the
    //! global transaction is declared durable, a crash at that instant
    //! still finds the marker on every participant's disk. Each `broken_*`
    //! test hands the decision a wrong participant list and requires the
    //! checker to find the violation — under loom only.

    use super::*;
    use lobster_sync::atomic::{AtomicU64, Ordering};
    use lobster_sync::{model, model_catches, race, Actor};

    const MARKER_EPOCH: u64 = 2;

    struct World {
        xstate: Mutex<XState>,
        frontiers: [Progress; 2],
        persisted: [AtomicU64; 2],
    }

    /// `waits_on`: the `(shard, epoch)` pairs the coordinator waits for.
    fn run(waits_on: &'static [(usize, u64)]) {
        let pipeline = |shard: usize| -> Actor<World> {
            Box::new(move |w| {
                for epoch in 1..=MARKER_EPOCH {
                    w.persisted[shard].store(epoch, Ordering::Release);
                    w.frontiers[shard].complete_epochs(&[epoch]);
                }
            })
        };
        let coordinator: Actor<World> = Box::new(move |w| {
            let gtxn = w.xstate.lock().allocate();
            w.xstate.lock().mark_submitted(gtxn);
            let participants =
                (waits_on.iter()).map(|&(shard, epoch)| (&w.frontiers[shard], epoch));
            complete_when_durable(&w.xstate, gtxn, participants).expect("no error was recorded");
            for (shard, persisted) in w.persisted.iter().enumerate() {
                let image = persisted.load(Ordering::Acquire);
                assert!(
                    image >= MARKER_EPOCH,
                    "gtxn {gtxn} declared durable but shard {shard} only persisted epoch {image}"
                );
            }
        });
        let world = World {
            xstate: Mutex::new(XState::new(0)),
            frontiers: [Progress::new(), Progress::new()],
            persisted: Default::default(),
        };
        let w = race(world, vec![pipeline(0), pipeline(1), coordinator]);
        assert_eq!(w.xstate.lock().watermark(), 1);
    }

    #[test]
    fn durable_only_when_every_participant_covers_its_epoch() {
        model(|| run(&[(0, MARKER_EPOCH), (1, MARKER_EPOCH)]));
    }

    #[test]
    fn broken_one_shard_wait_is_caught() {
        let broken = || model(|| run(&[(0, MARKER_EPOCH)]));
        assert!(model_catches(broken, "shard 1 only persisted"));
    }

    #[test]
    fn broken_stale_epoch_is_caught() {
        // Every shard is consulted, but the first fsync alone satisfies it.
        let broken = || model(|| run(&[(0, MARKER_EPOCH - 1), (1, MARKER_EPOCH - 1)]));
        assert!(model_catches(broken, "only persisted epoch 1"));
    }
}
