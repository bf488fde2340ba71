//! A seeded, single-threaded simulation of the commit path, with power cuts
//! between its steps.
//!
//! One store on write-back data and log devices ([`CrashDevice::write_back`]:
//! a write reaches the medium only at the next sync). The driver runs a few
//! transactions — puts, in-place and cloning updates, appends, deletes —
//! through the four commit steps, called here one at a time on the test
//! thread. Clients stage in an order the seed picks, interleaved with the
//! commit thread's steps, which take one group at a time in log order:
//!
//! * **stage**: the verbs, then [`Txn::stage`], which seals the write set
//!   (`StageCtx::admit` hands out its epoch);
//! * **log**: with no group in progress, a prefix of the sealed sets
//!   becomes a group (`StageCtx::group`) and runs `StageCtx::log`;
//! * **write in place**: the logged group runs `StageCtx::write_in_place`;
//! * **retire**: the written group runs `StageCtx::retire`.
//!
//! A schedule cut with a set sealed and no group in progress ends in a
//! torn **log** step: the oldest sealed set's records reach the log
//! without its commit record, so the open rolls it back.
//!
//! Only the device's I/O workers run beside the driver. At a seeded step
//! boundary both devices lose power; the medium is reopened, and:
//!
//! * every key a retired (durable) transaction wrote reads back with that
//!   version's SHA-256, or with a version logged after it — in both commit
//!   modes: a group's content is synced before its epochs complete;
//! * every key resolves to a logged version, or to none, and its content
//!   matches the SHA-256 of its Blob State;
//! * an open whose log holds no in-place group after its last mark hashes
//!   nothing, unless it rolled back a torn group there: every other
//!   group's content was synced before its records, under its own mark;
//! * the log the open leaves names no transaction without its commit
//!   record: a rollback ends in a checkpoint;
//! * a second open finds the same state;
//! * the allocator equals the audit walk, and the latch ledger is clean.
//!
//! An open that undid nothing runs on from the log it replayed, without a
//! checkpoint. After such an open a second seeded session runs on the same
//! log and power fails again, before any checkpoint; the reopen must pass
//! the same checks, every key the first open read counting as acknowledged.
//!
//! Every seed runs once with `commit_wait` true and once false. A failing
//! seed names itself in the panic; add it to [`FIXED`].

use crate::group_commit::{DurableGroup, StageCtx};
use crate::txn::{Txn, WriteSet};
use crate::{Config, Database, Relation, RelationKind};
use lobster_sha256::Sha256;
use lobster_storage::{CrashDevice, Device, MemDevice};
use lobster_sync::Arc;
use lobster_wal::LogRecord;
use std::collections::{HashMap, HashSet};

/// Seeds that once failed, replayed on every run on top of the sweep.
const FIXED: &[u64] = &[];
/// Seeds of the tier-1 sweep; the nightly torture job multiplies them.
const SEEDS: u64 = 8;
const KEYS: u64 = 5;
const DATA_CAP: usize = 32 << 20;
const WAL_CAP: usize = 8 << 20;

fn cfg(commit_wait: bool) -> Config {
    Config {
        pool_frames: 2048,
        io_threads: 2,
        commit_wait,
        ..Config::default()
    }
}

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n.max(1)
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.below(256) as u8).collect()
    }

    /// `base` to `base + spread` seeded bytes.
    fn blob(&mut self, base: usize, spread: u64) -> Vec<u8> {
        let len = base + self.below(spread) as usize;
        self.bytes(len)
    }
}

fn sha(bytes: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(bytes);
    h.finalize()
}

/// One version of a key: what a transaction left it at (`None`: deleted).
struct Version {
    content: Option<Vec<u8>>,
    logged: bool,
    acked: bool,
}

/// Per key, every version staged, in stage (and so log) order.
type History = HashMap<Vec<u8>, Vec<Version>>;
/// A key and the index of one of its versions.
type At = (Vec<u8>, usize);

/// The store before the cut, and what the driver knows about it.
struct Sim {
    data: Arc<CrashDevice<MemDevice>>,
    wal: Arc<CrashDevice<MemDevice>>,
    db: Arc<Database>,
    rel: Arc<Relation>,
    ctx: StageCtx,
    /// Sealed write sets with their epochs, and the versions they stage.
    sealed: Vec<((u64, WriteSet), At)>,
    /// The group in progress, the versions it carries, and whether its
    /// in-place writes are done.
    group: Option<(DurableGroup, Vec<At>, bool)>,
    history: History,
    /// Transactions with content to write in place after their fsync.
    in_place: HashSet<u64>,
}

impl Sim {
    fn new(commit_wait: bool) -> Sim {
        let data = Arc::new(CrashDevice::write_back(MemDevice::new(DATA_CAP)));
        let wal = Arc::new(CrashDevice::write_back(MemDevice::new(WAL_CAP)));
        let db = Database::create(data.clone(), wal.clone(), cfg(commit_wait)).unwrap();
        let rel = db.create_relation("b", RelationKind::Blob).unwrap();
        Sim::on(data, wal, db, rel, HashMap::new(), HashSet::new())
    }

    /// A second session on what `media` holds, opened on write-back devices
    /// over copies of it, if that open undid nothing and so ran on from its
    /// log: every key then holds an acknowledged version. `in_place`: the
    /// in-place transactions of the sessions before.
    fn resume(
        commit_wait: bool,
        media: &Media,
        in_place: HashSet<u64>,
    ) -> Result<Option<Sim>, String> {
        let data = Arc::new(CrashDevice::write_back(medium(&media.0)));
        let wal = Arc::new(CrashDevice::write_back(medium(&media.1)));
        let (db, _) = Database::open(data.clone(), wal.clone(), cfg(commit_wait))
            .map_err(|e| e.to_string())?;
        if db.metrics().snapshot().checkpoints != 0 {
            return Ok(None);
        }
        let rel = db.relation("b").ok_or("the relation's creation was lost")?;
        let acked = |(key, (content, _))| {
            let v = Version {
                content: Some(content),
                logged: true,
                acked: true,
            };
            (key, vec![v])
        };
        let history = contents(&db)?.into_iter().map(acked).collect();
        Ok(Some(Sim::on(data, wal, db, rel, history, in_place)))
    }

    fn on(
        data: Arc<CrashDevice<MemDevice>>,
        wal: Arc<CrashDevice<MemDevice>>,
        db: Arc<Database>,
        rel: Arc<Relation>,
        history: History,
        in_place: HashSet<u64>,
    ) -> Sim {
        // The database's own committer stays idle: every commit below
        // runs through this context's steps instead. Its budget admits
        // everything, as no thread would free it for a blocked driver.
        let ctx = StageCtx::new(
            db.blob_pool.clone(),
            db.device.clone(),
            db.alloc.clone(),
            db.metrics.clone(),
            db.geo.page_size() as u64,
            u64::MAX,
        );
        Sim {
            data,
            wal,
            db,
            rel,
            ctx,
            sealed: Vec::new(),
            group: None,
            history,
            in_place,
        }
    }

    fn current(&self, key: &[u8]) -> Option<&Vec<u8>> {
        let last = self.history.get(key)?.last()?;
        last.content.as_ref()
    }

    /// A key no other transaction holds: under `commit_wait` a committer
    /// keeps its locks until its group retires. (Its early writes hold
    /// their extents latched until its group is logged, which here is
    /// this thread: a verb would wait on them for good.)
    fn free_key(&self, rng: &mut Rng) -> Option<Vec<u8>> {
        let start = rng.below(KEYS);
        let keys = (0..KEYS).map(|i| format!("k{}", (start + i) % KEYS).into_bytes());
        let held = |key: &Vec<u8>| {
            let mut versions = self.history.get(key).into_iter().flatten();
            self.db.cfg.commit_wait && versions.any(|v| !v.acked)
        };
        keys.into_iter().find(|key| !held(key))
    }

    /// **stage**: `ops` as one transaction, which returns what it leaves
    /// at `key`; its write set sealed and admitted.
    fn stage(&mut self, key: Vec<u8>, ops: impl FnOnce(&mut Txn, &Relation) -> Option<Vec<u8>>) {
        let mut t = self.db.begin();
        let content = ops(&mut t, &self.rel);
        let ws = t.stage(LogRecord::TxnCommit { txn: t.id() });
        if !ws.toflush.is_empty() {
            self.in_place.insert(t.id());
        }
        let epoch = self.ctx.admit(&ws);
        t.finish();
        let versions = self.history.entry(key.clone()).or_default();
        versions.push(Version {
            content,
            logged: false,
            acked: false,
        });
        self.sealed.push(((epoch, ws), (key, versions.len() - 1)));
    }

    /// The next group: the oldest `n` sealed sets, as the commit thread
    /// takes what is queued.
    fn group(&mut self, n: usize) -> (DurableGroup, Vec<At>) {
        let (sets, versions) = self.sealed.drain(..n).unzip();
        (self.ctx.group(sets), versions)
    }

    /// **log**: the next group's records become durable.
    fn log(&mut self, n: usize) {
        assert!(self.group.is_none(), "one group at a time");
        let (mut group, versions) = self.group(n);
        self.ctx.log(&self.db.wal, &mut group).unwrap();
        for (key, i) in &versions {
            self.history.get_mut(key).unwrap()[*i].logged = true;
        }
        self.group = Some((group, versions, false));
    }

    /// **write in place**: the logged group's in-place writes land.
    fn write(&mut self) {
        let (group, _, written) = self.group.as_mut().unwrap();
        assert!(!*written, "written twice");
        self.ctx.write_in_place(group).unwrap();
        *written = true;
    }

    /// **retire**: the written group retires.
    fn retire(&mut self) {
        let (group, versions, written) = self.group.take().unwrap();
        assert!(written, "retired before its in-place writes");
        self.ctx.retire(group, Ok(()));
        for (key, i) in versions {
            self.history.get_mut(&key).unwrap()[i].acked = true;
        }
    }

    /// A torn **log** step: the oldest sealed set's records reach the log
    /// without its commit record, the last frame of its write.
    fn log_torn(&mut self) {
        let ((_, ws), _) = self.sealed.remove(0);
        let (commit, records) = ws.records.split_last().unwrap();
        assert!(matches!(commit, LogRecord::TxnCommit { .. }));
        self.db.wal.append_and_commit(records).unwrap();
    }

    /// The commit thread's next step: log, write in place or retire.
    fn commit_step(&mut self, rng: &mut Rng) {
        match &self.group {
            None => self.log(1 + rng.below(self.sealed.len() as u64) as usize),
            Some((_, _, false)) => self.write(),
            Some((_, _, true)) => self.retire(),
        }
    }

    /// Every sealed set through log, write in place and retire.
    fn commit_in_order(&mut self) {
        self.log(self.sealed.len());
        self.write();
        self.retire();
    }

    /// The seeded schedule of `txns` transactions, up to step `cut_at` or
    /// to its end; with a set sealed and no group in progress, it ends in a
    /// torn log step.
    fn run(&mut self, rng: &mut Rng, txns: u64, cut_at: u64) {
        let mut staged = 0;
        for _ in 0..cut_at {
            let can_stage = staged < txns;
            let can_commit = self.group.is_some() || !self.sealed.is_empty();
            let stage = match (can_stage, can_commit) {
                (false, false) => return,
                (true, true) => rng.below(2) == 0,
                (stage, _) => stage,
            };
            if !stage {
                self.commit_step(rng);
                continue;
            }
            match self.free_key(rng) {
                Some(key) => {
                    let cur = self.current(&key).cloned();
                    self.stage(key.clone(), |t, rel| verbs(t, rel, &key, cur, rng));
                    staged += 1;
                }
                // Every key is held by an unretired commit.
                None => self.commit_step(rng),
            }
        }
        // With a set sealed and no group in progress, the commit thread's
        // next step is a log step: the cut tears it.
        if self.group.is_none() && !self.sealed.is_empty() {
            self.log_torn();
        }
    }

    /// The power cut: both devices lose what no sync covered. Returns a
    /// copy of what reached each medium, and the oracle.
    fn cut(self) -> (Media, Oracle) {
        self.wal.crash_now();
        self.data.crash_now();
        let Sim {
            data,
            wal,
            history,
            in_place,
            ..
        } = self;
        let media = (
            Arc::new(medium(data.inner())),
            Arc::new(medium(wal.inner())),
        );
        (media, Oracle { history, in_place })
    }
}

/// A seeded verb on `key`, whose content is `cur`; returns what it leaves
/// there.
fn verbs(
    t: &mut Txn,
    rel: &Relation,
    key: &[u8],
    cur: Option<Vec<u8>>,
    rng: &mut Rng,
) -> Option<Vec<u8>> {
    let Some(mut v) = cur else {
        let v = rng.blob(4096, 160 << 10);
        t.put_blob(rel, key, &v).unwrap();
        return Some(v);
    };
    match rng.below(6) {
        0 => {
            t.delete_blob(rel, key).unwrap();
            return None;
        }
        // In place: a delta small enough to log.
        1 | 2 => {
            let len = 1 + rng.below(64) as usize;
            let at = rng.below((v.len() - len) as u64 + 1) as usize;
            let patch = rng.bytes(len);
            t.update_blob(rel, key, at as u64, &patch).unwrap();
            v[at..at + len].copy_from_slice(&patch);
        }
        // Most of an extent: cloned.
        3 => {
            let patch = rng.bytes(v.len() / 2 + 1);
            t.update_blob(rel, key, 0, &patch).unwrap();
            v[..patch.len()].copy_from_slice(&patch);
        }
        4 if v.len() < 512 << 10 => {
            let more = rng.blob(1, 64 << 10);
            t.append_blob(rel, key, &more).unwrap();
            v.extend_from_slice(&more);
        }
        _ => {
            v = rng.blob(4096, 160 << 10);
            t.delete_blob(rel, key).unwrap();
            t.put_blob(rel, key, &v).unwrap();
        }
    }
    Some(v)
}

/// What reached the data and the log device.
type Media = (Arc<MemDevice>, Arc<MemDevice>);

/// What the driver knows of the store it cut.
struct Oracle {
    history: History,
    in_place: HashSet<u64>,
}

/// Whether recovery may hash: a commit of an in-place transaction follows
/// the last mark of `records` (its content was written after its records,
/// and what the group's mark would have covered is hashed with it), or, in
/// an open that `rolled_back` a transaction, a record of one that never
/// committed does (a torn group: the keys it touches are validated,
/// whatever became of it).
fn may_hash(records: &[LogRecord], in_place: &HashSet<u64>, rolled_back: bool) -> bool {
    let mut commit_at = HashMap::new();
    let mut mark = None;
    for (i, rec) in records.iter().enumerate() {
        match rec {
            LogRecord::TxnCommit { txn } => drop(commit_at.insert(*txn, i)),
            LogRecord::DataDurable { txn } => mark = mark.max(commit_at.get(txn).copied()),
            _ => {}
        }
    }
    let mut after = records.iter().skip(mark.map_or(0, |at| at + 1));
    after.any(|rec| match rec {
        LogRecord::TxnCommit { txn } => in_place.contains(txn),
        rec => rolled_back && rec.txn().is_some_and(|txn| !commit_at.contains_key(&txn)),
    })
}

/// Whether `records` name a transaction without its commit record.
fn holds_a_loser(records: &[LogRecord]) -> bool {
    let commits = records.iter().filter_map(|rec| match rec {
        LogRecord::TxnCommit { txn } => Some(*txn),
        _ => None,
    });
    let committed: HashSet<u64> = commits.collect();
    (records.iter().filter_map(LogRecord::txn)).any(|txn| !committed.contains(&txn))
}

/// A copy of what reached `dev`.
fn medium(dev: &MemDevice) -> MemDevice {
    let copy = MemDevice::new(dev.capacity() as usize);
    let mut buf = vec![0u8; 1 << 20];
    for off in (0..dev.capacity()).step_by(buf.len()) {
        let n = buf.len().min((dev.capacity() - off) as usize);
        dev.read_at(&mut buf[..n], off).unwrap();
        copy.write_at(&buf[..n], off).unwrap();
    }
    copy
}

/// Every key of the relation: its content and its Blob State's SHA-256.
type Contents = HashMap<Vec<u8>, (Vec<u8>, [u8; 32])>;

fn contents(db: &Arc<Database>) -> Result<Contents, String> {
    let rel = db.relation("b").ok_or("the relation's creation was lost")?;
    let mut t = db.begin();
    let mut states = Vec::new();
    t.scan_states(&rel, b"", |key, state| {
        states.push((key.to_vec(), state.sha256));
        true
    })
    .map_err(|e| e.to_string())?;
    let mut out = HashMap::new();
    for (key, sha256) in states {
        let got = t.get_blob(&rel, &key, |b| b.to_vec());
        let got = got.map_err(|e| format!("{}: read failed: {e}", name(&key)))?;
        out.insert(key, (got, sha256));
    }
    t.commit().map_err(|e| e.to_string())?;
    Ok(out)
}

fn name(key: &[u8]) -> String {
    String::from_utf8_lossy(key).into_owned()
}

/// The properties over the reopened medium.
fn check(commit_wait: bool, media: Media, oracle: &Oracle) -> Result<(), String> {
    let history = &oracle.history;
    let wal: Arc<dyn Device> = media.1.clone();
    let records = lobster_wal::Wal::scan(&wal)
        .map_err(|e| e.to_string())?
        .records;
    let open = || {
        let (data, wal) = (media.0.clone(), media.1.clone());
        let (db, report) =
            Database::open(data, wal, cfg(commit_wait)).map_err(|e| e.to_string())?;
        let audit = db.audit_allocator().map_err(|e| e.to_string())?;
        if !audit.is_exact() {
            return Err(format!("the allocator is not the audit walk: {audit:?}"));
        }
        Ok::<_, String>((db, report))
    };
    let (db, report) = open()?;
    let rolled_back = report.uncommitted != 0;
    // A rollback is made durable by the open's checkpoint. A log the open
    // runs on from that still names the loser would have every later open
    // undo it again, over what committed after it.
    let left = lobster_wal::Wal::scan(&wal).map_err(|e| e.to_string())?;
    if holds_a_loser(&left.records) {
        return Err("the open runs on from a log that holds a transaction it rolled back".into());
    }
    if report.validated != 0 && !may_hash(&records, &oracle.in_place, rolled_back) {
        return Err(format!(
            "the open hashed {} versions, but no in-place group, or torn group it rolled back, follows the last mark",
            report.validated
        ));
    }
    let got = contents(&db)?;
    // Acknowledged means durable: the last retired version, or a later
    // logged one, reads back with its SHA-256.
    for (key, versions) in history {
        let Some(acked) = versions.iter().rposition(|v| v.acked) else {
            continue;
        };
        let read = got.get(key).map(|(content, _)| sha(content));
        let after = versions[acked..].iter().filter(|v| v.logged);
        if !after
            .map(|v| v.content.as_deref().map(sha))
            .any(|v| v == read)
        {
            return Err(format!(
                "{}: the acknowledged version does not read back with its SHA-256",
                name(key)
            ));
        }
    }
    // Every key resolves to a logged version, whose SHA-256 its Blob
    // State holds.
    for (key, (content, sha256)) in &got {
        if sha(content) != *sha256 {
            let key = name(key);
            return Err(format!(
                "{key}: content does not match its Blob State's SHA-256"
            ));
        }
        let logged = history.get(key).into_iter().flatten().filter(|v| v.logged);
        if !logged
            .filter_map(|v| v.content.as_ref())
            .any(|v| v == content)
        {
            return Err(format!(
                "{}: holds content no logged version has",
                name(key)
            ));
        }
    }
    for pool in [db.blob_pool.audit(), db.node_pool.audit()] {
        if pool.held_latches() != 0 || !pool.leaked_pins().is_empty() {
            return Err("the latch ledger is not clean".into());
        }
    }
    drop(db);
    // The first open ended in a checkpoint, or replayed a log that it left
    // as it was: a second finds the same.
    let again = contents(&open()?.0)?;
    if again != got {
        return Err("a second open changed the store".into());
    }
    Ok(())
}

/// One seeded schedule, cut at a seeded step; then, if the open undid
/// nothing, a second one on the log it ran on from, cut again. Returns
/// the number of sessions run.
fn run(seed: u64, commit_wait: bool) -> Result<u32, String> {
    let mut rng = Rng::new(seed);
    let mut sim = Sim::new(commit_wait);
    let mut sessions = 0;
    while sessions < 2 {
        let txns = 4 + rng.below(6);
        let cut_at = rng.below(5 * txns);
        sim.run(&mut rng, txns, cut_at);
        let (media, oracle) = sim.cut();
        let next = Sim::resume(commit_wait, &media, oracle.in_place.clone())?;
        check(commit_wait, media, &oracle).map_err(|e| format!("session {sessions}: {e}"))?;
        sessions += 1;
        match next {
            Some(next) => sim = next,
            None => break,
        }
    }
    Ok(sessions)
}

/// Sweep-width multiplier for the nightly torture CI job
/// (`LOBSTER_TORTURE_MULT=10`); unset or invalid means 1.
fn torture_mult() -> u64 {
    std::env::var("LOBSTER_TORTURE_MULT")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&m| m >= 1)
        .unwrap_or(1)
}

fn sweep(commit_wait: bool) {
    let seeds = (1..=SEEDS * torture_mult()).chain(FIXED.iter().copied());
    let mut ran_on = 0;
    for seed in seeds {
        match run(seed, commit_wait) {
            Ok(sessions) => ran_on += u64::from(sessions == 2),
            Err(e) => panic!("sim seed {seed} (commit_wait {commit_wait}): {e}; add it to FIXED"),
        }
    }
    assert!(ran_on > 0, "no open ran on from its log");
}

#[test]
fn seeded_cuts_between_commit_steps_waiting() {
    sweep(true);
}

#[test]
fn seeded_cuts_between_commit_steps_asynchronous() {
    sweep(false);
}

/// A put that retires, then a 16-byte delta into its first extent — an
/// in-place write — run in order, or by the broken driver: the delta's
/// group is written in place, synced and retired before its log step, and
/// power fails before that step runs.
fn flush_before_log(broken: bool) -> Result<(), String> {
    let mut sim = Sim::new(true);
    let v0 = vec![5u8; 64 << 10];
    let mut v1 = v0.clone();
    v1[..16].fill(9);
    let key = b"k0".to_vec();
    sim.stage(key.clone(), |t, rel| {
        t.put_blob(rel, b"k0", &v0).unwrap();
        Some(v0.clone())
    });
    sim.commit_in_order();
    sim.stage(key, |t, rel| {
        t.update_blob(rel, b"k0", 0, &v1[..16]).unwrap();
        Some(v1.clone())
    });
    if broken {
        let (mut group, _) = sim.group(1);
        sim.ctx.write_in_place(&mut group).unwrap();
        sim.ctx.retire(group, Ok(()));
    } else {
        sim.commit_in_order();
    }
    let (media, oracle) = sim.cut();
    check(true, media, &oracle)
}

/// In order, the schedule passes. Broken, the delta overwrote the
/// acknowledged put in place with no durable record of it, so the put no
/// longer reads back with its SHA-256.
#[test]
fn broken_flush_before_log_is_caught() {
    flush_before_log(false).expect("the steps in order");
    let err = flush_before_log(true).expect_err("the broken driver was not caught");
    assert!(
        err.contains("acknowledged version"),
        "caught for another reason: {err}"
    );
}

/// A put that retires; power fails, and the open runs on from the log. The
/// next session's delete of the put's key reaches the log torn: its
/// records without its commit record. Its transaction id must not be the
/// id of a committed transaction of that log, as it is in the broken
/// session that restarts ids at 1: recovery would take the delete as
/// committed.
fn torn_after_run_on(broken: bool) -> Result<(), String> {
    let mut sim = Sim::new(true);
    let v0 = vec![5u8; 64 << 10];
    sim.stage(b"k0".to_vec(), |t, rel| {
        t.put_blob(rel, b"k0", &v0).unwrap();
        Some(v0.clone())
    });
    sim.commit_in_order();
    let (media, oracle) = sim.cut();
    let mut sim = Sim::resume(true, &media, oracle.in_place)?.expect("the open ran on");
    if broken {
        sim.db
            .next_txn
            .store(1, lobster_sync::atomic::Ordering::SeqCst);
    }
    sim.stage(b"k0".to_vec(), |t, rel| {
        t.delete_blob(rel, b"k0").unwrap();
        None
    });
    sim.log_torn();
    let (media, oracle) = sim.cut();
    check(true, media, &oracle)
}

/// Run on correctly, the torn delete rolls back. Broken, it takes the
/// commit record of the relation's creation, and the acknowledged put is
/// gone.
#[test]
fn broken_restart_of_txn_ids_is_caught() {
    torn_after_run_on(false).expect("ids that resume");
    let err = torn_after_run_on(true).expect_err("the broken session was not caught");
    assert!(
        err.contains("acknowledged version"),
        "caught for another reason: {err}"
    );
}

/// An asynchronous put, then a delta into its first extent staged before
/// the put's group settles; the put's group alone is logged — its content
/// written and synced under its own mark — and retired, and power fails
/// before the delta's group is logged. The put must read back as it was
/// committed: the delta's bytes, never logged, must not ride its write.
#[test]
fn a_delta_staged_before_its_puts_group_settles_stays_out_of_the_put() {
    let mut sim = Sim::new(false);
    let v0 = vec![5u8; 64 << 10];
    let mut v1 = v0.clone();
    v1[..16].fill(9);
    let key = b"k0".to_vec();
    sim.stage(key.clone(), |t, rel| {
        t.put_blob(rel, b"k0", &v0).unwrap();
        Some(v0.clone())
    });
    sim.stage(key, |t, rel| {
        t.update_blob(rel, b"k0", 0, &v1[..16]).unwrap();
        Some(v1.clone())
    });
    sim.log(1);
    sim.write();
    sim.retire();
    let (media, oracle) = sim.cut();
    check(false, media, &oracle).unwrap();
}
