//! The four workloads: their fixed shapes, set-up, the closed-loop
//! clients, and the checks on every returned byte range.

use crate::device::{Counts, ProbeDevice, Role, MODEL};
use crate::gen::{key_bytes, KeyDist, Mix, Op, OpKind, OpStream, Payloads};
use crate::layers::core::{self, Engine, EngineSettings, Error, ShardProbes, SHARDS};
use crate::layers::serve::{self, Conn, ServerHandle, Status};
use crate::recorder::{Class, ClientLog, Grid};
use crate::{affinity, trace};
use lobster_types::Result;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Load generator: two closed-loop clients, fixed (the reference box has
/// two processors; the load is not derived from `nproc`).
pub const CLIENTS: usize = 2;
/// Retries of a refused (BUSY) or conflicting operation before it counts
/// as failed; they stay on the operation's timer, each after a pause (an
/// immediate retry of a wait-die loser only loses again).
pub const MAX_RETRIES: u32 = 5;
const RETRY_PAUSE_US: [u64; MAX_RETRIES as usize] = [200, 1_000, 5_000, 20_000, 50_000];
/// One read in this many has its whole content compared; those reads are
/// not timed, so the comparison stays outside every timed span.
pub const FULL_CHECK_EVERY: u64 = 64;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Door {
    /// `lobster_serve::Client` over loopback TCP to an in-process server.
    Tcp,
    /// `lobster_core::ShardedTxn` in-process.
    Lib,
}

#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub door: Door,
    /// Blob size in bytes.
    pub size: usize,
    /// Populated keys; for the ingest workload, the live-set target.
    pub nkeys: u64,
    pub dist: KeyDist,
    pub mix: Mix,
    /// Buffer pool per shard, MiB.
    pub pool_mib: u64,
    /// Charge the frozen latency model on every device.
    pub modeled: bool,
    pub commit_wait: bool,
    pub checkpoint_threshold: u64,
    /// `(nkeys, pool_mib)` of the quick test shape.
    pub quick: (u64, u64),
}

const fn mix(get: u32, get_range: u32, overwrite: u32, ingest: u32, get_recent: u32) -> Mix {
    Mix {
        get,
        get_range,
        overwrite,
        ingest,
        get_recent,
    }
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "serve_mix_4k",
        why: "TCP door, 90% GET / 10% PUT of 4 KiB, zipf 0.99 over 16384 keys, data fits the pool: serve does most of the work, the device almost none",
        door: Door::Tcp,
        size: 4 << 10,
        nkeys: 16_384,
        dist: KeyDist::Zipf(0.99),
        mix: mix(900, 0, 100, 0, 0),
        pool_mib: 256,
        modeled: false,
        commit_wait: false,
        checkpoint_threshold: 4 << 20,
        quick: (1024, 32),
    },
    Spec {
        name: "lib_mix_100k",
        why: "in-process, 50% get / 50% overwrite of 100 KiB over 2048 keys, fits the pool: bypasses serve; core, sha256, buffer, btree and group commit on the CPU",
        door: Door::Lib,
        size: 100 << 10,
        nkeys: 2_048,
        dist: KeyDist::Uniform,
        mix: mix(500, 0, 500, 0, 0),
        pool_mib: 256,
        modeled: false,
        commit_wait: false,
        checkpoint_threshold: 8 << 20,
        quick: (128, 64),
    },
    Spec {
        name: "lib_ingest_1m",
        why: "in-process, 1 MiB ingest + delete-oldest at 256 live blobs plus recent-key reads, modeled device, commit waits for fsync and flush: the write side end to end",
        door: Door::Lib,
        size: 1 << 20,
        nkeys: 256,
        dist: KeyDist::Uniform,
        mix: mix(0, 0, 0, 600, 400),
        pool_mib: 128,
        modeled: true,
        commit_wait: true,
        checkpoint_threshold: 1 << 20,
        quick: (32, 96),
    },
    Spec {
        name: "lib_cold_1m",
        why: "in-process, 75% get / 20% 64 KiB range / 5% overwrite of 1 MiB over 512 keys, data 8x the pool, modeled device: buffer fault/evict/readahead and storage reads",
        door: Door::Lib,
        size: 1 << 20,
        nkeys: 512,
        dist: KeyDist::Uniform,
        mix: mix(750, 200, 50, 0, 0),
        pool_mib: 64,
        modeled: true,
        commit_wait: false,
        checkpoint_threshold: 512 << 10,
        quick: (64, 32),
    },
];

pub fn find(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Spec {
    /// The quick shape used by tests: same code, tiny data.
    pub fn quick(mut self) -> Spec {
        (self.nkeys, self.pool_mib) = self.quick;
        self
    }

    pub fn settings(&self) -> EngineSettings {
        EngineSettings {
            pool_frames: self.pool_mib << 20 >> 12,
            workers: CLIENTS,
            commit_wait: self.commit_wait,
            checkpoint_threshold: self.checkpoint_threshold,
        }
    }

    /// Data-device capacity per shard: room for every blob at the tier
    /// table's worst rounding (2x), for churn, and for the epilogue.
    fn data_capacity(&self) -> usize {
        let live = self.nkeys as usize * self.size;
        (4 * live + 600 * self.size + (256 << 20)).next_multiple_of(1 << 20)
    }
}

/// What a run keeps between set-up, the timed window and the epilogue.
pub struct Instance {
    pub spec: Spec,
    pub engine: Engine,
    pub devices: Vec<ShardProbes>,
    pub server: Option<ServerHandle>,
    pub payloads: Payloads,
    /// Highest version issued per populated key.
    pub issued: Vec<AtomicU32>,
    /// Live keys per client (ingest workload), oldest first.
    pub live: Vec<VecDeque<u64>>,
    /// Next never-used key id per client (ingest workload).
    pub next_key: Vec<u64>,
    pub seed: u64,
}

fn new_devices(spec: &Spec) -> Vec<ShardProbes> {
    let model = spec.modeled.then_some(MODEL);
    (0..SHARDS)
        .map(|_| ShardProbes {
            data: Arc::new(ProbeDevice::new(spec.data_capacity(), Role::Data, model)),
            wal: Arc::new(ProbeDevice::new(256 << 20, Role::Wal, model)),
        })
        .collect()
}

impl Instance {
    /// Create the engine (and server), populate every key through the
    /// workload's door with both clients, drain, and checkpoint.
    pub fn set_up(spec: Spec, seed: u64) -> Result<Instance> {
        let devices = new_devices(&spec);
        let engine = Engine::create(&devices, spec.settings())?;
        let server = match spec.door {
            Door::Tcp => Some(serve::start(&engine)?),
            Door::Lib => None,
        };
        let payloads = Payloads::new(seed, spec.size);
        let issued = (0..spec.nkeys).map(|_| AtomicU32::new(1)).collect();
        let mut inst = Instance {
            spec,
            engine,
            devices,
            server,
            payloads,
            issued,
            live: (0..CLIENTS).map(|_| VecDeque::new()).collect(),
            next_key: (0..CLIENTS).map(|c| spec.nkeys + c as u64).collect(),
            seed,
        };
        let conns = connect_all(inst.server.as_ref())?;
        per_client(conns, |c, conn| inst.populate_share(c, conn))?;
        for id in 0..spec.nkeys {
            inst.live[id as usize % CLIENTS].push_back(id);
        }
        inst.engine.drain()?;
        inst.engine.checkpoint()?;
        Ok(inst)
    }

    fn populate_share(&self, client: usize, mut conn: Option<Conn>) -> Result<()> {
        affinity::pin_current(client);
        let mut buf = vec![0u8; self.spec.size];
        for id in (client as u64..self.spec.nkeys).step_by(CLIENTS) {
            self.payloads.fill(id as u32, 1, &mut buf);
            let key = key_bytes(id);
            match &mut conn {
                Some(conn) => {
                    let status = conn.put(&key, &buf)?;
                    if status != Status::Ok {
                        return Err(Error::InvalidArgument(format!(
                            "populate PUT answered {status:?}"
                        )));
                    }
                }
                None => put_new(&self.engine, client, &key, &buf)?,
            }
        }
        Ok(())
    }

    /// Close the server, if any (a drain and a checkpoint), and drop the
    /// engine.
    pub fn tear_down(self) -> Result<()> {
        match self.server {
            Some(server) => server.shutdown(),
            None => Ok(()),
        }
    }

    pub fn device_counts(&self, role: Role) -> Counts {
        self.devices.iter().fold(Counts::default(), |acc, d| {
            acc.plus(&match role {
                Role::Data => d.data.counts(),
                Role::Wal => d.wal.counts(),
            })
        })
    }

    pub fn all_devices(&self) -> impl Iterator<Item = &Arc<ProbeDevice>> {
        self.devices.iter().flat_map(|d| [&d.data, &d.wal])
    }

    /// Bytes of user data currently stored.
    pub fn live_user_bytes(&self) -> u64 {
        self.live.iter().map(|l| l.len() as u64).sum::<u64>() * self.spec.size as u64
    }

    /// Highest version issued for `key` (1 for keys written once).
    fn max_version(&self, key: u64) -> u32 {
        self.issued
            .get(key as usize)
            .map_or(1, |v| v.load(Ordering::SeqCst))
    }

    /// Issue the next version of `key` (always 1 for keys written once).
    pub fn next_version(&self, key: u64) -> u32 {
        self.issued
            .get(key as usize)
            .map_or(1, |v| v.fetch_add(1, Ordering::SeqCst) + 1)
    }

    /// Is `data` a whole blob this benchmark wrote under `key`? The header
    /// must name the key and a version that was issued; with `full`, every
    /// byte is compared with the generator.
    pub fn check_whole(&self, key: u64, data: &[u8], full: bool) -> bool {
        let Some((k, version)) = Payloads::header_of(data) else {
            return false;
        };
        data.len() == self.spec.size
            && k == key as u32
            && (1..=self.max_version(key)).contains(&version)
            && (!full || self.payloads.matches(k, version, 0, data))
    }

    /// Is `data` bytes `[offset, offset + len)` of a recent version of
    /// `key`? A range does not carry the header, so the candidates are the
    /// newest issued version and the two before it (with two clients, at
    /// most one other write to the key can be in flight or reordered).
    pub fn check_range(&self, key: u64, offset: usize, data: &[u8]) -> bool {
        let newest = self.max_version(key);
        (newest.saturating_sub(2).max(1)..=newest)
            .rev()
            .any(|v| self.payloads.matches(key as u32, v, offset, data))
    }
}

/// Run `f(client, item)` for every client at once, each on a thread of its
/// own, and collect the results in client order.
pub fn per_client<I: Send, T: Send>(
    items: Vec<I>,
    f: impl Fn(usize, I) -> Result<T> + Sync,
) -> Result<Vec<T>> {
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = items
            .into_iter()
            .enumerate()
            .map(|(c, item)| s.spawn(move || f(c, item)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    })
}

/// One connection per client (`None` each without a server), and whatever
/// threads the server starts for client `c`'s connection put on client
/// `c`'s processor (see `affinity`). Called from one thread while no other
/// thread is being started, so the new thread ids are the server's; the
/// ping makes sure the server has picked the connection up.
pub fn connect_all(server: Option<&ServerHandle>) -> Result<Vec<Option<Conn>>> {
    let Some(server) = server else {
        return Ok((0..CLIENTS).map(|_| None).collect());
    };
    (0..CLIENTS)
        .map(|client| {
            let before = affinity::thread_ids();
            let mut conn = Conn::connect(server)?;
            conn.ping()?;
            for tid in affinity::thread_ids() {
                if !before.contains(&tid) {
                    affinity::pin_thread(tid, client);
                }
            }
            Ok(Some(conn))
        })
        .collect()
}

/// `BufferFull` as `None`, for [`with_room`].
pub fn no_room_is_none<T>(r: Result<T>) -> Result<Option<T>> {
    match r {
        Ok(v) => Ok(Some(v)),
        Err(Error::BufferFull) => Ok(None),
        Err(e) => Err(e),
    }
}

/// Call `attempt` until it returns a value. `None` means the pool had no
/// room: dirty extents of earlier puts are pinned until the background
/// flush, and a pool much smaller than the data runs out of contiguous
/// clean frames. Outside the timed window that is waited out (drain, try
/// again) instead of counted.
pub fn with_room<T>(engine: &Engine, mut attempt: impl FnMut() -> Result<Option<T>>) -> Result<T> {
    for _ in 0..100 {
        if let Some(v) = attempt()? {
            return Ok(v);
        }
        engine.drain()?;
    }
    Err(Error::BufferFull)
}

/// Insert a new key in a transaction of its own.
pub fn put_new(engine: &Engine, worker: usize, key: &[u8], data: &[u8]) -> Result<()> {
    with_room(engine, || {
        let mut txn = engine.begin(worker);
        match no_room_is_none(core::put(&mut txn, &engine.rel, key, data))? {
            Some(()) => core::commit(txn).map(Some),
            None => {
                txn.abort();
                Ok(None)
            }
        }
    })
}

/// Why an operation did not complete.
#[derive(Clone, Copy, Debug, Default)]
pub struct Failures {
    pub errors: u64,
    /// Still refused or conflicting after `MAX_RETRIES` retries.
    pub exhausted: u64,
    pub mismatches: u64,
}

impl Failures {
    pub fn total(&self) -> u64 {
        self.errors + self.exhausted + self.mismatches
    }

    pub fn add(&mut self, o: &Failures) {
        self.errors += o.errors;
        self.exhausted += o.exhausted;
        self.mismatches += o.mismatches;
    }
}

/// Per-sub-window tallies of one client beyond the latency samples.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// User bytes read / written.
    pub bytes: [u64; 2],
    pub deletes: u64,
    pub retries: u64,
    pub failures: Failures,
}

impl Tally {
    pub fn add(&mut self, o: &Tally) {
        for c in 0..2 {
            self.bytes[c] += o.bytes[c];
        }
        self.deletes += o.deletes;
        self.retries += o.retries;
        self.failures.add(&o.failures);
    }
}

/// What one client brings back from a run.
pub struct ClientResult {
    pub log: ClientLog,
    pub tallies: Vec<Tally>,
    pub live: VecDeque<u64>,
    pub next_key: u64,
    /// First failure, for the report.
    pub first_failure: Option<String>,
}

enum Verdict {
    Done,
    /// BUSY or a lock conflict: retry on the same timer.
    Again,
    Mismatch,
    Failed(String),
}

struct Outcome {
    class: Class,
    bytes: u64,
    deleted: bool,
    timed: bool,
    verdict: Verdict,
    retries: u32,
    started: Instant,
    done: Instant,
}

/// One closed-loop client.
pub struct Client<'a> {
    inst: &'a Instance,
    id: usize,
    conn: Option<Conn>,
    ops: OpStream,
    buf: Vec<u8>,
    range_buf: Vec<u8>,
    live: VecDeque<u64>,
    next_key: u64,
    seq: u64,
}

fn lib_verdict<T>(r: Result<T>) -> std::result::Result<T, Verdict> {
    r.map_err(|e| match e {
        Error::TxnConflict | Error::BufferFull => Verdict::Again,
        e => Verdict::Failed(e.to_string()),
    })
}

impl<'a> Client<'a> {
    /// Client `id` of `inst`, over `conn` if the door is TCP.
    pub fn new(inst: &'a Instance, id: usize, conn: Option<Conn>) -> Client<'a> {
        let spec = &inst.spec;
        Client {
            inst,
            id,
            conn,
            ops: OpStream::new(
                inst.seed, id as u64, spec.mix, spec.dist, spec.nkeys, spec.size,
            ),
            buf: vec![0u8; spec.size],
            range_buf: vec![0u8; crate::gen::RANGE_LEN.min(spec.size)],
            live: inst.live[id].clone(),
            next_key: inst.next_key[id],
            seq: 0,
        }
    }

    /// Run operations until `grid.end()`, recording the ones that complete
    /// inside the grid (earlier ones are warm-up).
    pub fn run(mut self, grid: Grid) -> ClientResult {
        affinity::pin_current(self.id);
        let mut log = ClientLog::new(grid);
        let mut tallies = vec![Tally::default(); grid.count];
        let mut first_failure = None;
        let end = grid.end();
        loop {
            let op = self.ops.next_op();
            self.seq += 1;
            trace::set_op((self.id as u64 + 1) << 48 | self.seq);
            let out = self.execute(op);
            if out.done >= end {
                break;
            }
            let Some(w) = grid.index(out.done) else {
                continue;
            };
            let t = &mut tallies[w];
            t.retries += out.retries as u64;
            let failure = match out.verdict {
                Verdict::Done => None,
                Verdict::Again => {
                    t.failures.exhausted += 1;
                    Some(format!("{op:?}: still refused after {MAX_RETRIES} retries"))
                }
                Verdict::Mismatch => {
                    t.failures.mismatches += 1;
                    Some(format!("{op:?}: content mismatch"))
                }
                Verdict::Failed(e) => {
                    t.failures.errors += 1;
                    Some(format!("{op:?}: {e}"))
                }
            };
            if let Some(f) = failure {
                first_failure.get_or_insert(f);
                continue;
            }
            t.bytes[out.class as usize] += out.bytes;
            t.deletes += out.deleted as u64;
            let latency = out.timed.then(|| out.done.duration_since(out.started));
            log.record(out.done, out.class, latency);
        }
        trace::set_op(0);
        ClientResult {
            log,
            tallies,
            live: self.live,
            next_key: self.next_key,
            first_failure,
        }
    }

    fn execute(&mut self, op: Op) -> Outcome {
        // A full-content check runs inside the read call, so those reads
        // are not timed.
        let full = self.seq.is_multiple_of(FULL_CHECK_EVERY);
        let (class, key, version) = match op.kind {
            OpKind::Get | OpKind::GetRange { .. } => (Class::Read, op.key, 0),
            OpKind::GetRecent => {
                let back = op.key as usize % self.live.len().max(1);
                let key = self.live[self.live.len() - 1 - back];
                (Class::Read, key, 0)
            }
            OpKind::Overwrite => (Class::Write, op.key, self.inst.next_version(op.key)),
            OpKind::Ingest => (Class::Write, self.next_key, 1),
        };
        if class == Class::Write {
            // Payload generation is not part of the operation.
            let (payloads, buf) = (&self.inst.payloads, &mut self.buf);
            payloads.fill(key as u32, version, buf);
        }
        let retire = (op.kind == OpKind::Ingest
            && self.live.len() as u64 >= self.inst.spec.nkeys / CLIENTS as u64)
            .then(|| self.live[0]);

        let started = Instant::now();
        let mut retries = 0;
        let verdict = {
            let _op = trace::span("op");
            loop {
                let v = match self.conn.is_some() {
                    true => self.attempt_tcp(op.kind, key, full),
                    false => self.attempt_lib(op.kind, key, retire, full),
                };
                match v {
                    Verdict::Again if retries < MAX_RETRIES => {
                        std::thread::sleep(Duration::from_micros(RETRY_PAUSE_US[retries as usize]));
                        retries += 1;
                    }
                    v => break v,
                }
            }
        };
        let done = Instant::now();

        // Checks that need no engine call happen after the timer stopped.
        let verdict = match (verdict, op.kind) {
            (Verdict::Done, OpKind::GetRange { offset, len }) => {
                let data = &self.range_buf[..len as usize];
                match self.inst.check_range(key, offset as usize, data) {
                    true => Verdict::Done,
                    false => Verdict::Mismatch,
                }
            }
            (v, _) => v,
        };
        if matches!(verdict, Verdict::Done) && op.kind == OpKind::Ingest {
            self.live.push_back(key);
            self.next_key += CLIENTS as u64;
            if retire.is_some() {
                self.live.pop_front();
            }
        }
        let bytes = match op.kind {
            OpKind::GetRange { len, .. } => len as u64,
            _ => self.inst.spec.size as u64,
        };
        Outcome {
            class,
            bytes,
            deleted: class == Class::Write && (retire.is_some() || op.kind == OpKind::Overwrite),
            timed: !(full && class == Class::Read),
            verdict,
            retries,
            started,
            done,
        }
    }

    fn attempt_lib(&mut self, kind: OpKind, key: u64, retire: Option<u64>, full: bool) -> Verdict {
        let inst = self.inst;
        let rel = &inst.engine.rel;
        let k = key_bytes(key);
        let mut txn = inst.engine.begin(self.id);
        let step = (|| match kind {
            OpKind::Get | OpKind::GetRecent => {
                let ok = lib_verdict(core::get(&mut txn, rel, &k, |data| {
                    inst.check_whole(key, data, full)
                }))?;
                ok.then_some(()).ok_or(Verdict::Mismatch)
            }
            OpKind::GetRange { offset, len } => {
                let buf = &mut self.range_buf[..len as usize];
                let n = lib_verdict(core::get_range(&mut txn, rel, &k, offset as u64, buf))?;
                (n == len as usize).then_some(()).ok_or(Verdict::Mismatch)
            }
            OpKind::Overwrite => {
                lib_verdict(core::delete(&mut txn, rel, &k))?;
                lib_verdict(core::put(&mut txn, rel, &k, &self.buf))
            }
            OpKind::Ingest => {
                lib_verdict(core::put(&mut txn, rel, &k, &self.buf))?;
                match retire {
                    Some(old) => lib_verdict(core::delete(&mut txn, rel, &key_bytes(old))),
                    None => Ok(()),
                }
            }
        })();
        match step {
            Ok(()) => match lib_verdict(core::commit(txn)) {
                Ok(()) => Verdict::Done,
                Err(v) => v,
            },
            Err(v) => {
                txn.abort();
                v
            }
        }
    }

    fn attempt_tcp(&mut self, kind: OpKind, key: u64, full: bool) -> Verdict {
        let k = key_bytes(key);
        let conn = self.conn.as_mut().expect("tcp door has a connection");
        let status = match kind {
            OpKind::Get => match conn.get(&k) {
                Ok((Status::Ok, body)) => {
                    return match self.inst.check_whole(key, &body, full) {
                        true => Verdict::Done,
                        false => Verdict::Mismatch,
                    }
                }
                Ok((status, _)) => Ok(status),
                Err(e) => Err(e),
            },
            OpKind::Overwrite => conn.put(&k, &self.buf),
            other => return Verdict::Failed(format!("{other:?} has no TCP form")),
        };
        match status {
            Ok(Status::Ok) => Verdict::Done,
            // BUSY is load shedding; SERVER_ERR is how the server reports
            // a lock conflict it gave up on. Both are refusals to retry.
            Ok(Status::Busy | Status::ServerErr) => Verdict::Again,
            Ok(status) => Verdict::Failed(format!("server answered {status:?}")),
            Err(e) => Verdict::Failed(e.to_string()),
        }
    }
}
