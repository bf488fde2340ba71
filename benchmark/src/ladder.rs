//! The front-door ladder of the traced run: every public call a request
//! crosses, made against the workload's own engine at the workload's blob
//! size, and timed from outside.
//!
//! The served rungs (`serve.*`) and their in-process shadows are run by
//! both clients at once, like the timed window (an idle processor adds a
//! wake-up to every loopback round trip, which is not what the window
//! measures). Each client keeps to its own keys, and both doors use the
//! same key schedule against the same engine, so `serve.marginal_*` is
//! what the TCP door adds on top of the library path. The `core.*` rungs
//! are made one at a time from one thread.

use crate::affinity;
use crate::gen::{key_bytes, Rng, RANGE_LEN};
use crate::layers::core;
use crate::layers::serve::{self, Conn, Status};
use crate::recorder::median_u64;
use crate::run::Metric;
use crate::workload::{
    connect_all, no_room_is_none, per_client, with_room, Door, Instance, CLIENTS,
};
use lobster_types::Result;
use std::time::Instant;

const LADDER_BASE: u64 = 1 << 29;
/// Calls per client of the rungs that move no blob content.
const SMALL_CALLS: usize = 2000;

pub struct Ladder {
    pub metrics: Vec<Metric>,
    pub calls: u64,
    pub mismatches: u64,
}

/// Calls per client of a rung that moves a blob: about 32 MiB.
fn blob_calls(size: usize) -> usize {
    ((32usize << 20) / size).clamp(48, SMALL_CALLS)
}

/// `n` of `client`'s own live keys, from the run's seed.
fn schedule(inst: &Instance, client: usize, n: usize, stream: u64) -> Vec<u64> {
    let mut rng = Rng::new(inst.seed, 0x6c61_6464_6572 ^ stream << 8 ^ client as u64);
    let live = &inst.live[client];
    (0..n)
        .map(|_| live[rng.below(live.len() as u64) as usize])
        .collect()
}

fn timed<R>(samples: &mut Vec<u64>, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    samples.push(t.elapsed().as_nanos() as u64);
    r
}

/// One client's samples of the four door calls, and its failed checks.
#[derive(Default)]
struct DoorSamples {
    ping: Vec<u64>,
    stat: Vec<u64>,
    get: Vec<u64>,
    put: Vec<u64>,
    mismatches: u64,
}

impl DoorSamples {
    fn merge(all: Vec<DoorSamples>) -> DoorSamples {
        let mut m = DoorSamples::default();
        for mut s in all {
            m.ping.append(&mut s.ping);
            m.stat.append(&mut s.stat);
            m.get.append(&mut s.get);
            m.put.append(&mut s.put);
            m.mismatches += s.mismatches;
        }
        m
    }
}

fn served(inst: &Instance, mut conn: Conn, client: usize, n: usize) -> Result<DoorSamples> {
    let mut s = DoorSamples::default();
    let size = inst.spec.size;
    let mut buf = vec![0u8; size];
    affinity::pin_current(client);
    for _ in 0..SMALL_CALLS {
        s.mismatches += (timed(&mut s.ping, || conn.ping())? != Status::Ok) as u64;
    }
    for k in schedule(inst, client, SMALL_CALLS, 3) {
        let (status, body) = timed(&mut s.stat, || conn.stat(&key_bytes(k)))?;
        let size_ok = body.get(..8) == Some(&(size as u64).to_le_bytes()[..]);
        s.mismatches += (status != Status::Ok || !size_ok) as u64;
    }
    for k in schedule(inst, client, n, 1) {
        let (status, body) = with_room(&inst.engine, || {
            let mut once = Vec::new();
            let (status, body) = timed(&mut once, || conn.get(&key_bytes(k)))?;
            Ok((status == Status::Ok).then(|| {
                s.get.append(&mut once);
                (status, body)
            }))
        })?;
        s.mismatches += (status != Status::Ok || !inst.check_whole(k, &body, true)) as u64;
    }
    for k in schedule(inst, client, n, 2) {
        inst.payloads.fill(k as u32, inst.next_version(k), &mut buf);
        let status = with_room(&inst.engine, || {
            let mut once = Vec::new();
            let status = timed(&mut once, || conn.put(&key_bytes(k), &buf))?;
            Ok((status != Status::Busy).then(|| {
                s.put.append(&mut once);
                status
            }))
        })?;
        s.mismatches += (status != Status::Ok) as u64;
    }
    Ok(s)
}

/// What the server does per GET and PUT, in-process: a transaction with
/// the read copied out, or with delete + put.
fn shadow(inst: &Instance, client: usize, n: usize) -> Result<DoorSamples> {
    affinity::pin_current(client);
    let mut s = DoorSamples::default();
    let engine = &inst.engine;
    let mut buf = vec![0u8; inst.spec.size];
    for k in schedule(inst, client, n, 1) {
        let body = with_room(engine, || {
            let mut once = Vec::new();
            let body = timed(&mut once, || -> Result<Option<Vec<u8>>> {
                let mut txn = engine.begin(client);
                let body = no_room_is_none(core::get(&mut txn, &engine.rel, &key_bytes(k), |d| {
                    d.to_vec()
                }))?;
                core::commit(txn)?;
                Ok(body)
            })?;
            if body.is_some() {
                s.get.append(&mut once);
            }
            Ok(body)
        })?;
        s.mismatches += !inst.check_whole(k, &body, true) as u64;
    }
    for k in schedule(inst, client, n, 2) {
        inst.payloads.fill(k as u32, inst.next_version(k), &mut buf);
        with_room(engine, || {
            let mut once = Vec::new();
            let done = timed(&mut once, || -> Result<Option<()>> {
                let mut txn = engine.begin(client);
                core::delete(&mut txn, &engine.rel, &key_bytes(k))?;
                if no_room_is_none(core::put(&mut txn, &engine.rel, &key_bytes(k), &buf))?.is_none()
                {
                    txn.abort();
                    return Ok(None);
                }
                core::commit(txn).map(Some)
            })?;
            if done.is_some() {
                s.put.append(&mut once);
            }
            Ok(done)
        })?;
    }
    Ok(s)
}

struct Rungs {
    out: Vec<Metric>,
    calls: u64,
}

impl Rungs {
    /// Report the median of `ns` under `name` in `unit` (`ns`, `us`, `ms`).
    fn push(&mut self, name: &str, ns: &mut [u64], unit: &'static str) -> f64 {
        let div = match unit {
            "ns" => 1.0,
            "us" => 1e3,
            _ => 1e6,
        };
        self.calls += ns.len() as u64;
        self.derived(name, median_u64(ns) as f64 / div, unit, ns.len())
    }

    fn derived(&mut self, name: &str, value: f64, unit: &'static str, n: usize) -> f64 {
        self.out.push(Metric::new(name, value, unit, n as u64));
        value
    }
}

pub fn run(inst: &Instance) -> Result<Ladder> {
    let mut rungs = Rungs {
        out: Vec::new(),
        calls: 0,
    };
    let size = inst.spec.size;
    let n = blob_calls(size);
    let engine = &inst.engine;
    let rel = &engine.rel;

    // ---- door rungs: the workload's own server, or one started for the
    // ladder over the same engine.
    let own_server = match inst.spec.door {
        Door::Tcp => None,
        Door::Lib => Some(serve::start(engine)?),
    };
    let server = own_server
        .as_ref()
        .or(inst.server.as_ref())
        .expect("a server for the served rungs");
    let mut door = DoorSamples::merge(per_client(connect_all(Some(server))?, |c, conn| {
        served(inst, conn.expect("one connection per client"), c, n)
    })?);
    let mut lib = DoorSamples::merge(per_client(vec![(); CLIENTS], |c, ()| shadow(inst, c, n))?);
    let mut mismatches = door.mismatches + lib.mismatches;
    if let Some(server) = own_server {
        // Ends with a drain and a checkpoint of the engine, which stays open.
        server.shutdown()?;
    }
    rungs.push("serve.ping_us", &mut door.ping, "us");
    rungs.push("serve.stat_us", &mut door.stat, "us");
    let served_get = rungs.push("serve.get_us", &mut door.get, "us");
    let served_put = rungs.push("serve.put_us", &mut door.put, "us");
    let shadow_get = median_u64(&mut lib.get) as f64 / 1e3;
    let shadow_put = median_u64(&mut lib.put) as f64 / 1e3;
    rungs.calls += (lib.get.len() + lib.put.len()) as u64;
    rungs.derived(
        "serve.marginal_get_us",
        served_get - shadow_get,
        "us",
        lib.get.len(),
    );
    rungs.derived(
        "serve.marginal_put_us",
        served_put - shadow_put,
        "us",
        lib.put.len(),
    );

    // ---- core rungs, one thread.
    let keys = schedule(inst, 0, n, 4);
    let (mut begin, mut stat) = (vec![], vec![]);
    let mut extents = 0usize;
    for k in schedule(inst, 0, SMALL_CALLS, 5) {
        let mut txn = timed(&mut begin, || engine.begin(0));
        let st = timed(&mut stat, || core::stat(&mut txn, rel, &key_bytes(k)))?;
        extents = st.map_or(extents, |(_, e)| e);
        mismatches += (st.map(|(s, _)| s) != Some(size as u64)) as u64;
        core::commit(txn)?;
    }
    rungs.push("core.begin_ns", &mut begin, "ns");
    let stat_ns = rungs.push("core.stat_ns", &mut stat, "ns");
    rungs.derived("extent.extents_per_blob", extents as f64, "count", 1);

    // Hot: each key read twice, the second read timed. Cold: every clean
    // extent evicted first, then distinct keys, first touch timed.
    let (mut hot, mut cold, mut range) = (vec![], vec![], vec![]);
    let read_whole = |samples: Option<&mut Vec<u64>>, k: u64| -> Result<bool> {
        let mut once = Vec::new();
        let ok = with_room(engine, || {
            once.clear();
            let mut txn = engine.begin(0);
            let ok = no_room_is_none(timed(&mut once, || {
                core::get(&mut txn, rel, &key_bytes(k), |d| {
                    inst.check_whole(k, d, false)
                })
            }))?;
            core::commit(txn)?;
            Ok(ok)
        })?;
        if let Some(samples) = samples {
            samples.append(&mut once);
        }
        Ok(ok)
    };
    for &k in &keys {
        read_whole(None, k)?;
        mismatches += !read_whole(Some(&mut hot), k)? as u64;
    }
    engine.drain()?;
    engine.drop_caches();
    let mut distinct = keys.clone();
    distinct.sort_unstable();
    distinct.dedup();
    for &k in &distinct {
        mismatches += !read_whole(Some(&mut cold), k)? as u64;
    }
    let range_len = RANGE_LEN.min(size);
    let mut range_buf = vec![0u8; range_len];
    let mut rng = Rng::new(inst.seed, 0x72_616e_6765);
    for &k in &keys {
        read_whole(None, k)?;
        let offset = rng.below((size - range_len + 1) as u64);
        let got = with_room(engine, || {
            let mut once = Vec::new();
            let mut txn = engine.begin(0);
            let got = no_room_is_none(timed(&mut once, || {
                core::get_range(&mut txn, rel, &key_bytes(k), offset, &mut range_buf)
            }))?;
            core::commit(txn)?;
            if got.is_some() {
                range.append(&mut once);
            }
            Ok(got)
        })?;
        mismatches +=
            (got != range_len || !inst.check_range(k, offset as usize, &range_buf)) as u64;
    }
    let hot_us = rungs.push("core.get_hot_us", &mut hot, "us");
    let cold_us = rungs.push("core.get_cold_us", &mut cold, "us");
    rungs.push("core.get_range_us", &mut range, "us");
    rungs.derived("buffer.marginal_hot_us", hot_us - stat_ns / 1e3, "us", n);
    rungs.derived("buffer.marginal_cold_us", cold_us - hot_us, "us", n);

    // put / commit / delete of fresh keys, each call timed on its own.
    let (mut put, mut commit, mut delete) = (vec![], vec![], vec![]);
    let mut buf = vec![0u8; size];
    for i in 0..n as u64 {
        let k = LADDER_BASE + i;
        inst.payloads.fill(k as u32, 1, &mut buf);
        with_room(engine, || {
            let mut txn = engine.begin(0);
            let mut once = Vec::new();
            let r = timed(&mut once, || core::put(&mut txn, rel, &key_bytes(k), &buf));
            if no_room_is_none(r)?.is_none() {
                txn.abort();
                return Ok(None);
            }
            put.append(&mut once);
            timed(&mut commit, || core::commit(txn)).map(Some)
        })?;
    }
    engine.drain()?;
    for i in 0..n as u64 {
        let mut txn = engine.begin(0);
        timed(&mut delete, || {
            core::delete(&mut txn, rel, &key_bytes(LADDER_BASE + i))
        })?;
        core::commit(txn)?;
    }
    let mut checkpoint = vec![];
    timed(&mut checkpoint, || engine.checkpoint())?;
    rungs.push("core.put_us", &mut put, "us");
    rungs.push("core.commit_us", &mut commit, "us");
    rungs.push("core.delete_us", &mut delete, "us");
    rungs.push("core.checkpoint_ms", &mut checkpoint, "ms");

    Ok(Ladder {
        metrics: rungs.out,
        calls: rungs.calls,
        mismatches,
    })
}
