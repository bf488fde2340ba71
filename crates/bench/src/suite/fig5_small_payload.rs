//! Figure 5: YCSB with normal payload size (120 B), 50 % reads,
//! single-threaded — plus the `threads = 1..N` scalability axis over the
//! sharded engine.
//!
//! Paper shape: all file systems and SQLite beat PostgreSQL and MySQL
//! (which pay socket + serialization per statement); **Our ≥ 3.5× everyone
//! else** because a point operation is a pure in-process B-Tree op with no
//! kernel crossing at all.
//!
//! The threads axis runs the same workload against [`ShardedDatabase`]
//! with `t` shards driven by `t` closed-loop clients. Each thread count
//! gets its own `Our.sharded` throughput, conflict-retry and
//! speedup-over-one-thread rows (`threads=t` in the params).

use crate::*;
use lobster_baselines::{ClientServerCost, FsProfile, LobsterMode};
use lobster_core::{RelationKind, ShardDevices, ShardedDatabase};
use lobster_types::Error;
use lobster_workloads::driver::{run_closed_loop, run_virtual_parallel, OpOutcome};
use lobster_workloads::Op;

pub(crate) fn run(report: &mut Report) {
    let records = scaled(20_000) as u64;
    // Floored so smoke-scale runs still time a stable window (see fig9).
    let ops = scaled(60_000).max(5000);

    let systems = [
        sys_our(LobsterMode::Rows),
        sys_fs(FsProfile::ext4_ordered),
        sys_fs(FsProfile::ext4_journal),
        sys_fs(FsProfile::xfs),
        sys_fs(FsProfile::f2fs),
        sys_sqlite(false),
        sys_postgres(ClientServerCost::unix_socket()),
        sys_mysql(ClientServerCost::unix_socket()),
    ];

    let mut our_rate = 0.0;
    let mut best_other = 0.0f64;
    for spec in systems {
        let store = spec.build(&Rig::YCSB);
        let cfg = ycsb_config(records, 0.5, PayloadDist::Fixed(120));
        let (run, delta) = run_ycsb(store.as_ref(), cfg, ops).expect("run");
        if spec.name == "Our" {
            our_rate = run.rate();
        } else {
            best_other = best_other.max(run.rate());
        }
        report.push(
            Entry::throughput(spec.name, run.rate())
                .param("payload", "120B")
                .param("read_ratio", "0.5")
                .latency("op", run.summary())
                .counters(delta, run.ops),
        );
    }
    let ratio = our_rate / best_other.max(1e-9);
    report.push(Entry::new("Our", "speedup_vs_best", "x", ratio, true));

    threads_axis(report, records, ops);
}

/// Ceiling of the scalability axis: the shard count the ≥ 2.5× speedup
/// target is stated at.
const MAX_THREADS: usize = 4;
/// Thread counts of the axis: powers of two up to [`MAX_THREADS`].
const THREAD_COUNTS: [usize; 3] = [1, 2, MAX_THREADS];

/// The `threads = 1..N` axis: the sharded engine with `t` hash-partitioned
/// shards driven by `t` closed-loop clients. Keys route to shards by hash,
/// so the per-op path is the single-shard (`N = 1` zero-regression)
/// pipeline; the batched load phase commits through the cross-shard group
/// path. Wait-die conflict aborts are retried by the driver and reported.
fn threads_axis(report: &mut Report, records: u64, ops: usize) {
    let mut base_rate = 0.0f64;
    for t in THREAD_COUNTS {
        let parts = (0..t)
            .map(|_| ShardDevices {
                data: Dev::mem(512 << 20).build(),
                wal: Dev::mem(128 << 20).build(),
            })
            .collect();
        let mut cfg = our_config(t);
        // Constant total buffer-pool budget across the axis: per-shard
        // frames shrink as shards multiply, so speedups measure CPU
        // scaling rather than extra cache.
        cfg.pool_frames = (128 * 1024 / t as u64).max(4096);
        let sdb = ShardedDatabase::create(parts, cfg).expect("create sharded db");
        let rel = sdb
            .create_relation("ycsb", RelationKind::Kv)
            .expect("create relation");

        // Batched load: 256 keys per transaction spans shards, committing
        // through the cross-shard epoch path.
        let payload = make_payload(120, 0x10AD);
        let keys: Vec<u64> = (0..records).collect();
        for chunk in keys.chunks(256) {
            let mut txn = sdb.begin();
            for &key in chunk {
                txn.put_kv(&rel, &YcsbGenerator::key_bytes(key), &payload)
                    .expect("load put");
            }
            txn.commit().expect("load commit");
        }

        // Deterministic per-worker op streams, pre-generated so the
        // measured loop pays engine costs only. Client `w` keeps only keys
        // homed on shard `w` (the worker → shard affinity contract): the
        // shared-nothing configuration scalability experiments measure.
        // Cross-shard commits are exercised by the batched load phase.
        let ycfg = ycsb_config(records, 0.5, PayloadDist::Fixed(120));
        // Weak scaling: constant work per client, so warm-up is the same
        // fraction of every row and speedup isolates engine scaling.
        let per_thread = ops.max(500) as u64;
        let streams: Vec<Vec<Op>> = (0..t)
            .map(|w| {
                let mut g = YcsbGenerator::for_worker(&ycfg, w);
                let mut v: Vec<Op> = Vec::with_capacity(per_thread as usize);
                while v.len() < per_thread as usize {
                    let op = g.next_op();
                    let (Op::Read { key } | Op::Update { key, .. }) = op;
                    if sdb.shard_for_key(&YcsbGenerator::key_bytes(key)) == w {
                        v.push(op);
                    }
                }
                v
            })
            .collect();

        let upd = make_payload(120, 0xF00D);
        let exec = |w: usize, i: u64| {
            let mut txn = sdb.begin_with_worker(w);
            let r = match &streams[w][i as usize] {
                Op::Read { key } => txn.get_kv(&rel, &YcsbGenerator::key_bytes(*key)).map(|v| {
                    std::hint::black_box(v.map(|b| b.len()));
                }),
                Op::Update { key, .. } => txn.put_kv(&rel, &YcsbGenerator::key_bytes(*key), &upd),
            };
            match r.and_then(|()| txn.commit()) {
                Ok(()) => OpOutcome::Done,
                Err(Error::TxnConflict) => OpOutcome::Retry,
                Err(e) => panic!("sharded op failed: {e}"),
            }
        };
        // Real OS threads when the host has a core per client; otherwise
        // the serial virtual-parallel model (see its docs) — timeshared
        // threads on an undersized host measure scheduler interference,
        // not engine scaling.
        let hw = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        let (run, mode) = if hw >= t {
            (run_closed_loop(t, per_thread, exec), "threads")
        } else {
            (run_virtual_parallel(t, per_thread, exec), "modeled")
        };
        sdb.wait_for_durability().expect("quiesce");
        sdb.shutdown().expect("shutdown");

        let rate = run.ops_per_sec();
        if t == 1 {
            base_rate = rate;
        }
        let speedup = rate / base_rate.max(1e-9);
        report.push(
            Entry::throughput("Our.sharded", rate)
                .param("payload", "120B")
                .param("read_ratio", "0.5")
                .param("threads", t)
                .latency("op", run.latency.summary()),
        );
        report.push(
            Entry::new(
                "Our.sharded",
                "conflict_retries",
                "ops",
                run.retries as f64,
                false,
            )
            .param("threads", t)
            .param("driver", mode),
        );
        report.push(
            Entry::new("Our.sharded", "speedup_vs_1thread", "x", speedup, true).param("threads", t),
        );
    }
}
