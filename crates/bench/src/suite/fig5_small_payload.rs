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
use lobster_baselines::LobsterMode;
use lobster_core::{RelationKind, ShardDevices, ShardedDatabase};
use lobster_types::Error;
use lobster_workloads::driver::{run_closed_loop, run_virtual_parallel, OpOutcome};
use lobster_workloads::Op;

pub(crate) fn run(report: &mut Report) {
    banner(
        "Figure 5 — YCSB, 120 B payloads, 50% reads",
        "§V-B Figure 5",
    );
    let records = scaled(20_000) as u64;
    // Floored so smoke-scale runs still time a stable window (see fig9).
    let ops = scaled(60_000).max(5000);

    let systems = vec![
        sys_our(LobsterMode::Rows),
        sys_fs(lobster_baselines::FsProfile::ext4_ordered),
        sys_fs(lobster_baselines::FsProfile::ext4_journal),
        sys_fs(lobster_baselines::FsProfile::xfs),
        sys_fs(lobster_baselines::FsProfile::f2fs),
        sys_sqlite(),
        sys_postgres(),
        sys_mysql(),
    ];

    let mut table = Table::new(&["system", "txn/s", "syscalls/txn", "memcpy/txn"]);
    let mut our_rate = 0.0;
    let mut best_other = 0.0f64;
    for spec in systems {
        let store = (spec.build)();
        let mut gen = YcsbGenerator::new(YcsbConfig {
            records,
            read_ratio: 0.5,
            payload: PayloadDist::Fixed(120),
            zipf_theta: 0.99,
            seed: 42,
        });
        load_ycsb(store.as_ref(), &mut gen).expect("load");
        let before = store.stats().metrics;
        let run = run_ycsb(store.as_ref(), &mut gen, ops).expect("run");
        let delta = store.stats().metrics - before;
        let rate = run.throughput();
        if spec.name == "Our" {
            our_rate = rate;
        } else {
            best_other = best_other.max(rate);
        }
        report.push(
            Entry::throughput(spec.name, rate)
                .param("payload", "120B")
                .param("read_ratio", "0.5")
                .latency("op", run.summary())
                .counters(delta),
        );
        table.row(&[
            spec.name.to_string(),
            fmt_rate(rate),
            format!("{:.1}", delta.syscalls as f64 / run.ops as f64),
            fmt_bytes(delta.memcpy_bytes as f64 / run.ops as f64),
        ]);
    }
    table.print();
    let ratio = our_rate / best_other.max(1e-9);
    println!("\nOur vs best competitor: {ratio:.1}x (paper: ≥3.5x)");
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
    println!("\nSharded engine, threads = 1..{MAX_THREADS} (closed-loop clients):");

    let mut table = Table::new(&[
        "threads", "driver", "txn/s", "p50", "p95", "p99", "retries", "speedup",
    ]);
    let mut base_rate = 0.0f64;
    let mut last_speedup = 0.0f64;
    for t in THREAD_COUNTS {
        let parts = (0..t)
            .map(|_| ShardDevices {
                data: mem_device(512 << 20),
                wal: mem_device(128 << 20),
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
        let ycfg = YcsbConfig {
            records,
            read_ratio: 0.5,
            payload: PayloadDist::Fixed(120),
            zipf_theta: 0.99,
            seed: 42,
        };
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
        last_speedup = speedup;
        let s = run.latency.summary();
        table.row(&[
            format!("{t}"),
            mode.to_string(),
            fmt_rate(rate),
            lobster_metrics::fmt_ns(s.p50_ns),
            lobster_metrics::fmt_ns(s.p95_ns),
            lobster_metrics::fmt_ns(s.p99_ns),
            format!("{}", run.retries),
            format!("{speedup:.2}x"),
        ]);

        report.push(
            Entry::throughput("Our.sharded", rate)
                .param("payload", "120B")
                .param("read_ratio", "0.5")
                .param("threads", t)
                .latency("op", s),
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
    table.print();
    println!("Sharded speedup at {MAX_THREADS} threads: {last_speedup:.2}x (target ≥2.5x)");
}
