//! One run of one workload: set-up, warm-up, the timed window cut into
//! sub-windows, drain, and the durability epilogue; in a traced run also
//! the traced half-window, the front-door ladder and the layer probes.

use crate::device::{Counts, Role};
use crate::gen::key_bytes;
use crate::layers::core::{self, Engine, Error, Snapshot};
use crate::recorder::{self, median_f64, Class, Grid, Stat, WindowStats};
use crate::workload::{
    connect_all, put_new, Client, ClientResult, Door, Failures, Instance, Spec, Tally,
};
use crate::{ladder, probes, trace};
use lobster_types::Result;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Sub-windows of the timed window.
pub const SUB_WINDOWS: usize = 6;
/// Times set-up is repeated in an untraced run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;
/// Durable puts, and puts left unacknowledged, per epilogue round.
pub const EPILOGUE_ACKED: u64 = 200;
pub const EPILOGUE_UNACKED: u64 = 20;
/// Crash-and-reopen rounds; `recovery_ms` is the median. At least the
/// first number of rounds, then more while the epilogue has taken less than
/// `EPILOGUE_BUDGET`, up to the second: a reopen of a few milliseconds
/// (small blobs) needs more rounds for a steady median than one of half a
/// second, and can afford them.
pub const EPILOGUE_ROUNDS: (usize, usize) = (3, 9);
pub const EPILOGUE_BUDGET: Duration = Duration::from_millis(1500);
const EPILOGUE_BASE: u64 = 1 << 30;

#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Length of the timed window.
    pub seconds: f64,
    pub warmup: f64,
    pub trace: bool,
    pub quick: bool,
}

/// Name, value, unit and sample count of one reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub n: u64,
}

pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Of `failed`: operations still refused (BUSY, lock conflict, no
    /// pool room) after every retry. The rest are errors, content
    /// mismatches and lost acknowledged writes.
    pub refused: u64,
    /// Lines for the human reader: failures, cross-checks, sample floors.
    pub notes: Vec<String>,
    /// Sticky committer errors: the engine did not quiesce cleanly.
    pub commit_errors: u64,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, n: u64) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            n,
        }
    }
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.commit_errors == 0
    }

    fn push(&mut self, name: &str, value: f64, unit: &'static str, n: u64) {
        self.metrics.push(Metric::new(name, value, unit, n));
    }
}

/// State of the process, engine and devices at one instant.
struct Mark {
    cpu: Duration,
    counters: Snapshot,
    data: Counts,
    wal: Counts,
    at_ns: u64,
}

fn mark(inst: &Instance) -> Mark {
    Mark {
        cpu: recorder::process_cpu(),
        counters: inst.engine.counters(),
        data: inst.device_counts(Role::Data),
        wal: inst.device_counts(Role::Wal),
        at_ns: trace::now_ns(),
    }
}

struct Window {
    results: Vec<ClientResult>,
    /// Marks at the start, (traced run) the middle, and the end.
    marks: Vec<Mark>,
}

impl Window {
    fn tally(&self, from: usize, to: usize) -> Tally {
        let mut t = Tally::default();
        for r in &self.results {
            for w in &r.tallies[from..to] {
                t.add(w);
            }
        }
        t
    }

    /// Completed reads and writes of both clients.
    fn ops(&self, from: usize, to: usize) -> [u64; 2] {
        self.results.iter().fold([0; 2], |acc, r| {
            let o = r.log.ops(from, to);
            [acc[0] + o[0], acc[1] + o[1]]
        })
    }

    fn stats(&self, from: usize, to: usize) -> WindowStats {
        let logs: Vec<_> = self.results.iter().map(|r| &r.log).collect();
        recorder::reduce(&logs, from, to)
    }
}

/// Warm up, then run both clients over the grid. In a traced run the
/// recorder and the devices' time mode are switched on for the second half.
fn run_window(inst: &mut Instance, shape: Shape) -> Result<Window> {
    let server = match inst.spec.door {
        Door::Tcp => inst.server.as_ref(),
        Door::Lib => None,
    };
    let clients: Vec<Client> = connect_all(server)?
        .into_iter()
        .enumerate()
        .map(|(c, conn)| Client::new(inst, c, conn))
        .collect();
    let grid = Grid {
        start: Instant::now() + Duration::from_secs_f64(shape.warmup),
        sub: Duration::from_secs_f64(shape.seconds / SUB_WINDOWS as f64),
        count: SUB_WINDOWS,
    };
    let sleep_until = |t: Instant| std::thread::sleep(t.saturating_duration_since(Instant::now()));
    let (results, marks) = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|c| s.spawn(move || c.run(grid)))
            .collect();
        let mut marks = Vec::new();
        sleep_until(grid.start);
        marks.push(mark(inst));
        if shape.trace {
            sleep_until(grid.start + grid.sub * (SUB_WINDOWS / 2) as u32);
            inst.all_devices().for_each(|d| d.set_timing(true));
            trace::set_enabled(true);
            marks.push(mark(inst));
        }
        sleep_until(grid.end());
        trace::set_enabled(false);
        inst.all_devices().for_each(|d| d.set_timing(false));
        marks.push(mark(inst));
        let results: Vec<ClientResult> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (results, marks)
    });
    for (c, r) in results.iter().enumerate() {
        inst.live[c] = r.live.clone();
        inst.next_key[c] = r.next_key;
    }
    Ok(Window { results, marks })
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The end-to-end metrics that come from the timed window.
fn end_to_end(report: &mut Report, w: &Window) {
    let s = w.stats(0, SUB_WINDOWS);
    let t = w.tally(0, SUB_WINDOWS);
    let done = w.ops(0, SUB_WINDOWS);
    let (m0, m1) = (&w.marks[0], &w.marks[w.marks.len() - 1]);
    let ops = (done[0] + done[1]) as f64;
    let push_stat = |report: &mut Report, name: &str, st: Stat, unit| {
        report.push(name, st.value, unit, st.n);
    };
    push_stat(report, "ops_per_s", s.ops_per_s, "1/s");
    push_stat(report, "read_p50_us", s.p50_us[0], "us");
    push_stat(report, "write_p50_us", s.p50_us[1], "us");
    // The tails are per-layer metrics of the traced run (see README); an
    // untraced run shows them to the reader only.
    report.notes.push(format!(
        "tails (not gated): read p99 {:.1} us, write p99 {:.1} us",
        s.p99_us[0].value, s.p99_us[1].value
    ));
    let column =
        |i: usize| -> Vec<String> { s.series.iter().map(|w| format!("{:.1}", w[i])).collect() };
    report.notes.push(format!(
        "sub-windows: ops/s [{}] read p50 us [{}] write p50 us [{}]",
        column(0).join(" "),
        column(1).join(" "),
        column(2).join(" ")
    ));
    tail_notes(&s, &mut report.notes);
    let written = m1.data.since(&m0.data).write_bytes + m1.wal.since(&m0.wal).write_bytes;
    report.push(
        "write_amp",
        ratio(written as f64, t.bytes[1] as f64),
        "ratio",
        done[1],
    );
    let cpu = m1.cpu.saturating_sub(m0.cpu);
    report.push(
        "cpu_us_per_op",
        ratio(cpu.as_secs_f64() * 1e6, ops),
        "us",
        ops as u64,
    );
}

/// Say where a tail is not a p99 because a sub-window is too thin.
fn tail_notes(s: &WindowStats, notes: &mut Vec<String>) {
    for (class, name) in [(Class::Read, "read"), (Class::Write, "write")] {
        let q = s.tail_q[class as usize];
        if q < 0.99 {
            notes.push(format!(
                "{name} p99: a sub-window has too few samples for a p99; it is the p{:.1} there (ten samples beyond it)",
                q * 100.0
            ));
        }
    }
}

/// Compare the devices' own counts with the engine's counters over the
/// window; a disagreement is reported, not failed.
fn cross_check(m0: &Mark, m1: &Mark, notes: &mut Vec<String>) {
    let d = m1.counters - m0.counters;
    let data = m1.data.since(&m0.data);
    let wal = m1.wal.since(&m0.wal);
    let rows = [
        (
            "write bytes (data+wal device vs bytes_written)",
            data.write_bytes + wal.write_bytes,
            d.bytes_written,
        ),
        ("wal syncs (wal device vs fsyncs)", wal.syncs, d.fsyncs),
        (
            "wal bytes (wal device writes vs wal_bytes appended)",
            wal.write_bytes,
            d.wal_bytes,
        ),
    ];
    for (what, outside, inside) in rows {
        let off = ratio(
            (outside as f64 - inside as f64).abs(),
            outside.max(inside) as f64,
        );
        let flag = if off > 0.01 { "  DISAGREE >1%" } else { "" };
        notes.push(format!(
            "cross-check {what}: outside={outside} inside={inside}{flag}"
        ));
    }
}

/// Per-layer count metrics over the traced half-window.
fn layer_counts(report: &mut Report, w: &Window) {
    let half = SUB_WINDOWS / 2;
    let t = w.tally(half, SUB_WINDOWS);
    let done = w.ops(half, SUB_WINDOWS);
    let (m0, m1) = (&w.marks[1], &w.marks[2]);
    let d = m1.counters - m0.counters;
    let data = m1.data.since(&m0.data);
    let wal = m1.wal.since(&m0.wal);
    let ops = (done[0] + done[1]) as f64;
    let writes = done[1] as f64;
    let user_bytes = (t.bytes[0] + t.bytes[1]) as f64;
    let n = ops as u64;
    let f = |v: u64| v as f64;
    let mut c = |name: &str, value: f64, unit| report.push(name, value, unit, n);

    c(
        "serve.busy_share",
        ratio(f(d.serve_rejects), f(d.serve_requests)),
        "fraction",
    );
    c(
        "serve.requests_per_op",
        ratio(f(d.serve_requests), ops),
        "count",
    );
    c("core.commits_per_op", ratio(f(d.txn_commits), ops), "count");
    c("core.aborts_per_op", ratio(f(d.txn_aborts), ops), "count");
    c(
        "core.conflict_retries_per_kop",
        ratio(f(t.retries) * 1000.0, ops),
        "count",
    );
    c(
        "btree.node_accesses_per_op",
        ratio(f(d.btree_node_accesses), ops),
        "count",
    );
    // The pool counts the creation of a fresh extent as a miss, so misses
    // are taken from outside: one data-device read per faulted extent.
    c(
        "buffer.hit_ratio",
        ratio(f(d.cache_hits), f(d.cache_hits + data.reads)),
        "fraction",
    );
    c(
        "buffer.translations_per_op",
        ratio(f(d.translations), ops),
        "count",
    );
    c(
        "buffer.latches_per_op",
        ratio(f(d.latch_acquisitions), ops),
        "count",
    );
    c(
        "buffer.alias_ops_per_op",
        ratio(f(d.alias_ops), ops),
        "count",
    );
    c(
        "buffer.memcpy_bytes_per_user_byte",
        ratio(f(d.memcpy_bytes), user_bytes),
        "ratio",
    );
    c(
        "buffer.fault_batches_per_op",
        ratio(f(d.fault_batches), ops),
        "count",
    );
    c(
        "buffer.pages_faulted_per_op",
        ratio(f(d.pages_read), ops),
        "count",
    );
    c(
        "buffer.readahead_hit_ratio",
        ratio(f(d.readahead_hit), f(d.readahead_issued)),
        "fraction",
    );
    c(
        "buffer.readahead_waste_ratio",
        ratio(f(d.readahead_wasted), f(d.readahead_issued)),
        "fraction",
    );
    c("wal.bytes_per_write_op", ratio(f(d.wal_bytes), writes), "B");
    c(
        "wal.groups_per_kcommit",
        ratio(f(d.commit_wal_groups) * 1000.0, writes),
        "count",
    );
    c(
        "wal.flush_batches_per_kcommit",
        ratio(f(d.commit_flush_batches) * 1000.0, writes),
        "count",
    );
    c(
        "wal.commit_stalls_per_kcommit",
        ratio(f(d.commit_stalls) * 1000.0, writes),
        "count",
    );
    c("wal.checkpoints", f(d.checkpoints), "count");
    c(
        "wal.dev_syncs_per_write_op",
        ratio(f(wal.syncs), writes),
        "count",
    );
    c(
        "wal.dev_write_bytes_per_write_op",
        ratio(f(wal.write_bytes), writes),
        "B",
    );
    c(
        "extent.allocs_per_put",
        ratio(f(d.extent_allocs), writes),
        "count",
    );
    c(
        "extent.frees_per_delete",
        ratio(f(d.extent_frees), f(t.deletes)),
        "count",
    );
    c(
        "storage.data_reads_per_op",
        ratio(f(data.reads), ops),
        "count",
    );
    c(
        "storage.data_read_bytes_per_op",
        ratio(f(data.read_bytes), ops),
        "B",
    );
    c(
        "storage.data_writes_per_op",
        ratio(f(data.writes), ops),
        "count",
    );
    c(
        "storage.data_write_bytes_per_user_byte",
        ratio(f(data.write_bytes), f(t.bytes[1])),
        "ratio",
    );
    c(
        "storage.data_syncs_per_op",
        ratio(f(data.syncs), ops),
        "count",
    );
}

/// Per-layer timing metrics of the traced half-window: device call
/// times, device busy shares, tracing overhead and span closure.
fn layer_trace(report: &mut Report, inst: &Instance, w: &Window) -> Result<()> {
    let half = SUB_WINDOWS / 2;
    let untraced = w.stats(0, half);
    let traced = w.stats(half, SUB_WINDOWS);
    let (from, to) = (w.marks[1].at_ns, w.marks[2].at_ns);
    let spans = trace::collect();

    let mut reads = Vec::new();
    let mut writes = Vec::new();
    for d in &inst.devices {
        let t = d.data.take_timings();
        reads.extend(t.read_ns);
        writes.extend(t.write_ns);
        d.wal.take_timings();
    }
    let p50_us = |v: &mut Vec<u64>| recorder::median_u64(v) as f64 / 1000.0;
    let (nr, nw) = (reads.len() as u64, writes.len() as u64);
    report.push("storage.data_read_us_p50", p50_us(&mut reads), "us", nr);
    report.push("storage.data_write_us_p50", p50_us(&mut writes), "us", nw);
    report.push(
        "storage.data_busy_share",
        spans.busy_share("dev.data.", from, to),
        "fraction",
        nr + nw,
    );
    report.push(
        "wal.dev_busy_share",
        spans.busy_share("dev.wal.", from, to),
        "fraction",
        0,
    );
    // The tails, from the untraced half: median over its sub-windows.
    report.push(
        "tail.read_p99_us",
        untraced.p99_us[0].value,
        "us",
        untraced.p99_us[0].n,
    );
    report.push(
        "tail.write_p99_us",
        untraced.p99_us[1].value,
        "us",
        untraced.p99_us[1].n,
    );
    tail_notes(&untraced, &mut report.notes);
    report.push(
        "bench.trace_overhead",
        1.0 - ratio(traced.ops_per_s.value, untraced.ops_per_s.value),
        "fraction",
        traced.ops,
    );
    // Closure: what the front-door spans (self time) and the device spans
    // on the operation's own thread cover of the operations' wall time.
    let stats = spans.stats(from, to);
    let op_total = stats.get("op").map_or(0, |s| s.total_ns);
    let op_self = stats.get("op").map_or(0, |s| s.self_ns);
    report.push(
        "bench.closure_share",
        ratio((op_total - op_self) as f64, op_total as f64),
        "fraction",
        stats.get("op").map_or(0, |s| s.durations_ns.len() as u64),
    );
    for (name, st) in &stats {
        let mut d = st.durations_ns.clone();
        report.notes.push(format!(
            "span {name}: n={} p50={:.2}us self={:.1}% of its time",
            d.len(),
            recorder::median_u64(&mut d) as f64 / 1000.0,
            100.0 * ratio(st.self_ns as f64, st.total_ns as f64)
        ));
    }
    let path = trace_dir().join(format!("trace_{}.jsonl", inst.spec.name));
    let written = spans.write_jsonl(&path).map_err(Error::Io)?;
    report.notes.push(format!(
        "trace: {written} spans written to {} ({} dropped at the buffer cap)",
        path.display(),
        spans.dropped
    ));
    Ok(())
}

/// Where trace files go: next to the build, inside the checkout.
pub fn trace_dir() -> std::path::PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target"));
    target.join("benchmark")
}

struct Epilogue {
    open_ms: Vec<f64>,
    lost: u64,
    mismatched: u64,
    unacked_survived: u64,
}

/// The durability epilogue: checkpoint, switch the WAL devices to
/// volatile mode, make `EPILOGUE_ACKED` puts durable, leave
/// `EPILOGUE_UNACKED` unacknowledged, cut the power, reopen, and read
/// every acknowledged key back. Data devices keep completed writes (the
/// engine issues no data-device barrier at commit; see README).
fn epilogue(inst: Instance, rounds: (usize, usize)) -> Result<Epilogue> {
    let Instance {
        spec,
        mut engine,
        devices,
        server,
        payloads,
        ..
    } = inst;
    if let Some(server) = server {
        server.shutdown()?;
    }
    let settings = spec.settings();
    let mut buf = vec![0u8; spec.size];
    let mut out = Epilogue {
        open_ms: Vec::new(),
        lost: 0,
        mismatched: 0,
        unacked_survived: 0,
    };
    let started = Instant::now();
    for round in 0..rounds.1 as u64 {
        if round >= rounds.0 as u64 && started.elapsed() > EPILOGUE_BUDGET {
            break;
        }
        let id = |i: u64| EPILOGUE_BASE + round * 1000 + i;
        engine.drain()?;
        engine.checkpoint()?;
        devices.iter().for_each(|d| d.wal.set_volatile(true));
        for i in 0..EPILOGUE_ACKED {
            payloads.fill(id(i) as u32, 1, &mut buf);
            put_new(&engine, 0, &key_bytes(id(i)), &buf)?;
        }
        if !spec.commit_wait {
            engine.drain()?;
        }
        // Unacknowledged: never committed where commit waits for the
        // fsync, committed but not drained where it does not.
        let mut open_txn = spec.commit_wait.then(|| engine.begin(0));
        for i in EPILOGUE_ACKED..EPILOGUE_ACKED + EPILOGUE_UNACKED {
            payloads.fill(id(i) as u32, 1, &mut buf);
            match &mut open_txn {
                Some(txn) => core::put(txn, &engine.rel, &key_bytes(id(i)), &buf)?,
                None => put_new(&engine, 0, &key_bytes(id(i)), &buf)?,
            }
        }
        devices.iter().for_each(|d| {
            d.data.crash();
            d.wal.crash();
        });
        drop(open_txn);
        drop(engine);
        devices.iter().for_each(|d| {
            d.data.revive();
            d.wal.revive();
        });

        let t = Instant::now();
        engine = Engine::open(&devices, settings)?;
        out.open_ms.push(t.elapsed().as_secs_f64() * 1e3);

        for i in 0..EPILOGUE_ACKED + EPILOGUE_UNACKED {
            let key = key_bytes(id(i));
            let mut txn = engine.begin(0);
            let found = core::get(&mut txn, &engine.rel, &key, |data| {
                data.len() == spec.size && payloads.matches(id(i) as u32, 1, 0, data)
            });
            let present = match found {
                Ok(ok) => {
                    out.mismatched += !ok as u64;
                    true
                }
                Err(Error::KeyNotFound) => false,
                Err(e) => return Err(e),
            };
            if present {
                core::delete(&mut txn, &engine.rel, &key)?;
            }
            core::commit(txn)?;
            match (i < EPILOGUE_ACKED, present) {
                (true, false) => out.lost += 1,
                (false, true) => out.unacked_survived += 1,
                _ => {}
            }
        }
    }
    engine.drain()?;
    Ok(out)
}

/// `r`, with the phase it failed in.
fn at<T>(phase: &str, r: Result<T>) -> std::result::Result<T, String> {
    r.map_err(|e| format!("{phase}: {e}"))
}

/// Run `spec` once and report.
pub fn run(spec: Spec, seed: u64, shape: Shape) -> std::result::Result<Report, String> {
    let spec = if shape.quick { spec.quick() } else { spec };
    let mut report = Report {
        workload: spec.name,
        seed,
        trace: shape.trace,
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        refused: 0,
        notes: Vec::new(),
        commit_errors: 0,
    };

    // Set-up, repeated so that `setup_s` is a median; the last instance
    // is the one measured.
    let repeats = if shape.trace { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::new();
    let mut inst = None;
    for _ in 0..repeats {
        if let Some(previous) = inst.take() {
            at("tear-down", Instance::tear_down(previous))?;
        }
        let t = Instant::now();
        inst = Some(at("set-up", Instance::set_up(spec, seed))?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut inst = inst.expect("at least one set-up");

    let window = at("window", run_window(&mut inst, shape))?;
    let mut failures: Failures = window.tally(0, SUB_WINDOWS).failures;
    let done = window.ops(0, SUB_WINDOWS);
    report.attempted = done[0] + done[1] + failures.total();
    for r in &window.results {
        if let Some(f) = &r.first_failure {
            report.notes.push(format!("first failure: {f}"));
        }
    }

    // Drain, then the space figures.
    let t = Instant::now();
    at("drain", inst.engine.drain())?;
    let drain_ms = t.elapsed().as_secs_f64() * 1e3;
    let high_water = inst.device_counts(Role::Data).high_water;
    let live = inst.live_user_bytes();

    if shape.trace {
        layer_counts(&mut report, &window);
        at("trace", layer_trace(&mut report, &inst, &window))?;
        let (utilization, fragmentation) = inst.engine.space_stats();
        report.push("extent.utilization", utilization, "fraction", 1);
        report.push("extent.fragmentation_score", fragmentation, "fraction", 1);
        report.push("core.drain_ms", drain_ms, "ms", 1);
        let ladder = at("ladder", ladder::run(&inst))?;
        failures.mismatches += ladder.mismatches;
        report.attempted += ladder.calls;
        report.metrics.extend(ladder.metrics);
        report
            .metrics
            .extend(at("probes", probes::run(shape.quick))?);
        let value = |name: &str| by_name(&report).get(name).map_or(0.0, |m| m.value);
        let hash_us = value("sha256.ns_per_kib") * (spec.size as f64 / 1024.0) / 1e3;
        let share = ratio(hash_us, value("core.put_us"));
        report.push("sha256.share_of_put", share, "fraction", 1);
    } else {
        end_to_end(&mut report, &window);
        report.push(
            "space_amp",
            ratio(high_water as f64, live as f64),
            "ratio",
            1,
        );
        let n = setup_s.len() as u64;
        report.push("setup_s", median_f64(&mut setup_s), "s", n);
    }
    cross_check(
        &window.marks[0],
        &window.marks[window.marks.len() - 1],
        &mut report.notes,
    );

    report.commit_errors = inst.engine.counters().commit_errors;
    let rounds = if shape.quick { (1, 1) } else { EPILOGUE_ROUNDS };
    let e = at("epilogue", epilogue(inst, rounds))?;
    let rounds = e.open_ms.len() as u64;
    let mut open_ms = e.open_ms;
    let recovery = median_f64(&mut open_ms);
    if shape.trace {
        report.push("core.open_ms", recovery, "ms", rounds);
    } else {
        report.push("recovery_ms", recovery, "ms", rounds);
        report.push("peak_rss_mb", recorder::peak_rss_mib(), "MiB", 1);
    }
    report.attempted += rounds * EPILOGUE_ACKED;
    report.notes.push(format!(
        "epilogue: {} rounds, {} acked puts each, lost={} mismatched={} unacked survivors={}",
        rounds, EPILOGUE_ACKED, e.lost, e.mismatched, e.unacked_survived
    ));
    report.failed = failures.total() + e.lost + e.mismatched;
    report.refused = failures.exhausted;
    Ok(report)
}

/// Metric name → value, for the tests and the JSON output.
pub fn by_name(report: &Report) -> BTreeMap<&str, &Metric> {
    report
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m))
        .collect()
}
