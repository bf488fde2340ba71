//! Aging torture bench: weeks of create/delete/append churn compressed
//! into minutes, with and without the background defragmenter.
//!
//! The churn ages the store the way "Fragmentation in Large Object
//! Repositories" describes: a fill near capacity, a random 70 % deletion,
//! then a mixed create/delete/append load whose large puts (0.9–1.6 MiB)
//! need long free runs between live small BLOBs. The allocator's free-run
//! map merges each freed extent with its free neighbours, so free space
//! does not shatter along old extent boundaries and a large put finds a
//! run whenever that much free space sits together; what still ages is
//! placement — puts carved from several holes — which the defragmenter's
//! relocation pass repairs online.
//!
//! Two headline rows (`defrag-off`, `defrag-on` steady-state throughput)
//! and their ratio, plus per-window throughput/fragmentation timelines as
//! info rows. `LOBSTER_AGING_GATE=1` (set in CI) additionally
//! hard-asserts: no operation refused (after its client retries) on
//! either run, a fragmentation score that does not climb with defrag on,
//! and a defragmenter that ran passes. The ratio is reported, not
//! asserted: with free space merging at free, both runs sit near the same
//! steady state.

use crate::*;
use lobster_core::{Database, DefragConfig, Defragmenter, Relation, RelationKind, Txn};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

const DEV_BYTES: usize = 64 << 20;
/// WAL device with headroom above the checkpoint threshold: the long churn
/// must auto-checkpoint (truncating the log) well before the device limit,
/// or commits start failing with a full WAL and freed space stops retiring.
const WAL_BYTES: usize = 128 << 20;
const WINDOWS: usize = 10;
/// Retry budget for a failed placement: a real client re-tries the upload
/// with exponential backoff (1, 2, 4, ... ms — giving background
/// maintenance a chance to make room or a conflicting relocation a chance
/// to commit) before giving up. Without the defragmenter a starved large
/// placement always burns the whole budget.
const PUT_RETRIES: usize = 6;

fn backoff(attempt: usize) -> Duration {
    Duration::from_millis(1 << attempt.min(4))
}
/// Churn regulation set-point: deletes keep the *live payload bytes* near
/// this fraction of the device, the high-churn regime where free-space
/// geometry decides throughput. Bench-side accounting (not
/// `Database::utilization`) so the set-point is immune to maintenance
/// transients: a relocation double-holds old + new placements until the
/// durability frontier and would otherwise skew the regulator.
const LIVE_TARGET: f64 = 0.50;

struct RunOutcome {
    steady_ops_per_sec: f64,
    window_rate: Vec<f64>,
    window_score: Vec<f64>,
    failed_ops: u64,
    /// Counter delta over the measured windows, and their attempts.
    delta: lobster_metrics::Snapshot,
    attempts: u64,
}

fn small_len(rng: &mut StdRng) -> usize {
    rng.gen_range(90_000..=130_000)
}

fn large_len(rng: &mut StdRng) -> usize {
    rng.gen_range(900_000..=1_600_000)
}

/// Run `op` in a transaction of its own, retrying a failed attempt (a
/// conflict or a full store) after a backoff, up to [`PUT_RETRIES`]
/// attempts. Returns whether it committed.
fn with_retries(
    db: &Arc<Database>,
    mut op: impl FnMut(&mut Txn) -> lobster_types::Result<()>,
) -> bool {
    for attempt in 0..PUT_RETRIES {
        let mut t = db.begin();
        if op(&mut t).and_then(|()| t.commit()).is_ok() {
            return true;
        }
        if attempt + 1 < PUT_RETRIES {
            std::thread::sleep(backoff(attempt));
        }
    }
    false
}

/// One run's client: the store, its seeded RNG, and the live BLOBs as
/// (key, bytes).
struct Churn {
    db: Arc<Database>,
    rel: Arc<Relation>,
    rng: StdRng,
    live: Vec<(u64, usize)>,
    live_bytes: usize,
    next_key: u64,
}

impl Churn {
    fn new_key(&mut self) -> u64 {
        self.next_key += 1;
        self.next_key - 1
    }

    /// Age the store the way months of mixed churn would: sequential small
    /// fill near capacity, then random 70% deletion, which leaves free space
    /// in holes between the survivors.
    fn age(&mut self) {
        while self.db.utilization() < 0.90 && self.live.len() < 2_000 {
            let key = self.new_key();
            let payload = make_payload(small_len(&mut self.rng), key);
            let mut t = self.db.begin();
            t.put_blob(&self.rel, key_name(key).as_bytes(), &payload)
                .expect("aging fill put");
            t.commit().expect("aging fill commit");
            self.live.push((key, payload.len()));
        }
        let (db, rel, rng) = (&self.db, &self.rel, &mut self.rng);
        self.live.retain(|&(key, _)| {
            if rng.gen_bool(0.7) {
                let mut t = db.begin();
                t.delete_blob(rel, key_name(key).as_bytes())
                    .expect("aging delete");
                t.commit().expect("aging delete commit");
                false
            } else {
                true
            }
        });
        self.live_bytes = self.live.iter().map(|&(_, b)| b).sum();
    }

    /// One workload op with the client retry loop; returns true if counted.
    fn op(&mut self) -> bool {
        if self.live_bytes as f64 > LIVE_TARGET * DEV_BYTES as f64 && !self.live.is_empty() {
            let idx = self.rng.gen_range(0..self.live.len());
            let (key, bytes) = self.live.swap_remove(idx);
            // Wait-die locking can abort the delete when it races a
            // relocation of the same blob; the client retries like any
            // conflicted txn.
            let delete = |t: &mut Txn| t.delete_blob(&self.rel, key_name(key).as_bytes());
            if with_retries(&self.db, delete) {
                self.live_bytes -= bytes;
                return true;
            }
            self.live.push((key, bytes));
            return false;
        }
        let r: f64 = self.rng.gen();
        let (key, payload, append_idx) = if r < 0.60 || self.live.is_empty() {
            let key = self.new_key();
            (key, make_payload(small_len(&mut self.rng), key), None)
        } else if r < 0.85 {
            let key = self.new_key();
            (key, make_payload(large_len(&mut self.rng), key), None)
        } else {
            let idx = self.rng.gen_range(0..self.live.len());
            let key = self.live[idx].0;
            let len = self.rng.gen_range(96_000..=160_000);
            (key, make_payload(len, key ^ 0xA5), Some(idx))
        };
        let (db, rel) = (&self.db, &self.rel);
        let committed = with_retries(db, |t| match append_idx {
            Some(_) => t.append_blob(rel, key_name(key).as_bytes(), &payload),
            None => t.put_blob(rel, key_name(key).as_bytes(), &payload),
        });
        if committed {
            match append_idx {
                Some(idx) => self.live[idx].1 += payload.len(),
                None => self.live.push((key, payload.len())),
            }
            self.live_bytes += payload.len();
        }
        committed
    }
}

fn run_once(defrag: bool, attempts: usize) -> RunOutcome {
    let cfg = Config {
        checkpoint_threshold: 24 << 20,
        ..our_config(1)
    };
    let db = Database::create(
        Dev::mem(DEV_BYTES).build(),
        Dev::mem(WAL_BYTES).build(),
        cfg,
    )
    .expect("create db");
    let mut churn = Churn {
        db: db.clone(),
        rel: db
            .create_relation("aging", RelationKind::Blob)
            .expect("relation"),
        rng: StdRng::seed_from_u64(47 + defrag as u64),
        live: Vec::new(),
        live_bytes: 0,
        next_key: 0,
    };
    churn.age();

    let maintenance = defrag.then(|| {
        let d = Defragmenter::start(
            vec![db.clone()],
            // Calm cadence: a small relocation batch every pass repairs the
            // worst offenders without flooding the lock table or the commit
            // pipeline.
            DefragConfig {
                interval: Duration::from_millis(10),
                min_score: 0.02,
                batch_blobs: 4,
                scrub_batch: 2,
            },
        );
        // Let the first relocation passes land before measuring,
        // mirroring a store whose maintenance loop is always-on.
        std::thread::sleep(Duration::from_millis(30));
        d
    });

    // Unmeasured warmup reaches the regime's steady state (off-run: the
    // holes the aging left taken; on-run: maintenance keeping up with churn). The
    // on-run additionally warms until the client stops observing failures
    // — we measure the maintained steady state, not the catch-up ramp.
    for _ in 0..attempts / 5 {
        churn.op();
    }
    if defrag {
        let mut streak = 0usize;
        for _ in 0..attempts {
            if churn.op() {
                streak += 1;
                if streak >= 150 {
                    break;
                }
            } else {
                streak = 0;
            }
        }
    }

    let before = db.metrics().snapshot();
    let mut failed = 0u64;
    let per_window = (attempts / WINDOWS).max(1);
    let mut window_rate = Vec::with_capacity(WINDOWS);
    let mut window_score = Vec::with_capacity(WINDOWS);
    for _ in 0..WINDOWS {
        let mut counted = 0u64;
        let start = Instant::now();
        for _ in 0..per_window {
            if churn.op() {
                counted += 1;
            } else {
                failed += 1;
            }
        }
        window_rate.push(counted as f64 / start.elapsed().as_secs_f64().max(1e-9));
        window_score.push(db.fragmentation_score());
    }
    db.wait_for_durability().expect("durability frontier");
    if let Some(d) = maintenance {
        d.stop();
    }
    let delta = db.metrics().snapshot() - before;

    // The aged store must still be fully readable: spot-check survivors
    // (relocation and scrubbing ran concurrently with the churn).
    {
        let mut t = db.begin();
        for &(key, _) in churn.live.iter().take(32) {
            let ok = t
                .scrub_blob(&churn.rel, key_name(key).as_bytes())
                .expect("scrub readback");
            assert_eq!(ok, Some(true), "blob {key} failed integrity after aging");
        }
        t.commit().expect("readback commit");
    }
    db.blob_pool().audit().assert_no_leaked_pins();

    let tail = &window_rate[WINDOWS - 4..];
    RunOutcome {
        steady_ops_per_sec: tail.iter().sum::<f64>() / tail.len() as f64,
        window_rate,
        window_score,
        failed_ops: failed,
        delta,
        attempts: (per_window * WINDOWS) as u64,
    }
}

pub fn run(report: &mut Report) {
    let attempts = scaled(6_000).max(2_500);
    let mut outcomes = Vec::new();
    for &defrag in &[false, true] {
        let name = if defrag { "defrag-on" } else { "defrag-off" };
        let out = run_once(defrag, attempts);
        let score_end = *out.window_score.last().unwrap();
        let score_max = out.window_score.iter().cloned().fold(0.0, f64::max);
        report.push(
            Entry::throughput(name, out.steady_ops_per_sec)
                .param("phase", "steady")
                .counters(out.delta, out.attempts),
        );
        report.push(Entry::new(
            name,
            "failed_ops",
            "ops",
            out.failed_ops as f64,
            false,
        ));
        report.push(Entry::new(
            name,
            "frag_score_end",
            "score",
            score_end,
            false,
        ));
        report.push(Entry::new(
            name,
            "frag_score_max",
            "score",
            score_max,
            false,
        ));
        for (i, (&rate, &score)) in out.window_rate.iter().zip(&out.window_score).enumerate() {
            report.push(
                Entry::new(name, "window_throughput", "ops/s", rate, true)
                    .param("window", i.to_string()),
            );
            report.push(
                Entry::new(name, "window_frag_score", "score", score, false)
                    .param("window", i.to_string()),
            );
        }
        outcomes.push(out);
    }

    let ratio = outcomes[1].steady_ops_per_sec / outcomes[0].steady_ops_per_sec.max(1e-9);
    report.push(Entry::new(
        "defrag-on/off",
        "steady_ratio",
        "x",
        ratio,
        true,
    ));

    if std::env::var("LOBSTER_AGING_GATE").as_deref() == Ok("1") {
        for (out, name) in outcomes.iter().zip(["defrag-off", "defrag-on"]) {
            assert!(
                out.failed_ops == 0,
                "aging gate: {name} refused {} operations",
                out.failed_ops
            );
        }
        let on = &outcomes[1].window_score;
        let early = on[2..WINDOWS / 2].iter().sum::<f64>() / (WINDOWS / 2 - 2) as f64;
        let late = on[WINDOWS - 3..].iter().sum::<f64>() / 3.0;
        assert!(
            late <= early * 1.5 + 0.05,
            "aging gate: fragmentation climbs monotonically with defrag on \
             (early {early:.3} -> late {late:.3})"
        );
        assert!(
            outcomes[1].delta.defrag_passes > 0,
            "aging gate: defragmenter never ran a pass"
        );
    }
}
