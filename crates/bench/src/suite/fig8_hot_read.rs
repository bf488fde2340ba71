//! Figure 8: Wikipedia-like read workload with a **hot cache**.
//!
//! Paper shape: Our outperforms every file system by ≥ 40 % because (1)
//! there are no `open`/`fstat`/`close` syscalls per article and (2) reads
//! are served from the buffer pool's frames — in place for a one-extent
//! article, aliased from `ALIAS_MIN_BYTES` up, otherwise one memcpy with no
//! kernel crossing — while file systems pay a syscall and the `pread`
//! kernel→user copy even on cache hits.

use crate::*;
use lobster_baselines::{FsProfile, LobsterMode, ModelFs, ObjectStore};
use lobster_metrics::LocalRecorder;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

pub(crate) fn run(report: &mut Report) {
    banner(
        "Figure 8 — Wikipedia reads, hot cache (view-weighted)",
        "§V-D Figure 8",
    );
    let corpus = WikiCorpus::new(scaled(4000), 42);
    println!(
        "corpus: {} articles, {}",
        corpus.len(),
        fmt_bytes(corpus.total_bytes() as f64)
    );
    // Floored so smoke-scale runs still time a stable window (see fig9).
    let reads = scaled(30_000).max(5000);

    let systems: Vec<(String, Box<dyn ObjectStore>)> = vec![
        ("Our".into(), (sys_our(LobsterMode::Blobs).build)()),
        (
            "Our.verify".into(),
            (sys_our_verify(LobsterMode::Blobs).build)(),
        ),
        (
            "Ext4".into(),
            Box::new(ModelFs::new(
                FsProfile::ext4_ordered(),
                mem_device(2 << 30),
                256 * 1024,
            )),
        ),
        (
            "XFS".into(),
            Box::new(ModelFs::new(
                FsProfile::xfs(),
                mem_device(2 << 30),
                256 * 1024,
            )),
        ),
        (
            "BtrFS".into(),
            Box::new(ModelFs::new(
                FsProfile::btrfs(),
                mem_device(2 << 30),
                256 * 1024,
            )),
        ),
        (
            "F2FS".into(),
            Box::new(ModelFs::new(
                FsProfile::f2fs(),
                mem_device(2 << 30),
                256 * 1024,
            )),
        ),
    ];

    let mut table = Table::new(&["system", "reads/s", "MB/s", "memcpy/read", "syscalls/read"]);
    let mut our_rate = 0.0;
    let mut our_verify_rate = 0.0;
    let mut fs_best = 0.0f64;
    for (name, store) in systems {
        // Load the corpus.
        for i in 0..corpus.len() {
            store
                .put(&corpus.articles()[i].title, &corpus.body(i))
                .expect("load");
        }
        // Warm every article once so all systems start hot.
        for i in 0..corpus.len() {
            store
                .get(&corpus.articles()[i].title, &mut |b| {
                    std::hint::black_box(b.len());
                })
                .expect("warm");
        }
        // Measure view-weighted reads.
        let mut rng = StdRng::seed_from_u64(7);
        let mut rec = LocalRecorder::new();
        let before = store.stats().metrics;
        let t0 = Instant::now();
        let mut bytes = 0u64;
        for _ in 0..reads {
            let i = corpus.sample_by_views(&mut rng);
            let t = Instant::now();
            store
                .get(&corpus.articles()[i].title, &mut |b| {
                    bytes += b.len() as u64
                })
                .expect("read");
            rec.record(t.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        }
        let elapsed = t0.elapsed();
        let delta = store.stats().metrics - before;
        let rate = reads as f64 / elapsed.as_secs_f64();
        if name == "Our" {
            our_rate = rate;
        } else if name == "Our.verify" {
            our_verify_rate = rate;
        } else {
            fs_best = fs_best.max(rate);
        }
        report.push(
            Entry::throughput(&name, rate)
                .param("cache", "hot")
                .latency("op", rec.snapshot().summary())
                .counters(delta),
        );
        table.row(&[
            name,
            fmt_rate(rate),
            format!(
                "{:.0}",
                bytes as f64 / (1 << 20) as f64 / elapsed.as_secs_f64()
            ),
            fmt_bytes(delta.memcpy_bytes as f64 / reads as f64),
            format!("{:.1}", delta.syscalls as f64 / reads as f64),
        ]);
    }
    table.print();
    let ratio = our_rate / fs_best.max(1e-9);
    println!("\nOur vs best file system: {ratio:.2}x (paper: ≥1.4x)");
    report.push(Entry::new("Our", "speedup_vs_best_fs", "x", ratio, true));
    // Price of the integrity ladder's read-side check (verify_reads):
    // fraction of baseline hot-read throughput retained with SHA-256
    // verification on every get.
    let retained = our_verify_rate / our_rate.max(1e-9);
    println!(
        "Our.verify retains {:.0}% of Our hot-read throughput",
        retained * 100.0
    );
    report.push(Entry::new(
        "Our.verify",
        "verify_read_retained_throughput",
        "frac",
        retained,
        true,
    ));
}
