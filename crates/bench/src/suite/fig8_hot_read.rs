//! Figure 8: Wikipedia-like read workload with a **hot cache**.
//!
//! Paper shape: Our outperforms every file system by ≥ 40 % because (1)
//! there are no `open`/`fstat`/`close` syscalls per article and (2) reads
//! are served from the buffer pool's frames — in place for a one-extent
//! article, aliased from `ALIAS_MIN_BYTES` up, otherwise one memcpy with no
//! kernel crossing — while file systems pay a syscall and the `pread`
//! kernel→user copy even on cache hits.

use crate::*;
use lobster_baselines::{FsProfile, LobsterMode};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub(crate) fn run(report: &mut Report) {
    let corpus = WikiCorpus::new(scaled(4000), 42);
    println!(
        "corpus: {} articles, {}",
        corpus.len(),
        fmt_bytes(corpus.total_bytes() as f64)
    );
    // Floored so smoke-scale runs still time a stable window (see fig9).
    let reads = scaled(30_000).max(5000);

    let rig = Rig {
        data: Dev::mem(2 << 30),
        cache_pages: 256 * 1024,
        ..Rig::YCSB
    };
    let systems = [
        sys_our(LobsterMode::Blobs),
        sys_our_verify(LobsterMode::Blobs),
        sys_fs(FsProfile::ext4_ordered).named("Ext4"),
        sys_fs(FsProfile::xfs),
        sys_fs(FsProfile::btrfs),
        sys_fs(FsProfile::f2fs),
    ];
    let (mut our_rate, mut our_verify_rate, mut fs_best) = (0.0, 0.0, 0.0f64);
    for spec in systems {
        let store = spec.build(&rig);
        let title = |i: usize| corpus.articles()[i].title.as_str();
        for i in 0..corpus.len() {
            store.put(title(i), &corpus.body(i)).expect("load");
        }
        // Warm every article once so all systems start hot.
        let read = |i: usize| {
            store.get(title(i), &mut |b| {
                std::hint::black_box(b.len());
            })
        };
        for i in 0..corpus.len() {
            read(i).expect("warm");
        }
        // Measure view-weighted reads.
        let mut rng = StdRng::seed_from_u64(7);
        let before = store.stats().metrics;
        let run = timed(reads, || corpus.sample_by_views(&mut rng), read).expect("read");
        let delta = store.stats().metrics - before;
        match spec.name {
            "Our" => our_rate = run.rate(),
            "Our.verify" => our_verify_rate = run.rate(),
            _ => fs_best = fs_best.max(run.rate()),
        }
        report.push(
            Entry::throughput(spec.name, run.rate())
                .param("cache", "hot")
                .latency("op", run.summary())
                .counters(delta, run.ops),
        );
    }
    let ratio = our_rate / fs_best.max(1e-9);
    report.push(Entry::new("Our", "speedup_vs_best_fs", "x", ratio, true));
    // Price of the integrity ladder's read-side check (verify_reads):
    // fraction of baseline hot-read throughput retained with SHA-256
    // verification on every get.
    report.push(Entry::new(
        "Our.verify",
        "verify_read_retained_throughput",
        "frac",
        our_verify_rate / our_rate.max(1e-9),
        true,
    ));
}
