//! Figure 9: Wikipedia-like read workload with a **cold cache**, measured
//! as throughput over time.
//!
//! Paper shape: Our starts ≥ 2.9× ahead (extent-granular reads exploit the
//! device far better than the file systems' extent-tree walks) and the gap
//! *widens* (to 3.9×) as our cache fills faster and serves more reads from
//! memory. Both systems run on the same throttled NVMe-model device so the
//! I/O economics are identical.

use crate::*;
use lobster_baselines::{FsProfile, LobsterMode, LobsterStore, ModelFs, ObjectStore};
use lobster_metrics::{HistSnapshot, LocalRecorder};
use lobster_storage::{MemDevice, ThrottleProfile, ThrottledDevice};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// One measured time bucket: reads/s plus the per-op latency histogram
/// (bucket 1 is the coldest — every read faults; the last is hottest).
struct Bucket {
    rate: f64,
    latency: HistSnapshot,
}

pub(crate) fn run(report: &mut Report) {
    banner(
        "Figure 9 — Wikipedia reads, cold cache, throughput over time",
        "§V-D Figure 9",
    );
    // Larger articles than the default corpus so the cold phase (reading
    // everything from the device once) dominates the early buckets.
    let corpus = WikiCorpus::with_sizes(
        scaled(3000),
        42,
        PayloadDist::LogNormal {
            mu: 9.5,
            sigma: 1.2,
            min: 4 * 1024,
            max: 4 << 20,
        },
        0.5,
    );
    println!(
        "corpus: {} articles, {} (device: throttled NVMe model)",
        corpus.len(),
        fmt_bytes(corpus.total_bytes() as f64)
    );
    let buckets = 5usize;
    // Floor the bucket size: below ~500 reads a bucket lasts microseconds
    // and scheduler jitter swamps the signal, which would make the CI
    // regression gate flaky at smoke scales.
    let reads_per_bucket = scaled(4000).max(500);

    let mut table = Table::new(&[
        "system",
        "bucket1",
        "bucket2",
        "bucket3",
        "bucket4",
        "bucket5",
        "(reads/s over time)",
    ]);

    let mut series: Vec<(String, Vec<Bucket>)> = Vec::new();

    // ---- Our engine on a throttled device ----------------------------------
    {
        let store = throttled_store("Our", our_config(1));
        for i in 0..corpus.len() {
            store
                .put(&corpus.articles()[i].title, &corpus.body(i))
                .expect("load");
        }
        // Cold start: checkpoint (flush all dirty state), then evict every
        // clean frame — the buffer pool is now empty, like a fresh boot.
        store.flush().expect("checkpoint");
        store.database().node_pool().drop_caches();
        let lat0 = store.database().metrics().latencies.snapshot();
        let measured = measure_buckets(&store, &corpus, buckets, reads_per_bucket);
        let lat = store.database().metrics().latencies.snapshot() - lat0;
        push_series(report, "Our", &measured, Some(&lat.summaries()));
        series.push(("Our".into(), measured));
    }

    // ---- File-system models on identical devices ----------------------------
    for profile in [
        FsProfile::ext4_ordered(),
        FsProfile::xfs(),
        FsProfile::f2fs(),
    ] {
        let dev = Arc::new(ThrottledDevice::new(
            MemDevice::new(2 << 30),
            ThrottleProfile::nvme(),
        ));
        let fs = ModelFs::new(profile, dev, 256 * 1024);
        for i in 0..corpus.len() {
            fs.put(&corpus.articles()[i].title, &corpus.body(i))
                .expect("load");
        }
        fs.drop_caches();
        let measured = measure_buckets(&fs, &corpus, buckets, reads_per_bucket);
        push_series(report, profile.name, &measured, None);
        series.push((profile.name.to_string(), measured));
    }

    let first_ratio;
    let last_ratio;
    {
        let our = &series[0].1;
        let best_fs_first = series[1..]
            .iter()
            .map(|(_, s)| s[0].rate)
            .fold(0.0f64, f64::max);
        let best_fs_last = series[1..]
            .iter()
            .map(|(_, s)| s.last().unwrap().rate)
            .fold(0.0f64, f64::max);
        first_ratio = our[0].rate / best_fs_first.max(1e-9);
        last_ratio = our.last().unwrap().rate / best_fs_last.max(1e-9);
    }
    for (name, s) in &series {
        let mut cells = vec![name.clone()];
        for b in s {
            cells.push(fmt_rate(b.rate));
        }
        cells.push(String::new());
        table.row(&cells);
    }
    table.print();
    println!(
        "\nOur vs best FS: {first_ratio:.1}x at start, {last_ratio:.1}x at end (paper: 2.9x -> 3.9x)"
    );
    report.push(Entry::new("Our", "speedup_cold", "x", first_ratio, true));
    report.push(Entry::new("Our", "speedup_warm", "x", last_ratio, true));

    // ---- Content-bounded cold read: 1 MiB BLOBs ------------------------------
    // Under the default tier table 1 MiB is nine extents, 511 pages
    // allocated, 256 of content. One cold get of each BLOB: the pages the
    // device is asked for (deterministic) and the wall time per get.
    {
        let store = throttled_store("Our", our_config(1));
        let blobs = scaled(1600).max(32);
        let body = vec![0x5Au8; 1 << 20];
        for i in 0..blobs {
            store.put(&format!("mib{i}"), &body).expect("load");
        }
        store.flush().expect("checkpoint");
        store.database().node_pool().drop_caches();
        let before = store.database().metrics().snapshot();
        let t0 = Instant::now();
        for i in 0..blobs {
            store
                .get(&format!("mib{i}"), &mut |b| {
                    std::hint::black_box(b.len());
                })
                .expect("read");
        }
        let get_us = t0.elapsed().as_secs_f64() * 1e6 / blobs as f64;
        let delta = store.database().metrics().snapshot() - before;
        let pages = delta.pages_read as f64 / blobs as f64;
        println!(
            "\ncold 1 MiB get: {pages:.1} pages read per get (256 hold content, 511 allocated), {get_us:.0} us per get"
        );
        report.push(Entry::new(
            "Our.cold_1mib",
            "pages_read_per_get",
            "pages",
            pages,
            false,
        ));
        report.push(Entry::new("Our.cold_1mib", "get_us", "us", get_us, false).counters(delta));
    }
}

/// Our engine, BLOB mode, on the throttled NVMe-model data device.
fn throttled_store(name: &str, cfg: lobster_core::Config) -> LobsterStore {
    let dev = Arc::new(ThrottledDevice::new(
        MemDevice::new(2 << 30),
        ThrottleProfile::nvme(),
    ));
    LobsterStore::new(name, dev, mem_device(256 << 20), cfg, LobsterMode::Blobs).expect("create")
}

/// Record the series into the report: one throughput entry per time bucket,
/// each carrying its own per-op latency digest. Engine histograms (whole-run
/// deltas) ride on the bucket-1 entry.
fn push_series(
    report: &mut Report,
    system: &str,
    buckets: &[Bucket],
    engine: Option<&[(&'static str, lobster_metrics::LatencySummary)]>,
) {
    for (i, b) in buckets.iter().enumerate() {
        let mut e = Entry::throughput(system, b.rate)
            .param("bucket", i + 1)
            .latency("op", b.latency.summary());
        if i == 0 {
            if let Some(named) = engine {
                e = e.engine_latencies(named);
            }
        }
        report.push(e);
    }
}

fn measure_buckets(
    store: &dyn ObjectStore,
    corpus: &WikiCorpus,
    buckets: usize,
    reads_per_bucket: usize,
) -> Vec<Bucket> {
    let mut rng = StdRng::seed_from_u64(7);
    let mut out = Vec::new();
    for _ in 0..buckets {
        let mut rec = LocalRecorder::new();
        let t0 = Instant::now();
        for _ in 0..reads_per_bucket {
            let i = corpus.sample_by_views(&mut rng);
            let t = Instant::now();
            store
                .get(&corpus.articles()[i].title, &mut |b| {
                    std::hint::black_box(b.len());
                })
                .expect("read");
            rec.record(t.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        }
        out.push(Bucket {
            rate: reads_per_bucket as f64 / t0.elapsed().as_secs_f64(),
            latency: rec.snapshot(),
        });
    }
    out
}
