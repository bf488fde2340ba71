//! Figure 9: Wikipedia-like read workload with a **cold cache**, measured
//! as throughput over time.
//!
//! Paper shape: Our starts ≥ 2.9× ahead (extent-granular reads exploit the
//! device far better than the file systems' extent-tree walks) and the gap
//! *widens* (to 3.9×) as our cache fills faster and serves more reads from
//! memory. Both systems run on the same throttled NVMe-model device so the
//! I/O economics are identical.

use crate::*;
use lobster_baselines::{FsProfile, LobsterMode, ObjectStore};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub(crate) fn run(report: &mut Report) {
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
    // Floor the bucket size: below ~500 reads a bucket lasts microseconds
    // and scheduler jitter swamps the signal, which would make the CI
    // regression gate flaky at smoke scales.
    let reads_per_bucket = scaled(4000).max(500);
    let rig = Rig {
        data: Dev::nvme(2 << 30),
        wal: Dev::mem(256 << 20),
        cache_pages: 256 * 1024,
    };
    let load = |store: &dyn ObjectStore| {
        for i in 0..corpus.len() {
            store
                .put(&corpus.articles()[i].title, &corpus.body(i))
                .expect("load");
        }
    };
    // Five time buckets of view-weighted reads from one seeded stream
    // (bucket 1 is the coldest — every read faults; the last is hottest).
    let buckets = |store: &dyn ObjectStore| -> Vec<Timed> {
        let mut rng = StdRng::seed_from_u64(7);
        let mut read = |i: usize| {
            store.get(&corpus.articles()[i].title, &mut |b| {
                std::hint::black_box(b.len());
            })
        };
        (0..5)
            .map(|_| {
                timed(
                    reads_per_bucket,
                    || corpus.sample_by_views(&mut rng),
                    &mut read,
                )
                .expect("read")
            })
            .collect()
    };
    // One throughput row per bucket, each with its per-op latency; engine
    // histograms (whole-run deltas) ride on the bucket-1 row.
    let push = |report: &mut Report, system: &str, runs: &[Timed], engine: &[_]| {
        for (i, run) in runs.iter().enumerate() {
            let e = Entry::throughput(system, run.rate())
                .param("bucket", i + 1)
                .latency("op", run.summary());
            report.push(if i == 0 {
                e.engine_latencies(engine)
            } else {
                e
            });
        }
    };

    // ---- Our engine on a throttled device ----------------------------------
    let store = rig.our("Our", our_config(1), LobsterMode::Blobs);
    load(&store);
    // Cold start: checkpoint (flush all dirty state), then evict every
    // clean frame — the buffer pool is now empty, like a fresh boot.
    store.flush().expect("checkpoint");
    store.database().node_pool().drop_caches();
    let lat0 = store.database().metrics().latencies.snapshot();
    let our = buckets(&store);
    let lat = store.database().metrics().latencies.snapshot() - lat0;
    push(report, "Our", &our, &lat.summaries());
    drop(store);

    // ---- File-system models on identical devices ----------------------------
    let (mut fs_first, mut fs_last) = (0.0f64, 0.0f64);
    for profile in [
        FsProfile::ext4_ordered(),
        FsProfile::xfs(),
        FsProfile::f2fs(),
    ] {
        let fs = rig.fs(profile);
        load(&fs);
        fs.drop_caches();
        let runs = buckets(&fs);
        push(report, profile.name, &runs, &[]);
        fs_first = fs_first.max(runs[0].rate());
        fs_last = fs_last.max(runs[4].rate());
    }
    let (first, last) = (
        our[0].rate() / fs_first.max(1e-9),
        our[4].rate() / fs_last.max(1e-9),
    );
    report.push(Entry::new("Our", "speedup_cold", "x", first, true));
    report.push(Entry::new("Our", "speedup_warm", "x", last, true));

    // ---- Content-bounded cold read: 1 MiB BLOBs ------------------------------
    // Under the default tier table a 1 MiB put is nine extents, eight
    // tiers and a one-page tail: 256 pages allocated, all of them content.
    // One cold get of each BLOB: the pages the device is asked for
    // (deterministic) and the wall time per get.
    let store = rig.our("Our", our_config(1), LobsterMode::Blobs);
    let blobs = scaled(1600).max(32);
    let body = vec![0x5Au8; 1 << 20];
    for i in 0..blobs {
        store.put(&format!("mib{i}"), &body).expect("load");
    }
    store.flush().expect("checkpoint");
    store.database().node_pool().drop_caches();
    let before = store.database().metrics().snapshot();
    let mut keys = (0..blobs).map(|i| format!("mib{i}"));
    let draw = || keys.next().expect("one key per get");
    let run = timed(blobs, draw, |key| {
        store.get(&key, &mut |b| {
            std::hint::black_box(b.len());
        })
    })
    .expect("read");
    let get_us = run.elapsed.as_secs_f64() * 1e6 / blobs as f64;
    let delta = store.database().metrics().snapshot() - before;
    let pages = delta.pages_read as f64 / blobs as f64;
    report.push(Entry::new(
        "Our.cold_1mib",
        "pages_read_per_get",
        "pages",
        pages,
        false,
    ));
    report.push(
        Entry::new("Our.cold_1mib", "get_us", "us", get_us, false).counters(delta, blobs as u64),
    );
}
