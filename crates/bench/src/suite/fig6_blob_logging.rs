//! Figure 6 (a–d): YCSB with BLOB payloads — 100 KB, 10 MB, mixed
//! 4 KB–10 MB, and the 1 GB-class experiment (scaled to 64 MiB objects;
//! see EXPERIMENTS.md).
//!
//! Paper shape per panel:
//! * PostgreSQL and MySQL trail badly (socket + serialization + chunking).
//! * Ext4.journal is the slowest file system (content written twice).
//! * SQLite checkpoints aggressively on 10 MB payloads.
//! * `Our` beats all file systems (no syscalls, one content write,
//!   reads served from the pool's frames); `Our.physlog` pays the WAL
//!   content penalty;
//! * on mixed sizes the file systems additionally pay file-resize
//!   overhead, widening our lead;
//! * at 1 GB-class, PostgreSQL/SQLite reject the objects outright.

use crate::*;
use lobster_baselines::{LobsterMode, LobsterStore};
use lobster_storage::{MemDevice, ThrottleProfile, ThrottledDevice};
use lobster_types::Error;
use std::sync::Arc;
use std::time::Duration;

struct Panel {
    title: &'static str,
    tag: &'static str,
    payload: PayloadDist,
    records: u64,
    ops: usize,
    include_client_server: bool,
}

pub(crate) fn run(report: &mut Report) {
    let panels = vec![
        Panel {
            title: "(a) 100 KB payloads",
            tag: "a_100KB",
            payload: PayloadDist::Fixed(100 * 1024),
            records: scaled(400) as u64,
            // Panel op counts are floored so smoke-scale runs still time a
            // stable window (see fig9).
            ops: scaled(1500).max(200),
            include_client_server: true,
        },
        Panel {
            title: "(b) 10 MB payloads",
            tag: "b_10MB",
            payload: PayloadDist::Fixed(10 << 20),
            records: scaled(16) as u64,
            ops: scaled(80).max(12),
            include_client_server: true,
        },
        Panel {
            title: "(c) mixed 4 KB – 10 MB payloads",
            tag: "c_mixed",
            payload: PayloadDist::Uniform {
                min: 4 * 1024,
                max: 10 << 20,
            },
            records: scaled(48) as u64,
            ops: scaled(200).max(24),
            include_client_server: true,
        },
        Panel {
            title: "(d) 1 GB-class payloads (scaled to 64 MiB)",
            tag: "d_1GB_class",
            payload: PayloadDist::Fixed(64 << 20),
            records: 3,
            ops: scaled(12).max(4),
            include_client_server: true,
        },
    ];

    banner(
        "Figure 6 — YCSB with BLOB payloads, 50% reads, single-threaded",
        "§V-B Figure 6(a–d)",
    );
    // All systems run on the same NVMe-model device (fsync free): the
    // experiment isolates write volume and request shape, as in the paper.
    use_throttled_devices(true);

    for panel in panels {
        println!("\n--- {} ---", panel.title);
        let mut table = Table::new(&["system", "txn/s", "MB written/txn", "WAL/txn"]);
        let one_gb_class = panel.records <= 3;

        let mut systems = vec![
            sys_our(LobsterMode::Blobs),
            sys_our_ht(LobsterMode::Blobs),
            sys_our_physlog(),
            sys_fs(lobster_baselines::FsProfile::ext4_ordered),
            sys_fs(lobster_baselines::FsProfile::ext4_journal),
            sys_fs(lobster_baselines::FsProfile::xfs),
            sys_fs(lobster_baselines::FsProfile::f2fs),
            sys_sqlite(),
        ];
        if panel.include_client_server {
            systems.push(sys_postgres());
            systems.push(sys_mysql());
        }

        for spec in systems {
            // The paper: PostgreSQL ("statement parameter length overflow")
            // and SQLite ("BLOB too big") fail the 1 GB experiment.
            if one_gb_class && (spec.name == "PostgreSQL" || spec.name == "SQLite") {
                table.row(&[
                    spec.name.to_string(),
                    "fails at 1GB (paper)".into(),
                    "-".into(),
                    "-".into(),
                ]);
                continue;
            }
            let store = (spec.build)();
            let mut gen = YcsbGenerator::new(YcsbConfig {
                records: panel.records,
                read_ratio: 0.5,
                payload: panel.payload,
                zipf_theta: 0.99,
                seed: 42,
            });
            if let Err(e) = load_ycsb(store.as_ref(), &mut gen) {
                table.row(&[
                    spec.name.to_string(),
                    format!("load failed: {e}"),
                    "-".into(),
                    "-".into(),
                ]);
                continue;
            }
            let before = store.stats().metrics;
            match run_ycsb(store.as_ref(), &mut gen, panel.ops) {
                Ok(run) => {
                    let delta = store.stats().metrics - before;
                    report.push(
                        Entry::throughput(spec.name, run.throughput())
                            .param("panel", panel.tag)
                            .latency("op", run.summary())
                            .counters(delta),
                    );
                    table.row(&[
                        spec.name.to_string(),
                        fmt_rate(run.throughput()),
                        fmt_bytes(delta.bytes_written as f64 / run.ops as f64),
                        fmt_bytes(delta.wal_bytes as f64 / run.ops as f64),
                    ]);
                }
                Err(Error::OutOfSpace) => {
                    table.row(&[
                        spec.name.to_string(),
                        "out of space".into(),
                        "-".into(),
                        "-".into(),
                    ]);
                }
                Err(e) => {
                    table.row(&[
                        spec.name.to_string(),
                        format!("error: {e}"),
                        "-".into(),
                        "-".into(),
                    ]);
                }
            }
        }
        table.print();
    }

    commit_pipeline_panel(report);
}

/// The commit pipeline under a real durability barrier.
///
/// The panels above follow the paper's competitor setup — fsync disabled —
/// where the committer's fsync costs nothing and pipelining has nothing to
/// hide. This panel instead enables a real durability barrier (1 ms, a
/// SATA/consumer-class fsync) on *both* devices, with write bandwidth
/// calibrated to the SHA-256 ratio like `mem_device`, and a small buffer
/// pool whose pin budget bounds how far the foreground can run ahead.
/// Without that bound the WAL stage absorbs ever-larger groups and
/// amortizes the fsync away; with it, each group's fsync and its extent
/// flush are comparable — exactly the regime the two-stage pipeline
/// targets: group N+1's fsync overlaps group N's extent writes.
fn commit_pipeline_panel(report: &mut Report) {
    println!("\n--- commit pipeline, fsync enabled ---");
    let device = |bytes: usize| -> Arc<dyn lobster_storage::Device> {
        let mut profile = ThrottleProfile::nvme();
        profile.write_bw = 1_200_000_000;
        profile.read_bw = 2_000_000_000;
        profile.sync_latency = Duration::from_millis(1); // fsync ON
        Arc::new(ThrottledDevice::new(MemDevice::new(bytes), profile))
    };
    let mut cfg = our_config(1);
    // 4 MiB pool -> 1 MiB pin budget (~10 unflushed commits): commit
    // backpressure, not pool capacity, paces the foreground.
    cfg.pool_frames = 1024;
    let store = LobsterStore::new(
        "pipelined",
        device(3 << 30),
        device(512 << 20),
        cfg,
        LobsterMode::Blobs,
    )
    .expect("create lobster store");
    let mut gen = YcsbGenerator::new(YcsbConfig {
        records: scaled(400) as u64,
        read_ratio: 0.0, // update-only: every op rides the commit path
        payload: PayloadDist::Fixed(100 * 1024),
        zipf_theta: 0.99,
        seed: 42,
    });
    load_ycsb(&store, &mut gen).expect("load");
    let before = store.stats().metrics;
    let run = run_ycsb(&store, &mut gen, scaled(1500).max(300)).expect("run");
    let after = store.stats().metrics;
    let delta = after - before;
    report.push(
        Entry::throughput("Our.pipelined", run.throughput())
            .param("panel", "commit_pipeline")
            .latency("op", run.summary())
            .counters(delta),
    );
    // The in-flight gauge is a lifetime high-water mark, not a window delta.
    println!(
        "{} txn/s, {} stalls, peak {} flushes in flight",
        fmt_rate(run.throughput()),
        delta.commit_stalls,
        after.commit_inflight_peak,
    );
}
