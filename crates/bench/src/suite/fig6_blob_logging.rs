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
use lobster_baselines::{ClientServerCost, FsProfile, LobsterMode};
use std::time::Duration;

struct Panel {
    tag: &'static str,
    payload: PayloadDist,
    records: u64,
    ops: usize,
}

pub(crate) fn run(report: &mut Report) {
    let panels = [
        Panel {
            tag: "a_100KB",
            payload: PayloadDist::Fixed(100 * 1024),
            records: scaled(400) as u64,
            // Panel op counts are floored so smoke-scale runs still time a
            // stable window (see fig9).
            ops: scaled(1500).max(200),
        },
        Panel {
            tag: "b_10MB",
            payload: PayloadDist::Fixed(10 << 20),
            records: scaled(16) as u64,
            ops: scaled(80).max(12),
        },
        Panel {
            tag: "c_mixed",
            payload: PayloadDist::Uniform {
                min: 4 * 1024,
                max: 10 << 20,
            },
            records: scaled(48) as u64,
            ops: scaled(200).max(24),
        },
        // The 1 GB-class panel, scaled to 64 MiB objects.
        Panel {
            tag: "d_1GB_class",
            payload: PayloadDist::Fixed(64 << 20),
            records: 3,
            ops: scaled(12).max(4),
        },
    ];

    // All systems run on the same NVMe-model devices (fsync free): the
    // experiment isolates write volume and request shape, as in the paper.
    let rig = Rig {
        data: Dev::paper_nvme(3 << 30, Duration::ZERO),
        wal: Dev::paper_nvme(512 << 20, Duration::ZERO),
        ..Rig::YCSB
    };
    for panel in panels {
        let one_gb_class = panel.records <= 3;
        let systems = [
            sys_our(LobsterMode::Blobs),
            sys_our_ht(LobsterMode::Blobs),
            sys_our_physlog(),
            sys_fs(FsProfile::ext4_ordered),
            sys_fs(FsProfile::ext4_journal),
            sys_fs(FsProfile::xfs),
            sys_fs(FsProfile::f2fs),
            sys_sqlite(false),
            sys_postgres(ClientServerCost::unix_socket()),
            sys_mysql(ClientServerCost::unix_socket()),
        ];
        for spec in systems {
            // The paper: PostgreSQL ("statement parameter length overflow")
            // and SQLite ("BLOB too big") fail the 1 GB experiment.
            if one_gb_class && (spec.name == "PostgreSQL" || spec.name == "SQLite") {
                println!("  {} {}: fails at 1 GB (paper)", panel.tag, spec.name);
                continue;
            }
            let store = spec.build(&rig);
            let cfg = ycsb_config(panel.records, 0.5, panel.payload);
            match run_ycsb(store.as_ref(), cfg, panel.ops) {
                Ok((run, delta)) => report.push(
                    Entry::throughput(spec.name, run.rate())
                        .param("panel", panel.tag)
                        .latency("op", run.summary())
                        .counters(delta, run.ops),
                ),
                Err(e) => println!("  {} {}: {e}", panel.tag, spec.name),
            }
        }
    }

    commit_pipeline_panel(report);
}

/// The commit pipeline under a real durability barrier.
///
/// The panels above follow the paper's competitor setup — fsync disabled —
/// where the committer's fsync costs nothing and pipelining has nothing to
/// hide. This panel instead enables a real durability barrier (1 ms, a
/// SATA/consumer-class fsync) on *both* devices, and a small buffer pool
/// whose pin budget bounds how far the foreground can run ahead. Without
/// that bound the commit thread absorbs ever-larger groups and amortizes the
/// fsync away; with it, each group's content write, data sync and fsync
/// are comparable, and the commit thread runs them back to back while the
/// foreground fills the next group up to the budget.
fn commit_pipeline_panel(report: &mut Report) {
    let fsync = Duration::from_millis(1);
    let rig = Rig {
        data: Dev::paper_nvme(3 << 30, fsync),
        wal: Dev::paper_nvme(512 << 20, fsync),
        ..Rig::YCSB
    };
    let mut cfg = our_config(1);
    // 4 MiB pool -> 1 MiB pin budget (~10 unflushed commits): commit
    // backpressure, not pool capacity, paces the foreground.
    cfg.pool_frames = 1024;
    let store = rig.our("pipelined", cfg, LobsterMode::Blobs);
    // Update-only: every op rides the commit path.
    let ycsb = ycsb_config(scaled(400) as u64, 0.0, PayloadDist::Fixed(100 * 1024));
    let (run, delta) = run_ycsb(&store, ycsb, scaled(1500).max(300)).expect("run");
    report.push(
        Entry::throughput("Our.pipelined", run.rate())
            .param("panel", "commit_pipeline")
            .latency("op", run.summary())
            .counters(delta, run.ops),
    );
}
