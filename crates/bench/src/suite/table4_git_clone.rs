//! Table IV: the simulated git-clone benchmark — replaying a linux-like
//! file-creation trace through the common `FileSystem` interface.
//!
//! Paper shape: our DBMS finishes in roughly half the time of the file
//! systems (906 ms vs 1.4–2.3 s at full scale), because the trace is
//! dominated by `open`-for-creation, `fstat`, and `close` — all kernel
//! crossings for file systems, plain B-Tree operations for us. XFS is the
//! best file system; Ext4.journal is the worst.

use crate::*;
use lobster_baselines::FsProfile;
use lobster_core::{Database, RelationKind};
use lobster_vfs::{FileSystem, WritableDbFs};
use lobster_workloads::{GitCloneTrace, TraceOp};
use std::time::Instant;

/// Replay the trace through any FileSystem; returns elapsed seconds.
fn replay(fs: &dyn FileSystem, trace: &GitCloneTrace) -> f64 {
    let t0 = Instant::now();
    for op in &trace.ops {
        match op {
            TraceOp::Create { path, size } => {
                let fd = fs.create(path).expect("create");
                let data = make_payload(*size, path.len() as u64);
                let mut off = 0usize;
                // git writes in buffered chunks.
                for chunk in data.chunks(64 * 1024) {
                    fs.write(fd, off as u64, chunk).expect("write");
                    off += chunk.len();
                }
                fs.close(fd).expect("close");
            }
            TraceOp::Stat { path } => {
                std::hint::black_box(fs.getattr(path).expect("stat"));
            }
            TraceOp::Read { path } => {
                let stat = fs.getattr(path).expect("stat");
                let fd = fs.open(path).expect("open");
                let mut buf = vec![0u8; stat.size as usize];
                let mut off = 0usize;
                while off < buf.len() {
                    let n = fs.read(fd, off as u64, &mut buf[off..]).expect("read");
                    if n == 0 {
                        break;
                    }
                    off += n;
                }
                fs.close(fd).expect("close");
            }
        }
    }
    t0.elapsed().as_secs_f64()
}

pub(crate) fn run(report: &mut Report) {
    let files = scaled(8000);
    let trace = GitCloneTrace::synthesize(files, 7);
    let (creates, stats, reads) = trace.op_counts();
    println!(
        "trace: {creates} creates ({}), {stats} stats, {reads} reads",
        fmt_bytes(trace.total_bytes as f64)
    );
    let total_ops = creates + stats + reads;
    let rig = Rig {
        data: Dev::mem(4 << 30),
        wal: Dev::mem(1 << 30),
        cache_pages: 256 * 1024,
    };

    // ---- Our engine ---------------------------------------------------------
    let db = Database::create(rig.data.build(), rig.wal.build(), our_config(1)).expect("create");
    // Relation per top-level directory (§III-E "relation as a directory");
    // git's object/packfile writes batch ~32 files per commit group.
    let mut tops: Vec<&str> = trace
        .ops
        .iter()
        .filter_map(|op| match op {
            TraceOp::Create { path, .. } => path.trim_start_matches('/').split('/').next(),
            _ => None,
        })
        .collect();
    tops.sort_unstable();
    tops.dedup();
    for top in tops {
        db.create_relation(top, RelationKind::Blob).expect("ddl");
    }
    let fs = WritableDbFs::with_batch(db.clone(), 32);
    let before = db.metrics().snapshot();
    let t0 = Instant::now();
    replay(&fs, &trace);
    fs.finish().expect("final batch");
    db.wait_for_durability().expect("async commits durable");
    let our_secs = t0.elapsed().as_secs_f64();
    let lat = db.metrics().latencies.snapshot();
    report.push(
        Entry::throughput("Our", total_ops as f64 / our_secs)
            .param("trace", "git_clone")
            .latency("engine.put_blob", lat.put_blob.summary())
            .counters(db.metrics().snapshot() - before, total_ops as u64),
    );

    // ---- File systems -------------------------------------------------------
    let mut fs_best = f64::INFINITY;
    for profile in [
        FsProfile::ext4_ordered(),
        FsProfile::ext4_journal(),
        FsProfile::btrfs(),
        FsProfile::f2fs(),
        FsProfile::xfs(),
    ] {
        let fs = rig.fs(profile);
        let before = fs.metrics().snapshot();
        let secs = replay(&fs, &trace);
        fs_best = fs_best.min(secs);
        report.push(
            Entry::throughput(profile.name, total_ops as f64 / secs)
                .param("trace", "git_clone")
                .counters(fs.metrics().snapshot() - before, total_ops as u64),
        );
    }
    report.push(Entry::new(
        "Our",
        "speedup_vs_best_fs",
        "x",
        fs_best / our_secs.max(1e-9),
        true,
    ));
}
