//! Figure 7: metadata operations — retrieve the Blob States of 10
//! consecutive BLOBs (one B-Tree scan) versus `fstat` on 10 consecutive
//! files (10 syscalls).
//!
//! Paper shape: the file systems all perform alike, and Our is an order of
//! magnitude faster (15.6× in the paper) because the metadata lives in a
//! scan-friendly B-Tree instead of behind per-file kernel calls.

use crate::*;
use lobster_baselines::{FsProfile, LobsterMode, LobsterStore, ModelFs, ObjectStore};
use lobster_vfs::{write_all, FileSystem, HostFs};
use std::time::Instant;

const PAYLOAD: usize = 100 * 1024; // 100 KB, as in the paper
const GROUP: usize = 10;

pub(crate) fn run(report: &mut Report) {
    banner(
        "Figure 7 — metadata ops: 10 consecutive Blob States vs 10x fstat",
        "§V-C Figure 7",
    );
    let files = scaled(2000);
    let rounds = scaled(20_000);

    let mut table = Table::new(&["system", "group-ops/s", "per-file ops/s", "syscalls/group"]);

    // ---- Our engine: one scan yields all ten states ------------------------
    let store = LobsterStore::new(
        "Our",
        mem_device(1 << 30),
        mem_device(256 << 20),
        our_config(1),
        LobsterMode::Blobs,
    )
    .expect("create");
    for i in 0..files {
        store
            .put(&format!("f{i:06}"), &make_payload(PAYLOAD, i as u64))
            .expect("load");
    }
    let db = store.database().clone();
    let rel = store.relation().clone();
    let t0 = Instant::now();
    let mut state = 1u64;
    for _ in 0..rounds {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let start = (state >> 33) as usize % (files - GROUP);
        let from = format!("f{start:06}");
        let mut t = db.begin();
        let mut seen = 0usize;
        t.scan_states(&rel, from.as_bytes(), |_, s| {
            std::hint::black_box(s.size);
            seen += 1;
            seen < GROUP
        })
        .expect("scan");
        t.commit().expect("commit");
    }
    let our_rate = rounds as f64 / t0.elapsed().as_secs_f64();
    report.push(Entry::throughput("Our", our_rate).param("op", "scan_states_x10"));
    table.row(&[
        "Our".into(),
        fmt_rate(our_rate),
        fmt_rate(our_rate * GROUP as f64),
        "0".into(),
    ]);

    // ---- File systems: ten stat calls per group ----------------------------
    let mut fs_best = 0.0f64;
    for profile in [
        FsProfile::ext4_ordered(),
        FsProfile::ext4_journal(),
        FsProfile::xfs(),
        FsProfile::btrfs(),
        FsProfile::f2fs(),
    ] {
        let fs = ModelFs::new(profile, mem_device(1 << 30), 64 * 1024);
        for i in 0..files {
            fs.put(&format!("f{i:06}"), &make_payload(PAYLOAD, i as u64))
                .expect("load");
        }
        let before = fs.stats().metrics;
        let t0 = Instant::now();
        let mut state = 1u64;
        for _ in 0..rounds {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let start = (state >> 33) as usize % (files - GROUP);
            for i in 0..GROUP {
                let size = fs.stat(&format!("f{:06}", start + i)).expect("stat");
                std::hint::black_box(size);
            }
        }
        let elapsed = t0.elapsed();
        let delta = fs.stats().metrics - before;
        let rate = rounds as f64 / elapsed.as_secs_f64();
        fs_best = fs_best.max(rate);
        report.push(
            Entry::throughput(profile.name, rate)
                .param("op", "fstat_x10")
                .counters(delta),
        );
        table.row(&[
            profile.name.to_string(),
            fmt_rate(rate),
            fmt_rate(rate * GROUP as f64),
            format!("{:.0}", delta.syscalls as f64 / rounds as f64),
        ]);
    }

    // ---- Reality anchor: the real host filesystem (true syscalls) ----------
    {
        let root = std::env::temp_dir().join(format!("lobster-fig7-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let host = HostFs::new(&root).expect("hostfs");
        // Metadata-only: empty files suffice for fstat.
        for i in 0..files {
            write_all(&host, &format!("/d/f{i:06}"), b"").expect("create");
        }
        let t0 = Instant::now();
        let mut state = 1u64;
        for _ in 0..rounds {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let start = (state >> 33) as usize % (files - GROUP);
            for i in 0..GROUP {
                let stat = host
                    .getattr(&format!("/d/f{:06}", start + i))
                    .expect("stat");
                std::hint::black_box(stat.size);
            }
        }
        let rate = rounds as f64 / t0.elapsed().as_secs_f64();
        // Real syscalls on the host tmpfs — a reality anchor, not a
        // competitor (host speed varies across machines).
        report.push(Entry::new("HostFs", "host_anchor", "ops/s", rate, true));
        table.row(&[
            "HostFs (real)".into(),
            fmt_rate(rate),
            fmt_rate(rate * GROUP as f64),
            "10".into(),
        ]);
        std::fs::remove_dir_all(&root).ok();
    }

    table.print();
    let ratio = our_rate / fs_best.max(1e-9);
    println!("\nOur vs best file system: {ratio:.1}x (paper: 15.6x)");
    report.push(Entry::new("Our", "speedup_vs_best_fs", "x", ratio, true));
}
