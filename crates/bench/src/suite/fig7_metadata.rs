//! Figure 7: metadata operations — retrieve the Blob States of 10
//! consecutive BLOBs (one B-Tree scan) versus `fstat` on 10 consecutive
//! files (10 syscalls).
//!
//! Paper shape: the file systems all perform alike, and Our is an order of
//! magnitude faster (15.6× in the paper) because the metadata lives in a
//! scan-friendly B-Tree instead of behind per-file kernel calls.

use crate::*;
use lobster_baselines::{FsProfile, LobsterMode, ObjectStore};
use lobster_vfs::{write_all, FileSystem, HostFs};
use std::time::Instant;

const PAYLOAD: usize = 100 * 1024; // 100 KB, as in the paper
const GROUP: usize = 10;

/// Groups per second: `rounds` groups of ten metadata lookups each; the
/// first of the [`GROUP`] consecutive files of a group is drawn out of
/// `files` by one fixed LCG.
fn group_rate(rounds: usize, files: usize, mut group: impl FnMut(usize)) -> f64 {
    let mut state = 1u64;
    let t0 = Instant::now();
    for _ in 0..rounds {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        group((state >> 33) as usize % (files - GROUP));
    }
    rounds as f64 / t0.elapsed().as_secs_f64()
}

pub(crate) fn run(report: &mut Report) {
    let files = scaled(2000);
    let rounds = scaled(20_000);
    let rig = Rig {
        data: Dev::mem(1 << 30),
        wal: Dev::mem(256 << 20),
        cache_pages: 64 * 1024,
    };
    let load = |store: &dyn ObjectStore| {
        for i in 0..files {
            store
                .put(&format!("f{i:06}"), &make_payload(PAYLOAD, i as u64))
                .expect("load");
        }
    };

    // ---- Our engine: one scan yields all ten states ------------------------
    let store = rig.our("Our", our_config(1), LobsterMode::Blobs);
    load(&store);
    let (db, rel) = (store.database(), store.relation());
    let our_rate = group_rate(rounds, files, |start| {
        let from = format!("f{start:06}");
        let mut t = db.begin();
        let mut seen = 0usize;
        t.scan_states(rel, from.as_bytes(), |_, s| {
            std::hint::black_box(s.size);
            seen += 1;
            seen < GROUP
        })
        .expect("scan");
        t.commit().expect("commit");
    });
    report.push(Entry::throughput("Our", our_rate).param("op", "scan_states_x10"));

    // ---- File systems: ten stat calls per group ----------------------------
    let mut fs_best = 0.0f64;
    for profile in [
        FsProfile::ext4_ordered(),
        FsProfile::ext4_journal(),
        FsProfile::xfs(),
        FsProfile::btrfs(),
        FsProfile::f2fs(),
    ] {
        let fs = rig.fs(profile);
        load(&fs);
        let before = fs.stats().metrics;
        let rate = group_rate(rounds, files, |start| {
            for i in start..start + GROUP {
                std::hint::black_box(fs.stat(&format!("f{i:06}")).expect("stat"));
            }
        });
        fs_best = fs_best.max(rate);
        report.push(
            Entry::throughput(profile.name, rate)
                .param("op", "fstat_x10")
                .counters(fs.stats().metrics - before, rounds as u64),
        );
    }

    // ---- Reality anchor: the real host filesystem (true syscalls) ----------
    let root = std::env::temp_dir().join(format!("lobster-fig7-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let host = HostFs::new(&root).expect("hostfs");
    // Metadata-only: empty files suffice for fstat.
    for i in 0..files {
        write_all(&host, &format!("/d/f{i:06}"), b"").expect("create");
    }
    let rate = group_rate(rounds, files, |start| {
        for i in start..start + GROUP {
            std::hint::black_box(host.getattr(&format!("/d/f{i:06}")).expect("stat").size);
        }
    });
    // Real syscalls on the host tmpfs — a reality anchor, not a
    // competitor (host speed varies across machines).
    report.push(Entry::new("HostFs", "host_anchor", "ops/s", rate, true));
    std::fs::remove_dir_all(&root).ok();

    let ratio = our_rate / fs_best.max(1e-9);
    report.push(Entry::new("Our", "speedup_vs_best_fs", "x", ratio, true));
}
