//! Cross-shard crash fuzz: every shard gets its own `CrashDevice`, armed
//! at *staggered* crash points, so a power cut strands the shards at
//! different prefixes of their WAL streams. Recovery must still decide
//! every cross-shard transaction the same way on every shard.
//!
//! Invariants checked after every crash pattern:
//! 1. `ShardedDatabase::open` succeeds (recovery never wedges).
//! 2. Data committed before the coordinated checkpoint is always intact.
//! 3. Every cross-shard batch is **all-or-nothing**: either all of its
//!    keys are visible (the marker survived on every participant, or the
//!    watermark proves it once did) or none are — never a per-shard
//!    mixture.
//! 4. Recovery is crash-idempotent: a second crash immediately after
//!    recovery (before any new work) reopens to the same visible state,
//!    even though the first recovery truncated the markers it decided by
//!    — the pre-recovery watermark/list persistence closes that window.
//! 5. The reopened database accepts and persists new cross-shard commits.

use lobster_core::{Config, RelationKind, ShardDevices, ShardedDatabase};
use lobster_storage::{CrashDevice, Device, MemDevice};
use std::sync::Arc;

const SHARDS: usize = 4;
const DATA_CAP: usize = 64 << 20;
const WAL_CAP: usize = 16 << 20;
/// Keys per cross-shard batch; enough that every batch spans shards.
const BATCH: usize = 8;

fn cfg() -> Config {
    Config {
        pool_frames: 2048,
        ..Config::default()
    }
}

/// Sweep-width multiplier for the nightly torture CI job
/// (`LOBSTER_TORTURE_MULT=10`); unset or invalid means 1.
fn torture_mult() -> u64 {
    std::env::var("LOBSTER_TORTURE_MULT")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&m| m >= 1)
        .unwrap_or(1)
}

fn copy_device(src: &MemDevice, capacity: usize) -> Arc<MemDevice> {
    let dst = MemDevice::new(capacity);
    let mut buf = vec![0u8; 1 << 20];
    let mut off = 0u64;
    while off < src.capacity() {
        let n = buf.len().min((src.capacity() - off) as usize);
        src.read_at(&mut buf[..n], off).unwrap();
        dst.write_at(&buf[..n], off).unwrap();
        off += n as u64;
    }
    Arc::new(dst)
}

fn batch_key(batch: usize, j: usize) -> Vec<u8> {
    format!("g{batch:04}k{j:02}").into_bytes()
}

fn batch_value(batch: usize) -> Vec<u8> {
    format!("value-of-batch-{batch:04}").into_bytes()
}

/// Which keys of `batch` are visible; asserts their values are untorn.
fn visible_keys(sdb: &Arc<ShardedDatabase>, batch: usize) -> usize {
    let rel = sdb.relation("kv").expect("relation survives");
    let mut txn = sdb.begin();
    let mut present = 0;
    for j in 0..BATCH {
        if let Some(v) = txn.get_kv(&rel, &batch_key(batch, j)).unwrap() {
            assert_eq!(v, batch_value(batch), "batch {batch} key {j}: torn value");
            present += 1;
        }
    }
    txn.commit().unwrap();
    present
}

/// One crash pattern: shard `i`'s chosen device (WAL when `crash_wal`,
/// data otherwise) is armed after `crash_after + i * stagger` writes; the
/// other side stays reliable (its `CrashDevice` is never armed).
fn run_scenario(crash_after: u64, stagger: u64, crash_wal: bool, batches: usize) {
    struct Rig {
        data: Arc<CrashDevice<MemDevice>>,
        wal: Arc<CrashDevice<MemDevice>>,
    }
    let rigs: Vec<Rig> = (0..SHARDS)
        .map(|_| Rig {
            data: Arc::new(CrashDevice::new(MemDevice::new(DATA_CAP))),
            wal: Arc::new(CrashDevice::new(MemDevice::new(WAL_CAP))),
        })
        .collect();
    let parts: Vec<ShardDevices> = rigs
        .iter()
        .map(|r| ShardDevices {
            data: r.data.clone(),
            wal: r.wal.clone(),
        })
        .collect();

    let sdb = ShardedDatabase::create(parts, cfg()).unwrap();
    let rel = sdb.create_relation("kv", RelationKind::Kv).unwrap();

    // Phase 1: a stable cross-shard batch, checkpointed on every shard.
    {
        let mut txn = sdb.begin();
        for j in 0..BATCH {
            txn.put_kv(&rel, &batch_key(0, j), &batch_value(0)).unwrap();
        }
        txn.commit().unwrap();
    }
    sdb.checkpoint().unwrap();

    // Phase 2: arm the staggered crash points, then more batches. Commits
    // may "succeed" from the app's view — the device lies after the cut.
    for (i, r) in rigs.iter().enumerate() {
        let armed = if crash_wal { &r.wal } else { &r.data };
        armed.arm_after_writes(crash_after + i as u64 * stagger, 128);
    }
    let _ = (|| -> lobster_types::Result<()> {
        for batch in 1..=batches {
            let mut txn = sdb.begin();
            for j in 0..BATCH {
                txn.put_kv(&rel, &batch_key(batch, j), &batch_value(batch))?;
            }
            txn.commit()?;
        }
        Ok(())
    })();
    // Simulate the process dying: no shutdown, no rollback.
    std::mem::forget(sdb);

    // Phase 3: recover from what physically survived on every shard. Keep
    // the typed handles — set A is what the *first* recovery mutates.
    let set_a: Vec<(Arc<MemDevice>, Arc<MemDevice>)> = rigs
        .iter()
        .map(|r| {
            (
                copy_device(r.data.inner(), DATA_CAP),
                copy_device(r.wal.inner(), WAL_CAP),
            )
        })
        .collect();
    let parts_a: Vec<ShardDevices> = set_a
        .iter()
        .map(|(d, w)| ShardDevices {
            data: d.clone(),
            wal: w.clone(),
        })
        .collect();
    let (sdb2, _reports) = ShardedDatabase::open(parts_a, cfg())
        .unwrap_or_else(|e| panic!("crash_after={crash_after} stagger={stagger}: reopen: {e}"));

    // Invariant 2: the checkpointed batch is always fully intact.
    assert_eq!(
        visible_keys(&sdb2, 0),
        BATCH,
        "crash_after={crash_after} stagger={stagger}: stable batch damaged"
    );

    // Invariant 3: later batches are all-or-nothing across shards.
    let mut first_visibility = Vec::new();
    for batch in 1..=batches {
        let present = visible_keys(&sdb2, batch);
        assert!(
            present == 0 || present == BATCH,
            "crash_after={crash_after} stagger={stagger}: batch {batch} is a \
             per-shard mixture ({present}/{BATCH} keys visible)"
        );
        first_visibility.push(present);
    }
    drop(sdb2);

    // Invariant 4: crash again right after recovery — set A now holds
    // exactly what the first recovery persisted (markers truncated, the
    // watermark/list written pre-recovery). The decisions must replay.
    let parts_b: Vec<ShardDevices> = set_a
        .iter()
        .map(|(d, w)| ShardDevices {
            data: copy_device(d, DATA_CAP),
            wal: copy_device(w, WAL_CAP),
        })
        .collect();
    let (sdb3, _) = ShardedDatabase::open(parts_b, cfg()).unwrap_or_else(|e| {
        panic!("crash_after={crash_after} stagger={stagger}: second recovery: {e}")
    });
    assert_eq!(visible_keys(&sdb3, 0), BATCH);
    for (batch, &was) in (1..=batches).zip(first_visibility.iter()) {
        assert_eq!(
            visible_keys(&sdb3, batch),
            was,
            "crash_after={crash_after} stagger={stagger}: batch {batch} \
             decision flipped on the second recovery"
        );
    }

    // Invariant 5: still writable, cross-shard included.
    let post_batch = batches + 1;
    let rel3 = sdb3.relation("kv").expect("relation");
    {
        let mut txn = sdb3.begin();
        for j in 0..BATCH {
            txn.put_kv(&rel3, &batch_key(post_batch, j), &batch_value(post_batch))
                .unwrap();
        }
        txn.commit().unwrap();
    }
    sdb3.wait_for_durability().unwrap();
    assert_eq!(visible_keys(&sdb3, post_batch), BATCH);
    sdb3.shutdown().unwrap();
}

#[test]
fn staggered_wal_crash_sweep() {
    // Tight sweep over early WAL-write crash points with three stagger
    // widths: shards die 0, 2, or 5 device writes apart.
    for stagger in [0u64, 2, 5] {
        for crash_after in 0..6 * torture_mult() {
            run_scenario(crash_after, stagger, true, 5);
        }
    }
}

#[test]
fn staggered_data_crash_sweep() {
    // Data-device crashes: extent/page flushes are stranded at different
    // points per shard; the WAL (reliable here) must drive every shard to
    // the same decision.
    for stagger in [1u64, 3] {
        for crash_after in (0..12 * torture_mult()).step_by(2) {
            run_scenario(crash_after, stagger, false, 5);
        }
    }
}

#[test]
fn late_crash_completes_scenario() {
    // With a crash point beyond the scenario's writes nothing is lost:
    // every batch must be fully visible.
    run_scenario(100_000, 17, true, 3);
}

fn pattern(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u8
        })
        .collect()
}

/// Two blobs per shard committed after the checkpoint, then the content of
/// one blob on shard 1 and of both on shard 3 torn on the device. The
/// shards recover concurrently; each report still lands at its shard's
/// index, counts exactly that shard's torn blobs, and a second recovery of
/// the same image reports the same.
#[test]
fn torn_content_on_two_shards_recovers_concurrently_in_shard_order() {
    let devices: Vec<(Arc<MemDevice>, Arc<MemDevice>)> = (0..SHARDS)
        .map(|_| {
            (
                Arc::new(MemDevice::new(DATA_CAP)),
                Arc::new(MemDevice::new(WAL_CAP)),
            )
        })
        .collect();
    let parts = devices
        .iter()
        .map(|(data, wal)| ShardDevices {
            data: data.clone(),
            wal: wal.clone(),
        })
        .collect();
    let sdb = ShardedDatabase::create(parts, cfg()).unwrap();
    let rel = sdb.create_relation("blobs", RelationKind::Blob).unwrap();
    sdb.checkpoint().unwrap();
    let mut blobs = vec![Vec::new(); SHARDS];
    for i in 0u64.. {
        if blobs.iter().all(|b| b.len() == 2) {
            break;
        }
        let key = format!("blob-{i}").into_bytes();
        let shard = sdb.shard_for_key(&key);
        if blobs[shard].len() == 2 {
            continue;
        }
        let content = pattern(40_000, i);
        let mut txn = sdb.begin();
        txn.put_blob(&rel, &key, &content).unwrap();
        let state = txn.blob_state(&rel, &key).unwrap().unwrap();
        txn.commit().unwrap();
        let first = sdb.shards()[shard].geometry().offset_of(state.extents[0]);
        blobs[shard].push((key, first, content));
    }
    sdb.wait_for_durability().unwrap();
    drop(rel);
    drop(sdb);
    let torn: [u64; SHARDS] = [0, 1, 0, 2];
    for (shard, &n) in torn.iter().enumerate() {
        for (_, first, _) in &blobs[shard][..n as usize] {
            devices[shard].0.write_at(&[0xA5; 64], *first).unwrap();
        }
    }

    let open_copy = || {
        let parts = devices
            .iter()
            .map(|(data, wal)| ShardDevices {
                data: copy_device(data, DATA_CAP),
                wal: copy_device(wal, WAL_CAP),
            })
            .collect();
        ShardedDatabase::open(parts, cfg()).unwrap()
    };
    let (sdb, reports) = open_copy();
    let failures: Vec<u64> = reports.iter().map(|r| r.sha_failures).collect();
    assert_eq!(failures, torn, "reports arrive in shard order");
    for (report, &n) in reports.iter().zip(&torn) {
        assert_eq!(report.committed, 2 - n);
    }
    let rel = sdb.relation("blobs").unwrap();
    for (shard, shard_blobs) in blobs.iter().enumerate() {
        for (j, (key, _, content)) in shard_blobs.iter().enumerate() {
            let got = sdb.begin().get_blob(&rel, key, |b| b.to_vec());
            if (j as u64) < torn[shard] {
                assert!(got.is_err(), "shard {shard}: a torn blob survived");
            } else {
                assert_eq!(&got.unwrap(), content, "shard {shard}: intact blob damaged");
            }
        }
    }
    sdb.shutdown().unwrap();

    // The same image recovers to the same reports again.
    let (sdb, again) = open_copy();
    assert_eq!(again, reports);
    sdb.shutdown().unwrap();
}
