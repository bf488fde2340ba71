//! Transient-fault torture sweep: run a blob workload against data and WAL
//! devices wrapped in [`FaultDevice`], sweeping injection seeds × fault
//! kinds, and assert every run lands in exactly one of three states:
//!
//! 1. **success** — the operation completed and returned exactly the
//!    committed bytes;
//! 2. **clean retryable error** — a typed `Err` the caller can handle
//!    (retry budget exhausted, sticky committer fail-stop, …);
//! 3. **detected-and-quarantined corruption** — `Error::Corruption` with
//!    the blob's extents fenced against re-allocation.
//!
//! Never a panic, a hang, or a silent wrong read.
//!
//! Knobs (see EXPERIMENTS.md): `LOBSTER_FAULT_SEED` re-bases the sweep's
//! seed schedule; `LOBSTER_TORTURE_MULT` widens the sweep for the nightly
//! torture job.

use lobster_core::{
    Config, Database, RecoveryReport, Relation, RelationKind, ShardDevices, ShardedDatabase,
};
use lobster_storage::{Device, FaultConfig, FaultDevice, FaultKind, MemDevice};
use lobster_types::{Error, RetryPolicy};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Sweep-width multiplier for the nightly torture CI job
/// (`LOBSTER_TORTURE_MULT=10`); unset or invalid means 1.
fn torture_mult() -> u64 {
    std::env::var("LOBSTER_TORTURE_MULT")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&m| m >= 1)
        .unwrap_or(1)
}

/// Base seed for the injection schedules; override with
/// `LOBSTER_FAULT_SEED` to replay a different (or a failing) schedule.
fn base_seed() -> u64 {
    std::env::var("LOBSTER_FAULT_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xFA17)
}

fn pattern(len: usize, seed: u64) -> Vec<u8> {
    let mut out = vec![0u8; len];
    let mut state = seed | 1;
    for b in &mut out {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        *b = state as u8;
    }
    out
}

fn cfg(verify_reads: bool) -> Config {
    Config {
        pool_frames: 2048,
        verify_reads,
        // Keep the device-op schedule exactly the foreground workload's:
        // speculative prefetch reads would consume injection slots.
        readahead_extents: 0,
        ..Config::default()
    }
}

type FaultyMem = FaultDevice<MemDevice>;

fn faulty(cap: usize, seed: u64, per_mille: u32, kind: FaultKind, max: u64) -> Arc<FaultyMem> {
    let mut fc = FaultConfig::new(seed, per_mille, &[kind]);
    fc.max_injections = max;
    Arc::new(FaultDevice::new(MemDevice::new(cap), fc))
}

/// Evict a blob's extents from the pool so the next read faults from the
/// (possibly lying) device.
fn evict_blob(db: &Arc<Database>, rel: &Relation, key: &[u8]) {
    let mut t = db.begin();
    if let Ok(Some(state)) = t.blob_state(rel, key) {
        let specs = state.extent_specs(db.tier_table());
        db.blob_pool().drop_extents(&specs);
    }
}

/// One seed × kind case. Returns `(clean_successes, clean_errors,
/// detected_corruptions)` over the armed phase; panics (failing the sweep)
/// on any silent wrong read or unquarantined verify-detected corruption.
fn sweep_case(seed: u64, kind: FaultKind) -> (u64, u64, u64) {
    let data = faulty(48 << 20, seed, 150, kind, 4);
    let wal = faulty(8 << 20, seed ^ 0x5EED, 150, kind, 2);
    let db = Database::create(data.clone(), wal.clone(), cfg(true)).unwrap();
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();

    let mut expected: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    for i in 0u64..6 {
        let key = format!("blob-{i}").into_bytes();
        let content = pattern(96_000, seed.wrapping_add(i));
        let mut t = db.begin();
        t.put_blob(&rel, &key, &content).unwrap();
        t.commit().unwrap();
        expected.insert(key, content);
    }
    db.checkpoint().unwrap();

    data.arm();
    wal.arm();

    let (mut ok, mut clean, mut corrupt) = (0u64, 0u64, 0u64);

    // Armed reads: every get_blob must return exact bytes, a typed error,
    // or detected corruption.
    for (key, content) in &expected {
        evict_blob(&db, &rel, key);
        let mut t = db.begin();
        match t.get_blob(&rel, key, |b| b.to_vec()) {
            Ok(got) => {
                assert_eq!(
                    got,
                    *content,
                    "seed {seed} kind {kind:?}: silent wrong read of {:?}",
                    String::from_utf8_lossy(key)
                );
                ok += 1;
            }
            Err(Error::Corruption(_)) => {
                // Verify-on-read detected rot that survived a device
                // re-read. Bit rot is injected on the read path, so the
                // detection must also have quarantined the blob.
                if kind == FaultKind::BitRotRead {
                    assert!(
                        db.is_blob_quarantined("b", key),
                        "seed {seed}: corruption surfaced without quarantine"
                    );
                }
                corrupt += 1;
            }
            Err(_) => clean += 1,
        }
    }

    // Armed writes: commits may fail, but only cleanly.
    for i in 0u64..2 {
        let key = format!("armed-{i}").into_bytes();
        let content = pattern(48_000, seed ^ (0xA0 + i));
        let mut t = db.begin();
        let res = t.put_blob(&rel, &key, &content).and_then(|()| t.commit());
        match res {
            Ok(()) => {
                ok += 1;
                expected.insert(key, content);
            }
            Err(_) => clean += 1,
        }
    }

    data.disarm();
    wal.disarm();

    // Honest-device epilogue: every blob either reads back exactly, or the
    // damage was *detected* (quarantined corruption / a clean error from
    // the sticky committer fail-stop). Never a silent wrong read.
    for (key, content) in &expected {
        evict_blob(&db, &rel, key);
        let mut t = db.begin();
        match t.get_blob(&rel, key, |b| b.to_vec()) {
            Ok(got) => assert_eq!(
                got, *content,
                "seed {seed} kind {kind:?}: wrong bytes after disarm"
            ),
            Err(Error::Corruption(_)) => {
                assert!(
                    kind.is_silent() || kind == FaultKind::ShortWrite,
                    "seed {seed} kind {kind:?}: non-silent fault left persistent corruption"
                );
                corrupt += 1;
            }
            Err(_) => clean += 1,
        }
    }

    (ok, clean, corrupt)
}

#[test]
fn fault_sweep_tristate_outcomes() {
    // ≥ 200 seed × kind combos at smoke scale (9 kinds × 24 seeds = 216);
    // the torture multiplier widens the seed range.
    let seeds_per_kind = 24 * torture_mult();
    let mut combos = 0u64;
    let mut totals = (0u64, 0u64, 0u64);
    for kind in FaultKind::ALL {
        for i in 0..seeds_per_kind {
            let seed = base_seed() ^ (i.wrapping_mul(0x9E37_79B9)) ^ ((kind as u64) << 56);
            let (ok, clean, corrupt) = sweep_case(seed, kind);
            totals.0 += ok;
            totals.1 += clean;
            totals.2 += corrupt;
            combos += 1;
        }
    }
    assert!(combos >= 200, "sweep too narrow: {combos} combos");
    // Sanity on the sweep itself: the injection rate is low enough that
    // plenty of operations succeed, and high enough that faults were hit.
    assert!(totals.0 > 0, "no operation ever succeeded");
    assert!(
        totals.1 + totals.2 > 0,
        "no fault ever surfaced — injection misconfigured"
    );
}

#[test]
fn bit_rot_is_always_caught_on_get_blob() {
    // Permanent rot: every device read garbles one bit, so the one-shot
    // re-read cannot clear the mismatch. Every read of every blob must
    // surface Corruption and quarantine — 100% detection, zero wrong bytes.
    let seed = base_seed() ^ 0xB17;
    let data = faulty(48 << 20, seed, 1000, FaultKind::BitRotRead, u64::MAX);
    let wal = Arc::new(MemDevice::new(8 << 20));
    let db = Database::create(data.clone(), wal, cfg(true)).unwrap();
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();

    let mut keys = Vec::new();
    for i in 0u64..4 {
        let key = format!("rot-{i}").into_bytes();
        let mut t = db.begin();
        t.put_blob(&rel, &key, &pattern(64_000, seed + i)).unwrap();
        t.commit().unwrap();
        keys.push(key);
    }
    data.arm();
    for key in &keys {
        evict_blob(&db, &rel, key);
        let mut t = db.begin();
        match t.get_blob(&rel, key, |b| b.to_vec()) {
            Err(Error::Corruption(_)) => {}
            Ok(_) => panic!("bit rot served silently"),
            Err(e) => panic!("expected Corruption, got {e:?}"),
        }
        assert!(db.is_blob_quarantined("b", key));
    }
    data.disarm();
    let m = db.metrics();
    assert_eq!(
        m.corruption_detected.load(Ordering::Relaxed),
        keys.len() as u64
    );
    assert_eq!(
        m.quarantined_blobs.load(Ordering::Relaxed),
        keys.len() as u64
    );
    assert_eq!(db.quarantined_blobs().len(), keys.len());
}

#[test]
fn single_bit_rot_clears_on_reread() {
    // One transient device lie: the first read garbles, the verify
    // mismatch drops the cached frames, and the re-read returns clean
    // bytes — the caller sees a plain success, nothing is quarantined.
    let seed = base_seed() ^ 0x1B17;
    let data = faulty(48 << 20, seed, 1000, FaultKind::BitRotRead, 1);
    let wal = Arc::new(MemDevice::new(8 << 20));
    let db = Database::create(data.clone(), wal, cfg(true)).unwrap();
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    let content = pattern(64_000, seed);
    {
        let mut t = db.begin();
        t.put_blob(&rel, b"lie", &content).unwrap();
        t.commit().unwrap();
    }
    evict_blob(&db, &rel, b"lie");
    data.arm();
    let mut t = db.begin();
    let got = t.get_blob(&rel, b"lie", |b| b.to_vec()).unwrap();
    assert_eq!(got, content);
    data.disarm();
    assert_eq!(data.injections(), 1, "the lie must actually have fired");
    assert_eq!(db.metrics().quarantined_blobs.load(Ordering::Relaxed), 0);
    assert!(db.quarantined_blobs().is_empty());
}

#[test]
fn verify_off_ablation_serves_unverified_bytes() {
    // The ablation control: with `verify_reads = false` the same bit rot
    // is served to the caller — this is exactly the silent wrong read the
    // tentpole exists to prevent, demonstrated under the knob's off state.
    let seed = base_seed() ^ 0xAB1A;
    // Unlimited injections: every extent read is garbled, so the flip
    // cannot hide in the final extent's tail slack.
    let data = faulty(48 << 20, seed, 1000, FaultKind::BitRotRead, u64::MAX);
    let wal = Arc::new(MemDevice::new(8 << 20));
    let db = Database::create(data.clone(), wal, cfg(false)).unwrap();
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    let content = pattern(64_000, seed);
    {
        let mut t = db.begin();
        t.put_blob(&rel, b"x", &content).unwrap();
        t.commit().unwrap();
    }
    evict_blob(&db, &rel, b"x");
    data.arm();
    let mut t = db.begin();
    let got = t.get_blob(&rel, b"x", |b| b.to_vec()).unwrap();
    data.disarm();
    assert!(data.injections() > 0);
    assert_ne!(got, content, "rot reached the caller — the knob is off");
    assert_eq!(db.metrics().corruption_detected.load(Ordering::Relaxed), 0);
    assert!(db.quarantined_blobs().is_empty());
}

/// The retry budget every choke point runs under.
const BUDGET: u64 = RetryPolicy::DEFAULT.max_retries as u64;

/// `io_retries`/`io_giveups` move in lockstep with the fault device's
/// injection log. Every transient injection observed at a retried choke
/// point is either absorbed (one `io_retries` tick) or the op's final
/// attempt (one `io_giveups` tick per op), so:
/// `io_retries == transient injections − io_giveups` exactly.
#[test]
fn retry_counters_match_injection_log() {
    // At most 2 injections against a budget of 3: all absorbed.
    // Single-extent blobs, so each cold read is its own retried device op
    // (a multi-extent read goes out as one batch with one reported error).
    let seed = base_seed() ^ 0xC0;
    let data = faulty(48 << 20, seed, 300, FaultKind::TransientRead, 2);
    let wal = Arc::new(MemDevice::new(8 << 20));
    let db = Database::create(data.clone(), wal, cfg(false)).unwrap();
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    let mut blobs = Vec::new();
    for i in 0u64..16 {
        let key = format!("k{i}").into_bytes();
        let content = pattern(3_000, seed + i);
        let mut t = db.begin();
        t.put_blob(&rel, &key, &content).unwrap();
        assert_eq!(t.blob_state(&rel, &key).unwrap().unwrap().extents.len(), 1);
        t.commit().unwrap();
        blobs.push((key, content));
    }
    for (key, _) in &blobs {
        evict_blob(&db, &rel, key);
    }
    data.arm();
    for (key, content) in &blobs {
        let mut t = db.begin();
        let got = t.get_blob(&rel, key, |b| b.to_vec()).unwrap();
        assert_eq!(&got, content);
    }
    data.disarm();
    let transient = data
        .injection_log()
        .iter()
        .filter(|i| i.kind.is_transient())
        .count() as u64;
    assert!(transient > 0, "schedule never fired — widen per_mille");
    let m = db.metrics();
    assert_eq!(m.io_retries.load(Ordering::Relaxed), transient);
    assert_eq!(m.io_giveups.load(Ordering::Relaxed), 0);
}

fn assert_injected(err: &Error, what: &str) {
    assert!(
        err.to_string().contains(what),
        "expected the injected error ({what}), got {err:?}"
    );
}

/// A read fault that never clears: the pool's fault path re-attempts
/// exactly the budget, surfaces the device's error, and gives every frame
/// it claimed back.
#[test]
fn pool_fault_gives_up_on_a_persistent_read_fault() {
    let seed = base_seed() ^ 0xC1;
    let data = faulty(48 << 20, seed, 1000, FaultKind::TransientRead, u64::MAX);
    let wal = Arc::new(MemDevice::new(8 << 20));
    let db = Database::create(data.clone(), wal, cfg(false)).unwrap();
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    // One extent: a single retried device op. Several extents: one batch,
    // then the per-extent fallback under the same policy.
    let blobs = [(&b"one"[..], 3_000), (&b"many"[..], 80_000)];
    let mut extents = Vec::new();
    for (key, len) in blobs {
        let mut t = db.begin();
        t.put_blob(&rel, key, &pattern(len, seed)).unwrap();
        extents.push(t.blob_state(&rel, key).unwrap().unwrap().extents.len() as u64);
        t.commit().unwrap();
        evict_blob(&db, &rel, key);
    }
    assert!(extents[0] == 1 && extents[1] > 1);
    let frames = db.node_pool().frames_in_use();
    let m = db.metrics();

    data.arm();
    let err = db.begin().get_blob(&rel, b"one", |_| ()).unwrap_err();
    data.disarm();
    assert_injected(&err, "injected transient read");
    assert_eq!(m.io_retries.load(Ordering::Relaxed), BUDGET);
    assert_eq!(m.io_giveups.load(Ordering::Relaxed), 1);
    assert_eq!(data.injections(), BUDGET + 1);
    assert_eq!(db.node_pool().frames_in_use(), frames);

    data.arm();
    let err = db.begin().get_blob(&rel, b"many", |_| ()).unwrap_err();
    data.disarm();
    assert_injected(&err, "injected transient read");
    assert_eq!(
        m.io_retries.load(Ordering::Relaxed),
        BUDGET * (1 + extents[1])
    );
    assert_eq!(m.io_giveups.load(Ordering::Relaxed), 1 + extents[1]);
    assert_eq!(db.node_pool().frames_in_use(), frames);

    // The device recovered: both blobs read back exactly.
    for (key, len) in blobs {
        let got = db.begin().get_blob(&rel, key, |b| b.to_vec()).unwrap();
        assert_eq!(got, pattern(len, seed));
    }
}

/// A write fault that never clears: the commit flush re-attempts exactly
/// the budget, then the committer fail-stops and the commit reports the
/// device's error.
#[test]
fn commit_flush_gives_up_on_a_persistent_write_fault() {
    let seed = base_seed() ^ 0xC2;
    let data = faulty(48 << 20, seed, 1000, FaultKind::TransientWrite, u64::MAX);
    let wal = Arc::new(MemDevice::new(8 << 20));
    let db = Database::create(data.clone(), wal, cfg(false)).unwrap();
    let rel = db.create_relation("b", RelationKind::Blob).unwrap();
    data.arm();
    let mut t = db.begin();
    t.put_blob(&rel, b"doomed", &pattern(80_000, seed)).unwrap();
    let err = t.commit().unwrap_err();
    data.disarm();
    assert_injected(&err, "injected transient write");
    let m = db.metrics();
    assert_eq!(m.io_retries.load(Ordering::Relaxed), BUDGET);
    assert_eq!(m.io_giveups.load(Ordering::Relaxed), 1);
    assert_eq!(m.commit_errors.load(Ordering::Relaxed), 1);
}

// ------------------------------------------------ recovery validation ---

/// A memory device that logs every op in the order a [`FaultDevice`]
/// counts them: `Some((offset, len))` for a read, `None` for a write or
/// sync.
struct OpLog {
    inner: MemDevice,
    ops: std::sync::Mutex<Vec<Option<(u64, usize)>>>,
}

impl Device for OpLog {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> lobster_types::Result<()> {
        self.ops.lock().unwrap().push(Some((offset, buf.len())));
        self.inner.read_at(buf, offset)
    }
    fn write_at(&self, buf: &[u8], offset: u64) -> lobster_types::Result<()> {
        self.ops.lock().unwrap().push(None);
        self.inner.write_at(buf, offset)
    }
    fn sync(&self) -> lobster_types::Result<()> {
        self.ops.lock().unwrap().push(None);
        self.inner.sync()
    }
    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }
}

fn copy_device(src: &MemDevice) -> MemDevice {
    let dst = MemDevice::new(src.capacity() as usize);
    let mut buf = vec![0u8; 1 << 20];
    let mut off = 0u64;
    while off < src.capacity() {
        let n = buf.len().min((src.capacity() - off) as usize);
        src.read_at(&mut buf[..n], off).unwrap();
        dst.write_at(&buf[..n], off).unwrap();
        off += n as u64;
    }
    dst
}

/// One shard's crash image: its two devices and the data-device byte
/// ranges of the extents of every BLOB committed since the checkpoint.
struct Image {
    data: MemDevice,
    wal: MemDevice,
    blobs: Vec<std::ops::Range<u64>>,
}

/// Build `shards` crash images holding one BLOB of `len` bytes each,
/// committed after the last checkpoint and never checkpointed.
fn uncheckpointed_images(shards: usize, len: usize) -> Vec<Image> {
    let devices: Vec<(Arc<MemDevice>, Arc<MemDevice>)> = (0..shards)
        .map(|_| {
            (
                Arc::new(MemDevice::new(48 << 20)),
                Arc::new(MemDevice::new(8 << 20)),
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
    let sdb = ShardedDatabase::create(parts, cfg(false)).unwrap();
    let rel = sdb.create_relation("b", RelationKind::Blob).unwrap();
    sdb.checkpoint().unwrap();
    let mut blobs = vec![Vec::new(); shards];
    for i in 0u64.. {
        if blobs.iter().all(|b: &Vec<_>| !b.is_empty()) {
            break;
        }
        let key = format!("blob-{i}").into_bytes();
        let shard = sdb.shard_for_key(&key);
        if !blobs[shard].is_empty() {
            continue;
        }
        let mut t = sdb.begin();
        t.put_blob(&rel, &key, &pattern(len, i)).unwrap();
        let state = t.blob_state(&rel, &key).unwrap().unwrap();
        t.commit().unwrap();
        let geo = sdb.shards()[shard].geometry();
        let table = sdb.shards()[shard].tier_table().clone();
        for spec in state.extent_specs(&table) {
            let start = geo.offset_of(spec.start);
            blobs[shard].push(start..start + geo.bytes_for(spec.pages));
        }
    }
    sdb.wait_for_durability().unwrap();
    drop(rel);
    drop(sdb);
    devices
        .into_iter()
        .zip(blobs)
        .map(|((data, wal), blobs)| Image {
            data: copy_device(&data),
            wal: copy_device(&wal),
            blobs,
        })
        .collect()
}

type Opened = lobster_types::Result<(Arc<ShardedDatabase>, Vec<RecoveryReport>)>;

/// Open copies of `images` as a sharded store, shard `target`'s data
/// device wrapped by `wrap`; returns the wrapped device too.
fn open_images<D: Device + 'static>(
    images: &[Image],
    target: usize,
    wrap: impl FnOnce(MemDevice) -> Arc<D>,
) -> (Arc<D>, Opened) {
    let wrapped = wrap(copy_device(&images[target].data));
    let parts = images
        .iter()
        .enumerate()
        .map(|(i, image)| ShardDevices {
            data: if i == target {
                wrapped.clone()
            } else {
                Arc::new(copy_device(&image.data))
            },
            wal: Arc::new(copy_device(&image.wal)),
        })
        .collect();
    (wrapped, ShardedDatabase::open(parts, cfg(false)))
}

/// How many data-device ops shard `target`'s open issues before its first
/// read of BLOB content, and how many content reads it issues in all.
fn validation_ops(images: &[Image], target: usize) -> (u64, u64) {
    let (log, opened) = open_images(images, target, |inner| {
        Arc::new(OpLog {
            inner,
            ops: Default::default(),
        })
    });
    drop(opened.unwrap());
    let blobs = &images[target].blobs;
    let is_content = |op: &Option<(u64, usize)>| {
        op.is_some_and(|(off, len)| {
            blobs
                .iter()
                .any(|b| b.contains(&off) && off + len as u64 <= b.end)
        })
    };
    let ops = log.ops.lock().unwrap();
    let first = ops.iter().position(is_content);
    let reads = ops.iter().filter(|op| is_content(op)).count();
    (
        first.expect("validation reads content") as u64,
        reads as u64,
    )
}

/// Transient read faults on the data device while recovery validates:
/// every content read of the validation batch fails once, and so does the
/// first re-read. The retry policy absorbs all of it — recovery decides
/// exactly what a fault-free open of the same image decides — and the
/// re-reads are counted as the pool's fault path counts them.
#[test]
fn recovery_validation_retries_transient_read_faults() {
    let images = uncheckpointed_images(1, 80_000);
    let (_, clean) = open_images(&images, 0, Arc::new);
    let clean = clean.unwrap().1;
    assert_eq!((clean[0].committed, clean[0].sha_failures), (1, 0));
    let (warmup, reads) = validation_ops(&images, 0);
    assert!(reads > 1, "an 80 KB blob spans several extents");

    let mut fc = FaultConfig::new(base_seed() ^ 0xC3, 1000, &[FaultKind::TransientRead]);
    fc.warmup_ops = warmup;
    fc.max_injections = reads + 1;
    let (faulty, opened) = open_images(&images, 0, |inner| {
        let dev = Arc::new(FaultDevice::new(inner, fc));
        dev.arm();
        dev
    });
    let (sdb, reports) = opened.unwrap();
    faulty.disarm();
    assert_eq!(reports, clean);
    assert_eq!(faulty.injections(), reads + 1, "every injection fired");
    for injection in faulty.injection_log() {
        assert!(
            images[0]
                .blobs
                .iter()
                .any(|b| b.contains(&injection.offset)),
            "injected outside validation: {injection:?}"
        );
    }
    let m = sdb.metrics();
    assert!(m.io_retries.load(Ordering::Relaxed) >= 1);
    assert_eq!(m.io_giveups.load(Ordering::Relaxed), 0);
    let rel = sdb.relation("b").unwrap();
    let got = sdb.begin().get_blob(&rel, b"blob-0", |b| b.to_vec());
    assert_eq!(got.unwrap(), pattern(80_000, 0));
}

/// A read fault that never clears, on one shard of two: the validation
/// re-reads give up, the open returns the device's error instead of
/// hanging, and by then the healthy shard's recovery thread has finished
/// and its engine — committer stages and I/O workers included — is gone,
/// so nothing holds its devices any more.
#[test]
fn recovery_validation_gives_up_on_persistent_read_fault() {
    let images = uncheckpointed_images(2, 80_000);
    let (warmup, _) = validation_ops(&images, 0);
    let mut fc = FaultConfig::new(base_seed() ^ 0xC5, 1000, &[FaultKind::TransientRead]);
    fc.warmup_ops = warmup;
    let faulty = Arc::new(FaultDevice::new(copy_device(&images[0].data), fc));
    faulty.arm();
    let healthy = (
        Arc::new(copy_device(&images[1].data)),
        Arc::new(copy_device(&images[1].wal)),
    );
    let parts = vec![
        ShardDevices {
            data: faulty.clone(),
            wal: Arc::new(copy_device(&images[0].wal)),
        },
        ShardDevices {
            data: healthy.0.clone(),
            wal: healthy.1.clone(),
        },
    ];
    let (tx, rx) = std::sync::mpsc::channel();
    let opener = std::thread::spawn(move || {
        let err = ShardedDatabase::open(parts, cfg(false)).err();
        tx.send(err).unwrap();
    });
    let err = rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("open hung on a persistent read fault")
        .expect("open must fail");
    opener.join().unwrap();
    faulty.disarm();
    assert_injected(&err, "injected transient read");
    assert!(faulty.injections() > BUDGET);
    assert_eq!(Arc::strong_count(&faulty), 1, "faulted shard still held");
    assert_eq!(Arc::strong_count(&healthy.0), 1, "healthy shard still held");
    assert_eq!(Arc::strong_count(&healthy.1), 1, "healthy WAL still held");
}
