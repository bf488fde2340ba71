//! Standalone probes: each times one layer's public functions in
//! isolation, on fixtures of its own, and reports the median over batches
//! of the mean time per call.

use crate::gen::{key_bytes, Rng};
use crate::layers::{btree, buffer, extent, serve, sha256, storage, wal};
use crate::recorder::median_f64;
use crate::run::Metric;
use lobster_types::Result;
use std::hint::black_box;
use std::time::{Duration, Instant};

const MIB: usize = 1 << 20;

/// How long a probe runs: until `calls` calls or `budget`, whichever
/// comes first, but at least `MIN_BATCHES` batches.
#[derive(Clone, Copy)]
struct Effort {
    calls: usize,
    budget: Duration,
}

const MIN_BATCHES: usize = 5;

/// Run `f` in batches of `batch` calls; return the median over batches of
/// the mean nanoseconds per call, and the number of calls made.
fn per_call_ns(
    effort: Effort,
    batch: usize,
    mut f: impl FnMut() -> Result<()>,
) -> Result<(f64, u64)> {
    let started = Instant::now();
    let mut means = Vec::new();
    let mut calls = 0usize;
    while means.len() < MIN_BATCHES || (calls < effort.calls && started.elapsed() < effort.budget) {
        let t = Instant::now();
        for _ in 0..batch {
            f()?;
        }
        means.push(t.elapsed().as_nanos() as f64 / batch as f64);
        calls += batch;
    }
    Ok((median_f64(&mut means), calls as u64))
}

/// Every `P` metric of the per-layer table.
pub fn run(quick: bool) -> Result<Vec<Metric>> {
    let effort = Effort {
        calls: 10_000,
        budget: Duration::from_millis(if quick { 30 } else { 250 }),
    };
    let mut out = Vec::new();
    let mut rng = Rng::new(0x70_726f_6265, 0);
    let mut blob = vec![0u8; MIB];
    for chunk in blob.chunks_exact_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }

    // sha256: one digest of 1 MiB per call.
    let (ns, n) = per_call_ns(effort, 4, || {
        black_box(sha256::digest(black_box(&blob)));
        Ok(())
    })?;
    out.push(Metric::new("sha256.ns_per_kib", ns / 1024.0, "ns", n));

    // serve codec: encode + parse of a 4 KiB PUT.
    let key = key_bytes(7);
    let (ns, n) = per_call_ns(effort, 500, || {
        black_box(serve::codec_roundtrip(&key, black_box(&blob[..4096])));
        Ok(())
    })?;
    out.push(Metric::new("serve.codec_ns", ns, "ns", n));

    // storage: 1 MiB reads and writes of a MemDevice, and one AsyncIo
    // batch of 16 x 64 KiB writes.
    let dev = storage::mem_device(64 * MIB);
    let mut slot = 0u64;
    let (ns, n) = per_call_ns(effort, 8, || {
        slot = (slot + 1) % 32;
        dev.write_at(black_box(&blob), slot * MIB as u64)
    })?;
    out.push(Metric::new(
        "storage.mem_write_ns_per_kib",
        ns / 1024.0,
        "ns",
        n,
    ));
    let (ns, n) = per_call_ns(effort, 8, || {
        slot = (slot + 1) % 32;
        dev.read_at(black_box(&mut blob), slot * MIB as u64)
    })?;
    out.push(Metric::new(
        "storage.mem_read_ns_per_kib",
        ns / 1024.0,
        "ns",
        n,
    ));
    let io = storage::Io::new(dev.clone(), 4);
    let mut buffers: Vec<Vec<u8>> = (0..16).map(|i| vec![i as u8; 64 << 10]).collect();
    let (ns, n) = per_call_ns(effort, 8, || io.write_batch(&mut buffers, 64 << 10))?;
    out.push(Metric::new("storage.asyncio_batch_us", ns / 1e3, "us", n));
    drop(io);

    // extent: allocate + free of a mid-sequence tier.
    let table = extent::tier_table();
    let alloc = extent::allocator(table.clone(), 1 << 20);
    let (ns, n) = per_call_ns(effort, 1000, || extent::alloc_free_pair(&alloc, 5))?;
    out.push(Metric::new("extent.alloc_free_ns", ns, "ns", n));

    // wal: append of one Blob-State-sized insert, then commit to it.
    let log = wal::Log::create(storage::mem_device(64 * MIB))?;
    let value = [0x5au8; 200];
    let mut txn = 0u64;
    let mut appends = Vec::new();
    let mut commits = Vec::new();
    let started = Instant::now();
    while appends.len() < MIN_BATCHES
        || (appends.len() * 100 < effort.calls && started.elapsed() < effort.budget * 2)
    {
        let (mut append_ns, mut commit_ns) = (0u128, 0u128);
        for _ in 0..100 {
            txn += 1;
            let t = Instant::now();
            let lsn = log.append_insert(txn, &key, &value)?;
            append_ns += t.elapsed().as_nanos();
            let t = Instant::now();
            log.commit_to(lsn)?;
            commit_ns += t.elapsed().as_nanos();
        }
        appends.push(append_ns as f64 / 100.0);
        commits.push(commit_ns as f64 / 100.0);
        log.truncate()?;
    }
    let n = appends.len() as u64 * 100;
    out.push(Metric::new(
        "wal.append_ns",
        median_f64(&mut appends),
        "ns",
        n,
    ));
    out.push(Metric::new(
        "wal.commit_us",
        median_f64(&mut commits) / 1e3,
        "us",
        n,
    ));

    // buffer: a 1 MiB blob on its tier extents through a vm pool.
    let dev = storage::mem_device(256 * MIB);
    let pool = buffer::Pool::new(dev, 16 * 1024);
    let alloc = extent::allocator(table.clone(), (256 * MIB / buffer::PAGE) as u64 - 1);
    let extents = extent::allocate_sequence(&alloc, &table, (MIB / buffer::PAGE) as u64)?;
    let (mut fill, mut flush, mut hot, mut cold) = (vec![], vec![], vec![], vec![]);
    let started = Instant::now();
    while fill.len() < MIN_BATCHES || (fill.len() < 200 && started.elapsed() < effort.budget * 2) {
        let mut hashed = 0usize;
        let t = Instant::now();
        pool.fill_hashed(&extents, &blob, &mut |b| hashed += black_box(b).len())?;
        fill.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        pool.flush(&extents)?;
        flush.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        pool.read(&extents, MIB as u64, |b| black_box(b.len()))?;
        hot.push(t.elapsed().as_nanos() as f64);
        pool.drop_caches();
        let t = Instant::now();
        pool.read(&extents, MIB as u64, |b| black_box(b.len()))?;
        cold.push(t.elapsed().as_nanos() as f64);
        pool.discard(&extents);
        assert_eq!(hashed, MIB);
    }
    let n = fill.len() as u64;
    out.push(Metric::new(
        "buffer.fill_hashed_ns_per_kib",
        median_f64(&mut fill) / 1024.0,
        "ns",
        n,
    ));
    out.push(Metric::new(
        "buffer.flush_us",
        median_f64(&mut flush) / 1e3,
        "us",
        n,
    ));
    out.push(Metric::new(
        "buffer.read_hot_us",
        median_f64(&mut hot) / 1e3,
        "us",
        n,
    ));
    out.push(Metric::new(
        "buffer.read_cold_us",
        median_f64(&mut cold) / 1e3,
        "us",
        n,
    ));

    // btree: 100 000 16-byte keys with 96-byte values, byte-wise order.
    let keys: u64 = if quick { 10_000 } else { 100_000 };
    let tree = btree::Tree::create(&pool, alloc.clone())?;
    let value = [0xa5u8; 96];
    let mut order: Vec<u64> = (0..keys).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut next = order.iter();
    let (ns, n) = per_call_ns(
        Effort {
            calls: keys as usize,
            budget: Duration::from_secs(10),
        },
        1000,
        || {
            let k = *next.next().expect("one key per insert");
            tree.insert(&key_bytes(k), &value).map(|_| ())
        },
    )?;
    out.push(Metric::new("btree.insert_ns", ns, "ns", n));
    let (ns, n) = per_call_ns(effort, 1000, || {
        let found = tree.lookup(&key_bytes(rng.below(keys)))?;
        assert_eq!(found, Some(96));
        Ok(())
    })?;
    out.push(Metric::new("btree.lookup_ns", ns, "ns", n));
    let mut next = order.iter();
    let (ns, n) = per_call_ns(effort, 1000, || {
        let k = *next.next().expect("fewer removes than keys");
        assert!(tree.remove(&key_bytes(k))?);
        Ok(())
    })?;
    out.push(Metric::new("btree.remove_ns", ns, "ns", n));

    Ok(out)
}
