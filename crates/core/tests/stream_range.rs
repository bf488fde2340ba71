//! Tests for the serving path's streaming range read
//! (`Txn::stream_blob_range`): byte-for-byte equivalence with
//! `get_blob_range`, chunking behavior, pin-lease lifecycle (released on
//! success *and* on mid-stream sink errors), and pin-gate admission.

use lobster_buffer::PinGate;
use lobster_core::{Config, Database, PoolVariant, RelationKind};
use lobster_storage::MemDevice;
use lobster_types::Error;
use std::sync::Arc;
use std::time::Duration;

fn small_cfg() -> Config {
    Config {
        pool_frames: 4096, // 16 MiB
        workers: 4,
        ..Config::default()
    }
}

fn mem_db(cfg: Config) -> Arc<Database> {
    let dev = Arc::new(MemDevice::new(256 << 20));
    let wal = Arc::new(MemDevice::new(64 << 20));
    Database::create(dev, wal, cfg).unwrap()
}

fn pattern(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u8
        })
        .collect()
}

fn stream_collect(
    db: &Arc<Database>,
    rel: &lobster_core::Relation,
    key: &[u8],
    offset: u64,
    len: u64,
    chunk: usize,
    gate: Option<(&PinGate, Duration)>,
) -> (u64, Vec<u8>, usize) {
    let mut t = db.begin();
    let mut out = Vec::new();
    let mut calls = 0usize;
    let mut announced = Vec::new();
    let n = t
        .stream_blob_range(rel, key, offset, len, chunk, gate, &mut |total, b| {
            calls += 1;
            announced.push(total);
            out.extend_from_slice(b);
            Ok(())
        })
        .unwrap();
    t.commit().unwrap();
    // Every sink call carries the resolved stream length.
    assert!(announced.iter().all(|&total| total == n));
    (n, out, calls)
}

/// `get_blob_range`, the same slice of `get_blob`, and the concatenated
/// stream chunks are one ranged read and must agree byte for byte — over
/// both pools, with and without a tail extent: a put ends in one, a BLOB
/// built `by_growth` (one page put, the rest appended) does not.
#[test]
fn stream_matches_range_read_across_sizes_and_chunks() {
    for (pool_variant, by_growth) in [
        (small_cfg().pool_variant, false),
        (small_cfg().pool_variant, true),
        (PoolVariant::Ht, false),
        (PoolVariant::Ht, true),
    ] {
        let db = mem_db(Config {
            pool_variant,
            ..small_cfg()
        });
        let rel = db.create_relation("blobs", RelationKind::Blob).unwrap();
        // Inline-only (≤ 32-byte prefix), sub-page, single-extent,
        // multi-extent, and a boundary-straddling odd size.
        let sizes = [20usize, 1000, 4096, 70_000, 262_144 + 777];
        for (i, &size) in sizes.iter().enumerate() {
            let key = format!("k{i}").into_bytes();
            let data = pattern(size, i as u64 + 1);
            let mut t = db.begin();
            let head = if by_growth { size.min(4096) } else { size };
            t.put_blob(&rel, &key, &data[..head]).unwrap();
            if head < size {
                t.append_blob(&rel, &key, &data[head..]).unwrap();
            }
            let state = t.blob_state(&rel, &key).unwrap().unwrap();
            t.commit().unwrap();
            assert_eq!(
                state.tail.is_some(),
                !by_growth && size > 4096,
                "size={size}: tail extent"
            );

            for (offset, len) in [
                (0u64, size as u64),
                (0, 10),
                (size as u64 / 2, size as u64), // clamped at EOF
                (size as u64 - 1, 5),
                (size as u64 + 10, 4), // past EOF → 0 bytes
            ] {
                let want_n = len.min((size as u64).saturating_sub(offset));
                let off = (offset as usize).min(size);
                let want = &data[off..off + want_n as usize];

                let mut t = db.begin();
                let mut buf = vec![0u8; len as usize];
                let n = t.get_blob_range(&rel, &key, offset, &mut buf).unwrap();
                let whole = t.get_blob(&rel, &key, |b| b.to_vec()).unwrap();
                t.commit().unwrap();
                assert_eq!(&buf[..n], want, "range size={size} off={offset} len={len}");
                assert_eq!(&whole[off..off + want_n as usize], want);

                for chunk in [1usize, 100, 4096, 1 << 20] {
                    let (n, streamed, calls) =
                        stream_collect(&db, &rel, &key, offset, len, chunk, None);
                    assert_eq!(n, want_n, "size={size} off={offset} len={len}");
                    assert_eq!(
                        &streamed[..],
                        want,
                        "content mismatch size={size} off={offset} len={len} chunk={chunk}"
                    );
                    // Extent-backed streams must honor the chunk size (the
                    // inline-prefix fast path sends its ≤ 32 bytes as one
                    // piece).
                    if want_n > 32 {
                        assert!(
                            calls as u64 >= want_n.div_ceil(chunk as u64),
                            "too few sink calls: {calls} for {want_n}B/{chunk}B chunks"
                        );
                    }
                }
            }
        }
        // All leases must be gone after the streams.
        db.blob_pool().audit().assert_no_leaked_pins();
    }
}

#[test]
fn zero_copy_chunks_on_vm_pool() {
    let db = mem_db(small_cfg());
    let rel = db.create_relation("blobs", RelationKind::Blob).unwrap();
    let data = pattern(262_144, 7);
    let mut t = db.begin();
    t.put_blob(&rel, b"big", &data).unwrap();
    t.commit().unwrap();
    db.wait_for_durability().unwrap();

    let before = db.metrics().snapshot();
    let (n, streamed, _) = stream_collect(&db, &rel, b"big", 0, u64::MAX, 64 * 1024, None);
    assert_eq!(n, data.len() as u64);
    assert_eq!(streamed, data);
    let delta = db.metrics().snapshot() - before;
    assert_eq!(
        delta.memcpy_bytes, 0,
        "streaming chunks must borrow pool frames, not copy"
    );
}

#[test]
fn sink_error_releases_leases_and_gate_budget() {
    let db = mem_db(small_cfg());
    let rel = db.create_relation("blobs", RelationKind::Blob).unwrap();
    let data = pattern(300_000, 3);
    let mut t = db.begin();
    t.put_blob(&rel, b"k", &data).unwrap();
    t.commit().unwrap();

    let gate = PinGate::new(64 << 20);
    let mut t = db.begin();
    let mut calls = 0;
    let err = t
        .stream_blob_range(
            &rel,
            b"k",
            0,
            u64::MAX,
            4096,
            Some((&gate, Duration::from_millis(100))),
            &mut |_, _| {
                calls += 1;
                if calls >= 3 {
                    // Simulated client disconnect mid-stream.
                    Err(Error::Io(std::io::Error::from(
                        std::io::ErrorKind::BrokenPipe,
                    )))
                } else {
                    Ok(())
                }
            },
        )
        .unwrap_err();
    assert!(matches!(err, Error::Io(_)));
    assert_eq!(calls, 3, "stream must stop at the failing chunk");
    t.commit().unwrap();

    assert_eq!(gate.in_use(), 0, "gate budget leaked after sink error");
    db.blob_pool().audit().assert_no_leaked_pins();
}

#[test]
fn exhausted_gate_rejects_with_buffer_full() {
    let db = mem_db(small_cfg());
    let rel = db.create_relation("blobs", RelationKind::Blob).unwrap();
    let data = pattern(100_000, 9);
    let mut t = db.begin();
    t.put_blob(&rel, b"k", &data).unwrap();
    t.commit().unwrap();

    let gate = PinGate::new(1 << 20);
    // Another stream holds the whole budget.
    gate.acquire(1 << 20, Duration::from_millis(10)).unwrap();

    let mut t = db.begin();
    let mut calls = 0;
    let err = t
        .stream_blob_range(
            &rel,
            b"k",
            0,
            u64::MAX,
            4096,
            Some((&gate, Duration::from_millis(20))),
            &mut |_, _| {
                calls += 1;
                Ok(())
            },
        )
        .unwrap_err();
    assert!(matches!(err, Error::BufferFull), "got {err:?}");
    assert_eq!(calls, 0, "rejected stream must not deliver bytes");
    t.commit().unwrap();
    // Rejection pins nothing.
    db.blob_pool().audit().assert_no_leaked_pins();
    assert_eq!(gate.in_use(), 1 << 20, "only the pre-acquired budget");
}

#[test]
fn sharded_stream_routes_and_matches() {
    use lobster_core::{ShardDevices, ShardedDatabase};
    let devs = (0..4)
        .map(|_| ShardDevices {
            data: Arc::new(MemDevice::new(64 << 20)) as _,
            wal: Arc::new(MemDevice::new(16 << 20)) as _,
        })
        .collect::<Vec<_>>();
    let sdb = ShardedDatabase::create(devs, small_cfg()).unwrap();
    let rel = sdb.create_relation("blobs", RelationKind::Blob).unwrap();

    for i in 0..16u64 {
        let key = format!("key-{i}").into_bytes();
        let data = pattern(50_000 + i as usize * 1000, i);
        let mut t = sdb.begin_with_worker(i as usize);
        t.put_blob(&rel, &key, &data).unwrap();
        t.commit().unwrap();

        let mut t = sdb.begin_with_worker(i as usize);
        let mut out = Vec::new();
        let n = t
            .stream_blob_range(&rel, &key, 100, 30_000, 8192, None, &mut |_, b| {
                out.extend_from_slice(b);
                Ok(())
            })
            .unwrap();
        t.commit().unwrap();
        assert_eq!(n, 30_000);
        assert_eq!(&out[..], &data[100..30_100]);
    }
}

/// The stream is the request's only resolution: it reports a missing key
/// and an empty range itself, and costs one B-Tree descent — what a bare
/// `blob_state` costs — not two.
#[test]
fn stream_is_the_single_resolution() {
    let db = mem_db(small_cfg());
    let rel = db.create_relation("blobs", RelationKind::Blob).unwrap();
    let data = pattern(4096, 5);
    let mut t = db.begin();
    t.put_blob(&rel, b"k", &data).unwrap();
    t.commit().unwrap();

    let mut t = db.begin();
    let err = t
        .stream_blob_range(&rel, b"absent", 0, u64::MAX, 4096, None, &mut |_, _| Ok(()))
        .unwrap_err();
    assert!(matches!(err, Error::KeyNotFound), "got {err:?}");
    let mut calls = 0;
    for (offset, len) in [(4096, 10), (0, 0), (u64::MAX, u64::MAX)] {
        let n = t
            .stream_blob_range(&rel, b"k", offset, len, 4096, None, &mut |_, _| {
                calls += 1;
                Ok(())
            })
            .unwrap();
        assert_eq!(n, 0);
    }
    assert_eq!(calls, 0, "an empty range never reaches the sink");
    t.commit().unwrap();

    let descents = |f: &mut dyn FnMut(&mut lobster_core::Txn)| {
        let before = db.metrics().snapshot().btree_node_accesses;
        let mut t = db.begin();
        f(&mut t);
        t.commit().unwrap();
        db.metrics().snapshot().btree_node_accesses - before
    };
    let stat = descents(&mut |t| {
        t.blob_state(&rel, b"k").unwrap().unwrap();
    });
    let mut out = Vec::new();
    let stream = descents(&mut |t| {
        let n = t
            .stream_blob_range(&rel, b"k", 0, u64::MAX, 4096, None, &mut |_, b| {
                out.extend_from_slice(b);
                Ok(())
            })
            .unwrap();
        assert_eq!(n, 4096);
    });
    assert_eq!(out, data);
    assert!(stat > 0);
    assert_eq!(stream, stat, "one descent per stream");
}
