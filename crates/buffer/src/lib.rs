//! Buffer management for LOBSTER (§III-G and §IV of the paper).
//!
//! Two pool designs are provided, matching the paper's comparison:
//!
//! * [`ExtentPool`] — the vmcache-style pool: a flat page table with CAS
//!   state transitions, **extent-granular (coarse) latching**, contiguous
//!   frame ranges per extent, size-fair randomized eviction, a
//!   `prevent_evict` pin used by the single-flush commit protocol, and
//!   **virtual-memory aliasing** that presents multi-extent BLOBs of at
//!   least [`ALIAS_MIN_BYTES`] as one contiguous zero-copy view
//!   ([`AliasingManager`], memfd+mmap — see DESIGN.md substitution 2);
//!   smaller ones are copied out of their frames.
//! * [`HashTablePool`] — the traditional design (`Our.ht` baseline):
//!   per-page hash-map translation, scattered frames, malloc+memcpy reads.
//!
//! [`BlobPool`] is the configuration-selected facade the engine uses.

// Every `unsafe` block must carry a `// SAFETY:` justification; enforced
// in CI via clippy (`undocumented_unsafe_blocks`).
#![deny(clippy::undocumented_unsafe_blocks)]

mod alias;
mod arena;
mod blob_pool;
mod entry;
mod flush_ledger;
mod htpool;
mod pool;
mod stream;

pub use alias::{AliasConfig, AliasGuard, AliasStats, AliasingManager};
pub use arena::{Arena, OS_PAGE};
pub use blob_pool::{BlobPool, FlushTicket, PieceReads};
pub use htpool::HashTablePool;
pub use pool::{ExtentPool, FlushBatch, FlushItem, PoolConfig, ShGuard, XGuard, ALIAS_MIN_BYTES};
pub use stream::PinGate;

#[cfg(test)]
mod tests {
    use super::*;
    use lobster_extent::ExtentSpec;
    use lobster_storage::{Device, MemDevice};
    use lobster_sync::Arc;
    use lobster_types::{Geometry, Pid};

    fn vm_pool(frames: u64, alias: bool) -> Arc<ExtentPool> {
        pool_sharing(frames, alias.then_some(512 * 1024))
    }

    /// A pool whose aliasing areas (if any) are two 64 KiB worker-local
    /// ones and a shared one of `shared_bytes`.
    fn pool_sharing(frames: u64, shared_bytes: Option<usize>) -> Arc<ExtentPool> {
        let dev: Arc<dyn Device> = Arc::new(MemDevice::new(16 << 20));
        let cfg = PoolConfig {
            frames,
            alias: shared_bytes.map(|shared_bytes| AliasConfig {
                workers: 2,
                worker_local_bytes: 64 * 1024,
                shared_bytes,
            }),
            io_threads: 2,
        };
        ExtentPool::new(
            dev,
            Geometry::new(4096),
            cfg,
            lobster_metrics::new_metrics(),
        )
    }

    /// Frame `extents`, extent `i` filled with byte `i + 1`; the first
    /// `len` bytes are the BLOB they hold.
    fn resident_blob(pool: &ExtentPool, extents: &[ExtentSpec], len: usize) -> Vec<u8> {
        let mut want = Vec::new();
        for (i, &e) in extents.iter().enumerate() {
            let mut g = pool.create_extent(e).unwrap();
            g.fill(i as u8 + 1);
            g.mark_dirty();
            want.extend_from_slice(&g[..]);
        }
        want.truncate(len);
        want
    }

    /// `read_blob` of `extents`: the bytes `f` saw, and the `alias_ops` and
    /// `memcpy_bytes` the read cost.
    fn read_shape(pool: &ExtentPool, extents: &[ExtentSpec], len: usize) -> (Vec<u8>, u64, u64) {
        let before = pool.metrics().snapshot();
        let got = pool
            .read_blob(0, extents, len as u64, |view| view.to_vec())
            .unwrap();
        let delta = pool.metrics().snapshot() - before;
        (got, delta.alias_ops, delta.memcpy_bytes)
    }

    /// Two extents of 128 pages: a BLOB of exactly `ALIAS_MIN_BYTES`.
    fn threshold_blob() -> [ExtentSpec; 2] {
        assert_eq!(ALIAS_MIN_BYTES, 256 * 4096, "the shape below assumes it");
        [
            ExtentSpec::new(Pid::new(0), 128),
            ExtentSpec::new(Pid::new(200), 128),
        ]
    }

    #[test]
    fn create_flush_evict_reload() {
        let pool = vm_pool(64, false);
        let spec = ExtentSpec::new(Pid::new(5), 4);
        let data: Vec<u8> = (0..4 * 4096).map(|i| (i % 253) as u8).collect();
        {
            let mut g = pool.create_extent(spec).unwrap();
            g[..].copy_from_slice(&data);
            g.mark_dirty();
            g.set_prevent_evict();
        }
        assert!(pool.is_dirty(spec.start));
        pool.flush_extents(&[FlushItem::whole(spec)]).unwrap();
        assert!(!pool.is_dirty(spec.start), "flush must clean the extent");
        pool.drop_extent(spec);
        assert!(!pool.is_resident(spec.start));

        let g = pool.read_extent(spec).unwrap();
        assert_eq!(&g[..], &data[..]);
    }

    #[test]
    fn shared_guards_are_concurrent() {
        let pool = vm_pool(64, false);
        let spec = ExtentSpec::new(Pid::new(0), 2);
        {
            let mut g = pool.create_extent(spec).unwrap();
            g.fill(3);
            g.mark_dirty();
        }
        let g1 = pool.read_extent(spec).unwrap();
        let g2 = pool.read_extent(spec).unwrap();
        assert_eq!(g1[0], 3);
        assert_eq!(g2[0], 3);
    }

    #[test]
    fn eviction_frees_frames_under_pressure() {
        let pool = vm_pool(16, false);
        // Create 8 extents of 4 pages = 32 pages > 16 frames; older ones
        // must be evicted (they are clean after flush).
        for e in 0..8u64 {
            let spec = ExtentSpec::new(Pid::new(e * 4), 4);
            {
                let mut g = pool.create_extent(spec).unwrap();
                g.fill(e as u8);
                g.mark_dirty();
            }
            pool.flush_extents(&[FlushItem::whole(spec)]).unwrap();
        }
        assert!(pool.frames_in_use() <= 16);
        // Every extent must still be readable (reloaded from device).
        for e in 0..8u64 {
            let spec = ExtentSpec::new(Pid::new(e * 4), 4);
            let g = pool.read_extent(spec).unwrap();
            assert!(g.iter().all(|&b| b == e as u8), "extent {e} corrupted");
        }
    }

    #[test]
    fn prevent_evict_blocks_eviction() {
        let pool = vm_pool(8, false);
        let pinned = ExtentSpec::new(Pid::new(0), 4);
        {
            let mut g = pool.create_extent(pinned).unwrap();
            g.fill(0xAA);
            g.mark_dirty();
            g.set_prevent_evict();
        }
        // Fill the rest of the pool; the pinned extent must survive.
        for e in 1..6u64 {
            let spec = ExtentSpec::new(Pid::new(e * 4), 4);
            if let Ok(mut g) = pool.create_extent(spec) {
                g.fill(e as u8);
                g.mark_dirty();
            }
            pool.flush_extents(&[FlushItem::whole(spec)]).ok();
        }
        assert!(pool.is_resident(pinned.start), "pinned extent evicted");
        assert!(pool.is_dirty(pinned.start), "pinned extent must stay dirty");
    }

    #[test]
    fn streaming_lease_pins_and_unpins() {
        let pool = vm_pool(8, false);
        let leased = ExtentSpec::new(Pid::new(0), 4);
        {
            let mut g = pool.create_extent(leased).unwrap();
            g.fill(0x5A);
            g.mark_dirty();
        }
        pool.flush_extents(&[FlushItem::whole(leased)]).unwrap();
        assert!(!pool.is_dirty(leased.start), "flushed extent must be clean");

        pool.lease_extent(leased).unwrap();
        #[cfg(debug_assertions)]
        assert_eq!(
            pool.audit().leaked_pins(),
            vec![leased.start.raw()],
            "lease must register in the pin ledger"
        );

        // Fill the pool well past capacity; the clean-but-leased extent
        // must survive every eviction pass.
        for e in 1..6u64 {
            let spec = ExtentSpec::new(Pid::new(e * 4), 4);
            if let Ok(mut g) = pool.create_extent(spec) {
                g.fill(e as u8);
                g.mark_dirty();
            }
            pool.flush_extents(&[FlushItem::whole(spec)]).ok();
        }
        assert!(pool.is_resident(leased.start), "leased extent evicted");

        // Chunk reads see the leased bytes without re-faulting.
        let before = pool.metrics().snapshot();
        pool.read_chunk(leased, 4096 + 7, 100, |b| {
            assert_eq!(b.len(), 100);
            assert!(b.iter().all(|&x| x == 0x5A));
        })
        .unwrap();
        let delta = pool.metrics().snapshot() - before;
        assert_eq!(delta.cache_misses, 0, "leased chunk read must be a hit");

        pool.unlease_extent(leased);
        #[cfg(debug_assertions)]
        assert!(
            pool.audit().leaked_pins().is_empty(),
            "unlease must clear the pin ledger"
        );
    }

    #[test]
    fn read_chunk_refaults_after_eviction() {
        let pool = vm_pool(8, false);
        let spec = ExtentSpec::new(Pid::new(0), 2);
        {
            let mut g = pool.create_extent(spec).unwrap();
            g.fill(0xC3);
            g.mark_dirty();
        }
        pool.flush_extents(&[FlushItem::whole(spec)]).unwrap();
        pool.drop_extent(spec);
        assert!(!pool.is_resident(spec.start));
        // A chunk read on a non-resident extent faults it back in — losing
        // a lease costs a re-read, never an error.
        pool.read_chunk(spec, 4095, 2, |b| assert_eq!(b, [0xC3, 0xC3]))
            .unwrap();
        assert!(pool.is_resident(spec.start));
    }

    #[test]
    fn multi_extent_blob_below_alias_min_is_copied() {
        let pool = vm_pool(64, true);
        let extents = [
            ExtentSpec::new(Pid::new(0), 1),
            ExtentSpec::new(Pid::new(10), 2),
        ];
        let len = 3 * 4096 - 100; // logical size ends mid-page
        let want = resident_blob(&pool, &extents, len);
        let (got, alias_ops, memcpy) = read_shape(&pool, &extents, len);
        assert_eq!(got, want);
        assert_eq!(alias_ops, 0, "a small BLOB is not mapped");
        assert_eq!(memcpy, len as u64, "it is copied once, exactly");
    }

    #[test]
    fn multi_extent_blob_at_alias_min_is_aliased() {
        let pool = pool_sharing(512, Some(2 << 20));
        if !pool.aliasing_enabled() {
            eprintln!("no mmap arena; skipping");
            return;
        }
        let extents = threshold_blob();
        let len = ALIAS_MIN_BYTES as usize;
        let want = resident_blob(&pool, &extents, len);
        let (got, alias_ops, memcpy) = read_shape(&pool, &extents, len);
        assert_eq!(got, want);
        // Two maps and the remap that ends the view.
        assert_eq!(alias_ops, 3);
        assert_eq!(memcpy, 0, "an aliased read is zero-copy");
    }

    #[test]
    fn large_blob_without_a_free_shared_run_is_copied() {
        // The shared area (512 KiB) cannot hold the view: the read must
        // still succeed, by copy, not fail with `BufferFull`.
        let pool = vm_pool(512, true);
        let extents = threshold_blob();
        let len = ALIAS_MIN_BYTES as usize;
        let want = resident_blob(&pool, &extents, len);
        let (got, alias_ops, memcpy) = read_shape(&pool, &extents, len);
        assert_eq!(got, want);
        assert_eq!(alias_ops, 0);
        assert_eq!(memcpy, len as u64);
    }

    #[test]
    fn single_extent_blob_read_needs_no_alias() {
        // Neither mapped nor copied, whatever its size.
        let pool = pool_sharing(512, Some(2 << 20));
        for (e, len) in [
            (ExtentSpec::new(Pid::new(0), 2), 5000),
            (
                ExtentSpec::new(Pid::new(10), 257),
                ALIAS_MIN_BYTES as usize + 1,
            ),
        ] {
            let want = resident_blob(&pool, &[e], len);
            let (got, alias_ops, memcpy) = read_shape(&pool, &[e], len);
            assert_eq!(got, want);
            assert_eq!(alias_ops, 0, "single extent is already contiguous");
            assert_eq!(memcpy, 0);
        }
    }

    #[test]
    fn blob_pool_facade_roundtrip_both_variants() {
        let dev: Arc<dyn Device> = Arc::new(MemDevice::new(16 << 20));
        let geo = Geometry::new(4096);
        let m = lobster_metrics::new_metrics();
        let variants = vec![
            BlobPool::Vm(ExtentPool::new(
                dev.clone(),
                geo,
                PoolConfig {
                    frames: 64,
                    alias: None,
                    io_threads: 1,
                },
                m.clone(),
            )),
            BlobPool::Ht(HashTablePool::new(dev.clone(), geo, 64, m.clone())),
        ];
        for (vi, pool) in variants.into_iter().enumerate() {
            let spec = ExtentSpec::new(Pid::new(100 + (vi as u64) * 10), 3);
            let data: Vec<u8> = (0..3 * 4096).map(|i| ((i + vi) % 251) as u8).collect();
            pool.fill_extent_hashed(spec, &data, &mut |_| ()).unwrap();
            pool.flush_extents(&[FlushItem::whole(spec)]).unwrap();
            pool.drop_extents(&[spec]);
            let out = pool
                .read_blob(0, &[spec], data.len() as u64, |b| b.to_vec())
                .unwrap();
            assert_eq!(out, data, "variant {vi}");
        }
    }

    #[test]
    fn coarse_latching_one_load_for_concurrent_readers() {
        let pool = vm_pool(64, false);
        let spec = ExtentSpec::new(Pid::new(0), 8);
        {
            let mut g = pool.create_extent(spec).unwrap();
            g.fill(7);
            g.mark_dirty();
        }
        pool.flush_extents(&[FlushItem::whole(spec)]).unwrap();
        pool.drop_extent(spec);

        let before = pool.metrics().snapshot();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let p = &pool;
                s.spawn(move || {
                    let g = p.read_extent(spec).unwrap();
                    assert_eq!(g[0], 7);
                });
            }
        });
        let delta = pool.metrics().snapshot() - before;
        assert_eq!(delta.cache_misses, 1, "exactly one thread loads the extent");
        assert_eq!(delta.pages_read, 8);
    }
}
