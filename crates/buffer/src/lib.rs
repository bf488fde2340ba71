//! Buffer management for LOBSTER (§III-G and §IV of the paper).
//!
//! Two pool designs are provided, matching the paper's comparison:
//!
//! * [`ExtentPool`] — the vmcache-style pool: a flat page table with CAS
//!   state transitions, **extent-granular (coarse) latching**, contiguous
//!   frame ranges per extent out of free runs that merge when freed, one
//!   evictor — a hand that sweeps the frames in arena order and frees a
//!   window of contiguous frames, so eviction is per-page fair and a full
//!   pool still frames a BLOB as one run — and a `prevent_evict` pin used
//!   by the single-flush commit protocol. A whole-BLOB read
//!   ([`ExtentPool::read_blob`]) takes one of three shapes: extents framed
//!   back to back — a placement framed as one run ([`BlobPool::place`]) —
//!   are read **in place**, one slice of the arena; scattered ones of at
//!   least [`ALIAS_MIN_BYTES`] are presented as one contiguous zero-copy
//!   view by **virtual-memory aliasing** ([`AliasingManager`], memfd+mmap —
//!   see DESIGN.md substitution 2); smaller scattered ones are copied out of
//!   their frames.
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
mod sweep;

pub use alias::{AliasConfig, AliasGuard, AliasStats, AliasingManager};
pub use arena::{Arena, OS_PAGE};
pub use blob_pool::{BlobPool, FlushTicket, PieceReads, Placement};
pub use htpool::HashTablePool;
pub use pool::{ExtentPool, FlushBatch, FlushItem, PoolConfig, ShGuard, XGuard, ALIAS_MIN_BYTES};
pub use stream::PinGate;

#[cfg(test)]
mod tests {
    use super::*;
    use lobster_extent::ExtentSpec;
    use lobster_storage::{Device, MemDevice};
    use lobster_sync::Arc;
    use lobster_types::{Error, Geometry, Pid};

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
        framed_blob(pool, extents, len, false)
    }

    /// [`resident_blob`] with a pinned one-frame spacer framed after each
    /// extent, so no two of the BLOB's extents sit back to back in the
    /// arena and `read_blob` must alias or copy them.
    fn scattered_blob(pool: &ExtentPool, extents: &[ExtentSpec], len: usize) -> Vec<u8> {
        framed_blob(pool, extents, len, true)
    }

    /// First pid of the spacers [`scattered_blob`] frames, above every
    /// extent the tests read.
    const SPACERS: u64 = 4000;

    fn framed_blob(pool: &ExtentPool, extents: &[ExtentSpec], len: usize, spaced: bool) -> Vec<u8> {
        let mut want = Vec::new();
        for (i, &e) in extents.iter().enumerate() {
            let mut g = pool.create_extent(e).unwrap();
            g.fill(i as u8 + 1);
            g.mark_dirty();
            want.extend_from_slice(&g[..]);
            drop(g);
            if spaced {
                let spacer = ExtentSpec::new(Pid::new(SPACERS + i as u64), 1);
                pool.create_extent(spacer).unwrap().set_prevent_evict();
            }
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
        let want = scattered_blob(&pool, &extents, len);
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
        let want = scattered_blob(&pool, &extents, len);
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
        let want = scattered_blob(&pool, &extents, len);
        let (got, alias_ops, memcpy) = read_shape(&pool, &extents, len);
        assert_eq!(got, want);
        assert_eq!(alias_ops, 0);
        assert_eq!(memcpy, len as u64);
    }

    /// The content view of a BLOB of `pages` under the default tier
    /// sequence (1, 2, 4, … pages, then what is left), from `first` on.
    fn tier_blob(first: u64, pages: u64) -> Vec<ExtentSpec> {
        let (mut at, mut left, mut tier) = (first, pages, 1);
        let mut out = Vec::new();
        while left > 0 {
            let spec = ExtentSpec::new(Pid::new(at), tier.min(left));
            out.push(spec);
            (at, left, tier) = (at + spec.pages, left - spec.pages, tier * 2);
        }
        out
    }

    #[test]
    fn adjacent_frames_are_read_in_place() {
        // A 100 KiB BLOB of five extents and a 1 MiB one of nine, framed
        // back to back when created and again when faulted back into the
        // free run their own frames merged into: neither mapped nor copied.
        let pool = pool_sharing(512, Some(2 << 20));
        for (extents, len) in [
            (tier_blob(0, 25), 100 << 10),
            (tier_blob(100, 256), ALIAS_MIN_BYTES as usize),
        ] {
            assert_eq!(extents.len(), if len == 100 << 10 { 5 } else { 9 });
            let want = resident_blob(&pool, &extents, len);
            let items: Vec<FlushItem> = extents.iter().map(|&e| FlushItem::whole(e)).collect();
            pool.flush_extents(&items).unwrap();
            for cold in [false, true] {
                if cold {
                    extents.iter().for_each(|&e| pool.drop_extent(e));
                }
                let (got, alias_ops, memcpy) = read_shape(&pool, &extents, len);
                assert!(got == want, "{} extents, cold {cold}", extents.len());
                assert_eq!((alias_ops, memcpy), (0, 0), "{} extents", extents.len());
            }
        }
    }

    /// Fill every free frame of `pool` with a clean, unpinned one-page
    /// extent, from pid `first` on.
    fn fill_with_clean_pages(pool: &ExtentPool, first: u64) {
        let free = pool.frame_count() - pool.frames_in_use();
        for pid in first..first + free {
            let page = ExtentSpec::new(Pid::new(pid), 1);
            drop(pool.create_extent(page).unwrap());
        }
        assert_eq!(pool.frames_in_use(), pool.frame_count());
    }

    #[test]
    fn a_full_pool_frames_a_placement_as_one_run_and_reads_it_in_place() {
        // No free frame, and no two one-page extents of the filling that
        // the hand may not evict: it clears a window of 256 frames for the
        // nine extents of a 1 MiB placement.
        let pool = pool_sharing(512, Some(2 << 20));
        fill_with_clean_pages(&pool, 1000);
        let extents = tier_blob(0, 256);
        let len = ALIAS_MIN_BYTES as usize;
        let want: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        let blob = BlobPool::Vm(pool.clone());
        let mut placement = blob.place(extents.len(), 256);
        let mut at = 0;
        for &e in &extents {
            let bytes = (e.pages as usize) * 4096;
            placement
                .fill_hashed(e, &want[at..at + bytes], &mut |_| ())
                .unwrap();
            at += bytes;
        }
        drop(placement);
        let (got, alias_ops, memcpy) = read_shape(&pool, &extents, len);
        assert!(got == want);
        assert_eq!((alias_ops, memcpy), (0, 0));
    }

    #[test]
    fn a_whole_blob_cold_fault_in_a_full_pool_is_read_in_place() {
        // The nine extents of a 1 MiB BLOB, evicted, then every frame
        // filled: one fault batch claims them all and takes one window.
        let pool = pool_sharing(512, Some(2 << 20));
        let extents = tier_blob(0, 256);
        let len = ALIAS_MIN_BYTES as usize;
        let want = resident_blob(&pool, &extents, len);
        let items: Vec<FlushItem> = extents.iter().map(|&e| FlushItem::whole(e)).collect();
        pool.flush_extents(&items).unwrap();
        extents.iter().for_each(|&e| pool.drop_extent(e));
        fill_with_clean_pages(&pool, 1000);
        let before = pool.metrics().snapshot();
        let (got, alias_ops, memcpy) = read_shape(&pool, &extents, len);
        let delta = pool.metrics().snapshot() - before;
        assert!(got == want);
        assert_eq!(delta.fault_batches, 1, "one batch for the whole BLOB");
        assert_eq!((alias_ops, memcpy), (0, 0));
    }

    #[test]
    fn a_fault_wider_than_every_free_run_is_refused_until_an_unpin() {
        // 32 extents of two frames fill the arena; every other one is
        // pinned, so the hand finds windows of two frames and never three.
        let pool = vm_pool(64, false);
        let pair = |i: u64| ExtentSpec::new(Pid::new(2 * i), 2);
        for i in 0..32 {
            let g = pool.create_extent(pair(i)).unwrap();
            if i % 2 == 0 {
                g.set_prevent_evict();
            }
        }
        let wide = ExtentSpec::new(Pid::new(1000), 3);
        // Each refusal is one revolution of the hand.
        let t = std::time::Instant::now();
        assert!(matches!(pool.fault_many(&[wide]), Err(Error::BufferFull)));
        assert!(matches!(pool.read_extent(wide), Err(Error::BufferFull)));
        assert!(
            t.elapsed() < std::time::Duration::from_secs(10),
            "refusal took {:?}",
            t.elapsed()
        );
        assert!(
            !pool.is_resident(wide.start),
            "a refused fault leaves no claim"
        );
        assert!(
            (0..32).all(|i| pool.is_resident(pair(i).start)),
            "a sweep that finds no window evicts nothing"
        );
        // Unpinned, pair 2 and its evictable neighbours free six frames.
        pool.set_prevent_evict(pair(2).start, false);
        assert_eq!(pool.fault_many(&[wide]).unwrap(), 1);
        assert!(pool.read_extent(wide).is_ok());
    }

    #[test]
    fn a_failed_fault_batch_returns_its_frames() {
        use lobster_storage::{FaultConfig, FaultDevice, FaultKind};
        let dev = Arc::new(FaultDevice::new(
            MemDevice::new(16 << 20),
            FaultConfig::new(7, 1000, &[FaultKind::PermanentRead]),
        ));
        let pool = ExtentPool::new(
            dev.clone() as Arc<dyn Device>,
            Geometry::new(4096),
            PoolConfig {
                frames: 64,
                alias: None,
                io_threads: 1,
            },
            lobster_metrics::new_metrics(),
        );
        let resident = ExtentSpec::new(Pid::new(0), 3);
        drop(pool.create_extent(resident).unwrap());
        let before = pool.frames_in_use();
        dev.arm();
        let batch = tier_blob(100, 25);
        assert!(pool.fault_many(&batch).is_err());
        dev.disarm();
        assert_eq!(pool.frames_in_use(), before);
        assert!(batch.iter().all(|e| !pool.is_resident(e.start)));
        // The frames are usable: the same batch, on a healthy device,
        // takes one run.
        assert_eq!(pool.fault_many(&batch).unwrap(), 5);
        assert_eq!(pool.frames_in_use(), before + 25);
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
