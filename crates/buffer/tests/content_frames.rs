//! Content-bounded framing: the pool frames, faults and flushes exactly the
//! pages a caller's spec names; a resident extent re-frames when a caller
//! names more pages than it holds (growth) and gives frames back when told
//! its content shrank; and a cache miss is a device read, nothing else.

use lobster_buffer::{ExtentPool, FlushItem, PoolConfig};
use lobster_extent::ExtentSpec;
use lobster_storage::{Device, MemDevice};
use lobster_types::{Error, Geometry, Pid, Result};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const PAGE: usize = 4096;

/// A memory device counting read calls and pages read.
struct CountingDevice {
    inner: MemDevice,
    reads: AtomicU64,
    pages: AtomicU64,
}

impl Device for CountingDevice {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> Result<()> {
        self.reads.fetch_add(1, Ordering::SeqCst);
        self.pages
            .fetch_add((buf.len() / PAGE) as u64, Ordering::SeqCst);
        self.inner.read_at(buf, offset)
    }
    fn write_at(&self, buf: &[u8], offset: u64) -> Result<()> {
        self.inner.write_at(buf, offset)
    }
    fn sync(&self) -> Result<()> {
        self.inner.sync()
    }
    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }
}

fn pool(frames: u64) -> (Arc<ExtentPool>, Arc<CountingDevice>) {
    let dev = Arc::new(CountingDevice {
        inner: MemDevice::new(16 << 20),
        reads: AtomicU64::new(0),
        pages: AtomicU64::new(0),
    });
    let pool = ExtentPool::new(
        dev.clone(),
        Geometry::new(PAGE),
        PoolConfig {
            frames,
            ..PoolConfig::default()
        },
        lobster_metrics::new_metrics(),
    );
    (pool, dev)
}

fn reads(dev: &CountingDevice) -> u64 {
    dev.reads.load(Ordering::SeqCst)
}

fn pages(dev: &CountingDevice) -> u64 {
    dev.pages.load(Ordering::SeqCst)
}

/// Page `i` of the extent at `start` is filled with this byte.
fn fill_byte(start: u64, i: usize) -> u8 {
    (start as usize * 7 + i) as u8
}

/// Frame `spec` fresh, give every page its `fill_byte`, leave it dirty.
fn seed(pool: &ExtentPool, spec: ExtentSpec) {
    let mut g = pool.create_extent(spec).unwrap();
    for (i, page) in g.chunks_mut(PAGE).enumerate() {
        page.fill(fill_byte(spec.start.raw(), i));
    }
    g.mark_dirty();
}

fn assert_pages(bytes: &[u8], start: u64, n: usize) {
    for i in 0..n {
        assert!(
            bytes[i * PAGE..(i + 1) * PAGE]
                .iter()
                .all(|&b| b == fill_byte(start, i)),
            "page {i} of extent {start} corrupted"
        );
    }
}

/// Satellite: `cache_misses` counts device reads — a freshly framed extent
/// (`create_extent`) is not a miss, and a hit reads nothing.
#[test]
fn cache_misses_equal_device_reads() {
    let (pool, dev) = pool(256);
    let misses = || pool.metrics().snapshot().cache_misses;
    let specs: Vec<ExtentSpec> = (0..8u64)
        .map(|e| ExtentSpec::new(Pid::new(e * 8), 1 + e % 4))
        .collect();
    for spec in &specs {
        seed(&pool, *spec);
    }
    assert_eq!(
        (misses(), reads(&dev)),
        (0, 0),
        "fresh extents miss nothing"
    );

    let items: Vec<FlushItem> = specs.iter().map(|s| FlushItem::whole(*s)).collect();
    pool.flush_extents(&items).unwrap();
    assert_eq!((misses(), reads(&dev)), (0, 0), "flushing resident extents");

    pool.drop_caches();
    let len: u64 = specs[..4].iter().map(|s| s.pages * PAGE as u64).sum();
    pool.read_blob(0, &specs[..4], len, |_| ()).unwrap();
    assert_eq!((misses(), reads(&dev)), (4, 4), "one read per cold extent");
    for spec in &specs {
        drop(pool.read_extent(*spec).unwrap());
    }
    assert_eq!((misses(), reads(&dev)), (8, 8), "four hits, four misses");
    drop(pool.write_extent(specs[0]).unwrap());
    assert_eq!((misses(), reads(&dev)), (8, 8), "exclusive hit");
    assert_eq!(pool.audit().held_latches(), 0);
}

/// Growth into a resident, content-framed extent copies the resident pages
/// into a wider framing without touching the device, keeps the flags, and
/// doubles so that a run of small appends copies O(1) times per byte.
#[test]
fn growth_reframes_a_resident_extent_without_rereading() {
    for clean in [false, true] {
        let (pool, dev) = pool(64);
        let start = Pid::new(32);
        seed(&pool, ExtentSpec::new(start, 2));
        if clean {
            pool.flush_extents(&[FlushItem::whole(ExtentSpec::new(start, 2))])
                .unwrap();
        }
        assert_eq!(pool.frames_in_use(), 2);

        // Content grows to 3 pages inside a 16-page allocation.
        let mut g = pool
            .write_extent_growing(ExtentSpec::new(start, 3), 16, 2)
            .unwrap();
        assert_eq!(g.len(), 4 * PAGE, "doubled: max(3, min(2 * 2, 16))");
        assert_pages(&g, 32, 2);
        g[2 * PAGE..3 * PAGE].fill(fill_byte(32, 2));
        g.mark_dirty();
        drop(g);
        assert_eq!(pool.frames_in_use(), 4, "old frames returned");
        assert_eq!(reads(&dev), 0, "resident pages are copied, not re-read");
        assert!(pool.is_dirty(start));

        // The next small append fits the doubled framing: no re-frame.
        let g = pool
            .write_extent_growing(ExtentSpec::new(start, 4), 16, 3)
            .unwrap();
        assert_eq!(g.len(), 4 * PAGE);
        drop(g);

        // Growth never frames past the allocation.
        let g = pool
            .write_extent_growing(ExtentSpec::new(start, 5), 6, 4)
            .unwrap();
        assert_eq!(g.len(), 6 * PAGE, "capped: max(5, min(2 * 4, 6))");
        assert_pages(&g, 32, 3);
        drop(g);
        assert_eq!(pool.frames_in_use(), 6);
        assert_eq!(reads(&dev), 0);

        pool.flush_extents(&[FlushItem {
            spec: ExtentSpec::new(start, 5),
            dirty_from: 0,
            dirty_pages: 5,
        }])
        .unwrap();
        assert_eq!(pool.audit().held_latches(), 0);
        pool.audit().assert_no_leaked_pins();
    }
}

/// A cold extent grown by an append loads only the pages that held content
/// before it, and frames only what the content needs after it.
#[test]
fn growth_into_a_cold_extent_reads_only_valid_pages() {
    let (pool, dev) = pool(64);
    let start = Pid::new(8);
    seed(&pool, ExtentSpec::new(start, 2));
    pool.flush_extents(&[FlushItem::whole(ExtentSpec::new(start, 2))])
        .unwrap();
    pool.drop_caches();

    let g = pool
        .write_extent_growing(ExtentSpec::new(start, 5), 256, 2)
        .unwrap();
    assert_eq!(g.len(), 5 * PAGE, "nothing resident to double");
    assert_pages(&g, 8, 2);
    drop(g);
    assert_eq!((reads(&dev), pages(&dev)), (1, 2));
    assert_eq!(pool.frames_in_use(), 5);
}

/// A reader naming more pages than are resident (the framing predates a
/// growth this pool copy never saw) gets the missing pages from the device;
/// one naming fewer sees the wider resident range.
#[test]
fn readers_with_wider_and_narrower_specs() {
    let (pool, dev) = pool(64);
    let start = Pid::new(16);
    seed(&pool, ExtentSpec::new(start, 5));
    pool.flush_extents(&[FlushItem::whole(ExtentSpec::new(start, 5))])
        .unwrap();
    pool.drop_caches();

    let g = pool.read_extent(ExtentSpec::new(start, 2)).unwrap();
    assert_eq!(g.len(), 2 * PAGE);
    drop(g);
    assert_eq!((pool.frames_in_use(), pages(&dev)), (2, 2));

    let g = pool.read_extent(ExtentSpec::new(start, 5)).unwrap();
    assert_eq!(g.len(), 5 * PAGE);
    assert_pages(&g, 16, 5);
    drop(g);
    assert_eq!(
        (pool.frames_in_use(), pages(&dev)),
        (5, 5),
        "pages 2..5 only"
    );

    let g = pool.read_extent(ExtentSpec::new(start, 2)).unwrap();
    assert_eq!(g.len(), 5 * PAGE, "a guard spans the resident pages");
    drop(g);
    // A BLOB view takes only the pages it names from the wider framing.
    let other = ExtentSpec::new(Pid::new(40), 1);
    seed(&pool, other);
    pool.read_blob(
        0,
        &[ExtentSpec::new(start, 2), other],
        3 * PAGE as u64,
        |view| {
            assert_pages(view, 16, 2);
            assert!(view[2 * PAGE..].iter().all(|&b| b == fill_byte(40, 0)));
        },
    )
    .unwrap();
    assert_eq!(pages(&dev), 5);
    assert_eq!(pool.audit().held_latches(), 0);
}

/// Shrink: a clean resident extent gives back the frames past its new
/// content; a dirty one keeps them, because a queued flush may name them.
#[test]
fn trim_returns_frames_of_clean_extents_only() {
    let (pool, dev) = pool(64);
    let clean = Pid::new(0);
    let dirty = Pid::new(16);
    seed(&pool, ExtentSpec::new(clean, 8));
    seed(&pool, ExtentSpec::new(dirty, 8));
    pool.flush_extents(&[FlushItem::whole(ExtentSpec::new(clean, 8))])
        .unwrap();
    assert_eq!(pool.frames_in_use(), 16);

    pool.trim_extent(ExtentSpec::new(clean, 3));
    pool.trim_extent(ExtentSpec::new(dirty, 3));
    assert_eq!(pool.frames_in_use(), 3 + 8);

    let g = pool.read_extent(ExtentSpec::new(clean, 3)).unwrap();
    assert_eq!(g.len(), 3 * PAGE);
    assert_pages(&g, 0, 3);
    drop(g);
    let g = pool.read_extent(ExtentSpec::new(dirty, 3)).unwrap();
    assert_eq!(g.len(), 8 * PAGE);
    drop(g);

    // The flush staged before the shrink still finds its pages.
    pool.flush_extents(&[FlushItem::whole(ExtentSpec::new(dirty, 8))])
        .unwrap();
    // The freed frames are reusable and the trimmed extent evicts cleanly.
    seed(&pool, ExtentSpec::new(Pid::new(32), 5));
    pool.flush_extents(&[FlushItem::whole(ExtentSpec::new(Pid::new(32), 5))])
        .unwrap();
    pool.drop_caches();
    assert_eq!(pool.frames_in_use(), 0);
    assert_eq!(reads(&dev), 0);
    assert_eq!(pool.audit().held_latches(), 0);
}

/// A flush item reaching past the resident framing is refused before any
/// request points into the arena, and leaves no latch behind.
#[test]
fn flush_past_the_resident_pages_is_refused() {
    let (pool, _dev) = pool(64);
    let a = ExtentSpec::new(Pid::new(0), 2);
    let b = ExtentSpec::new(Pid::new(8), 2);
    seed(&pool, a);
    seed(&pool, b);
    let err = pool
        .flush_extents(&[
            FlushItem::whole(a),
            FlushItem {
                spec: b,
                dirty_from: 1,
                dirty_pages: 2,
            },
        ])
        .unwrap_err();
    assert!(matches!(err, Error::InvalidArgument(_)), "{err:?}");
    assert_eq!(pool.audit().held_latches(), 0);
    assert!(pool.is_dirty(a.start) && pool.is_dirty(b.start));
    pool.flush_extents(&[FlushItem::whole(a), FlushItem::whole(b)])
        .unwrap();
}
