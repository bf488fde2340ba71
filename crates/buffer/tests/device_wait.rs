//! A cold read waits for a modeled device in the engine, asleep: the
//! pool queues the read and sleeps until its completion instant
//! (`lobster_storage::wait_until`) instead of blocking inside the device.
//! The device here yield-spins in its own blocking `read_at`, as a device
//! outside the engine's control may, so a pool that called it would burn
//! the processor for the whole wait.

use lobster_buffer::{ExtentPool, FlushItem, PoolConfig};
use lobster_extent::ExtentSpec;
use lobster_storage::{Device, MemDevice, ThrottleProfile, ThrottledDevice};
use lobster_types::{Geometry, Pid, Result};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PAGE: usize = 4096;
/// Every request completes this long after it is queued.
const LATE: Duration = Duration::from_millis(3);

/// A [`ThrottledDevice`] whose blocking read yield-spins until the
/// modeled completion.
struct SpinningRead(ThrottledDevice<MemDevice>);

impl Device for SpinningRead {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> Result<()> {
        if let Some(deadline) = self.0.submit_read(buf, offset)? {
            while Instant::now() < deadline {
                std::thread::yield_now();
            }
        }
        Ok(())
    }
    fn write_at(&self, buf: &[u8], offset: u64) -> Result<()> {
        self.0.write_at(buf, offset)
    }
    fn sync(&self) -> Result<()> {
        self.0.sync()
    }
    fn capacity(&self) -> u64 {
        self.0.capacity()
    }
    fn submit_read(&self, buf: &mut [u8], offset: u64) -> Result<Option<Instant>> {
        self.0.submit_read(buf, offset)
    }
    fn submit_write(&self, buf: &[u8], offset: u64) -> Result<Option<Instant>> {
        self.0.submit_write(buf, offset)
    }
}

/// A pool over the spinning device holding one flushed, evicted extent.
fn cold_extent() -> (Arc<ExtentPool>, ExtentSpec) {
    let profile = ThrottleProfile {
        read_latency: LATE,
        write_latency: LATE,
        read_bw: 1 << 40,
        write_bw: 1 << 40,
        sync_latency: LATE,
    };
    let dev = ThrottledDevice::new(MemDevice::new(4 << 20), profile);
    let pool = ExtentPool::new(
        Arc::new(SpinningRead(dev)),
        Geometry::new(PAGE),
        PoolConfig {
            frames: 64,
            alias: None,
            io_threads: 2,
        },
        lobster_metrics::new_metrics(),
    );
    let spec = ExtentSpec::new(Pid::new(0), 16);
    {
        let mut g = pool.create_extent(spec).unwrap();
        g.fill(7);
        g.mark_dirty();
    }
    pool.flush_extents(&[FlushItem::whole(spec)]).unwrap();
    pool.drop_caches();
    assert!(!pool.is_resident(spec.start));
    (pool, spec)
}

/// Processor time the calling thread has used: the first field of
/// `/proc/thread-self/schedstat`, in nanoseconds. `None` where the file
/// does not exist (not Linux, or scheduler statistics compiled out).
fn thread_cpu() -> Option<Duration> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let ns = stat.split_whitespace().next()?.parse().ok()?;
    Some(Duration::from_nanos(ns))
}

/// Best of three runs of `read`, each on a fresh cold extent: the share
/// of its wall time the calling thread spent on a processor. A
/// neighbouring test can hold the processor the moment this thread wakes,
/// which only ever inflates a sample.
fn cpu_share(read: impl Fn(&ExtentPool, ExtentSpec)) -> f64 {
    (0..3)
        .map(|_| {
            let (pool, spec) = cold_extent();
            let cpu0 = thread_cpu();
            let t0 = Instant::now();
            read(&pool, spec);
            let waited = t0.elapsed();
            assert!(waited >= LATE, "read returned after {waited:?}");
            let cpu = thread_cpu().zip(cpu0).map(|(b, a)| b - a);
            cpu.map_or(0.0, |c| c.as_secs_f64() / waited.as_secs_f64())
        })
        .fold(f64::MAX, f64::min)
}

#[test]
fn cold_single_extent_fault_sleeps_through_the_device() {
    let share = cpu_share(|pool, spec| {
        let g = pool.read_extent(spec).unwrap();
        assert!(g.iter().all(|&b| b == 7));
    });
    assert!(share < 0.25, "faulting thread used {share:.2} of the wall");
}

#[test]
fn uncached_range_read_sleeps_through_the_device() {
    let share = cpu_share(|pool, spec| {
        let mut out = [0u8; 100];
        pool.read_range_uncached(spec, 5000, &mut out).unwrap();
        assert_eq!(out, [7u8; 100]);
        assert!(!pool.is_resident(spec.start), "the read framed the extent");
    });
    assert!(share < 0.25, "reading thread used {share:.2} of the wall");
}
