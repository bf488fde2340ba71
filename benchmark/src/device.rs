//! `ProbeDevice`: the benchmark's own block device.
//!
//! Every data and WAL device of every workload is a `ProbeDevice` around a
//! `MemDevice`, so the device cannot change under a change that is being
//! measured. It has three modes:
//!
//! * **count** (always on): relaxed counters of reads, writes, syncs,
//!   bytes and the high-water write offset;
//! * **time** (traced run only): the duration of each call goes into a
//!   sample list and a span;
//! * **volatile** (durability epilogue only): writes since the last `sync`
//!   live in an overlay that reads see and [`ProbeDevice::crash`] discards,
//!   so durability is tested against flushed bytes and not against a
//!   `MemDevice` that keeps everything.
//!
//! Optionally it charges a frozen latency model. The numbers are today's
//! `ThrottleProfile::nvme()`, copied so that they stay what they are.

use crate::layers::storage::{Device, MemDevice};
use crate::trace;
use lobster_types::Result;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Fixed cost per request plus a bandwidth term; transfers serialize on
/// one bus, latencies overlap (a multi-queue SSD).
#[derive(Clone, Copy, Debug)]
pub struct LatencyModel {
    pub read_latency: Duration,
    pub write_latency: Duration,
    pub read_bytes_per_s: u64,
    pub write_bytes_per_s: u64,
    pub sync_latency: Duration,
}

/// The model of the two "modeled device" workloads.
pub const MODEL: LatencyModel = LatencyModel {
    read_latency: Duration::from_micros(20),
    write_latency: Duration::from_micros(25),
    read_bytes_per_s: 3_000_000_000,
    write_bytes_per_s: 2_000_000_000,
    sync_latency: Duration::from_micros(100),
};

/// Index of a call kind in [`Role::span_names`].
const READ: usize = 0;
const WRITE: usize = 1;
const SYNC: usize = 2;

/// Which device of a shard this is; selects the span names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    Data,
    Wal,
}

impl Role {
    fn span_names(self) -> [&'static str; 3] {
        match self {
            Role::Data => ["dev.data.read", "dev.data.write", "dev.data.sync"],
            Role::Wal => ["dev.wal.read", "dev.wal.write", "dev.wal.sync"],
        }
    }
}

/// A plain copy of the counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub reads: u64,
    pub read_bytes: u64,
    pub writes: u64,
    pub write_bytes: u64,
    pub syncs: u64,
    /// One past the highest byte ever written.
    pub high_water: u64,
}

impl Counts {
    /// Counts since `earlier` (the high-water mark is not a delta).
    pub fn since(&self, earlier: &Counts) -> Counts {
        Counts {
            reads: self.reads - earlier.reads,
            read_bytes: self.read_bytes - earlier.read_bytes,
            writes: self.writes - earlier.writes,
            write_bytes: self.write_bytes - earlier.write_bytes,
            syncs: self.syncs - earlier.syncs,
            high_water: self.high_water,
        }
    }

    pub fn plus(&self, o: &Counts) -> Counts {
        Counts {
            reads: self.reads + o.reads,
            read_bytes: self.read_bytes + o.read_bytes,
            writes: self.writes + o.writes,
            write_bytes: self.write_bytes + o.write_bytes,
            syncs: self.syncs + o.syncs,
            high_water: self.high_water + o.high_water,
        }
    }
}

/// Call durations recorded in time mode, in nanoseconds.
#[derive(Default)]
pub struct Timings {
    pub read_ns: Vec<u64>,
    pub write_ns: Vec<u64>,
    pub sync_ns: Vec<u64>,
}

pub struct ProbeDevice {
    inner: MemDevice,
    role: Role,
    model: Option<LatencyModel>,
    /// When the model's shared bus is next free.
    bus_free_at: Mutex<Instant>,
    reads: AtomicU64,
    read_bytes: AtomicU64,
    writes: AtomicU64,
    write_bytes: AtomicU64,
    syncs: AtomicU64,
    high_water: AtomicU64,
    timing: AtomicBool,
    timings: Mutex<Timings>,
    volatile: AtomicBool,
    crashed: AtomicBool,
    /// Unsynced writes in arrival order (volatile mode).
    overlay: Mutex<Vec<(u64, Vec<u8>)>>,
}

impl ProbeDevice {
    pub fn new(capacity: usize, role: Role, model: Option<LatencyModel>) -> ProbeDevice {
        ProbeDevice {
            inner: MemDevice::new(capacity),
            role,
            model,
            bus_free_at: Mutex::new(Instant::now()),
            reads: AtomicU64::new(0),
            read_bytes: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            write_bytes: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            high_water: AtomicU64::new(0),
            timing: AtomicBool::new(false),
            timings: Mutex::new(Timings::default()),
            volatile: AtomicBool::new(false),
            crashed: AtomicBool::new(false),
            overlay: Mutex::new(Vec::new()),
        }
    }

    pub fn counts(&self) -> Counts {
        // Statistics: no counter publishes other data.
        Counts {
            reads: self.reads.load(Ordering::Relaxed),
            read_bytes: self.read_bytes.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            write_bytes: self.write_bytes.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
            high_water: self.high_water.load(Ordering::Relaxed),
        }
    }

    /// Time mode on or off.
    pub fn set_timing(&self, on: bool) {
        self.timing.store(on, Ordering::SeqCst);
    }

    /// Take the durations recorded so far.
    pub fn take_timings(&self) -> Timings {
        std::mem::take(&mut *self.timings.lock().expect("timings"))
    }

    /// Volatile mode on: from now on a write is lost by [`Self::crash`]
    /// unless a `sync` followed it.
    pub fn set_volatile(&self, on: bool) {
        if !on {
            self.apply_overlay();
        }
        self.volatile.store(on, Ordering::SeqCst);
    }

    /// Power cut: unsynced writes of volatile mode are gone, and until
    /// [`Self::revive`] every write and sync is dropped without an error
    /// (the engine's threads run on for a moment after the cut).
    pub fn crash(&self) {
        self.crashed.store(true, Ordering::SeqCst);
        self.overlay.lock().expect("overlay").clear();
    }

    /// Power back on, volatile mode off; the device holds what survived.
    pub fn revive(&self) {
        self.overlay.lock().expect("overlay").clear();
        self.volatile.store(false, Ordering::SeqCst);
        self.crashed.store(false, Ordering::SeqCst);
    }

    fn apply_overlay(&self) {
        let mut overlay = self.overlay.lock().expect("overlay");
        for (off, bytes) in overlay.drain(..) {
            // The range was checked when the write was accepted.
            let _ = self.inner.write_at(&bytes, off);
        }
    }

    fn do_read(&self, buf: &mut [u8], offset: u64) -> Result<()> {
        self.inner.read_at(buf, offset)?;
        if self.volatile.load(Ordering::SeqCst) {
            let end = offset + buf.len() as u64;
            for (off, bytes) in self.overlay.lock().expect("overlay").iter() {
                let o_end = off + bytes.len() as u64;
                let (lo, hi) = (offset.max(*off), end.min(o_end));
                if lo < hi {
                    buf[(lo - offset) as usize..(hi - offset) as usize]
                        .copy_from_slice(&bytes[(lo - off) as usize..(hi - off) as usize]);
                }
            }
        }
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.read_bytes
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn do_write(&self, buf: &[u8], offset: u64) -> Result<()> {
        if self.crashed.load(Ordering::SeqCst) {
            return Ok(());
        }
        if self.volatile.load(Ordering::SeqCst) {
            if offset + buf.len() as u64 > self.inner.capacity() {
                // Let the inner device produce its range error.
                return self.inner.write_at(buf, offset);
            }
            self.overlay
                .lock()
                .expect("overlay")
                .push((offset, buf.to_vec()));
        } else {
            self.inner.write_at(buf, offset)?;
        }
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.write_bytes
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.high_water
            .fetch_max(offset + buf.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Reserve bus time for `len` bytes and return when the request
    /// completes on the modeled hardware.
    fn deadline(&self, len: usize, bytes_per_s: u64, latency: Duration) -> Instant {
        let transfer = Duration::from_nanos(len as u64 * 1_000_000_000 / bytes_per_s);
        let mut bus = self.bus_free_at.lock().expect("bus");
        let start = (*bus).max(Instant::now());
        *bus = start + transfer;
        start + transfer + latency
    }

    fn record(&self, which: usize, started: Instant, guard: trace::Guard, done: Option<Instant>) {
        let end = done.map_or_else(Instant::now, |d| d.max(Instant::now()));
        let ns = end.duration_since(started).as_nanos() as u64;
        let mut t = self.timings.lock().expect("timings");
        match which {
            READ => t.read_ns.push(ns),
            WRITE => t.write_ns.push(ns),
            _ => t.sync_ns.push(ns),
        }
        drop(t);
        guard.end_at(trace::ns_of(end));
    }

    /// Run `f` with the bookkeeping of time mode around it. `f` returns
    /// the modeled completion time, if the model is on.
    fn timed(
        &self,
        which: usize,
        f: impl FnOnce() -> Result<Option<Instant>>,
    ) -> Result<Option<Instant>> {
        if !self.timing.load(Ordering::Relaxed) {
            return f();
        }
        let guard = trace::span(self.role.span_names()[which]);
        let started = Instant::now();
        let r = f();
        self.record(which, started, guard, r.as_ref().ok().copied().flatten());
        r
    }
}

/// Wait for a modeled completion. Checking the clock between yields keeps
/// microsecond accuracy (a sleep oversleeps by tens of microseconds) and
/// lets other runnable threads use the processor meanwhile.
fn wait_until(deadline: Option<Instant>) {
    if let Some(d) = deadline {
        while Instant::now() < d {
            std::thread::yield_now();
        }
    }
}

impl Device for ProbeDevice {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> Result<()> {
        self.submit_read(buf, offset).map(wait_until)
    }

    fn write_at(&self, buf: &[u8], offset: u64) -> Result<()> {
        self.submit_write(buf, offset).map(wait_until)
    }

    fn sync(&self) -> Result<()> {
        self.timed(SYNC, || {
            if self.crashed.load(Ordering::SeqCst) {
                return Ok(None);
            }
            self.apply_overlay();
            self.inner.sync()?;
            self.syncs.fetch_add(1, Ordering::Relaxed);
            let done = self.model.map(|m| Instant::now() + m.sync_latency);
            wait_until(done);
            Ok(done)
        })
        .map(|_| ())
    }

    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }

    fn submit_read(&self, buf: &mut [u8], offset: u64) -> Result<Option<Instant>> {
        self.timed(READ, || {
            self.do_read(buf, offset)?;
            Ok(self
                .model
                .map(|m| self.deadline(buf.len(), m.read_bytes_per_s, m.read_latency)))
        })
    }

    fn submit_write(&self, buf: &[u8], offset: u64) -> Result<Option<Instant>> {
        self.timed(WRITE, || {
            self.do_write(buf, offset)?;
            Ok(self
                .model
                .map(|m| self.deadline(buf.len(), m.write_bytes_per_s, m.write_latency)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(n: usize, salt: u8) -> Vec<u8> {
        (0..n).map(|i| (i % 251) as u8 ^ salt).collect()
    }

    #[test]
    fn passes_bytes_through_like_the_inner_device() {
        let probe = ProbeDevice::new(1 << 20, Role::Data, None);
        let plain = MemDevice::new(1 << 20);
        for (i, off) in [0u64, 4096, 300_000, 777].into_iter().enumerate() {
            let data = pattern(5000 + i, i as u8);
            probe.write_at(&data, off).unwrap();
            plain.write_at(&data, off).unwrap();
        }
        let (mut a, mut b) = (vec![0u8; 1 << 20], vec![0u8; 1 << 20]);
        probe.read_at(&mut a, 0).unwrap();
        plain.read_at(&mut b, 0).unwrap();
        assert!(a == b);
        assert_eq!(probe.capacity(), plain.capacity());
        assert!(probe.write_at(&[0u8; 8], (1 << 20) - 4).is_err());
    }

    #[test]
    fn counts_a_scripted_sequence_exactly() {
        let d = ProbeDevice::new(1 << 20, Role::Wal, None);
        d.write_at(&[1u8; 100], 0).unwrap();
        d.write_at(&[2u8; 50], 8192).unwrap();
        d.submit_write(&[3u8; 10], 100).unwrap();
        d.sync().unwrap();
        let mut buf = [0u8; 30];
        d.read_at(&mut buf, 0).unwrap();
        d.submit_read(&mut buf, 10).unwrap();
        d.sync().unwrap();
        let before = d.counts();
        assert_eq!(
            before,
            Counts {
                reads: 2,
                read_bytes: 60,
                writes: 3,
                write_bytes: 160,
                syncs: 2,
                high_water: 8242,
            }
        );
        d.write_at(&[0u8; 7], 0).unwrap();
        let delta = d.counts().since(&before);
        assert_eq!((delta.writes, delta.write_bytes, delta.syncs), (1, 7, 0));
        assert_eq!(delta.high_water, 8242);
    }

    #[test]
    fn crash_drops_exactly_the_unsynced_writes() {
        let d = ProbeDevice::new(1 << 16, Role::Wal, None);
        d.write_at(&[1u8; 64], 0).unwrap(); // before volatile mode: durable
        d.set_volatile(true);
        d.write_at(&[2u8; 64], 64).unwrap();
        d.sync().unwrap(); // durable
        d.write_at(&[3u8; 64], 128).unwrap(); // lost
        d.write_at(&[4u8; 32], 16).unwrap(); // lost: overwrote durable bytes
        let mut seen = [0u8; 192];
        d.read_at(&mut seen, 0).unwrap();
        assert!(
            seen[16..48].iter().all(|&b| b == 4),
            "reads see the overlay"
        );
        assert!(seen[128..].iter().all(|&b| b == 3));

        d.crash();
        d.write_at(&[9u8; 64], 0).unwrap(); // after the cut: dropped
        d.sync().unwrap();
        d.revive();
        let mut after = [0u8; 192];
        d.read_at(&mut after, 0).unwrap();
        assert!(after[..64].iter().all(|&b| b == 1));
        assert!(after[64..128].iter().all(|&b| b == 2));
        assert!(after[128..].iter().all(|&b| b == 0));

        // Leaving volatile mode without a crash keeps everything.
        d.set_volatile(true);
        d.write_at(&[5u8; 8], 1000).unwrap();
        d.set_volatile(false);
        let mut kept = [0u8; 8];
        d.read_at(&mut kept, 1000).unwrap();
        assert_eq!(kept, [5u8; 8]);
    }

    #[test]
    fn modeled_small_reads_cost_more_than_one_large_read() {
        let d = ProbeDevice::new(1 << 20, Role::Data, Some(MODEL));
        let mut buf = vec![0u8; 256 << 10];
        // Best of five each: a waiting thread can lose the processor to a
        // test running beside this one.
        let best = |f: &mut dyn FnMut()| {
            (0..5)
                .map(|_| {
                    let t = Instant::now();
                    f();
                    t.elapsed()
                })
                .min()
                .unwrap()
        };
        let one_large = best(&mut || d.read_at(&mut buf, 0).unwrap());
        let mut small = vec![0u8; 4096];
        let many_small = best(&mut || {
            for i in 0..64u64 {
                d.read_at(&mut small, i * 4096).unwrap();
            }
        });
        assert!(
            many_small > one_large * 2,
            "64 x 4 KiB took {many_small:?}, one 256 KiB {one_large:?}"
        );
        // A queued batch overlaps its latencies: the last deadline is far
        // closer than 64 serial requests.
        let t = Instant::now();
        let last = (0..64u64)
            .map(|i| d.submit_read(&mut buf[..4096], i * 4096).unwrap().unwrap())
            .max()
            .unwrap();
        assert!(last.duration_since(t) < many_small / 2);
    }

    #[test]
    fn time_mode_records_each_call() {
        let d = ProbeDevice::new(1 << 16, Role::Data, Some(MODEL));
        d.write_at(&[0u8; 4096], 0).unwrap();
        assert!(d.take_timings().write_ns.is_empty(), "off by default");
        d.set_timing(true);
        d.write_at(&[0u8; 4096], 0).unwrap();
        d.read_at(&mut [0u8; 4096], 0).unwrap();
        d.sync().unwrap();
        d.set_timing(false);
        let t = d.take_timings();
        assert_eq!(
            (t.read_ns.len(), t.write_ns.len(), t.sync_ns.len()),
            (1, 1, 1)
        );
        assert!(t.read_ns[0] >= 20_000 && t.sync_ns[0] >= 100_000);
    }
}
