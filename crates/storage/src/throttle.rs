use crate::{wait_until, Device};
use lobster_types::Result;
use parking_lot::Mutex;
use std::time::{Duration, Instant};

/// A deterministic SSD performance model: per-request latency plus a
/// bandwidth term proportional to the request size.
///
/// This is the stand-in for the paper's NVMe SSD (DESIGN.md substitution 1).
/// Its key property is the one the evaluation leans on: **few large requests
/// are much cheaper than many small requests** for the same byte volume,
/// because each request pays the fixed latency. Our engine reads a BLOB with
/// one request per extent; chain/tree-based formats pay per page.
#[derive(Clone, Copy, Debug)]
pub struct ThrottleProfile {
    /// Fixed cost per request (device + submission latency).
    pub read_latency: Duration,
    pub write_latency: Duration,
    /// Sequential read bandwidth in bytes/second.
    pub read_bw: u64,
    /// Sequential write bandwidth in bytes/second.
    pub write_bw: u64,
    /// Cost of a durability barrier.
    pub sync_latency: Duration,
}

impl ThrottleProfile {
    /// Rough NVMe-class profile scaled down so benches finish quickly while
    /// keeping realistic latency/bandwidth ratios.
    pub fn nvme() -> Self {
        ThrottleProfile {
            read_latency: Duration::from_micros(20),
            write_latency: Duration::from_micros(25),
            read_bw: 3_000_000_000,
            write_bw: 2_000_000_000,
            sync_latency: Duration::from_micros(100),
        }
    }

    /// A slower SATA-class profile, useful for exaggerating I/O effects in
    /// tests.
    pub fn sata() -> Self {
        ThrottleProfile {
            read_latency: Duration::from_micros(80),
            write_latency: Duration::from_micros(90),
            read_bw: 500_000_000,
            write_bw: 450_000_000,
            sync_latency: Duration::from_millis(1),
        }
    }

    fn read_cost(&self, len: usize) -> Duration {
        self.read_latency + Duration::from_nanos(len as u64 * 1_000_000_000 / self.read_bw)
    }

    fn write_cost(&self, len: usize) -> Duration {
        self.write_latency + Duration::from_nanos(len as u64 * 1_000_000_000 / self.write_bw)
    }
}

/// Wraps any device and charges the [`ThrottleProfile`] cost for each
/// operation.
///
/// The model works like a real multi-queue SSD regardless of how many host
/// CPUs execute the requests: *transfers* serialize on a shared bandwidth
/// bus, *latencies* overlap freely. Synchronous calls block until their
/// own completion deadline ([`crate::wait_until`]);
/// [`Device::submit_read`]/[`Device::submit_write`] return the deadline so
/// a batch submitter can overlap many requests and wait once — exactly the
/// io_uring pattern the engine's commit path uses.
pub struct ThrottledDevice<D> {
    inner: D,
    profile: ThrottleProfile,
    /// The moment the shared bus becomes free (bandwidth serialization).
    bus_free_at: Mutex<Instant>,
}

impl<D: Device> ThrottledDevice<D> {
    pub fn new(inner: D, profile: ThrottleProfile) -> Self {
        ThrottledDevice {
            inner,
            profile,
            bus_free_at: Mutex::new(Instant::now()),
        }
    }

    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Reserve bus time for a transfer and return the completion deadline.
    fn completion_deadline(&self, transfer: Duration, latency: Duration) -> Instant {
        let now = Instant::now();
        let mut bus = self.bus_free_at.lock();
        let start = (*bus).max(now);
        *bus = start + transfer;
        start + transfer + latency
    }
}

impl<D: Device> Device for ThrottledDevice<D> {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> Result<()> {
        self.submit_read(buf, offset).map(wait_until)
    }

    fn write_at(&self, buf: &[u8], offset: u64) -> Result<()> {
        self.submit_write(buf, offset).map(wait_until)
    }

    fn submit_read(&self, buf: &mut [u8], offset: u64) -> Result<Option<Instant>> {
        self.inner.read_at(buf, offset)?;
        let transfer = self.profile.read_cost(buf.len()) - self.profile.read_latency;
        Ok(Some(
            self.completion_deadline(transfer, self.profile.read_latency),
        ))
    }

    fn submit_write(&self, buf: &[u8], offset: u64) -> Result<Option<Instant>> {
        self.inner.write_at(buf, offset)?;
        let transfer = self.profile.write_cost(buf.len()) - self.profile.write_latency;
        Ok(Some(
            self.completion_deadline(transfer, self.profile.write_latency),
        ))
    }

    fn sync(&self) -> Result<()> {
        self.inner.sync()?;
        wait_until(Some(Instant::now() + self.profile.sync_latency));
        Ok(())
    }

    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemDevice;

    #[test]
    fn large_requests_beat_small_for_same_volume() {
        let profile = ThrottleProfile {
            read_latency: Duration::from_micros(50),
            write_latency: Duration::from_micros(50),
            read_bw: 1_000_000_000,
            write_bw: 1_000_000_000,
            sync_latency: Duration::from_micros(10),
        };
        let dev = ThrottledDevice::new(MemDevice::new(1 << 20), profile);
        let mut buf = vec![0u8; 256 * 1024];

        // Best of three: the wait overshoots its deadline by a whole
        // timeslice when a neighbouring test holds the CPU, which can only
        // inflate a sample.
        let one_big = (0..3)
            .map(|_| {
                let t0 = Instant::now();
                dev.read_at(&mut buf, 0).unwrap();
                t0.elapsed()
            })
            .min()
            .unwrap();

        let t0 = Instant::now();
        for i in 0..64 {
            dev.read_at(&mut buf[..4096], i * 4096).unwrap();
        }
        let many_small = t0.elapsed();

        assert!(
            many_small > one_big * 2,
            "64 page reads ({many_small:?}) should cost far more than one extent read ({one_big:?})"
        );
    }

    #[test]
    fn passthrough_correctness() {
        let dev = ThrottledDevice::new(MemDevice::new(8192), ThrottleProfile::nvme());
        dev.write_at(&[9u8; 100], 50).unwrap();
        let mut out = [0u8; 100];
        dev.read_at(&mut out, 50).unwrap();
        assert_eq!(out, [9u8; 100]);
        dev.sync().unwrap();
        assert_eq!(dev.capacity(), 8192);
    }
}
