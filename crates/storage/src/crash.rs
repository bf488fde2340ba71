use crate::Device;
use lobster_types::Result;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Fault-injecting device wrapper for recovery tests.
///
/// Recovery correctness in the paper hinges on write *ordering*: the Blob
/// State must be durable (WAL fsync) before extent content reaches the
/// device, and a crash between the two must be detected via the SHA-256
/// check during the analysis phase. `CrashDevice` makes that window
/// testable:
///
/// * [`CrashDevice::arm_after_writes`] — after N more writes, the device
///   "loses power": the N-th write may be torn (only a prefix is applied) and
///   every later write plus every `sync` is silently dropped.
/// * [`CrashDevice::crash_now`] — cut power immediately.
///
/// A device from [`CrashDevice::new`] writes through: every write before
/// the cut is on the medium, and after the cut writes and syncs are
/// dropped while reporting success — a device that lies on fsync. One from
/// [`CrashDevice::write_back`] models a volatile write cache instead: a
/// write reaches the medium only at the next `sync`, reads see it before
/// that, and the cut discards whatever no sync covered. It never lies: a
/// write-back device refuses every write and sync after the cut.
///
/// [`CrashDevice::inner`] holds what physically reached the medium, so a
/// test can reopen the database from the surviving state.
pub struct CrashDevice<D> {
    inner: D,
    crashed: AtomicBool,
    /// Writes remaining until the crash triggers; u64::MAX means disarmed.
    writes_until_crash: AtomicU64,
    /// Fraction (numerator / 256) of the triggering write to apply, modeling
    /// a torn write.
    tear_numerator: AtomicU64,
    /// When set, writes after the crash return an I/O error (a dead
    /// controller) instead of being silently dropped (a lying volatile
    /// cache). Error mode lets tests model "the process dies with the
    /// device": callers observe the failure and stop.
    fail_after_crash: AtomicBool,
    log: Mutex<Vec<(u64, usize)>>,
    /// Write-back mode: the writes since the last `sync`. `None` writes
    /// through.
    unsynced: Option<Mutex<Unsynced>>,
}

/// `(offset, bytes)` of each write a write-back device holds in its cache,
/// in arrival order.
type Unsynced = Vec<(u64, Vec<u8>)>;

impl<D: Device> CrashDevice<D> {
    pub fn new(inner: D) -> Self {
        CrashDevice {
            inner,
            crashed: AtomicBool::new(false),
            writes_until_crash: AtomicU64::new(u64::MAX),
            tear_numerator: AtomicU64::new(0),
            fail_after_crash: AtomicBool::new(false),
            log: Mutex::new(Vec::new()),
            unsynced: None,
        }
    }

    /// A device with a volatile write cache: writes reach `inner` only at
    /// the next `sync`, and a power cut discards the rest. The armed write
    /// that triggers a cut is lost with them (nothing is torn: it never
    /// reached the medium), and after the cut every write and sync fails.
    pub fn write_back(inner: D) -> Self {
        CrashDevice {
            fail_after_crash: AtomicBool::new(true),
            unsynced: Some(Mutex::new(Vec::new())),
            ..Self::new(inner)
        }
    }

    /// The power cut: in write-back mode, the unsynced writes are gone.
    fn cut(&self) {
        self.crashed.store(true, Ordering::SeqCst);
        if let Some(unsynced) = &self.unsynced {
            unsynced.lock().clear();
        }
    }

    /// What a write or sync after the cut returns.
    fn after_crash(&self) -> Result<()> {
        if self.fail_after_crash.load(Ordering::SeqCst) {
            return Err(lobster_types::Error::Io(std::io::Error::other(
                "device lost power",
            )));
        }
        // Lost power: acknowledge but drop, like a volatile cache that
        // never reaches the medium.
        Ok(())
    }

    /// Crash after `n` more successful writes; the (n+1)-th write is torn to
    /// `tear_numerator/256` of its length and everything afterwards is lost.
    pub fn arm_after_writes(&self, n: u64, tear_numerator: u32) {
        assert!(tear_numerator <= 256);
        self.tear_numerator
            .store(tear_numerator as u64, Ordering::SeqCst);
        self.writes_until_crash.store(n, Ordering::SeqCst);
    }

    pub fn crash_now(&self) {
        self.cut();
    }

    /// Post-crash writes return `Err` instead of silently succeeding.
    pub fn set_fail_after_crash(&self, on: bool) {
        self.fail_after_crash.store(on, Ordering::SeqCst);
    }

    pub fn has_crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// `(offset, len)` of every write that physically reached the device, in
    /// order (in write-back mode, in the order syncs applied them).
    pub fn write_log(&self) -> Vec<(u64, usize)> {
        self.log.lock().clone()
    }

    pub fn inner(&self) -> &D {
        &self.inner
    }
}

impl<D: Device> Device for CrashDevice<D> {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> Result<()> {
        let Some(unsynced) = &self.unsynced else {
            return self.inner.read_at(buf, offset);
        };
        // The medium and the cache read as one: a sync between the two
        // would leave the read with neither the old nor the new bytes.
        let unsynced = unsynced.lock();
        self.inner.read_at(buf, offset)?;
        {
            let end = offset + buf.len() as u64;
            for (off, bytes) in unsynced.iter() {
                let (lo, hi) = (offset.max(*off), end.min(off + bytes.len() as u64));
                if lo < hi {
                    buf[(lo - offset) as usize..(hi - offset) as usize]
                        .copy_from_slice(&bytes[(lo - off) as usize..(hi - off) as usize]);
                }
            }
        }
        Ok(())
    }

    fn write_at(&self, buf: &[u8], offset: u64) -> Result<()> {
        if self.crashed.load(Ordering::SeqCst) {
            return self.after_crash();
        }
        // One atomic step per write, so that concurrent writers take
        // distinct places in the count (a load and a store let two of them
        // take the same one, and one more write survive the cut).
        let place = self
            .writes_until_crash
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |r| {
                (r != u64::MAX && r != 0).then(|| r - 1)
            });
        if place == Err(0) {
            // This is the torn write, unless a concurrent writer took it.
            if self.unsynced.is_some() || self.crashed.swap(true, Ordering::SeqCst) {
                self.cut();
                return self.after_crash();
            }
            let keep = buf.len() * self.tear_numerator.load(Ordering::SeqCst) as usize / 256;
            if keep > 0 {
                self.inner.write_at(&buf[..keep], offset)?;
                self.log.lock().push((offset, keep));
            }
            return Ok(());
        }
        match &self.unsynced {
            // In range: the inner device's own check, before it is cached.
            Some(_) if offset + buf.len() as u64 > self.inner.capacity() => {
                self.inner.write_at(buf, offset)
            }
            Some(unsynced) => {
                unsynced.lock().push((offset, buf.to_vec()));
                Ok(())
            }
            None => {
                self.inner.write_at(buf, offset)?;
                self.log.lock().push((offset, buf.len()));
                Ok(())
            }
        }
    }

    fn sync(&self) -> Result<()> {
        if self.crashed.load(Ordering::SeqCst) {
            return self.after_crash();
        }
        if let Some(unsynced) = &self.unsynced {
            let mut unsynced = unsynced.lock();
            for (off, bytes) in unsynced.drain(..) {
                self.inner.write_at(&bytes, off)?;
                self.log.lock().push((off, bytes.len()));
            }
        }
        self.inner.sync()
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
    fn drops_writes_after_crash() {
        let dev = CrashDevice::new(MemDevice::new(4096));
        dev.write_at(&[1u8; 100], 0).unwrap();
        dev.crash_now();
        dev.write_at(&[2u8; 100], 200).unwrap();
        let mut buf = [0u8; 100];
        dev.read_at(&mut buf, 0).unwrap();
        assert_eq!(buf, [1u8; 100]);
        dev.read_at(&mut buf, 200).unwrap();
        assert_eq!(buf, [0u8; 100], "post-crash write must be lost");
    }

    #[test]
    fn armed_crash_tears_the_trigger_write() {
        let dev = CrashDevice::new(MemDevice::new(4096));
        dev.arm_after_writes(1, 128); // second write is half-applied
        dev.write_at(&[1u8; 64], 0).unwrap();
        dev.write_at(&[2u8; 64], 64).unwrap();
        dev.write_at(&[3u8; 64], 128).unwrap(); // dropped entirely
        assert!(dev.has_crashed());

        let mut buf = [0u8; 64];
        dev.read_at(&mut buf, 64).unwrap();
        assert_eq!(&buf[..32], &[2u8; 32]);
        assert_eq!(&buf[32..], &[0u8; 32], "tail of torn write must be lost");
        dev.read_at(&mut buf, 128).unwrap();
        assert_eq!(buf, [0u8; 64]);
        assert_eq!(dev.write_log(), vec![(0, 64), (64, 32)]);
    }

    #[test]
    fn write_back_reads_see_unsynced_writes_and_the_cut_discards_them() {
        let dev = CrashDevice::write_back(MemDevice::new(4096));
        dev.write_at(&[1u8; 64], 0).unwrap();
        dev.sync().unwrap(); // on the medium
        dev.write_at(&[2u8; 64], 64).unwrap();
        dev.write_at(&[3u8; 32], 16).unwrap(); // over synced bytes
        let mut seen = [0u8; 128];
        dev.read_at(&mut seen, 0).unwrap();
        assert_eq!(&seen[..16], &[1u8; 16]);
        assert_eq!(&seen[16..48], &[3u8; 32], "reads see the cache");
        assert_eq!(&seen[64..], &[2u8; 64]);
        assert_eq!(dev.write_log(), vec![(0, 64)], "only the sync reached it");

        dev.crash_now();
        let mut after = [0u8; 128];
        dev.read_at(&mut after, 0).unwrap();
        assert_eq!(&after[..64], &[1u8; 64], "the cut lost the overwrite");
        assert_eq!(&after[64..], &[0u8; 64], "the cut lost the unsynced write");
    }

    #[test]
    fn write_back_never_acknowledges_after_the_cut() {
        let dev = CrashDevice::write_back(MemDevice::new(4096));
        dev.write_at(&[1u8; 64], 0).unwrap();
        dev.crash_now();
        assert!(dev.write_at(&[2u8; 64], 0).is_err());
        assert!(dev.sync().is_err(), "a sync after the cut must not succeed");
        let mut buf = [9u8; 64];
        dev.inner().read_at(&mut buf, 0).unwrap();
        assert_eq!(buf, [0u8; 64]);
    }

    #[test]
    fn write_back_armed_cut_loses_the_trigger_write_and_the_unsynced_ones() {
        let dev = CrashDevice::write_back(MemDevice::new(4096));
        dev.arm_after_writes(2, 128);
        dev.write_at(&[1u8; 64], 0).unwrap();
        dev.sync().unwrap();
        dev.write_at(&[2u8; 64], 64).unwrap();
        assert!(dev.write_at(&[3u8; 64], 128).is_err(), "the trigger write");
        assert!(dev.has_crashed());
        let mut buf = [0u8; 192];
        dev.read_at(&mut buf, 0).unwrap();
        assert_eq!(&buf[..64], &[1u8; 64]);
        assert!(buf[64..].iter().all(|&b| b == 0));
        assert_eq!(dev.write_log(), vec![(0, 64)]);
        // Out of range is the inner device's error, cached or not.
        let fresh = CrashDevice::write_back(MemDevice::new(4096));
        assert!(fresh.write_at(&[0u8; 8], 4092).is_err());
    }
}
