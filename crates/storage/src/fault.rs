use crate::Device;
use lobster_types::{Error, Result};
use parking_lot::Mutex;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The fault classes [`FaultDevice`] can inject.
///
/// Transient faults carry an `io::ErrorKind` the retry policy classifies
/// as retryable ([`lobster_types::Error::is_transient_io`]); permanent
/// faults use `ErrorKind::Other` and must surface to the caller on the
/// first attempt. `ShortWrite`, `BitRotRead`, and `MisdirectedWrite`
/// model the silent-ish failure modes a checksum layer has to catch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Read fails with a retryable EIO; the data is intact underneath.
    TransientRead,
    /// Write fails with a retryable EIO; nothing reaches the device.
    TransientWrite,
    /// Sync fails with a retryable EIO; a repeat sync succeeds.
    TransientSync,
    /// Read fails hard (dead controller); retrying is pointless.
    PermanentRead,
    /// Write fails hard; retrying is pointless.
    PermanentWrite,
    /// Sync fails hard; retrying is pointless.
    PermanentSync,
    /// Only a prefix of the buffer reaches the device, then a retryable
    /// EIO is returned — the caller must re-issue the full write.
    ShortWrite,
    /// The read "succeeds" but one bit of the returned buffer is flipped:
    /// a silent wrong read only content verification can catch.
    BitRotRead,
    /// The write "succeeds" but lands at a neighbouring offset: silent
    /// corruption of a bystander plus a stale original.
    MisdirectedWrite,
}

impl FaultKind {
    /// Every fault kind, for sweep drivers.
    pub const ALL: [FaultKind; 9] = [
        FaultKind::TransientRead,
        FaultKind::TransientWrite,
        FaultKind::TransientSync,
        FaultKind::PermanentRead,
        FaultKind::PermanentWrite,
        FaultKind::PermanentSync,
        FaultKind::ShortWrite,
        FaultKind::BitRotRead,
        FaultKind::MisdirectedWrite,
    ];

    /// Does this kind fail the op with an error the retry policy will
    /// classify as transient?
    pub fn is_transient(self) -> bool {
        matches!(
            self,
            FaultKind::TransientRead
                | FaultKind::TransientWrite
                | FaultKind::TransientSync
                | FaultKind::ShortWrite
        )
    }

    /// Does this kind return `Ok` while corrupting data (no error for the
    /// retry layer to see)?
    pub fn is_silent(self) -> bool {
        matches!(self, FaultKind::BitRotRead | FaultKind::MisdirectedWrite)
    }

    fn applies_to(self, class: OpClass) -> bool {
        match class {
            OpClass::Read => matches!(
                self,
                FaultKind::TransientRead | FaultKind::PermanentRead | FaultKind::BitRotRead
            ),
            OpClass::Write => matches!(
                self,
                FaultKind::TransientWrite
                    | FaultKind::PermanentWrite
                    | FaultKind::ShortWrite
                    | FaultKind::MisdirectedWrite
            ),
            OpClass::Sync => matches!(self, FaultKind::TransientSync | FaultKind::PermanentSync),
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum OpClass {
    Read,
    Write,
    Sync,
}

/// One injected fault, for test assertions against the schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Injection {
    /// Device-op index (reads, writes, and syncs share one counter).
    pub op: u64,
    pub kind: FaultKind,
    /// Byte offset of the faulted op (0 for sync).
    pub offset: u64,
    /// Length of the faulted op (0 for sync).
    pub len: usize,
}

/// Deterministic injection schedule for a [`FaultDevice`].
#[derive(Clone, Debug)]
pub struct FaultConfig {
    /// Seed for the per-op injection decisions and all derived choices
    /// (which kind, which bit to rot, jittered short-write length).
    pub seed: u64,
    /// Injection probability per operation, in per-mille (0..=1000).
    pub per_mille: u32,
    /// Fault kinds eligible for injection; ops a kind does not apply to
    /// are never faulted by it.
    pub kinds: Vec<FaultKind>,
    /// Device ops to pass through cleanly after arming (lets a test load
    /// its working set before the weather turns).
    pub warmup_ops: u64,
    /// Cap on total injections; `u64::MAX` means unlimited.
    pub max_injections: u64,
}

impl FaultConfig {
    /// A schedule injecting `kinds` with probability `per_mille`/1000 per
    /// op, no warmup, unlimited injections.
    pub fn new(seed: u64, per_mille: u32, kinds: &[FaultKind]) -> Self {
        assert!(per_mille <= 1000);
        FaultConfig {
            seed,
            per_mille,
            kinds: kinds.to_vec(),
            warmup_ops: 0,
            max_injections: u64::MAX,
        }
    }
}

/// Seed-driven transient/permanent fault injection wrapper
/// (sibling of [`crate::CrashDevice`] / [`crate::ThrottledDevice`]).
///
/// Every `read_at`/`write_at`/`sync` increments a shared op counter; a
/// splitmix-mixed hash of `(seed, op)` decides deterministically whether
/// that op faults and with which eligible [`FaultKind`]. The same seed
/// therefore replays the same schedule against the same op sequence, and
/// the [injection log](FaultDevice::injection_log) records exactly what
/// fired so tests can assert retry metrics against ground truth.
///
/// The wrapper only overrides the three scalar ops: the [`Device`]
/// trait's `submit_read`/`submit_write` defaults delegate to them, so
/// batched I/O through [`crate::AsyncIo`] is covered automatically.
pub struct FaultDevice<D> {
    inner: D,
    cfg: FaultConfig,
    armed: AtomicBool,
    ops: AtomicU64,
    injected: AtomicU64,
    log: Mutex<Vec<Injection>>,
}

impl<D: Device> FaultDevice<D> {
    pub fn new(inner: D, cfg: FaultConfig) -> Self {
        FaultDevice {
            inner,
            cfg,
            armed: AtomicBool::new(false),
            ops: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            log: Mutex::new(Vec::new()),
        }
    }

    /// Start injecting (after `warmup_ops` more clean ops).
    pub fn arm(&self) {
        // Re-base the warmup window on the current op count.
        self.ops.store(0, Ordering::SeqCst);
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Stop injecting; the log is kept.
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::SeqCst);
    }

    /// Total faults injected so far.
    pub fn injections(&self) -> u64 {
        self.injected.load(Ordering::SeqCst)
    }

    /// Every fault injected so far, in op order.
    pub fn injection_log(&self) -> Vec<Injection> {
        self.log.lock().clone()
    }

    pub fn clear_log(&self) {
        self.log.lock().clear();
        self.injected.store(0, Ordering::SeqCst);
    }

    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Decide whether the current op faults, and with which kind. Always
    /// advances the op counter so schedules are stable across arm state.
    fn decide(&self, class: OpClass, offset: u64, len: usize) -> Option<FaultKind> {
        let op = self.ops.fetch_add(1, Ordering::SeqCst);
        if !self.armed.load(Ordering::SeqCst) || op < self.cfg.warmup_ops {
            return None;
        }
        let h = mix64(self.cfg.seed ^ op.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        if h % 1000 >= u64::from(self.cfg.per_mille) {
            return None;
        }
        let eligible: Vec<FaultKind> = self
            .cfg
            .kinds
            .iter()
            .copied()
            .filter(|k| k.applies_to(class))
            .collect();
        if eligible.is_empty() {
            return None;
        }
        let kind = eligible[((h / 1000) % eligible.len() as u64) as usize];
        // Check the cap and count in one step: the requests of a batch
        // run on several I/O threads at once.
        let cap = self.cfg.max_injections;
        self.injected
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < cap).then_some(n + 1)
            })
            .ok()?;
        self.log.lock().push(Injection {
            op,
            kind,
            offset,
            len,
        });
        Some(kind)
    }
}

/// A retryable injected EIO (`ErrorKind::Interrupted`).
pub fn transient_eio(msg: &'static str) -> Error {
    Error::Io(io::Error::new(io::ErrorKind::Interrupted, msg))
}

/// A hard injected EIO (`ErrorKind::Other`): never retried.
pub fn permanent_eio(msg: &'static str) -> Error {
    Error::Io(io::Error::other(msg))
}

impl<D: Device> Device for FaultDevice<D> {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> Result<()> {
        match self.decide(OpClass::Read, offset, buf.len()) {
            Some(FaultKind::TransientRead) => Err(transient_eio("injected transient read EIO")),
            Some(FaultKind::PermanentRead) => Err(permanent_eio("injected permanent read EIO")),
            Some(FaultKind::BitRotRead) => {
                self.inner.read_at(buf, offset)?;
                if !buf.is_empty() {
                    let h = mix64(self.cfg.seed ^ offset ^ buf.len() as u64);
                    let bit = (h % (buf.len() as u64 * 8)) as usize;
                    buf[bit / 8] ^= 1 << (bit % 8);
                }
                Ok(())
            }
            _ => self.inner.read_at(buf, offset),
        }
    }

    fn write_at(&self, buf: &[u8], offset: u64) -> Result<()> {
        match self.decide(OpClass::Write, offset, buf.len()) {
            Some(FaultKind::TransientWrite) => Err(transient_eio("injected transient write EIO")),
            Some(FaultKind::PermanentWrite) => Err(permanent_eio("injected permanent write EIO")),
            Some(FaultKind::ShortWrite) => {
                // A prefix reaches the medium, then the op errors; the
                // caller must re-issue the whole write.
                let keep = buf.len() / 2;
                if keep > 0 {
                    self.inner.write_at(&buf[..keep], offset)?;
                }
                Err(transient_eio("injected short write"))
            }
            Some(FaultKind::MisdirectedWrite) => {
                // Land one 4 KiB page away (wrapping inside capacity):
                // silent corruption of a bystander, stale original.
                let cap = self.inner.capacity();
                let shift = 4096u64;
                let wrong = if offset + shift + buf.len() as u64 <= cap {
                    offset + shift
                } else if offset >= shift {
                    offset - shift
                } else {
                    offset
                };
                self.inner.write_at(buf, wrong)
            }
            _ => self.inner.write_at(buf, offset),
        }
    }

    fn sync(&self) -> Result<()> {
        match self.decide(OpClass::Sync, 0, 0) {
            Some(FaultKind::TransientSync) => Err(transient_eio("injected transient sync EIO")),
            Some(FaultKind::PermanentSync) => Err(permanent_eio("injected permanent sync EIO")),
            _ => self.inner.sync(),
        }
    }

    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }
}

/// splitmix64 finalizer (same mixer the retry jitter uses).
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemDevice;

    fn always(kinds: &[FaultKind]) -> FaultConfig {
        FaultConfig::new(7, 1000, kinds)
    }

    #[test]
    fn disarmed_device_is_transparent() {
        let dev = FaultDevice::new(MemDevice::new(8192), always(&FaultKind::ALL));
        dev.write_at(&[9u8; 128], 0).unwrap();
        let mut buf = [0u8; 128];
        dev.read_at(&mut buf, 0).unwrap();
        assert_eq!(buf, [9u8; 128]);
        dev.sync().unwrap();
        assert!(dev.injection_log().is_empty());
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let dev = FaultDevice::new(
                MemDevice::new(1 << 20),
                FaultConfig::new(seed, 300, &FaultKind::ALL),
            );
            dev.arm();
            for i in 0..200u64 {
                let _ = dev.write_at(&[i as u8; 64], i * 64);
                let mut buf = [0u8; 64];
                let _ = dev.read_at(&mut buf, i * 64);
            }
            let _ = dev.sync();
            dev.injection_log()
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "same seed must replay the same schedule");
        assert!(!a.is_empty(), "30% per-mille over 401 ops must fire");
        let c = run(43);
        assert_ne!(a, c, "different seeds should diverge");
    }

    #[test]
    fn transient_read_fails_without_touching_data() {
        let dev = FaultDevice::new(MemDevice::new(8192), always(&[FaultKind::TransientRead]));
        dev.write_at(&[5u8; 64], 0).unwrap(); // writes unaffected by kind filter
        dev.arm();
        let mut buf = [0u8; 64];
        let err = dev.read_at(&mut buf, 0).unwrap_err();
        assert!(err.is_transient_io());
        dev.disarm();
        dev.read_at(&mut buf, 0).unwrap();
        assert_eq!(buf, [5u8; 64]);
    }

    #[test]
    fn permanent_faults_are_not_transient() {
        let dev = FaultDevice::new(MemDevice::new(8192), always(&[FaultKind::PermanentWrite]));
        dev.arm();
        let err = dev.write_at(&[1u8; 16], 0).unwrap_err();
        assert!(!err.is_transient_io());
    }

    #[test]
    fn short_write_applies_prefix_then_errors() {
        let dev = FaultDevice::new(MemDevice::new(8192), always(&[FaultKind::ShortWrite]));
        dev.arm();
        let err = dev.write_at(&[3u8; 100], 0).unwrap_err();
        assert!(err.is_transient_io());
        dev.disarm();
        let mut buf = [0u8; 100];
        dev.read_at(&mut buf, 0).unwrap();
        assert_eq!(&buf[..50], &[3u8; 50]);
        assert_eq!(&buf[50..], &[0u8; 50], "tail must not reach the medium");
    }

    #[test]
    fn bit_rot_flips_exactly_one_bit() {
        let dev = FaultDevice::new(MemDevice::new(8192), always(&[FaultKind::BitRotRead]));
        dev.write_at(&[0xAAu8; 256], 0).unwrap();
        dev.arm();
        let mut buf = [0u8; 256];
        dev.read_at(&mut buf, 0).unwrap();
        let flipped: u32 = buf.iter().map(|b| (b ^ 0xAA).count_ones()).sum();
        assert_eq!(flipped, 1, "exactly one bit must rot");
        assert_eq!(dev.injection_log().len(), 1);
        assert_eq!(dev.injection_log()[0].kind, FaultKind::BitRotRead);
    }

    #[test]
    fn misdirected_write_lands_elsewhere() {
        let dev = FaultDevice::new(
            MemDevice::new(1 << 20),
            always(&[FaultKind::MisdirectedWrite]),
        );
        dev.arm();
        dev.write_at(&[7u8; 64], 0).unwrap(); // silently lands at 4096
        dev.disarm();
        let mut buf = [0u8; 64];
        dev.read_at(&mut buf, 0).unwrap();
        assert_eq!(buf, [0u8; 64], "intended offset must be stale");
        dev.read_at(&mut buf, 4096).unwrap();
        assert_eq!(buf, [7u8; 64], "payload landed one page over");
    }

    #[test]
    fn max_injections_caps_the_schedule() {
        let mut cfg = always(&[FaultKind::TransientSync]);
        cfg.max_injections = 2;
        let dev = FaultDevice::new(MemDevice::new(4096), cfg);
        dev.arm();
        assert!(dev.sync().is_err());
        assert!(dev.sync().is_err());
        assert!(dev.sync().is_ok(), "cap reached; ops pass through");
        assert_eq!(dev.injections(), 2);
    }
}
