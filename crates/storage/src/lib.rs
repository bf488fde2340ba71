//! Storage devices and batched asynchronous I/O.
//!
//! The paper assumes the DBMS runs on an NVMe SSD and issues *batched
//! asynchronous* I/O (one submission per extent sequence). This crate
//! provides:
//!
//! * [`Device`] — the abstract block device all engines and baseline models
//!   share, with byte-addressed reads/writes and durability barriers.
//! * [`MemDevice`] — an in-memory device for tests and in-memory experiments.
//! * [`FileDevice`] — a real file-backed device using positional I/O.
//! * [`ThrottledDevice`] — a deterministic latency/bandwidth model wrapped
//!   around any device, standing in for the paper's Samsung 980 Pro so that
//!   I/O-bound comparisons reproduce on any host (DESIGN.md substitution 1).
//! * [`CrashDevice`] — fault injection for recovery tests: drops or truncates
//!   writes after an armed trigger point.
//! * [`FaultDevice`] — deterministic, seed-driven transient-fault injection
//!   (transient/permanent EIO, short writes, bit rot, misdirected writes)
//!   with an injection log for test assertions.
//! * [`AsyncIo`] — a submission/completion engine (thread-pool stand-in for
//!   io_uring) used to flush WAL and extents concurrently at commit.
//! * [`wait_until`] — the one wait for a modeled completion instant: it
//!   sleeps until [`WAKE_MARGIN`] before the deadline and polls the rest.

// Every `unsafe` block must carry a `// SAFETY:` justification; enforced
// in CI via clippy (`undocumented_unsafe_blocks`).
#![deny(clippy::undocumented_unsafe_blocks)]

mod async_io;
mod crash;
mod device;
mod fault;
mod file;
mod mem;
mod throttle;
mod wait;

pub use async_io::{AsyncIo, BatchHandle, IoKind, IoReq};
pub use crash::CrashDevice;
pub use device::{Device, DeviceExt};
pub use fault::{permanent_eio, transient_eio, FaultConfig, FaultDevice, FaultKind, Injection};
pub use file::FileDevice;
pub use mem::MemDevice;
pub use throttle::{ThrottleProfile, ThrottledDevice};
pub use wait::{wait_until, WAKE_MARGIN};
