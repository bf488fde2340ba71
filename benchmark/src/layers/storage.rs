//! `lobster-storage`. Pinned: the `Device` trait (all six methods, which
//! `ProbeDevice` implements), `MemDevice::new`, `AsyncIo::{new, submit}`,
//! `BatchHandle::wait`, `IoReq`, `IoKind::Write`.

use lobster_storage::{AsyncIo, IoKind, IoReq};
use lobster_types::Result;
use std::sync::Arc;

pub use lobster_storage::{Device, MemDevice};

pub fn mem_device(capacity: usize) -> Arc<dyn Device> {
    Arc::new(MemDevice::new(capacity))
}

pub struct Io(AsyncIo);

impl Io {
    pub fn new(device: Arc<dyn Device>, threads: usize) -> Io {
        Io(AsyncIo::new(device, threads))
    }

    /// Submit one write per buffer, `stride` bytes apart, and wait for the
    /// batch.
    pub fn write_batch(&self, buffers: &mut [Vec<u8>], stride: u64) -> Result<()> {
        let reqs = buffers
            .iter_mut()
            .enumerate()
            .map(|(i, b)| IoReq {
                kind: IoKind::Write,
                offset: i as u64 * stride,
                ptr: b.as_mut_ptr(),
                len: b.len(),
            })
            .collect();
        // SAFETY: `buffers` is borrowed mutably for the whole call and the
        // batch is waited for before returning, so every region stays
        // valid and untouched until the handle reports completion.
        unsafe { self.0.submit(reqs) }.wait()
    }
}
