use crate::{wait_until, Device};
use lobster_sync::atomic::{AtomicUsize, Ordering};
use lobster_sync::{Arc, Condvar, Mutex};
use lobster_types::{Error, Result};
use std::collections::VecDeque;
use std::thread::JoinHandle;
use std::time::Instant;

/// Kind of an asynchronous request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoKind {
    Read,
    Write,
}

/// One asynchronous I/O request over a raw memory region.
///
/// The region typically points into the buffer manager's frame arena, which
/// outlives the request; see the safety contract on [`AsyncIo::submit`].
pub struct IoReq {
    pub kind: IoKind,
    pub offset: u64,
    pub ptr: *mut u8,
    pub len: usize,
}

// SAFETY: the worker threads access the region exactly as the submitting
// thread promised (exclusive for reads-into, shared for writes-from); the
// `submit` contract keeps the region alive for the batch's lifetime.
unsafe impl Send for IoReq {}
// SAFETY: same contract as `Send` — the raw region is never aliased
// mutably across threads within a batch.
unsafe impl Sync for IoReq {}

struct BatchState {
    /// Jobs waiting to run. Workers *and* the submitter pop from here, so a
    /// batch completes at full speed even if every worker is still waking
    /// up — thread wakeup latency only ever adds parallelism.
    queue: Mutex<Vec<IoReq>>,
    pending: AtomicUsize,
    /// Latest modeled-device completion deadline across the batch:
    /// individual request latencies overlap, io_uring-style. Final once
    /// `executed` is set.
    deadline: Mutex<Option<Instant>>,
    error: Mutex<Option<Error>>,
    /// Every request has executed.
    executed: Mutex<bool>,
    cond: Condvar,
}

impl BatchState {
    fn new(reqs: Vec<IoReq>) -> Self {
        let n = reqs.len();
        BatchState {
            pending: AtomicUsize::new(n),
            queue: Mutex::new(reqs),
            deadline: Mutex::new(None),
            error: Mutex::new(None),
            executed: Mutex::new(n == 0),
            cond: Condvar::new(),
        }
    }

    fn run_one(&self, device: &Arc<dyn Device>) -> bool {
        let Some(req) = self.queue.lock().pop() else {
            return false;
        };
        let result = match req.kind {
            IoKind::Read => {
                // SAFETY: submit()'s contract guarantees the region is valid
                // and exclusively ours for the duration of the batch.
                let buf = unsafe { std::slice::from_raw_parts_mut(req.ptr, req.len) };
                device.submit_read(buf, req.offset)
            }
            IoKind::Write => {
                // SAFETY: submit()'s contract guarantees the region is valid
                // and unmutated for the duration of the batch.
                let buf = unsafe { std::slice::from_raw_parts(req.ptr, req.len) };
                device.submit_write(buf, req.offset)
            }
        };
        let result = match result {
            Ok(Some(when)) => {
                let mut d = self.deadline.lock();
                *d = Some(d.map_or(when, |cur| cur.max(when)));
                Ok(())
            }
            Ok(None) => Ok(()),
            Err(e) => Err(e),
        };
        if let Err(e) = result {
            let mut slot = self.error.lock();
            if slot.is_none() {
                *slot = Some(e);
            }
        }
        // ordering: AcqRel; the last completion acquires every worker's writes before signalling done
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            *self.executed.lock() = true;
            self.cond.notify_all();
        }
        true
    }
}

/// Completion handle for one submitted batch.
pub struct BatchHandle {
    state: Arc<BatchState>,
    device: Arc<dyn Device>,
}

impl BatchHandle {
    /// Help execute the batch's remaining requests, then block until every
    /// request completed; returns the first error if any request failed.
    pub fn wait(self) -> Result<()> {
        self.wait_done();
        match self.state.error.lock().take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Like [`BatchHandle::wait`], but without consuming the handle or its
    /// result: the next [`BatchHandle::try_complete`] returns `Some`
    /// immediately. This lets an owner of an in-flight batch (a flush
    /// ticket) block on completion while keeping the reap — and the
    /// cleanup hanging off it — in one place.
    pub fn wait_done(&self) {
        // Help execute the requests no worker has taken yet, so the batch
        // never waits for a worker to wake up.
        while self.state.run_one(&self.device) {}
        {
            let mut executed = self.state.executed.lock();
            while !*executed {
                self.state.cond.wait(&mut executed);
            }
        }
        // Every request is on the (modeled) device; sleep until the last
        // one completes. Copied out first: the lock is not held across it.
        let deadline = *self.state.deadline.lock();
        wait_until(deadline);
    }

    /// Whether every request has executed (the modeled device may still
    /// owe time).
    pub fn is_complete(&self) -> bool {
        *self.state.executed.lock()
    }

    /// Poll the batch: returns `Some(result)` once every request has
    /// executed *and* the modeled device deadline has passed, `None` while
    /// the batch is still in flight. Each call also helps execute one
    /// queued request, so a poller makes progress even when every worker
    /// is busy. Used by the buffer pool to reap readahead batches without
    /// blocking the foreground read.
    pub fn try_complete(&self) -> Option<Result<()>> {
        self.state.run_one(&self.device);
        if !self.is_complete() {
            return None;
        }
        if let Some(deadline) = *self.state.deadline.lock() {
            if Instant::now() < deadline {
                return None;
            }
        }
        Some(match self.state.error.lock().take() {
            Some(e) => Err(e),
            None => Ok(()),
        })
    }
}

enum Job {
    Batch(Arc<BatchState>),
    Shutdown,
}

/// The workers' job queue: each job pushed wakes one sleeping worker.
struct Jobs {
    queue: Mutex<VecDeque<Job>>,
    cv: Condvar,
}

impl Jobs {
    fn push(&self, job: Job) {
        self.queue.lock().push_back(job);
        self.cv.notify_one();
    }

    /// Sleep until there is a job, and take it.
    fn pop(&self) -> Job {
        let mut queue = self.queue.lock();
        loop {
            if let Some(job) = queue.pop_front() {
                return job;
            }
            self.cv.wait(&mut queue);
        }
    }
}

/// A batched submission/completion I/O engine: the userspace stand-in for
/// io_uring used by the commit path (flush WAL buffer and extent sequence
/// with "multiple asynchronous I/O requests", §III-C).
pub struct AsyncIo {
    device: Arc<dyn Device>,
    jobs: Arc<Jobs>,
    workers: Vec<JoinHandle<()>>,
}

impl AsyncIo {
    pub fn new(device: Arc<dyn Device>, worker_threads: usize) -> Self {
        assert!(worker_threads > 0);
        let jobs = Arc::new(Jobs {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
        });
        let workers = (0..worker_threads)
            .map(|i| {
                let jobs = jobs.clone();
                let device = device.clone();
                std::thread::Builder::new()
                    .name(format!("lobster-io-{i}"))
                    .spawn(move || worker_loop(&jobs, device))
                    .expect("spawn io worker")
            })
            .collect();
        AsyncIo {
            device,
            jobs,
            workers,
        }
    }

    pub fn device(&self) -> &Arc<dyn Device> {
        &self.device
    }

    /// Submit a batch of requests; completion is reported through the
    /// returned handle.
    ///
    /// # Safety
    /// Every request's `[ptr, ptr+len)` region must stay valid until the
    /// handle reports completion; read targets must not be accessed and
    /// write sources must not be mutated during that window.
    pub unsafe fn submit(&self, reqs: Vec<IoReq>) -> BatchHandle {
        let n = reqs.len();
        let state = Arc::new(BatchState::new(reqs));
        // One wake-up per request (capped at the worker count): each worker
        // drains the batch queue until it is empty.
        for _ in 0..n.min(self.workers.len()) {
            self.jobs.push(Job::Batch(state.clone()));
        }
        BatchHandle {
            state,
            device: self.device.clone(),
        }
    }

    /// Convenience: submit, help drain, and wait.
    ///
    /// # Safety
    /// Same contract as [`AsyncIo::submit`]; because this blocks, the caller
    /// merely must not share the regions with other threads.
    pub unsafe fn submit_and_wait(&self, reqs: Vec<IoReq>) -> Result<()> {
        self.submit(reqs).wait()
    }
}

impl Drop for AsyncIo {
    fn drop(&mut self) {
        for _ in &self.workers {
            self.jobs.push(Job::Shutdown);
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(jobs: &Jobs, device: Arc<dyn Device>) {
    while let Job::Batch(state) = jobs.pop() {
        while state.run_one(&device) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemDevice, ThrottleProfile, ThrottledDevice};
    use std::time::Duration;

    /// One write request per buffer, laid out back to back from offset 0.
    fn write_back_to_back(bufs: &mut [Vec<u8>]) -> Vec<IoReq> {
        let mut offset = 0;
        let req = |buf: &mut Vec<u8>| {
            let at = offset;
            offset += buf.len() as u64;
            IoReq {
                kind: IoKind::Write,
                offset: at,
                ptr: buf.as_mut_ptr(),
                len: buf.len(),
            }
        };
        bufs.iter_mut().map(req).collect()
    }

    #[test]
    fn batch_write_then_read() {
        let dev: Arc<dyn Device> = Arc::new(MemDevice::new(1 << 20));
        let io = AsyncIo::new(dev.clone(), 4);

        let mut sources: Vec<Vec<u8>> = (0..16u8).map(|i| vec![i + 1; 4096]).collect();
        let reqs = write_back_to_back(&mut sources);
        // SAFETY: the buffers backing the requests outlive the wait and are
        // not touched until the batch completes.
        unsafe { io.submit_and_wait(reqs).unwrap() };

        let mut out = vec![0u8; 16 * 4096];
        let reqs = vec![IoReq {
            kind: IoKind::Read,
            offset: 0,
            ptr: out.as_mut_ptr(),
            len: out.len(),
        }];
        // SAFETY: the buffers backing the requests outlive the wait and are
        // not touched until the batch completes.
        unsafe { io.submit_and_wait(reqs).unwrap() };
        for i in 0..16usize {
            assert!(out[i * 4096..(i + 1) * 4096]
                .iter()
                .all(|&b| b == i as u8 + 1));
        }
    }

    #[test]
    fn empty_batch_completes_immediately() {
        let dev: Arc<dyn Device> = Arc::new(MemDevice::new(4096));
        let io = AsyncIo::new(dev, 1);
        // SAFETY: the buffers backing the requests outlive the wait and are
        // not touched until the batch completes.
        let handle = unsafe { io.submit(Vec::new()) };
        assert!(handle.is_complete());
        handle.wait().unwrap();
    }

    #[test]
    fn errors_are_propagated() {
        let dev: Arc<dyn Device> = Arc::new(MemDevice::new(4096));
        let io = AsyncIo::new(dev, 2);
        let mut buf = vec![0u8; 4096];
        let reqs = vec![IoReq {
            kind: IoKind::Read,
            offset: 1 << 30, // far out of bounds
            ptr: buf.as_mut_ptr(),
            len: buf.len(),
        }];
        // SAFETY: the buffers backing the requests outlive the wait and are
        // not touched until the batch completes.
        assert!(unsafe { io.submit_and_wait(reqs) }.is_err());
    }

    #[test]
    fn submitter_completes_batch_alone_if_workers_are_busy() {
        // Even with a single worker that is stuck on another huge batch,
        // wait() must make progress by draining inline.
        let dev: Arc<dyn Device> = Arc::new(MemDevice::new(1 << 20));
        let io = AsyncIo::new(dev, 1);
        let mut bufs: Vec<Vec<u8>> = (0..64).map(|i| vec![i as u8; 4096]).collect();
        let reqs = write_back_to_back(&mut bufs);
        // SAFETY: the buffers backing the requests outlive the wait and are
        // not touched until the batch completes.
        unsafe { io.submit_and_wait(reqs).unwrap() };
    }

    #[test]
    fn try_complete_polls_to_completion() {
        let dev: Arc<dyn Device> = Arc::new(MemDevice::new(1 << 20));
        let io = AsyncIo::new(dev, 2);
        let mut sources: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 4096]).collect();
        let reqs = write_back_to_back(&mut sources);
        // SAFETY: the buffers backing the requests outlive the wait and are
        // not touched until the batch completes.
        let handle = unsafe { io.submit(reqs) };
        let result = loop {
            if let Some(r) = handle.try_complete() {
                break r;
            }
            std::thread::yield_now();
        };
        result.unwrap();
        let mut out = vec![0u8; 4096];
        let reqs = vec![IoReq {
            kind: IoKind::Read,
            offset: 3 * 4096,
            ptr: out.as_mut_ptr(),
            len: out.len(),
        }];
        // SAFETY: the buffers backing the requests outlive the wait and are
        // not touched until the batch completes.
        unsafe { io.submit_and_wait(reqs).unwrap() };
        assert!(out.iter().all(|&b| b == 3));
    }

    /// Processor time the calling thread has used: the first field of
    /// `/proc/thread-self/schedstat`, in nanoseconds. `None` where the file
    /// does not exist (not Linux, or scheduler statistics compiled out).
    fn thread_cpu() -> Option<Duration> {
        let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
        let ns = stat.split_whitespace().next()?.parse().ok()?;
        Some(Duration::from_nanos(ns))
    }

    #[test]
    fn batch_wait_sleeps_until_the_deadline() {
        // Every request completes 3 ms after it is queued.
        let late = Duration::from_millis(3);
        let profile = ThrottleProfile {
            read_latency: late,
            write_latency: late,
            read_bw: 1 << 40,
            write_bw: 1 << 40,
            sync_latency: late,
        };
        let dev: Arc<dyn Device> = Arc::new(ThrottledDevice::new(MemDevice::new(1 << 20), profile));
        let io = AsyncIo::new(dev, 2);
        // Best of three: a neighbouring test can hold the processor the
        // moment this thread wakes, which only ever inflates a sample.
        let share = (0..3)
            .map(|_| {
                let mut bufs: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 4096]).collect();
                let reqs = write_back_to_back(&mut bufs);
                let cpu0 = thread_cpu();
                let t0 = Instant::now();
                // SAFETY: the buffers backing the requests outlive the wait
                // and are not touched until the batch completes.
                let handle = unsafe { io.submit(reqs) };
                handle.wait_done();
                let waited = t0.elapsed();
                assert!(waited >= late, "returned before the deadline");
                handle.wait().unwrap();
                let cpu = thread_cpu().zip(cpu0).map(|(b, a)| b - a);
                cpu.map_or(0.0, |c| c.as_secs_f64() / waited.as_secs_f64())
            })
            .fold(f64::MAX, f64::min);
        assert!(share < 0.25, "waiting thread used {share:.2} of the wall");
    }

    #[test]
    fn drop_joins_workers() {
        let dev: Arc<dyn Device> = Arc::new(MemDevice::new(4096));
        let io = AsyncIo::new(dev, 3);
        drop(io); // must not hang
    }
}
