use crate::Device;
use lobster_sync::atomic::{AtomicUsize, Ordering};
use lobster_sync::{Arc, Condvar, Mutex};
use lobster_types::{Error, Result};
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

/// Called once, by whichever thread executes a batch's last request; see
/// [`BatchHandle::notify_when_executed`].
pub type Waker = Box<dyn FnOnce() + Send>;

/// Whether every request of a batch has executed, and who wants to know.
struct Executed {
    done: bool,
    /// Taken (and called) by the thread that sets `done`; never stored
    /// once `done` is set.
    waker: Option<Waker>,
}

struct BatchState {
    /// Jobs waiting to run. Workers *and* the submitter pop from here, so a
    /// batch completes at full speed even if every worker is still waking
    /// up — thread wakeup latency only ever adds parallelism.
    queue: Mutex<Vec<IoReq>>,
    pending: AtomicUsize,
    /// Latest modeled-device completion deadline across the batch:
    /// individual request latencies overlap, io_uring-style. Final once
    /// `executed.done` is set.
    deadline: Mutex<Option<Instant>>,
    error: Mutex<Option<Error>>,
    executed: Mutex<Executed>,
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
            executed: Mutex::new(Executed {
                done: n == 0,
                waker: None,
            }),
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
            let waker = {
                let mut executed = self.executed.lock();
                executed.done = true;
                self.cond.notify_all();
                executed.waker.take()
            };
            // Outside the lock: the waker takes locks of its own.
            if let Some(wake) = waker {
                wake();
            }
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
    /// immediately. This lets an owner of an in-flight batch (the group
    /// committer's flush tickets) block on completion while keeping the
    /// reap — and the cleanup hanging off it — in one place.
    pub fn wait_done(&self) {
        // Drain cooperatively instead of just sleeping.
        while self.state.run_one(&self.device) {}
        {
            let mut executed = self.state.executed.lock();
            while !executed.done {
                self.state.cond.wait(&mut executed);
            }
        }
        // All requests are queued on the (modeled) device; wait for the
        // last completion.
        if let Some(deadline) = *self.state.deadline.lock() {
            while Instant::now() < deadline {
                std::thread::yield_now();
            }
        }
    }

    /// Whether every request has executed (the modeled device may still
    /// owe time; see [`BatchHandle::completes_at`]).
    pub fn is_complete(&self) -> bool {
        self.state.executed.lock().done
    }

    /// The completion signal: have `wake` called once, from the thread that
    /// executes the batch's last request, so an owner can sleep until then
    /// instead of polling. Returns `false` — dropping `wake` uncalled — if
    /// every request has executed already; the caller then looks at the
    /// batch right away. Deciding under the same lock the executing thread
    /// sets the flag under means the wake-up is never lost and never
    /// doubled. At most one waker per batch: a second replaces the first.
    pub fn notify_when_executed(&self, wake: Waker) -> bool {
        let mut executed = self.state.executed.lock();
        if executed.done {
            return false;
        }
        executed.waker = Some(wake);
        true
    }

    /// When the batch completes on the device: `None` while requests are
    /// still executing (the completion signal fires when the last one
    /// has), then the latest modeled deadline — or the present for a
    /// device that models none, so a caller sleeping until the returned
    /// instant simply looks again at once.
    pub fn completes_at(&self) -> Option<Instant> {
        if !self.is_complete() {
            return None;
        }
        Some(self.state.deadline.lock().unwrap_or_else(Instant::now))
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

/// Ask the kernel to fire the calling thread's timed waits on time. Linux
/// pads every timer of an ordinary thread by up to 50 µs so that wake-ups
/// batch; a thread that sleeps until [`BatchHandle::completes_at`] with a
/// committer waiting behind it wants the instant, not the batch. Without
/// effect on other systems, and harmless to call twice.
pub fn precise_timed_waits() {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn prctl(option: std::ffi::c_int, ...) -> std::ffi::c_int;
        }
        const PR_SET_TIMERSLACK: std::ffi::c_int = 29;
        let slack_ns: std::ffi::c_ulong = 1;
        // SAFETY: `PR_SET_TIMERSLACK` reads one unsigned long by value and
        // changes only the calling thread's timer slack; no memory is
        // handed to the kernel. A failure leaves the default in place.
        unsafe { prctl(PR_SET_TIMERSLACK, slack_ns) };
    }
}

enum Job {
    Batch(Arc<BatchState>),
    Shutdown,
}

/// A batched submission/completion I/O engine: the userspace stand-in for
/// io_uring used by the commit path (flush WAL buffer and extent sequence
/// with "multiple asynchronous I/O requests", §III-C).
pub struct AsyncIo {
    device: Arc<dyn Device>,
    tx: crossbeam::channel::Sender<Job>,
    workers: Vec<JoinHandle<()>>,
}

impl AsyncIo {
    pub fn new(device: Arc<dyn Device>, worker_threads: usize) -> Self {
        assert!(worker_threads > 0);
        let (tx, rx) = crossbeam::channel::unbounded::<Job>();
        let workers = (0..worker_threads)
            .map(|i| {
                let rx = rx.clone();
                let device = device.clone();
                std::thread::Builder::new()
                    .name(format!("lobster-io-{i}"))
                    .spawn(move || worker_loop(rx, device))
                    .expect("spawn io worker")
            })
            .collect();
        AsyncIo {
            device,
            tx,
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
            self.tx
                .send(Job::Batch(state.clone()))
                .expect("io workers alive");
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
            let _ = self.tx.send(Job::Shutdown);
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(rx: crossbeam::channel::Receiver<Job>, device: Arc<dyn Device>) {
    while let Ok(job) = rx.recv() {
        match job {
            Job::Shutdown => break,
            Job::Batch(state) => while state.run_one(&device) {},
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemDevice;

    /// One write request per buffer, laid out back to back from offset 0.
    pub(super) fn write_back_to_back(bufs: &mut [Vec<u8>]) -> Vec<IoReq> {
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

    /// A device whose writes wait for a token on a channel: the test decides
    /// when a request executes.
    struct TokenDevice {
        inner: MemDevice,
        tokens: Mutex<std::sync::mpsc::Receiver<()>>,
    }

    impl Device for TokenDevice {
        fn read_at(&self, buf: &mut [u8], offset: u64) -> Result<()> {
            self.inner.read_at(buf, offset)
        }
        fn write_at(&self, buf: &[u8], offset: u64) -> Result<()> {
            self.tokens.lock().recv().expect("token sender alive");
            self.inner.write_at(buf, offset)
        }
        fn sync(&self) -> Result<()> {
            self.inner.sync()
        }
        fn capacity(&self) -> u64 {
            self.inner.capacity()
        }
    }

    #[test]
    fn completion_signal_fires_once_when_the_last_request_executes() {
        let (token, tokens) = std::sync::mpsc::channel();
        let dev: Arc<dyn Device> = Arc::new(TokenDevice {
            inner: MemDevice::new(1 << 20),
            tokens: Mutex::new(tokens),
        });
        let io = AsyncIo::new(dev, 2);
        let mut bufs: Vec<Vec<u8>> = (0..3u8).map(|i| vec![i; 4096]).collect();
        let reqs = write_back_to_back(&mut bufs);
        // SAFETY: the buffers backing the requests outlive the wait and are
        // not touched until the batch completes.
        let handle = unsafe { io.submit(reqs) };

        // No request can execute yet, so the waker is stored.
        let fired = Arc::new(AtomicUsize::new(0));
        let (woke_tx, woke_rx) = std::sync::mpsc::channel();
        let counter = fired.clone();
        assert!(handle.notify_when_executed(Box::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
            woke_tx.send(()).expect("test alive");
        })));
        assert!(handle.completes_at().is_none());

        // Two of three requests execute: still silent.
        token.send(()).unwrap();
        token.send(()).unwrap();
        assert!(woke_rx
            .recv_timeout(std::time::Duration::from_millis(50))
            .is_err());
        assert_eq!(fired.load(Ordering::SeqCst), 0);

        // The last one executes: exactly one call, after which the batch
        // reports complete without anyone having polled it.
        token.send(()).unwrap();
        woke_rx.recv().unwrap();
        assert!(handle.is_complete());
        assert!(handle.completes_at().is_some());

        // Too late to register: the caller is told to look instead.
        let counter = fired.clone();
        assert!(!handle.notify_when_executed(Box::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        })));
        handle.wait().unwrap();
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn completion_signal_is_never_lost_against_a_racing_last_request() {
        // Registration races the workers on an ungated device: whichever
        // side takes the lock first, the owner learns of completion —
        // through the call or through the `false` return — exactly once.
        let dev: Arc<dyn Device> = Arc::new(MemDevice::new(1 << 20));
        let io = AsyncIo::new(dev, 2);
        for round in 0..200 {
            let mut bufs: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 512]).collect();
            let reqs = write_back_to_back(&mut bufs);
            // SAFETY: the buffers backing the requests outlive the wait and
            // are not touched until the batch completes.
            let handle = unsafe { io.submit(reqs) };
            let (woke_tx, woke_rx) = std::sync::mpsc::channel();
            let stored = handle.notify_when_executed(Box::new(move || {
                woke_tx.send(()).expect("test alive");
            }));
            if stored {
                woke_rx
                    .recv_timeout(std::time::Duration::from_secs(10))
                    .unwrap_or_else(|_| panic!("round {round}: stored waker never called"));
            } else {
                assert!(handle.is_complete(), "round {round}");
                assert!(
                    woke_rx.try_recv().is_err(),
                    "round {round}: dropped waker ran"
                );
            }
            handle.wait().unwrap();
        }
    }

    #[test]
    fn drop_joins_workers() {
        let dev: Arc<dyn Device> = Arc::new(MemDevice::new(4096));
        let io = AsyncIo::new(dev, 3);
        drop(io); // must not hang
    }
}

#[cfg(test)]
mod model {
    //! The completion signal, storage half, over the real [`BatchState`]:
    //! [`BatchHandle::notify_when_executed`] against whichever thread runs
    //! the batch's last request. The owner learns of the completion exactly
    //! once — a refused registration means every request has executed, a
    //! stored waker is called, once. (The other half, that a called waker
    //! always gets the flush stage out of its sleep, is `FlushInbox`'s model
    //! in `core/src/group_commit.rs`.) The `broken_*` test swaps in a wrong
    //! caller and requires the checker to find it, under loom only.

    use super::tests::write_back_to_back;
    use super::*;
    use crate::MemDevice;
    use lobster_sync::thread;
    // Bookkeeping the model asserts on, invisible to the scheduler.
    use std::sync::atomic::{AtomicUsize as Plain, Ordering::SeqCst};

    /// Two workers drain a two-request batch while its owner registers.
    fn run(register: fn(&BatchHandle, Waker) -> bool) {
        let mut bufs = [vec![1u8; 8], vec![2u8; 8]];
        let reqs = write_back_to_back(&mut bufs);
        let handle = BatchHandle {
            state: Arc::new(BatchState::new(reqs)),
            device: Arc::new(MemDevice::new(4096)),
        };
        // `bufs` outlives the workers: both are joined below.
        let workers = [(); 2].map(|()| {
            let (state, device) = (handle.state.clone(), handle.device.clone());
            thread::spawn(move || while state.run_one(&device) {})
        });
        let wakes = Arc::new(Plain::new(0));
        let counter = wakes.clone();
        let wake = move || {
            counter.fetch_add(1, SeqCst);
        };
        let stored = register(&handle, Box::new(wake));
        assert!(stored || handle.is_complete(), "refused before the end");
        for worker in workers {
            worker.join().unwrap();
        }
        let expected = usize::from(stored);
        assert_eq!(
            wakes.load(SeqCst),
            expected,
            "completion signal lost or doubled"
        );
        handle.wait().unwrap();
    }

    #[test]
    fn completion_signal_fires_exactly_once_or_is_refused() {
        lobster_sync::model(|| run(BatchHandle::notify_when_executed));
    }

    #[test]
    fn broken_blind_waker_registration_is_caught() {
        // Stores the waker without looking at `done`: a worker that finished
        // first has nothing to call.
        let blind = |handle: &BatchHandle, wake: Waker| {
            handle.state.executed.lock().waker = Some(wake);
            true
        };
        let broken = || lobster_sync::model(move || run(blind));
        assert!(lobster_sync::model_catches(
            broken,
            "completion signal lost"
        ));
    }
}
