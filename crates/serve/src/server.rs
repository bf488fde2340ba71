//! The `lobster-serve` TCP front end.
//!
//! # Architecture
//!
//! One acceptor thread polls a non-blocking listener; each accepted
//! connection gets a session thread (connections are long-lived and
//! mostly parked in blocking reads, so thread-per-connection is the
//! right shape for a storage server without an async runtime). Engine
//! work is multiplexed over the engine's *worker-id slots*: a session
//! leases a slot per request from [`WorkerSlots`], which prefers a slot
//! whose home shard matches the request key's shard (the
//! `begin_with_worker` affinity contract), and returns it when the
//! request completes. This upholds the engine rule that each worker id
//! is used by one thread at a time while letting many more connections
//! than workers stay open.
//!
//! # Backpressure
//!
//! Three gates shed load instead of queueing it:
//!
//! 1. **Connection cap** ([`ServeConfig::max_conns`]): excess accepts get
//!    a `BUSY` frame and are closed.
//! 2. **Worker slots**: a request that cannot lease a worker id within
//!    `SLOT_TIMEOUT` (2 s) gets `BUSY`.
//! 3. **Pin gate** ([`PinGate`]): a streamed range read charges its
//!    pinned extent footprint against the lease budget before pinning;
//!    `GATE_TIMEOUT` (200 ms) → `BUSY`. A slow client therefore holds
//!    *budget* (bounded by its own streams) — never a latch, and never the
//!    whole pool — so eviction keeps running no matter how slowly clients
//!    drain.
//!
//! Socket writes carry `WRITE_TIMEOUT` (5 s); a dead client
//! fails its stream, which releases its leases, gate budget, and worker
//! slot on the error path (RAII in `Txn::stream_blob_range`).
//!
//! # One of each per request
//!
//! A session reads into one reusable buffer and parses the request in
//! place (`protocol::FrameBuf`, `parse_borrowed`): keys and PUT values
//! reach the engine as slices of that buffer. A GET is one engine call —
//! `stream_blob_range` takes the key lock, descends the B-Tree and
//! decodes the Blob State once, and hands the resolved length to the sink
//! with the first chunk — and its response header leaves in the same
//! vectored write as that chunk, straight from the pool frame
//! (`protocol::write_response`), so a small object is one system call on
//! each side of the socket.

use crate::protocol::{
    parse_borrowed, write_response, write_response_header, FrameBuf, FrameRead, Parsed, Request,
    Status,
};
use lobster_buffer::PinGate;
use lobster_core::{ShardedDatabase, ShardedRelation};
use lobster_metrics::Metrics;
use lobster_sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use lobster_sync::{Arc, Condvar, Mutex};
use lobster_types::{Error, Result};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// How long a stream may wait for pin budget before `BUSY`.
const GATE_TIMEOUT: Duration = Duration::from_millis(200);
/// How long a request may wait for a worker slot before `BUSY`.
const SLOT_TIMEOUT: Duration = Duration::from_secs(2);
/// Socket write timeout; a stalled client fails its stream.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Server tuning knobs. `Default` is sized for the smoke/bench scale.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address, e.g. `"127.0.0.1:0"` (port 0 = ephemeral).
    pub addr: String,
    /// Admission cap: connections over this get `BUSY` and are closed.
    pub max_conns: usize,
    /// Streaming chunk size for get/get_range responses.
    pub chunk_bytes: usize,
    /// Pin-lease budget for concurrent streams (bytes). Defaults to a
    /// quarter of the pool, mirroring the committer's pin-budget rule.
    pub gate_budget: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            max_conns: 256,
            chunk_bytes: 256 << 10,
            gate_budget: 64 << 20,
        }
    }
}

/// Lease pool for engine worker ids, bucketed by home shard so requests
/// prefer a worker whose `begin_with_worker` home matches their key's
/// shard (shard-affine routing). Guarantees each worker id is held by at
/// most one session at a time — the engine's worker contract.
pub struct WorkerSlots {
    by_shard: Mutex<Vec<Vec<usize>>>,
    cv: Condvar,
}

impl WorkerSlots {
    /// Create slots for worker ids `0..workers` over `num_shards` shards.
    pub fn new(workers: usize, num_shards: usize) -> WorkerSlots {
        let shards = num_shards.max(1);
        let mut by_shard = vec![Vec::new(); shards];
        for w in 0..workers.max(1) {
            if let Some(bucket) = by_shard.get_mut(w % shards) {
                bucket.push(w);
            }
        }
        WorkerSlots {
            by_shard: Mutex::new(by_shard),
            cv: Condvar::new(),
        }
    }

    /// Lease a worker id, preferring `shard`'s home bucket, falling back
    /// to any free slot (work-stealing), waiting up to `timeout`. A timeout
    /// too long for an `Instant` to represent waits without a deadline.
    pub fn acquire(&self, shard: usize, timeout: Duration) -> Option<usize> {
        let deadline = Instant::now().checked_add(timeout);
        let mut slots = self.by_shard.lock();
        loop {
            let n = slots.len();
            if let Some(w) = slots.get_mut(shard % n).and_then(Vec::pop) {
                return Some(w);
            }
            if let Some(w) = slots.iter_mut().find_map(Vec::pop) {
                return Some(w);
            }
            let Some(deadline) = deadline else {
                self.cv.wait(&mut slots);
                continue;
            };
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            if self.cv.wait_for(&mut slots, deadline - now).timed_out() {
                // One post-timeout retry in case a release raced the wake,
                // scanning from the home bucket around the ring.
                let k = shard % slots.len();
                let (head, tail) = slots.split_at_mut(k);
                return tail.iter_mut().chain(head.iter_mut()).find_map(Vec::pop);
            }
        }
    }

    /// Return a leased worker id.
    pub fn release(&self, w: usize) {
        let mut slots = self.by_shard.lock();
        let n = slots.len();
        if let Some(bucket) = slots.get_mut(w % n) {
            bucket.push(w);
        }
        drop(slots);
        self.cv.notify_one();
    }
}

struct SlotGuard<'a> {
    slots: &'a WorkerSlots,
    w: usize,
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        self.slots.release(self.w);
    }
}

/// Shared server state.
struct Shared {
    sdb: Arc<ShardedDatabase>,
    rel: ShardedRelation,
    cfg: ServeConfig,
    slots: WorkerSlots,
    gate: PinGate,
    shutdown: Arc<AtomicBool>,
    active: AtomicUsize,
    /// Serve counters land on shard 0's live metrics so the merged
    /// `ShardedDatabase::metrics()` view includes them.
    metrics: Metrics,
}

impl Shared {
    fn new(sdb: Arc<ShardedDatabase>, rel: ShardedRelation, cfg: ServeConfig) -> Shared {
        Shared {
            slots: WorkerSlots::new(sdb.config().workers, sdb.num_shards()),
            gate: PinGate::new(cfg.gate_budget),
            shutdown: Arc::new(AtomicBool::new(false)),
            active: AtomicUsize::new(0),
            // lint-allow(no-panic-in-request-path): server construction, not the request path; a sharded DB always has >= 1 shard
            metrics: Arc::clone(sdb.shards()[0].metrics()),
            sdb,
            rel,
            cfg,
        }
    }
}

/// Running server. Obtain via [`Server::start`]; stop via
/// [`ServerHandle::shutdown`].
pub struct Server;

/// Handle to a running server: its bound address, the shutdown flag (for
/// signal handlers), and the graceful-drain teardown.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    sessions: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl Server {
    /// Bind `cfg.addr` and start serving `rel` from `sdb`.
    pub fn start(
        sdb: Arc<ShardedDatabase>,
        rel: ShardedRelation,
        cfg: ServeConfig,
    ) -> Result<ServerHandle> {
        let listener = TcpListener::bind(&cfg.addr).map_err(Error::Io)?;
        listener.set_nonblocking(true).map_err(Error::Io)?;
        let addr = listener.local_addr().map_err(Error::Io)?;

        let shared = Arc::new(Shared::new(sdb, rel, cfg));
        let sessions = Arc::new(Mutex::new(Vec::new()));

        let acc_shared = Arc::clone(&shared);
        let acc_sessions = Arc::clone(&sessions);
        let acceptor = std::thread::Builder::new()
            .name("lobster-serve-accept".into())
            .spawn(move || accept_loop(listener, acc_shared, acc_sessions))
            .map_err(Error::Io)?;

        Ok(ServerHandle {
            addr,
            shared,
            acceptor: Some(acceptor),
            sessions,
        })
    }
}

impl ServerHandle {
    /// The bound listen address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shutdown flag; a signal handler may set it to trigger the same
    /// drain as [`ServerHandle::shutdown`].
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shared.shutdown)
    }

    /// Connections currently open.
    pub fn active_connections(&self) -> usize {
        // ordering: Relaxed; diagnostic gauge over a soft cap
        self.shared.active.load(Ordering::Relaxed)
    }

    /// Pin-gate bytes currently held by in-flight streams (0 when idle —
    /// the lease-lifecycle tests assert disconnects return their budget).
    pub fn pin_gate_in_use(&self) -> u64 {
        self.shared.gate.in_use()
    }

    /// Graceful shutdown: stop accepting, let every session finish its
    /// in-flight request and close, then drain the group committers
    /// (surfacing any sticky `commit_errors`) and quiesce the engine.
    pub fn shutdown(mut self) -> Result<()> {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        let handles: Vec<_> = std::mem::take(&mut *self.sessions.lock());
        for h in handles {
            let _ = h.join();
        }
        self.shared.sdb.wait_for_durability()?;
        self.shared.sdb.shutdown()
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    sessions: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                // ordering: Relaxed; soft admission cap, a stale count only mis-admits by a connection
                if shared.active.load(Ordering::Relaxed) >= shared.cfg.max_conns {
                    // Admission control: reject at the door.
                    // ordering: relaxed metrics counter; snapshot readers tolerate staleness
                    shared.metrics.serve_rejects.fetch_add(1, Ordering::Relaxed);
                    let mut s = stream;
                    let _ = s.set_nonblocking(false);
                    let _ = write_response_header(&mut s, Status::Busy, 0);
                    continue;
                }
                // ordering: Relaxed; soft admission count, a stale read only mis-admits by a connection
                shared.active.fetch_add(1, Ordering::Relaxed);
                let sess_shared = Arc::clone(&shared);
                let h = std::thread::Builder::new()
                    .name("lobster-serve-conn".into())
                    .spawn(move || {
                        session(stream, &sess_shared);
                        // ordering: Relaxed; soft admission count, a stale read only mis-admits by a connection
                        sess_shared.active.fetch_sub(1, Ordering::Relaxed);
                    });
                match h {
                    Ok(h) => sessions.lock().push(h),
                    Err(_) => {
                        shared.active.fetch_sub(1, Ordering::Relaxed); // ordering: Relaxed; soft admission count, a stale read only mis-admits by a connection
                        shared.metrics.serve_rejects.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn session(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    // Reads tick on a short timeout so an idle session notices the
    // shutdown flag.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let mut frames = FrameBuf::default();
    loop {
        // Drain policy: fully received requests are in flight and get
        // served; partial frames are not.
        let draining = || shared.shutdown.load(Ordering::SeqCst);
        match frames.next_frame(&mut stream, draining) {
            FrameRead::Body(body) => {
                if !handle_request(&mut stream, body, shared) {
                    return;
                }
            }
            FrameRead::TooLarge => {
                let _ = write_response_header(&mut stream, Status::TooLarge, 0);
                // ordering: relaxed metrics counter; snapshot readers tolerate staleness
                shared.metrics.serve_rejects.fetch_add(1, Ordering::Relaxed);
                return;
            }
            FrameRead::CleanEof => return,
            FrameRead::DirtyEof => {
                shared
                    .metrics
                    .serve_disconnects
                    .fetch_add(1, Ordering::Relaxed); // ordering: relaxed metrics counter; snapshot readers tolerate staleness
                return;
            }
            FrameRead::Stopped => {
                let _ = write_response_header(&mut stream, Status::ShuttingDown, 0);
                return;
            }
        }
    }
}

/// Serve one request, parsed in place: `body` is a view into the
/// session's read buffer and keys and values go to the engine as slices
/// of it. Returns `false` when the connection must close (mid-stream
/// failure leaves the response body short — the only safe continuation is
/// a disconnect the client can detect).
fn handle_request(out: &mut impl Write, body: &[u8], shared: &Shared) -> bool {
    shared
        .metrics
        .serve_requests
        .fetch_add(1, Ordering::Relaxed); // ordering: relaxed metrics counter; snapshot readers tolerate staleness
    let req = match parse_borrowed(body) {
        Parsed::Req(r) => r,
        Parsed::UnknownOpcode => {
            return write_response_header(out, Status::UnknownOpcode, 0).is_ok();
        }
        Parsed::Bad => {
            return write_response_header(out, Status::BadFrame, 0).is_ok();
        }
    };

    // Everything else runs engine work: lease a worker slot, preferring
    // the key's home shard.
    let key = match req {
        Request::Put { key, .. }
        | Request::Get { key }
        | Request::GetRange { key, .. }
        | Request::Stat { key } => key,
        // No engine work: answered without leasing a worker slot.
        Request::Ping => return write_response_header(out, Status::Ok, 0).is_ok(),
    };
    let shard = shared.sdb.shard_for_key(key);
    let Some(w) = shared.slots.acquire(shard, SLOT_TIMEOUT) else {
        // ordering: relaxed metrics counter; snapshot readers tolerate staleness
        shared.metrics.serve_rejects.fetch_add(1, Ordering::Relaxed);
        return write_response_header(out, Status::Busy, 0).is_ok();
    };
    let _slot = SlotGuard {
        slots: &shared.slots,
        w,
    };

    match req {
        // Already answered before the slot lease; kept total (a stray
        // Ping degrades to a harmless Ok header) rather than panicking.
        Request::Ping => write_response_header(out, Status::Ok, 0).is_ok(),
        Request::Put { key, value } => {
            let status = do_put(shared, w, key, value);
            write_response_header(out, status, 0).is_ok()
        }
        Request::Stat { key } => {
            let mut t = shared.sdb.begin_with_worker(w);
            let r = t.blob_state(&shared.rel, key);
            let _ = t.commit();
            match r {
                Ok(Some(state)) => {
                    let mut reply = [0u8; 40];
                    let (size, sha256) = reply.split_at_mut(8);
                    size.copy_from_slice(&state.size.to_le_bytes());
                    sha256.copy_from_slice(&state.sha256);
                    write_response(out, Status::Ok, 40, &reply).is_ok()
                }
                Ok(None) => write_response_header(out, Status::NotFound, 0).is_ok(),
                Err(e) => write_response_header(out, read_error_status(shared, &e), 0).is_ok(),
            }
        }
        Request::Get { key } => do_stream(out, shared, w, key, 0, u64::MAX),
        Request::GetRange { key, offset, len } => do_stream(out, shared, w, key, offset, len),
    }
}

/// Status for a read request (GET, GET_RANGE, STAT) that failed before any
/// response byte was sent. Contention is the client's cue to retry, like a
/// `do_put` that ran out of conflict retries: a lost wait-die race or lock
/// timeout (`TxnConflict`) and an exhausted pin budget (`BufferFull`) are
/// counted rejections answered `BUSY`; only real faults are `SERVER_ERR`.
fn read_error_status(shared: &Shared, e: &Error) -> Status {
    match e {
        Error::KeyNotFound => Status::NotFound,
        Error::TxnConflict | Error::BufferFull => {
            // ordering: relaxed metrics counter; snapshot readers tolerate staleness
            shared.metrics.serve_rejects.fetch_add(1, Ordering::Relaxed);
            Status::Busy
        }
        _ => Status::ServerErr,
    }
}

fn do_put(shared: &Shared, w: usize, key: &[u8], value: &[u8]) -> Status {
    // Upsert semantics with a bounded conflict-retry loop.
    for _ in 0..8 {
        let mut t = shared.sdb.begin_with_worker(w);
        let r = (|| {
            match t.delete_blob(&shared.rel, key) {
                Ok(()) | Err(Error::KeyNotFound) => {}
                Err(e) => return Err(e),
            }
            t.put_blob(&shared.rel, key, value)
        })();
        let r = match r {
            Ok(()) => t.commit(),
            Err(e) => {
                t.abort();
                Err(e)
            }
        };
        match r {
            Ok(()) => return Status::Ok,
            Err(Error::TxnConflict) => continue,
            Err(Error::BlobTooLarge) | Err(Error::OutOfSpace) => return Status::TooLarge,
            Err(Error::BufferFull) => return Status::Busy,
            Err(_) => return Status::ServerErr,
        }
    }
    Status::Busy
}

/// Serve a get/get_range: one engine call resolves the Blob State and
/// streams chunks straight out of the buffer pool under streaming leases.
/// Returns `false` if the connection must close.
///
/// Nothing goes on the wire before the stream's first sink call, which
/// carries the resolved length: the header leaves with that first chunk,
/// in one vectored write from the pool frame, and every refusal ahead of
/// it — missing key, lost lock race, pin-gate timeout — is still a clean
/// status frame.
fn do_stream(
    out: &mut impl Write,
    shared: &Shared,
    w: usize,
    key: &[u8],
    offset: u64,
    len: u64,
) -> bool {
    let mut t = shared.sdb.begin_with_worker(w);
    let mut sent_header = false;
    let res = t.stream_blob_range(
        &shared.rel,
        key,
        offset,
        len,
        shared.cfg.chunk_bytes,
        Some((&shared.gate, GATE_TIMEOUT)),
        &mut |total, chunk| {
            if sent_header {
                out.write_all(chunk).map_err(Error::Io)?;
            } else {
                write_response(out, Status::Ok, total, chunk)?;
                sent_header = true;
            }
            shared
                .metrics
                .serve_bytes_streamed
                .fetch_add(chunk.len() as u64, Ordering::Relaxed); // ordering: relaxed metrics counter; snapshot readers tolerate staleness
            Ok(())
        },
    );
    let _ = t.commit();
    match res {
        Ok(_) if sent_header => true,
        // An empty range (or blob) never reaches the sink.
        Ok(_) => write_response_header(out, Status::Ok, 0).is_ok(),
        Err(e) if !sent_header => {
            write_response_header(out, read_error_status(shared, &e), 0).is_ok()
        }
        Err(_) => {
            // Header already on the wire: the body is short and the
            // client sees a disconnect. Pins and gate budget were
            // released by the stream's RAII guard.
            shared
                .metrics
                .serve_disconnects
                .fetch_add(1, Ordering::Relaxed); // ordering: relaxed metrics counter; snapshot readers tolerate staleness
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::tests::ChoppyWriter;
    use crate::protocol::{encode_request, read_response};
    use lobster_core::{Config, RelationKind, ShardDevices};
    use lobster_storage::MemDevice;

    fn shared() -> Shared {
        let cfg = Config {
            pool_frames: 1024,
            workers: 2,
            commit_wait: false,
            ..Config::default()
        };
        let parts = vec![ShardDevices {
            data: Arc::new(MemDevice::new(32 << 20)) as _,
            wal: Arc::new(MemDevice::new(8 << 20)) as _,
        }];
        let sdb = ShardedDatabase::create(parts, cfg).unwrap();
        let rel = sdb.create_relation("blobs", RelationKind::Blob).unwrap();
        Shared::new(sdb, rel, ServeConfig::default())
    }

    /// Serve `req` into a writer taking `per_call` bytes a call.
    fn serve(shared: &Shared, req: &Request, per_call: usize) -> ChoppyWriter {
        let mut out = ChoppyWriter::new(per_call);
        assert!(handle_request(&mut out, &encode_request(req)[4..], shared));
        out
    }

    #[test]
    fn one_write_per_small_response() {
        let shared = shared();
        let key = b"k".to_vec();
        let value: Vec<u8> = (0..4096u32).map(|i| (i * 7) as u8).collect();
        let put = Request::Put {
            key: key.clone(),
            value: value.clone(),
        };
        let out = serve(&shared, &put, usize::MAX);
        assert_eq!((out.writes, out.vectored_writes), (1, 0));

        // GET and STAT: header and body leave together.
        let get = Request::Get { key: key.clone() };
        let whole = serve(&shared, &get, usize::MAX);
        assert_eq!((whole.writes, whole.vectored_writes), (0, 1));
        let r = read_response(&mut &whole.bytes[..]).unwrap();
        assert_eq!((r.status, &r.body), (Status::Ok, &value));
        let stat = serve(&shared, &Request::Stat { key: key.clone() }, usize::MAX);
        assert_eq!((stat.writes, stat.vectored_writes), (0, 1));
        assert_eq!(stat.bytes.len(), 49);

        // A socket that takes the response a few bytes at a time still
        // carries the same bytes.
        for per_call in [1, 8, 9, 10, 4095] {
            assert_eq!(serve(&shared, &get, per_call).bytes, whole.bytes);
        }

        // Refusals ahead of the first chunk are bare status frames.
        let absent = serve(
            &shared,
            &Request::Get {
                key: b"no".to_vec(),
            },
            usize::MAX,
        );
        assert_eq!(
            absent.bytes,
            [Status::NotFound as u8, 0, 0, 0, 0, 0, 0, 0, 0]
        );
        let range = Request::GetRange {
            key,
            offset: 4096,
            len: 1,
        };
        assert_eq!(serve(&shared, &range, usize::MAX).bytes, [0; 9]);
        assert_eq!(shared.gate.in_use(), 0);
    }

    #[test]
    fn a_lease_with_no_representable_deadline_waits_for_a_release() {
        let slots = Arc::new(WorkerSlots::new(1, 1));
        assert_eq!(slots.acquire(0, Duration::MAX), Some(0));
        let releaser = slots.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            releaser.release(0);
        });
        assert_eq!(slots.acquire(0, Duration::MAX), Some(0));
        t.join().unwrap();
    }
}
