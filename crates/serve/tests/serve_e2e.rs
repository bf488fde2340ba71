//! End-to-end tests for `lobster-serve`: protocol round trips over real
//! TCP, framing edge cases (truncated frames, oversized length fields,
//! unknown opcodes, mid-stream disconnects), admission control, the
//! pin-lease lifecycle, graceful shutdown, and a malformed-bytes fuzz
//! loop (widened by `LOBSTER_TORTURE_MULT` in the nightly torture run).

use lobster_core::{Config, RelationKind, ShardDevices, ShardedDatabase, ShardedRelation};
use lobster_serve::{Client, ServeConfig, Server, ServerHandle, Status, DEFAULT_MAX_FRAME};
use lobster_storage::MemDevice;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn torture_mult() -> u64 {
    std::env::var("LOBSTER_TORTURE_MULT")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
        .max(1)
}

fn mem_engine(shards: usize) -> (Arc<ShardedDatabase>, ShardedRelation) {
    let cfg = Config {
        pool_frames: 4096, // 16 MiB per shard
        workers: 4,
        commit_wait: false,
        ..Config::default()
    };
    let parts = (0..shards)
        .map(|_| ShardDevices {
            data: Arc::new(MemDevice::new(128 << 20)) as _,
            wal: Arc::new(MemDevice::new(32 << 20)) as _,
        })
        .collect();
    let sdb = ShardedDatabase::create(parts, cfg).unwrap();
    let rel = sdb.create_relation("blobs", RelationKind::Blob).unwrap();
    (sdb, rel)
}

fn start_server(shards: usize, cfg: ServeConfig) -> (Arc<ShardedDatabase>, ServerHandle) {
    let (sdb, rel) = mem_engine(shards);
    let handle = Server::start(Arc::clone(&sdb), rel, cfg).unwrap();
    (sdb, handle)
}

fn pattern(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u8
        })
        .collect()
}

fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let end = Instant::now() + deadline;
    while Instant::now() < end {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    cond()
}

// ------------------------------------------------------------ happy path ---

#[test]
fn protocol_roundtrip_over_tcp() {
    let (sdb, handle) = start_server(4, ServeConfig::default());
    let addr = handle.local_addr().to_string();
    let mut c = Client::connect(&addr).unwrap();

    assert_eq!(c.ping().unwrap(), Status::Ok);
    assert_eq!(c.get(b"missing").unwrap().status, Status::NotFound);

    // Small (inline-prefix), page-sized, and multi-extent blobs.
    for (i, size) in [10usize, 5000, 300_000].into_iter().enumerate() {
        let key = format!("key{i}").into_bytes();
        let data = pattern(size, i as u64 + 1);
        assert_eq!(c.put(&key, &data).unwrap(), Status::Ok);

        let got = c.get(&key).unwrap();
        assert_eq!(got.status, Status::Ok);
        assert_eq!(got.body, data, "GET mismatch at size {size}");

        let r = c.get_range(&key, 3, 100).unwrap();
        assert_eq!(r.status, Status::Ok);
        let want = &data[3.min(size)..size.min(103)];
        assert_eq!(&r.body[..], want);

        // Past-EOF range: OK with an empty body.
        let r = c.get_range(&key, size as u64 + 5, 10).unwrap();
        assert_eq!(r.status, Status::Ok);
        assert!(r.body.is_empty());

        let st = c.stat(&key).unwrap();
        let st = st.stat().expect("stat body");
        assert_eq!(st.size, size as u64);
        assert_eq!(
            st.sha256,
            lobster_sha256::Sha256::digest(&data),
            "stat sha at size {size}"
        );
    }

    // Upsert overwrites.
    assert_eq!(c.put(b"key0", b"replaced").unwrap(), Status::Ok);
    assert_eq!(c.get(b"key0").unwrap().body, b"replaced");

    let m = sdb.metrics().snapshot();
    assert!(m.serve_requests > 0);
    assert!(m.serve_bytes_streamed > 0);
    handle.shutdown().unwrap();
}

#[test]
fn requests_route_across_all_shards() {
    let (sdb, handle) = start_server(4, ServeConfig::default());
    let addr = handle.local_addr().to_string();
    let mut c = Client::connect(&addr).unwrap();
    let mut hit = [false; 4];
    for i in 0..64u32 {
        let key = format!("spread-{i}").into_bytes();
        hit[sdb.shard_for_key(&key)] = true;
        assert_eq!(c.put(&key, &pattern(2000, i as u64)).unwrap(), Status::Ok);
        assert_eq!(c.get(&key).unwrap().body, pattern(2000, i as u64));
    }
    assert!(hit.iter().all(|&h| h), "64 keys must cover 4 shards");
    handle.shutdown().unwrap();
}

// ------------------------------------------------------------ wire format ---

/// Read one response the way the parent's client did: the nine header
/// bytes, then the body, as two `read_exact`s.
fn read_frame(s: &mut TcpStream) -> ([u8; 9], Vec<u8>) {
    let mut hdr = [0u8; 9];
    s.read_exact(&mut hdr).unwrap();
    let mut body = vec![0u8; u64::from_le_bytes(hdr[1..].try_into().unwrap()) as usize];
    s.read_exact(&mut body).unwrap();
    (hdr, body)
}

fn header(status: Status, body_len: u64) -> [u8; 9] {
    let mut hdr = [status as u8; 9];
    hdr[1..].copy_from_slice(&body_len.to_le_bytes());
    hdr
}

/// The frames documented in `protocol.rs`, written out by hand over a raw
/// socket: how the server batches its writes is not part of the format.
#[test]
fn hand_written_frames_get_the_documented_bytes() {
    let (_sdb, handle) = start_server(2, ServeConfig::default());
    let mut s = TcpStream::connect(handle.local_addr()).unwrap();
    let data = pattern(4096, 3);
    let key = b"wire";
    let keyed = |op: u8, tail: &[u8]| {
        let mut f = ((1 + 2 + key.len() + tail.len()) as u32)
            .to_le_bytes()
            .to_vec();
        f.push(op);
        f.extend_from_slice(&(key.len() as u16).to_le_bytes());
        f.extend_from_slice(key);
        f.extend_from_slice(tail);
        f
    };

    // PING: u32 body_len = 1 | opcode 1.
    s.write_all(&[1, 0, 0, 0, 1]).unwrap();
    assert_eq!(read_frame(&mut s), (header(Status::Ok, 0), vec![]));

    // GET of a key that is not there: a bare NOT_FOUND header.
    s.write_all(&keyed(3, &[])).unwrap();
    assert_eq!(read_frame(&mut s), (header(Status::NotFound, 0), vec![]));

    // PUT: opcode 2 | klen | key | u32 vlen | value.
    let mut tail = (data.len() as u32).to_le_bytes().to_vec();
    tail.extend_from_slice(&data);
    s.write_all(&keyed(2, &tail)).unwrap();
    assert_eq!(read_frame(&mut s), (header(Status::Ok, 0), vec![]));

    // GET: status | u64 body_len | payload.
    s.write_all(&keyed(3, &[])).unwrap();
    assert_eq!(read_frame(&mut s), (header(Status::Ok, 4096), data.clone()));

    // GET_RANGE: ... | u64 offset | u64 len; clamped at the blob's end,
    // and an empty range is OK with no body.
    let range = |offset: u64, len: u64| [offset.to_le_bytes(), len.to_le_bytes()].concat();
    s.write_all(&keyed(4, &range(4000, 1000))).unwrap();
    assert_eq!(
        read_frame(&mut s),
        (header(Status::Ok, 96), data[4000..].to_vec())
    );
    s.write_all(&keyed(4, &range(4096, 10))).unwrap();
    assert_eq!(read_frame(&mut s), (header(Status::Ok, 0), vec![]));

    // STAT: body = u64 size | sha256.
    s.write_all(&keyed(5, &[])).unwrap();
    let mut stat = 4096u64.to_le_bytes().to_vec();
    stat.extend_from_slice(&lobster_sha256::Sha256::digest(&data));
    assert_eq!(read_frame(&mut s), (header(Status::Ok, 40), stat));
    handle.shutdown().unwrap();
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let (_sdb, handle) = start_server(2, ServeConfig::default());
    let mut c = Client::connect(&handle.local_addr().to_string()).unwrap();
    let data = pattern(4096, 11);
    assert_eq!(c.put(b"piped", &data).unwrap(), Status::Ok);

    // STAT, GET and PING in one TCP write; nothing is read in between.
    let wire = [
        lobster_serve::Request::Stat {
            key: b"piped".to_vec(),
        },
        lobster_serve::Request::Get {
            key: b"piped".to_vec(),
        },
        lobster_serve::Request::Ping,
    ]
    .iter()
    .flat_map(lobster_serve::encode_request)
    .collect::<Vec<u8>>();
    let mut s = c.stream();
    s.write_all(&wire).unwrap();
    let stat = lobster_serve::read_response(&mut s).unwrap();
    assert_eq!(stat.stat().expect("stat reply").size, 4096);
    let got = lobster_serve::read_response(&mut s).unwrap();
    assert_eq!((got.status, got.body), (Status::Ok, data));
    let pong = lobster_serve::read_response(&mut s).unwrap();
    assert_eq!((pong.status, pong.body.len()), (Status::Ok, 0));
    handle.shutdown().unwrap();
}

#[test]
fn frame_split_across_two_writes_is_served_once() {
    let (sdb, handle) = start_server(1, ServeConfig::default());
    let mut s = TcpStream::connect(handle.local_addr()).unwrap();
    s.set_nodelay(true).unwrap();
    let data = pattern(4096, 12);
    let mut c = Client::connect(&handle.local_addr().to_string()).unwrap();
    assert_eq!(c.put(b"split", &data).unwrap(), Status::Ok);

    let frame = lobster_serve::encode_request(&lobster_serve::Request::Get {
        key: b"split".to_vec(),
    });
    let before = sdb.metrics().snapshot().serve_requests;
    for cut in 1..frame.len() {
        s.write_all(&frame[..cut]).unwrap();
        // Let the first piece arrive, and be read, on its own.
        std::thread::sleep(Duration::from_millis(2));
        s.write_all(&frame[cut..]).unwrap();
        let r = lobster_serve::read_response(&mut s).unwrap();
        assert_eq!((r.status, &r.body), (Status::Ok, &data), "cut at {cut}");
    }
    assert_eq!(
        sdb.metrics().snapshot().serve_requests - before,
        frame.len() as u64 - 1,
        "one request served per frame, however it arrived"
    );
    handle.shutdown().unwrap();
}

/// What one served GET of a resident 4 KiB blob costs inside the engine:
/// one B-Tree descent (what a bare `blob_state` costs — the parent's GET
/// took two), no byte copied, one request counted.
#[test]
fn served_get_resolves_once_and_copies_nothing() {
    let (sdb, handle) = start_server(1, ServeConfig::default());
    let rel = sdb.relation("blobs").unwrap();
    let mut c = Client::connect(&handle.local_addr().to_string()).unwrap();
    let data = pattern(4096, 13);
    assert_eq!(c.put(b"once", &data).unwrap(), Status::Ok);
    // Make the blob resident and the connection warm.
    assert_eq!(c.get(b"once").unwrap().body, data);
    // A reply is on the wire before the session counts its bytes and
    // commits. Requests of one connection are served in turn, so once a
    // PING is answered the GET before it has finished all of that.
    assert_eq!(c.ping().unwrap(), Status::Ok);
    sdb.wait_for_durability().unwrap();

    let before = sdb.metrics().snapshot();
    let mut t = sdb.begin();
    assert_eq!(t.blob_state(&rel, b"once").unwrap().unwrap().size, 4096);
    t.commit().unwrap();
    let one_descent = sdb.metrics().snapshot().btree_node_accesses - before.btree_node_accesses;
    assert!(one_descent > 0);

    let before = sdb.metrics().snapshot();
    assert_eq!(c.get(b"once").unwrap().body, data);
    // No PING here, it would be a second request: wait for the GET's
    // commit, the last thing it does.
    assert!(wait_until(Duration::from_secs(5), || {
        sdb.metrics().snapshot().txn_commits > before.txn_commits
    }));
    let after = sdb.metrics().snapshot();
    assert_eq!(
        after.btree_node_accesses - before.btree_node_accesses,
        one_descent
    );
    assert_eq!(after.memcpy_bytes - before.memcpy_bytes, 0);
    assert_eq!(after.serve_requests - before.serve_requests, 1);
    assert_eq!(
        after.serve_bytes_streamed - before.serve_bytes_streamed,
        4096
    );
    assert_eq!(after.txn_commits - before.txn_commits, 1);
    handle.shutdown().unwrap();
}

// -------------------------------------------------------- framing edges ---

#[test]
fn unknown_opcode_and_bad_frame_keep_connection_usable() {
    let (_sdb, handle) = start_server(1, ServeConfig::default());
    let addr = handle.local_addr().to_string();
    let mut s = TcpStream::connect(&addr).unwrap();

    // Unknown opcode 0xEE.
    s.write_all(&1u32.to_le_bytes()).unwrap();
    s.write_all(&[0xEE]).unwrap();
    let r = lobster_serve::read_response(&mut s).unwrap();
    assert_eq!(r.status, Status::UnknownOpcode);

    // Structurally bad PUT body (klen runs past the end).
    s.write_all(&5u32.to_le_bytes()).unwrap();
    s.write_all(&[2, 0xFF, 0x00, b'a', b'b']).unwrap();
    let r = lobster_serve::read_response(&mut s).unwrap();
    assert_eq!(r.status, Status::BadFrame);

    // The same connection still serves real requests.
    let mut c = Client::from_stream(s);
    assert_eq!(c.ping().unwrap(), Status::Ok);
    handle.shutdown().unwrap();
}

#[test]
fn oversized_length_field_is_rejected() {
    let (_sdb, handle) = start_server(1, ServeConfig::default());
    let addr = handle.local_addr().to_string();
    let mut s = TcpStream::connect(&addr).unwrap();
    // Length prefix one past the frame cap; body never sent.
    s.write_all(&(DEFAULT_MAX_FRAME + 1).to_le_bytes()).unwrap();
    let r = lobster_serve::read_response(&mut s).unwrap();
    assert_eq!(r.status, Status::TooLarge);
    // Server closes the unsyncable stream.
    let mut tail = Vec::new();
    s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    assert_eq!(s.read_to_end(&mut tail).unwrap_or(0), 0);
    handle.shutdown().unwrap();
}

#[test]
fn truncated_frame_then_close_is_a_clean_disconnect() {
    let (sdb, handle) = start_server(1, ServeConfig::default());
    let addr = handle.local_addr().to_string();
    {
        let mut s = TcpStream::connect(&addr).unwrap();
        // Announce a 100-byte body, send 3 bytes, vanish.
        s.write_all(&100u32.to_le_bytes()).unwrap();
        s.write_all(&[3, 1, 0]).unwrap();
    }
    assert!(
        wait_until(Duration::from_secs(5), || {
            sdb.metrics().snapshot().serve_disconnects >= 1
        }),
        "mid-frame EOF must be counted as a disconnect"
    );
    // Server is still healthy.
    let mut c = Client::connect(&addr).unwrap();
    assert_eq!(c.ping().unwrap(), Status::Ok);
    handle.shutdown().unwrap();
}

#[test]
fn midstream_disconnect_releases_pins_and_gate_budget() {
    let (sdb, handle) = start_server(
        1,
        ServeConfig {
            chunk_bytes: 4096,
            ..ServeConfig::default()
        },
    );
    let addr = handle.local_addr().to_string();

    // A blob big enough that the stream cannot fit in socket buffers.
    let data = pattern(8 << 20, 42);
    let mut c = Client::connect(&addr).unwrap();
    assert_eq!(c.put(b"big", &data).unwrap(), Status::Ok);
    drop(c);

    // Request the blob, read only the header + a little, then close.
    {
        let mut s = TcpStream::connect(&addr).unwrap();
        s.write_all(&lobster_serve::encode_request(
            &lobster_serve::Request::Get {
                key: b"big".to_vec(),
            },
        ))
        .unwrap();
        let mut hdr = [0u8; 9];
        s.read_exact(&mut hdr).unwrap();
        assert_eq!(hdr[0], Status::Ok as u8);
        let mut first = [0u8; 4096];
        s.read_exact(&mut first).unwrap();
        // Close without draining the remaining megabytes.
    }

    // The aborted stream must return its gate budget and release every
    // streaming lease; the disconnect is counted.
    assert!(
        wait_until(Duration::from_secs(10), || handle.pin_gate_in_use() == 0),
        "gate budget leaked after mid-stream disconnect"
    );
    assert!(
        wait_until(Duration::from_secs(5), || {
            sdb.shards()[0].blob_pool().audit().leaked_pins().is_empty()
        }),
        "streaming leases leaked after mid-stream disconnect"
    );
    assert!(wait_until(Duration::from_secs(5), || {
        sdb.metrics().snapshot().serve_disconnects >= 1
    }));

    // Server still serves.
    let mut c = Client::connect(&addr).unwrap();
    let r = c.get_range(b"big", 0, 10_000).unwrap();
    assert_eq!(r.status, Status::Ok);
    assert_eq!(&r.body[..], &data[..10_000]);
    handle.shutdown().unwrap();
}

// ----------------------------------------------------- admission control ---

#[test]
fn connection_cap_sheds_with_busy() {
    let (sdb, handle) = start_server(
        1,
        ServeConfig {
            max_conns: 1,
            ..ServeConfig::default()
        },
    );
    let addr = handle.local_addr().to_string();
    let mut keep = Client::connect(&addr).unwrap();
    assert_eq!(keep.ping().unwrap(), Status::Ok);

    // Second connection is rejected at the door with BUSY.
    let mut s = TcpStream::connect(&addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let r = lobster_serve::read_response(&mut s).unwrap();
    assert_eq!(r.status, Status::Busy);
    assert!(sdb.metrics().snapshot().serve_rejects >= 1);

    // First connection unaffected.
    assert_eq!(keep.ping().unwrap(), Status::Ok);
    handle.shutdown().unwrap();
}

#[test]
fn lock_conflict_on_reads_is_a_clean_busy_then_success() {
    let (sdb, handle) = start_server(2, ServeConfig::default());
    let rel = sdb.relation("blobs").unwrap();
    let addr = handle.local_addr().to_string();
    let mut c = Client::connect(&addr).unwrap();
    let data = pattern(300_000, 7);
    assert_eq!(c.put(b"contended", &data).unwrap(), Status::Ok);

    // An in-process writer holds the key's exclusive lock. The server's
    // read transactions are younger, so wait-die refuses them at once.
    let mut writer = sdb.begin_with_worker(0);
    writer.delete_blob(&rel, b"contended").unwrap();

    let before = sdb.metrics().snapshot().serve_rejects;
    assert_eq!(c.get(b"contended").unwrap().status, Status::Busy);
    assert_eq!(
        c.get_range(b"contended", 10, 100).unwrap().status,
        Status::Busy
    );
    assert_eq!(c.stat(b"contended").unwrap().status, Status::Busy);
    assert_eq!(
        sdb.metrics().snapshot().serve_rejects - before,
        3,
        "every refused read is a counted rejection"
    );

    // The same connection succeeds once the lock is gone.
    writer.abort();
    let got = c.get(b"contended").unwrap();
    assert_eq!(got.status, Status::Ok);
    assert_eq!(got.body, data);
    assert_eq!(
        c.stat(b"contended").unwrap().stat().unwrap().size,
        data.len() as u64
    );
    handle.shutdown().unwrap();
}

// ------------------------------------------------------------- shutdown ---

#[test]
fn graceful_shutdown_drains_cleanly() {
    let (sdb, handle) = start_server(2, ServeConfig::default());
    let addr = handle.local_addr().to_string();

    let mut c = Client::connect(&addr).unwrap();
    for i in 0..32u32 {
        let key = format!("shut-{i}").into_bytes();
        assert_eq!(c.put(&key, &pattern(20_000, i as u64)).unwrap(), Status::Ok);
    }

    handle.shutdown().unwrap();

    // No lost commits, no leaked latches or pins, committers quiesced.
    let m = sdb.metrics().snapshot();
    assert_eq!(m.commit_errors, 0, "graceful shutdown lost commits");
    for shard in sdb.shards() {
        shard.blob_pool().audit().assert_no_leaked_pins();
        assert_eq!(shard.blob_pool().audit().held_latches(), 0);
    }

    // Listener is gone (give the OS a beat to tear it down).
    assert!(
        wait_until(Duration::from_secs(5), || TcpStream::connect(&addr)
            .is_err()),
        "listener still accepting after shutdown"
    );
}

#[test]
fn graceful_shutdown_quiesces_defragmenter() {
    // The lobster-serve SIGTERM drain in miniature: serve traffic while a
    // background defragmenter relocates under the same engine, then stop
    // maintenance (pause + join quiesces its in-flight relocation batch)
    // before the serve drain — the order main.rs uses.
    let (sdb, handle) = start_server(2, ServeConfig::default());
    let srel = sdb.relation("blobs").unwrap();
    let addr = handle.local_addr().to_string();

    let maintenance = lobster_core::Defragmenter::start(
        sdb.shards().to_vec(),
        lobster_core::DefragConfig {
            interval: Duration::from_millis(5),
            min_score: 0.0,
            batch_blobs: 8,
            scrub_batch: 4,
        },
    );

    // Churn so relocation always has work: puts arrive through the wire,
    // deletes shatter placements engine-side (the protocol has no delete
    // opcode), across both shards.
    let mut c = Client::connect(&addr).unwrap();
    for i in 0..48u32 {
        let key = format!("frag-{i}").into_bytes();
        assert_eq!(c.put(&key, &pattern(60_000, i as u64)).unwrap(), Status::Ok);
    }
    for i in (0..48u32).step_by(2) {
        let key = format!("frag-{i}").into_bytes();
        // A relocation or scrub may hold the key: the younger delete loses
        // wait-die and retries, like any engine-side writer.
        loop {
            let mut t = sdb.begin();
            match t.delete_blob(&srel, &key) {
                Ok(()) => break t.commit().unwrap(),
                Err(lobster_types::Error::TxnConflict) => t.abort(),
                Err(e) => panic!("delete of frag-{i}: {e}"),
            }
        }
    }
    for i in 0..24u32 {
        let key = format!("refill-{i}").into_bytes();
        assert_eq!(
            c.put(&key, &pattern(90_000, 1000 + i as u64)).unwrap(),
            Status::Ok
        );
    }

    // Let maintenance overlap live traffic for a few passes.
    assert!(
        wait_until(Duration::from_secs(10), || maintenance.passes() >= 2),
        "defragmenter made no passes while serving"
    );

    // Drain in main.rs order: maintenance first, then the server.
    maintenance.pause();
    maintenance.stop();
    handle.shutdown().unwrap();

    let m = sdb.metrics().snapshot();
    assert_eq!(m.commit_errors, 0, "drain lost commits");
    assert_eq!(m.scrub_failures, 0, "scrubber flagged healthy blobs");
    for shard in sdb.shards() {
        shard.blob_pool().audit().assert_no_leaked_pins();
        assert_eq!(shard.blob_pool().audit().held_latches(), 0);
    }

    // Every surviving blob still reads back byte-identical after the
    // concurrent relocations.
    for shard in sdb.shards() {
        let rel = shard.relation("blobs").unwrap();
        let mut t = shard.begin();
        let mut keys: Vec<Vec<u8>> = Vec::new();
        rel.tree
            .for_each(|k, _| {
                keys.push(k.to_vec());
                true
            })
            .unwrap();
        for k in keys {
            t.get_blob(&rel, &k, |_| ()).unwrap_or_else(|e| {
                panic!(
                    "blob {:?} unreadable after drain: {e}",
                    String::from_utf8_lossy(&k)
                )
            });
        }
        t.commit().unwrap();
    }
}

// ------------------------------------------------------------------ fuzz ---

#[test]
fn malformed_bytes_fuzz_never_kills_the_server() {
    let (_sdb, handle) = start_server(1, ServeConfig::default());
    let addr = handle.local_addr().to_string();
    let iters = 64 * torture_mult();
    let mut state = 0x0123_4567_89AB_CDEF_u64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };

    for i in 0..iters {
        let mut s = match TcpStream::connect(&addr) {
            Ok(s) => s,
            Err(e) => panic!("connect failed at fuzz iter {i}: {e}"),
        };
        s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let n = (rng() % 512) as usize;
        let mut junk = Vec::with_capacity(n);
        for _ in 0..n {
            junk.push(rng() as u8);
        }
        // Half the time, prefix a plausible length to exercise body
        // parsing rather than length-field rejection.
        if rng() % 2 == 0 && !junk.is_empty() {
            let body_len = (junk.len() - junk.len().min(4)) as u32;
            junk.splice(0..0, body_len.to_le_bytes());
        }
        let _ = s.write_all(&junk);
        // Whatever happens — error frame, close, or silence — must not
        // take the server down. Drain any reply and move on.
        let mut sink = [0u8; 256];
        let _ = s.read(&mut sink);
    }

    // Server must still serve real traffic after the barrage.
    let mut c = Client::connect(&addr).unwrap();
    assert_eq!(c.ping().unwrap(), Status::Ok);
    assert_eq!(c.put(b"post-fuzz", b"alive").unwrap(), Status::Ok);
    assert_eq!(c.get(b"post-fuzz").unwrap().body, b"alive");
    handle.shutdown().unwrap();
}
