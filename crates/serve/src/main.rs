//! The `lobster-serve` binary: boot a (sharded) LOBSTER engine and serve
//! it over TCP.
//!
//! ```text
//! lobster-serve [--addr HOST:PORT] [--shards N] [--workers N]
//!               [--data DIR]        persist to DIR/{data,wal}-sK.lob
//!               [--capacity-mb MB]  per-shard data capacity (default 1024)
//!               [--pool-mb MB]      per-shard buffer pool (default 256)
//!               [--max-conns N] [--chunk-kb N] [--gate-mb N]
//!               [--no-defrag]       disable background maintenance
//!               [--defrag-interval-ms N]
//! ```
//!
//! Without `--data` the engine runs on in-memory devices (benchmarks,
//! smoke tests). A background defragmenter + scrubber runs per shard
//! unless `--no-defrag` is given. SIGTERM or ctrl-c triggers a graceful
//! drain: the maintenance loop quiesces first (its in-flight relocation
//! batch commits or aborts, never half-lands), then in-flight requests
//! finish, the group committers quiesce (surfacing any sticky commit
//! errors), and the process exits 0.

use lobster_buffer::AliasConfig;
use lobster_core::{
    Config, DefragConfig, Defragmenter, PoolVariant, RelationKind, ShardDevices, ShardedDatabase,
    ShardedRelation,
};
use lobster_serve::{ServeConfig, Server};
use lobster_storage::{Device, FileDevice, MemDevice};
use lobster_sync::Arc;
// lint-allow(sync-facade): a signal-handler static needs const init and
// async-signal-safety; the loom shim's atomics are neither, and nothing
// model-checks the process signal plumbing.
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Set by the signal handler; polled by the main loop. `libc::signal`
/// handlers may only do async-signal-safe work — a single atomic store.
static SIG_SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: libc::c_int) {
    SIG_SHUTDOWN.store(true, Ordering::SeqCst);
}

struct Args {
    addr: String,
    shards: usize,
    workers: usize,
    data: Option<String>,
    capacity_mb: u64,
    pool_mb: u64,
    max_conns: usize,
    chunk_kb: usize,
    gate_mb: u64,
    defrag: bool,
    defrag_interval_ms: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7878".to_string(),
        shards: 4,
        workers: 4,
        data: None,
        capacity_mb: 1024,
        pool_mb: 256,
        max_conns: 256,
        chunk_kb: 256,
        gate_mb: 0, // 0 = derive from pool size
        defrag: true,
        defrag_interval_ms: 200,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--addr" => args.addr = val("--addr")?,
            "--shards" => args.shards = val("--shards")?.parse().map_err(|e| format!("{e}"))?,
            "--workers" => args.workers = val("--workers")?.parse().map_err(|e| format!("{e}"))?,
            "--data" => args.data = Some(val("--data")?),
            "--capacity-mb" => {
                args.capacity_mb = val("--capacity-mb")?.parse().map_err(|e| format!("{e}"))?
            }
            "--pool-mb" => args.pool_mb = val("--pool-mb")?.parse().map_err(|e| format!("{e}"))?,
            "--max-conns" => {
                args.max_conns = val("--max-conns")?.parse().map_err(|e| format!("{e}"))?
            }
            "--chunk-kb" => {
                args.chunk_kb = val("--chunk-kb")?.parse().map_err(|e| format!("{e}"))?
            }
            "--gate-mb" => args.gate_mb = val("--gate-mb")?.parse().map_err(|e| format!("{e}"))?,
            "--defrag" => args.defrag = true,
            "--no-defrag" => args.defrag = false,
            "--defrag-interval-ms" => {
                args.defrag_interval_ms = val("--defrag-interval-ms")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--help" | "-h" => {
                return Err("usage: lobster-serve [--addr HOST:PORT] [--shards N] \
                     [--workers N] [--data DIR] [--capacity-mb MB] [--pool-mb MB] \
                     [--max-conns N] [--chunk-kb N] [--gate-mb N] [--no-defrag] \
                     [--defrag-interval-ms N]"
                    .to_string())
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(args)
}

fn engine_config(a: &Args) -> Config {
    Config {
        pool_frames: (a.pool_mb << 20) / 4096,
        pool_variant: PoolVariant::Vm {
            alias: Some(AliasConfig {
                workers: a.workers.max(1),
                worker_local_bytes: 16 << 20,
                shared_bytes: 64 << 20,
            }),
        },
        workers: a.workers.max(1),
        commit_wait: false,
        ..Config::default()
    }
}

fn open_engine(a: &Args) -> lobster_types::Result<(Arc<ShardedDatabase>, ShardedRelation)> {
    let cfg = engine_config(a);
    let cap = a.capacity_mb << 20;
    let mut parts = Vec::new();
    let mut existing = false;
    for s in 0..a.shards.max(1) {
        let (data, wal): (Arc<dyn Device>, Arc<dyn Device>) = match &a.data {
            Some(dir) => {
                std::fs::create_dir_all(dir).map_err(lobster_types::Error::Io)?;
                let dpath = std::path::PathBuf::from(format!("{dir}/data-s{s}.lob"));
                let wpath = std::path::PathBuf::from(format!("{dir}/wal-s{s}.lob"));
                if dpath.exists() {
                    existing = true;
                    (
                        Arc::new(FileDevice::open(&dpath)?),
                        Arc::new(FileDevice::open(&wpath)?),
                    )
                } else {
                    (
                        Arc::new(FileDevice::create(&dpath, cap)?),
                        Arc::new(FileDevice::create(&wpath, cap / 4)?),
                    )
                }
            }
            None => (
                Arc::new(MemDevice::new(cap as usize)),
                Arc::new(MemDevice::new((cap / 4) as usize)),
            ),
        };
        parts.push(ShardDevices { data, wal });
    }
    let sdb = if existing {
        let (sdb, reports) = ShardedDatabase::open(parts, cfg)?;
        for (s, r) in reports.iter().enumerate() {
            eprintln!("lobster-serve: shard {s} recovered: {r:?}");
        }
        sdb
    } else {
        ShardedDatabase::create(parts, cfg)?
    };
    let rel = match sdb.relation("blobs") {
        Some(rel) => rel,
        None => sdb.create_relation("blobs", RelationKind::Blob)?,
    };
    Ok((sdb, rel))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };

    let (sdb, rel) = match open_engine(&args) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("lobster-serve: failed to open engine: {e}");
            std::process::exit(1);
        }
    };

    let serve_cfg = ServeConfig {
        addr: args.addr.clone(),
        max_conns: args.max_conns,
        chunk_bytes: args.chunk_kb << 10,
        gate_budget: if args.gate_mb > 0 {
            args.gate_mb << 20
        } else {
            // Mirror the committer's pin-budget rule: a quarter of the
            // (aggregate) pool may be lease-pinned by streams.
            (args.pool_mb << 20) * args.shards.max(1) as u64 / 4
        },
    };

    let handle = match Server::start(Arc::clone(&sdb), rel, serve_cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("lobster-serve: failed to start: {e}");
            std::process::exit(1);
        }
    };
    println!("lobster-serve: listening on {}", handle.local_addr());

    // Background maintenance: one defragmenter thread round-robins the
    // shards, coalescing free space, relocating shattered cold blobs and
    // scrubbing content hashes out-of-band.
    let maintenance = args.defrag.then(|| {
        Defragmenter::start(
            sdb.shards().to_vec(),
            DefragConfig {
                interval: Duration::from_millis(args.defrag_interval_ms.max(1)),
                ..DefragConfig::default()
            },
        )
    });

    // SAFETY-adjacent note (no unsafe here, the shim wraps the call): the
    // handler performs one atomic store, which is async-signal-safe.
    // SAFETY: installing a handler that only stores an atomic.
    unsafe {
        libc::signal(libc::SIGTERM, on_signal as *const () as libc::sighandler_t);
        libc::signal(libc::SIGINT, on_signal as *const () as libc::sighandler_t);
    }

    while !SIG_SHUTDOWN.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(100));
    }
    eprintln!(
        "lobster-serve: draining ({} connections)",
        handle.active_connections()
    );
    // Quiesce maintenance before the serve drain: stop() joins the
    // defragmenter thread, so an in-flight relocation batch finishes its
    // atomic swap (or aborts) before the committers are drained below.
    if let Some(d) = maintenance {
        d.pause();
        d.stop();
        let m = sdb.metrics().snapshot();
        eprintln!(
            "lobster-serve: maintenance quiesced ({} relocations, {} blobs scrubbed)",
            m.defrag_relocations, m.scrub_blobs
        );
    }
    match handle.shutdown() {
        Ok(()) => {
            let m = sdb.metrics().snapshot();
            eprintln!(
                "lobster-serve: clean shutdown ({} requests, {} bytes streamed)",
                m.serve_requests, m.serve_bytes_streamed
            );
        }
        Err(e) => {
            eprintln!("lobster-serve: shutdown error: {e}");
            std::process::exit(1);
        }
    }
}
