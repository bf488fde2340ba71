//! The repo policy: which crates each rule binds, and where raw
//! primitives are legal. This is data, not code — the fixture tests
//! build their own [`LintConfig`] pointing at fixture files, and the
//! binary uses [`LintConfig::repo_default`].
//!
//! Shrinking an allowlist here is how coverage grows; growing one is a
//! reviewable event.

/// Per-file scope of the `no-panic-in-request-path` rule.
#[derive(Debug, Clone)]
pub struct PanicScope {
    /// Repo-relative path (exact file).
    pub path: String,
    /// Also deny slice/array indexing expressions (`buf[i]`, `&b[..n]`)
    /// in this file. Only the serving path opts in: the request path
    /// must degrade to an error frame, never a worker panic. The
    /// engine-internal choke points keep indexing (page-frame math is
    /// index-heavy and bounded by construction) but still ban the
    /// panic family.
    pub index: bool,
}

/// One guard-discipline rule: a set of raw paired-call method names
/// that are only legal inside `allowed_paths` (the RAII wrapper
/// modules that own the pairing).
#[derive(Debug, Clone)]
pub struct GuardRule {
    /// Human tag used in diagnostics, e.g. `"streaming lease"`.
    pub what: &'static str,
    /// Method names that constitute a raw acquire/release site.
    pub methods: Vec<&'static str>,
    /// If non-empty, the call only counts when the receiver's last
    /// path segment contains one of these substrings (used to keep
    /// generic names like `acquire`/`release` from firing on unrelated
    /// APIs).
    pub receiver_hints: Vec<&'static str>,
    /// Path prefixes (or exact files) where raw calls are legal.
    pub allowed_paths: Vec<String>,
}

/// Full lint policy.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Crate directory names (under `crates/`) that must import
    /// concurrency primitives via `lobster-sync`.
    pub facade_crates: Vec<&'static str>,
    /// Single files (repo-relative) bound by the facade rule inside crates
    /// that are otherwise off it.
    pub facade_files: Vec<&'static str>,
    /// `std::sync::<seg>` path segments the facade rule tolerates even
    /// inside facade crates — primitives the facade deliberately does
    /// not wrap because loom modelling is meaningless for them.
    pub facade_allowed_segments: Vec<&'static str>,
    /// Path prefixes the ordering-audit rule skips.
    pub ordering_exclude: Vec<String>,
    /// Files in scope for `no-panic-in-request-path`.
    pub panic_scopes: Vec<PanicScope>,
    /// Guard-discipline rules.
    pub guard_rules: Vec<GuardRule>,
    /// Path prefixes the lock-order rule skips.
    pub lock_order_exclude: Vec<String>,
    /// Configuration structs whose `pub` fields the dead-knob rule
    /// requires a production caller for.
    pub knob_structs: Vec<&'static str>,
    /// How many leading lines a `lint-allow-file` pragma may appear in.
    pub head_allow_lines: u32,
}

impl LintConfig {
    /// The policy for this repository.
    pub fn repo_default() -> LintConfig {
        LintConfig {
            // The latch/commit/serving kernels — everything whose
            // interleavings the loom shim and the TSan matrix are
            // supposed to cover. storage/vfs/baselines stay off the
            // facade deliberately: devices and baseline stores are
            // exercised as opaque I/O from the kernels' point of view,
            // and the baselines exist to stay dead-simple reference
            // implementations.
            facade_crates: vec![
                "buffer",
                "core",
                "metrics",
                "serve",
                "workloads",
                "wal",
                "btree",
                "extent",
            ],
            // ...except the batch engine: its batch state and worker
            // queue are locks the commit path rests on.
            facade_files: vec!["crates/storage/src/async_io.rs"],
            facade_allowed_segments: vec![
                // mpsc channels carry whole values between threads and
                // have no shared state a model would check;
                // OnceLock/LazyLock are init-once cells with no
                // interesting interleavings under the SC-only shim.
                "mpsc",
                "OnceLock",
                "LazyLock",
                "Weak",
                "PoisonError",
            ],
            ordering_exclude: vec![
                // The facade itself re-exports `Ordering`; its audit
                // ledger is debug-only tooling.
                "crates/sync/".into(),
            ],
            panic_scopes: vec![
                PanicScope {
                    path: "crates/serve/src/server.rs".into(),
                    index: true,
                },
                PanicScope {
                    path: "crates/serve/src/protocol.rs".into(),
                    index: true,
                },
                PanicScope {
                    path: "crates/wal/src/writer.rs".into(),
                    index: false,
                },
                PanicScope {
                    path: "crates/core/src/group_commit.rs".into(),
                    index: false,
                },
                PanicScope {
                    path: "crates/buffer/src/pool.rs".into(),
                    index: false,
                },
                PanicScope {
                    path: "crates/buffer/src/entry.rs".into(),
                    index: false,
                },
                PanicScope {
                    path: "crates/buffer/src/htpool.rs".into(),
                    index: false,
                },
            ],
            guard_rules: vec![
                GuardRule {
                    what: "streaming lease (prevent_evict)",
                    methods: vec!["lease_extent", "try_lease_resident", "unlease_extent"],
                    receiver_hints: vec![],
                    allowed_paths: vec![
                        // The pool implementations...
                        "crates/buffer/src/".into(),
                        // ...and the RAII wrappers: the ranged read's run
                        // guard, which drops leases on every exit path...
                        "crates/core/src/content.rs".into(),
                        // ...and the defragmenter's SourceGuard, which pins
                        // resident relocation sources the same way.
                        "crates/core/src/defrag.rs".into(),
                    ],
                },
                GuardRule {
                    what: "allocator quarantine fence",
                    methods: vec!["quarantine_extent", "release_quarantine"],
                    receiver_hints: vec![],
                    allowed_paths: vec![
                        // The allocator implements the fence ledger.
                        "crates/extent/src/".into(),
                        // The relocation FenceGuard (RAII: releases on drop
                        // unless disarmed into the commit pipeline).
                        "crates/core/src/defrag.rs".into(),
                        // The fence lifecycle's non-RAII endpoints: verify-
                        // on-read quarantine entry, rollback release, and
                        // the durability-frontier release+free in retire.
                        "crates/core/src/db.rs".into(),
                        "crates/core/src/txn.rs".into(),
                        "crates/core/src/group_commit.rs".into(),
                    ],
                },
                GuardRule {
                    what: "pin-gate / worker-slot budget",
                    methods: vec!["acquire", "release"],
                    receiver_hints: vec!["gate", "budget", "slots"],
                    allowed_paths: vec![
                        "crates/buffer/src/stream.rs".into(),
                        "crates/core/src/content.rs".into(),
                        "crates/core/src/group_commit.rs".into(),
                        "crates/serve/src/server.rs".into(),
                    ],
                },
                GuardRule {
                    what: "versioned latch",
                    methods: vec!["fix_shared", "fix_exclusive", "release_shared"],
                    receiver_hints: vec![],
                    allowed_paths: vec!["crates/buffer/src/".into()],
                },
                GuardRule {
                    // The raw transitions under those: `entry.rs` defines
                    // them, `pool.rs` pairs them.
                    what: "page-table entry transition",
                    methods: vec![
                        "try_claim",
                        "try_lock",
                        "try_share",
                        "unshare",
                        "unlock",
                        "downgrade",
                        "evict",
                    ],
                    receiver_hints: vec!["entry"],
                    allowed_paths: vec![
                        "crates/buffer/src/entry.rs".into(),
                        "crates/buffer/src/pool.rs".into(),
                    ],
                },
            ],
            lock_order_exclude: vec!["crates/sync/".into()],
            knob_structs: vec!["Config", "PoolConfig", "ServeConfig", "DefragConfig"],
            head_allow_lines: 30,
        }
    }

    /// A permissive config that binds every rule to the given file —
    /// what the fixture tests and the `--rule FILE` CLI mode use.
    pub fn for_explicit_file(path: &str) -> LintConfig {
        let mut cfg = LintConfig::repo_default();
        cfg.facade_crates = vec!["*"]; // facade rule applies to explicit files regardless
        cfg.ordering_exclude = vec![];
        cfg.lock_order_exclude = vec![];
        cfg.panic_scopes = vec![PanicScope {
            path: path.to_string(),
            index: true,
        }];
        for g in &mut cfg.guard_rules {
            g.allowed_paths = vec![];
        }
        cfg
    }
}

/// `crates/<name>/...` → `<name>`; the top-level `src/` facade crate
/// maps to `"lobster"`.
pub fn crate_of(rel_path: &str) -> &str {
    if let Some(rest) = rel_path.strip_prefix("crates/") {
        rest.split('/').next().unwrap_or("lobster")
    } else if let Some(rest) = rel_path.strip_prefix("shims/") {
        rest.split('/').next().unwrap_or("lobster")
    } else {
        "lobster"
    }
}
