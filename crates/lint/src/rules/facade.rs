//! **sync-facade**: concurrency-bearing crates must reach atomics,
//! locks, `Condvar` and threads through `lobster-sync`, never
//! `std::sync`, `parking_lot` or `loom` directly. The facade is what
//! makes one source tree compile both as zero-cost production code and
//! as a loom model under `cfg(lobster_loom)` — a direct import is a
//! line the model checker and the TSan matrix silently stop seeing.
//!
//! Matches *any* occurrence of the forbidden paths (use declarations
//! and inline qualified paths alike). `std::sync` segments the facade
//! deliberately does not wrap (`mpsc`, `OnceLock`, …) are tolerated via
//! [`LintConfig::facade_allowed_segments`].

use super::push;
use crate::config::LintConfig;
use crate::lexer::is_path_sep;
use crate::{Diagnostic, SourceFile};

const RULE: &str = "sync-facade";

pub fn check(f: &SourceFile, cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
    let bound = cfg.facade_crates.contains(&"*")
        || cfg.facade_crates.iter().any(|c| *c == f.krate)
        || cfg.facade_files.iter().any(|p| *p == f.rel);
    if !bound {
        return;
    }
    let toks = &f.lx.toks;
    let mut last_line = 0u32;
    for i in 0..toks.len() {
        if f.in_test_mod(toks[i].line) {
            continue;
        }
        // `std :: sync`
        if toks[i].is_ident("std")
            && is_path_sep(toks, i + 1)
            && toks.get(i + 3).map(|t| t.is_ident("sync")) == Some(true)
        {
            // Allowed sub-segment? Look at the segment after `sync::`.
            if is_path_sep(toks, i + 4) {
                if let Some(seg) = toks.get(i + 6) {
                    if cfg.facade_allowed_segments.iter().any(|s| seg.is_ident(s)) {
                        continue;
                    }
                }
            }
            if toks[i].line == last_line {
                continue;
            }
            last_line = toks[i].line;
            push(
                out,
                f,
                cfg,
                RULE,
                toks[i].line,
                toks[i].col,
                "direct `std::sync` use in a facade-bound crate".into(),
                "import via `lobster_sync` (atomics live in `lobster_sync::atomic`) so \
                 cfg(lobster_loom) and the TSan matrix keep covering this site"
                    .into(),
            );
            continue;
        }
        // `parking_lot ::` or `loom ::`
        if (toks[i].is_ident("parking_lot") || toks[i].is_ident("loom")) && is_path_sep(toks, i + 1)
        {
            if toks[i].line == last_line {
                continue;
            }
            last_line = toks[i].line;
            push(
                out,
                f,
                cfg,
                RULE,
                toks[i].line,
                toks[i].col,
                format!("direct `{}` use in a facade-bound crate", toks[i].text),
                "import the lock/condvar types from `lobster_sync` instead".into(),
            );
        }
    }
}
