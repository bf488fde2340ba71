//! `lobster-lint` — workspace-wide static analysis for the LOBSTER
//! engine's hand-maintained concurrency protocols.
//!
//! Six repo-specific rules (see [`rules`]):
//!
//! * **sync-facade** — concurrency-bearing crates import atomics, locks
//!   and `Condvar` via `lobster-sync`, never `std::sync`/`parking_lot`
//!   directly, so `cfg(lobster_loom)` and TSan coverage can't rot.
//! * **ordering-audit** — every non-SeqCst atomic `Ordering` carries an
//!   adjacent `// ordering:` justification comment.
//! * **guard-discipline** — raw paired calls (`lease_extent`/
//!   `unlease_extent`, latch fix/release, pin-gate acquire/release) are
//!   only legal inside the allowlisted RAII wrapper modules.
//! * **no-panic-in-request-path** — `unwrap`/`expect`/`panic!` family
//!   (and, on the serving path, slice indexing) are denied in the
//!   request handlers and the three I/O choke points.
//! * **lock-order** — nested lock acquisitions (plus a one-level call
//!   graph) form an acquisition-order graph; cycles are reported with
//!   the full offending chain — the static complement to the runtime
//!   `LatchLedger`.
//! * **dead-knob** — every `pub` field of the configuration structs is
//!   assigned by some production caller outside its defining file, or
//!   carries a `// knob: <why>` note.
//!
//! Escape hatch: `// lint-allow(rule): reason` on the offending line or
//! the line directly above; `// lint-allow-file(rule): reason` in the
//! file head. A missing reason does not suppress.
//!
//! The engine is `syn`-free by necessity (offline workspace) and by
//! design taste (no rustc plumbing): see [`lexer`].

#![forbid(unsafe_code)]

pub mod config;
pub mod diag;
pub mod lexer;
pub mod rules;

pub use config::LintConfig;
pub use diag::Diagnostic;

use lexer::{Lexed, Tok, TokKind};
use std::path::{Path, PathBuf};

/// A lexed source file plus the derived facts rules share: crate name,
/// `#[cfg(test)]` module line ranges, and escape-hatch resolution.
pub struct SourceFile {
    /// Repo-relative path, forward slashes.
    pub rel: String,
    pub krate: String,
    pub lx: Lexed,
    /// Line ranges (inclusive) covered by `#[cfg(test)] mod … { … }`.
    pub test_ranges: Vec<(u32, u32)>,
}

impl SourceFile {
    pub fn parse(rel: &str, src: &str) -> SourceFile {
        let lx = lexer::lex(src);
        let test_ranges = cfg_test_ranges(&lx.toks);
        SourceFile {
            rel: rel.to_string(),
            krate: config::crate_of(rel).to_string(),
            lx,
            test_ranges,
        }
    }

    /// Is `line` inside a `#[cfg(test)]` module? Rules skip those lines:
    /// test-only code is not part of the loom/TSan production surface,
    /// and its ergonomic `unwrap()`s are the point of tests.
    pub fn in_test_mod(&self, line: u32) -> bool {
        self.test_ranges
            .iter()
            .any(|&(a, b)| a <= line && line <= b)
    }

    /// Does a `lint-allow(rule): reason` pragma suppress `rule` at
    /// `line`? Requires a non-empty reason.
    pub fn allowed(&self, rule: &str, line: u32, head_lines: u32) -> bool {
        self.lx
            .adjacent_comment(line, |t| allow_pragma_matches(t, "lint-allow", rule))
            || self.lx.head_comment(head_lines, |t| {
                allow_pragma_matches(t, "lint-allow-file", rule)
            })
    }
}

/// Parse every `<kind>(<rules>): <reason>` occurrence in a comment and
/// check whether one names `rule` (comma-separated list supported) with
/// a non-empty reason.
fn allow_pragma_matches(text: &str, kind: &str, rule: &str) -> bool {
    let mut rest = text;
    while let Some(pos) = rest.find(kind) {
        let after = &rest[pos + kind.len()..];
        // `lint-allow` is a prefix of `lint-allow-file`; make sure we
        // match the exact pragma kind.
        if let Some(args) = after.strip_prefix('(') {
            if let Some(close) = args.find(')') {
                let names = &args[..close];
                let tail = &args[close + 1..];
                let has_reason = tail
                    .strip_prefix(':')
                    .map(|r| !r.trim().is_empty())
                    .unwrap_or(false);
                if has_reason && names.split(',').any(|n| n.trim() == rule) {
                    return true;
                }
            }
        }
        rest = &rest[pos + kind.len()..];
    }
    false
}

/// Compute the line ranges of `#[cfg(test)] mod name { … }` blocks.
fn cfg_test_ranges(toks: &[Tok]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        // Attribute start?
        if toks[i].is_punct('#') && i + 1 < toks.len() && toks[i + 1].is_punct('[') {
            let (attr_end, is_cfg_test) = scan_attr(toks, i + 1);
            if is_cfg_test {
                // Skip any further attributes (e.g. doc comments are
                // not tokens; `#[allow(...)]`) between cfg(test) and
                // the item.
                let mut j = attr_end;
                while j + 1 < toks.len() && toks[j].is_punct('#') && toks[j + 1].is_punct('[') {
                    let (e, _) = scan_attr(toks, j + 1);
                    j = e;
                }
                // `mod name {`, `pub mod name {` or `pub(crate) mod name {`
                let mut k = j;
                if k < toks.len() && toks[k].is_ident("pub") {
                    k += 1;
                    if k < toks.len() && toks[k].is_punct('(') {
                        while k < toks.len() && !toks[k].is_punct(')') {
                            k += 1;
                        }
                        k += 1;
                    }
                }
                if k + 1 < toks.len() && toks[k].is_ident("mod") {
                    // find the opening brace (or `;` for a file mod —
                    // nothing to exclude then)
                    let mut m = k + 1;
                    while m < toks.len() && !toks[m].is_punct('{') && !toks[m].is_punct(';') {
                        m += 1;
                    }
                    if m < toks.len() && toks[m].is_punct('{') {
                        let start_line = toks[i].line;
                        let mut depth = 0i32;
                        let mut end_line = toks[m].line;
                        while m < toks.len() {
                            if toks[m].is_punct('{') {
                                depth += 1;
                            } else if toks[m].is_punct('}') {
                                depth -= 1;
                                if depth == 0 {
                                    end_line = toks[m].line;
                                    break;
                                }
                            }
                            m += 1;
                        }
                        out.push((start_line, end_line));
                        i = m + 1;
                        continue;
                    }
                }
            }
            i = attr_end;
            continue;
        }
        i += 1;
    }
    out
}

/// Scan an attribute starting at the `[` token index; return (index
/// just past the closing `]`, whether it is a `cfg(...)` naming `test`).
fn scan_attr(toks: &[Tok], open: usize) -> (usize, bool) {
    let mut depth = 0i32;
    let mut i = open;
    let mut saw_cfg = false;
    let mut saw_test = false;
    while i < toks.len() {
        match &toks[i].kind {
            TokKind::Punct('[') => depth += 1,
            TokKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return (i + 1, saw_cfg && saw_test);
                }
            }
            TokKind::Ident => {
                if toks[i].text == "cfg" {
                    saw_cfg = true;
                } else if toks[i].text == "test" {
                    saw_test = true;
                }
            }
            _ => {}
        }
        i += 1;
    }
    (i, false)
}

/// Discover the workspace's lintable files: `crates/*/src/**/*.rs` and
/// the top-level `src/**/*.rs`. Crate `tests/`, `benches/`, `examples/`,
/// `shims/` and the lint fixtures are deliberately out of scope — the
/// rules police the production surface.
pub fn workspace_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    if let Ok(rd) = std::fs::read_dir(&crates_dir) {
        let mut dirs: Vec<_> = rd.flatten().map(|e| e.path()).collect();
        dirs.sort();
        for d in dirs {
            collect_rs(&d.join("src"), &mut out);
        }
    }
    collect_rs(&root.join("src"), &mut out);
    out.sort();
    out
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = rd.flatten().map(|e| e.path()).collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(p);
        }
    }
}

/// Which rules to run (empty filter = all).
pub fn all_rules() -> &'static [&'static str] {
    &[
        "sync-facade",
        "ordering-audit",
        "guard-discipline",
        "no-panic-in-request-path",
        "lock-order",
        "dead-knob",
    ]
}

/// Lint a set of already-parsed files under one config. Returns sorted,
/// escape-hatch-filtered diagnostics.
pub fn lint_files(
    files: &[SourceFile],
    cfg: &LintConfig,
    rule_filter: &[String],
) -> Vec<Diagnostic> {
    let run = |name: &str| rule_filter.is_empty() || rule_filter.iter().any(|r| r == name);
    let mut diags = Vec::new();
    let mut lock = rules::lock_order::Collector::default();
    let mut knobs = rules::dead_knob::Collector::default();
    for f in files {
        if run("sync-facade") {
            rules::facade::check(f, cfg, &mut diags);
        }
        if run("ordering-audit") {
            rules::ordering::check(f, cfg, &mut diags);
        }
        if run("guard-discipline") {
            rules::guards::check(f, cfg, &mut diags);
        }
        if run("no-panic-in-request-path") {
            rules::panics::check(f, cfg, &mut diags);
        }
        if run("lock-order") {
            lock.collect(f, cfg);
        }
        if run("dead-knob") {
            knobs.collect(f, cfg);
        }
    }
    if run("lock-order") {
        lock.finalize(&mut diags);
    }
    if run("dead-knob") {
        knobs.finalize(&mut diags);
    }
    diag::sort(&mut diags);
    diags.dedup();
    diags
}

/// Convenience: lint one path list from disk, repo-relative to `root`.
pub fn lint_paths(
    root: &Path,
    paths: &[PathBuf],
    cfg: &LintConfig,
    rule_filter: &[String],
) -> std::io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    for p in paths {
        let src = std::fs::read_to_string(p)?;
        let rel = p
            .strip_prefix(root)
            .unwrap_or(p)
            .to_string_lossy()
            .replace('\\', "/");
        files.push(SourceFile::parse(&rel, &src));
    }
    Ok(lint_files(&files, cfg, rule_filter))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_pragma_parsing() {
        assert!(allow_pragma_matches(
            "// lint-allow(ordering-audit): counter only",
            "lint-allow",
            "ordering-audit"
        ));
        assert!(allow_pragma_matches(
            "// lint-allow(lock-order, ordering-audit): both",
            "lint-allow",
            "lock-order"
        ));
        // Missing reason does not suppress.
        assert!(!allow_pragma_matches(
            "// lint-allow(ordering-audit):",
            "lint-allow",
            "ordering-audit"
        ));
        assert!(!allow_pragma_matches(
            "// lint-allow(ordering-audit)",
            "lint-allow",
            "ordering-audit"
        ));
        // Wrong rule.
        assert!(!allow_pragma_matches(
            "// lint-allow(sync-facade): x",
            "lint-allow",
            "ordering-audit"
        ));
    }

    #[test]
    fn cfg_test_mod_excluded() {
        let f = SourceFile::parse(
            "crates/x/src/lib.rs",
            "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() {}\n}\nfn c() {}\n",
        );
        assert!(!f.in_test_mod(1));
        assert!(f.in_test_mod(3));
        assert!(f.in_test_mod(4));
        assert!(!f.in_test_mod(6));
        // A test module that shares helpers with a sibling's tests.
        for vis in ["pub", "pub(crate)", "pub(in crate::x)"] {
            let f = SourceFile::parse(
                "crates/x/src/lib.rs",
                &format!("fn a() {{}}\n#[cfg(test)]\n{vis} mod tests {{\n  fn b() {{}}\n}}\nfn c() {{}}\n"),
            );
            assert!(f.in_test_mod(4), "{vis}");
            assert!(!f.in_test_mod(6), "{vis}");
        }
    }
}
