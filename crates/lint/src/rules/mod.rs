//! The six rules. Each is a function from a parsed [`crate::SourceFile`]
//! (plus the policy) to diagnostics; `lock_order` and `dead_knob`
//! additionally keep cross-file state and emit in a finalize step.

pub mod dead_knob;
pub mod facade;
pub mod guards;
pub mod lock_order;
pub mod ordering;
pub mod panics;

use crate::config::LintConfig;
use crate::{Diagnostic, SourceFile};

/// Push a finding unless a `lint-allow` pragma suppresses it.
#[allow(clippy::too_many_arguments)] // a diagnostic simply has this many fields
pub(crate) fn push(
    out: &mut Vec<Diagnostic>,
    f: &SourceFile,
    cfg: &LintConfig,
    rule: &'static str,
    line: u32,
    col: u32,
    message: String,
    note: String,
) {
    if f.allowed(rule, line, cfg.head_allow_lines) {
        return;
    }
    out.push(Diagnostic {
        rule,
        file: f.rel.clone(),
        line,
        col,
        message,
        note,
    });
}

/// Path-prefix (or exact) matching used by every allowlist.
pub(crate) fn path_matches(rel: &str, pat: &str) -> bool {
    rel == pat || rel.starts_with(pat)
}
