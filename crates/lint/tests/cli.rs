//! End-to-end tests of the `lobster-lint` binary against the known-bad
//! fixture corpus. Each fixture seeds exactly the violations one rule
//! hunts; `allowed.rs` seeds all of them and silences each with the
//! escape hatch. Tests run with the crate root as cwd, so fixture paths
//! are relative and diagnostics are byte-stable.

use std::process::Command;

struct Run {
    code: i32,
    stdout: String,
    stderr: String,
}

fn lint(args: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_lobster-lint"))
        .args(args)
        .output()
        .expect("spawn lobster-lint");
    Run {
        code: out.status.code().unwrap_or(-1),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

#[test]
fn bad_facade_fixture_fails() {
    let r = lint(&["--rule", "sync-facade", "tests/fixtures/bad_facade.rs"]);
    assert_eq!(r.code, 1, "stdout:\n{}", r.stdout);
    assert!(r.stderr.contains("4 finding(s)"), "stderr: {}", r.stderr);
    assert!(r
        .stdout
        .contains("tests/fixtures/bad_facade.rs:5:5 [sync-facade] direct `std::sync` use"));
    assert!(r.stdout.contains(":6:5 [sync-facade]"));
    assert!(r.stdout.contains("direct `parking_lot` use"));
    assert!(r.stdout.contains("direct `loom` use"));
    // The tolerated segment (`std::sync::mpsc`) must stay silent.
    assert!(
        !r.stdout.contains(":8:"),
        "mpsc line flagged:\n{}",
        r.stdout
    );
}

#[test]
fn bad_ordering_fixture_fails() {
    let r = lint(&["--rule", "ordering-audit", "tests/fixtures/bad_ordering.rs"]);
    assert_eq!(r.code, 1, "stdout:\n{}", r.stdout);
    assert!(r.stderr.contains("1 finding(s)"), "stderr: {}", r.stderr);
    assert!(r.stdout.contains(
        "tests/fixtures/bad_ordering.rs:7:30 [ordering-audit] non-SeqCst `Ordering::Relaxed` \
         without a `// ordering:` justification"
    ));
    // The annotated load must stay silent.
    assert!(
        !r.stdout.contains(":12:"),
        "annotated site flagged:\n{}",
        r.stdout
    );
}

#[test]
fn bad_guard_fixture_fails() {
    let r = lint(&["--rule", "guard-discipline", "tests/fixtures/bad_guard.rs"]);
    assert_eq!(r.code, 1, "stdout:\n{}", r.stdout);
    assert!(r.stderr.contains("3 finding(s)"), "stderr: {}", r.stderr);
    assert!(r
        .stdout
        .contains("raw streaming lease (prevent_evict) call `lease_extent`"));
    assert!(r
        .stdout
        .contains("raw pin-gate / worker-slot budget call `acquire`"));
    assert!(r.stdout.contains("raw versioned latch call `fix_shared`"));
}

#[test]
fn bad_panic_fixture_fails() {
    let r = lint(&[
        "--rule",
        "no-panic-in-request-path",
        "tests/fixtures/bad_panic.rs",
    ]);
    assert_eq!(r.code, 1, "stdout:\n{}", r.stdout);
    assert!(r.stderr.contains("3 finding(s)"), "stderr: {}", r.stderr);
    assert!(r
        .stdout
        .contains("slice/array indexing on the serving path"));
    assert!(r
        .stdout
        .contains("`panic!` on the request/choke-point path"));
    assert!(r
        .stdout
        .contains("`.unwrap()` on the request/choke-point path"));
}

#[test]
fn bad_lock_order_fixture_reports_full_cycle_chain() {
    let r = lint(&["--rule", "lock-order", "tests/fixtures/bad_lock_order.rs"]);
    assert_eq!(r.code, 1, "stdout:\n{}", r.stdout);
    assert!(r.stderr.contains("1 finding(s)"), "stderr: {}", r.stderr);
    // The cycle itself…
    assert!(r
        .stdout
        .contains("[lock-order] lock-order cycle: lobster::a -> lobster::b -> lobster::a"));
    // …and both witnesses of the inversion, with their functions.
    assert!(r
        .stdout
        .contains("lobster::a -> lobster::b at tests/fixtures/bad_lock_order.rs:7 in fn forward"));
    assert!(r.stdout.contains(
        "lobster::b -> lobster::a at tests/fixtures/bad_lock_order.rs:14 in fn backward"
    ));
}

fn lint_bad_knob() -> Run {
    lint(&[
        "--rule",
        "dead-knob",
        "tests/fixtures/bad_knob.rs",
        "tests/fixtures/bad_knob_user.rs",
    ])
}

/// The shape of the lock-wait knob `Config` used to carry: set by its own
/// `Default` and by a test, read by a production caller, assigned by none.
#[test]
fn bad_knob_fixture_fails() {
    let r = lint_bad_knob();
    assert_eq!(r.code, 1, "stdout:\n{}", r.stdout);
    assert!(r.stderr.contains("2 finding(s)"), "stderr: {}", r.stderr);
    assert!(r.stdout.contains(
        "tests/fixtures/bad_knob.rs:11:9 [dead-knob] `Config::lock_wait` is never assigned \
         outside tests/fixtures/bad_knob.rs"
    ));
}

/// A `// knob: <why>` note on a field nobody sets excuses nothing.
#[test]
fn a_knob_note_does_not_excuse_a_dead_knob() {
    let r = lint_bad_knob();
    assert!(r.stdout.contains(
        "tests/fixtures/bad_knob.rs:9:9 [dead-knob] `Config::page_size` is never assigned \
         outside tests/fixtures/bad_knob.rs"
    ));
}

#[test]
fn escape_hatch_silences_every_rule() {
    let r = lint(&["tests/fixtures/allowed.rs"]);
    assert_eq!(r.code, 0, "stdout:\n{}\nstderr:\n{}", r.stdout, r.stderr);
    assert!(r.stderr.contains("clean"), "stderr: {}", r.stderr);
    assert!(r.stdout.is_empty(), "stdout: {}", r.stdout);
}

#[test]
fn json_output_snapshot() {
    let r = lint(&[
        "--rule",
        "ordering-audit",
        "--json",
        "tests/fixtures/bad_ordering.rs",
    ]);
    assert_eq!(r.code, 1);
    let expected = r#"[
  {"rule":"ordering-audit","file":"tests/fixtures/bad_ordering.rs","line":7,"col":30,"message":"non-SeqCst `Ordering::Relaxed` without a `// ordering:` justification","note":"state what this ordering may and may not observe, e.g. `// ordering: counter; nothing synchronizes on this value`"}
]
"#;
    assert_eq!(r.stdout, expected);
}

#[test]
fn json_empty_when_clean() {
    let r = lint(&["--json", "tests/fixtures/allowed.rs"]);
    assert_eq!(r.code, 0, "stdout:\n{}", r.stdout);
    assert_eq!(r.stdout.trim(), "[]");
}

#[test]
fn unknown_rule_is_usage_error() {
    let r = lint(&["--rule", "no-such-rule", "tests/fixtures/allowed.rs"]);
    assert_eq!(r.code, 2);
    assert!(r.stderr.contains("unknown rule"));
}

#[test]
fn no_files_and_no_workspace_is_usage_error() {
    let r = lint(&[]);
    assert_eq!(r.code, 2);
    assert!(r.stderr.contains("usage:"));
}

/// The acceptance gate CI runs: the tree itself must lint clean. Walks
/// up from the crate dir to the workspace root, exactly like `cargo
/// lint` does.
#[test]
fn workspace_lints_clean() {
    let r = lint(&["--workspace"]);
    assert_eq!(
        r.code, 0,
        "workspace not lint-clean:\n{}\n{}",
        r.stdout, r.stderr
    );
    assert!(r.stderr.contains("clean"), "stderr: {}", r.stderr);
}
