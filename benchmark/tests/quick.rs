//! Runs every workload in its quick shape (2 s window, tiny data; never
//! used for recorded numbers), untraced and traced, and checks the output
//! against `BENCHMARK.json`: every end-to-end metric and every per-layer
//! metric is emitted exactly once, with the declared unit and a finite
//! value, and nothing undeclared is emitted.

use lobster_benchmark::json::{self, Value};
use lobster_benchmark::run::{self, Shape};
use lobster_benchmark::workload::WORKLOADS;
use lobster_benchmark::DEFAULT_SECONDS;

fn spec() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn declared(spec: &Value, section: &str) -> Vec<(String, String)> {
    spec.get(section)
        .expect(section)
        .as_array()
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn check_run(workload: &str, trace: bool, expected: &[(String, String)]) {
    let spec = lobster_benchmark::workload::find(workload).expect("known workload");
    let shape = Shape {
        seconds: 2.0,
        warmup: 0.3,
        trace,
        quick: true,
    };
    let report = run::run(spec, 11, shape).unwrap_or_else(|e| panic!("{workload}: {e}"));
    // Wrong bytes, errors and lost acknowledged writes are never
    // tolerated. Operations refused after every retry are, up to 1 %: an
    // unoptimized build on a busy box can hold a key's lock longer than
    // the retry pauses add up to.
    assert!(
        report.failed == report.refused && report.commit_errors == 0,
        "{workload} trace={trace}: failed={} refused={} commit_errors={} notes={:?}",
        report.failed,
        report.refused,
        report.commit_errors,
        report.notes
    );
    assert!(
        report.refused * 100 <= report.attempted,
        "{workload} trace={trace}: {} of {} operations refused",
        report.refused,
        report.attempted
    );
    assert!(report.attempted >= 1);
    for (name, unit) in expected {
        let hits: Vec<_> = report.metrics.iter().filter(|m| &m.name == name).collect();
        assert_eq!(
            hits.len(),
            1,
            "{workload} trace={trace}: {name} emitted {} times",
            hits.len()
        );
        assert!(
            hits[0].value.is_finite(),
            "{workload}: {name} = {}",
            hits[0].value
        );
        assert_eq!(hits[0].unit, unit, "{workload}: unit of {name}");
    }
    for m in &report.metrics {
        assert!(
            expected.iter().any(|(n, _)| n == &m.name),
            "{workload} trace={trace}: {} is not declared in BENCHMARK.json",
            m.name
        );
    }
    if !trace {
        let by_name = run::by_name(&report);
        for positive in [
            "ops_per_s",
            "read_p50_us",
            "write_p50_us",
            "setup_s",
            "recovery_ms",
        ] {
            assert!(
                by_name[positive].value > 0.0,
                "{workload}: {positive} is zero"
            );
        }
    }
}

#[test]
fn manifest_matches_the_code() {
    let spec = spec();
    let names: Vec<&str> = spec
        .get("workloads")
        .unwrap()
        .as_array()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(names, WORKLOADS.map(|w| w.name));
    for w in WORKLOADS {
        let why = spec
            .get("workloads")
            .unwrap()
            .as_array()
            .iter()
            .find(|x| x.get("name").and_then(Value::as_str) == Some(w.name))
            .and_then(|x| x.get("why"))
            .and_then(Value::as_str)
            .unwrap();
        assert_eq!(why, w.why, "reason of {}", w.name);
    }
    assert_eq!(
        spec.get("run_seconds").and_then(Value::as_f64),
        Some(DEFAULT_SECONDS)
    );
    let e2e = declared(&spec, "end_to_end");
    assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    let max_bound = |pred: &dyn Fn(&str) -> bool| {
        spec.get("end_to_end")
            .unwrap()
            .as_array()
            .iter()
            .filter(|m| pred(m.get("name").and_then(Value::as_str).unwrap()))
            .map(|m| m.get("bound").and_then(Value::as_f64).unwrap())
            .fold(0.0, f64::max)
    };
    assert!(max_bound(&|_| true) <= 0.25);
    assert!(
        max_bound(&|n| n == "setup_s") >= max_bound(&|n| n != "setup_s"),
        "setup_s carries the largest bound"
    );
}

/// The span recorder is process-wide, and four workloads at once would
/// measure each other: one workload at a time.
static ONE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn check_workload(name: &str) {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let spec = spec();
    check_run(name, false, &declared(&spec, "end_to_end"));
    check_run(name, true, &declared(&spec, "per_layer"));
}

#[test]
fn serve_mix_4k_quick() {
    check_workload("serve_mix_4k");
}

#[test]
fn lib_mix_100k_quick() {
    check_workload("lib_mix_100k");
}

#[test]
fn lib_ingest_1m_quick() {
    check_workload("lib_ingest_1m");
}

#[test]
fn lib_cold_1m_quick() {
    check_workload("lib_cold_1m");
}
