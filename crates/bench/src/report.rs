//! Machine-readable bench reports: `BENCH_<name>.json` emission.
//!
//! Every suite bench fills a [`Report`] with [`Entry`] rows alongside its
//! human-readable table. A report serializes to a versioned JSON file.
//! Schema v1:
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "bench": "fig9",
//!   "title": "...", "paper_ref": "...",
//!   "git_rev": "abc123...",
//!   "env": { "scale": "0.02", "throttled_devices": "true" },
//!   "entries": [{
//!     "system": "Our", "metric": "throughput", "unit": "ops/s",
//!     "value": 1234.5, "higher_is_better": true,
//!     "params": { "bucket": "1" },
//!     "latency": { "op": { "count": ..., "mean_ns": ..., "p50_ns": ...,
//!                          "p95_ns": ..., "p99_ns": ..., "max_ns": ... } },
//!     "counters": { "pages_read": 42, ... }   // non-zero deltas only
//!   }]
//! }
//! ```

use crate::json::Json;
use lobster_metrics::{LatencySummary, Snapshot};
use std::path::Path;

pub const SCHEMA_VERSION: u64 = 1;

/// One measured row: a value for a (system, metric, params) triple, with
/// optional latency digests and counter deltas attached.
#[derive(Clone, Debug)]
pub struct Entry {
    pub system: String,
    pub metric: String,
    pub unit: String,
    pub value: f64,
    pub higher_is_better: bool,
    pub params: Vec<(String, String)>,
    /// Named latency digests: `"op"` is harness-measured per-operation
    /// latency; `"engine.*"` are the engine's internal histograms.
    pub latency: Vec<(String, LatencySummary)>,
    /// Counter delta over the measured window.
    pub counters: Option<Snapshot>,
}

impl Entry {
    pub fn new(
        system: impl Into<String>,
        metric: impl Into<String>,
        unit: impl Into<String>,
        value: f64,
        higher_is_better: bool,
    ) -> Entry {
        Entry {
            system: system.into(),
            metric: metric.into(),
            unit: unit.into(),
            value,
            higher_is_better,
            params: Vec::new(),
            latency: Vec::new(),
            counters: None,
        }
    }

    /// The headline metric: operations (or txns/files/...) per second.
    pub fn throughput(system: impl Into<String>, ops_per_s: f64) -> Entry {
        Entry::new(system, "throughput", "ops/s", ops_per_s, true)
    }

    pub fn param(mut self, key: impl Into<String>, value: impl ToString) -> Entry {
        self.params.push((key.into(), value.to_string()));
        self
    }

    pub fn latency(mut self, name: impl Into<String>, summary: LatencySummary) -> Entry {
        if !summary.is_empty() {
            self.latency.push((name.into(), summary));
        }
        self
    }

    /// Attach every non-empty engine histogram under `engine.<name>`.
    pub fn engine_latencies(mut self, named: &[(&'static str, LatencySummary)]) -> Entry {
        for (name, summary) in named {
            self.latency.push((format!("engine.{name}"), *summary));
        }
        self
    }

    pub fn counters(mut self, delta: Snapshot) -> Entry {
        self.counters = Some(delta);
        self
    }
}

/// A full bench run: metadata plus entries, serializable to JSON.
#[derive(Clone, Debug)]
pub struct Report {
    pub name: String,
    pub title: String,
    pub paper_ref: String,
    pub env: Vec<(String, String)>,
    pub entries: Vec<Entry>,
}

impl Report {
    pub fn new(name: &str, title: &str, paper_ref: &str) -> Report {
        Report {
            name: name.into(),
            title: title.into(),
            paper_ref: paper_ref.into(),
            env: crate::env().params(),
            entries: Vec::new(),
        }
    }

    pub fn push(&mut self, entry: Entry) {
        self.entries.push(entry);
    }

    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema_version".into(), Json::u64(SCHEMA_VERSION)),
            ("bench".into(), Json::str(&self.name)),
            ("title".into(), Json::str(&self.title)),
            ("paper_ref".into(), Json::str(&self.paper_ref)),
            ("git_rev".into(), Json::str(git_rev())),
            (
                "env".into(),
                Json::Obj(
                    self.env
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::str(v)))
                        .collect(),
                ),
            ),
            (
                "entries".into(),
                Json::Arr(self.entries.iter().map(entry_to_json).collect()),
            ),
        ])
    }

    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        std::fs::write(path, self.to_json().to_string_pretty())
    }
}

fn entry_to_json(e: &Entry) -> Json {
    let mut pairs = vec![
        ("system".into(), Json::str(&e.system)),
        ("metric".into(), Json::str(&e.metric)),
        ("unit".into(), Json::str(&e.unit)),
        ("value".into(), Json::num(e.value)),
        ("higher_is_better".into(), Json::Bool(e.higher_is_better)),
        (
            "params".into(),
            Json::Obj(
                e.params
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::str(v)))
                    .collect(),
            ),
        ),
    ];
    if !e.latency.is_empty() {
        pairs.push((
            "latency".into(),
            Json::Obj(
                e.latency
                    .iter()
                    .map(|(name, s)| (name.clone(), summary_to_json(s)))
                    .collect(),
            ),
        ));
    }
    if let Some(c) = &e.counters {
        pairs.push((
            "counters".into(),
            Json::Obj(
                c.fields()
                    .into_iter()
                    .filter(|(_, v)| *v != 0)
                    .map(|(k, v)| (k.to_string(), Json::u64(v)))
                    .collect(),
            ),
        ));
    }
    Json::Obj(pairs)
}

fn summary_to_json(s: &LatencySummary) -> Json {
    Json::Obj(vec![
        ("count".into(), Json::u64(s.count)),
        ("mean_ns".into(), Json::u64(s.mean_ns)),
        ("p50_ns".into(), Json::u64(s.p50_ns)),
        ("p95_ns".into(), Json::u64(s.p95_ns)),
        ("p99_ns".into(), Json::u64(s.p99_ns)),
        ("max_ns".into(), Json::u64(s.max_ns)),
    ])
}

/// Current commit: `GITHUB_SHA` in CI, `git rev-parse HEAD` locally,
/// `"unknown"` outside a work tree.
pub fn git_rev() -> String {
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        if !sha.is_empty() {
            return sha;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_entry_report_writes_golden_json() {
        let summary = LatencySummary {
            count: 3,
            mean_ns: 1500,
            p50_ns: 1000,
            p95_ns: 2500,
            p99_ns: 2500,
            max_ns: 2500,
        };
        let report = Report {
            name: "figX".into(),
            title: "t".into(),
            paper_ref: "p".into(),
            env: vec![("scale".into(), "0.02".into())],
            entries: vec![Entry::throughput("Our \"hot\"\n", f64::NAN)
                .param("payload", "120B")
                .param("bucket", 1)
                .latency("op", summary)
                .counters(Snapshot {
                    pages_read: 42,
                    ..Snapshot::default()
                })],
        };
        let golden = r#"{
  "schema_version": 1,
  "bench": "figX",
  "title": "t",
  "paper_ref": "p",
  "git_rev": "REV",
  "env": {
    "scale": "0.02"
  },
  "entries": [
    {
      "system": "Our \"hot\"\n",
      "metric": "throughput",
      "unit": "ops/s",
      "value": null,
      "higher_is_better": true,
      "params": {
        "payload": "120B",
        "bucket": "1"
      },
      "latency": {
        "op": {
          "count": 3,
          "mean_ns": 1500,
          "p50_ns": 1000,
          "p95_ns": 2500,
          "p99_ns": 2500,
          "max_ns": 2500
        }
      },
      "counters": {
        "pages_read": 42
      }
    }
  ]
}
"#;
        assert_eq!(
            report.to_json().to_string_pretty(),
            golden.replace("REV", &git_rev())
        );
    }
}
