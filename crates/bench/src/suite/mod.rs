//! The bench suite as a library: every `benches/*.rs` target's body lives
//! here as a `run(&mut Report)` function, so the same code serves three
//! callers — `cargo bench` (thin wrappers), the `lobster-bench` binary
//! (subset runs + `BENCH_*.json` emission), and CI's regression gate.

use crate::Report;

pub mod ablation_latching;
pub mod ablation_tail_extent;
pub mod ablation_tier_formula;
pub mod aging;
pub mod fig10_pool_compare;
pub mod fig11_extent_reuse;
pub mod fig5_small_payload;
pub mod fig6_blob_logging;
pub mod fig7_metadata;
pub mod fig8_hot_read;
pub mod fig9_cold_read;
pub mod micro_primitives;
pub mod table1_survey;
pub mod table2_shared_area;
pub mod table3_indexing;
pub mod table4_git_clone;

/// One registered bench: canonical short name (`fig9`), the cargo bench
/// target it also runs as, and its entry point.
pub struct BenchSpec {
    pub name: &'static str,
    pub target: &'static str,
    pub title: &'static str,
    pub paper_ref: &'static str,
    run: fn(&mut Report),
}

static SPECS: &[BenchSpec] = &[
    BenchSpec {
        name: "table1",
        target: "table1_survey",
        title: "Table I — 10 MB BLOB insert: write amplification survey",
        paper_ref: "§II Table I",
        run: table1_survey::run,
    },
    BenchSpec {
        name: "fig5",
        target: "fig5_small_payload",
        title: "Figure 5 — YCSB, 120 B payloads, 50% reads",
        paper_ref: "§V-B Figure 5",
        run: fig5_small_payload::run,
    },
    BenchSpec {
        name: "fig6",
        target: "fig6_blob_logging",
        title: "Figure 6 — YCSB with BLOB payloads (logging strategies)",
        paper_ref: "§V-B Figure 6",
        run: fig6_blob_logging::run,
    },
    BenchSpec {
        name: "fig7",
        target: "fig7_metadata",
        title: "Figure 7 — metadata operations (stat vs Blob State scan)",
        paper_ref: "§V-C Figure 7",
        run: fig7_metadata::run,
    },
    BenchSpec {
        name: "fig8",
        target: "fig8_hot_read",
        title: "Figure 8 — Wikipedia reads, hot cache (view-weighted)",
        paper_ref: "§V-D Figure 8",
        run: fig8_hot_read::run,
    },
    BenchSpec {
        name: "fig9",
        target: "fig9_cold_read",
        title: "Figure 9 — Wikipedia reads, cold cache, throughput over time",
        paper_ref: "§V-D Figure 9",
        run: fig9_cold_read::run,
    },
    BenchSpec {
        name: "fig10",
        target: "fig10_pool_compare",
        title: "Figure 10 — buffer-pool designs under concurrency",
        paper_ref: "§V-E Figure 10",
        run: fig10_pool_compare::run,
    },
    BenchSpec {
        name: "fig11",
        target: "fig11_extent_reuse",
        title: "Figure 11 — extent reuse under churn",
        paper_ref: "§V-F Figure 11",
        run: fig11_extent_reuse::run,
    },
    BenchSpec {
        name: "table2",
        target: "table2_shared_area",
        title: "Table II — shared aliasing area sizes",
        paper_ref: "§V-E Table II",
        run: table2_shared_area::run,
    },
    BenchSpec {
        name: "table3",
        target: "table3_indexing",
        title: "Table III — indexing BLOB content",
        paper_ref: "§V-G Table III",
        run: table3_indexing::run,
    },
    BenchSpec {
        name: "table4",
        target: "table4_git_clone",
        title: "Table IV — git clone trace replay",
        paper_ref: "§V-H Table IV",
        run: table4_git_clone::run,
    },
    BenchSpec {
        name: "ablation_tier_formula",
        target: "ablation_tier_formula",
        title: "Ablation — tier-size formula waste",
        paper_ref: "§III-D",
        run: ablation_tier_formula::run,
    },
    BenchSpec {
        name: "ablation_tail_extent",
        target: "ablation_tail_extent",
        title: "Ablation — tail extents",
        paper_ref: "§III-D",
        run: ablation_tail_extent::run,
    },
    BenchSpec {
        name: "ablation_latching",
        target: "ablation_latching",
        title: "Ablation — latch granularity",
        paper_ref: "§IV",
        run: ablation_latching::run,
    },
    BenchSpec {
        name: "micro",
        target: "micro_primitives",
        title: "Microbenchmarks — hashing, B-Tree, tier math, CRC",
        paper_ref: "§III/§IV primitives",
        run: micro_primitives::run,
    },
    BenchSpec {
        name: "aging",
        target: "aging",
        title: "Aging — churn torture with/without online defragmentation",
        paper_ref: "§III-D free lists + maintenance",
        run: aging::run,
    },
];

pub fn all() -> &'static [BenchSpec] {
    SPECS
}

/// Look a bench up by short name (`fig9`) or target name (`fig9_cold_read`).
pub fn find(name: &str) -> Option<&'static BenchSpec> {
    SPECS.iter().find(|s| s.name == name || s.target == name)
}

/// Run one bench: prints its human-readable tables as before and returns
/// the machine-readable report. Device throttling is reset first — each
/// bench opts in explicitly, and suite runs share one process.
pub fn run_spec(spec: &BenchSpec) -> Report {
    crate::env().set_throttled(false);
    let mut report = Report::new(spec.name, spec.title, spec.paper_ref);
    (spec.run)(&mut report);
    report
}

/// Run one bench `reps` times and keep the best value per entry key
/// ([`Report::merge_best`]) — the de-noised report the CI gate compares.
pub fn run_spec_best_of(spec: &BenchSpec, reps: usize) -> Report {
    let mut best = run_spec(spec);
    for _ in 1..reps {
        best.merge_best(run_spec(spec));
    }
    best
}

/// Entry point for the thin `benches/*.rs` wrappers: run the named bench
/// and drop `BENCH_<name>.json` into `LOBSTER_BENCH_JSON_DIR` if set.
pub fn bench_main(name: &str) {
    let spec = find(name).unwrap_or_else(|| panic!("unknown bench target '{name}'"));
    let report = run_spec(spec);
    if let Some(dir) = &crate::env().json_dir {
        let path = dir.join(report.file_name());
        report.write_to(&path).expect("write bench json");
        println!("\nwrote {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        for (i, a) in all().iter().enumerate() {
            for b in &all()[i + 1..] {
                assert_ne!(a.name, b.name);
                assert_ne!(a.target, b.target);
            }
            assert!(find(a.name).is_some());
            assert!(find(a.target).is_some());
        }
        assert_eq!(all().len(), 16);
        assert!(find("no_such_bench").is_none());
    }
}
