//! The bench suite: every table, figure and ablation of the paper's
//! evaluation is one module here with a `run(&mut Report)` function,
//! registered under the short name `lobster-bench run <name>` takes.

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

/// One registered bench: short name (`fig9`), title, the part of the
/// paper it reproduces, and its entry point.
pub struct BenchSpec {
    pub name: &'static str,
    pub title: &'static str,
    pub paper_ref: &'static str,
    run: fn(&mut Report),
}

static SPECS: &[BenchSpec] = &[
    BenchSpec {
        name: "table1",
        title: "Table I — 10 MB BLOB insert: write amplification survey",
        paper_ref: "§II Table I",
        run: table1_survey::run,
    },
    BenchSpec {
        name: "fig5",
        title: "Figure 5 — YCSB, 120 B payloads, 50% reads",
        paper_ref: "§V-B Figure 5",
        run: fig5_small_payload::run,
    },
    BenchSpec {
        name: "fig6",
        title: "Figure 6 — YCSB with BLOB payloads (logging strategies)",
        paper_ref: "§V-B Figure 6",
        run: fig6_blob_logging::run,
    },
    BenchSpec {
        name: "fig7",
        title: "Figure 7 — metadata operations (stat vs Blob State scan)",
        paper_ref: "§V-C Figure 7",
        run: fig7_metadata::run,
    },
    BenchSpec {
        name: "fig8",
        title: "Figure 8 — Wikipedia reads, hot cache (view-weighted)",
        paper_ref: "§V-D Figure 8",
        run: fig8_hot_read::run,
    },
    BenchSpec {
        name: "fig9",
        title: "Figure 9 — Wikipedia reads, cold cache, throughput over time",
        paper_ref: "§V-D Figure 9",
        run: fig9_cold_read::run,
    },
    BenchSpec {
        name: "fig10",
        title: "Figure 10 — buffer-pool designs under concurrency",
        paper_ref: "§V-E Figure 10",
        run: fig10_pool_compare::run,
    },
    BenchSpec {
        name: "fig11",
        title: "Figure 11 — extent reuse under churn",
        paper_ref: "§V-F Figure 11",
        run: fig11_extent_reuse::run,
    },
    BenchSpec {
        name: "table2",
        title: "Table II — shared aliasing area sizes",
        paper_ref: "§V-E Table II",
        run: table2_shared_area::run,
    },
    BenchSpec {
        name: "table3",
        title: "Table III — indexing BLOB content",
        paper_ref: "§V-G Table III",
        run: table3_indexing::run,
    },
    BenchSpec {
        name: "table4",
        title: "Table IV — git clone trace replay",
        paper_ref: "§V-H Table IV",
        run: table4_git_clone::run,
    },
    BenchSpec {
        name: "ablation_tier_formula",
        title: "Ablation — tier-size formula waste",
        paper_ref: "§III-D",
        run: ablation_tier_formula::run,
    },
    BenchSpec {
        name: "ablation_tail_extent",
        title: "Ablation — tail extents",
        paper_ref: "§III-D",
        run: ablation_tail_extent::run,
    },
    BenchSpec {
        name: "ablation_latching",
        title: "Ablation — latch granularity",
        paper_ref: "§IV",
        run: ablation_latching::run,
    },
    BenchSpec {
        name: "micro",
        title: "Microbenchmarks — hashing, B-Tree, tier math, CRC",
        paper_ref: "§III/§IV primitives",
        run: micro_primitives::run,
    },
    BenchSpec {
        name: "aging",
        title: "Aging — churn torture with/without online defragmentation",
        paper_ref: "§III-D free lists + maintenance",
        run: aging::run,
    },
];

pub fn all() -> &'static [BenchSpec] {
    SPECS
}

/// Look a bench up by short name (`fig9`).
pub fn find(name: &str) -> Option<&'static BenchSpec> {
    SPECS.iter().find(|s| s.name == name)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        for (i, a) in all().iter().enumerate() {
            for b in &all()[i + 1..] {
                assert_ne!(a.name, b.name);
            }
            assert!(find(a.name).is_some());
        }
        assert_eq!(all().len(), 16);
        assert!(find("no_such_bench").is_none());
    }
}
