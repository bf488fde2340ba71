//! The bench suite: every table, figure and ablation of the paper's
//! evaluation is one module here with a `run(&mut Report)` function that
//! records its rows, registered under the short name `lobster-bench run
//! <name>` takes.

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
/// paper it reproduces, the result the paper reports, and its entry point.
pub struct BenchSpec {
    pub name: &'static str,
    pub title: &'static str,
    pub paper_ref: &'static str,
    pub paper: &'static str,
    run: fn(&mut Report),
}

static SPECS: &[BenchSpec] = &[
    BenchSpec {
        name: "table1",
        title: "Table I — 10 MB BLOB insert: write amplification survey",
        paper_ref: "§II Table I",
        paper: "all surveyed systems keep >= 2 copies per BLOB behind multi-layer structures; Our keeps one copy behind one indirection layer",
        run: table1_survey::run,
    },
    BenchSpec {
        name: "fig5",
        title: "Figure 5 — YCSB, 120 B payloads, 50% reads",
        paper_ref: "§V-B Figure 5",
        paper: "Our >= 3.5x the best competitor; target: the sharded engine >= 2.5x at 4 threads",
        run: fig5_small_payload::run,
    },
    BenchSpec {
        name: "fig6",
        title: "Figure 6 — YCSB with BLOB payloads (logging strategies)",
        paper_ref: "§V-B Figure 6",
        paper: "PostgreSQL and MySQL trail; Ext4.journal is the slowest file system; Our beats every file system; PostgreSQL and SQLite fail at 1 GB",
        run: fig6_blob_logging::run,
    },
    BenchSpec {
        name: "fig7",
        title: "Figure 7 — metadata operations (stat vs Blob State scan)",
        paper_ref: "§V-C Figure 7",
        paper: "Our 15.6x the best file system",
        run: fig7_metadata::run,
    },
    BenchSpec {
        name: "fig8",
        title: "Figure 8 — Wikipedia reads, hot cache (view-weighted)",
        paper_ref: "§V-D Figure 8",
        paper: "Our >= 1.4x the best file system",
        run: fig8_hot_read::run,
    },
    BenchSpec {
        name: "fig9",
        title: "Figure 9 — Wikipedia reads, cold cache, throughput over time",
        paper_ref: "§V-D Figure 9",
        paper: "Our 2.9x the best file system at the start, 3.9x at the end",
        run: fig9_cold_read::run,
    },
    BenchSpec {
        name: "fig10",
        title: "Figure 10 — buffer-pool designs under concurrency",
        paper_ref: "§V-E Figure 10",
        paper: "~parity at 100 KB; Our up to 2.1x at 10 MB x 16 workers",
        run: fig10_pool_compare::run,
    },
    BenchSpec {
        name: "fig11",
        title: "Figure 11 — extent reuse under churn",
        paper_ref: "§V-F Figure 11",
        paper: "every file system except F2FS degrades near full; Our stays stable",
        run: fig11_extent_reuse::run,
    },
    BenchSpec {
        name: "table2",
        title: "Table II — shared aliasing area sizes",
        paper_ref: "§V-E Table II",
        paper: "both variants alike (3,453 vs 3,477 txn/s): shared-area sync is trivial",
        run: table2_shared_area::run,
    },
    BenchSpec {
        name: "table3",
        title: "Table III — indexing BLOB content",
        paper_ref: "§V-G Table III",
        paper: "the prefix index misses 17% of queries, with 8.5x the leaves, 8.4x the size and 3.8x the build time",
        run: table3_indexing::run,
    },
    BenchSpec {
        name: "table4",
        title: "Table IV — git clone trace replay",
        paper_ref: "§V-H Table IV",
        paper: "Our 906 ms beats XFS 1464 ms (best file system) and Ext4.journal 2330 ms (worst)",
        run: table4_git_clone::run,
    },
    BenchSpec {
        name: "ablation_tier_formula",
        title: "Ablation — tier-size formula waste",
        paper_ref: "§III-D",
        paper: "Power-of-Two wastes up to 50%, Fibonacci 38.2%; the formula's waste shrinks with size, and 127 extents reach petabyte-scale BLOBs",
        run: ablation_tier_formula::run,
    },
    BenchSpec {
        name: "ablation_tail_extent",
        title: "Ablation — tail extents",
        paper_ref: "§III-D",
        paper: "tail extents: minimal fragmentation, slow growth; tier formula: low fragmentation, fast growth",
        run: ablation_tail_extent::run,
    },
    BenchSpec {
        name: "ablation_latching",
        title: "Ablation — latch granularity",
        paper_ref: "§IV",
        paper: "with coarse latching only one worker loads a contended extent",
        run: ablation_latching::run,
    },
    BenchSpec {
        name: "micro",
        title: "Microbenchmarks — hashing, B-Tree, tier math, CRC",
        paper_ref: "§III/§IV primitives",
        paper: "",
        run: micro_primitives::run,
    },
    BenchSpec {
        name: "aging",
        title: "Aging — churn torture with/without online defragmentation",
        paper_ref: "§III-D free lists + maintenance",
        paper: "defrag-on steady state >= 1.2x defrag-off (asserted under LOBSTER_AGING_GATE=1)",
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

/// Run one bench: prints its banner, then its rows as the console table
/// under the paper's result, and returns the machine-readable report.
pub fn run_spec(spec: &BenchSpec) -> Report {
    println!("\n================================================================");
    println!("{}\nreproduces: {}", spec.title, spec.paper_ref);
    println!("================================================================");
    let mut report = Report::new(spec.name, spec.title, spec.paper_ref);
    (spec.run)(&mut report);
    print!("{}", report.table());
    if !spec.paper.is_empty() {
        println!("paper: {}", spec.paper);
    }
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
