//! Ablation (§III-A): the paper's tier-size formula versus Power-of-Two
//! and Fibonacci — wasted space across BLOB sizes, metadata footprint, and
//! maximum representable BLOB.
//!
//! Paper claims: Power-of-Two wastes up to 50 %, Fibonacci up to 38.2 %;
//! the proposed formula wastes ~25 % at 20 MB (5 tiers/level) and the
//! waste *shrinks* with size (7.3 % at 51 GB); 127 extents at 10 tiers per
//! level reach petabyte-scale BLOBs.

use crate::*;
use lobster_extent::{plan_sequence, TierPolicy, TierTable};

/// Mean waste over `samples` sizes in [pages, 1.5*pages).
fn mean_waste(table: &TierTable, pages: u64, samples: u64) -> f64 {
    let total: f64 = (0..samples)
        .filter_map(|i| table.wasted_fraction(pages + i * pages / (2 * samples.max(1))))
        .sum();
    total / samples as f64
}

pub(crate) fn run(report: &mut Report) {
    let policies = [
        (
            "Paper(5/level)",
            TierPolicy::Paper {
                tiers_per_level: 5,
                levels: 20,
            },
        ),
        (
            "Paper(10/level)",
            TierPolicy::Paper {
                tiers_per_level: 10,
                levels: 10,
            },
        ),
        (
            "Paper(30/level)",
            TierPolicy::Paper {
                tiers_per_level: 30,
                levels: 4,
            },
        ),
        ("Power-of-Two", TierPolicy::PowerOfTwo),
        ("Fibonacci", TierPolicy::Fibonacci),
    ];

    for (name, policy) in policies {
        let t = TierTable::new(policy);
        let mean20 = mean_waste(&t, (20u64 << 20) / 4096, 32);
        let mean51g = mean_waste(&t, (51u64 << 30) / 4096, 32);
        report
            .push(Entry::new(name, "waste_at_20MB", "frac", mean20, false).param("formula", name));
        report
            .push(Entry::new(name, "waste_at_51GB", "frac", mean51g, false).param("formula", name));
    }

    // Functional check: every formula plans correct sequences.
    for policy in [
        TierPolicy::Paper {
            tiers_per_level: 10,
            levels: 10,
        },
        TierPolicy::PowerOfTwo,
        TierPolicy::Fibonacci,
    ] {
        let t = TierTable::new(policy);
        let plan = plan_sequence(&t, 5120, false).expect("plan");
        assert!(plan.allocated_pages() >= 5120);
    }
}
