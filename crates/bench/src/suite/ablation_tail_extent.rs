//! Ablation (§III-H): tail extents vs the plain tier formula.
//!
//! Paper's summary table:
//!
//! |                     | internal frag. | growth op. |
//! |---------------------|----------------|------------|
//! | tail extent         | minimal        | slow       |
//! | extent tier formula | low            | fast       |
//!
//! Tail extents eliminate slack entirely but make `append_blob` pay an
//! extent clone (allocation + memcpy of the old tail).
//!
//! The engine picks the layout per operation: a put of known size ends in
//! an exact tail, growth climbs the tier ladder. So the tail arm builds
//! each object with one put, and the tier-formula arm builds it by growth
//! — one page put, the rest appended in the same transaction.

use crate::*;
use lobster_baselines::LobsterStore;
use lobster_baselines::{LobsterMode, ObjectStore};
use std::time::Instant;

fn build(use_tail: bool) -> LobsterStore {
    LobsterStore::new(
        if use_tail {
            "tail extent"
        } else {
            "tier formula"
        },
        mem_device(2 << 30),
        mem_device(256 << 20),
        our_config(1),
        LobsterMode::Blobs,
    )
    .expect("create")
}

pub(crate) fn run(report: &mut Report) {
    banner(
        "Ablation — tail extent vs extent tier formula",
        "§III-H discussion table",
    );
    let objects = scaled(300);
    let grows = scaled(600);

    let mut table = Table::new(&[
        "variant",
        "alloc'd/logical",
        "puts/s",
        "appends/s",
        "pages in use",
    ]);

    for use_tail in [true, false] {
        let store = build(use_tail);
        let db = store.database().clone();
        let rel = store.relation().clone();
        let variant = if use_tail {
            "tail_extent"
        } else {
            "tier_formula"
        };

        // Static objects of awkward sizes (maximize potential slack).
        let mut logical = 0u64;
        let t0 = Instant::now();
        for i in 0..objects {
            let size = 100_000 + (i * 37_321) % 900_000;
            logical += size as u64;
            let (key, payload) = (key_name(i as u64), make_payload(size, i as u64));
            if use_tail {
                store.put(&key, &payload).expect("put");
            } else {
                let (head, rest) = payload.split_at(4096);
                let mut t = db.begin();
                t.put_blob(&rel, key.as_bytes(), head).expect("put head");
                t.append_blob(&rel, key.as_bytes(), rest)
                    .expect("append rest");
                t.commit().expect("commit");
            }
        }
        let put_secs = t0.elapsed().as_secs_f64();
        let allocated = db.allocator().pages_in_use() * 4096;
        let frag = allocated as f64 / logical as f64;

        // Growth ops: append to random objects.
        let t0 = Instant::now();
        let mut state = 1u64;
        for g in 0..grows {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = key_name((state >> 33) % objects as u64);
            let extra = make_payload(10_000 + g % 50_000, g as u64);
            let mut t = db.begin();
            t.append_blob(&rel, key.as_bytes(), &extra).expect("append");
            t.commit().expect("commit");
        }
        let grow_secs = t0.elapsed().as_secs_f64();

        report.push(
            Entry::throughput(variant, objects as f64 / put_secs.max(1e-9)).param("op", "put"),
        );
        report.push(
            Entry::throughput(variant, grows as f64 / grow_secs.max(1e-9)).param("op", "append"),
        );
        report.push(Entry::new(variant, "alloc_over_logical", "x", frag, false));
        table.row(&[
            if use_tail {
                "tail extent"
            } else {
                "tier formula"
            }
            .to_string(),
            format!("{frag:.3}x"),
            fmt_rate(objects as f64 / put_secs),
            fmt_rate(grows as f64 / grow_secs),
            db.allocator().pages_in_use().to_string(),
        ]);
    }
    table.print();
    println!("\npaper: tail extents -> minimal fragmentation but slow growth;");
    println!("tier formula -> low fragmentation and fast growth.");
}
