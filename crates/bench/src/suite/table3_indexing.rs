//! Table III: the Blob State index versus a 1K-prefix index on a
//! Wikipedia-like corpus.
//!
//! Paper shape: the prefix index cannot serve 17 % of queries (boilerplate
//! prefixes collide) and is far larger (8.4×, 187k vs 22k leaves, 3.8×
//! slower to build); lookup throughput is similar because both trees end
//! up with the same height thanks to leaf prefix truncation.

use crate::*;
use lobster_btree::LexCmp;
use lobster_core::{BlobStateCmp, Database, RelationKind};
use std::sync::Arc;
use std::time::Instant;

const PREFIX_LIMIT: usize = 1024; // the "1K prefix" variant

pub(crate) fn run(report: &mut Report) {
    let n = scaled(12_000);
    // Boilerplate on ~30 % of articles: calibrated so the fraction of
    // queries the prefix index cannot serve lands near the paper's 17 %.
    let corpus = WikiCorpus::with_sizes(
        n,
        42,
        PayloadDist::LogNormal {
            mu: 6.356,
            sigma: 1.613,
            min: 64,
            max: 4 << 20,
        },
        0.30,
    );
    println!(
        "corpus: {} articles, {} ({}% > 767B)",
        corpus.len(),
        fmt_bytes(corpus.total_bytes() as f64),
        (corpus.fraction_larger_than(767) * 100.0) as u32
    );

    let db = Database::create(
        Dev::mem(4 << 30).build(),
        Dev::mem(512 << 20).build(),
        our_config(1),
    )
    .expect("create");
    let articles = db
        .create_relation("article", RelationKind::Blob)
        .expect("ddl");
    for i in 0..corpus.len() {
        let mut t = db.begin();
        t.put_blob(
            &articles,
            corpus.articles()[i].title.as_bytes(),
            &corpus.body(i),
        )
        .expect("load");
        t.commit().expect("commit");
    }

    // ---- Blob State index ---------------------------------------------------
    let t0 = Instant::now();
    // Both indexes use 8 KiB nodes: 1 KiB prefix keys do not fit the
    // quarter-entry rule of 4 KiB nodes (PostgreSQL's B-Tree pages are
    // 8 KiB for the same reason).
    let state_index = db
        .create_relation_with("by_content", RelationKind::Kv, BlobStateCmp::new(&db), 2)
        .expect("ddl");
    let mut states = Vec::with_capacity(corpus.len());
    {
        let mut t = db.begin();
        for i in 0..corpus.len() {
            let title = &corpus.articles()[i].title;
            let state = t
                .blob_state(&articles, title.as_bytes())
                .expect("state")
                .expect("present");
            state_index
                .tree
                .insert(&state.encode(), title.as_bytes(), false)
                .expect("unique content");
            states.push(state);
        }
        t.commit().expect("commit");
    }
    let build_state = t0.elapsed();
    let s = state_index.tree.stats().expect("stats");

    // Lookup throughput: point queries by content.
    let lookups = scaled(30_000);
    let t0 = Instant::now();
    let mut found = 0u64;
    for q in 0..lookups {
        let probe = &states[(q * 7919) % states.len()];
        if state_index
            .tree
            .lookup_map(&probe.encode(), |_| ())
            .expect("lookup")
            .is_some()
        {
            found += 1;
        }
    }
    let state_rate = lookups as f64 / t0.elapsed().as_secs_f64();
    assert_eq!(found, lookups as u64);
    report.push(
        Entry::throughput("Our.state_index", state_rate)
            .param("op", "lookup")
            .param("index", "blob_state"),
    );
    report.push(
        Entry::new(
            "Our.state_index",
            "index_size",
            "bytes",
            s.capacity_bytes as f64,
            false,
        )
        .param("index", "blob_state"),
    );

    // ---- 1K prefix index ----------------------------------------------------
    let t0 = Instant::now();
    let prefix_index = db
        .create_relation_with("by_prefix", RelationKind::Kv, Arc::new(LexCmp), 2)
        .expect("ddl");
    let mut misses = 0u64;
    let mut bodies_prefix = Vec::with_capacity(corpus.len());
    for i in 0..corpus.len() {
        let body = corpus.body(i);
        let key = body[..body.len().min(PREFIX_LIMIT)].to_vec();
        match prefix_index
            .tree
            .insert(&key, corpus.articles()[i].title.as_bytes(), false)
        {
            Ok(_) => {}
            Err(lobster_types::Error::KeyExists) => misses += 1, // prefix collision
            Err(e) => panic!("prefix insert: {e}"),
        }
        bodies_prefix.push(key);
    }
    let build_prefix = t0.elapsed();
    let p = prefix_index.tree.stats().expect("stats");

    let t0 = Instant::now();
    for q in 0..lookups {
        let probe = &bodies_prefix[(q * 7919) % bodies_prefix.len()];
        std::hint::black_box(prefix_index.tree.lookup_map(probe, |_| ()).expect("lookup"));
    }
    let prefix_rate = lookups as f64 / t0.elapsed().as_secs_f64();
    report.push(
        Entry::throughput("Our.prefix_index", prefix_rate)
            .param("op", "lookup")
            .param("index", "1k_prefix"),
    );
    report.push(
        Entry::new(
            "Our.prefix_index",
            "index_size",
            "bytes",
            p.capacity_bytes as f64,
            false,
        )
        .param("index", "1k_prefix"),
    );
    report.push(Entry::new(
        "Our.prefix_index",
        "miss_fraction",
        "frac",
        misses as f64 / corpus.len() as f64,
        false,
    ));
    println!(
        "prefix vs Blob State index: leaf ratio {:.1}x, build ratio {:.1}x; heights {} vs {}",
        p.leaves as f64 / s.leaves as f64,
        build_prefix.as_secs_f64() / build_state.as_secs_f64(),
        s.height,
        p.height,
    );
}
