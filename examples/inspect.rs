//! Storage anatomy tour: build a small database, then dump everything the
//! engine knows about it — catalog, B-Tree shape, Blob States with their
//! extent sequences and tier classes, WAL composition, allocator
//! occupancy, and the cost counters.
//!
//! This doubles as the project's `db-inspect` debugging tool: point the
//! `LOBSTER_INSPECT` environment variable at an existing `data.lobster` /
//! `wal.lobster` pair to dump that database instead of the demo.
//!
//! ```text
//! cargo run --release --example inspect
//! LOBSTER_INSPECT=/path/to/dir cargo run --release --example inspect
//! ```

use lobster::core::{Config, Database, RelationKind};
use lobster::storage::{FileDevice, MemDevice};
use lobster::workloads::make_payload;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = match std::env::var("LOBSTER_INSPECT") {
        Ok(dir) => {
            let dir = std::path::PathBuf::from(dir);
            let device = Arc::new(FileDevice::open(&dir.join("data.lobster"))?);
            let wal = Arc::new(FileDevice::open(&dir.join("wal.lobster"))?);
            let (db, report) = Database::open(device, wal, Config::default())?;
            println!(
                "opened existing database (recovery: {} committed, {} rolled back)\n",
                report.committed, report.uncommitted
            );
            db
        }
        Err(_) => demo_database()?,
    };

    // ------------------------------------------------------------ catalog --
    println!("== catalog ==");
    let geo = db.geometry();
    println!(
        "page size {} B, device utilization {:.1}%",
        geo.page_size(),
        db.utilization() * 100.0
    );
    for name in db.relation_names() {
        let rel = db.relation(&name).expect("listed");
        let stats = rel.tree.stats()?;
        println!(
            "  {:<16} {:?}  height={} nodes={} entries={} fill={:.0}%",
            name,
            rel.kind,
            stats.height,
            stats.nodes,
            stats.entries,
            100.0 * stats.used_bytes as f64 / stats.capacity_bytes.max(1) as f64,
        );
    }

    // ------------------------------------------------------- blob layout --
    println!("\n== blob states ==");
    let table = db.tier_table().clone();
    for name in db.relation_names() {
        let rel = db.relation(&name).expect("listed");
        if rel.kind != RelationKind::Blob || name.starts_with('_') {
            continue;
        }
        let mut t = db.begin();
        let mut rows = Vec::new();
        t.scan_states(&rel, b"", |key, state| {
            rows.push((String::from_utf8_lossy(key).into_owned(), state.clone()));
            rows.len() < 16 // dump at most 16 per relation
        })?;
        t.commit()?;
        for (key, state) in rows {
            let tiers: Vec<String> = state
                .extents
                .iter()
                .enumerate()
                .map(|(pos, pid)| format!("P{}({}p)", pid.0, table.size_of(pos)))
                .collect();
            let tail = state
                .tail
                .map(|(pid, pages)| format!(" tail=P{}({}p)", pid.0, pages))
                .unwrap_or_default();
            println!(
                "  {name}/{key}: {} B  sha={:02x}{:02x}{:02x}{:02x}…  extents=[{}]{}",
                state.size,
                state.sha256[0],
                state.sha256[1],
                state.sha256[2],
                state.sha256[3],
                tiers.join(" "),
                tail,
            );
        }
    }

    // -------------------------------------------------------------- WAL ---
    println!("\n== write-ahead log (current epoch) ==");
    let a = db.wal().analyze()?;
    println!(
        "  {} records / {} B: {} commits, {} inserts, {} updates, {} deletes",
        a.records, a.bytes, a.commits, a.inserts, a.updates, a.deletes
    );
    println!(
        "  content bytes in log: {} (asynchronous BLOB logging keeps this at 0)",
        a.content_bytes
    );
    if a.page_images > 0 {
        println!(
            "  checkpoint page images: {} ({} B)",
            a.page_images, a.image_bytes
        );
    }
    if let Some(mean) = a.bytes.checked_div(a.records) {
        println!("  mean record size: {mean} B");
    }

    // ----------------------------------------------------------- counters --
    println!("\n== cost counters ==");
    let s = db.metrics().snapshot();
    println!(
        "  pages read {} / written {}, cache hits {} / misses {}",
        s.pages_read, s.pages_written, s.cache_hits, s.cache_misses
    );
    println!(
        "  wal bytes {}, fsyncs {}, extent allocs {} / frees {}, latches {}",
        s.wal_bytes, s.fsyncs, s.extent_allocs, s.extent_frees, s.latch_acquisitions
    );
    println!("  txn commits {} / aborts {}", s.txn_commits, s.txn_aborts);

    // ------------------------------------------------------------- scrub --
    println!("\n== integrity scrub ==");
    let rep = db.scrub()?;
    if rep.is_clean() {
        println!(
            "  {} blobs / {} content bytes verified against their SHA-256: clean",
            rep.blobs, rep.bytes
        );
    } else {
        for (rel, key) in &rep.corrupt {
            println!("  CORRUPT: {rel}/{}", String::from_utf8_lossy(key));
        }
    }
    Ok(())
}

/// A small mixed database: three relations, a spread of blob sizes.
fn demo_database() -> Result<Arc<Database>, Box<dyn std::error::Error>> {
    let db = Database::create(
        Arc::new(MemDevice::new(256 << 20)),
        Arc::new(MemDevice::new(64 << 20)),
        Config::default(),
    )?;
    let photos = db.create_relation("photos", RelationKind::Blob)?;
    let notes = db.create_relation("notes", RelationKind::Blob)?;
    let tags = db.create_relation("tags", RelationKind::Kv)?;

    let mut t = db.begin();
    for (key, size) in [
        ("sunset.raw", 8 << 20),
        ("beach.jpg", 740_000),
        ("icon.png", 3_000),
    ] {
        t.put_blob(&photos, key.as_bytes(), &make_payload(size, size as u64))?;
    }
    t.put_blob(&notes, b"todo.txt", b"ship the inspector")?;
    t.put_kv(&tags, b"sunset.raw", b"vacation,raw")?;
    t.commit()?;

    // One append so a resumed SHA midstate is visible in the dump. The
    // puts above end in an exact tail extent; a recording built by growth
    // climbs the tier ladder instead, so both layouts show.
    let mut t = db.begin();
    t.append_blob(&notes, b"todo.txt", b"\n- dump blob states")?;
    t.put_blob(&photos, b"timelapse.raw", &make_payload(4096, 1))?;
    for chunk in 0..4 {
        t.append_blob(&photos, b"timelapse.raw", &make_payload(150_000, chunk))?;
    }
    t.commit()?;
    db.wait_for_durability().unwrap();
    println!("built demo database (set LOBSTER_INSPECT=<dir> to inspect your own)\n");
    Ok(db)
}
