//! The paper's motivating scenario (§I): a medical-imaging application
//! that keeps patient records *and* X-ray images in one system.
//!
//! With files + DBMS, a crash between `fsync` and `commit` leaves either
//! an orphan image or a dangling record. Here both live in one
//! transaction: the record and the image commit (or vanish) together —
//! demonstrated with real crash injection — and a semantic index answers
//! "find all chest X-rays" without touching the raw bytes.
//!
//! ```text
//! cargo run --release --example xray_archive
//! ```

use lobster::core::{Config, Database, ExpressionIndex, RelationKind};
use lobster::storage::{CrashDevice, Device, MemDevice};
use lobster::vfs::{DbFs, FileSystem};
use std::sync::Arc;

/// A fake DICOM-ish image: 4-byte magic, modality tag, then pixel data.
fn make_xray(modality: &str, pixels: usize, seed: u8) -> Vec<u8> {
    let mut img = Vec::with_capacity(pixels + 16);
    img.extend_from_slice(b"XRAY");
    img.extend_from_slice(format!("{modality:<8}").as_bytes());
    img.extend(std::iter::repeat_n(seed, pixels));
    img
}

fn modality_of(img: &[u8]) -> Vec<u8> {
    img.get(4..12)
        .map(|m| m.iter().take_while(|&&b| b != b' ').copied().collect())
        .unwrap_or_default()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Crash-injecting data device with a volatile write cache: we will
    // literally cut power later.
    let crash_dev = Arc::new(CrashDevice::write_back(MemDevice::new(256 << 20)));
    let wal_dev = Arc::new(MemDevice::new(64 << 20));
    let db = Database::create(crash_dev.clone(), wal_dev.clone(), Config::default())?;

    let patients = db.create_relation("patient", RelationKind::Kv)?;
    let images = db.create_relation("image", RelationKind::Blob)?;

    // A semantic index over the image *content* (§III-F):
    //   CREATE INDEX ON image(classify(content))
    let classify: lobster::core::Udf = Arc::new(modality_of);
    let by_modality = ExpressionIndex::create(&db, &images, "modality", classify)?;

    // ---- Atomic patient + image inserts -----------------------------------
    println!("admitting patients…");
    for (id, (name, modality, kb)) in [
        ("Ada Lovelace", "CHEST", 512),
        ("Alan Turing", "DENTAL", 128),
        ("Grace Hopper", "CHEST", 768),
        ("Edsger Dijkstra", "HAND", 64),
    ]
    .iter()
    .enumerate()
    {
        let patient_key = format!("P{id:04}");
        let image_key = format!("{patient_key}-scan1.xray");
        let img = make_xray(modality, kb * 1024, id as u8 + 1);

        let mut txn = db.begin();
        txn.put_kv(&patients, patient_key.as_bytes(), name.as_bytes())?;
        txn.put_blob(&images, image_key.as_bytes(), &img)?;
        by_modality.insert(&mut txn, &images, image_key.as_bytes())?;
        txn.commit()?; // record + image + index entry: all or nothing
        println!("  {patient_key} {name:<16} {modality:<6} {kb:>4} KiB");
    }

    // ---- Semantic query ----------------------------------------------------
    let chests = by_modality.scan_eq(b"CHEST")?;
    println!(
        "\nSELECT * FROM image WHERE classify(content)='CHEST' -> {:?}",
        chests
            .iter()
            .map(|k| String::from_utf8_lossy(k).into_owned())
            .collect::<Vec<_>>()
    );
    assert_eq!(chests.len(), 2);

    // ---- Unmodified file-based tooling reads the images --------------------
    let fs = DbFs::new(db.clone());
    let listing = fs.readdir("/image").expect("list images");
    println!("\n$ ls /mnt/lobster/image");
    for name in &listing {
        let stat = fs.getattr(&format!("/image/{name}")).expect("stat");
        println!("  {:>10} {}", stat.size, name);
    }
    // An "external viewer" opens one image through the file API:
    let fd = fs.open("/image/P0000-scan1.xray").expect("open");
    let mut header = [0u8; 12];
    fs.read(fd, 0, &mut header).expect("read");
    fs.close(fd).expect("close");
    println!(
        "viewer sees magic={:?} modality={:?}",
        std::str::from_utf8(&header[..4])?,
        std::str::from_utf8(&header[4..12])?.trim_end()
    );

    // ---- The crash the intro warns about ----------------------------------
    println!("\ncutting power mid-admission…");
    db.checkpoint()?;
    let mut txn = db.begin();
    txn.put_kv(&patients, b"P9999", b"Phantom Patient")?;
    txn.put_blob(
        &images,
        b"P9999-scan1.xray",
        &make_xray("CHEST", 256 * 1024, 9),
    )?;
    txn.commit()?; // durable in the log — the image bytes only in the device's cache
    crash_dev.crash_now(); // the cache never reaches the medium

    // Copy the surviving bytes to a fresh device and recover.
    let survivor = Arc::new(MemDevice::new(256 << 20));
    let mut buf = vec![0u8; 1 << 20];
    let src = crash_dev.inner();
    let mut off = 0u64;
    while off < src.capacity() {
        let n = buf.len().min((src.capacity() - off) as usize);
        src.read_at(&mut buf[..n], off)?;
        survivor.write_at(&buf[..n], off)?;
        off += n as u64;
    }
    let (db2, report) = Database::open(survivor, wal_dev, Config::default())?;
    println!(
        "recovery: {} committed, {} failed SHA-256 validation",
        report.committed, report.sha_failures
    );
    assert_eq!(report.sha_failures, 1);

    // Neither an orphan image nor a dangling record survived:
    let patients2 = db2.relation("patient").unwrap();
    let images2 = db2.relation("image").unwrap();
    let mut txn = db2.begin();
    assert!(txn.get_kv(&patients2, b"P9999")?.is_none());
    assert!(txn.blob_state(&images2, b"P9999-scan1.xray")?.is_none());
    // …while every fully-committed admission is intact:
    assert!(txn.get_kv(&patients2, b"P0000")?.is_some());
    assert!(txn.blob_state(&images2, b"P0000-scan1.xray")?.is_some());
    txn.commit()?;
    println!("record and image vanished together — no torn admission.");
    Ok(())
}
