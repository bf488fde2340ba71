//! Runtime rollback and restart undo are one function
//! (`recovery::undo_record`): for every write verb, a transaction that is
//! aborted and the same transaction cut down by a crash — its commit marker
//! torn off the WAL, so recovery finds its records and no commit — must
//! leave the same database behind: the same rows, the same BLOB bytes under
//! valid SHA-256s, the same allocator footprint, and no latch or pin held.

use lobster_core::{Config, Database, Relation, RelationKind, Txn};
use lobster_sha256::Sha256;
use lobster_storage::{CrashDevice, Device, MemDevice};
use lobster_wal::LogRecord;
use std::sync::Arc;

const DATA_CAP: usize = 64 << 20;
const WAL_CAP: usize = 16 << 20;

fn cfg() -> Config {
    Config {
        pool_frames: 4096,
        ..Config::default()
    }
}

fn pattern(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u8
        })
        .collect()
}

#[derive(Clone, Copy, Debug)]
enum Verb {
    KvPut,
    KvUpdate,
    KvDelete,
    Put,
    Delete,
    Append,
    DeltaUpdate,
    CloneUpdate,
    Truncate,
    Relocate,
}

const VERBS: [Verb; 10] = [
    Verb::KvPut,
    Verb::KvUpdate,
    Verb::KvDelete,
    Verb::Put,
    Verb::Delete,
    Verb::Append,
    Verb::DeltaUpdate,
    Verb::CloneUpdate,
    Verb::Truncate,
    Verb::Relocate,
];

fn apply(verb: Verb, t: &mut Txn, kv: &Relation, blobs: &Relation) {
    match verb {
        Verb::KvPut => t.put_kv(kv, b"new", b"row").unwrap(),
        Verb::KvUpdate => t.put_kv(kv, b"a", b"changed").unwrap(),
        Verb::KvDelete => assert!(t.delete_kv(kv, b"b").unwrap()),
        Verb::Put => t.put_blob(blobs, b"fresh", &pattern(70_000, 9)).unwrap(),
        Verb::Delete => t.delete_blob(blobs, b"mid").unwrap(),
        Verb::Append => t.append_blob(blobs, b"mid", &pattern(30_000, 10)).unwrap(),
        // 200 bytes inside a 32-page extent: delta-logged, written in place.
        Verb::DeltaUpdate => t
            .update_blob(blobs, b"big", 150_000, &pattern(200, 11))
            .unwrap(),
        // Most of the one-page first extent: cloned.
        Verb::CloneUpdate => t
            .update_blob(blobs, b"mid", 500, &pattern(3_000, 12))
            .unwrap(),
        Verb::Truncate => t.truncate_blob(blobs, b"big", 50_000).unwrap(),
        Verb::Relocate => assert!(t.relocate_blob(blobs, b"mid").unwrap()),
    }
}

/// Two relations with committed, checkpointed rows: the state every
/// scenario must end in.
fn seed(db: &Arc<Database>) {
    let kv = db.create_relation("kv", RelationKind::Kv).unwrap();
    let blobs = db.create_relation("blobs", RelationKind::Blob).unwrap();
    let mut t = db.begin();
    t.put_kv(&kv, b"a", b"1").unwrap();
    t.put_kv(&kv, b"b", b"2").unwrap();
    t.put_blob(&blobs, b"tiny", &pattern(20, 1)).unwrap();
    t.put_blob(&blobs, b"mid", &pattern(40_000, 2)).unwrap();
    t.put_blob(&blobs, b"big", &pattern(300_000, 3)).unwrap();
    t.commit().unwrap();
    db.checkpoint().unwrap();
}

#[derive(Debug, PartialEq, Eq)]
struct Observed {
    /// `(relation, key, value)` of every row; a blob row's value is its
    /// encoded Blob State, placement included.
    rows: Vec<(String, Vec<u8>, Vec<u8>)>,
    /// `(key, content)` of every BLOB.
    blobs: Vec<(Vec<u8>, Vec<u8>)>,
    pages_in_use: u64,
    quarantined: usize,
}

fn observe(db: &Arc<Database>) -> Observed {
    let mut rows = Vec::new();
    for name in ["kv", "blobs"] {
        let rel = db.relation(name).unwrap();
        rel.tree
            .for_each(|k, v| {
                rows.push((name.to_string(), k.to_vec(), v.to_vec()));
                true
            })
            .unwrap();
    }
    let rel = db.relation("blobs").unwrap();
    let mut blobs = Vec::new();
    let mut t = db.begin();
    let mut keys = Vec::new();
    t.scan_states(&rel, b"", |k, state| {
        keys.push((k.to_vec(), state.sha256));
        true
    })
    .unwrap();
    for (key, sha) in keys {
        let content = t.get_blob(&rel, &key, |b| b.to_vec()).unwrap();
        assert_eq!(Sha256::digest(&content), sha, "{key:?}: content vs SHA-256");
        blobs.push((key, content));
    }
    t.commit().unwrap();
    for pool_audit in [db.blob_pool().audit(), db.node_pool().audit()] {
        assert_eq!(pool_audit.held_latches(), 0);
        pool_audit.assert_no_leaked_pins();
    }
    assert!(db.scrub().unwrap().is_clean());
    Observed {
        rows,
        blobs,
        pages_in_use: db.allocator().pages_in_use(),
        quarantined: db.allocator().quarantined_count(),
    }
}

fn copy_device(src: &MemDevice, capacity: usize) -> Arc<MemDevice> {
    let dst = MemDevice::new(capacity);
    let mut buf = vec![0u8; 1 << 20];
    let mut off = 0u64;
    while off < src.capacity() {
        let n = buf.len().min((src.capacity() - off) as usize);
        src.read_at(&mut buf[..n], off).unwrap();
        dst.write_at(&buf[..n], off).unwrap();
        off += n as u64;
    }
    Arc::new(dst)
}

/// The verb, rolled back at runtime.
fn aborted(verb: Verb) -> Observed {
    let db = Database::create(
        Arc::new(MemDevice::new(DATA_CAP)),
        Arc::new(MemDevice::new(WAL_CAP)),
        cfg(),
    )
    .unwrap();
    seed(&db);
    let (kv, blobs) = (db.relation("kv").unwrap(), db.relation("blobs").unwrap());
    let mut t = db.begin();
    apply(verb, &mut t, &kv, &blobs);
    t.abort();
    // What an undone delta wrote back is dirty until something flushes it;
    // recovery ends in a checkpoint too.
    db.checkpoint().unwrap();
    observe(&db)
}

/// Bytes the verb's commit appends to the WAL, in one write: its records,
/// then the 21-byte commit marker — and, where its content all went out
/// before the commit, the group's own data-durable mark. Returns where the
/// marker ends and the length of the write.
fn commit_bytes(verb: Verb) -> (u64, u64) {
    let db = Database::create(
        Arc::new(MemDevice::new(DATA_CAP)),
        Arc::new(MemDevice::new(WAL_CAP)),
        cfg(),
    )
    .unwrap();
    seed(&db);
    let (kv, blobs) = (db.relation("kv").unwrap(), db.relation("blobs").unwrap());
    let mut t = db.begin();
    apply(verb, &mut t, &kv, &blobs);
    let before = db.wal().active_bytes();
    t.commit().unwrap();
    let appended = db.wal().active_bytes() - before;
    let mut mark = Vec::new();
    if let Some(rec @ LogRecord::DataDurable { .. }) = db.wal().read_all().unwrap().last() {
        lobster_wal::frame_record(&mut mark, 0, rec);
    }
    (appended - mark.len() as u64, appended)
}

/// The verb, committed into a WAL that loses the end of that one write from
/// inside the commit marker on — while every content write reaches the data device;
/// then a restart. Recovery finds the transaction's records, no commit,
/// and whatever it had already written in place.
fn crashed(verb: Verb) -> Observed {
    // Tear the commit's one WAL write inside the marker's last 21 bytes, at
    // least 8 from its end: the bytes after that are the high bytes of a
    // small transaction id, zero like the unwritten device.
    let (end, len) = commit_bytes(verb);
    assert!(
        len < 3000,
        "{verb:?}: the tear is only this precise below 3000 bytes"
    );
    let keep_of_256 = ((end - 8) * 256 / len) as u32;
    let data = Arc::new(MemDevice::new(DATA_CAP));
    let wal = Arc::new(CrashDevice::new(MemDevice::new(WAL_CAP)));
    let db = Database::create(data.clone(), wal.clone(), cfg()).unwrap();
    seed(&db);
    let (kv, blobs) = (db.relation("kv").unwrap(), db.relation("blobs").unwrap());
    let mut t = db.begin();
    apply(verb, &mut t, &kv, &blobs);
    wal.arm_after_writes(0, keep_of_256);
    let _ = t.commit(); // "succeeds": the device lied
    assert!(
        wal.has_crashed(),
        "{verb:?}: the commit never wrote the WAL"
    );
    std::mem::forget(db);

    let surviving_wal = copy_device(wal.inner(), WAL_CAP);
    let (db, report) = Database::open(data, surviving_wal, cfg()).unwrap();
    assert_eq!(report.committed, 0, "{verb:?}: the torn commit survived");
    assert_eq!(report.uncommitted, 1, "{verb:?}: nothing to undo");
    observe(&db)
}

#[test]
fn rollback_and_restart_undo_leave_the_same_database() {
    let untouched = {
        let db = Database::create(
            Arc::new(MemDevice::new(DATA_CAP)),
            Arc::new(MemDevice::new(WAL_CAP)),
            cfg(),
        )
        .unwrap();
        seed(&db);
        observe(&db)
    };
    for verb in VERBS {
        let a = aborted(verb);
        let b = crashed(verb);
        assert_eq!(a, b, "{verb:?}: abort and crash+recovery disagree");
        assert_eq!(a, untouched, "{verb:?}: the undone verb left a trace");
    }
}
