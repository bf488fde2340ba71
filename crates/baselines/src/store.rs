//! The uniform object-store surface all benchmarks drive, plus the adapter
//! that puts our own engine behind it.

use lobster_core::{Config, Database, Relation, RelationKind, Txn};
use lobster_metrics::{Metrics, Snapshot};
use lobster_storage::Device;
use lobster_types::{Error, Result};
use lobster_wal::LogRecord;
use std::sync::Arc;

/// Aggregate statistics a store reports after a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreStats {
    pub metrics: Snapshot,
    /// Fraction of the managed space in use (for Figure 11).
    pub utilization: f64,
}

/// A key → object store: the common denominator of a DBMS BLOB relation
/// and a directory of files. All §V YCSB-style experiments run against
/// this trait.
pub trait ObjectStore: Send + Sync {
    /// Short display name used in benchmark tables ("Our", "Ext4.journal",
    /// "PostgreSQL", …).
    fn label(&self) -> &str;

    /// Create an object; the key must not exist.
    fn put(&self, key: &str, data: &[u8]) -> Result<()>;

    /// Replace an object's content entirely (YCSB update).
    fn replace(&self, key: &str, data: &[u8]) -> Result<()> {
        // Default: delete + put (what file systems do with O_TRUNC).
        match self.delete(key) {
            Ok(()) | Err(Error::KeyNotFound) => {}
            Err(e) => return Err(e),
        }
        self.put(key, data)
    }

    /// Read the whole object, handing it to `f`.
    fn get(&self, key: &str, f: &mut dyn FnMut(&[u8])) -> Result<()>;

    /// Remove an object.
    fn delete(&self, key: &str) -> Result<()>;

    /// Object size, or `None` if absent (the `fstat` analogue).
    fn stat(&self, key: &str) -> Result<Option<u64>>;

    /// Current statistics.
    fn stats(&self) -> StoreStats;

    /// Make everything durable (end-of-run barrier; not on the hot path
    /// because the paper disables fsync for all competitors).
    fn flush(&self) -> Result<()> {
        Ok(())
    }

    /// Wait for background work (asynchronous group commits) so measured
    /// windows and metric snapshots cover every submitted operation.
    fn quiesce(&self) {}
}

/// How [`LobsterStore`] maps objects onto the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LobsterMode {
    /// Objects are BLOBs in a blob relation (the paper's BLOB workloads).
    Blobs,
    /// Objects are plain rows (the 120 B "normal YCSB" of Figure 5).
    Rows,
}

/// Our engine behind the [`ObjectStore`] trait. Configure the underlying
/// [`Config`] for the `Our` / `Our.ht` variants; [`LobsterStore::physlog`]
/// builds `Our.physlog`.
pub struct LobsterStore {
    label: String,
    db: Arc<Database>,
    rel: Arc<Relation>,
    mode: LobsterMode,
    /// `Our.physlog`: BLOB content also goes to the WAL.
    physlog: bool,
}

/// `Our.physlog`'s WAL segment: the content of one `BlobChunk` record.
const PHYSLOG_SEGMENT: usize = 1 << 20;

impl LobsterStore {
    pub fn new(
        label: &str,
        device: Arc<dyn Device>,
        wal_device: Arc<dyn Device>,
        cfg: Config,
        mode: LobsterMode,
    ) -> Result<Self> {
        let db = Database::create(device, wal_device, cfg)?;
        let kind = match mode {
            LobsterMode::Blobs => RelationKind::Blob,
            LobsterMode::Rows => RelationKind::Kv,
        };
        let rel = db.create_relation("objects", kind)?;
        Ok(LobsterStore {
            label: label.to_string(),
            db,
            rel,
            mode,
            physlog: false,
        })
    }

    /// `Our.physlog` (§V-B): BLOBs with physical logging. A put or replace
    /// also stages the whole content in the WAL as `BlobChunk` records,
    /// tagged with its transaction, ahead of its commit; the engine's group
    /// commit writes and fsyncs them with the Blob State, so every object
    /// is written twice (once to the log, once to its extents). Recovery
    /// never applies them: the SHA check decides a BLOB's fate exactly as
    /// for `Our`.
    pub fn physlog(
        device: Arc<dyn Device>,
        wal_device: Arc<dyn Device>,
        cfg: Config,
    ) -> Result<Self> {
        let store = Self::new("Our.physlog", device, wal_device, cfg, LobsterMode::Blobs)?;
        Ok(LobsterStore {
            physlog: true,
            ..store
        })
    }

    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    pub fn relation(&self) -> &Arc<Relation> {
        &self.rel
    }

    /// `Our.physlog`: stage `data`, the content `t` wrote under `key`, in
    /// the WAL. Nothing for the other variants.
    fn log_content(&self, t: &Txn, key: &str, data: &[u8]) -> Result<()> {
        if !self.physlog {
            return Ok(());
        }
        let chunks: Vec<LogRecord> = (data.chunks(PHYSLOG_SEGMENT).enumerate())
            .map(|(i, chunk)| LogRecord::BlobChunk {
                txn: t.id(),
                relation: self.rel.id,
                key: key.as_bytes().to_vec(),
                byte_offset: (i * PHYSLOG_SEGMENT) as u64,
                data: chunk.to_vec(),
            })
            .collect();
        self.db.wal().append_batch(&chunks)?;
        Ok(())
    }
}

impl ObjectStore for LobsterStore {
    fn label(&self) -> &str {
        &self.label
    }

    fn put(&self, key: &str, data: &[u8]) -> Result<()> {
        let mut t = self.db.begin();
        match self.mode {
            LobsterMode::Blobs => {
                t.put_blob(&self.rel, key.as_bytes(), data)?;
                self.log_content(&t, key, data)?;
            }
            LobsterMode::Rows => t.put_kv(&self.rel, key.as_bytes(), data)?,
        }
        t.commit()
    }

    fn replace(&self, key: &str, data: &[u8]) -> Result<()> {
        let mut t = self.db.begin();
        match self.mode {
            LobsterMode::Blobs => {
                match t.delete_blob(&self.rel, key.as_bytes()) {
                    Ok(()) | Err(Error::KeyNotFound) => {}
                    Err(e) => return Err(e),
                }
                t.put_blob(&self.rel, key.as_bytes(), data)?;
                self.log_content(&t, key, data)?;
            }
            LobsterMode::Rows => t.put_kv(&self.rel, key.as_bytes(), data)?,
        }
        t.commit()
    }

    fn get(&self, key: &str, f: &mut dyn FnMut(&[u8])) -> Result<()> {
        let mut t = self.db.begin();
        match self.mode {
            LobsterMode::Blobs => {
                t.get_blob(&self.rel, key.as_bytes(), |b| f(b))?;
            }
            LobsterMode::Rows => {
                let v = t
                    .get_kv(&self.rel, key.as_bytes())?
                    .ok_or(Error::KeyNotFound)?;
                f(&v);
            }
        }
        t.commit()
    }

    fn delete(&self, key: &str) -> Result<()> {
        let mut t = self.db.begin();
        match self.mode {
            LobsterMode::Blobs => t.delete_blob(&self.rel, key.as_bytes())?,
            LobsterMode::Rows => {
                if !t.delete_kv(&self.rel, key.as_bytes())? {
                    return Err(Error::KeyNotFound);
                }
            }
        }
        t.commit()
    }

    fn stat(&self, key: &str) -> Result<Option<u64>> {
        let mut t = self.db.begin();
        let size = match self.mode {
            LobsterMode::Blobs => t.blob_state(&self.rel, key.as_bytes())?.map(|s| s.size),
            LobsterMode::Rows => t.get_kv(&self.rel, key.as_bytes())?.map(|v| v.len() as u64),
        };
        t.commit()?;
        Ok(size)
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            metrics: self.db.metrics().snapshot(),
            utilization: self.db.utilization(),
        }
    }

    fn flush(&self) -> Result<()> {
        self.db.checkpoint()
    }

    fn quiesce(&self) {
        self.db
            .wait_for_durability()
            .expect("async commits durable");
    }
}

/// Expose the shared metrics type for implementors.
pub(crate) fn snapshot_of(metrics: &Metrics) -> Snapshot {
    metrics.snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobster_storage::MemDevice;

    fn store(mode: LobsterMode) -> LobsterStore {
        LobsterStore::new(
            "Our",
            Arc::new(MemDevice::new(64 << 20)),
            Arc::new(MemDevice::new(16 << 20)),
            Config {
                pool_frames: 2048,
                ..Config::default()
            },
            mode,
        )
        .unwrap()
    }

    #[test]
    fn blob_mode_roundtrip() {
        let s = store(LobsterMode::Blobs);
        s.put("a", &[7u8; 50_000]).unwrap();
        let mut len = 0;
        s.get("a", &mut |b| len = b.len()).unwrap();
        assert_eq!(len, 50_000);
        assert_eq!(s.stat("a").unwrap(), Some(50_000));
        s.replace("a", b"small now").unwrap();
        assert_eq!(s.stat("a").unwrap(), Some(9));
        s.delete("a").unwrap();
        assert_eq!(s.stat("a").unwrap(), None);
        assert!(matches!(s.delete("a"), Err(Error::KeyNotFound)));
    }

    #[test]
    fn row_mode_roundtrip() {
        let s = store(LobsterMode::Rows);
        s.put("k", &[1u8; 120]).unwrap();
        s.replace("k", &[2u8; 120]).unwrap();
        let mut got = Vec::new();
        s.get("k", &mut |b| got = b.to_vec()).unwrap();
        assert_eq!(got, vec![2u8; 120]);
        assert!(s.stats().utilization > 0.0);
    }
}
