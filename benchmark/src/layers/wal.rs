//! `lobster-wal`. Pinned: `Wal::{create, append_batch, commit_to,
//! checkpoint_truncate}`, `LogRecord::Insert`.

use crate::layers::storage::Device;
use lobster_metrics::new_metrics;
use lobster_types::Result;
use lobster_wal::{LogRecord, Wal};
use std::sync::Arc;

pub struct Log(Arc<Wal>);

impl Log {
    pub fn create(device: Arc<dyn Device>) -> Result<Log> {
        Wal::create(device, new_metrics()).map(Log)
    }

    /// Stage one insert of `value` (a Blob-State-sized row); returns the
    /// LSN to commit to.
    pub fn append_insert(&self, txn: u64, key: &[u8], value: &[u8]) -> Result<u64> {
        self.0.append_batch(&[LogRecord::Insert {
            txn,
            relation: 1,
            key: key.to_vec(),
            value: value.to_vec(),
        }])
    }

    pub fn commit_to(&self, lsn: u64) -> Result<()> {
        self.0.commit_to(lsn)
    }

    /// Restart the log at its header so a long probe cannot fill the
    /// device.
    pub fn truncate(&self) -> Result<()> {
        self.0.checkpoint_truncate()
    }
}
