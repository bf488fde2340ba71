//! What several integration tests share.

use lobster_storage::{Device, MemDevice};
use lobster_wal::{LogRecord, Wal, WAL_HEADER};
use std::sync::Arc;

/// `wal`'s log as an ordering that logged each commit before writing its
/// content left it: the same header and records, without the data-durable
/// marks. A group syncs its content before its records and marks it; an
/// open of this copy validates every BLOB committed since the checkpoint,
/// as it does for a log written that way.
pub fn without_marks(wal: Arc<dyn Device>) -> Arc<MemDevice> {
    let records = Wal::scan(&wal).unwrap().records;
    let copy = Arc::new(MemDevice::new(wal.capacity() as usize));
    let mut header = vec![0u8; WAL_HEADER as usize];
    wal.read_at(&mut header, 0).unwrap();
    copy.write_at(&header, 0).unwrap();
    let log = Wal::open(copy.clone(), lobster_metrics::new_metrics()).unwrap();
    let mark = |r: &LogRecord| matches!(r, LogRecord::DataDurable { .. });
    let kept: Vec<LogRecord> = records.into_iter().filter(|r| !mark(r)).collect();
    log.commit_to(log.append_batch(&kept).unwrap()).unwrap();
    copy
}
