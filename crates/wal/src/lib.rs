//! Write-ahead logging for LOBSTER (§III-C, §V-A).
//!
//! The log carries *Blob States*, not BLOB content (asynchronous BLOB
//! logging): BLOB bytes are written to the device exactly once, from the
//! buffer frames at commit, after the WAL fsync makes the Blob State
//! durable. The [`LogRecord::BlobChunk`] variant supports the
//! `Our.physlog` baseline that logs full content like conventional DBMSs.
//!
//! Group commit batches fsyncs across sessions; checkpoints truncate the
//! log logically by bumping an epoch stamped into every record frame.

#![forbid(unsafe_code)]

mod record;
mod writer;

pub use record::{frame_record, parse_frame, LogRecord, RelationId, FRAME_HEADER};
pub use writer::{LogScan, Lsn, Wal, WalAnalysis, WAL_HEADER};
