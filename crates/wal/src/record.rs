//! Log-record model and serialization.
//!
//! The decisive design point of the paper (§III-C): in the default
//! *asynchronous BLOB logging* mode the WAL carries only the **Blob State**
//! (a few hundred bytes), never BLOB content. Content reaches the device
//! exactly once, directly from the buffer frames at commit. The
//! [`LogRecord::BlobChunk`] variant exists solely for the `Our.physlog`
//! baseline, which logs full content like conventional engines.

use lobster_types::{crc32_seeded, read_u32, read_u64, Error, Result};

/// Identifier of a relation (table/index) in the catalog.
pub type RelationId = u32;

/// A single write-ahead-log record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LogRecord {
    /// Transaction begins (recovery uses commit records only; begin records
    /// aid debugging and log analytics).
    TxnBegin { txn: u64 },
    /// Transaction commits; everything logged for `txn` becomes effective.
    TxnCommit { txn: u64 },
    /// Transaction aborted after logging records.
    TxnAbort { txn: u64 },
    /// A key/value insert into a relation (catalog entries, metadata rows,
    /// and Blob State rows — `value` is the serialized Blob State).
    Insert {
        txn: u64,
        relation: RelationId,
        key: Vec<u8>,
        value: Vec<u8>,
    },
    /// Update of an existing key; carries before and after images so
    /// recovery can redo or undo logically.
    Update {
        txn: u64,
        relation: RelationId,
        key: Vec<u8>,
        old_value: Vec<u8>,
        new_value: Vec<u8>,
    },
    /// Deletion of a key; the before image allows undo.
    Delete {
        txn: u64,
        relation: RelationId,
        key: Vec<u8>,
        old_value: Vec<u8>,
    },
    /// Delta update of BLOB content updated in place (§III-D "Updating a
    /// BLOB", scheme 1): byte range and before/after images.
    BlobDelta {
        txn: u64,
        relation: RelationId,
        key: Vec<u8>,
        byte_offset: u64,
        before: Vec<u8>,
        after: Vec<u8>,
    },
    /// Full BLOB content segment — used **only** by the physical-logging
    /// baseline (`Our.physlog`); the default engine never emits this.
    BlobChunk {
        txn: u64,
        relation: RelationId,
        key: Vec<u8>,
        byte_offset: u64,
        data: Vec<u8>,
    },
    /// Online relocation of a BLOB's extents by the defragmenter: the
    /// content is byte-identical (same size, same SHA-256), only the
    /// placement — the Blob State's extent pid array — changes. Carries
    /// before and after Blob State images like [`LogRecord::Update`], so
    /// recovery can redo the swap (install the new placement) or undo it
    /// (the old placement stays the single readable truth). Kept distinct
    /// from `Update` so recovery and log analytics can tell maintenance
    /// traffic from user writes.
    BlobRelocate {
        txn: u64,
        relation: RelationId,
        key: Vec<u8>,
        old_value: Vec<u8>,
        new_value: Vec<u8>,
    },
    /// Commit marker for one shard's slice of a cross-shard (global)
    /// transaction. `gtxn` is the global transaction id, `shard` the index
    /// of the shard this log stream belongs to, and `mask` the bitmask of
    /// all participating shards. Recovery treats the local transaction as
    /// committed only if the configured cross-commit policy decides the
    /// global transaction durable — i.e. a marker for `gtxn` survived in
    /// *every* shard named by `mask`.
    TxnCrossCommit {
        txn: u64,
        gtxn: u64,
        shard: u32,
        mask: u64,
    },
    /// Checkpoint marker: everything before it is durable in the database.
    Checkpoint,
    /// Full image of a page, journaled before a checkpoint writes it in
    /// place: a crash mid-checkpoint replays the images first, restoring a
    /// consistent tree (the classic full-page-image / double-write fix for
    /// torn checkpoint writes).
    PageImage { pid: u64, data: Vec<u8> },
    /// Data-durable mark: a data-device sync returned after the content
    /// flushes of every commit up to and including `txn`'s commit record
    /// (in log order) had landed. Recovery accepts a key whose newest
    /// version lies in that prefix without re-hashing it. Names a commit
    /// earlier in the same log; a mark naming none is ignored.
    DataDurable { txn: u64 },
}

impl LogRecord {
    pub fn txn(&self) -> Option<u64> {
        match self {
            LogRecord::TxnBegin { txn }
            | LogRecord::TxnCommit { txn }
            | LogRecord::TxnAbort { txn }
            | LogRecord::Insert { txn, .. }
            | LogRecord::Update { txn, .. }
            | LogRecord::Delete { txn, .. }
            | LogRecord::BlobDelta { txn, .. }
            | LogRecord::BlobChunk { txn, .. }
            | LogRecord::BlobRelocate { txn, .. }
            | LogRecord::TxnCrossCommit { txn, .. } => Some(*txn),
            LogRecord::Checkpoint | LogRecord::PageImage { .. } | LogRecord::DataDurable { .. } => {
                None
            }
        }
    }

    fn tag(&self) -> u8 {
        match self {
            LogRecord::TxnBegin { .. } => 1,
            LogRecord::TxnCommit { .. } => 2,
            LogRecord::TxnAbort { .. } => 3,
            LogRecord::Insert { .. } => 4,
            LogRecord::Update { .. } => 5,
            LogRecord::Delete { .. } => 6,
            LogRecord::BlobDelta { .. } => 7,
            LogRecord::BlobChunk { .. } => 8,
            LogRecord::Checkpoint => 9,
            LogRecord::PageImage { .. } => 10,
            LogRecord::TxnCrossCommit { .. } => 11,
            LogRecord::BlobRelocate { .. } => 12,
            LogRecord::DataDurable { .. } => 13,
        }
    }

    /// Serialize the payload (without framing).
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.tag());
        match self {
            LogRecord::TxnBegin { txn }
            | LogRecord::TxnCommit { txn }
            | LogRecord::TxnAbort { txn }
            | LogRecord::DataDurable { txn } => {
                out.extend_from_slice(&txn.to_le_bytes());
            }
            LogRecord::Insert {
                txn,
                relation,
                key,
                value,
            } => {
                out.extend_from_slice(&txn.to_le_bytes());
                out.extend_from_slice(&relation.to_le_bytes());
                put_bytes(out, key);
                put_bytes(out, value);
            }
            LogRecord::Update {
                txn,
                relation,
                key,
                old_value,
                new_value,
            }
            | LogRecord::BlobRelocate {
                txn,
                relation,
                key,
                old_value,
                new_value,
            } => {
                out.extend_from_slice(&txn.to_le_bytes());
                out.extend_from_slice(&relation.to_le_bytes());
                put_bytes(out, key);
                put_bytes(out, old_value);
                put_bytes(out, new_value);
            }
            LogRecord::Delete {
                txn,
                relation,
                key,
                old_value,
            } => {
                out.extend_from_slice(&txn.to_le_bytes());
                out.extend_from_slice(&relation.to_le_bytes());
                put_bytes(out, key);
                put_bytes(out, old_value);
            }
            LogRecord::BlobDelta {
                txn,
                relation,
                key,
                byte_offset,
                before,
                after,
            } => {
                out.extend_from_slice(&txn.to_le_bytes());
                out.extend_from_slice(&relation.to_le_bytes());
                put_bytes(out, key);
                out.extend_from_slice(&byte_offset.to_le_bytes());
                put_bytes(out, before);
                put_bytes(out, after);
            }
            LogRecord::BlobChunk {
                txn,
                relation,
                key,
                byte_offset,
                data,
            } => {
                out.extend_from_slice(&txn.to_le_bytes());
                out.extend_from_slice(&relation.to_le_bytes());
                put_bytes(out, key);
                out.extend_from_slice(&byte_offset.to_le_bytes());
                put_bytes(out, data);
            }
            LogRecord::Checkpoint => {}
            LogRecord::PageImage { pid, data } => {
                out.extend_from_slice(&pid.to_le_bytes());
                put_bytes(out, data);
            }
            LogRecord::TxnCrossCommit {
                txn,
                gtxn,
                shard,
                mask,
            } => {
                out.extend_from_slice(&txn.to_le_bytes());
                out.extend_from_slice(&gtxn.to_le_bytes());
                out.extend_from_slice(&shard.to_le_bytes());
                out.extend_from_slice(&mask.to_le_bytes());
            }
        }
    }

    /// Deserialize a payload produced by [`LogRecord::encode`].
    pub fn decode(buf: &[u8]) -> Result<LogRecord> {
        let mut c = Cursor { buf, pos: 0 };
        let tag = c.u8()?;
        let rec = match tag {
            1 => LogRecord::TxnBegin { txn: c.u64()? },
            2 => LogRecord::TxnCommit { txn: c.u64()? },
            3 => LogRecord::TxnAbort { txn: c.u64()? },
            4 => LogRecord::Insert {
                txn: c.u64()?,
                relation: c.u32()?,
                key: c.bytes()?,
                value: c.bytes()?,
            },
            5 => LogRecord::Update {
                txn: c.u64()?,
                relation: c.u32()?,
                key: c.bytes()?,
                old_value: c.bytes()?,
                new_value: c.bytes()?,
            },
            6 => LogRecord::Delete {
                txn: c.u64()?,
                relation: c.u32()?,
                key: c.bytes()?,
                old_value: c.bytes()?,
            },
            7 => LogRecord::BlobDelta {
                txn: c.u64()?,
                relation: c.u32()?,
                key: c.bytes()?,
                byte_offset: c.u64()?,
                before: c.bytes()?,
                after: c.bytes()?,
            },
            8 => LogRecord::BlobChunk {
                txn: c.u64()?,
                relation: c.u32()?,
                key: c.bytes()?,
                byte_offset: c.u64()?,
                data: c.bytes()?,
            },
            9 => LogRecord::Checkpoint,
            10 => LogRecord::PageImage {
                pid: c.u64()?,
                data: c.bytes()?,
            },
            11 => LogRecord::TxnCrossCommit {
                txn: c.u64()?,
                gtxn: c.u64()?,
                shard: c.u32()?,
                mask: c.u64()?,
            },
            12 => LogRecord::BlobRelocate {
                txn: c.u64()?,
                relation: c.u32()?,
                key: c.bytes()?,
                old_value: c.bytes()?,
                new_value: c.bytes()?,
            },
            13 => LogRecord::DataDurable { txn: c.u64()? },
            t => {
                return Err(Error::Corruption(format!("unknown log record tag {t}")));
            }
        };
        if c.pos != buf.len() {
            return Err(Error::Corruption(format!(
                "trailing {} bytes after log record",
                buf.len() - c.pos
            )));
        }
        Ok(rec)
    }
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn need(&self, n: usize) -> Result<()> {
        if self.pos + n > self.buf.len() {
            Err(Error::Corruption("truncated log record".into()))
        } else {
            Ok(())
        }
    }

    fn u8(&mut self) -> Result<u8> {
        self.need(1)?;
        let v = self.buf[self.pos];
        self.pos += 1;
        Ok(v)
    }

    fn u32(&mut self) -> Result<u32> {
        self.need(4)?;
        let v = read_u32(&self.buf[self.pos..]);
        self.pos += 4;
        Ok(v)
    }

    fn u64(&mut self) -> Result<u64> {
        self.need(8)?;
        let v = read_u64(&self.buf[self.pos..]);
        self.pos += 8;
        Ok(v)
    }

    fn bytes(&mut self) -> Result<Vec<u8>> {
        let len = self.u32()? as usize;
        self.need(len)?;
        let v = self.buf[self.pos..self.pos + len].to_vec();
        self.pos += len;
        Ok(v)
    }
}

// -------------------------------------------------------------- framing ---

/// On-log frame: `[len: u32][crc: u32][epoch: u32][payload: len bytes]`.
pub const FRAME_HEADER: usize = 12;

/// Append a framed record to `out`, its CRC-32 continued from `seed`
/// (FORMAT.md §2.1): the previous frame's CRC in a chained log, 0 for its
/// first frame and for every frame of a plain one. Returns the frame's CRC.
pub fn frame_record(out: &mut Vec<u8>, epoch: u32, seed: u32, rec: &LogRecord) -> u32 {
    let start = out.len();
    out.extend_from_slice(&[0u8; FRAME_HEADER]);
    rec.encode(out);
    let payload_len = out.len() - start - FRAME_HEADER;
    let crc = crc32_seeded(seed, &out[start + FRAME_HEADER..]);
    out[start..start + 4].copy_from_slice(&(payload_len as u32).to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
    out[start + 8..start + 12].copy_from_slice(&epoch.to_le_bytes());
    crc
}

/// The length of the frame of `epoch` at the start of `buf`, header
/// included, as its header states it; `None` without a header, with a zero
/// length, or with another epoch (bytes left over from an older log).
pub(crate) fn frame_len(buf: &[u8], epoch: u32) -> Option<usize> {
    let header = buf.get(..FRAME_HEADER)?;
    let len = read_u32(header) as usize;
    (len != 0 && read_u32(&header[8..]) == epoch).then_some(FRAME_HEADER + len)
}

/// Parse one frame from `buf` whose CRC continues from `seed`; returns
/// `(record, frame_len, crc)` or `None` at end-of-log (zero length, wrong
/// epoch, bad CRC, or truncation — all are treated as the end of the valid
/// log, as in ARIES-style scans).
pub fn parse_frame(buf: &[u8], epoch: u32, seed: u32) -> Option<(LogRecord, usize, u32)> {
    if buf.len() < FRAME_HEADER {
        return None;
    }
    let len = read_u32(buf) as usize;
    if len == 0 || FRAME_HEADER + len > buf.len() {
        return None;
    }
    let crc = read_u32(&buf[4..]);
    let rec_epoch = read_u32(&buf[8..]);
    if rec_epoch != epoch {
        return None;
    }
    let payload = &buf[FRAME_HEADER..FRAME_HEADER + len];
    if crc32_seeded(seed, payload) != crc {
        return None;
    }
    LogRecord::decode(payload)
        .ok()
        .map(|r| (r, FRAME_HEADER + len, crc))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<LogRecord> {
        vec![
            LogRecord::TxnBegin { txn: 7 },
            LogRecord::TxnCommit { txn: 7 },
            LogRecord::TxnAbort { txn: 8 },
            LogRecord::Insert {
                txn: 7,
                relation: 3,
                key: b"key".to_vec(),
                value: vec![1, 2, 3, 4],
            },
            LogRecord::Update {
                txn: 7,
                relation: 3,
                key: b"k".to_vec(),
                old_value: vec![1],
                new_value: vec![2, 3],
            },
            LogRecord::Delete {
                txn: 9,
                relation: 1,
                key: vec![],
                old_value: vec![5; 100],
            },
            LogRecord::BlobDelta {
                txn: 1,
                relation: 2,
                key: b"blob".to_vec(),
                byte_offset: 4096,
                before: vec![0; 16],
                after: vec![1; 16],
            },
            LogRecord::BlobChunk {
                txn: 1,
                relation: 2,
                key: b"blob".to_vec(),
                byte_offset: 0,
                data: vec![9; 1000],
            },
            LogRecord::Checkpoint,
            LogRecord::PageImage {
                pid: 17,
                data: vec![3; 4096],
            },
            LogRecord::TxnCrossCommit {
                txn: 12,
                gtxn: 0x8000_0000_0000_0003,
                shard: 2,
                mask: 0b1101,
            },
            LogRecord::BlobRelocate {
                txn: 13,
                relation: 2,
                key: b"moved".to_vec(),
                old_value: vec![4; 120],
                new_value: vec![7; 120],
            },
            LogRecord::DataDurable { txn: 13 },
        ]
    }

    #[test]
    fn roundtrip_all_variants() {
        for rec in samples() {
            let mut buf = Vec::new();
            rec.encode(&mut buf);
            assert_eq!(LogRecord::decode(&buf).unwrap(), rec);
        }
    }

    #[test]
    fn framing_roundtrip_sequence() {
        let mut log = Vec::new();
        let mut seed = 0;
        for rec in samples() {
            seed = frame_record(&mut log, 5, seed, &rec);
        }
        let (mut pos, mut seed) = (0, 0);
        let mut seen = Vec::new();
        while let Some((rec, n, crc)) = parse_frame(&log[pos..], 5, seed) {
            seen.push(rec);
            (pos, seed) = (pos + n, crc);
        }
        assert_eq!(seen, samples());
        assert_eq!(pos, log.len());
    }

    #[test]
    fn wrong_epoch_terminates_scan() {
        let mut log = Vec::new();
        frame_record(&mut log, 1, 0, &LogRecord::Checkpoint);
        assert!(parse_frame(&log, 2, 0).is_none());
    }

    #[test]
    fn corruption_terminates_scan() {
        let mut log = Vec::new();
        frame_record(&mut log, 1, 0, &LogRecord::TxnCommit { txn: 42 });
        log[FRAME_HEADER + 2] ^= 0xFF;
        assert!(parse_frame(&log, 1, 0).is_none());
    }

    #[test]
    fn truncated_frame_is_end_of_log() {
        let mut log = Vec::new();
        frame_record(&mut log, 1, 0, &LogRecord::TxnCommit { txn: 42 });
        let cut = log.len() - 3;
        assert!(parse_frame(&log[..cut], 1, 0).is_none());
    }

    /// A frame parses only under the seed it was framed with: the CRC of
    /// the frame before it in a chained log.
    #[test]
    fn a_chained_frame_needs_its_predecessors_crc() {
        let mut log = Vec::new();
        let first = frame_record(&mut log, 1, 0, &LogRecord::TxnBegin { txn: 1 });
        let at = log.len();
        frame_record(&mut log, 1, first, &LogRecord::TxnCommit { txn: 1 });
        assert!(parse_frame(&log[at..], 1, first).is_some());
        assert!(parse_frame(&log[at..], 1, 0).is_none());
        assert!(parse_frame(&log[at..], 1, first ^ 1).is_none());
    }

    #[test]
    fn txn_accessor() {
        assert_eq!(LogRecord::TxnCommit { txn: 3 }.txn(), Some(3));
        assert_eq!(LogRecord::Checkpoint.txn(), None);
        // A mark names a commit; it is not a record of that transaction.
        assert_eq!(LogRecord::DataDurable { txn: 3 }.txn(), None);
    }
}
