//! BLOB indexing (§III-F).
//!
//! The *Blob State index* stores serialized Blob States as B-Tree keys,
//! ordered by BLOB **content** through the incremental comparator:
//!
//! 1. equality fast path — compare the embedded SHA-256 digests;
//! 2. cheap range check — compare the embedded 32-byte prefixes;
//! 3. only if the prefixes tie: compare the contents piece by piece
//!    (`lobster_extent::pieces`, at most 64 KiB of each BLOB held at a
//!    time), faulting extents lazily and never materializing whole BLOBs;
//! 4. if one BLOB is a prefix of the other, order by size.
//!
//! Step 3 reads content and can fail. The comparator returns that error,
//! the B-Tree operation that asked returns it before changing any entry,
//! and so does the [`BlobIndex`] call on top: a pool or device error never
//! orders a BLOB as if it had ended.
//!
//! Unlike SQLite's WITHOUT-ROWID index, no BLOB content is copied into the
//! index — the Blob State already references the data. Unlike prefix
//! indexes (MySQL/PostgreSQL), no key is ever rejected or collides.
//!
//! [`ExpressionIndex`] implements the paper's *semantic index*: rows are
//! indexed by a UDF computed over the BLOB content (`CREATE INDEX ON
//! image(classify(content))`).

use crate::blob_state::{BlobState, PREFIX_LEN};
use crate::catalog::Relation;
use crate::db::Database;
use crate::txn::Txn;
use lobster_btree::KeyCmp;
use lobster_buffer::BlobPool;
use lobster_extent::{pieces, Pieces, TierTable};
use lobster_sync::Arc;
use lobster_types::{Geometry, Result};
use std::cmp::Ordering;

/// Most content a comparison step holds per BLOB.
const CMP_PIECE: usize = 64 << 10;

/// The incremental Blob State comparator.
pub struct BlobStateCmp {
    pool: BlobPool,
    table: Arc<TierTable>,
    geo: Geometry,
}

impl BlobStateCmp {
    pub fn new(db: &Database) -> Arc<Self> {
        Self::from_parts(db.blob_pool().clone(), db.tier_table().clone())
    }

    pub fn from_parts(pool: BlobPool, table: Arc<TierTable>) -> Arc<Self> {
        let geo = Geometry::new(pool.page_size());
        Arc::new(BlobStateCmp { pool, table, geo })
    }

    /// Compare the contents of two BLOBs piece by piece. A read that fails
    /// fails the comparison: "could not read" must never pass for "ended".
    fn cmp_contents(&self, a: &BlobState, b: &BlobState) -> Result<Ordering> {
        let view_a = a.content_specs(&self.table, self.geo);
        let view_b = b.content_specs(&self.table, self.geo);
        let walk = |view, size| pieces(view, self.geo, 0..size, CMP_PIECE);
        let mut cur_a = PieceCursor::new(&self.pool, walk(&view_a, a.size));
        let mut cur_b = PieceCursor::new(&self.pool, walk(&view_b, b.size));
        loop {
            let (ca, cb) = (cur_a.rest()?, cur_b.rest()?);
            let n = ca.len().min(cb.len());
            if n == 0 {
                // A stream is exhausted: the shorter BLOB is a prefix of
                // the longer one; order by size (§III-F).
                return Ok(a.size.cmp(&b.size));
            }
            match ca[..n].cmp(&cb[..n]) {
                Ordering::Equal => {
                    cur_a.pos += n;
                    cur_b.pos += n;
                }
                other => return Ok(other),
            }
        }
    }
}

impl KeyCmp for BlobStateCmp {
    fn cmp_keys(&self, stored: &[u8], probe: &[u8]) -> Result<Ordering> {
        // Steps 1 and 2 read the fixed-offset fields straight out of the
        // encodings — no allocation on the overwhelmingly common paths.
        const SHA_RANGE: std::ops::Range<usize> = 8..40;
        const PREFIX_OFF: usize = 72;
        if stored.len() < PREFIX_OFF + PREFIX_LEN || probe.len() < PREFIX_OFF + PREFIX_LEN {
            // Defensive: fall back to raw bytes for undecodable keys.
            return Ok(stored.cmp(probe));
        }
        // 1. SHA-256 equality fast path.
        if stored[SHA_RANGE] == probe[SHA_RANGE] {
            return Ok(Ordering::Equal);
        }
        // 2. Embedded-prefix range check. A difference within the common
        // 32 bytes is decisive, and so is a strict length difference (the
        // shorter prefix is then the shorter BLOB's *entire* content).
        let size_a = lobster_types::read_u64(stored);
        let size_b = lobster_types::read_u64(probe);
        let pa = &stored[PREFIX_OFF..PREFIX_OFF + (size_a.min(PREFIX_LEN as u64)) as usize];
        let pb = &probe[PREFIX_OFF..PREFIX_OFF + (size_b.min(PREFIX_LEN as u64)) as usize];
        match pa.cmp(pb) {
            Ordering::Equal => {}
            other => return Ok(other),
        }
        // Prefixes tie with equal length. Two unequal BLOBs shorter than
        // the prefix would have been separated above, so both are at least
        // PREFIX_LEN bytes: compare content incrementally (3./4.), which
        // needs the full extent lists.
        let (Ok(a), Ok(b)) = (BlobState::decode(stored), BlobState::decode(probe)) else {
            return Ok(stored.cmp(probe));
        };
        self.cmp_contents(&a, &b)
    }
}

/// Pulls a BLOB's content through the pool one bounded piece at a time,
/// for a comparison that consumes two BLOBs in lockstep.
struct PieceCursor<'a> {
    pool: &'a BlobPool,
    pieces: Pieces<'a>,
    buf: Vec<u8>,
    /// Bytes of `buf` already compared.
    pos: usize,
}

impl<'a> PieceCursor<'a> {
    fn new(pool: &'a BlobPool, pieces: Pieces<'a>) -> Self {
        PieceCursor {
            pool,
            pieces,
            buf: Vec::new(),
            pos: 0,
        }
    }

    /// The bytes not yet compared, loading the next piece when the current
    /// one is used up; empty only at the end of the BLOB.
    fn rest(&mut self) -> Result<&[u8]> {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
            if let Some(piece) = self.pieces.next() {
                let buf = &mut self.buf;
                self.pool
                    .read_chunk(piece.spec, piece.offset, piece.len, |b| {
                        buf.extend_from_slice(b)
                    })?;
            }
        }
        Ok(&self.buf[self.pos..])
    }
}

/// A content index over a blob relation: serialized Blob States as keys
/// (ordered by the incremental comparator), row keys as values.
///
/// Maintenance goes through the owning transaction's KV operations, so an
/// index update commits, rolls back, and recovers together with the BLOB
/// it describes.
pub struct BlobIndex {
    pub relation: Arc<Relation>,
}

impl BlobIndex {
    /// Create the index relation (`<blob_rel>__content` by convention).
    pub fn create(db: &Database, blob_rel: &Relation) -> Result<Self> {
        let relation = db.create_relation_with(
            &format!("{}__content", blob_rel.name),
            crate::catalog::RelationKind::Kv,
            BlobStateCmp::new(db),
            2, // 8 KiB nodes: Blob States are a few hundred bytes
        )?;
        Ok(BlobIndex { relation })
    }

    /// Reattach after [`Database::open`] (custom comparators must be
    /// rebound; see [`Database::rebind_comparator`]).
    pub fn reopen(db: &Database, blob_rel_name: &str) -> Result<Self> {
        let relation =
            db.rebind_comparator(&format!("{blob_rel_name}__content"), BlobStateCmp::new(db))?;
        Ok(BlobIndex { relation })
    }

    /// Store a BLOB and index it, in one transaction.
    pub fn put_blob(
        &self,
        txn: &mut Txn,
        blob_rel: &Relation,
        key: &[u8],
        data: &[u8],
    ) -> Result<()> {
        txn.put_blob(blob_rel, key, data)?;
        let state = txn.blob_state(blob_rel, key)?.expect("just inserted");
        txn.put_kv(&self.relation, &state.encode(), key)
    }

    /// Delete a BLOB and its index entry, in one transaction.
    pub fn delete_blob(&self, txn: &mut Txn, blob_rel: &Relation, key: &[u8]) -> Result<()> {
        let state = txn
            .blob_state(blob_rel, key)?
            .ok_or(lobster_types::Error::KeyNotFound)?;
        txn.delete_kv(&self.relation, &state.encode())?;
        txn.delete_blob(blob_rel, key)
    }

    /// Find the row whose content equals the probe state's content
    /// (SHA-256 fast path inside the comparator).
    pub fn lookup(&self, state: &BlobState) -> Result<Option<Vec<u8>>> {
        self.relation.tree.lookup(&state.encode())
    }

    /// Visit rows in content order starting at `from`.
    pub fn scan_from(
        &self,
        from: &BlobState,
        mut f: impl FnMut(&BlobState, &[u8]) -> bool,
    ) -> Result<()> {
        self.relation
            .tree
            .scan_from(&from.encode(), |k, v| match BlobState::decode(k) {
                Ok(state) => f(&state, v),
                Err(_) => false,
            })
    }
}

/// A semantic (expression) index: rows ordered by `udf(blob_content)`.
///
/// Index keys are `udf(content) ++ 0x00 ++ row_key`, so equal UDF values
/// coexist and scans return row keys in order.
/// A user-defined function computing the indexed value from BLOB content.
pub type Udf = Arc<dyn Fn(&[u8]) -> Vec<u8> + Send + Sync>;

pub struct ExpressionIndex {
    pub relation: Arc<Relation>,
    udf: Udf,
}

impl ExpressionIndex {
    /// Create the index relation (`<blob_rel>__<name>` by convention).
    pub fn create(db: &Database, blob_rel: &Relation, name: &str, udf: Udf) -> Result<Self> {
        let rel_name = format!("{}__{}", blob_rel.name, name);
        let relation = db.create_relation(&rel_name, crate::catalog::RelationKind::Kv)?;
        Ok(ExpressionIndex { relation, udf })
    }

    fn index_key(value: &[u8], row_key: &[u8]) -> Vec<u8> {
        let mut k = Vec::with_capacity(value.len() + 1 + row_key.len());
        k.extend_from_slice(value);
        k.push(0);
        k.extend_from_slice(row_key);
        k
    }

    /// Index one row: computes the UDF over the BLOB content.
    pub fn insert(&self, txn: &mut Txn, blob_rel: &Relation, row_key: &[u8]) -> Result<()> {
        let udf = self.udf.clone();
        let value = txn.get_blob(blob_rel, row_key, |content| udf(content))?;
        txn.put_kv(&self.relation, &Self::index_key(&value, row_key), &[])
    }

    /// Remove a row from the index (UDF recomputed over current content;
    /// call *before* deleting the BLOB).
    pub fn remove(&self, txn: &mut Txn, blob_rel: &Relation, row_key: &[u8]) -> Result<()> {
        let udf = self.udf.clone();
        let value = txn.get_blob(blob_rel, row_key, |content| udf(content))?;
        txn.delete_kv(&self.relation, &Self::index_key(&value, row_key))?;
        Ok(())
    }

    /// All row keys whose UDF value equals `value` (the paper's
    /// `SELECT ... WHERE classify(content)='cat'`).
    pub fn scan_eq(&self, value: &[u8]) -> Result<Vec<Vec<u8>>> {
        let mut start = value.to_vec();
        start.push(0);
        let mut rows = Vec::new();
        self.relation.tree.scan_from(&start, |k, _| {
            if k.len() > value.len() && &k[..value.len()] == value && k[value.len()] == 0 {
                rows.push(k[value.len() + 1..].to_vec());
                true
            } else {
                false
            }
        })?;
        Ok(rows)
    }
}
