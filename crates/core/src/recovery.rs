//! Crash recovery (§III-C "BLOB Recoverability").
//!
//! Recovery is logical, over the post-checkpoint WAL:
//!
//! 1. **Analysis** — scan the log (read once, for every phase), collect
//!    committed transactions, and *validate every committed BLOB's content
//!    against the SHA-256 stored in its Blob State*. The commit protocol
//!    guarantees the Blob State is durable before extent content is
//!    written, so a crash between WAL fsync and the content flush leaves a
//!    committed Blob State pointing at garbage extents — the SHA check
//!    detects this, and the transaction is moved to the undo list (treated
//!    as failed), exactly as the paper specifies. Validation never goes
//!    through the buffer pool: each round of the fixpoint streams the
//!    content of all its BLOBs straight from the device in batches of
//!    pieces ([`content::validate_many`]), the next batch in flight while
//!    the current one hashes, so it runs at device-and-hash speed and
//!    leaves nothing cached. The shards of a sharded store run this
//!    recovery concurrently (`ShardedDatabase::open`).
//! 2. **Redo** — replay the operations of surviving transactions in log
//!    order (idempotent logical redo; the B-Tree durable state equals the
//!    last checkpoint).
//! 3. **Undo** — reverse the operations of uncommitted/failed transactions
//!    in reverse log order (their B-Tree changes may have reached the
//!    device through eviction).
//! 4. Rebuild the extent allocator from the surviving reachable state,
//!    flush, and truncate the log.

use crate::blob_state::BlobState;
use crate::catalog::RelationKind;
use crate::content;
use crate::db::{BlobLogging, Database};
use lobster_extent::ExtentSpec;
use lobster_sync::atomic::Ordering;
use lobster_types::{Error, Result};
use lobster_wal::LogRecord;
use std::collections::{HashMap, HashSet};

/// Outcome of a recovery pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Transactions whose effects were replayed.
    pub committed: u64,
    /// Transactions rolled back (no commit record).
    pub uncommitted: u64,
    /// Committed transactions failed by BLOB SHA-256 validation.
    pub sha_failures: u64,
    /// Log records processed.
    pub records: u64,
}

const CATALOG_REL_ID: u32 = 0;

pub(crate) fn recover(db: &Database) -> Result<RecoveryReport> {
    let records = db.wal.read_all()?;

    // Phase 0: apply journaled page images. A crash between a checkpoint's
    // image fsync and its truncation leaves in-place node writes possibly
    // torn; the images restore every such page before anything reads the
    // tree.
    for rec in &records {
        if let LogRecord::PageImage { pid, data } = rec {
            db.device
                .write_at(data, db.geo.offset_of(lobster_types::Pid::new(*pid)))?;
        }
    }

    // Attach relations known at the last checkpoint (pre-redo catalog).
    let mut entries: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    db.catalog_tree.for_each(|k, v| {
        entries.push((k.to_vec(), v.to_vec()));
        true
    })?;
    for (name, entry) in &entries {
        let name = String::from_utf8_lossy(name).into_owned();
        db.attach_relation(&name, entry)?;
    }

    let mut report = RecoveryReport {
        records: records.len() as u64,
        ..Default::default()
    };

    // ----------------------------------------------------- analysis -----
    let mut committed: HashSet<u64> = HashSet::new();
    let mut all_txns: HashSet<u64> = HashSet::new();
    for rec in &records {
        if let Some(t) = rec.txn() {
            all_txns.insert(t);
        }
        if let LogRecord::TxnCommit { txn } = rec {
            committed.insert(*txn);
        }
        // A cross-shard commit marker counts as a commit only if the
        // configured policy decides the *global* transaction durable —
        // i.e. a marker for `gtxn` survived in every shard of its mask,
        // or some shard's header watermark proves it once had.
        if let LogRecord::TxnCrossCommit { txn, gtxn, .. } = rec {
            if db.cross_commit_decided(*gtxn) {
                committed.insert(*txn);
            }
        }
    }

    // Conservative allocator state: everything reachable from the
    // checkpointed trees plus everything any log record references, so redo
    // splits never allocate pages that hold real data.
    {
        let mut used = db.referenced_extents()?;
        for rec in &records {
            if let LogRecord::Insert {
                value, relation, ..
            }
            | LogRecord::Update {
                new_value: value,
                relation,
                ..
            } = rec
            {
                if *relation == CATALOG_REL_ID {
                    // A relation created after the checkpoint: its root was
                    // force-flushed at DDL time, so the on-device tree is a
                    // valid (typically empty) tree whose extents must be
                    // reserved before redo replays inserts into it.
                    if let Ok((_, _, root, node_pages)) = crate::catalog::decode_entry(value) {
                        let tree = lobster_btree::BTree::open(
                            db.node_pool.clone(),
                            db.alloc.clone(),
                            lobster_sync::Arc::new(lobster_btree::LexCmp),
                            node_pages,
                            root,
                        );
                        used.extend(tree.collect_extents()?);
                    }
                } else if let Ok(state) = BlobState::decode(value) {
                    used.extend(state.extent_specs(&db.table));
                }
            }
            // A relocation references two placements and recovery may
            // keep either (old if the swap's flush was lost, new if it
            // survived) — reserve both until the final rebuild settles it.
            if let LogRecord::BlobRelocate {
                old_value,
                new_value,
                ..
            } = rec
            {
                for value in [old_value, new_value] {
                    if let Ok(state) = BlobState::decode(value) {
                        used.extend(state.extent_specs(&db.table));
                    }
                }
            }
        }
        used.sort_by_key(|e| e.start);
        used.dedup();
        db.alloc.reset_from_extents(&used);
    }

    // SHA-256 validation of committed BLOBs (asynchronous logging only; in
    // physical-logging mode the WAL itself carries the content and redo
    // restores it).
    //
    // The crash window can swallow the content flush of *several* committed
    // transactions at once (the device acknowledges writes it never
    // performs), so validation works on per-key version chains: the *tip*
    // version of every key is validated; if it fails, its transaction joins
    // the failed set, the previous version becomes the tip, and validation
    // repeats until a fixpoint. Non-tip versions are never validated —
    // their extents may have been legitimately recycled by later
    // transactions, which must not fail retroactively.
    // Relations dropped by a committed catalog delete: their blob extents
    // may have been recycled, so their version chains must not be
    // validated (and their rows are gone anyway).
    let mut dropped_rels: HashSet<u32> = HashSet::new();
    for rec in &records {
        if let LogRecord::Delete {
            txn,
            relation: CATALOG_REL_ID,
            old_value,
            ..
        } = rec
        {
            if committed.contains(txn) {
                if let Ok((id, _, _, _)) = crate::catalog::decode_entry(old_value) {
                    dropped_rels.insert(id);
                }
            }
        }
    }

    let validate = matches!(db.cfg.blob_logging, BlobLogging::Async);
    let mut failed: HashSet<u64> = HashSet::new();
    if validate {
        // key -> committed versions in log order; None marks a delete.
        type VersionChain = Vec<(u64, Option<BlobState>)>;
        let mut chains: HashMap<(u32, Vec<u8>), VersionChain> = HashMap::new();
        for rec in &records {
            let (txn, relation, key, value) = match rec {
                LogRecord::Insert {
                    txn,
                    relation,
                    key,
                    value,
                } => (*txn, *relation, key, Some(value)),
                LogRecord::Update {
                    txn,
                    relation,
                    key,
                    new_value,
                    ..
                }
                // A relocation is a placement-only update: its new Blob
                // State joins the version chain like any rewrite, so the
                // SHA fixpoint fails the swap (falling back to the old
                // placement) when its content flush was lost.
                | LogRecord::BlobRelocate {
                    txn,
                    relation,
                    key,
                    new_value,
                    ..
                } => (*txn, *relation, key, Some(new_value)),
                LogRecord::Delete {
                    txn, relation, key, ..
                } => (*txn, *relation, key, None),
                _ => continue,
            };
            if relation == CATALOG_REL_ID
                || dropped_rels.contains(&relation)
                || !committed.contains(&txn)
            {
                continue;
            }
            let is_blob = db
                .relation_by_id(relation)
                .map(|r| r.kind == RelationKind::Blob)
                // Relations created inside the log: assume blob if the
                // value parses as a Blob State.
                .unwrap_or(true);
            if !is_blob {
                continue;
            }
            let version = match value {
                Some(v) => match BlobState::decode(v) {
                    Ok(state) => Some(state),
                    Err(_) => continue,
                },
                None => None,
            };
            chains
                .entry((relation, key.clone()))
                .or_default()
                .push((txn, version));
        }
        // Fixpoint: validate tips, fail their txns, expose earlier tips. A
        // round validates every tip not yet judged in one streaming pass;
        // the fixpoint does not depend on the order a round fails them in.
        let mut verdicts: HashMap<(&(u32, Vec<u8>), usize), bool> = HashMap::new();
        loop {
            let tips: Vec<_> = chains
                .iter()
                .filter_map(|(chain_key, chain)| {
                    let (idx, (txn, state)) = chain
                        .iter()
                        .enumerate()
                        .rev()
                        .find(|(_, (txn, _))| !failed.contains(txn))?;
                    // `None`: the key's tip is a delete.
                    Some(((chain_key, idx), *txn, state.as_ref()?))
                })
                .collect();
            let unjudged: Vec<_> = tips
                .iter()
                .filter(|(at, _, _)| !verdicts.contains_key(at))
                .collect();
            let states: Vec<&BlobState> = unjudged.iter().map(|&&(_, _, state)| state).collect();
            let judged = content::validate_many(db, &states)?;
            for (&&(at, _, _), ok) in unjudged.iter().zip(judged) {
                verdicts.insert(at, ok);
            }
            let mut changed = false;
            for (at, txn, _) in &tips {
                if !verdicts[at] && failed.insert(*txn) {
                    report.sha_failures += 1;
                    // ordering: relaxed metrics counter; snapshot readers tolerate staleness
                    db.metrics.txn_aborts.fetch_add(1, Ordering::Relaxed);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }

    let surviving: HashSet<u64> = committed.difference(&failed).copied().collect();

    // --------------------------------------------------------- redo -----
    for rec in &records {
        match rec {
            LogRecord::Insert {
                txn,
                relation,
                key,
                value,
            } if surviving.contains(txn) => {
                if *relation == CATALOG_REL_ID {
                    let name = String::from_utf8_lossy(key).into_owned();
                    db.catalog_tree.insert(key, value, true)?;
                    if db.relation(&name).is_none() {
                        db.attach_relation(&name, value)?;
                    }
                } else if let Some(rel) = db.relation_by_id(*relation) {
                    rel.tree.insert(key, value, true)?;
                } else {
                    return Err(Error::Corruption(format!(
                        "redo references unknown relation {relation}"
                    )));
                }
            }
            LogRecord::Update {
                txn,
                relation,
                key,
                new_value,
                ..
            }
            | LogRecord::BlobRelocate {
                txn,
                relation,
                key,
                new_value,
                ..
            } if surviving.contains(txn) => {
                if let Some(rel) = db.relation_by_id(*relation) {
                    rel.tree.insert(key, new_value, true)?;
                }
            }
            LogRecord::Delete {
                txn, relation, key, ..
            } if surviving.contains(txn) => {
                if *relation == CATALOG_REL_ID {
                    // A committed relation drop: detach it so the final
                    // allocator rebuild frees its extents.
                    db.catalog_tree.remove(key)?;
                    db.detach_relation(&String::from_utf8_lossy(key));
                } else if let Some(rel) = db.relation_by_id(*relation) {
                    rel.tree.remove(key)?;
                }
            }
            _ => {}
        }
    }

    // ------------------------------------------------- content redo -----
    // Content records are replayed *after* the whole tree redo, so offsets
    // resolve against each key's FINAL committed geometry — never against
    // an intermediate state whose extents a later committed transaction
    // recycled (replaying into recycled extents corrupts the new owner).
    //
    // Asynchronous logging needs no content redo at all: the commit
    // protocol flushes extent content to the device before acknowledging,
    // and the SHA-256 fixpoint above already failed every surviving
    // version whose content is not byte-exact on the device. Physical
    // logging is the opposite — the WAL carries the content and redo is
    // what restores it — but only records of each key's final lineage may
    // be applied: a committed delete or re-put starts a new lineage, and
    // content of the old one must not be written into its recycled extents.
    if matches!(db.cfg.blob_logging, BlobLogging::Physical { .. }) {
        let mut lineage: HashMap<(u32, Vec<u8>), HashSet<u64>> = HashMap::new();
        for rec in &records {
            match rec {
                LogRecord::Insert {
                    txn, relation, key, ..
                } if surviving.contains(txn) && *relation != CATALOG_REL_ID => {
                    let set = lineage.entry((*relation, key.clone())).or_default();
                    set.clear(); // a fresh put starts a new lineage
                    set.insert(*txn);
                }
                // A relocation carries no content records, but it must not
                // break the key's lineage either: earlier chunk records
                // still replay (offsets resolve against the FINAL geometry,
                // i.e. the relocated placement).
                LogRecord::Update {
                    txn, relation, key, ..
                }
                | LogRecord::BlobRelocate {
                    txn, relation, key, ..
                } if surviving.contains(txn) && *relation != CATALOG_REL_ID => {
                    lineage
                        .entry((*relation, key.clone()))
                        .or_default()
                        .insert(*txn);
                }
                LogRecord::Delete {
                    txn, relation, key, ..
                } if surviving.contains(txn) && *relation != CATALOG_REL_ID => {
                    lineage.entry((*relation, key.clone())).or_default().clear();
                }
                _ => {}
            }
        }
        for rec in &records {
            let (txn, relation, key, byte_offset, data) = match rec {
                LogRecord::BlobDelta {
                    txn,
                    relation,
                    key,
                    byte_offset,
                    after,
                    ..
                } => (txn, relation, key, byte_offset, after),
                LogRecord::BlobChunk {
                    txn,
                    relation,
                    key,
                    byte_offset,
                    data,
                } => (txn, relation, key, byte_offset, data),
                _ => continue,
            };
            if !surviving.contains(txn) {
                continue;
            }
            let in_final_lineage = lineage
                .get(&(*relation, key.clone()))
                .map(|set| set.contains(txn))
                .unwrap_or(false);
            if in_final_lineage {
                unpin(db, apply_at_key(db, *relation, key, *byte_offset, data)?);
            }
        }
    }

    // --------------------------------------------------------- undo -----
    for rec in records.iter().rev() {
        let Some(txn) = rec.txn() else { continue };
        if surviving.contains(&txn) {
            continue;
        }
        match rec {
            LogRecord::Insert {
                relation: CATALOG_REL_ID,
                key,
                ..
            } => {
                db.catalog_tree.remove(key)?;
            }
            LogRecord::Update {
                relation: CATALOG_REL_ID,
                key,
                old_value,
                ..
            }
            | LogRecord::Delete {
                relation: CATALOG_REL_ID,
                key,
                old_value,
                ..
            } => {
                // An uncommitted (torn) relation drop: the entry comes
                // back, and with it the relation.
                db.catalog_tree.insert(key, old_value, true)?;
                let name = String::from_utf8_lossy(key).into_owned();
                if db.relation(&name).is_none() {
                    db.attach_relation(&name, old_value)?;
                }
            }
            _ => unpin(db, undo_record(db, rec)?),
        }
    }

    report.committed = surviving.len() as u64;
    report.uncommitted = (all_txns.len() - surviving.len()) as u64;

    // ----------------------------------------------- rebuild & clean ----
    // Image-journaled checkpoint: a crash during these writes replays the
    // same recovery again from intact state.
    db.checkpoint_locked()?;
    // Drop every cached extent: recovery loaded extents of failed and
    // uncommitted transactions whose pages return to the allocator below;
    // leaving them resident would pin stale extent geometry onto pages
    // that later allocations carve up differently.
    db.blob_pool.drop_caches();
    db.node_pool.drop_caches();
    {
        let mut used = db.referenced_extents()?;
        used.sort_by_key(|e| e.start);
        used.dedup();
        db.alloc.reset_from_extents(&used);
    }
    Ok(report)
}

/// Reverse one operation of a transaction that does not commit. This is
/// the whole of undo for relation rows and BLOB bytes, at runtime
/// (`Txn::rollback` walks its staged records backwards through it) and at
/// restart (the undo phase above, which only adds the catalog relation's
/// own handling). Returns the content extents a delta's before-image was
/// written into: dirty, pinned, and owing no flush anyone has staged.
pub(crate) fn undo_record(db: &Database, rec: &LogRecord) -> Result<Vec<ExtentSpec>> {
    match rec {
        LogRecord::Insert { relation, key, .. } => {
            if let Some(rel) = db.relation_by_id(*relation) {
                rel.tree.remove(key)?;
            }
        }
        LogRecord::Update {
            relation,
            key,
            old_value,
            ..
        }
        | LogRecord::Delete {
            relation,
            key,
            old_value,
            ..
        }
        | LogRecord::BlobRelocate {
            relation,
            key,
            old_value,
            ..
        } => {
            if let Some(rel) = db.relation_by_id(*relation) {
                rel.tree.insert(key, old_value, true)?;
            }
        }
        LogRecord::BlobDelta {
            relation,
            key,
            byte_offset,
            before,
            ..
        } => return apply_at_key(db, *relation, key, *byte_offset, before),
        _ => {}
    }
    Ok(Vec::new())
}

/// Write `data` at blob byte `byte_offset` of the blob now stored under
/// `key` (delta undo, delta / physlog redo); nothing if the key is gone.
/// Returns the content extents written.
fn apply_at_key(
    db: &Database,
    relation: u32,
    key: &[u8],
    byte_offset: u64,
    data: &[u8],
) -> Result<Vec<ExtentSpec>> {
    let Some(rel) = db.relation_by_id(relation) else {
        return Ok(Vec::new());
    };
    let Some(state) = rel.tree.lookup_map(key, BlobState::decode)?.transpose()? else {
        return Ok(Vec::new());
    };
    let written = content::apply_bytes(db, &state, byte_offset, data)?;
    Ok(written.into_iter().map(|piece| piece.spec).collect())
}

/// Recovery flushes everything at the end: waive the flush each written
/// extent owes, so the final flush-all can clean it.
fn unpin(db: &Database, written: Vec<ExtentSpec>) {
    for spec in written {
        db.blob_pool.unpin_extent(spec);
    }
}
