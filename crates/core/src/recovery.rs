//! Crash recovery (§III-C "BLOB Recoverability").
//!
//! Recovery is logical, over the post-checkpoint WAL:
//!
//! 1. **Analysis** — scan the log (read once by the open, for every
//!    phase), collect committed transactions, load the allocator from the
//!    free map the last checkpoint wrote (FORMAT.md §1.2) and reserve every
//!    extent a log record names on top, and *validate committed BLOBs'
//!    content against the SHA-256 stored in their Blob State*. Every open
//!    starts from that map: no tree is walked except a relation the log
//!    drops (step 4). A log its header's checkpoint superseded reaches
//!    here empty (`Database::open_with_policy`). A committed Blob
//!    State may point at content that never arrived: the WAL fsync comes
//!    first, and in-place content writes only after it. The SHA check
//!    detects this, and the transaction is moved to the undo list (treated
//!    as failed), exactly as the paper specifies. Only BLOBs committed
//!    after the log's last **data-durable mark** are hashed: the group
//!    committer writes that mark once a data-device sync has covered every
//!    commit up to it (`group_commit`), so a key whose newest version lies
//!    in that prefix — and that no later record touches — is accepted as
//!    it stands. A group's fresh content is synced before its records and
//!    the group marks itself, so what is hashed is the in-place groups
//!    logged after the last mark (deltas, appends into partly filled
//!    extents, relocations): a key with any record after the mark is
//!    validated down its whole version chain, as without a mark. A log
//!    whose commits logged before their content, with no mark after them,
//!    is hashed in full the same way. Validation never goes
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
//!    in reverse log order. Their B-Tree changes never reached the device
//!    (a dirty frame is never evictable, so node changes reach it only
//!    through a checkpoint, which holds committed state only) and redo
//!    skipped them; undo puts their before-images back, in content too: a
//!    failed delta's bytes may have been written in place.
//! 4. **Settle** the allocator — look up each key the log touches once and
//!    free every page a record named that no final Blob State holds; what
//!    a relation the log drops held is walked once ([`lobster_btree::BTree::walk`],
//!    each inner node's children faulted as one batch) and retires with the
//!    next checkpoint — and drop the caches. An open that undid nothing
//!    syncs the data and then the log device, so that what it read from a
//!    crashed process's unsynced writes is durable: the log it replayed
//!    stays the log, and the store runs on from it. One that rolled
//!    something back, or found a checkpoint cut short, or a log with
//!    unchained frames, checkpoints instead, which writes the settled map
//!    and makes the rollback durable.

use crate::blob_state::BlobState;
use crate::catalog::{Relation, RelationKind};
use crate::content;
use crate::db::Database;
use crate::header::{decode_map, MapRef};
use lobster_extent::ExtentSpec;
use lobster_sync::atomic::Ordering;
use lobster_sync::Arc;
use lobster_types::{Error, Result};
use lobster_wal::LogRecord;
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// Outcome of a recovery pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Transactions whose effects were replayed.
    pub committed: u64,
    /// Transactions rolled back: without a commit record, undecided across
    /// shards, or failed by SHA-256 validation.
    pub uncommitted: u64,
    /// Committed transactions failed by BLOB SHA-256 validation.
    pub sha_failures: u64,
    /// BLOB versions whose content was hashed: those committed after the
    /// data-durable mark, plus earlier ones the fixpoint exposed.
    pub validated: u64,
    /// Log records processed.
    pub records: u64,
    /// Index nodes of the relations the log drops, walked once to free
    /// them; 0 for a log that drops none.
    pub index_nodes: u64,
    /// Device read batches that walk issued: at most one per inner node
    /// ([`lobster_btree::BTree::walk`]).
    pub index_batches: u64,
    /// Where the open's time went.
    pub phases: OpenPhases,
}

/// The phases of an open, timed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpenPhases {
    /// Reading the log ([`lobster_wal::Wal::scan`]).
    pub scan: Duration,
    /// Building the node and BLOB buffer pools: their arenas, page tables
    /// and I/O engines.
    pub pools: Duration,
    /// The allocator: loading the checkpoint's free map and settling it
    /// after redo and undo.
    pub allocator: Duration,
    /// SHA-256 validation of committed BLOBs.
    pub validate: Duration,
    /// Redo and undo.
    pub replay: Duration,
    /// The closing checkpoint; zero for an open that undid nothing, which
    /// runs on from its log without one.
    pub checkpoint: Duration,
    /// The sync of the data and then the log device that ends an open which
    /// runs on from its log; zero for one that checkpointed.
    pub sync: Duration,
}

const CATALOG_REL_ID: u32 = 0;

/// Recover `db` from `records`, the durable records of its log as the
/// open read them, starting from `map`, the free map of the checkpoint
/// that began this log. `chained`: the log's frames are chained, so it may
/// run on past this open if nothing is undone.
pub(crate) fn recover(
    db: &Database,
    map: MapRef,
    records: Vec<LogRecord>,
    chained: bool,
) -> Result<RecoveryReport> {
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

    // The data-durable mark: the log index of the last commit record whose
    // content a data-device sync is known to cover. A mark names a commit
    // earlier in this log; one that names none is ignored.
    let mut commit_at: HashMap<u64, usize> = HashMap::new();
    let mut durable_to: Option<usize> = None;
    for (i, rec) in records.iter().enumerate() {
        match rec {
            LogRecord::TxnCommit { txn } | LogRecord::TxnCrossCommit { txn, .. } => {
                commit_at.insert(*txn, i);
            }
            LogRecord::DataDurable { txn } => {
                durable_to = durable_to.max(commit_at.get(txn).copied());
            }
            _ => {}
        }
    }

    // Conservative allocator state: the checkpoint's free map with
    // everything a log record names reserved on top, so redo splits never
    // allocate pages that hold real data.
    let t = Instant::now();
    let (new_trees, named) = named_extents(db, &records)?;
    let free = read_map(db, &map)?;
    db.alloc
        .reset_from_free(&free, &[new_trees, named.clone()].concat());
    db.retiring.lock().push(map.extent);
    report.phases.allocator = t.elapsed();

    // SHA-256 validation of committed BLOBs. The log carries Blob States,
    // never content that redo could restore (a `BlobChunk` record is never
    // applied), so a version whose content is not byte-exact on the device
    // fails its transaction.
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

    let t = Instant::now();
    let mut failed: HashSet<u64> = HashSet::new();
    // Keys some record touches after the mark, whatever became of its
    // transaction: a later in-place write may have torn a version the
    // mark covers, so their chains are validated all the way down.
    let after_mark: HashSet<(u32, &[u8])> = match durable_to {
        Some(at) => records[at + 1..].iter().filter_map(key_of).collect(),
        None => HashSet::new(),
    };
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
    // A tip the mark vouches for: the newest version of a key nothing
    // after the mark touches, committed inside the prefix.
    let durable = |(chain_key, idx): (&(u32, Vec<u8>), usize), txn: u64| {
        let Some(to) = durable_to else { return false };
        idx + 1 == chains[chain_key].len()
            && commit_at.get(&txn).is_some_and(|&at| at <= to)
            && !after_mark.contains(&(chain_key.0, chain_key.1.as_slice()))
    };
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
        let mut unjudged = Vec::new();
        for tip @ &(at, txn, _) in &tips {
            if verdicts.contains_key(&at) {
                continue;
            }
            if durable(at, txn) {
                verdicts.insert(at, true);
            } else {
                unjudged.push(tip);
            }
        }
        let states: Vec<&BlobState> = unjudged.iter().map(|&&(_, _, state)| state).collect();
        report.validated += states.len() as u64;
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

    let surviving: HashSet<u64> = committed.difference(&failed).copied().collect();
    report.phases.validate = t.elapsed();

    // --------------------------------------------------------- redo -----
    let t = Instant::now();
    // Relations a surviving record drops; the settle frees what they hold.
    let mut dropped: Vec<Arc<Relation>> = Vec::new();
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
                    // A committed relation drop: detach it; the settle
                    // frees its extents.
                    let name = String::from_utf8_lossy(key);
                    db.catalog_tree.remove(key)?;
                    dropped.extend(db.relation(&name));
                    db.detach_relation(&name);
                } else if let Some(rel) = db.relation_by_id(*relation) {
                    rel.tree.remove(key)?;
                }
            }
            _ => {}
        }
    }

    // --------------------------------------------------------- undo -----
    // A delta's before-image goes back into the version the delta changed
    // only once undo is done, and only if that version is the key's final
    // one: a version that did not survive may have had its extents
    // recycled by a later transaction that did.
    let mut deltas: Vec<(&LogRecord, Option<Vec<u8>>)> = Vec::new();
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
            LogRecord::BlobDelta { relation, key, .. } => {
                deltas.push((rec, stored_value(db, *relation, key)?));
            }
            _ => unpin(db, undo_record(db, rec)?),
        }
    }
    for (rec, changed) in deltas {
        if let LogRecord::BlobDelta { relation, key, .. } = rec {
            if changed.is_some() && stored_value(db, *relation, key)? == changed {
                unpin(db, undo_record(db, rec)?);
            }
        }
    }

    report.committed = surviving.len() as u64;
    report.uncommitted = (all_txns.len() - surviving.len()) as u64;
    report.phases.replay = t.elapsed();

    // ------------------------------------------------------- settle -----
    // Release every page a record named that no final Blob State holds —
    // versions replaced, deleted or rolled back — looked up once per key
    // the log touches. What the relations the log drops held stays in use
    // until a checkpoint's header names a map without it: a crash before
    // that replays the drop and walks the dropped trees again.
    let t = Instant::now();
    let mut kept = Vec::new();
    let mut touched = HashSet::new();
    for (relation, key) in records.iter().filter_map(key_of) {
        if !touched.insert((relation, key)) {
            continue;
        }
        let Some(rel) = db.relation_by_id(relation) else {
            continue;
        };
        if rel.kind == RelationKind::Blob {
            let state = rel.tree.lookup_map(key, BlobState::decode)?.transpose()?;
            kept.extend(state.iter().flat_map(|s| s.extent_specs(&db.table)));
        }
    }
    let (mut gone, mut nodes) = (Vec::new(), Vec::new());
    for rel in &dropped {
        let blob = rel.kind == RelationKind::Blob;
        report.index_batches += db.tree_extents(&rel.tree, blob, &mut nodes, &mut gone)?;
    }
    report.index_nodes = nodes.len() as u64;
    gone.append(&mut nodes);
    let gone = uncovered(gone, kept.clone());
    kept.extend_from_slice(&gone);
    for spec in uncovered(named, kept) {
        db.alloc.free_extent(spec);
    }
    db.retiring.lock().extend(gone);
    report.phases.allocator += t.elapsed();

    // An open that undid nothing ends without a checkpoint: no transaction
    // was rolled back (`uncommitted` counts the SHA-failed and undecided
    // cross-shard ones too) and no checkpoint was cut short (no page
    // image), so the device holds the last checkpoint's tree — a dirty
    // frame is never evictable — and the replayed log, run on by this
    // session, reads like one an uncrashed session wrote. The next
    // checkpoint writes the settled map. Otherwise the closing checkpoint
    // makes the rollback durable; it is image-journaled, so a crash during
    // its writes replays the same recovery again from intact state.
    let images = records
        .iter()
        .any(|r| matches!(r, LogRecord::PageImage { .. }));
    let t = Instant::now();
    if report.uncommitted != 0 || images || !chained {
        db.checkpoint_locked()?;
        report.phases.checkpoint = t.elapsed();
    } else {
        // What recovery read and validated may sit in a cache only: a
        // process that crashed with the machine up leaves log frames and
        // in-place content it wrote but never synced. Both are made
        // durable before the store serves them, the content first, as a
        // commit orders them: a power cut later must not take back a
        // version this open exposed.
        db.device.sync()?;
        db.wal.sync()?;
        report.phases.sync = t.elapsed();
    }
    // Drop every cached extent: recovery loaded extents of failed and
    // uncommitted transactions whose pages went back to the allocator;
    // leaving them resident would pin stale extent geometry onto pages
    // that later allocations carve up differently.
    db.blob_pool.drop_caches();
    db.node_pool.drop_caches();
    Ok(report)
}

/// Everything the log's records name, reserved before redo: the nodes of
/// every relation the log creates (its root was flushed at DDL time) and
/// the extents of every Blob State a record of a BLOB relation holds, old
/// and new. A relocation names two placements and recovery may keep
/// either. Only the second list is released again where no final Blob
/// State holds it.
fn named_extents(
    db: &Database,
    records: &[LogRecord],
) -> Result<(Vec<ExtentSpec>, Vec<ExtentSpec>)> {
    let (mut trees, mut named) = (Vec::new(), Vec::new());
    let mut created: HashMap<u32, RelationKind> = HashMap::new();
    for rec in records {
        let (relation, values): (u32, [Option<&Vec<u8>>; 2]) = match rec {
            LogRecord::Insert {
                relation, value, ..
            } => (*relation, [Some(value), None]),
            LogRecord::Update {
                relation,
                old_value,
                new_value,
                ..
            }
            | LogRecord::BlobRelocate {
                relation,
                old_value,
                new_value,
                ..
            } => (*relation, [Some(old_value), Some(new_value)]),
            LogRecord::Delete {
                relation,
                old_value,
                ..
            } => (*relation, [Some(old_value), None]),
            _ => continue,
        };
        if relation == CATALOG_REL_ID {
            // A relation created after the checkpoint: its root was
            // force-flushed at DDL time, so the on-device tree is a valid
            // (typically empty) tree whose extents redo must not reuse.
            if let LogRecord::Insert { value, .. } = rec {
                if let Ok((id, kind, root, node_pages)) = crate::catalog::decode_entry(value) {
                    created.insert(id, kind);
                    let tree = lobster_btree::BTree::open(
                        db.node_pool.clone(),
                        db.alloc.clone(),
                        Arc::new(lobster_btree::LexCmp),
                        node_pages,
                        root,
                    );
                    trees.extend(tree.collect_extents()?);
                }
            }
            continue;
        }
        let kind = db.relation_by_id(relation).map(|r| r.kind);
        if kind.or(created.get(&relation).copied()) != Some(RelationKind::Blob) {
            continue;
        }
        for value in values.into_iter().flatten() {
            if let Ok(state) = BlobState::decode(value) {
                named.extend(state.extent_specs(&db.table));
            }
        }
    }
    Ok((trees, named))
}

/// Read and check the free map `map` names.
fn read_map(db: &Database, map: &MapRef) -> Result<Vec<ExtentSpec>> {
    let page_capacity = db.device.capacity() / db.geo.page_size() as u64;
    let end = map.extent.start.raw().checked_add(map.extent.pages);
    let fits = end.is_some_and(|end| end <= page_capacity)
        && map.len <= db.geo.bytes_for(map.extent.pages);
    if !fits {
        return Err(Error::Corruption(format!("free map {map:?} out of range")));
    }
    let mut bytes = vec![0u8; map.len as usize];
    db.device
        .read_at(&mut bytes, db.geo.offset_of(map.extent.start))?;
    decode_map(&bytes, page_capacity)
}

/// The pages of `gone` that no extent of `kept` covers, as disjoint
/// extents.
fn uncovered(gone: Vec<ExtentSpec>, kept: Vec<ExtentSpec>) -> Vec<ExtentSpec> {
    let ranges = |extents: Vec<ExtentSpec>| {
        (lobster_extent::union(extents).into_iter())
            .map(|e| (e.start.raw(), e.start.raw() + e.pages))
    };
    let mut kept = ranges(kept).peekable();
    let mut out = Vec::new();
    for (start, end) in ranges(gone) {
        let mut at = start;
        while let Some(&(ks, ke)) = kept.peek() {
            if ke <= at {
                kept.next();
                continue;
            }
            if ks >= end {
                break;
            }
            if ks > at {
                out.push((at, ks));
            }
            at = ke;
            if at >= end {
                break; // it may cover the next range too
            }
            kept.next();
        }
        if at < end {
            out.push((at, end));
        }
    }
    (out.into_iter())
        .map(|(s, e)| ExtentSpec::new(lobster_types::Pid::new(s), e - s))
        .collect()
}

/// The `(relation, key)` a record writes, if it writes one.
fn key_of(rec: &LogRecord) -> Option<(u32, &[u8])> {
    match rec {
        LogRecord::Insert { relation, key, .. }
        | LogRecord::Update { relation, key, .. }
        | LogRecord::Delete { relation, key, .. }
        | LogRecord::BlobDelta { relation, key, .. }
        | LogRecord::BlobChunk { relation, key, .. }
        | LogRecord::BlobRelocate { relation, key, .. } => Some((*relation, key)),
        _ => None,
    }
}

/// Reverse one operation of a transaction that does not commit. This is
/// the whole of undo for relation rows and BLOB bytes, at runtime
/// (`Txn::rollback` walks its staged records backwards through it) and at
/// restart (the undo phase above, which adds the catalog relation's own
/// handling and applies a delta only to a version that survives). Returns the content extents a delta's before-image was
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
/// `key` (delta undo); nothing if the key is gone.
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

/// The value `key` holds in `relation` now, if both exist.
fn stored_value(db: &Database, relation: u32, key: &[u8]) -> Result<Option<Vec<u8>>> {
    match db.relation_by_id(relation) {
        Some(rel) => rel.tree.lookup(key),
        None => Ok(None),
    }
}

/// Waive the flush each extent an undo wrote owes, so the closing
/// checkpoint's flush-all writes and cleans it. Only an open that rolled
/// something back writes any, and such an open always checkpoints.
fn unpin(db: &Database, written: Vec<ExtentSpec>) {
    for spec in written {
        db.blob_pool.unpin_extent(spec);
    }
}
