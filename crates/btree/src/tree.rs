//! The paged B+Tree.
//!
//! * Nodes live in buffer-pool extents of `node_pages` pages and use the
//!   slotted layout of [`crate::node`].
//! * **Leaf nodes apply prefix truncation** when the comparator is
//!   byte-wise (`KeyCmp::bytewise`) — the optimization §V-H credits for the
//!   1K-prefix index reaching the same height as the Blob State index.
//!   Inner nodes store full separator keys, which bounds the space a split
//!   can require in the parent.
//! * Writers descend with exclusive lock coupling and split *preemptively*:
//!   any child that could not absorb a worst-case insert is split while its
//!   parent is still held, so splits never propagate upwards.
//! * Readers descend with shared lock coupling; range scans follow the leaf
//!   chain.
//! * The root PID is stable: a root split moves both halves into fresh
//!   nodes and rewrites the root in place, so catalogs never need updating.

use crate::node::{Node, HEADER, KIND_INNER, KIND_LEAF, SLOT};
use lobster_buffer::{ExtentPool, ShGuard, XGuard};
use lobster_extent::{ExtentAllocator, ExtentSpec};
use lobster_sync::atomic::Ordering as AtomicOrdering;
use lobster_sync::Arc;
use lobster_types::{Error, Pid, Result, INVALID_PID};
use std::cmp::Ordering;

/// Key comparator for a tree.
pub trait KeyCmp: Send + Sync {
    /// Order `stored` against `probe`. A comparator that has to read what
    /// the keys refer to can fail; the tree operation that asked then
    /// returns the error, before it has changed any entry.
    fn cmp_keys(&self, stored: &[u8], probe: &[u8]) -> Result<Ordering>;

    /// `true` iff `cmp_keys` is plain byte-wise comparison; enables leaf
    /// prefix truncation.
    fn bytewise(&self) -> bool {
        false
    }
}

/// Byte-wise lexicographic comparison (the common case).
pub struct LexCmp;

impl KeyCmp for LexCmp {
    fn cmp_keys(&self, stored: &[u8], probe: &[u8]) -> Result<Ordering> {
        Ok(stored.cmp(probe))
    }

    fn bytewise(&self) -> bool {
        true
    }
}

/// Aggregate statistics of a tree (reported in Table III).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TreeStats {
    pub height: u32,
    pub nodes: u64,
    pub leaves: u64,
    pub entries: u64,
    /// Live bytes across all nodes (headers + prefixes + slots + payloads).
    pub used_bytes: u64,
    /// Total bytes of all allocated nodes.
    pub capacity_bytes: u64,
}

/// A paged B+Tree over an [`ExtentPool`].
pub struct BTree {
    pool: Arc<ExtentPool>,
    alloc: Arc<ExtentAllocator>,
    cmp: Arc<dyn KeyCmp>,
    root: Pid,
    node_pages: u64,
}

impl BTree {
    /// Create a new empty tree; allocates the root leaf.
    pub fn create(
        pool: Arc<ExtentPool>,
        alloc: Arc<ExtentAllocator>,
        cmp: Arc<dyn KeyCmp>,
        node_pages: u64,
    ) -> Result<Self> {
        let root_spec = alloc.allocate_tail(node_pages)?;
        {
            let mut g = pool.create_extent(root_spec)?;
            Node::init(&mut g, KIND_LEAF);
            g.mark_dirty();
        }
        Ok(BTree {
            pool,
            alloc,
            cmp,
            root: root_spec.start,
            node_pages,
        })
    }

    /// Reattach to an existing tree rooted at `root`.
    pub fn open(
        pool: Arc<ExtentPool>,
        alloc: Arc<ExtentAllocator>,
        cmp: Arc<dyn KeyCmp>,
        node_pages: u64,
        root: Pid,
    ) -> Self {
        BTree {
            pool,
            alloc,
            cmp,
            root,
            node_pages,
        }
    }

    pub fn root(&self) -> Pid {
        self.root
    }

    pub fn node_pages(&self) -> u64 {
        self.node_pages
    }

    fn node_bytes(&self) -> usize {
        (self.node_pages as usize) * self.pool.geometry().page_size()
    }

    /// Largest `key+value+slot` size an entry may have (quarter-node rule,
    /// guaranteeing a split always makes room).
    pub fn max_entry(&self) -> usize {
        (self.node_bytes() - HEADER) / 4
    }

    fn spec(&self, pid: Pid) -> ExtentSpec {
        ExtentSpec::new(pid, self.node_pages)
    }

    fn bump_node_access(&self) {
        self.pool
            .metrics()
            .btree_node_accesses
            .fetch_add(1, AtomicOrdering::Relaxed); // ordering: relaxed metrics counter; snapshot readers tolerate staleness
    }

    // ----------------------------------------------------- comparisons ---

    /// Compare the stored key of slot `i` against `probe`.
    fn cmp_at(&self, buf: &[u8], i: usize, probe: &[u8]) -> Result<Ordering> {
        let suffix = Node::key_suffix(buf, i);
        if !self.cmp.bytewise() {
            return self.cmp.cmp_keys(suffix, probe);
        }
        let prefix = Node::prefix(buf);
        let plen = prefix.len();
        let m = plen.min(probe.len());
        Ok(match prefix[..m].cmp(&probe[..m]) {
            Ordering::Equal => {
                if probe.len() < plen {
                    Ordering::Greater
                } else {
                    suffix.cmp(&probe[plen..])
                }
            }
            other => other,
        })
    }

    /// First slot whose key is `>= probe`; bool is "exact match".
    fn lower_bound(&self, buf: &[u8], probe: &[u8]) -> Result<(usize, bool)> {
        let mut lo = 0usize;
        let mut hi = Node::count(buf);
        let mut exact = false;
        while lo < hi {
            let mid = (lo + hi) / 2;
            match self.cmp_at(buf, mid, probe)? {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => {
                    exact = true;
                    hi = mid;
                }
            }
        }
        Ok((lo, exact))
    }

    fn pick_child(&self, buf: &[u8], probe: &[u8]) -> Result<Pid> {
        let (i, _) = self.lower_bound(buf, probe)?;
        Ok(if i < Node::count(buf) {
            Node::child(buf, i)
        } else {
            Node::upper(buf)
        })
    }

    // ---------------------------------------------------------- lookup ---

    /// Point lookup; applies `f` to the value if present.
    pub fn lookup_map<R>(&self, key: &[u8], f: impl FnOnce(&[u8]) -> R) -> Result<Option<R>> {
        let mut guard: ShGuard<'_> = self.pool.read_extent(self.spec(self.root))?;
        loop {
            self.bump_node_access();
            if Node::is_leaf(&guard) {
                let (i, exact) = self.lower_bound(&guard, key)?;
                return Ok(if exact {
                    Some(f(Node::value(&guard, i)))
                } else {
                    None
                });
            }
            let child = self.pick_child(&guard, key)?;
            guard = self.pool.read_extent(self.spec(child))?;
        }
    }

    /// Point lookup returning an owned value.
    pub fn lookup(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.lookup_map(key, |v| v.to_vec())
    }

    pub fn contains(&self, key: &[u8]) -> Result<bool> {
        Ok(self.lookup_map(key, |_| ())?.is_some())
    }

    // ---------------------------------------------------------- insert ---

    /// Insert `key -> value`. With `overwrite` the value of an existing key
    /// is replaced; otherwise an existing key is a [`Error::KeyExists`].
    /// Returns `true` if a new key was inserted.
    pub fn insert(&self, key: &[u8], value: &[u8], overwrite: bool) -> Result<bool> {
        Ok(self.insert_impl(key, value, overwrite)?.is_none())
    }

    /// Insert or overwrite in a single descent; returns the previous value
    /// if the key existed (the hot path for logged updates, which need the
    /// before image anyway).
    pub fn upsert(&self, key: &[u8], value: &[u8]) -> Result<Option<Vec<u8>>> {
        self.insert_impl(key, value, true)
    }

    fn insert_impl(&self, key: &[u8], value: &[u8], overwrite: bool) -> Result<Option<Vec<u8>>> {
        if key.len() + 8 + SLOT > self.max_entry()
            || key.len() + value.len() + SLOT > self.max_entry()
        {
            return Err(Error::InvalidArgument(format!(
                "entry of {} + {} bytes exceeds max entry {}",
                key.len(),
                value.len(),
                self.max_entry()
            )));
        }
        'restart: loop {
            let mut parent: Option<XGuard<'_>> = None;
            let mut cur_pid = self.root;
            let mut cur = self.pool.write_extent(self.spec(cur_pid))?;
            loop {
                self.bump_node_access();
                if !self.node_is_safe(&cur, key) {
                    match parent.take() {
                        None => {
                            // cur is the root.
                            self.split_root(&mut cur)?;
                            drop(cur);
                            continue 'restart;
                        }
                        Some(mut p) => {
                            self.split_child(&mut p, cur_pid, cur)?;
                            // Re-pick the child from the parent.
                            cur_pid = self.pick_child(&p, key)?;
                            cur = self.pool.write_extent(self.spec(cur_pid))?;
                            parent = Some(p);
                            continue;
                        }
                    }
                }
                // Node is safe: parent can be released.
                drop(parent.take());
                if Node::is_leaf(&cur) {
                    let old = self.leaf_insert(&mut cur, key, value, overwrite)?;
                    cur.mark_dirty();
                    return Ok(old);
                }
                let child = self.pick_child(&cur, key)?;
                parent = Some(cur);
                cur_pid = child;
                cur = self.pool.write_extent(self.spec(cur_pid))?;
            }
        }
    }

    /// Worst-case room check used during the preemptive-split descent.
    fn node_is_safe(&self, buf: &[u8], probe: &[u8]) -> bool {
        if Node::is_leaf(buf) {
            self.leaf_fits(buf, probe, self.max_entry())
        } else {
            // Inner nodes store full separators (no prefix), so the largest
            // separator a child split can promote is max_entry bytes.
            Node::free_space_after_compaction(buf) >= self.max_entry() + SLOT + 8
        }
    }

    /// Exact room check for inserting `key` with a value of `vlen` bytes
    /// into a leaf, accounting for the prefix rebuild an out-of-prefix key
    /// forces.
    fn leaf_fits(&self, buf: &[u8], key: &[u8], entry_budget: usize) -> bool {
        let plen = Node::prefix_len(buf);
        let common = common_prefix_len(Node::prefix(buf), key);
        let growth = (plen - common) * Node::count(buf);
        Node::free_space_after_compaction(buf) >= entry_budget + SLOT + growth
    }

    /// Returns the previous value if the key already existed.
    fn leaf_insert(
        &self,
        buf: &mut [u8],
        key: &[u8],
        value: &[u8],
        overwrite: bool,
    ) -> Result<Option<Vec<u8>>> {
        // Shrink the prefix if the new key falls outside it.
        if self.cmp.bytewise() {
            let common = common_prefix_len(Node::prefix(buf), key);
            if common < Node::prefix_len(buf) {
                let new_prefix = key[..common].to_vec();
                Node::rebuild_with_prefix(buf, &new_prefix);
            }
        }
        let (i, exact) = self.lower_bound(buf, key)?;
        if exact {
            if !overwrite {
                return Err(Error::KeyExists);
            }
            let old = Node::value(buf, i).to_vec();
            Node::update_value(buf, i, value);
            return Ok(Some(old));
        }
        let plen = Node::prefix_len(buf);
        debug_assert!(!self.cmp.bytewise() || key.len() >= plen);
        let suffix = if self.cmp.bytewise() {
            &key[plen..]
        } else {
            key
        };
        Node::insert_at(buf, i, suffix, value);
        Ok(None)
    }

    // ----------------------------------------------------------- split ---

    /// Split `child` (held exclusively) under `parent` (held exclusively).
    /// The left half keeps the child's PID; the right half gets a new node.
    fn split_child(
        &self,
        parent: &mut XGuard<'_>,
        child_pid: Pid,
        mut child: XGuard<'_>,
    ) -> Result<()> {
        let right_spec = self.alloc.allocate_tail(self.node_pages)?;
        let mut right = self.pool.create_extent(right_spec)?;

        let sep = self.split_node(&mut child, &mut right, right_spec.start)?;

        // Hook the right node into the parent: the slot that pointed at
        // child now points at right (same separator range top), and a new
        // slot (sep -> child) covers the left half.
        let count = Node::count(parent);
        let mut at = count; // position of child's pointer
        for i in 0..count {
            if Node::child(parent, i) == child_pid {
                at = i;
                break;
            }
        }
        if at == count {
            debug_assert_eq!(Node::upper(parent), child_pid);
            Node::set_upper(parent, right_spec.start);
        } else {
            Node::update_value(parent, at, &right_spec.start.raw().to_le_bytes());
        }
        Node::insert_at(parent, at, &sep, &child_pid.raw().to_le_bytes());
        parent.mark_dirty();
        child.mark_dirty();
        right.mark_dirty();
        Ok(())
    }

    /// Split the root in place: move both halves to fresh nodes and turn
    /// the root into an inner node, keeping its PID stable.
    fn split_root(&self, root: &mut XGuard<'_>) -> Result<()> {
        let left_spec = self.alloc.allocate_tail(self.node_pages)?;
        let right_spec = self.alloc.allocate_tail(self.node_pages)?;
        let mut left = self.pool.create_extent(left_spec)?;
        let mut right = self.pool.create_extent(right_spec)?;

        // Move the root's content into `left`, then split left into right.
        left.copy_from_slice(root);
        let sep = self.split_node(&mut left, &mut right, right_spec.start)?;

        Node::init(root, KIND_INNER);
        Node::insert_at(root, 0, &sep, &left_spec.start.raw().to_le_bytes());
        Node::set_upper(root, right_spec.start);
        root.mark_dirty();
        left.mark_dirty();
        right.mark_dirty();
        Ok(())
    }

    /// Move the upper half of `left`'s entries into the empty node `right`
    /// (at `right_pid`); returns the separator (full) key: left covers keys
    /// `<= sep`, right covers `> sep`.
    fn split_node(&self, left: &mut [u8], right: &mut [u8], right_pid: Pid) -> Result<Vec<u8>> {
        let count = Node::count(left);
        if count < 2 {
            return Err(Error::Corruption(
                "cannot split node with fewer than 2 entries".into(),
            ));
        }
        let is_leaf = Node::is_leaf(left);
        let mid = count / 2;

        let entries: Vec<(Vec<u8>, Vec<u8>)> = (0..count)
            .map(|i| (Node::full_key(left, i), Node::value(left, i).to_vec()))
            .collect();

        let (sep, left_entries, right_entries, left_upper, right_upper) = if is_leaf {
            (
                entries[mid - 1].0.clone(),
                &entries[..mid],
                &entries[mid..],
                INVALID_PID,
                INVALID_PID,
            )
        } else {
            // Promote entries[mid].key; its child becomes left's upper.
            (
                entries[mid].0.clone(),
                &entries[..mid],
                &entries[mid + 1..],
                Pid::new(lobster_types::read_u64(&entries[mid].1)),
                Node::upper(left),
            )
        };

        let next = Node::next_leaf(left);
        let kind = if is_leaf { KIND_LEAF } else { KIND_INNER };

        Node::init(right, kind);
        self.fill_node(right, right_entries);
        Node::init(left, kind);
        self.fill_node(left, left_entries);

        if is_leaf {
            // Chain: left -> right -> old next.
            Node::set_next(left, right_pid);
            Node::set_next(right, next);
        } else {
            Node::set_upper(left, left_upper);
            Node::set_upper(right, right_upper);
        }
        Ok(sep)
    }

    /// Bulk-fill an empty node with sorted full-key entries, choosing the
    /// best shared prefix (leaves with byte-wise comparators only).
    fn fill_node(&self, buf: &mut [u8], entries: &[(Vec<u8>, Vec<u8>)]) {
        if entries.is_empty() {
            return;
        }
        let prefix_len = if Node::is_leaf(buf) && self.cmp.bytewise() {
            common_prefix_len(&entries[0].0, &entries[entries.len() - 1].0)
        } else {
            0
        };
        Node::set_prefix_of_empty(buf, &entries[0].0[..prefix_len]);
        for (i, (k, v)) in entries.iter().enumerate() {
            Node::insert_at(buf, i, &k[prefix_len..], v);
        }
    }

    // ---------------------------------------------------------- delete ---

    /// Remove `key`; returns its value if it existed. Nodes are not
    /// rebalanced on deletion (standard engine practice); emptied leaves
    /// are left in place and skipped by scans.
    pub fn remove(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let mut parent: Option<ShGuard<'_>> = None;
        let mut cur_pid = self.root;
        loop {
            // Peek the node type with a shared latch; re-acquire the leaf
            // exclusively (the parent guard pins the path).
            let g = self.pool.read_extent(self.spec(cur_pid))?;
            self.bump_node_access();
            if Node::is_leaf(&g) {
                drop(g);
                let mut leaf = self.pool.write_extent(self.spec(cur_pid))?;
                let (i, exact) = self.lower_bound(&leaf, key)?;
                if !exact {
                    return Ok(None);
                }
                let old = Node::value(&leaf, i).to_vec();
                Node::remove_at(&mut leaf, i);
                leaf.mark_dirty();
                drop(parent);
                return Ok(Some(old));
            }
            let child = self.pick_child(&g, key)?;
            parent = Some(g);
            cur_pid = child;
        }
    }

    // ----------------------------------------------------------- scans ---

    /// Visit entries with keys `>= start` in order until `f` returns
    /// `false`.
    pub fn scan_from(&self, start: &[u8], mut f: impl FnMut(&[u8], &[u8]) -> bool) -> Result<()> {
        let mut guard = self.pool.read_extent(self.spec(self.root))?;
        loop {
            self.bump_node_access();
            if Node::is_leaf(&guard) {
                break;
            }
            let child = self.pick_child(&guard, start)?;
            guard = self.pool.read_extent(self.spec(child))?;
        }
        let (mut i, _) = self.lower_bound(&guard, start)?;
        loop {
            let count = Node::count(&guard);
            while i < count {
                let key = Node::full_key(&guard, i);
                if !f(&key, Node::value(&guard, i)) {
                    return Ok(());
                }
                i += 1;
            }
            let next = Node::next_leaf(&guard);
            if !next.is_valid() {
                return Ok(());
            }
            guard = self.pool.read_extent(self.spec(next))?;
            self.bump_node_access();
            i = 0;
        }
    }

    /// Visit every entry in key order. Unlike [`BTree::scan_from`], this
    /// descends to the leftmost leaf without invoking the comparator, so it
    /// works with comparators that require well-formed keys.
    pub fn for_each(&self, mut f: impl FnMut(&[u8], &[u8]) -> bool) -> Result<()> {
        let mut guard = self.pool.read_extent(self.spec(self.root))?;
        loop {
            self.bump_node_access();
            if Node::is_leaf(&guard) {
                break;
            }
            let child = if Node::count(&guard) > 0 {
                Node::child(&guard, 0)
            } else {
                Node::upper(&guard)
            };
            guard = self.pool.read_extent(self.spec(child))?;
        }
        let mut i = 0;
        loop {
            let count = Node::count(&guard);
            while i < count {
                let key = Node::full_key(&guard, i);
                if !f(&key, Node::value(&guard, i)) {
                    return Ok(());
                }
                i += 1;
            }
            let next = Node::next_leaf(&guard);
            if !next.is_valid() {
                return Ok(());
            }
            guard = self.pool.read_extent(self.spec(next))?;
            self.bump_node_access();
            i = 0;
        }
    }

    // ------------------------------------------------------ statistics ---

    /// Full-traversal statistics.
    pub fn stats(&self) -> Result<TreeStats> {
        let mut s = TreeStats::default();
        self.walk(|_, buf, depth| {
            s.nodes += 1;
            s.height = s.height.max(depth);
            s.used_bytes += Node::used_bytes(buf) as u64;
            s.capacity_bytes += buf.len() as u64;
            if Node::is_leaf(buf) {
                s.leaves += 1;
                s.entries += Node::count(buf) as u64;
            }
            Ok(())
        })?;
        Ok(s)
    }

    /// Collect the extent of every node (for allocator rebuild after
    /// recovery).
    pub fn collect_extents(&self) -> Result<Vec<ExtentSpec>> {
        let mut out = Vec::new();
        self.walk(|spec, _, _| {
            out.push(spec);
            Ok(())
        })?;
        Ok(out)
    }

    /// Visit every node, parent before children, with its extent, its bytes
    /// (under a shared latch) and its depth (the root is 1). Before the walk
    /// descends from an inner node it faults all of that node's children as
    /// one device batch, so their read latencies overlap: a cold walk costs
    /// about one device round trip per inner node, not one per node. Returns
    /// the number of batches that brought nodes in.
    ///
    /// Batching is best effort. A batch is capped at the pool's free
    /// frames, and one that cannot be brought in (no frames, an I/O error)
    /// leaves its nodes to the per-node read that follows, which reports
    /// any error as a lone read would. So a walk visits every node or fails
    /// with the device's error; it never stops short.
    pub fn walk(&self, mut visit: impl FnMut(ExtentSpec, &[u8], u32) -> Result<()>) -> Result<u64> {
        self.walk_from(self.spec(self.root), 1, &mut visit)
    }

    fn walk_from(
        &self,
        spec: ExtentSpec,
        depth: u32,
        visit: &mut impl FnMut(ExtentSpec, &[u8], u32) -> Result<()>,
    ) -> Result<u64> {
        let mut children = Vec::new();
        {
            let g = self.pool.read_extent(spec)?;
            visit(spec, &g, depth)?;
            if !Node::is_leaf(&g) {
                let pids = (0..Node::count(&g)).map(|i| Node::child(&g, i));
                children.extend(pids.chain([Node::upper(&g)]).map(|pid| self.spec(pid)));
            }
        }
        let free = self
            .pool
            .frame_count()
            .saturating_sub(self.pool.frames_in_use());
        let fit = children.len().min((free / self.node_pages) as usize);
        // A batch counts if it read anything; its error is the per-node
        // reads' to report.
        let mut batches = u64::from(matches!(self.pool.fault_many(&children[..fit]), Ok(1..)));
        for child in children {
            batches += self.walk_from(child, depth + 1, visit)?;
        }
        Ok(batches)
    }
}

fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}
