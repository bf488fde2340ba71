//! Record-level two-phase locking with wait-die conflict resolution
//! (§III-H "Concurrency control for BLOBs").
//!
//! Locks are taken on `(relation, key)` Blob State records: a transaction
//! that updates a BLOB holds an exclusive lock on its record; readers hold
//! shared locks. Wait-die keeps it deadlock-free: an older transaction
//! (smaller id) waits for a younger holder, a younger requester aborts
//! immediately ([`lobster_types::Error::TxnConflict`]).

use lobster_sync::Mutex;
use lobster_types::{Error, Result};
use std::collections::HashMap;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockMode {
    Shared,
    Exclusive,
}

#[derive(Debug, Default)]
struct LockState {
    /// Shared holders (txn ids); exclusive iff `exclusive` is set.
    shared: Vec<u64>,
    exclusive: Option<u64>,
}

impl LockState {
    fn is_free(&self) -> bool {
        self.shared.is_empty() && self.exclusive.is_none()
    }

    fn min_holder(&self) -> Option<u64> {
        self.exclusive
            .into_iter()
            .chain(self.shared.iter().copied())
            .min()
    }

    /// Grant `mode` to `txn` if the holders allow it. `Ok(false)` means an
    /// older `txn` must wait; a younger one dies (wait-die).
    fn try_grant(&mut self, txn: u64, mode: LockMode) -> Result<bool> {
        let blocker = match (mode, self.exclusive) {
            (_, Some(holder)) if holder == txn => return Ok(true),
            (LockMode::Shared, None) => {
                if !self.shared.contains(&txn) {
                    self.shared.push(txn);
                }
                return Ok(true);
            }
            (LockMode::Exclusive, None) if self.shared.iter().all(|&t| t == txn) => {
                // Free, or `txn` is the solo shared holder: upgrade.
                self.shared.clear();
                self.exclusive = Some(txn);
                return Ok(true);
            }
            (LockMode::Shared, Some(holder)) => holder,
            (LockMode::Exclusive, _) => self.min_holder().unwrap_or(txn),
        };
        if txn > blocker {
            return Err(Error::TxnConflict);
        }
        Ok(false)
    }
}

/// Lock-table shards; a transaction's set of touched shards fits one
/// `u64` (see [`LockManager::lock`]).
const SHARDS: usize = 64;

type LockShard = Mutex<HashMap<(u32, Vec<u8>), LockState>>;

/// Upper bound on waiting before an older transaction gives up (guards
/// against holders that never release, e.g. a stuck session).
const WAIT_TIMEOUT: Duration = Duration::from_secs(5);

/// The lock table, sharded by key hash.
pub struct LockManager {
    shards: Vec<LockShard>,
    /// [`WAIT_TIMEOUT`]; a field so the unit tests can shorten it.
    wait_timeout: Duration,
}

impl Default for LockManager {
    fn default() -> Self {
        LockManager {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            wait_timeout: WAIT_TIMEOUT,
        }
    }
}

impl LockManager {
    fn shard_of(relation: u32, key: &[u8]) -> usize {
        let mut h = relation as u64 ^ 0x9E37_79B9;
        for &b in key {
            h = h.wrapping_mul(0x100_0000_01B3) ^ b as u64;
        }
        (h % SHARDS as u64) as usize
    }

    /// Acquire a lock for `txn`; re-entrant (a held exclusive covers shared;
    /// a solo shared holder upgrades to exclusive). Returns the bit of the
    /// lock shard now holding it: the caller ORs the bits of its locks
    /// together and hands the mask to [`LockManager::release_all`].
    pub fn lock(&self, txn: u64, relation: u32, key: &[u8], mode: LockMode) -> Result<u64> {
        let idx = Self::shard_of(relation, key);
        // The clock is read only once a wait is certain.
        let mut deadline = None;
        loop {
            {
                let mut shard = self.shards[idx].lock();
                let state = shard.entry((relation, key.to_vec())).or_default();
                if state.try_grant(txn, mode)? {
                    return Ok(1 << idx);
                }
            }
            // Older transaction: wait briefly and retry.
            let now = Instant::now();
            if now > *deadline.get_or_insert(now + self.wait_timeout) {
                return Err(Error::TxnConflict);
            }
            std::thread::yield_now();
        }
    }

    /// Release every lock `txn` holds in the shards named by `touched`,
    /// the OR of its [`LockManager::lock`] results (end of two-phase
    /// locking). `u64::MAX` sweeps the whole table.
    pub fn release_all(&self, txn: u64, touched: u64) {
        let mut left = touched;
        while left != 0 {
            let idx = left.trailing_zeros() as usize;
            left &= left - 1;
            self.shards[idx].lock().retain(|_, state| {
                state.shared.retain(|&t| t != txn);
                if state.exclusive == Some(txn) {
                    state.exclusive = None;
                }
                !state.is_free()
            });
        }
    }

    /// Number of keys currently locked (diagnostics).
    pub fn locked_keys(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Release mask naming every shard (what `release_all` swept before
    /// transactions tracked their shards).
    const ALL: u64 = u64::MAX;

    fn with_timeout(wait_timeout: Duration) -> LockManager {
        LockManager {
            wait_timeout,
            ..LockManager::default()
        }
    }

    fn mgr() -> LockManager {
        with_timeout(Duration::from_millis(200))
    }

    #[test]
    fn masked_release_frees_only_the_callers_locks() {
        let m = mgr();
        // Two keys of one lock shard, and one key of another shard.
        let same: Vec<Vec<u8>> = (0u32..)
            .map(|i| i.to_le_bytes().to_vec())
            .filter(|k| LockManager::shard_of(0, k) == 7)
            .take(2)
            .collect();
        let mine = m.lock(1, 0, &same[0], LockMode::Exclusive).unwrap();
        let theirs = m.lock(2, 0, &same[1], LockMode::Exclusive).unwrap();
        assert_eq!((mine, theirs), (1 << 7, 1 << 7));
        let other = m.lock(1, 0, b"elsewhere", LockMode::Shared).unwrap();
        assert_ne!(other, mine);
        assert_eq!(m.locked_keys(), 3);

        // A mask without the shard leaves the lock in place.
        m.release_all(1, other);
        assert_eq!(m.locked_keys(), 2);
        assert!(m.lock(3, 0, &same[0], LockMode::Shared).is_err());

        // The shard's mask frees txn 1's lock and not txn 2's beside it.
        m.release_all(1, mine);
        assert_eq!(m.locked_keys(), 1);
        m.lock(3, 0, &same[0], LockMode::Shared).unwrap();
        assert!(m.lock(3, 0, &same[1], LockMode::Shared).is_err());
        m.release_all(2, theirs);
        m.release_all(3, mine);
        assert_eq!(m.locked_keys(), 0);
    }

    #[test]
    fn shared_locks_coexist() {
        let m = mgr();
        m.lock(1, 0, b"k", LockMode::Shared).unwrap();
        m.lock(2, 0, b"k", LockMode::Shared).unwrap();
        assert_eq!(m.locked_keys(), 1);
        m.release_all(1, ALL);
        m.release_all(2, ALL);
        assert_eq!(m.locked_keys(), 0);
    }

    #[test]
    fn exclusive_blocks_younger() {
        let m = mgr();
        m.lock(1, 0, b"k", LockMode::Exclusive).unwrap();
        // Younger (higher id) dies immediately.
        assert!(matches!(
            m.lock(2, 0, b"k", LockMode::Shared),
            Err(Error::TxnConflict)
        ));
        assert!(matches!(
            m.lock(2, 0, b"k", LockMode::Exclusive),
            Err(Error::TxnConflict)
        ));
    }

    #[test]
    fn older_waits_for_release() {
        let m = std::sync::Arc::new(LockManager::default());
        m.lock(10, 0, b"k", LockMode::Exclusive).unwrap();
        let m2 = m.clone();
        let h = std::thread::spawn(move || {
            // Older txn 5 waits until txn 10 releases.
            m2.lock(5, 0, b"k", LockMode::Exclusive).unwrap();
        });
        std::thread::sleep(Duration::from_millis(50));
        m.release_all(10, ALL);
        h.join().unwrap();
    }

    #[test]
    fn reentrant_and_upgrade() {
        let m = mgr();
        m.lock(1, 0, b"k", LockMode::Shared).unwrap();
        m.lock(1, 0, b"k", LockMode::Shared).unwrap();
        // Solo shared holder upgrades.
        m.lock(1, 0, b"k", LockMode::Exclusive).unwrap();
        m.lock(1, 0, b"k", LockMode::Shared).unwrap(); // X covers S
        m.lock(1, 0, b"k", LockMode::Exclusive).unwrap(); // re-entrant X
                                                          // Another txn cannot get it.
        assert!(m.lock(9, 0, b"k", LockMode::Shared).is_err());
        m.release_all(1, ALL);
        m.lock(9, 0, b"k", LockMode::Shared).unwrap();
    }

    #[test]
    fn upgrade_with_other_sharers_conflicts_for_younger() {
        let m = mgr();
        m.lock(1, 0, b"k", LockMode::Shared).unwrap();
        m.lock(2, 0, b"k", LockMode::Shared).unwrap();
        // Txn 2 (younger than holder 1) must die trying to upgrade.
        assert!(matches!(
            m.lock(2, 0, b"k", LockMode::Exclusive),
            Err(Error::TxnConflict)
        ));
    }

    #[test]
    fn different_keys_do_not_conflict() {
        let m = mgr();
        m.lock(1, 0, b"a", LockMode::Exclusive).unwrap();
        m.lock(2, 0, b"b", LockMode::Exclusive).unwrap();
        m.lock(2, 1, b"a", LockMode::Exclusive).unwrap(); // other relation
    }

    #[test]
    fn timeout_eventually_fires_for_older_waiter() {
        let m = with_timeout(Duration::from_millis(50));
        m.lock(10, 0, b"k", LockMode::Exclusive).unwrap();
        // Older txn 5 waits, but the holder never releases: timeout.
        let start = Instant::now();
        assert!(matches!(
            m.lock(5, 0, b"k", LockMode::Exclusive),
            Err(Error::TxnConflict)
        ));
        assert!(start.elapsed() >= Duration::from_millis(50));
    }

    #[derive(Clone, Debug)]
    enum Step {
        Lock { txn: u64, key: u8, exclusive: bool },
        Release { txn: u64 },
    }

    /// key -> (shared holders, exclusive holder)
    type Model = HashMap<u8, (Vec<u64>, Option<u64>)>;

    fn release(m: &LockManager, masks: &mut HashMap<u64, u64>, model: &mut Model, txn: u64) {
        m.release_all(txn, masks.remove(&txn).unwrap_or(0));
        model.retain(|_, (shared, exclusive)| {
            shared.retain(|&t| t != txn);
            if *exclusive == Some(txn) {
                *exclusive = None;
            }
            !shared.is_empty() || exclusive.is_some()
        });
    }

    fn step() -> impl proptest::Strategy<Value = Step> {
        use proptest::Strategy;
        proptest::prop_oneof![
            4 => (0u64..5, 0u8..6, proptest::any::<bool>())
                .prop_map(|(txn, key, exclusive)| Step::Lock { txn, key, exclusive }),
            1 => (0u64..5).prop_map(|txn| Step::Release { txn }),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Random single-threaded lock/release schedules agree with a
        /// `HashMap` model of holders, and releasing each transaction with
        /// only the mask it collected empties the table.
        #[test]
        fn schedules_match_model(steps in proptest::collection::vec(step(), 1..120)) {
            // Zero timeout: a request that would wait is refused instead.
            let m = with_timeout(Duration::ZERO);
            let mut model = Model::new();
            let mut masks: HashMap<u64, u64> = HashMap::new();
            for s in steps {
                match s {
                    Step::Lock { txn, key, exclusive } => {
                        let mode = if exclusive { LockMode::Exclusive } else { LockMode::Shared };
                        let (shared, holder) = model.entry(key).or_default();
                        let grantable = *holder == Some(txn)
                            || holder.is_none() && (!exclusive || shared.iter().all(|&t| t == txn));
                        let got = m.lock(txn, 9, &[key], mode);
                        proptest::prop_assert_eq!(got.is_ok(), grantable);
                        if let Ok(bit) = got {
                            *masks.entry(txn).or_default() |= bit;
                            if *holder == Some(txn) {
                                // Held exclusive covers either mode.
                            } else if exclusive {
                                shared.clear();
                                *holder = Some(txn);
                            } else if !shared.contains(&txn) {
                                shared.push(txn);
                            }
                        }
                        model.retain(|_, (shared, holder)| !shared.is_empty() || holder.is_some());
                    }
                    Step::Release { txn } => release(&m, &mut masks, &mut model, txn),
                }
                proptest::prop_assert_eq!(m.locked_keys(), model.len());
            }
            for txn in 0..5 {
                release(&m, &mut masks, &mut model, txn);
            }
            proptest::prop_assert_eq!(m.locked_keys(), 0);
        }
    }
}
