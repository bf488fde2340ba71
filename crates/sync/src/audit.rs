//! Debug-only runtime invariant auditor for the latch/pin fast paths.
//!
//! A [`LatchLedger`] shadows every successful latch-word transition in the
//! buffer pools with a process-global ledger (per-key shared count /
//! exclusive flag / pin bit) plus per-thread counters used for lock-order
//! checks. It panics — in `cfg(debug_assertions)` builds only — on:
//!
//! * **double unlock**: releasing a shared or exclusive latch that the
//!   ledger says is not held;
//! * **conflicting claims**: an exclusive claim succeeding while the ledger
//!   still records a holder (a broken CAS protocol);
//! * **latch-order inversions** of the self-deadlock kind: a *blocking*
//!   acquisition of a key this thread already holds incompatibly in the same
//!   pool (shared wait while holding it exclusive, or exclusive wait while
//!   holding it at all). Cross-key coupling — the B-Tree's parent-held-while-
//!   child-latched descent — is legitimate hierarchical ordering and is *not*
//!   flagged; cross-key cycle freedom is what the loom models and their
//!   deadlock detector check;
//! * **leaked pins**: `prevent_evict` pins still set when a quiesced pool is
//!   asked to verify none remain.
//!
//! Try-acquisitions (eviction CAS, fault-batch claims, prefetch claims) never
//! wait, so they are exempt from the order rules; they are still tracked for
//! double-release. Latches and tickets may legitimately be released on a
//! different thread than the one that acquired them (flush tickets), so the
//! per-thread key sets shrink without panicking on a miss — the
//! process-global counts are the authoritative double-release detector.
//!
//! In release builds every method compiles to an empty inline body; call
//! sites need no `cfg` guards and the fast paths carry zero overhead.

#[cfg(debug_assertions)]
mod imp {
    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    const SHARDS: usize = 16;

    #[derive(Default)]
    pub(super) struct KeyState {
        pub shared: u32,
        pub excl: bool,
        pub pinned: bool,
    }

    impl KeyState {
        fn is_clear(&self) -> bool {
            self.shared == 0 && !self.excl && !self.pinned
        }
    }

    pub(super) struct Inner {
        pub id: u64,
        shards: [Mutex<HashMap<u64, KeyState>>; SHARDS],
    }

    /// One key this thread currently holds via a *blocking* acquisition.
    #[derive(Clone, Copy)]
    struct TlKey {
        key: u64,
        shared: u32,
        excl: u32,
    }

    thread_local! {
        // (ledger id, held keys) — per-ledger so independent pools (blob vs
        // node) don't see each other's holds in the order checks.
        static TL: RefCell<Vec<(u64, Vec<TlKey>)>> = const { RefCell::new(Vec::new()) };
    }

    fn tl_with<R>(id: u64, f: impl FnOnce(&mut Vec<TlKey>) -> R) -> R {
        TL.with(|tl| {
            let mut v = tl.borrow_mut();
            if let Some(e) = v.iter_mut().find(|(i, _)| *i == id) {
                return f(&mut e.1);
            }
            v.push((id, Vec::new()));
            let last = v.last_mut().expect("just pushed");
            f(&mut last.1)
        })
    }

    /// Bump this thread's hold on `key` by (`dshared`, `dexcl`).
    fn tl_add(id: u64, key: u64, dshared: u32, dexcl: u32) {
        tl_with(id, |held| {
            if let Some(h) = held.iter_mut().find(|h| h.key == key) {
                h.shared += dshared;
                h.excl += dexcl;
            } else {
                held.push(TlKey {
                    key,
                    shared: dshared,
                    excl: dexcl,
                });
            }
        });
    }

    /// Drop this thread's hold on `key`. A miss is not an error: latches may
    /// be released on a different thread than the acquirer (flush tickets) —
    /// the process-global ledger is the double-release detector.
    fn tl_sub(id: u64, key: u64, dshared: u32, dexcl: u32) {
        tl_with(id, |held| {
            if let Some(i) = held.iter().position(|h| h.key == key) {
                let h = &mut held[i];
                h.shared = h.shared.saturating_sub(dshared);
                h.excl = h.excl.saturating_sub(dexcl);
                if h.shared == 0 && h.excl == 0 {
                    held.swap_remove(i);
                }
            }
        });
    }

    impl Inner {
        pub fn new() -> Self {
            static NEXT_ID: AtomicU64 = AtomicU64::new(0);
            Inner {
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            }
        }

        fn with_key<R>(&self, key: u64, f: impl FnOnce(&mut KeyState) -> R) -> R {
            let shard = &self.shards[(key as usize) % SHARDS];
            let mut map = shard.lock().unwrap_or_else(|p| p.into_inner());
            let st = map.entry(key).or_default();
            let r = f(st);
            if st.is_clear() {
                map.remove(&key);
            }
            r
        }

        pub fn check_may_block_shared(&self, key: u64) {
            tl_with(self.id, |held| {
                let excl = held.iter().find(|h| h.key == key).map_or(0, |h| h.excl);
                assert!(
                    excl == 0,
                    "latch-order inversion (self-deadlock): blocking shared acquisition of \
                     key {key} while this thread already holds it exclusively"
                );
            });
        }

        pub fn check_may_block_exclusive(&self, key: u64) {
            tl_with(self.id, |held| {
                let (s, x) = held
                    .iter()
                    .find(|h| h.key == key)
                    .map_or((0, 0), |h| (h.shared, h.excl));
                assert!(
                    s == 0 && x == 0,
                    "latch-order inversion (self-deadlock): blocking exclusive acquisition of \
                     key {key} while this thread already holds it ({s} shared / {x} exclusive)"
                );
            });
        }

        pub fn acquire_shared(&self, key: u64) {
            self.with_key(key, |st| {
                assert!(
                    !st.excl,
                    "latch ledger: shared acquisition of key {key} succeeded while the ledger \
                     records an exclusive holder (broken CAS protocol)"
                );
                st.shared += 1;
            });
            tl_add(self.id, key, 1, 0);
        }

        pub fn release_shared(&self, key: u64) {
            self.with_key(key, |st| {
                assert!(
                    st.shared > 0,
                    "latch ledger: double unlock — shared release of key {key} but the ledger \
                     records no shared holder"
                );
                st.shared -= 1;
            });
            tl_sub(self.id, key, 1, 0);
        }

        /// The shared latch on `key` this thread just took now belongs
        /// to a ticket another thread may release: the global count
        /// stands, this thread's own hold goes.
        pub fn hand_off_shared(&self, key: u64) {
            tl_sub(self.id, key, 1, 0);
        }

        fn claim(&self, key: u64) {
            self.with_key(key, |st| {
                assert!(
                    !st.excl && st.shared == 0,
                    "latch ledger: exclusive claim of key {key} succeeded while the ledger \
                     records {} shared holder(s), exclusive={} (broken CAS protocol)",
                    st.shared,
                    st.excl
                );
                st.excl = true;
            });
        }

        pub fn acquire_exclusive(&self, key: u64) {
            self.claim(key);
            tl_add(self.id, key, 0, 1);
        }

        pub fn claim_exclusive(&self, key: u64) {
            self.claim(key);
        }

        fn unclaim(&self, key: u64) {
            self.with_key(key, |st| {
                assert!(
                    st.excl,
                    "latch ledger: double unlock — exclusive release of key {key} but the \
                     ledger records no exclusive holder"
                );
                st.excl = false;
            });
        }

        pub fn release_exclusive(&self, key: u64) {
            self.unclaim(key);
            tl_sub(self.id, key, 0, 1);
        }

        pub fn release_claim(&self, key: u64) {
            self.unclaim(key);
        }

        pub fn convert_claim_to_shared(&self, key: u64) {
            self.with_key(key, |st| {
                assert!(
                    st.excl && st.shared == 0,
                    "latch ledger: converting key {key} exclusive->shared but the ledger \
                     records exclusive={} shared={}",
                    st.excl,
                    st.shared
                );
                st.excl = false;
                st.shared = 1;
            });
            tl_add(self.id, key, 1, 0);
        }

        pub fn pin(&self, key: u64) {
            self.with_key(key, |st| st.pinned = true);
        }

        pub fn unpin(&self, key: u64) {
            self.with_key(key, |st| st.pinned = false);
        }

        pub fn leaked_pins(&self) -> Vec<u64> {
            let mut out = Vec::new();
            for shard in &self.shards {
                let map = shard.lock().unwrap_or_else(|p| p.into_inner());
                out.extend(map.iter().filter(|(_, st)| st.pinned).map(|(k, _)| *k));
            }
            out.sort_unstable();
            out
        }

        pub fn held_latches(&self) -> usize {
            self.shards
                .iter()
                .map(|s| {
                    s.lock()
                        .unwrap_or_else(|p| p.into_inner())
                        .values()
                        .filter(|st| st.shared > 0 || st.excl)
                        .count()
                })
                .sum()
        }
    }
}

/// Latch/pin ledger; see the module docs. All methods are no-ops in release
/// builds.
pub struct LatchLedger {
    #[cfg(debug_assertions)]
    inner: imp::Inner,
}

impl Default for LatchLedger {
    fn default() -> Self {
        Self::new()
    }
}

macro_rules! key_method {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[inline]
        pub fn $name(&self, key: u64) {
            #[cfg(debug_assertions)]
            self.inner.$name(key);
            #[cfg(not(debug_assertions))]
            let _ = key;
        }
    };
}

impl LatchLedger {
    pub fn new() -> Self {
        LatchLedger {
            #[cfg(debug_assertions)]
            inner: imp::Inner::new(),
        }
    }

    key_method!(
        /// Assert this thread may *wait* for a shared latch on `key` (it
        /// does not already hold `key` exclusively — a self-deadlock). Call
        /// before a blocking shared acquisition spin; try-acquisitions are
        /// exempt, and holding *other* keys is fine (hierarchical coupling).
        check_may_block_shared
    );
    key_method!(
        /// Assert this thread may *wait* for an exclusive latch on `key`
        /// (it does not already hold `key` at all).
        check_may_block_exclusive
    );
    key_method!(
        /// Record a successful shared-count increment.
        acquire_shared
    );
    key_method!(
        /// Record a shared release; panics on double unlock.
        release_shared
    );
    key_method!(
        /// Hand a shared latch this thread holds to a flush ticket: the
        /// ticket is reaped — and the latch released — by whichever thread
        /// owns it then, so the acquiring thread must stop counting it as
        /// its own hold (a later exclusive wait on the key, after the
        /// ticket was reaped elsewhere, is not a self-deadlock).
        hand_off_shared
    );
    key_method!(
        /// Record a successful blocking exclusive acquisition (counted for
        /// order checks; released with [`Self::release_exclusive`]).
        acquire_exclusive
    );
    key_method!(
        /// Record a successful *try* exclusive claim (eviction CAS, fault
        /// batch, prefetch); exempt from order checks, released with
        /// [`Self::release_claim`].
        claim_exclusive
    );
    key_method!(
        /// Release a blocking exclusive acquisition; panics on double unlock.
        release_exclusive
    );
    key_method!(
        /// Release a try claim; panics on double unlock.
        release_claim
    );
    key_method!(
        /// A load-path claim is being published as shared with count 1.
        convert_claim_to_shared
    );
    key_method!(
        /// Record a `prevent_evict` pin (idempotent).
        pin
    );
    key_method!(
        /// Clear a `prevent_evict` pin (idempotent).
        unpin
    );

    /// Keys whose pins are still set. Always empty in release builds.
    pub fn leaked_pins(&self) -> Vec<u64> {
        #[cfg(debug_assertions)]
        {
            self.inner.leaked_pins()
        }
        #[cfg(not(debug_assertions))]
        {
            Vec::new()
        }
    }

    /// Number of keys with a latch currently held. Always 0 in release.
    pub fn held_latches(&self) -> usize {
        #[cfg(debug_assertions)]
        {
            self.inner.held_latches()
        }
        #[cfg(not(debug_assertions))]
        {
            0
        }
    }

    /// Panic (debug builds) if any `prevent_evict` pin is still recorded.
    /// Call only on quiesced pools — e.g. after a drain + checkpoint — since
    /// in-flight commits legitimately hold pins.
    pub fn assert_no_leaked_pins(&self) {
        let leaked = self.leaked_pins();
        assert!(
            leaked.is_empty(),
            "pin ledger: {} leaked prevent_evict pin(s) on quiesced pool: {:?}",
            leaked.len(),
            leaked
        );
    }
}

#[cfg(test)]
mod tests {
    use super::LatchLedger;

    #[test]
    fn shared_roundtrip_and_double_unlock() {
        let l = LatchLedger::new();
        l.acquire_shared(7);
        l.acquire_shared(7);
        l.release_shared(7);
        l.release_shared(7);
        if cfg!(debug_assertions) {
            let r = std::panic::catch_unwind(|| l.release_shared(7));
            assert!(r.is_err(), "double unlock not caught");
        }
    }

    #[test]
    fn exclusive_claim_conflicts() {
        let l = LatchLedger::new();
        l.claim_exclusive(3);
        if cfg!(debug_assertions) {
            let r = std::panic::catch_unwind(|| l.claim_exclusive(3));
            assert!(r.is_err(), "conflicting claim not caught");
        }
        l.release_claim(3);
    }

    #[test]
    fn order_inversion_caught() {
        let l = LatchLedger::new();
        l.acquire_exclusive(1);
        if cfg!(debug_assertions) {
            let r = std::panic::catch_unwind(|| l.check_may_block_shared(1));
            assert!(
                r.is_err(),
                "shared-while-exclusive self-deadlock not caught"
            );
            let r = std::panic::catch_unwind(|| l.check_may_block_exclusive(1));
            assert!(r.is_err(), "exclusive re-entry self-deadlock not caught");
        }
        // Hierarchical coupling — blocking on a *different* key while key 1
        // is held — is legitimate (B-Tree parent/child descent).
        l.check_may_block_shared(2);
        l.check_may_block_exclusive(2);
        l.release_exclusive(1);
        l.check_may_block_shared(1);
        l.check_may_block_exclusive(1);
    }

    #[test]
    fn shared_hold_blocks_exclusive_reentry() {
        let l = LatchLedger::new();
        l.acquire_shared(4);
        if cfg!(debug_assertions) {
            let r = std::panic::catch_unwind(|| l.check_may_block_exclusive(4));
            assert!(
                r.is_err(),
                "exclusive-while-shared self-deadlock not caught"
            );
        }
        // Shared re-entry on the same key is fine (shared latches stack).
        l.check_may_block_shared(4);
        l.release_shared(4);
    }

    #[test]
    fn handed_off_shared_latch_is_no_longer_this_threads_hold() {
        let l = LatchLedger::new();
        l.acquire_shared(6);
        l.hand_off_shared(6);
        // Another thread reaps the ticket...
        std::thread::scope(|s| {
            s.spawn(|| l.release_shared(6));
        });
        // ...after which this thread may wait for the key exclusively.
        l.check_may_block_exclusive(6);
        assert_eq!(l.held_latches(), 0);
    }

    #[test]
    fn pin_ledger_tracks_leaks() {
        let l = LatchLedger::new();
        l.pin(9);
        l.pin(11);
        l.unpin(9);
        if cfg!(debug_assertions) {
            assert_eq!(l.leaked_pins(), vec![11]);
            let r = std::panic::catch_unwind(|| l.assert_no_leaked_pins());
            assert!(r.is_err(), "leaked pin not caught");
        }
        l.unpin(11);
        l.assert_no_leaked_pins();
    }

    #[test]
    fn convert_claim_to_shared_flow() {
        let l = LatchLedger::new();
        l.claim_exclusive(5);
        l.convert_claim_to_shared(5);
        l.acquire_shared(5);
        l.release_shared(5);
        l.release_shared(5);
        assert_eq!(l.held_latches(), 0);
    }
}
