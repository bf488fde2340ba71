//! Per-extent count of commit-time flushes, shared by both pools.
//!
//! A dirty extent may have more than one flush outstanding: transaction T1's
//! flush of it is on the device while T2 — which wrote the same extent after
//! T1 released its key lock — still has its own flush queued behind a WAL
//! fsync. The extent's `DIRTY`/`prevent_evict` flags must outlive *every*
//! such flush, so they cannot be a boolean that the first completion clears.
//! This ledger counts, per extent start pid:
//!
//! * `owed` — flushes staged by a write ([`FlushLedger::stage`]) and not yet
//!   landed. The flags clear only when a landed flush brings it to zero.
//! * `flying` — flushes submitted to the device and not yet reaped. A
//!   checkpoint leaves such an extent to its ticket instead of writing the
//!   same pages a second time.

use lobster_sync::Mutex;
use lobster_types::Pid;
use std::collections::HashMap;

#[derive(Default)]
struct Pending {
    owed: u32,
    flying: u32,
    /// Pages of the widest flight seen, for the page-granular pool.
    pages: u64,
}

pub(crate) struct FlushLedger {
    map: Mutex<HashMap<u64, Pending>>,
}

impl FlushLedger {
    pub(crate) fn new() -> Self {
        FlushLedger {
            map: Mutex::new(HashMap::new()),
        }
    }

    /// A write dirtied the extent and owes it one commit-time flush.
    pub(crate) fn stage(&self, pid: Pid) {
        self.map.lock().entry(pid.raw()).or_default().owed += 1;
    }

    /// A flush of `pages` pages of the extent was submitted to the device.
    pub(crate) fn begin(&self, pid: Pid, pages: u64) {
        let mut map = self.map.lock();
        let e = map.entry(pid.raw()).or_default();
        e.flying += 1;
        e.pages = e.pages.max(pages);
    }

    /// A flush submitted by [`FlushLedger::begin`] was reaped. Returns
    /// whether the extent is now clean: the flush landed and no other is
    /// owed. A failed flush stays owed (its retry lands it).
    pub(crate) fn finish(&self, pid: Pid, landed: bool) -> bool {
        let mut map = self.map.lock();
        let Some(e) = map.get_mut(&pid.raw()) else {
            return landed;
        };
        debug_assert!(e.flying > 0, "flush of {pid:?} finished twice");
        e.flying = e.flying.saturating_sub(1);
        if landed {
            // A flush nobody staged (a pool driven directly) owes nothing.
            e.owed = e.owed.saturating_sub(1);
        }
        let clean = landed && e.owed == 0;
        if e.owed == 0 && e.flying == 0 {
            map.remove(&pid.raw());
        }
        clean
    }

    /// Whether a write staged a flush of the extent that has not landed.
    pub(crate) fn owed(&self, pid: Pid) -> bool {
        self.map.lock().get(&pid.raw()).is_some_and(|e| e.owed > 0)
    }

    /// Whether a flush of the extent is on the device right now.
    pub(crate) fn in_flight(&self, pid: Pid) -> bool {
        self.map
            .lock()
            .get(&pid.raw())
            .is_some_and(|e| e.flying > 0)
    }

    /// `(start, pages)` of every extent with a flush on the device.
    pub(crate) fn flights(&self) -> Vec<(Pid, u64)> {
        self.map
            .lock()
            .iter()
            .filter(|(_, e)| e.flying > 0)
            .map(|(&pid, e)| (Pid::new(pid), e.pages))
            .collect()
    }

    /// The extent left the pool, or something other than a ticket cleaned
    /// it (checkpoint, explicit unpin): nothing is owed any more.
    pub(crate) fn forget(&self, pid: Pid) {
        self.map.lock().remove(&pid.raw());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const E: Pid = Pid::new(7);

    #[test]
    fn a_landed_flush_cleans_only_when_no_other_is_owed() {
        let l = FlushLedger::new();
        l.stage(E); // T1 wrote
        l.stage(E); // T2 wrote before T1's flush began
        l.begin(E, 4);
        assert!(l.in_flight(E));
        assert!(!l.finish(E, true), "T2's flush is still owed");
        assert!(!l.in_flight(E));
        l.begin(E, 4);
        assert!(l.finish(E, true), "the last owed flush cleans");
        assert!(l.flights().is_empty());
    }

    #[test]
    fn a_failed_flush_stays_owed_until_its_retry_lands() {
        let l = FlushLedger::new();
        l.stage(E);
        l.begin(E, 2);
        assert!(!l.finish(E, false));
        l.begin(E, 2);
        assert!(l.finish(E, true));
    }

    #[test]
    fn unstaged_and_forgotten_extents_clean_on_any_landed_flush() {
        let l = FlushLedger::new();
        l.begin(E, 1); // a pool driven directly: nothing staged
        assert_eq!(l.flights(), vec![(E, 1)]);
        assert!(l.finish(E, true));
        l.stage(E);
        l.forget(E); // a checkpoint wrote it
        assert!(!l.in_flight(E));
        l.begin(E, 1);
        assert!(l.finish(E, true));
    }
}
