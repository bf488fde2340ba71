//! Drives the protocol-core models.
//!
//! Under `--cfg lobster_loom` each test is a bounded-exhaustive model check;
//! in a normal build each is a multi-iteration smoke run (see
//! `lobster_sync::model`). The `*_is_caught` tests run deliberately broken
//! protocol variants and require the checker to find the violation — they
//! only assert under loom, where detection is deterministic.

use lobster_sync_models::{frontier, landed, pins, xshard};

#[test]
fn commit_wal_before_extents() {
    frontier::check_wal_before_extents();
}

#[test]
fn pin_budget_conserved() {
    pins::check_budget_conserved();
}

#[test]
fn xshard_epoch_covers_all_participants() {
    xshard::check_epoch_covers_all_participants();
}

#[test]
fn completion_signal_never_lost() {
    landed::check_completion_signal_never_lost();
}

#[test]
fn broken_commit_ordering_is_caught() {
    if !lobster_sync::is_loom() {
        return; // real-thread smoke runs cannot reliably hit the race
    }
    let r = std::panic::catch_unwind(frontier::run_broken_ordering);
    assert!(r.is_err(), "checker missed the WAL-after-extents schedule");
}

#[test]
fn broken_xshard_single_shard_epoch_is_caught() {
    if !lobster_sync::is_loom() {
        return;
    }
    let r = std::panic::catch_unwind(xshard::run_broken_single_shard_epoch);
    assert!(
        r.is_err(),
        "checker missed the one-shard global-epoch advance"
    );
}

#[test]
fn broken_xshard_stale_epoch_is_caught() {
    if !lobster_sync::is_loom() {
        return;
    }
    let r = std::panic::catch_unwind(xshard::run_broken_stale_epoch);
    assert!(
        r.is_err(),
        "checker missed the stale-epoch durability decision"
    );
}

#[test]
fn broken_blind_waker_registration_is_caught() {
    if !lobster_sync::is_loom() {
        return;
    }
    let r = std::panic::catch_unwind(landed::run_broken_blind_registration);
    assert!(r.is_err(), "checker missed the lost completion signal");
}
