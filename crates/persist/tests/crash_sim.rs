//! Exhaustive crash-simulation acceptance tests.
//!
//! These drive the harness in `dbpl_persist::sim`: seeded workloads run
//! over the fault-injecting in-memory VFS and are killed at **every** I/O
//! boundary they perform; after each simulated power failure the store is
//! reopened and must recover to a committed prefix of history, without
//! ever panicking or surfacing corruption. Three seeds per store, plus
//! transient-fault storms that the bounded-retry layer must absorb, plus
//! the salvage-mode contract on a log normal `open` rejects.

use dbpl_persist::sim::{
    bit_rot_scrub_sweep, crash_sweep_extern_only, crash_sweep_group_commit, crash_sweep_intrinsic,
    crash_sweep_multi_store, crash_sweep_replicating, crash_sweep_snapshot,
    enospc_sweep_extern_only, transient_storm_intrinsic, transient_storm_multi_store,
    transient_storm_multi_store_at, transient_storm_replicating,
};
use dbpl_persist::{IntrinsicStore, LogFile, PersistError};
use dbpl_types::Type;
use dbpl_values::Value;

const SEEDS: [u64; 3] = [1986, 0xBADC_0FFE, 42];

/// The nightly sweep's expanded seed set (≥16 seeds, SEEDS included).
const NIGHTLY_SEEDS: [u64; 16] = [
    1986,
    0xBADC_0FFE,
    42,
    7,
    0xDEAD_BEEF,
    0x5EED_0001,
    0x5EED_0002,
    0x5EED_0003,
    0x5EED_0004,
    0x5EED_0005,
    0xCAFE_F00D,
    0x0123_4567_89AB_CDEF,
    0xFFFF_FFFF,
    1_000_003,
    2_718_281_828,
    3_141_592_653,
];

#[test]
fn intrinsic_recovers_committed_prefix_at_every_crash_point() {
    for &seed in &SEEDS {
        let report = crash_sweep_intrinsic(seed, 6);
        // open performs 3 ops, every commit at least 2: the sweep must
        // really have covered each of them.
        assert!(
            report.crash_points >= 15,
            "seed {seed}: suspiciously few crash points ({})",
            report.crash_points
        );
        assert_eq!(report.committed, 6);
    }
}

#[test]
fn replicating_recovers_committed_prefix_at_every_crash_point() {
    for &seed in &SEEDS {
        let report = crash_sweep_replicating(seed, 8);
        // One op to open the store, four per hardened extern (write tmp,
        // fsync tmp, rename, fsync dir).
        assert!(
            report.crash_points >= 33,
            "seed {seed}: suspiciously few crash points ({})",
            report.crash_points
        );
    }
}

#[test]
fn multi_store_transactions_are_atomic_at_every_crash_point() {
    // The atomicity property: for every injected crash point
    // in a transaction spanning both store kinds — and in a checkpoint —
    // reopening (plus a replay of the commit log) yields either the full
    // transaction or none of it.
    for &seed in &SEEDS {
        let report = crash_sweep_multi_store(seed, 4);
        assert!(
            report.crash_points >= 30,
            "seed {seed}: suspiciously few crash points ({})",
            report.crash_points
        );
        assert_eq!(report.committed, 4);
    }
}

#[test]
fn extern_only_transactions_recover_without_an_intrinsic_store() {
    // The replicating-only session shape (no intrinsic store ever
    // attached): a crash at any I/O boundary of a multi-extern commit
    // must be rolled forward — or discarded whole — by a reopen that has
    // only the replicating store in hand.
    for &seed in &SEEDS {
        let report = crash_sweep_extern_only(seed, 4);
        assert!(
            report.crash_points >= 15,
            "seed {seed}: suspiciously few crash points ({})",
            report.crash_points
        );
        assert_eq!(report.committed, 4);
    }
}

#[test]
fn group_commits_recover_all_or_none_of_each_batch() {
    // The group-commit engine coalesces frames from many sessions into
    // one commit-log record; a crash at any I/O boundary of that coalesced
    // commit must recover ALL of the batch's frames or NONE of them —
    // never a per-frame split.
    for &seed in &SEEDS {
        let report = crash_sweep_group_commit(seed, 3, 3);
        assert!(
            report.crash_points >= 15,
            "seed {seed}: suspiciously few crash points ({})",
            report.crash_points
        );
        assert_eq!(report.committed, 3);
    }
}

#[test]
fn snapshot_saves_are_atomic_at_every_crash_point() {
    for &seed in &SEEDS {
        let report = crash_sweep_snapshot(seed, 4);
        // Each hardened save is four ops (write tmp, fsync, rename,
        // fsync dir).
        assert!(
            report.crash_points >= 16,
            "seed {seed}: suspiciously few crash points ({})",
            report.crash_points
        );
        assert_eq!(report.committed, 4);
    }
}

#[test]
fn bit_rot_is_found_and_repaired_at_every_seed() {
    // The self-healing property: for every seed, a single bit
    // flipped at rest in any unit is (a) never served, (b) found by
    // scrub, (c) repaired from the intrinsic replica.
    for &seed in &SEEDS {
        let report = bit_rot_scrub_sweep(seed, 8);
        assert_eq!(report.planted, 8, "seed {seed}");
        assert_eq!(report.found, 8, "seed {seed}");
        assert_eq!(report.repaired, 8, "seed {seed}");
    }
}

#[test]
fn disk_full_degrades_cleanly_at_every_fill_point() {
    // Disk-full degradation: at every point the disk can fill, the
    // committed prefix stays readable, writes fail cleanly with
    // StorageFull, and commits resume once space returns.
    for &seed in &SEEDS {
        let report = enospc_sweep_extern_only(seed, 3);
        assert!(
            report.crash_points >= 12,
            "seed {seed}: suspiciously few fill points ({})",
            report.crash_points
        );
        assert_eq!(report.committed, 3);
    }
}

#[test]
fn transient_fault_storms_are_absorbed_by_bounded_retry() {
    for &seed in &SEEDS {
        transient_storm_intrinsic(seed, 5);
        transient_storm_replicating(seed, 6);
        transient_storm_multi_store(seed, 4);
    }
}

// --- Nightly-only expanded sweeps ------------------------------------------
//
// Run with `cargo test -p dbpl-persist --release --test crash_sim --
// --ignored` (the nightly CI job does). Same invariants as above, over an
// expanded seed set and a matrix of transient-fault rates.

#[test]
#[ignore = "expanded nightly sweep; run with --ignored"]
fn nightly_multi_store_sweep_expanded_seeds() {
    for &seed in &NIGHTLY_SEEDS {
        let report = crash_sweep_multi_store(seed, 5);
        assert_eq!(report.committed, 5, "seed {seed}");
        let report = crash_sweep_extern_only(seed, 5);
        assert_eq!(report.committed, 5, "seed {seed} (extern-only)");
        let report = crash_sweep_group_commit(seed, 4, 4);
        assert_eq!(report.committed, 4, "seed {seed} (group commit)");
    }
}

#[test]
#[ignore = "expanded nightly sweep; run with --ignored"]
fn nightly_single_store_sweeps_expanded_seeds() {
    for &seed in &NIGHTLY_SEEDS {
        crash_sweep_intrinsic(seed, 6);
        crash_sweep_replicating(seed, 8);
        crash_sweep_snapshot(seed, 5);
    }
}

#[test]
#[ignore = "expanded nightly sweep; run with --ignored"]
fn nightly_bit_rot_and_disk_full_sweeps_expanded_seeds() {
    for &seed in &NIGHTLY_SEEDS {
        let report = bit_rot_scrub_sweep(seed, 12);
        assert_eq!(report.repaired, 12, "seed {seed}");
        let report = enospc_sweep_extern_only(seed, 4);
        assert_eq!(report.committed, 4, "seed {seed} (disk full)");
    }
}

#[test]
#[ignore = "expanded nightly sweep; run with --ignored"]
fn nightly_transient_retry_matrix() {
    // Fault rates from brutal (one in 3 ops) to mild: the layered
    // bounded retries (VFS-level plus transaction-level) must absorb all
    // of them at every seed.
    for &one_in in &[3u64, 6, 12] {
        for &seed in &NIGHTLY_SEEDS {
            transient_storm_multi_store_at(seed, 4, one_in);
        }
    }
}

#[test]
fn salvage_mode_reads_logs_that_normal_open_rejects() {
    let dir = dbpl_persist::TempDir::new("crash-sim").unwrap();
    let path = dir.join("salvage-acceptance.log");

    // Two committed transactions with a validly-framed garbage record
    // spliced between them.
    {
        let mut s = IntrinsicStore::open(&path).unwrap();
        s.set_handle("first", Type::Int, Value::Int(1));
        s.commit().unwrap();
        s.set_handle("second", Type::Int, Value::Int(2));
        s.commit().unwrap();
    }
    let replay = LogFile::replay(&path).unwrap();
    let records: Vec<&[u8]> = replay.records().collect();
    let _ = std::fs::remove_file(&path);
    let mut log = LogFile::open(&path).unwrap();
    let boundary = records.iter().position(|r| r[0] == b'C').unwrap() + 1;
    for rec in &records[..boundary] {
        log.append(rec).unwrap();
    }
    log.append(b"!garbage from a future format version")
        .unwrap();
    for rec in &records[boundary..] {
        log.append(rec).unwrap();
    }
    log.sync().unwrap();
    drop(log);

    // Normal open refuses…
    assert!(matches!(
        IntrinsicStore::open(&path),
        Err(PersistError::Malformed(_))
    ));

    // …salvage succeeds: read-only, both transactions recovered, loss
    // itemized.
    let (store, report) = IntrinsicStore::open_salvage(&path).unwrap();
    assert!(store.is_read_only());
    assert_eq!(report.recovered_txn, 2);
    assert_eq!(report.skipped_records, 1);
    assert_eq!(store.handle("first").unwrap().1, Value::Int(1));
    assert_eq!(store.handle("second").unwrap().1, Value::Int(2));

    // Writing through the salvage store is refused.
    let (mut store, _) = IntrinsicStore::open_salvage(&path).unwrap();
    store.set_handle("third", Type::Int, Value::Int(3));
    assert!(matches!(store.commit(), Err(PersistError::ReadOnly(_))));
}
