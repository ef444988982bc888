//! On-disk corruption robustness: torn / truncated / bit-flipped `.dyn`
//! unit files must surface as clean errors (never panics, never OOM), a
//! commit log damaged in the middle is refused rather than truncated, and
//! the schema-evolution paths must degrade gracefully on damaged or
//! read-only (salvaged) stores.

use dbpl_persist::txn::COMMIT_LOG;
use dbpl_persist::{
    open_handle, project_to_type, recover_pending, DurabilityGate, IntrinsicStore, LogFile,
    OpenOutcome, PersistError, QuarantineReason, ReplicatingStore, TempDir,
};
use dbpl_types::{parse_type, Type, TypeEnv};
use dbpl_values::{DynValue, Heap, Value};
use std::path::PathBuf;

/// A fresh store directory, removed when the guard drops.
fn fresh_dir(name: &str) -> TempDir {
    TempDir::new(&format!("corrupt-{name}")).unwrap()
}

/// Extern a value with a non-trivial object closure and return the path of
/// the single `.dyn` unit file backing it.
fn seeded_store(name: &str) -> (TempDir, ReplicatingStore, PathBuf, Vec<u8>) {
    let dir = fresh_dir(name);
    let store = ReplicatingStore::open(&dir).unwrap();
    let mut heap = Heap::new();
    let inner = heap.alloc(Type::Int, Value::Int(5));
    let outer = heap.alloc(
        Type::Top,
        Value::record([
            ("label", Value::str("payload")),
            ("inner", Value::Ref(inner)),
        ]),
    );
    let d = DynValue::new(Type::Top, Value::Ref(outer));
    store.extern_value("unit", &d, &heap).unwrap();
    let path = dir.join("unit.dyn");
    let bytes = std::fs::read(&path).unwrap();
    (dir, store, path, bytes)
}

#[test]
fn truncated_dyn_unit_errors_cleanly_at_every_cut_point() {
    let (_dir, store, path, bytes) = seeded_store("truncate");
    assert!(
        bytes.len() > 20,
        "want a unit with structure, got {} bytes",
        bytes.len()
    );
    for cut in 0..bytes.len() {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let mut heap = Heap::new();
        let got = store.intern("unit", &mut heap);
        assert!(
            got.is_err(),
            "truncation to {cut}/{} bytes must not intern successfully",
            bytes.len()
        );
        // The error is a decode error, not a panic and not NotFound.
        assert!(
            !matches!(got, Err(PersistError::UnknownHandle(_))),
            "cut {cut}: truncated file misreported as missing handle"
        );
    }
    // The intact unit still round-trips after all that abuse.
    std::fs::write(&path, &bytes).unwrap();
    let mut heap = Heap::new();
    store.intern("unit", &mut heap).unwrap();
}

#[test]
fn bit_flipped_dyn_unit_never_panics() {
    let (_dir, store, path, bytes) = seeded_store("bitflip");
    for i in 0..bytes.len() {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut damaged = bytes.clone();
            damaged[i] ^= mask;
            std::fs::write(&path, &damaged).unwrap();
            let mut heap = Heap::new();
            // Since format v2 every unit carries a CRC-32 over its payload,
            // so *any* flipped byte must surface as a clean decode error —
            // never a panic, never a silently-wrong value.
            assert!(
                store.intern("unit", &mut heap).is_err(),
                "byte {i} ^ {mask:#04x}: corrupted unit interned successfully"
            );
        }
    }
}

#[test]
fn trailing_garbage_after_unit_is_rejected() {
    let (_dir, store, path, mut bytes) = seeded_store("trailing");
    bytes.extend_from_slice(b"debris");
    std::fs::write(&path, &bytes).unwrap();
    let mut heap = Heap::new();
    // Appended debris changes the checksummed region, so the frame CRC
    // catches it before the payload parser ever sees the trailing bytes.
    assert!(matches!(
        store.intern("unit", &mut heap),
        Err(PersistError::ChecksumMismatch { .. })
    ));
}

/// Build an intrinsic log that normal `open` rejects: one committed
/// transaction, then a validly-framed record of an unknown kind.
fn poisoned_log(name: &str) -> (TempDir, PathBuf) {
    let dir = fresh_dir(name);
    let path = dir.join("store.log");
    {
        let mut s = IntrinsicStore::open(&path).unwrap();
        s.set_handle(
            "DB",
            parse_type("{Name: Str, Empno: Int}").unwrap(),
            db_value(),
        );
        s.commit().unwrap();
    }
    let mut log = LogFile::open(&path).unwrap();
    log.append(b"?record from a newer format").unwrap();
    log.sync().unwrap();
    (dir, path)
}

fn db_value() -> Value {
    Value::record([("Name", Value::str("J Doe")), ("Empno", Value::Int(7))])
}

#[test]
fn evolution_on_a_salvaged_store_enriches_in_memory_but_cannot_commit() {
    let (_dir, path) = poisoned_log("evo-salvage");
    assert!(
        IntrinsicStore::open(&path).is_err(),
        "precondition: normal open refuses"
    );

    let (mut store, report) = IntrinsicStore::open_salvage(&path).unwrap();
    assert_eq!(report.recovered_txn, 1);

    // The three-way reopen rule still works against the salvaged state…
    let env = TypeEnv::new();
    let expected = parse_type("{Name: Str, Dept: Str}").unwrap();
    match open_handle(&mut store, &env, "DB", &expected).unwrap() {
        OpenOutcome::Enriched { new, .. } => {
            assert_eq!(
                new,
                parse_type("{Name: Str, Empno: Int, Dept: Str}").unwrap()
            );
        }
        other => panic!("expected enrichment, got {other:?}"),
    }
    // …but making the enrichment durable is refused: the store is
    // read-only until the operator repairs or replaces the log.
    assert!(matches!(store.commit(), Err(PersistError::ReadOnly(_))));
    assert!(matches!(store.compact(), Err(PersistError::ReadOnly(_))));
}

#[test]
fn evolution_refusal_still_reported_on_salvaged_store() {
    let (_dir, path) = poisoned_log("evo-refuse");
    let (mut store, _) = IntrinsicStore::open_salvage(&path).unwrap();
    let env = TypeEnv::new();
    let contradicting = parse_type("{Name: Int}").unwrap();
    match open_handle(&mut store, &env, "DB", &contradicting) {
        Err(PersistError::SchemaMismatch { handle, .. }) => assert_eq!(handle, "DB"),
        other => panic!("expected SchemaMismatch, got {other:?}"),
    }
    assert!(matches!(
        open_handle(&mut store, &env, "Ghost", &Type::Int),
        Err(PersistError::UnknownHandle(_))
    ));
}

#[test]
fn projection_through_an_unresolvable_named_type_is_identity() {
    // `project_to_type` must not lose data when the type cannot even be
    // resolved: an unknown abbreviation projects to the value unchanged.
    let env = TypeEnv::new();
    let v = db_value();
    assert_eq!(project_to_type(&v, &Type::named("Mystery"), &env), v);
}

/// A store whose commit log holds three records (one extern each), and
/// the log's path and bytes.
fn logged_store(name: &str) -> (TempDir, PathBuf, Vec<u8>) {
    let dir = fresh_dir(name);
    let store = ReplicatingStore::open(&dir).unwrap();
    let heap = Heap::new();
    for (i, h) in ["a", "b", "c"].into_iter().enumerate() {
        store
            .extern_value(h, &DynValue::new(Type::Int, Value::Int(i as i64)), &heap)
            .unwrap();
    }
    let log = dir.join(COMMIT_LOG);
    let bytes = std::fs::read(&log).unwrap();
    assert_eq!(LogFile::replay(&log).unwrap().records().len(), 3);
    (dir, log, bytes)
}

#[test]
fn mid_log_damage_in_the_commit_log_is_refused_not_truncated() {
    let (dir, log, mut bytes) = logged_store("commit-log-mid");
    // Flip a byte inside the FIRST record: two valid records follow it.
    bytes[10] ^= 0xFF;
    std::fs::write(&log, &bytes).unwrap();
    let store = ReplicatingStore::open(&dir).unwrap();
    match recover_pending(None, &store) {
        Err(PersistError::Malformed(msg)) => {
            assert!(msg.contains("2 readable record(s)"), "{msg}")
        }
        other => panic!("expected a refusal, got {other:?}"),
    }
    assert_eq!(
        std::fs::read(&log).unwrap(),
        bytes,
        "the refused replay left the damaged log untouched"
    );
    // The gate refuses to open over it too, rather than dropping the
    // acknowledged commits behind the damage.
    assert!(DurabilityGate::open(&store).is_err());
}

#[test]
fn a_torn_commit_log_tail_is_truncated_and_the_rest_replayed() {
    let (dir, log, bytes) = logged_store("commit-log-torn");
    std::fs::write(&log, &bytes[..bytes.len() - 3]).unwrap();
    let store = ReplicatingStore::open(&dir).unwrap();
    // Only the torn last record is dropped: two remain and replay.
    assert_eq!(recover_pending(None, &store).unwrap(), Some(0));
    let replay = LogFile::replay(&log).unwrap();
    assert!(replay.clean);
    assert_eq!(replay.records().len(), 2);
    let mut heap = Heap::new();
    assert_eq!(store.intern("b", &mut heap).unwrap().value, Value::Int(1));
}

#[test]
fn scrub_reports_a_corrupt_commit_log_frame() {
    let (dir, log, mut bytes) = logged_store("commit-log-scrub");
    let store = ReplicatingStore::open(&dir).unwrap();
    assert!(store.scrub(None).is_clean());
    let last = bytes.len() - 2;
    bytes[last] ^= 0x01;
    std::fs::write(&log, &bytes).unwrap();
    let report = store.scrub(None);
    assert_eq!(report.verified, 3, "the units themselves are intact");
    let entry = report
        .corrupt
        .iter()
        .find(|e| e.handle == COMMIT_LOG)
        .unwrap_or_else(|| panic!("commit-log damage not reported: {report:?}"));
    assert_eq!(entry.reason, QuarantineReason::ChecksumMismatch);
}
