//! End-to-end self-healing acceptance tests: a planted single-bit flip
//! in a stored `.dyn` unit is (a) never served — not by `intern`, not by
//! any `Get` strategy, (b) found by `scrub`, and (c) read-repaired from
//! the attached intrinsic replica; and a session over a disk that fills
//! up degrades to read-only cleanly — direct store writes included — and
//! heals itself when space returns.

use dbpl_lang::{Health, Session};
use dbpl_persist::{FaultPlan, QuarantineReason, ReplicatingStore, SimVfs, TempDir};
use std::path::Path;
use std::sync::Arc;

/// A fresh store directory, removed when the guard drops.
fn fresh_dir(name: &str) -> TempDir {
    TempDir::new(&format!("heal-{name}")).unwrap()
}

#[test]
fn planted_bit_flip_is_never_served_found_by_scrub_and_repaired() {
    let dir = fresh_dir("rot");
    let mut s = Session::with_store_dir(&dir).unwrap();
    s.run("extern('Payload', dynamic 7)").unwrap();

    // Mirror the handle into an intrinsic replica — the healthy copy
    // scrub will repair from.
    s.attach_intrinsic(dir.join("replica.log")).unwrap();
    let healthy = s.intern_staged("Payload").unwrap();
    let intr = s.intrinsic.as_mut().unwrap();
    intr.set_handle("Payload", healthy.ty.clone(), healthy.value.clone());
    intr.commit().unwrap();

    // Plant one flipped bit in the stored unit.
    let unit = dir.join("Payload.dyn");
    let mut bytes = std::fs::read(&unit).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&unit, &bytes).unwrap();

    // (a) Never served. `intern` fails its checksum…
    let err = s.run("coerce intern('Payload') to Int").unwrap_err();
    assert!(err.msg.contains("checksum"), "{err}");
    let entry = s
        .quarantine_report()
        .entries
        .iter()
        .find(|e| e.handle == "Payload")
        .cloned()
        .expect("corrupt unit quarantined");
    assert_eq!(entry.reason, QuarantineReason::ChecksumMismatch);
    // …and a bulk import quarantines the unit instead of loading it, so
    // neither `Get` nor its scan oracle can ever see the rotted value.
    let imported = s.import_store().unwrap();
    assert_eq!(imported, 0, "corrupt unit must not import");
    let out = s.run("len[Int](get[Int](db))").unwrap();
    assert_eq!(out, vec!["0"], "get served rotted data");
    assert!(
        s.db.get_by_scan(&dbpl_types::Type::Int).is_empty(),
        "the scan oracle served rotted data"
    );

    // (b) + (c) Scrub finds the corruption and repairs it from the
    // replica, after which the handle reads back its original value.
    let report = s.scrub();
    assert_eq!(report.scanned, 1);
    assert_eq!(report.repaired, vec!["Payload".to_string()]);
    assert!(report.corrupt.is_empty(), "{report:?}");
    let out = s.run("coerce intern('Payload') to Int").unwrap();
    assert_eq!(out, vec!["7"]);
    let clean = s.scrub();
    assert!(clean.is_clean() && clean.verified == 1, "{clean:?}");
}

#[test]
fn scrub_without_a_replica_finds_but_cannot_repair() {
    let dir = fresh_dir("noreplica");
    let mut s = Session::with_store_dir(&dir).unwrap();
    s.run("extern('Solo', dynamic 3)").unwrap();
    let unit = dir.join("Solo.dyn");
    let mut bytes = std::fs::read(&unit).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&unit, &bytes).unwrap();

    let report = s.scrub();
    assert_eq!(report.corrupt.len(), 1, "{report:?}");
    assert!(report.repaired.is_empty());
    assert_eq!(report.corrupt[0].handle, "Solo");
    // The finding lands in the session quarantine too.
    assert!(s
        .quarantine_report()
        .entries
        .iter()
        .any(|e| e.handle == "Solo"));
}

#[test]
fn scrub_builtin_renders_summary_and_span_tree() {
    let mut s = Session::new().unwrap();
    s.run("extern('A', dynamic 1)\nextern('B', dynamic 2)")
        .unwrap();
    let out = s.run("scrub(db)").unwrap();
    assert_eq!(out.len(), 1, "{out:?}");
    // The builtin returns a Str value, so the session renders it quoted.
    let text = out[0].trim_matches('\'');
    assert!(
        text.starts_with("scrub: scanned=2 verified=2 corrupt=0 repaired=0"),
        "{text}"
    );
    // The measured span tree rides along, explainAnalyze-style.
    assert!(text.contains("\nscrub_cmd dur_us="), "{text}");
    assert!(text.contains("\n  scrub dur_us="), "{text}");
    assert!(text.contains("scrub.batch dur_us="), "{text}");
    assert!(text.contains("scanned=2"), "{text}");
}

#[test]
fn disk_full_degrades_the_session_cleanly_and_heals_when_space_returns() {
    let vfs = SimVfs::new();
    let store =
        ReplicatingStore::open_with(Arc::new(vfs.clone()), Path::new("sess-store")).unwrap();
    let mut s = Session::from_store(store).unwrap();
    s.run("extern('Before', dynamic 1)").unwrap();
    assert_eq!(s.health(), Health::Healthy);

    // The disk fills: the next durable commit fails before its
    // durability point, aborts cleanly, and flips the session degraded.
    vfs.set_plan(FaultPlan {
        seed: 9,
        enospc_at_op: Some(vfs.ops() + 1),
        ..FaultPlan::default()
    });
    let err = s.run("extern('During', dynamic 2)").unwrap_err();
    assert!(err.msg.contains("transaction aborted"), "{err}");
    match s.health() {
        Health::Degraded { reason } => assert!(reason.contains("storage full"), "{reason}"),
        other => panic!("expected degraded session, got {other:?}"),
    }
    assert!(
        s.out.iter().any(|l| l.contains("session degraded")),
        "{:?}",
        s.out
    );

    // While degraded: durable commits are refused up front (probe first,
    // nothing half-written)…
    let err = s.run("extern('Again', dynamic 3)").unwrap_err();
    assert!(err.msg.contains("degraded"), "{err}");
    // …the aborted externs never became visible…
    for lost in ["During", "Again"] {
        assert!(
            s.run(&format!("intern('{lost}')")).is_err(),
            "{lost} leaked through a failed commit"
        );
    }
    // …reads and in-memory work keep flowing…
    assert_eq!(s.run("coerce intern('Before') to Int").unwrap(), vec!["1"]);
    assert_eq!(s.run("put(db, dynamic 5)\n40 + 2").unwrap(), vec!["42"]);

    // Space returns: the next durable commit probes, heals the session,
    // and goes through.
    vfs.set_plan(FaultPlan::default());
    let out = s
        .run("extern('After', dynamic 4)\ncoerce intern('After') to Int")
        .unwrap();
    assert_eq!(out[0], "4", "{out:?}");
    assert_eq!(s.health(), Health::Healthy);
    assert!(
        s.out.iter().any(|l| l.contains("healthy again")),
        "{:?}",
        s.out
    );
}

#[test]
fn direct_store_writes_are_gated_while_degraded_and_heal_the_session() {
    use dbpl_types::Type;
    use dbpl_values::{DynValue, Value};
    let vfs = SimVfs::new();
    let store =
        ReplicatingStore::open_with(Arc::new(vfs.clone()), Path::new("direct-store")).unwrap();
    let mut s = Session::from_store(store).unwrap();
    let unit = DynValue::new(Type::Int, Value::Int(1));
    s.run("extern('Kept', dynamic 0)").unwrap();

    // The disk fills and a commit degrades the session.
    vfs.set_plan(FaultPlan {
        seed: 3,
        enospc_at_op: Some(vfs.ops() + 1),
        ..FaultPlan::default()
    });
    assert!(s.run("extern('During', dynamic 2)").is_err());
    assert!(s.health().is_degraded());

    // Outside any transaction, host-side writes go straight to the
    // store — but not past the degraded gate: both are refused after
    // the failed probe, and no unit write is attempted.
    let (res, spans) = dbpl_obs::trace::capture("direct", || {
        (s.stage_extern("Direct", &unit), s.stage_remove("Kept"))
    });
    for err in [res.0.unwrap_err(), res.1.unwrap_err()] {
        assert!(err.to_string().contains("degraded"), "{err}");
    }
    assert!(
        !spans.iter().any(|sp| sp.name == "store.extern"),
        "a unit write was attempted while degraded: {:?}",
        spans.iter().map(|sp| sp.name).collect::<Vec<_>>()
    );
    assert!(s.health().is_degraded());

    // Space returns: the next direct write probes, heals, and lands.
    vfs.set_plan(FaultPlan::default());
    s.stage_extern("Direct", &unit).unwrap();
    assert_eq!(s.health(), Health::Healthy);
    assert!(
        s.out.iter().any(|l| l.contains("healthy again")),
        "{:?}",
        s.out
    );
    assert_eq!(s.run("coerce intern('Direct') to Int").unwrap(), vec!["1"]);
    assert_eq!(s.run("coerce intern('Kept') to Int").unwrap(), vec!["0"]);
    s.stage_remove("Direct").unwrap();
    assert!(s.run("intern('Direct')").is_err());
}
