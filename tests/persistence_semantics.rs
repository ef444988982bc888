//! Cross-model persistence semantics (experiment E3's correctness half):
//! the replicating model's update anomaly and storage duplication; the
//! intrinsic model's sharing, crash recovery and schema evolution; the
//! all-or-nothing model's totality. Principle 2 — types persist with
//! values — is checked at every boundary.

use dbpl::persist::{
    open_handle, Image, IntrinsicStore, OpenOutcome, PersistError, ReplicatingStore, TempDir,
};
use dbpl::types::{parse_type, Type, TypeEnv};
use dbpl::values::{DynValue, Heap, Value};
use std::collections::BTreeMap;

/// A fresh store directory, removed when the guard drops.
fn fresh_dir(name: &str) -> TempDir {
    TempDir::new(&format!("itest-{name}")).unwrap()
}

#[test]
fn replicating_update_anomaly_and_waste() {
    let dir = fresh_dir("anomaly");
    let store = ReplicatingStore::open(&dir).unwrap();
    let mut heap = Heap::new();
    let shared = heap.alloc(Type::Str, Value::str("x".repeat(4096)));
    let a = DynValue::new(Type::Top, Value::record([("c", Value::Ref(shared))]));
    let b = DynValue::new(Type::Top, Value::record([("c", Value::Ref(shared))]));
    store.extern_value("A", &a, &heap).unwrap();
    store.extern_value("B", &b, &heap).unwrap();

    // Wasted storage: the 4 KiB payload is written twice.
    let total = store.stored_bytes("A").unwrap() + store.stored_bytes("B").unwrap();
    assert!(total >= 2 * 4096, "payload duplicated: {total}");

    // Update anomaly: interned copies diverge.
    let mut h2 = Heap::new();
    let ia = store.intern("A", &mut h2).unwrap();
    let ib = store.intern("B", &mut h2).unwrap();
    let ca = ia.value.field("c").unwrap().as_ref_oid().unwrap();
    let cb = ib.value.field("c").unwrap().as_ref_oid().unwrap();
    assert_ne!(ca, cb);
    h2.update(ca, Value::Str("CHANGED".into())).unwrap();
    assert_eq!(h2.get(cb).unwrap().value.as_str().unwrap().len(), 4096);
}

#[test]
fn intrinsic_store_shares_and_survives() {
    let dir = fresh_dir("intrinsic");
    let log = dir.join("db.log");
    {
        let mut s = IntrinsicStore::open(&log).unwrap();
        let shared = s.alloc(Type::Int, Value::Int(1));
        s.set_handle("a", Type::Top, Value::record([("c", Value::Ref(shared))]));
        s.set_handle("b", Type::Top, Value::record([("c", Value::Ref(shared))]));
        s.commit().unwrap();
        s.update(shared, Value::Int(2)).unwrap();
        s.commit().unwrap();
    }
    let s = IntrinsicStore::open(&log).unwrap();
    for h in ["a", "b"] {
        let (_, v) = s.handle(h).unwrap();
        let o = v.field("c").unwrap().as_ref_oid().unwrap();
        assert_eq!(
            s.get(o).unwrap().value,
            Value::Int(2),
            "no anomaly through {h}"
        );
    }
}

#[test]
fn type_persists_with_the_value_everywhere() {
    // Principle 2 at every boundary: replicating handles, intrinsic
    // handles, and image bindings all come back with their types.
    let env = TypeEnv::new();
    let person_ty = parse_type("{Name: Str}").unwrap();
    let person = Value::record([("Name", Value::str("d"))]);

    // Replicating.
    let dir = fresh_dir("principle2");
    let store = ReplicatingStore::open(&dir).unwrap();
    store
        .extern_value(
            "P",
            &DynValue::new(person_ty.clone(), person.clone()),
            &Heap::new(),
        )
        .unwrap();
    let mut h = Heap::new();
    let back = store.intern("P", &mut h).unwrap();
    assert_eq!(back.ty, person_ty);

    // ...and the coercion guard it enables.
    assert!(dbpl::values::coerce(&back, &parse_type("{Name: Int}").unwrap(), &env).is_err());
    assert!(dbpl::values::coerce(&back, &person_ty, &env).is_ok());

    // Intrinsic.
    let dir = fresh_dir("principle2i");
    let log = dir.join("db.log");
    {
        let mut s = IntrinsicStore::open(&log).unwrap();
        s.set_handle("P", person_ty.clone(), person.clone());
        s.commit().unwrap();
    }
    let s = IntrinsicStore::open(&log).unwrap();
    assert_eq!(s.handle("P").unwrap().0, person_ty);

    // Image.
    let img = Image::capture(
        &env,
        &Heap::new(),
        &BTreeMap::from([("P".to_string(), DynValue::new(person_ty.clone(), person))]),
    );
    let (_, _, bindings) = Image::decode(&img.encode()).unwrap().restore().unwrap();
    assert_eq!(bindings["P"].ty, person_ty);
}

#[test]
fn schema_evolution_full_cycle() {
    let dir = fresh_dir("evolution");
    let log = dir.join("db.log");
    let env = TypeEnv::new();
    let mut s = IntrinsicStore::open(&log).unwrap();
    s.set_handle(
        "DB",
        parse_type("{Name: Str}").unwrap(),
        Value::record([("Name", Value::str("d"))]),
    );
    s.commit().unwrap();

    // Enrich twice, in different directions; the schema accumulates.
    for (expected, field) in [
        ("{Name: Str, Empno: Int}", "Empno"),
        ("{Name: Str, Dept: Str}", "Dept"),
    ] {
        match open_handle(&mut s, &env, "DB", &parse_type(expected).unwrap()).unwrap() {
            OpenOutcome::Enriched { new, .. } => {
                assert!(new.to_string().contains(field));
            }
            other => panic!("expected enrichment, got {other:?}"),
        }
        s.commit().unwrap();
    }
    // Final schema has all three fields; it persists across reopen.
    drop(s);
    let mut s = IntrinsicStore::open(&log).unwrap();
    assert_eq!(
        s.handle("DB").unwrap().0,
        parse_type("{Dept: Str, Empno: Int, Name: Str}").unwrap()
    );
    // "Provided we never contradict any of our previous definitions":
    let clash = parse_type("{Empno: Str}").unwrap();
    assert!(matches!(
        open_handle(&mut s, &env, "DB", &clash),
        Err(PersistError::SchemaMismatch { .. })
    ));
}

#[test]
fn compaction_preserves_state_and_shrinks() {
    let dir = fresh_dir("compaction");
    let log = dir.join("db.log");
    let mut s = IntrinsicStore::open(&log).unwrap();
    let o = s.alloc(Type::Int, Value::Int(0));
    s.set_handle("n", Type::Int, Value::Ref(o));
    for i in 1..=200 {
        s.update(o, Value::Int(i)).unwrap();
        s.commit().unwrap();
    }
    let before = s.stored_bytes().unwrap();
    s.compact().unwrap();
    let after = s.stored_bytes().unwrap();
    assert!(after < before / 20, "{before} -> {after}");
    drop(s);
    let s = IntrinsicStore::open(&log).unwrap();
    assert_eq!(s.get(o).unwrap().value, Value::Int(200));
}

#[test]
fn all_or_nothing_is_atomic_under_partial_write() {
    // A truncated image never half-loads.
    let d = fresh_dir("atomic");
    let path = d.join("img");
    let img = Image::capture(&TypeEnv::new(), &Heap::new(), &BTreeMap::new());
    img.save(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    for cut in 0..bytes.len() {
        assert!(
            Image::decode(&bytes[..cut]).is_err(),
            "prefix {cut} decoded"
        );
    }
}

#[test]
fn namespaces_control_sharing() {
    use dbpl::persist::{NamespaceManager, Visibility};
    let dir = fresh_dir("ns");
    let mut m = NamespaceManager::open(&dir).unwrap();
    m.create("research").unwrap();
    m.create("teaching").unwrap();
    let heap = Heap::new();
    m.space("research")
        .unwrap()
        .extern_value("Dataset", &DynValue::new(Type::Int, Value::Int(9)), &heap)
        .unwrap();
    // Without an export, no cross-namespace sharing.
    assert!(m.import("research", "Dataset", "teaching").is_err());
    m.export("research", "Dataset", Visibility::Public).unwrap();
    m.import("research", "Dataset", "teaching").unwrap();
    let mut h = Heap::new();
    assert_eq!(
        m.space("teaching")
            .unwrap()
            .intern("Dataset", &mut h)
            .unwrap()
            .value,
        Value::Int(9)
    );
}

#[test]
fn database_persists_through_the_intrinsic_store() {
    use dbpl::core::Database;
    let dir = fresh_dir("db-bridge");
    let log = dir.join("db.log");
    {
        let mut db = Database::new();
        db.declare_type("Person", parse_type("{Name: Str}").unwrap())
            .unwrap();
        db.put(
            parse_type("Person").unwrap(),
            Value::record([("Name", Value::str("d"))]),
        )
        .unwrap();
        let mut store = IntrinsicStore::open(&log).unwrap();
        db.save_to_intrinsic(&mut store).unwrap();
        store.commit().unwrap();
    }
    let store = IntrinsicStore::open(&log).unwrap();
    let db = Database::load_from_intrinsic(&store).unwrap();
    assert_eq!(db.get(&parse_type("Person").unwrap()).len(), 1);
    assert!(db.env().lookup("Person").is_some());
}

#[test]
fn replicating_handles_are_safe_under_concurrency() {
    // The paper: "if any concurrency is to be implemented through the use
    // of replicating persistence, it must be done by ensuring that the
    // various extern and intern operations for a given handle are
    // properly synchronized". The store synchronizes per handle: under
    // concurrent extern/intern of distinct payloads, every intern must
    // see a *complete* unit (never an interleaving).
    use std::sync::Arc;
    let dir = fresh_dir("concurrent");
    let store = Arc::new(ReplicatingStore::open(&dir).unwrap());
    let heap = Heap::new();
    store
        .extern_value("H", &DynValue::new(Type::Int, Value::Int(0)), &heap)
        .unwrap();

    let writers: Vec<_> = (1..=4)
        .map(|w| {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                let heap = Heap::new();
                for i in 0..50 {
                    let payload = Value::list(vec![Value::Int(w * 1000 + i); 64]);
                    store
                        .extern_value("H", &DynValue::new(Type::list(Type::Int), payload), &heap)
                        .unwrap();
                }
            })
        })
        .collect();
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                for _ in 0..100 {
                    let mut h = Heap::new();
                    let d = store.intern("H", &mut h).unwrap();
                    // A complete unit: either the initial Int or a
                    // homogeneous 64-element list.
                    match &d.value {
                        Value::Int(0) => {}
                        Value::List(xs) => {
                            assert_eq!(xs.len(), 64);
                            assert!(xs.windows(2).all(|w| w[0] == w[1]), "torn write observed");
                        }
                        other => panic!("unexpected unit {other}"),
                    }
                }
            })
        })
        .collect();
    for t in writers.into_iter().chain(readers) {
        t.join().unwrap();
    }
}
