//! An employee database, end to end: maintained extents with the
//! Taxis/Adaplex inclusion semantics, key constraints, intrinsic
//! persistence with commit/crash-recovery, and schema evolution on
//! re-opening the handle — the lifecycle the paper walks through.
//!
//! Run with `cargo run --example employee_db`.

use dbpl::core::{Database, KeyConstraint, KeyedSet};
use dbpl::persist::{open_handle, IntrinsicStore, OpenOutcome};
use dbpl::types::{parse_type, Type};
use dbpl::values::Value;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Removed, with everything the stores wrote, when `dir` drops.
    let dir = dbpl::persist::TempDir::new("employee-db")?;
    let log = dir.join("employees.log");

    // ---------- schema + extents ----------
    let mut db = Database::new();
    db.declare_type("Person", parse_type("{Name: Str}")?)?;
    db.declare_type(
        "Employee",
        parse_type("{Name: Str, Empno: Int, Dept: Str}")?,
    )?;
    db.enable_extent_cascade(); // Taxis/Adaplex inclusion semantics

    db.extents_mut()
        .create("persons", Type::named("Person"), false)?;
    db.extents_mut()
        .create("employees", Type::named("Employee"), false)?;
    // A second, transient extent over the same type: impossible in a
    // single-class-construct language, trivial here.
    db.extents_mut()
        .create("new_hires", Type::named("Employee"), true)?;

    let env = db.env().clone();
    let e1 = db.alloc(
        Type::named("Employee"),
        Value::record([
            ("Name", Value::str("J Doe")),
            ("Empno", Value::Int(1)),
            ("Dept", Value::str("Sales")),
        ]),
    )?;
    let heap = db.heap().clone();
    db.extents_mut().insert("employees", e1, &heap, &env)?;
    db.extents_mut().insert("new_hires", e1, &heap, &env)?;

    // Inclusion came for free: the employee is a person.
    assert!(db.extents().extent("persons")?.contains(e1));
    println!(
        "extents: persons={} employees={} new_hires={}",
        db.extents().extent("persons")?.len(),
        db.extents().extent("employees")?.len(),
        db.extents().extent("new_hires")?.len()
    );

    // ---------- keys ----------
    // "if we insist that Name is a key for Person, we cannot place two
    // comparable objects whose type is a subtype of Person".
    let mut persons = KeyedSet::new(KeyConstraint::new(["Name"]));
    persons.insert(Value::record([("Name", Value::str("J Doe"))]))?;
    let second = persons.insert(Value::record([
        ("Name", Value::str("J Doe")),
        ("Empno", Value::Int(1)),
    ]));
    assert!(second.is_err(), "comparable object rejected under the key");
    println!("key constraint blocks comparable coexistence ✓");
    // The right way: refine the identified object in place.
    persons.refine(&Value::record([
        ("Name", Value::str("J Doe")),
        ("Empno", Value::Int(1)),
    ]))?;
    println!(
        "refined member: {}",
        persons.find(&[Value::str("J Doe")]).unwrap()
    );

    // ---------- intrinsic persistence ----------
    let mut store = IntrinsicStore::open(&log)?;
    let oid = store.alloc(Type::named("Employee"), db.heap().get(e1)?.value.clone());
    store.set_handle(
        "EmployeeDB",
        parse_type("{Name: Str, Empno: Int, Dept: Str}")?,
        Value::Ref(oid),
    );
    let txn = store.commit()?;
    println!(
        "committed transaction {txn} ({} bytes in the log)",
        store.stored_bytes()?
    );

    // Uncommitted work dies with the process...
    store.update(oid, Value::record([("Name", Value::str("EVIL"))]))?;
    drop(store); // "crash"
    let mut store = IntrinsicStore::open(&log)?;
    let (_, root) = store.handle("EmployeeDB").unwrap().clone();
    let recovered = &store.get(root.as_ref_oid().unwrap())?.value;
    assert_eq!(recovered.field("Name"), Some(&Value::str("J Doe")));
    println!("crash recovery restored the last commit ✓");

    // ---------- schema evolution ----------
    // Recompile against a *consistent* richer type: the schema is
    // enriched, not rejected.
    let env2 = db.env().clone();
    let richer = parse_type("{Name: Str, Empno: Int, Dept: Str, Office: Str}")?;
    match open_handle(&mut store, &env2, "EmployeeDB", &richer)? {
        OpenOutcome::Enriched { old, new, .. } => {
            println!("schema enriched:\n  old: {old}\n  new: {new}");
        }
        other => panic!("expected enrichment, got {other:?}"),
    }
    // Re-opening at a supertype is just a view.
    match open_handle(&mut store, &env2, "EmployeeDB", &parse_type("{Name: Str}")?)? {
        OpenOutcome::View { .. } => println!("supertype re-open is a view ✓"),
        other => panic!("expected view, got {other:?}"),
    }
    // A contradictory type is refused.
    assert!(open_handle(&mut store, &env2, "EmployeeDB", &parse_type("{Name: Int}")?).is_err());
    println!("contradictory recompilation refused ✓");
    store.commit()?;

    Ok(())
}
