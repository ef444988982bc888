//! The generic `Get` and the extent machinery, cross-crate (experiment
//! E1's correctness half): `Get` returns what the paper's scan returns; the
//! class/extent hierarchy is derived from the type hierarchy; extents
//! stay separable from types.

use dbpl::core::Database;
use dbpl::types::{parse_type, Type};
use dbpl::values::Value;

fn university_db() -> Database {
    let mut db = Database::new();
    db.declare_type("Person", parse_type("{Name: Str}").unwrap())
        .unwrap();
    db.declare_type("Employee", parse_type("{Name: Str, Empno: Int}").unwrap())
        .unwrap();
    db.declare_type("Student", parse_type("{Name: Str, Gpa: Float}").unwrap())
        .unwrap();
    db.declare_type(
        "WorkingStudent",
        parse_type("{Name: Str, Empno: Int, Gpa: Float}").unwrap(),
    )
    .unwrap();
    for i in 0..20 {
        let name = Value::str(format!("p{i}"));
        match i % 4 {
            0 => db
                .put(Type::named("Person"), Value::record([("Name", name)]))
                .unwrap(),
            1 => db
                .put(
                    Type::named("Employee"),
                    Value::record([("Name", name), ("Empno", Value::Int(i))]),
                )
                .unwrap(),
            2 => db
                .put(
                    Type::named("Student"),
                    Value::record([("Name", name), ("Gpa", Value::float(3.0))]),
                )
                .unwrap(),
            _ => db
                .put(
                    Type::named("WorkingStudent"),
                    Value::record([
                        ("Name", name),
                        ("Empno", Value::Int(i)),
                        ("Gpa", Value::float(3.5)),
                    ]),
                )
                .unwrap(),
        };
    }
    db.put(Type::Int, Value::Int(99)).unwrap();
    db
}

#[test]
fn class_extents_derive_from_type_hierarchy() {
    let db = university_db();
    // 20 people total; 10 employees (Employee + WorkingStudent);
    // 10 students; 5 working students.
    assert_eq!(db.get(&Type::named("Person")).len(), 20);
    assert_eq!(db.get(&Type::named("Employee")).len(), 10);
    assert_eq!(db.get(&Type::named("Student")).len(), 10);
    assert_eq!(db.get(&Type::named("WorkingStudent")).len(), 5);
    assert_eq!(db.get(&Type::Top).len(), 21);
}

#[test]
fn strategies_agree_everywhere() {
    let db = university_db();
    for bound in ["Person", "Employee", "Student", "WorkingStudent"] {
        let b = Type::named(bound);
        assert_eq!(db.get_by_scan(&b), db.get(&b), "at {bound}");
    }
}

#[test]
fn existential_packages_enforce_their_bound() {
    let db = university_db();
    let env = db.env().clone();
    let students = db.get(&Type::named("Student"));
    for pkg in &students {
        // Usable at the bound and its supertypes:
        assert!(pkg.open_at(&Type::named("Student"), &env).is_ok());
        assert!(pkg.open_at(&Type::named("Person"), &env).is_ok());
        // Not at siblings, even when the witness would structurally allow
        // it — static discipline is the bound, nothing more.
        assert!(pkg.open_at(&Type::named("Employee"), &env).is_err());
        // Inspecting the witness (Amber's typeOf) is fine:
        let w = pkg.witness().to_string();
        assert!(w == "Student" || w == "WorkingStudent");
    }
}

#[test]
fn hierarchy_edges_match_get_inclusions() {
    let db = university_db();
    let h = db.class_hierarchy();
    // For every edge child -> parent in the derived hierarchy, the
    // child's extent is included in the parent's.
    for child in h.names() {
        for parent in h.parents(child) {
            let c = db.get(&Type::named(child.clone()));
            let p = db.get(&Type::named(parent.clone()));
            for pkg in &c {
                assert!(
                    p.iter().any(|q| q.open() == pkg.open()),
                    "object of {child} missing from {parent}"
                );
            }
        }
    }
    assert_eq!(
        h.parents("WorkingStudent").collect::<Vec<_>>().len(),
        2,
        "WorkingStudent covers Employee and Student"
    );
}

#[test]
fn multiple_and_transient_extents_coexist() {
    let mut db = university_db();
    db.extents_mut()
        .create("emp_main", Type::named("Employee"), false)
        .unwrap();
    db.extents_mut()
        .create("emp_hypothetical", Type::named("Employee"), true)
        .unwrap();
    let env = db.env().clone();
    let e = db
        .alloc(
            Type::named("Employee"),
            Value::record([("Name", Value::str("x")), ("Empno", Value::Int(1))]),
        )
        .unwrap();
    let heap = db.heap().clone();
    db.extents_mut().insert("emp_main", e, &heap, &env).unwrap();
    // Same object, second extent, same type — no class construct would
    // allow this.
    db.extents_mut()
        .insert("emp_hypothetical", e, &heap, &env)
        .unwrap();
    assert_eq!(db.extents().extent("emp_main").unwrap().len(), 1);
    assert_eq!(db.extents().extent("emp_hypothetical").unwrap().len(), 1);
    // Dropping the transient one at persistence time:
    db.extents_mut().drop_transient();
    assert!(db.extents().extent("emp_hypothetical").is_err());
    assert!(db.extents().extent("emp_main").is_ok());
}

#[test]
fn database_image_roundtrip_preserves_get() {
    let db = university_db();
    let img = db.capture_image();
    let restored = Database::from_image(&img).unwrap();
    for bound in ["Person", "Employee", "Student", "WorkingStudent"] {
        assert_eq!(
            restored.get(&Type::named(bound)).len(),
            db.get(&Type::named(bound)).len(),
            "at {bound}"
        );
    }
}
