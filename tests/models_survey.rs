//! The capability matrix, pinned to behaviour: for each claim the survey
//! table makes about a language, exercise the corresponding model and
//! check the behaviour matches. If a model changes, this test — not just
//! the table — fails.

use dbpl::models::{
    capabilities, AdaplexSchema, AmberProgram, GalileoSchema, MetaClass, PascalRDatabase,
    TaxisSchema,
};
use dbpl::relation::Schema;
use dbpl::types::Type;
use dbpl::values::Value;

/// A fresh store directory, removed when the guard drops.
fn tmp(name: &str) -> dbpl::persist::TempDir {
    dbpl::persist::TempDir::new(&format!("survey-test-{name}")).unwrap()
}

#[test]
fn pascal_r_claims_hold() {
    let caps = capabilities("Pascal/R").unwrap();
    let dir = tmp("pr");
    let mut db = PascalRDatabase::open(dir.join("db")).unwrap();
    // separates type/extent: two relations over the same record schema.
    db.declare_relation("A", Schema::new([("X", Type::Int)]).unwrap())
        .unwrap();
    db.declare_relation("B", Schema::new([("X", Type::Int)]).unwrap())
        .unwrap();
    assert!(caps.multiple_extents_per_type);
    // any_value_persists = false: storing a bare value fails.
    assert_eq!(
        caps.any_value_persists,
        db.store_value("V", Value::Int(1)).is_ok()
    );
}

#[test]
fn taxis_claims_hold() {
    let caps = capabilities("Taxis").unwrap();
    assert!(caps.has_class_construct && caps.declared_subtyping);
    let mut tx = TaxisSchema::new();
    tx.declare_class(
        "PERSON",
        MetaClass::VariableClass,
        &[],
        [("Name", Type::Str)],
    )
    .unwrap();
    tx.declare_class(
        "EMPLOYEE",
        MetaClass::VariableClass,
        &["PERSON"],
        [("Empno", Type::Int)],
    )
    .unwrap();
    // type = extent coupling: declaring the class *created* the extent;
    // there is no way to get a second extent for PERSON.
    assert!(!caps.separates_type_extent);
    assert!(tx.extent("PERSON").unwrap().is_empty());
    let e = tx
        .new_instance(
            "EMPLOYEE",
            Value::record([("Name", Value::str("d")), ("Empno", Value::Int(1))]),
        )
        .unwrap();
    assert!(
        tx.extent("PERSON").unwrap().contains(&e),
        "isa implies extent inclusion"
    );
}

#[test]
fn adaplex_claims_hold() {
    let caps = capabilities("Adaplex").unwrap();
    assert!(caps.declared_subtyping);
    let mut ad = AdaplexSchema::new();
    ad.entity_type("Person", [("Name", Type::Str)]).unwrap();
    ad.entity_type("Clone", [("Name", Type::Str)]).unwrap();
    // Structural identity is NOT subtyping under the declared policy.
    assert!(!ad.is_subtype("Clone", "Person"));
    // class_over_arbitrary_type = false: component restriction bites.
    let nested = ad.entity_type("Nested", [("Sub", Type::record([("x", Type::Int)]))]);
    assert_eq!(caps.class_over_arbitrary_type, nested.is_ok());
}

#[test]
fn galileo_claims_hold() {
    let caps = capabilities("Galileo").unwrap();
    let mut ga = GalileoSchema::new();
    // class over arbitrary type: a class of integers works.
    assert_eq!(
        caps.class_over_arbitrary_type,
        ga.define_class("ints", Type::Int).is_ok()
    );
    // multiple extents per type: a second class over Int must fail.
    assert_eq!(
        caps.multiple_extents_per_type,
        ga.define_class("ints2", Type::Int).is_ok()
    );
}

#[test]
fn amber_claims_hold() {
    let caps = capabilities("Amber").unwrap();
    assert!(caps.has_dynamic && !caps.has_class_construct);
    let dir = tmp("amber");
    let mut am = AmberProgram::open(&dir).unwrap();
    am.env
        .declare("Person", Type::record([("Name", Type::Str)]))
        .unwrap();
    // any value persists: an Int externs fine.
    let d = am.dynamic(Type::Int, Value::Int(3)).unwrap();
    assert_eq!(caps.any_value_persists, am.extern_value("X", &d).is_ok());
    // multiple (derived) extents per type: extraction at any bound, any
    // number of times — nothing is registered anywhere.
    let p = am
        .dynamic(
            Type::named("Person"),
            Value::record([("Name", Value::str("p"))]),
        )
        .unwrap();
    am.add(p);
    assert_eq!(am.extract(&Type::named("Person")).len(), 1);
    assert_eq!(am.extract(&Type::Top).len(), 1);
}

#[test]
fn exactly_the_separating_languages_separate() {
    // The survey's core column, checked as a whole.
    let separating: Vec<&str> = dbpl::models::survey()
        .into_iter()
        .filter(|c| c.separates_type_extent)
        .map(|c| c.name)
        .collect();
    assert_eq!(separating, ["Pascal/R", "Galileo", "Amber"]);
}
