//! Property tests for the core layer: `Get` agrees with its scan oracle, the
//! cascading extent manager preserves the inclusion invariant, keyed sets
//! never hold comparable members, and memoized bill-of-materials agrees
//! with the naive recursion on random DAGs.

use dbpl_core::bom::{self, TransientFields};
use dbpl_core::{Database, KeyConstraint, KeyedSet};
use dbpl_types::{parse_type, Type};
use dbpl_values::{Heap, Oid, Value};
use proptest::prelude::*;

fn setup_db() -> Database {
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
    db
}

/// (kind, name) pairs describing a random population.
fn arb_population() -> impl Strategy<Value = Vec<(u8, String)>> {
    prop::collection::vec((0u8..5, "[a-z]{1,4}"), 0..40)
}

fn populate(db: &mut Database, pop: &[(u8, String)]) {
    for (kind, name) in pop {
        let name = Value::str(name.clone());
        match kind {
            0 => {
                db.put(Type::named("Person"), Value::record([("Name", name)]))
                    .unwrap();
            }
            1 => {
                db.put(
                    Type::named("Employee"),
                    Value::record([("Name", name), ("Empno", Value::Int(1))]),
                )
                .unwrap();
            }
            2 => {
                db.put(
                    Type::named("Student"),
                    Value::record([("Name", name), ("Gpa", Value::float(3.0))]),
                )
                .unwrap();
            }
            3 => {
                db.put(
                    Type::named("WorkingStudent"),
                    Value::record([
                        ("Name", name),
                        ("Empno", Value::Int(2)),
                        ("Gpa", Value::float(3.5)),
                    ]),
                )
                .unwrap();
            }
            _ => {
                db.put(Type::Int, Value::Int(9)).unwrap();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn get_agrees_with_the_scan_oracle_on_random_databases(pop in arb_population()) {
        let mut db = setup_db();
        populate(&mut db, &pop);
        for bound in ["Person", "Employee", "Student", "WorkingStudent"] {
            let b = Type::named(bound);
            prop_assert_eq!(
                db.get_by_scan(&b),
                db.get(&b),
                "get disagrees with the scan oracle at {}", bound
            );
        }
    }

    #[test]
    fn get_counts_are_monotone_in_the_hierarchy(pop in arb_population()) {
        let mut db = setup_db();
        populate(&mut db, &pop);
        let persons = db.get(&Type::named("Person")).len();
        let employees = db.get(&Type::named("Employee")).len();
        let ws = db.get(&Type::named("WorkingStudent")).len();
        prop_assert!(employees <= persons, "Employee ≤ Person extent inclusion");
        prop_assert!(ws <= employees);
        prop_assert!(db.get(&Type::Top).len() >= persons);
    }

    #[test]
    fn cascading_extents_always_satisfy_inclusion(pop in arb_population()) {
        let mut db = setup_db();
        db.enable_extent_cascade();
        let env = db.env().clone();
        db.extents_mut().create("persons", Type::named("Person"), false).unwrap();
        db.extents_mut().create("employees", Type::named("Employee"), false).unwrap();
        db.extents_mut().create("students", Type::named("Student"), false).unwrap();
        db.extents_mut().create("ws", Type::named("WorkingStudent"), false).unwrap();
        let mut oids: Vec<(u8, Oid)> = Vec::new();
        for (kind, name) in &pop {
            let (ty, v) = match kind % 4 {
                0 => ("Person", Value::record([("Name", Value::str(name.clone()))])),
                1 => (
                    "Employee",
                    Value::record([("Name", Value::str(name.clone())), ("Empno", Value::Int(1))]),
                ),
                2 => (
                    "Student",
                    Value::record([("Name", Value::str(name.clone())), ("Gpa", Value::float(3.0))]),
                ),
                _ => (
                    "WorkingStudent",
                    Value::record([
                        ("Name", Value::str(name.clone())),
                        ("Empno", Value::Int(2)),
                        ("Gpa", Value::float(3.5)),
                    ]),
                ),
            };
            let oid = db.alloc(Type::named(ty), v).unwrap();
            oids.push((kind % 4, oid));
        }
        let heap = db.heap().clone();
        for (kind, oid) in &oids {
            let target = match kind {
                0 => "persons",
                1 => "employees",
                2 => "students",
                _ => "ws",
            };
            db.extents_mut().insert(target, *oid, &heap, &env).unwrap();
        }
        prop_assert!(db.extents().check_inclusions(&env).is_none());
        // And remove a few from the top: inclusion still holds.
        for (_, oid) in oids.iter().take(3) {
            db.extents_mut().remove("persons", *oid, &env).unwrap();
        }
        prop_assert!(db.extents().check_inclusions(&env).is_none());
    }

    #[test]
    fn keyed_sets_never_hold_comparable_members(
        items in prop::collection::vec(("[ab]{1,2}", prop::option::of(0i64..3), prop::option::of(0i64..3)), 0..12)
    ) {
        let mut s = KeyedSet::new(KeyConstraint::new(["Name"]));
        for (name, empno, gpa) in items {
            let mut v = Value::record([("Name", Value::str(name))]);
            if let Some(e) = empno {
                v = dbpl_values::extend(&v, [("Empno", Value::Int(e))]).unwrap();
            }
            if let Some(g) = gpa {
                v = dbpl_values::extend(&v, [("Gpa", Value::Int(g))]).unwrap();
            }
            let _ = s.insert(v); // violations simply rejected
        }
        prop_assert!(s.no_comparable_members());
    }

    #[test]
    fn bom_memo_equals_naive_on_random_dags(
        // Layered DAG: each node picks components from earlier layers.
        layers in prop::collection::vec(prop::collection::vec((1i64..4, 0usize..100), 0..4), 1..8)
    ) {
        let mut heap = Heap::new();
        let mut nodes: Vec<Oid> = vec![bom::base_part(&mut heap, "leaf", 1.5, 1.0)];
        for (i, comps) in layers.iter().enumerate() {
            let chosen: Vec<(i64, Oid)> = comps
                .iter()
                .map(|(q, pick)| (*q, nodes[pick % nodes.len()]))
                .collect();
            let part = if chosen.is_empty() {
                bom::base_part(&mut heap, &format!("b{i}"), 2.0, 1.0)
            } else {
                bom::assembly(&mut heap, &format!("a{i}"), 1.0, 0.5, &chosen)
            };
            nodes.push(part);
        }
        let root = *nodes.last().unwrap();
        let (naive, naive_visits) = bom::total_cost_naive(&heap, root).unwrap();
        let mut memo = TransientFields::new();
        let (memoized, memo_visits) = bom::total_cost_memo(&heap, root, &mut memo).unwrap();
        prop_assert!((naive - memoized).abs() < 1e-6 * naive.abs().max(1.0));
        prop_assert!(memo_visits <= naive_visits);
        prop_assert!(memo_visits as usize <= nodes.len());
    }
}
