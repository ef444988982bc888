//! The derived statistics, property-tested against a literal count.
//! Through an arbitrary mutation sequence — inserts at several carried
//! types, quarantines (the store's removal form), schema evolution,
//! forks, and *abandoned* forks (the database-level shape of an aborted
//! txn frame: mutations applied to a copy that is then dropped) —
//! `Database::extent_stats(bound)` equals a count over
//! `get_by_scan(bound)`, and `Database::stats_catalog()` equals a count
//! over the healthy rows grouped by carried type.

use dbpl_core::Database;
use dbpl_stats::{is_ground_leaf, ExtentStats, PathStats, StatsCatalog, MAX_PATH_DEPTH};
use dbpl_types::{parse_type, Type};
use dbpl_values::{DynValue, Label, Path, Value};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

fn setup_db() -> Database {
    let mut db = Database::new();
    db.declare_type("Person", parse_type("{Name: Str}").unwrap())
        .unwrap();
    db.declare_type("Employee", parse_type("{Name: Str, Empno: Int}").unwrap())
        .unwrap();
    db
}

/// One step of a random mutation sequence.
#[derive(Debug, Clone)]
enum Op {
    /// Insert at one of the populated kinds (see `apply`).
    Put(u8, String, i64),
    /// Quarantine the position `seed % len` (no-op on an empty store).
    Quarantine(usize),
    /// Declare a fresh named type — schema evolution mid-sequence.
    Evolve(String),
    /// Apply the nested ops to a fork, then *drop* the fork: the
    /// database-level shape of an aborted frame. Nothing it did may
    /// leak into the surviving catalog.
    AbortedFork(Vec<(u8, String, i64)>),
    /// Apply the nested ops to a fork and adopt it — a committed frame.
    CommittedFork(Vec<(u8, String, i64)>),
}

fn arb_put() -> impl Strategy<Value = (u8, String, i64)> {
    (0u8..4, "[a-z]{1,4}", -50i64..50)
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => arb_put().prop_map(|(k, s, n)| Op::Put(k, s, n)),
        2 => (0usize..64).prop_map(Op::Quarantine),
        1 => "[A-Z][a-z]{1,3}".prop_map(Op::Evolve),
        1 => prop::collection::vec(arb_put(), 1..5).prop_map(Op::AbortedFork),
        1 => prop::collection::vec(arb_put(), 1..5).prop_map(Op::CommittedFork),
    ]
}

fn put_one(db: &mut Database, kind: u8, s: &str, n: i64) {
    let name = Value::str(s);
    match kind {
        0 => {
            db.put(Type::named("Person"), Value::record([("Name", name)]))
                .unwrap();
        }
        1 => {
            db.put(
                Type::named("Employee"),
                Value::record([("Name", name), ("Empno", Value::Int(n))]),
            )
            .unwrap();
        }
        2 => {
            db.put(Type::Int, Value::Int(n)).unwrap();
        }
        _ => {
            // A non-ground leaf (list) next to a ground one.
            db.put(
                Type::record([("Name", Type::Str), ("Tags", Type::list(Type::Int))]),
                Value::record([("Name", name), ("Tags", Value::List(vec![Value::Int(n)]))]),
            )
            .unwrap();
        }
    }
}

fn apply(db: &mut Database, op: &Op) {
    match op {
        Op::Put(k, s, n) => put_one(db, *k, s, *n),
        Op::Quarantine(seed) => {
            if !db.is_empty() {
                let pos = seed % db.len();
                db.quarantine_position(pos, "prop damage");
            }
        }
        Op::Evolve(name) => {
            // Redeclaration of an existing name fails harmlessly; the
            // point is that env changes never perturb the catalog.
            let _ = db.declare_type(name.clone(), parse_type("{Name: Str}").unwrap());
        }
        Op::AbortedFork(puts) => {
            let mut fork = db.fork();
            for (k, s, n) in puts {
                put_one(&mut fork, *k, s, *n);
            }
            drop(fork);
        }
        Op::CommittedFork(puts) => {
            let mut fork = db.fork();
            for (k, s, n) in puts {
                put_one(&mut fork, *k, s, *n);
            }
            db.adopt(fork);
        }
    }
}

/// The leaves of `v` under record-only descent to `MAX_PATH_DEPTH`,
/// with their paths.
fn leaves(v: &Value, path: Vec<Label>, out: &mut Vec<(Path, Value)>) {
    match v {
        Value::Record(fields) if path.len() < MAX_PATH_DEPTH && !fields.is_empty() => {
            for (k, x) in fields {
                let mut p = path.clone();
                p.push(*k);
                leaves(x, p, out);
            }
        }
        _ => out.push((Path(path), v.clone())),
    }
}

/// Count `values` literally: rows, fully-ground rows, and per leaf
/// path its presence, groundness and the set of its distinct values.
fn literal_count<'a>(values: impl IntoIterator<Item = &'a Value>, fanout: u64) -> ExtentStats {
    let mut out = ExtentStats {
        fanout,
        ..ExtentStats::default()
    };
    let mut seen: BTreeMap<Path, BTreeSet<Value>> = BTreeMap::new();
    for v in values {
        out.rows += 1;
        let mut found = Vec::new();
        leaves(v, Vec::new(), &mut found);
        if found.iter().all(|(_, leaf)| is_ground_leaf(leaf)) {
            out.ground_rows += 1;
        }
        for (path, leaf) in found {
            let ps: &mut PathStats = out.paths.entry(path.clone()).or_default();
            ps.present += 1;
            if is_ground_leaf(&leaf) {
                ps.ground += 1;
            }
            seen.entry(path).or_default().insert(leaf);
        }
    }
    for (path, values) in seen {
        out.paths.get_mut(&path).unwrap().distinct = values.len() as u64;
    }
    out
}

/// The healthy rows: every stored row the quarantine report does not
/// name, found independently of the database's own iterators.
fn healthy(db: &Database) -> Vec<DynValue> {
    db.dynamics()
        .iter()
        .enumerate()
        .filter(|(i, _)| {
            !db.quarantine_report()
                .entries
                .iter()
                .any(|e| e.handle == format!("dynamics[{i}]"))
        })
        .map(|(_, d)| d.clone())
        .collect()
}

fn catalog_oracle(db: &Database) -> StatsCatalog {
    let rows = healthy(db);
    let mut by_type: BTreeMap<&Type, Vec<&Value>> = BTreeMap::new();
    for d in &rows {
        by_type.entry(&d.ty).or_default().push(&d.value);
    }
    by_type
        .into_iter()
        .map(|(ty, values)| (ty.clone(), literal_count(values, 1)))
        .collect()
}

fn extent_oracle(db: &Database, bound: &Type) -> ExtentStats {
    let pkgs = db.get_by_scan(bound);
    let fanout = pkgs.iter().map(|p| p.witness()).collect::<BTreeSet<_>>();
    literal_count(pkgs.iter().map(|p| p.open()), fanout.len() as u64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn derived_stats_equal_a_literal_count(ops in prop::collection::vec(arb_op(), 0..40)) {
        let mut db = setup_db();
        for op in &ops {
            apply(&mut db, op);
            for bound in [Type::Top, Type::named("Person"), Type::named("Employee"), Type::Int] {
                prop_assert_eq!(
                    db.extent_stats(&bound),
                    extent_oracle(&db, &bound),
                    "at {} after {:?}", bound, op
                );
            }
        }
        prop_assert_eq!(db.stats_catalog(), catalog_oracle(&db));
        let top = db.extent_stats(&Type::Top);
        let catalog = db.stats_catalog();
        prop_assert_eq!(top.rows, catalog.values().map(|s| s.rows).sum::<u64>());
        prop_assert_eq!(top.fanout as usize, catalog.len());
    }
}
