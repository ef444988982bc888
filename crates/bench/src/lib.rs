//! Workload generators (experiments F1, E1–E7 in DESIGN.md and
//! EXPERIMENTS.md), the measurements built on them ([`measure`]), and
//! the checks of the observability artifacts ([`check`]). The `report`
//! binary prints the EXPERIMENTS.md tables from these measurements; the
//! tests under `tests/` gate them.

pub mod check;
pub mod measure;

use dbpl_core::Database;
use dbpl_relation::{GenRelation, Relation, Schema};
use dbpl_types::{parse_type, Type};
use dbpl_values::{Heap, Label, Oid, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Mutex, MutexGuard};

/// Serializes the measurements of one process. The metrics registry,
/// the trace ring and the CPU are shared by every thread, so a test
/// that reads a counter delta or times itself holds this for its whole
/// run. Poisoning is tolerated: one failed test must not fail the rest.
pub fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Deterministic RNG for reproducible workloads.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// The four-level Person/Employee/Student/WorkingStudent hierarchy used
/// throughout.
pub fn hierarchy_env(db: &mut Database) {
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
}

/// A database of `n` dynamic values spread over the hierarchy (plus ~20%
/// unrelated `Int` noise), for experiment E1.
pub fn populated_db(n: usize, seed: u64) -> Database {
    let mut db = Database::new();
    hierarchy_env(&mut db);
    let mut r = rng(seed);
    for i in 0..n {
        let name = Value::str(format!("p{i}"));
        match r.gen_range(0..5) {
            0 => db
                .put(Type::named("Person"), Value::record([("Name", name)]))
                .unwrap(),
            1 => db
                .put(
                    Type::named("Employee"),
                    Value::record([("Name", name), ("Empno", Value::Int(i as i64))]),
                )
                .unwrap(),
            2 => db
                .put(
                    Type::named("Student"),
                    Value::record([("Name", name), ("Gpa", Value::float(3.0))]),
                )
                .unwrap(),
            3 => db
                .put(
                    Type::named("WorkingStudent"),
                    Value::record([
                        ("Name", name),
                        ("Empno", Value::Int(i as i64)),
                        ("Gpa", Value::float(3.5)),
                    ]),
                )
                .unwrap(),
            _ => db.put(Type::Int, Value::Int(i as i64)).unwrap(),
        };
    }
    db
}

/// Maintained extents for the same database (E1's third strategy): one
/// extent per named type, filled once.
pub fn build_extents(db: &mut Database) {
    db.enable_extent_cascade();
    let env = db.env().clone();
    for ty in ["Person", "Employee", "Student", "WorkingStudent"] {
        db.extents_mut().create(ty, Type::named(ty), false).unwrap();
    }
    // Materialize: allocate each dynamic as an object, then insert at its
    // exact type (cascade handles the supertypes). Allocate first, clone
    // the heap once, then insert — cloning per insert would be O(n²).
    let dynamics: Vec<(Type, Value)> = db
        .dynamics()
        .iter()
        .map(|d| (d.ty.clone(), d.value.clone()))
        .collect();
    let mut pending: Vec<(String, dbpl_values::Oid)> = Vec::new();
    for (ty, v) in dynamics {
        if let Type::Named(n) = &ty {
            let n = n.clone();
            let oid = db.alloc(ty.clone(), v).unwrap();
            pending.push((n, oid));
        }
    }
    let heap = db.heap().clone();
    for (n, oid) in pending {
        db.extents_mut().insert(&n, oid, &heap, &env).unwrap();
    }
}

/// A Figure-1-like keyed workload: `n` records that all carry a ground
/// `Name` key drawn from a domain of `n` names (as in Figure 1, where
/// every row of both relations names its person), plus a side-specific
/// payload attribute. This is the regime where the partitioned join
/// prunes nearly every cross-key pair; rows *partial* on the key — the
/// nested-loop fallback — are covered by the differential property tests,
/// because admitting them here makes the O(output²) canonicalization,
/// identical for both strategies, swamp the pair scan being measured.
pub fn keyed_gen_relation(n: usize, payload: &str, seed: u64) -> GenRelation {
    let mut r = rng(seed);
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let name = r.gen_range(0..n.max(1));
        out.push(Value::record([
            (payload.to_string(), Value::Int(i as i64)),
            ("Name".to_string(), Value::str(format!("n{name}"))),
        ]));
    }
    GenRelation::from_values(out)
}

/// A flat relation over `attrs` with `n` random rows in `0..domain`.
pub fn flat_relation(attrs: &[&str], n: usize, domain: i64, seed: u64) -> Relation {
    let schema = Schema::new(attrs.iter().map(|a| (a.to_string(), Type::Int))).unwrap();
    let mut rel = Relation::new(schema);
    let mut r = rng(seed);
    for _ in 0..n {
        let row = attrs
            .iter()
            .map(|a| ((*a).into(), Value::Int(r.gen_range(0..domain))))
            .collect();
        let _ = rel.insert(row);
    }
    rel
}

/// A diamond-chain parts DAG of the given depth: part_i uses part_{i-1}
/// twice, so the naive traversal is Θ(2^depth) while the memoized one is
/// Θ(depth) (experiment E2).
pub fn diamond_dag(heap: &mut Heap, depth: usize) -> Oid {
    let mut cur = dbpl_core::bom::base_part(heap, "leaf", 1.0, 1.0);
    for i in 0..depth {
        cur = dbpl_core::bom::assembly(heap, &format!("lvl{i}"), 0.5, 0.1, &[(1, cur), (1, cur)]);
    }
    cur
}

/// A record-tower type: `depth` levels of nesting, `width` fields per
/// level; `extra` adds one innermost field, making the extra tower a
/// proper subtype of the plain one (experiment E5).
pub fn record_tower(width: usize, depth: usize, extra: bool) -> Type {
    let mut t = if extra {
        Type::record([("deep_extra", Type::Int)])
    } else {
        Type::Record(Default::default())
    };
    for d in 0..depth {
        let mut fields: Vec<(String, Type)> = (0..width)
            .map(|w| (format!("f{d}_{w}"), Type::Int))
            .collect();
        fields.push((format!("nest{d}"), t));
        t = Type::record(fields);
    }
    t
}

/// A random FD set over `width` attributes with `n_fds` dependencies
/// (experiment E7).
pub fn fd_workload(
    width: usize,
    n_fds: usize,
    seed: u64,
) -> (dbpl_relation::Attrs, dbpl_relation::FdSet) {
    let attrs: Vec<Label> = (0..width).map(|i| format!("A{i}").into()).collect();
    let all: dbpl_relation::Attrs = attrs.iter().copied().collect();
    let mut r = rng(seed);
    let mut fds = dbpl_relation::FdSet::new();
    for _ in 0..n_fds {
        let lhs: dbpl_relation::Attrs = (0..r.gen_range(1..3usize))
            .map(|_| attrs[r.gen_range(0..width)])
            .collect();
        let rhs: dbpl_relation::Attrs = (0..r.gen_range(1..3usize))
            .map(|_| attrs[r.gen_range(0..width)])
            .collect();
        fds.add(dbpl_relation::Fd { lhs, rhs });
    }
    (all, fds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn populated_db_is_deterministic() {
        let a = populated_db(100, 7);
        let b = populated_db(100, 7);
        assert_eq!(a.len(), b.len());
        assert_eq!(
            a.get(&Type::named("Person")).len(),
            b.get(&Type::named("Person")).len()
        );
    }

    #[test]
    fn extents_match_scan_counts() {
        let mut db = populated_db(200, 1);
        let scan_person = db.get(&Type::named("Person")).len();
        build_extents(&mut db);
        assert_eq!(db.extents().extent("Person").unwrap().len(), scan_person);
    }

    #[test]
    fn diamond_dag_visit_counts() {
        let mut heap = Heap::new();
        let root = diamond_dag(&mut heap, 10);
        let (_, naive) = dbpl_core::bom::total_cost_naive(&heap, root).unwrap();
        assert_eq!(naive, (1 << 11) - 1);
    }

    #[test]
    fn record_tower_subtyping_shape() {
        let env = dbpl_types::TypeEnv::new();
        for (w, d) in [(4, 4), (8, 8), (16, 16)] {
            let narrow = record_tower(w, d, false);
            let wide = record_tower(w, d, true);
            for check in [dbpl_types::is_subtype, dbpl_types::is_subtype_uncached] {
                assert!(check(&wide, &narrow, &env), "{w}×{d}");
                assert!(!check(&narrow, &wide, &env), "{w}×{d}");
            }
        }
    }

    #[test]
    fn keyed_gen_relation_is_keyed_and_deterministic() {
        let a = keyed_gen_relation(64, "Dept", 5);
        let b = keyed_gen_relation(64, "Dept", 5);
        assert_eq!(a, b);
        assert_eq!(a.len(), 64, "unique payloads keep every row");
        assert!(
            a.rows().iter().all(|v| v.field("Name").is_some()),
            "every row carries the Name key, as in Figure 1"
        );
    }
}
