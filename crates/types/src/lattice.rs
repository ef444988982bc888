//! Joins, meets and *consistency* of types.
//!
//! Schema evolution in the paper hinges on these: re-opening a persistent
//! handle at a type `T'` is allowed when the stored type `S` is a subtype of
//! `T'` (a *view*), and "a more interesting possibility arises when `S` is
//! not a subtype of `T'` but is **consistent** with it, i.e. there is a
//! common subtype of both" — in which case the database schema is
//! *enriched* to that common subtype. [`meet`] computes the most general
//! such common subtype; [`consistent`] asks whether an inhabited one exists.
//!
//! [`join`] computes the least common supertype, used to type heterogeneous
//! list literals and to find the least common ancestor of two classes in a
//! derived hierarchy.
//!
//! Both operators are *approximations from above/below* on quantified
//! types (they bail to `Top` / `None`), but are exact on the first-order
//! fragment (base types, records, variants, lists, sets, functions), which
//! is all the paper's data models need.

use crate::env::TypeEnv;
use crate::subtype::is_subtype;
use crate::ty::Type;
use std::collections::BTreeMap;

/// Least upper bound (up to the approximations documented above). Total:
/// `Top` is always an upper bound.
pub fn join(a: &Type, b: &Type, env: &TypeEnv) -> Type {
    // Subtype shortcuts (also handle Bottom, Top, equal types, Int/Float,
    // and declared-policy named types).
    if is_subtype(a, b, env) {
        return b.clone();
    }
    if is_subtype(b, a, env) {
        return a.clone();
    }
    let (ha, hb) = match (env.head_normal(a), env.head_normal(b)) {
        (Ok(x), Ok(y)) => (x.clone(), y.clone()),
        _ => return Type::Top,
    };
    match (&ha, &hb) {
        (Type::Record(fs), Type::Record(gs)) => {
            // Common fields, joined pointwise.
            let mut out = BTreeMap::new();
            for (l, f) in fs {
                if let Some(g) = gs.get(l) {
                    out.insert(*l, join(f, g, env));
                }
            }
            Type::Record(out.into())
        }
        (Type::Variant(fs), Type::Variant(gs)) => {
            // Union of arms, joined pointwise on common arms.
            let mut out = fs.clone();
            for (l, g) in gs {
                match out.get(l) {
                    Some(f) => {
                        let j = join(f, g, env);
                        out.insert(*l, j);
                    }
                    None => {
                        out.insert(*l, g.clone());
                    }
                }
            }
            Type::Variant(out)
        }
        (Type::List(x), Type::List(y)) => Type::list(join(x, y, env)),
        (Type::Set(x), Type::Set(y)) => Type::set(join(x, y, env)),
        (Type::Fun(a1, r1), Type::Fun(a2, r2)) => match meet(a1, a2, env) {
            Some(arg) => Type::fun(arg, join(r1, r2, env)),
            None => Type::Top,
        },
        _ => Type::Top,
    }
}

/// Greatest lower bound: the most general common subtype, or `None` when
/// only the empty type `Bottom` (or nothing at all) lies below both.
///
/// `None` is the "inconsistent" answer: there is no value that could inhabit
/// both types, so e.g. schema evolution must be refused.
pub fn meet(a: &Type, b: &Type, env: &TypeEnv) -> Option<Type> {
    if is_subtype(a, b, env) {
        return uninhabited_guard(a.clone());
    }
    if is_subtype(b, a, env) {
        return uninhabited_guard(b.clone());
    }
    let (ha, hb) = match (env.head_normal(a), env.head_normal(b)) {
        (Ok(x), Ok(y)) => (x.clone(), y.clone()),
        _ => return None,
    };
    match (&ha, &hb) {
        (Type::Record(fs), Type::Record(gs)) => {
            // Union of fields; common fields must have a consistent meet
            // (a record type with an uninhabited mandatory field is itself
            // uninhabited).
            let mut out = fs.clone();
            for (l, g) in gs {
                match out.get(l) {
                    Some(f) => {
                        let m = meet(f, g, env)?;
                        out.insert(*l, m);
                    }
                    None => {
                        out.insert(*l, g.clone());
                    }
                }
            }
            Some(Type::Record(out))
        }
        (Type::Variant(fs), Type::Variant(gs)) => {
            // Intersection of arms; an empty variant is uninhabited.
            let mut out = BTreeMap::new();
            for (l, f) in fs {
                if let Some(g) = gs.get(l) {
                    if let Some(m) = meet(f, g, env) {
                        out.insert(*l, m);
                    }
                }
            }
            if out.is_empty() {
                None
            } else {
                Some(Type::Variant(out.into()))
            }
        }
        // `List[Bottom]` and `Set[Bottom]` are inhabited (by the empty
        // list/set), so element inconsistency degrades gracefully.
        (Type::List(x), Type::List(y)) => Some(Type::list(meet(x, y, env).unwrap_or(Type::Bottom))),
        (Type::Set(x), Type::Set(y)) => Some(Type::set(meet(x, y, env).unwrap_or(Type::Bottom))),
        (Type::Fun(a1, r1), Type::Fun(a2, r2)) => {
            let res = meet(r1, r2, env)?;
            Some(Type::fun(join(a1, a2, env), res))
        }
        _ => None,
    }
}

fn uninhabited_guard(t: Type) -> Option<Type> {
    if t == Type::Bottom {
        None
    } else {
        Some(t)
    }
}

/// Do the two types have a common *inhabited* subtype?
///
/// This is the paper's notion of a type being "consistent with" another,
/// governing whether a persistent database's schema may be enriched.
pub fn consistent(a: &Type, b: &Type, env: &TypeEnv) -> bool {
    meet(a, b, env).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn person() -> Type {
        Type::record([("Name", Type::Str)])
    }
    fn employee() -> Type {
        Type::record([("Name", Type::Str), ("Empno", Type::Int)])
    }
    fn student() -> Type {
        Type::record([("Name", Type::Str), ("Gpa", Type::Float)])
    }

    #[test]
    fn join_of_siblings_is_common_fields() {
        let e = TypeEnv::new();
        assert_eq!(join(&employee(), &student(), &e), person());
    }

    #[test]
    fn join_with_sub_and_supertype() {
        let e = TypeEnv::new();
        assert_eq!(join(&employee(), &person(), &e), person());
        assert_eq!(join(&person(), &employee(), &e), person());
    }

    #[test]
    fn join_of_unrelated_bases_is_top() {
        let e = TypeEnv::new();
        assert_eq!(join(&Type::Int, &Type::Str, &e), Type::Top);
        assert_eq!(join(&Type::Int, &Type::Float, &e), Type::Float);
    }

    #[test]
    fn meet_of_siblings_is_working_student() {
        let e = TypeEnv::new();
        let m = meet(&employee(), &student(), &e).unwrap();
        assert_eq!(
            m,
            Type::record([
                ("Name", Type::Str),
                ("Empno", Type::Int),
                ("Gpa", Type::Float)
            ])
        );
        // The meet is below both.
        assert!(is_subtype(&m, &employee(), &e));
        assert!(is_subtype(&m, &student(), &e));
    }

    #[test]
    fn meet_fails_on_clashing_field_types() {
        let e = TypeEnv::new();
        let a = Type::record([("x", Type::Int)]);
        let b = Type::record([("x", Type::Str)]);
        assert_eq!(meet(&a, &b, &e), None);
        assert!(!consistent(&a, &b, &e));
    }

    #[test]
    fn meet_resolves_int_float_to_int() {
        let e = TypeEnv::new();
        let a = Type::record([("x", Type::Int)]);
        let b = Type::record([("x", Type::Float)]);
        assert_eq!(meet(&a, &b, &e), Some(Type::record([("x", Type::Int)])));
    }

    #[test]
    fn consistency_is_the_schema_evolution_test() {
        let e = TypeEnv::new();
        // Stored DB type and a recompiled program's type that is neither a
        // sub- nor a supertype, but consistent: evolution allowed.
        let stored = Type::record([("Employees", Type::list(employee()))]);
        let recompiled =
            Type::record([("Employees", Type::list(student())), ("Version", Type::Int)]);
        assert!(consistent(&stored, &recompiled, &e));
        let m = meet(&stored, &recompiled, &e).unwrap();
        assert!(is_subtype(&m, &stored, &e));
        assert!(is_subtype(&m, &recompiled, &e));
    }

    #[test]
    fn bottom_is_consistent_with_nothing() {
        let e = TypeEnv::new();
        assert!(!consistent(&Type::Bottom, &Type::Int, &e));
        assert!(!consistent(&Type::Int, &Type::Bottom, &e));
    }

    #[test]
    fn top_is_consistent_with_everything_inhabited() {
        let e = TypeEnv::new();
        assert!(consistent(&Type::Top, &Type::Int, &e));
        assert_eq!(meet(&Type::Top, &Type::Int, &e), Some(Type::Int));
    }

    #[test]
    fn variant_meet_intersects_arms() {
        let e = TypeEnv::new();
        let a = Type::variant([("A", Type::Int), ("B", Type::Str)]);
        let b = Type::variant([("B", Type::Str), ("C", Type::Bool)]);
        assert_eq!(meet(&a, &b, &e), Some(Type::variant([("B", Type::Str)])));
        let c = Type::variant([("C", Type::Bool)]);
        assert_eq!(meet(&a, &c, &e), None, "disjoint variants are inconsistent");
    }

    #[test]
    fn list_meet_survives_element_clash() {
        let e = TypeEnv::new();
        // List[Int] ∧ List[Str] = List[Bottom]  (inhabited by []).
        assert_eq!(
            meet(&Type::list(Type::Int), &Type::list(Type::Str), &e),
            Some(Type::list(Type::Bottom))
        );
    }

    #[test]
    fn join_meet_are_commutative() {
        let e = TypeEnv::new();
        let cases = [
            (employee(), student()),
            (Type::Int, Type::Float),
            (Type::list(employee()), Type::list(student())),
            (
                Type::variant([("A", Type::Int)]),
                Type::variant([("B", Type::Str)]),
            ),
        ];
        for (a, b) in cases {
            assert_eq!(join(&a, &b, &e), join(&b, &a, &e));
            assert_eq!(meet(&a, &b, &e), meet(&b, &a, &e));
        }
    }

    #[test]
    fn function_lattice_ops() {
        let e = TypeEnv::new();
        let f = Type::fun(person(), Type::Int);
        let g = Type::fun(employee(), Type::Float);
        // join: meet of args → join of results.
        assert_eq!(join(&f, &g, &e), Type::fun(employee(), Type::Float));
        // meet: join of args → meet of results.
        assert_eq!(meet(&f, &g, &e), Some(Type::fun(person(), Type::Int)));
    }

    #[test]
    fn named_types_participate() {
        let mut e = TypeEnv::new();
        e.declare("Person", person()).unwrap();
        e.declare("Employee", employee()).unwrap();
        assert_eq!(
            join(&Type::named("Employee"), &Type::named("Person"), &e),
            Type::named("Person")
        );
        assert_eq!(
            meet(&Type::named("Employee"), &Type::named("Person"), &e),
            Some(Type::named("Employee"))
        );
        // Join of a named type with a structural sibling goes structural.
        assert_eq!(join(&Type::named("Employee"), &student(), &e), person());
    }
}
