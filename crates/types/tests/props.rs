//! Property-based tests for the type system: the subtype relation is a
//! preorder, the lattice operators bound their arguments, and the
//! parser/printer pair round-trips.

use dbpl_types::{consistent, is_subtype, join, meet, parse_type, Type, TypeEnv};
use proptest::prelude::*;

/// A strategy producing closed, first-order types (no variables/quantifiers
/// — those are covered by targeted unit tests; lattice ops approximate on
/// them by design).
fn arb_type() -> impl Strategy<Value = Type> {
    let leaf = prop_oneof![
        Just(Type::Int),
        Just(Type::Float),
        Just(Type::Bool),
        Just(Type::Str),
        Just(Type::Unit),
        Just(Type::Top),
        Just(Type::Bottom),
        Just(Type::Dynamic),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            inner.clone().prop_map(Type::list),
            inner.clone().prop_map(Type::set),
            prop::collection::btree_map("[a-d]", inner.clone(), 0..4)
                .prop_map(|m| Type::Record(m.into())),
            prop::collection::btree_map("[a-d]", inner.clone(), 1..4)
                .prop_map(|m| Type::Variant(m.into())),
            (inner.clone(), inner).prop_map(|(a, r)| Type::fun(a, r)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn subtype_is_reflexive(t in arb_type()) {
        let env = TypeEnv::new();
        prop_assert!(is_subtype(&t, &t, &env));
    }

    #[test]
    fn subtype_is_transitive(a in arb_type(), b in arb_type(), c in arb_type()) {
        let env = TypeEnv::new();
        if is_subtype(&a, &b, &env) && is_subtype(&b, &c, &env) {
            prop_assert!(is_subtype(&a, &c, &env));
        }
    }

    #[test]
    fn join_is_an_upper_bound(a in arb_type(), b in arb_type()) {
        let env = TypeEnv::new();
        let j = join(&a, &b, &env);
        prop_assert!(is_subtype(&a, &j, &env), "a = {a}, b = {b}, join = {j}");
        prop_assert!(is_subtype(&b, &j, &env), "a = {a}, b = {b}, join = {j}");
    }

    #[test]
    fn meet_is_a_lower_bound(a in arb_type(), b in arb_type()) {
        let env = TypeEnv::new();
        if let Some(m) = meet(&a, &b, &env) {
            prop_assert!(is_subtype(&m, &a, &env), "a = {a}, b = {b}, meet = {m}");
            prop_assert!(is_subtype(&m, &b, &env), "a = {a}, b = {b}, meet = {m}");
        }
    }

    #[test]
    fn join_and_meet_are_commutative(a in arb_type(), b in arb_type()) {
        let env = TypeEnv::new();
        prop_assert_eq!(join(&a, &b, &env), join(&b, &a, &env));
        prop_assert_eq!(meet(&a, &b, &env), meet(&b, &a, &env));
    }

    #[test]
    fn join_is_idempotent(a in arb_type()) {
        let env = TypeEnv::new();
        prop_assert_eq!(join(&a, &a, &env), a.clone());
        prop_assert_eq!(meet(&a, &a, &env), if a == Type::Bottom { None } else { Some(a) });
    }

    #[test]
    fn consistency_is_symmetric(a in arb_type(), b in arb_type()) {
        let env = TypeEnv::new();
        prop_assert_eq!(consistent(&a, &b, &env), consistent(&b, &a, &env));
    }

    #[test]
    fn subtypes_are_consistent(a in arb_type(), b in arb_type()) {
        let env = TypeEnv::new();
        // If a ≤ b and a is inhabited-ish (not Bottom), then a itself
        // witnesses consistency.
        if a != Type::Bottom && is_subtype(&a, &b, &env) {
            prop_assert!(consistent(&a, &b, &env), "a = {a}, b = {b}");
        }
    }

    #[test]
    fn display_parse_roundtrip(t in arb_type()) {
        let printed = t.to_string();
        let parsed = parse_type(&printed)
            .unwrap_or_else(|e| panic!("failed to re-parse `{printed}`: {e}"));
        prop_assert_eq!(parsed, t);
    }

    #[test]
    fn meet_below_join(a in arb_type(), b in arb_type()) {
        let env = TypeEnv::new();
        if let Some(m) = meet(&a, &b, &env) {
            let j = join(&a, &b, &env);
            prop_assert!(is_subtype(&m, &j, &env), "meet {m} not below join {j}");
        }
    }

    #[test]
    fn size_is_positive_and_stable(t in arb_type()) {
        prop_assert!(t.size() >= 1);
        prop_assert_eq!(t.size(), t.clone().size());
    }
}
