//! Property-based tests for the type system: the subtype relation is a
//! preorder, the lattice operators bound their arguments, and the
//! parser/printer pair round-trips.

use dbpl_types::{
    consistent, is_subtype, is_subtype_uncached, join, meet, parse_type, SubtypePolicy, Type,
    TypeEnv,
};
use proptest::prelude::*;

/// The leaves of [`arb_type`].
fn base_leaf() -> impl Strategy<Value = Type> {
    prop_oneof![
        Just(Type::Int),
        Just(Type::Float),
        Just(Type::Bool),
        Just(Type::Str),
        Just(Type::Unit),
        Just(Type::Top),
        Just(Type::Bottom),
        Just(Type::Dynamic),
    ]
}

/// Closed, first-order types over `leaf` (no variables/quantifiers —
/// those are covered by targeted unit tests; lattice ops approximate on
/// them by design).
fn types_over(leaf: impl Strategy<Value = Type> + 'static) -> impl Strategy<Value = Type> {
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            inner.clone().prop_map(Type::list),
            inner.clone().prop_map(Type::set),
            prop::collection::btree_map("[a-d]", inner.clone(), 0..4).prop_map(Type::record),
            prop::collection::btree_map("[a-d]", inner.clone(), 1..4).prop_map(Type::variant),
            (inner.clone(), inner).prop_map(|(a, r)| Type::fun(a, r)),
        ]
    })
}

/// A strategy producing closed, first-order types without names.
fn arb_type() -> impl Strategy<Value = Type> {
    types_over(base_leaf())
}

/// The named types of [`arb_named_env`].
const NAMES: [&str; 4] = ["N0", "N1", "N2", "N3"];

/// Types that may mention the names of [`arb_named_env`].
fn arb_type_with_names() -> impl Strategy<Value = Type> {
    let name = prop::sample::select(NAMES.to_vec()).prop_map(Type::named);
    types_over(prop_oneof![base_leaf(), name])
}

/// An environment under either policy that defines every name in
/// [`NAMES`] as a record over a shared field vocabulary (so structural
/// subtyping between them is common) and then tries some `include`
/// edges, keeping those the environment accepts.
fn arb_named_env() -> impl Strategy<Value = TypeEnv> {
    let field = prop_oneof![Just(Type::Int), Just(Type::Str), Just(Type::Top)];
    let record = prop::collection::btree_map("[a-c]", field, 0..4).prop_map(Type::record);
    (
        any::<bool>(),
        prop::collection::vec(record, NAMES.len()),
        prop::collection::vec((0..NAMES.len(), 0..NAMES.len()), 0..6),
    )
        .prop_map(|(declared, defs, edges)| {
            let mut env = TypeEnv::with_policy(if declared {
                SubtypePolicy::Declared
            } else {
                SubtypePolicy::Structural
            });
            for (name, ty) in NAMES.iter().zip(defs) {
                env.declare(*name, ty).unwrap();
            }
            for (sub, sup) in edges {
                let _ = env.declare_subtype(NAMES[sub], NAMES[sup]);
            }
            env
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The memo table answers exactly as the structural walk: on a
    /// miss, on the hit that follows it, and after one more `include`
    /// edge (which must not let a verdict of the old schema through).
    /// Every pair of names is asked besides the arbitrary pairs, since
    /// an edge changes exactly those verdicts.
    #[test]
    fn memoized_subtyping_equals_the_uncached_walk(
        mut env in arb_named_env(),
        mut pairs in prop::collection::vec((arb_type_with_names(), arb_type_with_names()), 1..6),
        edge in (0..NAMES.len(), 0..NAMES.len()),
    ) {
        for a in NAMES {
            pairs.extend(NAMES.map(|b| (Type::named(a), Type::named(b))));
        }
        let agree = |env: &TypeEnv, when: &str| -> Result<(), TestCaseError> {
            for (a, b) in &pairs {
                let walk = is_subtype_uncached(a, b, env);
                prop_assert_eq!(is_subtype(a, b, env), walk, "{} <= {} {}, asked once", a, b, when);
                prop_assert_eq!(is_subtype(a, b, env), walk, "{} <= {} {}, asked twice", a, b, when);
            }
            Ok(())
        };
        agree(&env, "")?;
        let _ = env.declare_subtype(NAMES[edge.0], NAMES[edge.1]);
        agree(&env, "after one more edge")?;
    }
}
