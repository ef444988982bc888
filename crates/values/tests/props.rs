//! Property tests for the information ordering: `⊑` is a partial order,
//! `⊔` is a least upper bound where defined, `⊓` a greatest lower bound,
//! and the antichain reductions are canonical.

use dbpl_types::{Quant, Type};
use dbpl_values::{
    comparable, compatible, is_antichain, join, leq, meet, order::sort_key, reduce_maximal,
    reduce_minimal, Oid, Value,
};
use proptest::prelude::*;

/// Record-heavy values without sets (sets have non-canonical
/// representatives, covered by targeted tests below) and without Dyn/Ref
/// (flat by definition).
fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Unit),
        any::<bool>().prop_map(Value::Bool),
        (-3i64..3).prop_map(Value::Int),
        "[ab]{1,2}".prop_map(Value::str),
    ];
    leaf.prop_recursive(3, 32, 4, |inner| {
        prop_oneof![
            4 => prop::collection::btree_map("[xyz]", inner.clone(), 0..4).prop_map(|fs| Value::Record(fs.into())),
            1 => prop::collection::vec(inner.clone(), 0..3).prop_map(Value::List),
            1 => ("[AB]", inner).prop_map(|(l, v)| Value::tagged(l, v)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn leq_is_reflexive(a in arb_value()) {
        prop_assert!(leq(&a, &a));
    }

    #[test]
    fn leq_is_transitive(a in arb_value(), b in arb_value(), c in arb_value()) {
        if leq(&a, &b) && leq(&b, &c) {
            prop_assert!(leq(&a, &c));
        }
    }

    #[test]
    fn leq_is_antisymmetric(a in arb_value(), b in arb_value()) {
        if leq(&a, &b) && leq(&b, &a) {
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn join_is_lub(a in arb_value(), b in arb_value()) {
        if let Some(j) = join(&a, &b) {
            prop_assert!(leq(&a, &j));
            prop_assert!(leq(&b, &j));
        }
    }

    #[test]
    fn join_is_commutative_and_idempotent(a in arb_value(), b in arb_value()) {
        prop_assert_eq!(join(&a, &b), join(&b, &a));
        prop_assert_eq!(join(&a, &a), Some(a.clone()));
    }

    #[test]
    fn join_is_least(a in arb_value(), b in arb_value(), u in arb_value()) {
        // Any common upper bound dominates the join.
        if leq(&a, &u) && leq(&b, &u) {
            let j = join(&a, &b);
            prop_assert!(j.is_some(), "common upper bound implies join exists");
            prop_assert!(leq(&j.unwrap(), &u));
        }
    }

    #[test]
    fn meet_is_glb(a in arb_value(), b in arb_value()) {
        if let Some(m) = meet(&a, &b) {
            prop_assert!(leq(&m, &a));
            prop_assert!(leq(&m, &b));
        }
    }

    #[test]
    fn meet_is_greatest(a in arb_value(), b in arb_value(), l in arb_value()) {
        if leq(&l, &a) && leq(&l, &b) {
            let m = meet(&a, &b);
            prop_assert!(m.is_some(), "common lower bound implies meet exists");
            prop_assert!(leq(&l, &m.unwrap()));
        }
    }

    #[test]
    fn meet_commutative_idempotent(a in arb_value(), b in arb_value()) {
        prop_assert_eq!(meet(&a, &b), meet(&b, &a));
        prop_assert_eq!(meet(&a, &a), Some(a.clone()));
    }

    #[test]
    fn compatibility_is_symmetric(a in arb_value(), b in arb_value()) {
        prop_assert_eq!(compatible(&a, &b), compatible(&b, &a));
    }

    #[test]
    fn comparable_implies_compatible(a in arb_value(), b in arb_value()) {
        if comparable(&a, &b) {
            prop_assert!(compatible(&a, &b));
        }
    }

    #[test]
    fn absorption(a in arb_value(), b in arb_value()) {
        // a ⊔ (a ⊓ b) = a when both sides are defined.
        if let Some(m) = meet(&a, &b) {
            prop_assert_eq!(join(&a, &m), Some(a.clone()));
        }
        if let Some(j) = join(&a, &b) {
            prop_assert_eq!(meet(&a, &j), Some(a.clone()));
        }
    }

    #[test]
    fn reductions_produce_antichains(vs in prop::collection::vec(arb_value(), 0..8)) {
        let maxi = reduce_maximal(vs.clone());
        let mini = reduce_minimal(vs.clone());
        prop_assert!(is_antichain(&maxi));
        prop_assert!(is_antichain(&mini));
        // Every input element is represented: dominated by some maximal
        // element, and dominating some minimal element.
        for v in &vs {
            prop_assert!(maxi.iter().any(|m| leq(v, m)));
            prop_assert!(mini.iter().any(|m| leq(m, v)));
        }
    }

    #[test]
    fn reduction_is_idempotent(vs in prop::collection::vec(arb_value(), 0..8)) {
        let once = reduce_maximal(vs);
        let mut twice = reduce_maximal(once.clone());
        let mut once_sorted = once.clone();
        once_sorted.sort();
        twice.sort();
        prop_assert_eq!(once_sorted, twice);
    }

    #[test]
    fn extend_moves_up(a in arb_value(), v in arb_value()) {
        if a.is_record() {
            let base = dbpl_values::without(&a, "w").unwrap();
            let e = dbpl_values::extend(&base, [("w", v)]).unwrap();
            prop_assert!(leq(&base, &e));
        }
    }
}

// ---------- byte sort keys ----------

/// Types for `Dyn` values over tiny domains, so that types differing in
/// one spot are common: every variant of `Type`, records most often,
/// quantifiers bounded and unbounded.
fn arb_type() -> impl Strategy<Value = Type> {
    let leaf = prop_oneof![
        Just(Type::Int),
        Just(Type::Top),
        Just(Type::Dynamic),
        prop::sample::select(vec![
            Type::Float,
            Type::Bool,
            Type::Str,
            Type::Unit,
            Type::Bottom
        ]),
        "[P]".prop_map(Type::Named),
        "[u]".prop_map(Type::Var),
    ];
    leaf.prop_recursive(2, 16, 3, |inner| {
        let quant = ("[u]", prop::option::of(inner.clone()), inner.clone()).prop_map(
            |(var, bound, body)| Quant {
                var,
                bound: bound.map(Box::new),
                body: Box::new(body),
            },
        );
        prop_oneof![
            3 => prop::collection::btree_map("[xy]", inner.clone(), 0..3).prop_map(Type::record),
            1 => prop::collection::btree_map("[A]", inner.clone(), 0..2).prop_map(Type::variant),
            1 => inner.clone().prop_map(|t| Type::List(Box::new(t))),
            1 => inner.clone().prop_map(|t| Type::Set(Box::new(t))),
            1 => (inner.clone(), inner).prop_map(|(a, r)| Type::Fun(Box::new(a), Box::new(r))),
            2 => quant.clone().prop_map(|q| Type::Forall(Box::new(q))),
            1 => quant.prop_map(|q| Type::Exists(Box::new(q))),
        ]
    })
}

/// Strings that are NUL-bearing, empty, or prefixes of each other.
fn arb_text() -> impl Strategy<Value = String> {
    prop::sample::select(vec!["", "a", "a\0", "a\0b", "\0", "ab", "b", "é"]).prop_map(String::from)
}

/// Every variant of `Value` over small domains, so that equal and
/// barely-different values are common: boundary `Int`s, NaN of both
/// signs, ±0.0 and infinities, `Ref`s, sets, lists, `Tagged` and `Dyn`.
fn arb_any_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Unit),
        any::<bool>().prop_map(Value::Bool),
        prop_oneof![-2i64..2, Just(i64::MIN), Just(i64::MAX)].prop_map(Value::Int),
        prop::sample::select(vec![
            0.0,
            -0.0,
            1.5,
            -1.5,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
        ])
        .prop_map(Value::float),
        any::<f64>().prop_map(Value::float),
        arb_text().prop_map(Value::Str),
        prop::sample::select(vec![0u64, 1, u64::MAX]).prop_map(|n| Value::Ref(Oid(n))),
    ];
    leaf.prop_recursive(3, 32, 4, |inner| {
        prop_oneof![
            3 => prop::collection::btree_map(arb_text(), inner.clone(), 0..3)
                .prop_map(|fs| Value::Record(fs.into())),
            1 => prop::collection::vec(inner.clone(), 0..3).prop_map(Value::List),
            1 => prop::collection::btree_set(inner.clone(), 0..3).prop_map(Value::Set),
            1 => (arb_text(), inner.clone()).prop_map(|(l, v)| Value::tagged(l, v)),
            1 => (arb_type(), inner).prop_map(|(t, v)| Value::dynamic(t, v)),
        ]
    })
}

fn key_of(v: &Value) -> Vec<u8> {
    let mut out = Vec::new();
    sort_key(v, &mut out);
    out
}

/// Byte keys order like `Value`'s `Ord`, are equal exactly for equal
/// values, and no key is a proper prefix of another.
fn sort_keys_mirror_ord(vs: Vec<Value>) -> TestCaseResult {
    let keys: Vec<Vec<u8>> = vs.iter().map(key_of).collect();
    for (a, ka) in vs.iter().zip(&keys) {
        prop_assert_eq!(&key_of(&a.clone()), ka);
        for (b, kb) in vs.iter().zip(&keys) {
            prop_assert_eq!(ka.cmp(kb), a.cmp(b), "{:?} vs {:?}", a, b);
            prop_assert_eq!(ka == kb, a == b, "{:?} vs {:?}", a, b);
            prop_assert!(ka == kb || !kb.starts_with(ka), "{:?} prefixes {:?}", a, b);
        }
    }
    let mut by_ord = vs.clone();
    by_ord.sort();
    let mut by_key = vs;
    by_key.sort_by_cached_key(key_of);
    prop_assert_eq!(by_key, by_ord);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn sort_key_order_is_value_order(vs in prop::collection::vec(arb_any_value(), 0..8)) {
        sort_keys_mirror_ord(vs)?;
    }

    /// `Dyn`s of one value differ only in their types, which the keys
    /// must order as `Type`'s derived `Ord` does.
    #[test]
    fn sort_key_orders_dyn_by_type(ts in prop::collection::vec(arb_type(), 0..8)) {
        sort_keys_mirror_ord(ts.into_iter().map(|t| Value::dynamic(t, Value::Unit)).collect())?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16 * 512))]

    #[test]
    #[ignore = "16x the tier-1 cases; nightly runs with --ignored"]
    fn sort_key_order_is_value_order_nightly(vs in prop::collection::vec(arb_any_value(), 0..8)) {
        sort_keys_mirror_ord(vs)?;
    }

    #[test]
    #[ignore = "16x the tier-1 cases; nightly runs with --ignored"]
    fn sort_key_orders_dyn_by_type_nightly(ts in prop::collection::vec(arb_type(), 0..8)) {
        sort_keys_mirror_ord(ts.into_iter().map(|t| Value::dynamic(t, Value::Unit)).collect())?;
    }
}

#[test]
fn sort_key_edge_cases() {
    let ordered = [
        Value::Int(i64::MIN),
        Value::Int(-1),
        Value::Int(0),
        Value::Int(i64::MAX),
        Value::float(-f64::NAN),
        Value::float(f64::NEG_INFINITY),
        Value::float(-0.0),
        Value::float(0.0),
        Value::float(f64::NAN),
        Value::str(""),
        Value::str("a"),
        Value::str("a\0"),
        Value::str("a\0b"),
        Value::str("a\u{1}"),
        Value::str("ab"),
        Value::list([]),
        Value::list([Value::Unit]),
        Value::list([Value::Unit, Value::Unit]),
        Value::list([Value::Bool(false)]),
    ];
    for w in ordered.windows(2) {
        assert!(w[0] < w[1], "{:?} < {:?}", w[0], w[1]);
        assert!(key_of(&w[0]) < key_of(&w[1]), "{:?} < {:?}", w[0], w[1]);
    }
    assert_ne!(key_of(&Value::float(0.0)), key_of(&Value::float(-0.0)));
    assert_eq!(
        key_of(&Value::float(f64::NAN)),
        key_of(&Value::float(f64::NAN))
    );
}
