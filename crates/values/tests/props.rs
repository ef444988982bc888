//! Property tests for the information ordering: `⊑` is a partial order,
//! `⊔` is a least upper bound where defined, `⊓` a greatest lower bound,
//! and the antichain reductions are canonical.

use dbpl_values::{
    comparable, compatible, is_antichain, join, leq, meet, reduce_maximal, reduce_minimal, Value,
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
