//! Property tests for the information ordering: `⊑` is a partial order,
//! `⊔` is a least upper bound where defined, `⊓` a greatest lower bound,
//! the antichain reductions are canonical, and on records all three are
//! the pointwise operations on partial functions. `RecordFields` is
//! checked against a `BTreeMap` model.

use dbpl_types::{Quant, Type};
use dbpl_values::{
    comparable, compatible, is_antichain, join, leq, meet, order::sort_key, put_path,
    record_as_partial_fn, reduce_maximal, reduce_minimal, Label, Oid, PartialFn, Path,
    RecordFields, Value,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};

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
            4 => prop::collection::btree_map("[xyz]", inner.clone(), 0..4).prop_map(Value::record),
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
        arb_text().prop_map(Value::str),
        prop::sample::select(vec![0u64, 1, u64::MAX]).prop_map(|n| Value::Ref(Oid(n))),
    ];
    leaf.prop_recursive(3, 32, 4, |inner| {
        prop_oneof![
            3 => prop::collection::btree_map(arb_text(), inner.clone(), 0..3)
                .prop_map(Value::record),
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

// ---------- records are partial functions (the map-form oracle) ----------

/// A label from one small alphabet, so two records' labels overlap, are
/// disjoint, or coincide.
fn arb_label() -> impl Strategy<Value = String> {
    prop::sample::select(vec!["a", "b", "c", "d", "e"]).prop_map(String::from)
}

/// Field values: base values, records over [`arb_label`] nesting up to
/// four deep, sets, lists, tagged values and `Dyn`s of two types.
fn arb_field() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Unit),
        (-2i64..2).prop_map(Value::Int),
        "[xy]".prop_map(Value::str),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            4 => prop::collection::btree_map(arb_label(), inner.clone(), 0..4)
                .prop_map(Value::record),
            1 => prop::collection::btree_set(inner.clone(), 0..3).prop_map(Value::Set),
            1 => prop::collection::vec(inner.clone(), 0..3).prop_map(Value::List),
            1 => ("[AB]", inner.clone()).prop_map(|(l, v)| Value::tagged(l, v)),
            1 => (prop::sample::select(vec![Type::Top, Type::Int]), inner)
                .prop_map(|(t, v)| Value::dynamic(t, v)),
        ]
    })
}

/// A record over [`arb_label`] whose fields are [`arb_field`]s.
fn arb_record() -> impl Strategy<Value = Value> {
    prop::collection::btree_map(arb_label(), arb_field(), 0..5).prop_map(Value::record)
}

/// A partial function back as a record value, built from its graph.
fn partial_fn_record(f: &PartialFn<Label, Value>) -> Value {
    Value::record(f.domain().map(|l| (*l, f.apply(l).unwrap().clone())))
}

/// `⊑`, `⊔` and `⊓` on two records are the pointwise ordering, join and
/// meet of the partial functions `Label ⇀ Value` they denote.
fn records_are_partial_functions(a: &Value, b: &Value) -> TestCaseResult {
    let fa = record_as_partial_fn(a).unwrap();
    let fb = record_as_partial_fn(b).unwrap();
    prop_assert_eq!(leq(a, b), fa.leq(&fb), "{} ⊑ {}", a, b);
    prop_assert_eq!(
        join(a, b),
        fa.join(&fb).map(|f| partial_fn_record(&f)),
        "{} ⊔ {}",
        a,
        b
    );
    prop_assert_eq!(
        meet(a, b),
        Some(partial_fn_record(&fa.meet(&fb))),
        "{} ⊓ {}",
        a,
        b
    );
    Ok(())
}

/// Two records: unrelated ones, a record and itself with one field set
/// (added or overwritten), or a record with its first field dropped and
/// the record itself (so `a ⊑ b`). Related pairs are then common, not
/// only incomparable ones.
fn arb_record_pair() -> impl Strategy<Value = (Value, Value)> {
    prop_oneof![
        (arb_record(), arb_record()),
        (arb_record(), arb_label(), arb_field()).prop_map(|(a, l, v)| {
            let b = dbpl_values::extend(&a, [(l, v)]).unwrap();
            (a, b)
        }),
        arb_record().prop_map(|b| {
            let a = match b.as_record().unwrap().keys().next() {
                Some(l) => dbpl_values::without(&b, l).unwrap(),
                None => b.clone(),
            };
            (a, b)
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn record_order_is_the_partial_function_order((a, b) in arb_record_pair()) {
        records_are_partial_functions(&a, &b)?;
        records_are_partial_functions(&b, &a)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16 * 512))]

    #[test]
    #[ignore = "16x the tier-1 cases; nightly runs with --ignored"]
    fn record_order_is_the_partial_function_order_nightly((a, b) in arb_record_pair()) {
        records_are_partial_functions(&a, &b)?;
        records_are_partial_functions(&b, &a)?;
    }
}

// ---------- `RecordFields` against a `BTreeMap` model ----------

/// A write to one record and to its model map.
#[derive(Clone, Debug)]
enum FieldOp {
    Insert(String, Value),
    Remove(String),
    Extend(Vec<(String, Value)>),
    Overwrite(String, Value),
}

fn arb_field_op() -> impl Strategy<Value = FieldOp> {
    prop_oneof![
        3 => (arb_label(), arb_field()).prop_map(|(l, v)| FieldOp::Insert(l, v)),
        2 => arb_label().prop_map(FieldOp::Remove),
        1 => prop::collection::vec((arb_label(), arb_field()), 0..4).prop_map(FieldOp::Extend),
        1 => (arb_label(), arb_field()).prop_map(|(l, v)| FieldOp::Overwrite(l, v)),
    ]
}

/// The record holds exactly the model's pairs, in the model's order,
/// and answers every lookup as the model does.
fn agrees(fields: &RecordFields, model: &BTreeMap<String, Value>) -> TestCaseResult {
    prop_assert_eq!(fields.len(), model.len());
    prop_assert!(
        fields
            .iter()
            .map(|(l, v)| (l.as_str(), v))
            .eq(model.iter().map(|(l, v)| (l.as_str(), v))),
        "{:?} vs {:?}",
        fields,
        model
    );
    for l in ["a", "b", "c", "d", "e", "", "aa"] {
        prop_assert_eq!(fields.get(l), model.get(l), "get {}", l);
        prop_assert_eq!(
            fields.contains_key(l),
            model.contains_key(l),
            "contains {}",
            l
        );
    }
    Ok(())
}

/// `collect` from unsorted pairs with repeated labels keeps the last
/// value of a label, as a `BTreeMap`'s `collect` does; each mutator then
/// moves the record as it moves the map, and never a copy that shares
/// the record's array.
fn record_fields_follow_the_model(
    pairs: Vec<(String, Value)>,
    ops: Vec<FieldOp>,
) -> TestCaseResult {
    let mut fields: RecordFields = pairs.iter().map(|(l, v)| (l.into(), v.clone())).collect();
    let mut model: BTreeMap<String, Value> = pairs.into_iter().collect();
    agrees(&fields, &model)?;
    for op in ops {
        let (before, model_before) = (fields.clone(), model.clone());
        match op {
            FieldOp::Insert(l, v) => {
                prop_assert_eq!(fields.insert((&l).into(), v.clone()), model.insert(l, v));
            }
            FieldOp::Remove(l) => prop_assert_eq!(fields.remove(&l), model.remove(&l)),
            FieldOp::Extend(adds) => {
                fields.extend(adds.iter().map(|(l, v)| (l.into(), v.clone())));
                model.extend(adds);
            }
            FieldOp::Overwrite(l, v) => {
                if let Some(slot) = fields.get_mut(&l) {
                    *slot = v.clone();
                }
                if let Some(slot) = model.get_mut(&l) {
                    *slot = v;
                }
            }
        }
        agrees(&fields, &model)?;
        agrees(&before, &model_before)?;
    }
    Ok(())
}

/// The map form of a record value (its top level).
fn map_form(v: &Value) -> BTreeMap<String, Value> {
    v.as_record()
        .unwrap()
        .clone()
        .into_iter()
        .map(|(l, v)| (l.to_string(), v))
        .collect()
}

/// `put_path` on the map form: missing records along the path are made,
/// a non-record along it is an error (`None`).
fn model_put_path(v: &Value, path: &[String], new: Value) -> Option<Value> {
    let Some((seg, rest)) = path.split_first() else {
        return Some(new);
    };
    let mut map = v.as_record().map(|_| map_form(v))?;
    let child = map
        .get(seg)
        .cloned()
        .unwrap_or_else(|| Value::Record(Default::default()));
    map.insert(seg.clone(), model_put_path(&child, rest, new)?);
    Some(Value::record(map))
}

fn hash_of(x: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    x.hash(&mut h);
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn record_fields_behave_as_a_btree_map(
        pairs in prop::collection::vec((arb_label(), arb_field()), 0..8),
        ops in prop::collection::vec(arb_field_op(), 0..12),
    ) {
        record_fields_follow_the_model(pairs, ops)?;
    }

    /// `Value::record`, `extend`, `without` and `put_path` build the
    /// record their map form says.
    #[test]
    fn record_builders_match_the_map_model(
        pairs in prop::collection::vec((arb_label(), arb_field()), 0..6),
        adds in prop::collection::vec((arb_label(), arb_field()), 0..4),
        gone in arb_label(),
        path in prop::collection::vec(arb_label(), 0..4),
        new in arb_field(),
    ) {
        let v = Value::record(pairs.clone());
        let model: BTreeMap<String, Value> = pairs.into_iter().collect();
        agrees(v.as_record().unwrap(), &model)?;

        let extended = dbpl_values::extend(&v, adds.clone()).unwrap();
        let mut model_extended = model.clone();
        model_extended.extend(adds);
        agrees(extended.as_record().unwrap(), &model_extended)?;

        let less = dbpl_values::without(&v, &gone).unwrap();
        let mut model_less = model.clone();
        model_less.remove(&gone);
        agrees(less.as_record().unwrap(), &model_less)?;

        let mut put = v.clone();
        let ok = put_path(&mut put, &Path(path.iter().map(Into::into).collect()), new.clone()).is_ok();
        let model_put = model_put_path(&v, &path, new);
        prop_assert_eq!(ok, model_put.is_some());
        if let Some(want) = model_put {
            prop_assert_eq!(&put, &want);
            if let Some(fs) = put.as_record() {
                agrees(fs, &map_form(&want))?;
            }
        } else {
            prop_assert_eq!(&put, &v, "a refused put changes nothing");
        }
    }

    /// Two records order, compare, hash and sort-key exactly as their map
    /// forms do.
    #[test]
    fn records_order_and_hash_as_their_map_forms((a, b) in arb_record_pair()) {
        let (ma, mb) = (map_form(&a), map_form(&b));
        prop_assert_eq!(a.cmp(&b), ma.cmp(&mb));
        prop_assert_eq!(a == b, ma == mb);
        prop_assert_eq!(key_of(&a).cmp(&key_of(&b)), ma.cmp(&mb));
        prop_assert_eq!(key_of(&a) == key_of(&b), ma == mb);
        prop_assert_eq!(hash_of(a.as_record().unwrap()), hash_of(&ma));
        prop_assert_eq!(format!("{:?}", a.as_record().unwrap()), format!("{ma:?}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16 * 512))]

    #[test]
    #[ignore = "16x the tier-1 cases; nightly runs with --ignored"]
    fn record_fields_behave_as_a_btree_map_nightly(
        pairs in prop::collection::vec((arb_label(), arb_field()), 0..8),
        ops in prop::collection::vec(arb_field_op(), 0..12),
    ) {
        record_fields_follow_the_model(pairs, ops)?;
    }
}
