//! Property tests: generalized relations maintain the antichain invariant,
//! the generalized join is an upper bound (least under minimal reduction),
//! it specializes to the classical natural join on flat data (E4), and the
//! FD algorithms obey the textbook laws.

use dbpl_relation::{
    attrs, to_flat, to_generalized, Attrs, Fd, FdSet, GenRelation, JoinStrategy, Reduction,
    Relation, Schema,
};
use dbpl_types::Type;
use dbpl_values::{is_antichain, reduce_maximal, Path, Value};
use proptest::prelude::*;
use std::collections::BTreeSet;

// ---------- generators ----------

/// Partial records over a tiny attribute vocabulary with tiny domains so
/// collisions (hence joins and subsumptions) are common.
fn arb_partial_record() -> impl Strategy<Value = Value> {
    prop::collection::btree_map("[abcd]", 0i64..3, 0..4)
        .prop_map(|m| Value::record(m.into_iter().map(|(k, v)| (k, Value::Int(v)))))
}

fn arb_gen_relation() -> impl Strategy<Value = GenRelation> {
    prop::collection::vec(arb_partial_record(), 0..8).prop_map(GenRelation::from_values)
}

/// Partial records whose `n` field is itself a partial record, exercising
/// partition keys on dotted paths.
fn arb_nested_record() -> impl Strategy<Value = Value> {
    (arb_partial_record(), prop::option::of(arb_partial_record())).prop_map(|(mut outer, inner)| {
        if let (Value::Record(fields), Some(nested)) = (&mut outer, inner) {
            fields.insert("n".into(), nested);
        }
        outer
    })
}

/// A relation whose rows mostly carry a shared key field `k` holding a
/// base value, plus explicit key-partial rows without `k` (some with no
/// ground leaf at all), and rows whose `k` holds a partial record
/// (non-ground at `k`, ground at `k.a` or `k.b` perhaps).
fn arb_key_partial_relation() -> impl Strategy<Value = GenRelation> {
    fn with_k(mut row: Value, k: Value) -> Value {
        if let Value::Record(fields) = &mut row {
            fields.insert("k".into(), k);
        }
        row
    }
    let keyed = (arb_join_record(), arb_join_leaf()).prop_map(|(row, k)| with_k(row, k));
    let record_k = (arb_join_record(), arb_partial_record()).prop_map(|(row, k)| with_k(row, k));
    let partial = prop_oneof![3 => arb_join_record(), 1 => arb_leafless_row()];
    (
        prop::collection::vec(keyed, 3..9),
        prop::collection::vec(partial, 0..3),
        prop::collection::vec(record_k, 0..3),
    )
        .prop_map(|(keyed, partial, record_k)| {
            GenRelation::from_values(keyed.into_iter().chain(partial).chain(record_k))
        })
}

/// Base values of several kinds over tiny domains: `Int`s, `Str`s and
/// `Float`s (`0.0` and `-0.0` are different values that do not join).
fn arb_join_leaf() -> impl Strategy<Value = Value> {
    prop_oneof![
        3 => (0i64..3).prop_map(Value::Int),
        1 => prop::sample::select(vec!["x", "y"]).prop_map(Value::str),
        1 => prop::sample::select(vec![0.0, -0.0, 1.5]).prop_map(Value::float),
    ]
}

/// An optional set of flat partial records, for a field `s`: sets are
/// never ground, so rows meet through them only by the Hoare ordering.
fn arb_set() -> impl Strategy<Value = Option<BTreeSet<Value>>> {
    prop::option::of(prop::collection::btree_set(arb_partial_record(), 0..3))
}

/// `row` with `set`, if any, as its field `s`.
fn with_set(mut row: Value, set: Option<BTreeSet<Value>>) -> Value {
    if let (Value::Record(fields), Some(set)) = (&mut row, set) {
        fields.insert("s".into(), Value::Set(set));
    }
    row
}

/// Partial records over `[abcd]` holding mixed base values, some with a
/// set-valued field.
fn arb_join_record() -> impl Strategy<Value = Value> {
    (
        prop::collection::btree_map("[abcd]", arb_join_leaf(), 0..4),
        arb_set(),
    )
        .prop_map(|(m, set)| with_set(Value::record(m), set))
}

/// Rows with no ground leaf at all: `{}`, an empty nested record `n`, a
/// set, or both — key-partial on any key, and without a ground value to
/// look their possible dominators up by.
fn arb_leafless_row() -> impl Strategy<Value = Value> {
    (any::<bool>(), arb_set()).prop_map(|(n, set)| {
        let row = if n {
            Value::record([("n", Value::record::<[(&str, Value); 0], &str>([]))])
        } else {
            Value::record::<[(&str, Value); 0], &str>([])
        };
        with_set(row, set)
    })
}

/// Relations of mixed-kind rows, about one in five of them leafless.
fn arb_join_relation() -> impl Strategy<Value = GenRelation> {
    let row = prop_oneof![4 => arb_join_record(), 1 => arb_leafless_row()];
    prop::collection::vec(row, 0..8).prop_map(GenRelation::from_values)
}

/// [`arb_join_record`]s whose `n` field may itself be one.
fn arb_nested_join_record() -> impl Strategy<Value = Value> {
    (arb_join_record(), prop::option::of(arb_join_record())).prop_map(|(mut outer, inner)| {
        if let (Value::Record(fields), Some(nested)) = (&mut outer, inner) {
            fields.insert("n".into(), nested);
        }
        outer
    })
}

/// Flat relations over a fixed 3-attribute schema with small domains.
fn flat_schema(names: [&str; 3]) -> Schema {
    Schema::new(names.map(|n| (n, Type::Int))).unwrap()
}

fn arb_flat(names: [&'static str; 3]) -> impl Strategy<Value = Relation> {
    prop::collection::vec((0i64..3, 0i64..3, 0i64..3), 0..8).prop_map(move |rows| {
        let mut r = Relation::new(flat_schema(names));
        for (a, b, c) in rows {
            r.insert_row([
                (names[0], Value::Int(a)),
                (names[1], Value::Int(b)),
                (names[2], Value::Int(c)),
            ])
            .unwrap();
        }
        r
    })
}

fn arb_fdset() -> impl Strategy<Value = FdSet> {
    let attr = prop::sample::select(vec!["A", "B", "C", "D", "E"]);
    let fd = (
        prop::collection::btree_set(attr.clone(), 1..3),
        prop::collection::btree_set(attr, 1..3),
    )
        .prop_map(|(l, r)| Fd::new(l, r));
    prop::collection::vec(fd, 0..6).prop_map(FdSet::from_fds)
}

fn all_attrs() -> Attrs {
    attrs(["A", "B", "C", "D", "E"])
}

// ---------- properties ----------

/// Partitioned ≡ nested under `reductions`, byte for byte.
fn strategies_agree(a: &GenRelation, b: &GenRelation, reductions: &[Reduction]) -> TestCaseResult {
    for &red in reductions {
        let nested = a.natural_join_strategy(b, red, JoinStrategy::Nested);
        let partitioned = a.natural_join_strategy(b, red, JoinStrategy::Partitioned);
        prop_assert_eq!(nested, partitioned, "strategies diverged under {:?}", red);
    }
    Ok(())
}

const BOTH: [Reduction; 2] = [Reduction::Maximal, Reduction::Minimal];

/// The join differentials: tier 1 runs `cases` of each, the nightly 16×.
macro_rules! join_differentials {
    ($cases:expr, $($ignore:meta)?; $plain:ident, $nested:ident, $key_partial:ident) => {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases($cases))]

            /// The differential test behind the fast path: the
            /// hash-partitioned join must be byte-for-byte the nested-loop
            /// join, on random partial-record relations (small domains of
            /// `Int`, `Str` and `Float` values make both disagreeing ground
            /// values and rows partial on the key common; set-valued and
            /// leafless rows meet only through the ordering) under both
            /// reductions. The Figure 1 fixture is checked in the unit suite.
            #[test]
            $(#[$ignore])?
            fn $plain(a in arb_join_relation(), b in arb_join_relation()) {
                strategies_agree(&a, &b, &BOTH)?;
            }

            /// Same differential on *nested* partial records, so the
            /// partition key must discriminate on dotted paths, not just
            /// top-level fields.
            #[test]
            $(#[$ignore])?
            fn $nested(
                a in prop::collection::vec(arb_nested_join_record(), 0..8),
                b in prop::collection::vec(arb_nested_join_record(), 0..8)
            ) {
                let (a, b) = (GenRelation::from_values(a), GenRelation::from_values(b));
                strategies_agree(&a, &b, &[Reduction::Maximal])?;
            }

            /// Partitioned ≡ nested where the hoisted key `k` is missing
            /// from some rows and holds a record in others, so both the
            /// join's key-partial products and the grouped reduction's
            /// key-partial rows are exercised.
            #[test]
            $(#[$ignore])?
            fn $key_partial(a in arb_key_partial_relation(), b in arb_key_partial_relation()) {
                strategies_agree(&a, &b, &BOTH)?;
            }
        }
    };
}

join_differentials!(
    128,;
    partitioned_join_equals_nested_join,
    partitioned_join_equals_nested_join_on_nested_records,
    partitioned_join_equals_nested_join_with_key_partial_rows
);

join_differentials!(
    16 * 128, ignore = "16x the tier-1 cases; nightly runs with --ignored";
    partitioned_join_equals_nested_join_nightly,
    partitioned_join_equals_nested_join_on_nested_records_nightly,
    partitioned_join_equals_nested_join_with_key_partial_rows_nightly
);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn insertion_maintains_antichain(vs in prop::collection::vec(arb_partial_record(), 0..12)) {
        let mut r = GenRelation::new();
        for v in vs {
            r.insert(v);
        }
        prop_assert!(is_antichain(r.rows()));
    }

    #[test]
    fn join_is_upper_bound_both_reductions(a in arb_gen_relation(), b in arb_gen_relation()) {
        for red in [Reduction::Maximal, Reduction::Minimal] {
            let j = a.natural_join_with(&b, red);
            prop_assert!(a.leq(&j), "R1 not ⊑ join under {red:?}");
            prop_assert!(b.leq(&j), "R2 not ⊑ join under {red:?}");
            prop_assert!(is_antichain(j.rows()));
        }
    }

    /// The relation operations that canonicalize through the bucketed
    /// reduction (keyed on the rows' own ground paths) keep exactly the
    /// rows, in order, that the literal `reduce_maximal` keeps.
    #[test]
    fn canonicalization_equals_reduce_maximal(
        a in prop::collection::vec(arb_nested_record(), 0..10),
        b in arb_key_partial_relation()
    ) {
        let rows = |r: GenRelation| r.into_iter().collect::<Vec<Value>>();
        prop_assert_eq!(rows(GenRelation::from_values(a.clone())), reduce_maximal(a.clone()));
        let a = GenRelation::from_values(a);
        let both: Vec<Value> = a.iter().chain(b.iter()).cloned().collect();
        prop_assert_eq!(rows(a.union(&b)), reduce_maximal(both));
        let meets: Vec<Value> = a
            .iter()
            .flat_map(|x| b.iter().filter_map(move |y| dbpl_values::meet(x, y)))
            .collect();
        prop_assert_eq!(rows(a.meet(&b)), reduce_maximal(meets));
        let paths = [Path::parse("k"), Path::parse("n.a"), Path::parse("a")];
        let projections: Vec<Value> = b
            .iter()
            .map(|row| {
                let mut proj = Value::record::<[(&str, Value); 0], &str>([]);
                for p in &paths {
                    if let Some(v) = dbpl_values::get_path(row, p) {
                        dbpl_values::put_path(&mut proj, p, v.clone()).unwrap();
                    }
                }
                proj
            })
            .collect();
        prop_assert_eq!(rows(b.project(paths.clone())), reduce_maximal(projections));
    }

    #[test]
    fn minimal_join_is_least(a in arb_gen_relation(), b in arb_gen_relation()) {
        // The minimal-reduced join is the least upper bound; in particular
        // it sits below the maximal-reduced one.
        let jmin = a.natural_join_with(&b, Reduction::Minimal);
        let jmax = a.natural_join_with(&b, Reduction::Maximal);
        prop_assert!(jmin.leq(&jmax));
    }

    #[test]
    fn minimal_join_idempotent(a in arb_gen_relation()) {
        let j = a.natural_join_with(&a, Reduction::Minimal);
        prop_assert!(j.equiv(&a), "R ⋈ R ≠ R under minimal reduction:\n{a}\nvs\n{j}");
    }

    #[test]
    fn gen_join_commutative(a in arb_gen_relation(), b in arb_gen_relation()) {
        let ab = a.natural_join(&b);
        let ba = b.natural_join(&a);
        prop_assert!(ab.equiv(&ba));
        prop_assert_eq!(ab.len(), ba.len());
    }

    /// Associativity holds for the *minimal* (least-upper-bound) reduction
    /// only: the subsumption (maximal) form discards less-informative
    /// objects that could still join with a third relation — see the unit
    /// test `maximal_join_is_not_associative` below for the documented
    /// counterexample, and DESIGN.md §5 for the discussion.
    #[test]
    fn gen_join_associative_under_minimal_reduction(
        a in arb_gen_relation(), b in arb_gen_relation(), c in arb_gen_relation()
    ) {
        let left = a
            .natural_join_with(&b, Reduction::Minimal)
            .natural_join_with(&c, Reduction::Minimal);
        let right = a.natural_join_with(
            &b.natural_join_with(&c, Reduction::Minimal),
            Reduction::Minimal,
        );
        prop_assert!(left.equiv(&right));
    }

    #[test]
    fn union_is_hoare_upper_bound(a in arb_gen_relation(), b in arb_gen_relation()) {
        let u = a.union(&b);
        // Every member of a and b is entailed by the union.
        for row in a.rows().iter().chain(b.rows()) {
            prop_assert!(u.entails(row));
        }
        prop_assert!(is_antichain(u.rows()));
    }

    // E4: the generalized join specializes to the classical natural join.
    #[test]
    fn generalized_join_equals_natural_join_on_flat_data(
        r in arb_flat(["K", "X", "Y"]), s in arb_flat(["K", "Y", "Z"])
    ) {
        // Schemas share K and Y.
        let flat = r.natural_join(&s).unwrap();
        let generalized = to_generalized(&r).natural_join(&to_generalized(&s));
        let back = to_flat(&generalized, flat.schema().clone()).unwrap();
        prop_assert_eq!(back, flat);
    }

    #[test]
    fn flat_roundtrip(r in arb_flat(["A", "B", "C"])) {
        let back = to_flat(&to_generalized(&r), r.schema().clone()).unwrap();
        prop_assert_eq!(back, r);
    }

    #[test]
    fn flat_join_commutes(r in arb_flat(["K", "X", "Y"]), s in arb_flat(["K", "Y", "Z"])) {
        let a = r.natural_join(&s).unwrap();
        let b = s.natural_join(&r).unwrap();
        prop_assert_eq!(a.len(), b.len());
        prop_assert_eq!(a, b);
    }

    #[test]
    fn projection_is_idempotent(r in arb_flat(["A", "B", "C"])) {
        let p1 = r.project(&["A", "B"]).unwrap();
        let p2 = p1.project(&["A", "B"]).unwrap();
        prop_assert_eq!(p1, p2);
    }

    // ---------- FD laws ----------

    #[test]
    fn closure_is_monotone_and_extensive(fds in arb_fdset(), seed in prop::collection::btree_set(prop::sample::select(vec!["A","B","C","D","E"]), 0..4)) {
        let x: Attrs = seed.into_iter().map(Into::into).collect();
        let cx = fds.closure(&x);
        prop_assert!(x.is_subset(&cx), "extensive");
        prop_assert_eq!(fds.closure(&cx).len(), cx.len());
        // Monotone: add an attribute, closure can only grow.
        let mut bigger = x.clone();
        bigger.insert("E".into());
        prop_assert!(cx.is_subset(&fds.closure(&bigger)));
    }

    #[test]
    fn minimal_cover_is_equivalent(fds in arb_fdset()) {
        let cover = fds.minimal_cover();
        prop_assert!(cover.equivalent(&fds));
        for f in cover.fds() {
            prop_assert_eq!(f.rhs.len(), 1, "singleton RHS");
            prop_assert!(!f.is_trivial());
        }
    }

    #[test]
    fn candidate_keys_are_minimal_superkeys(fds in arb_fdset()) {
        let all = all_attrs();
        let keys = fds.candidate_keys(&all);
        prop_assert!(!keys.is_empty(), "every relation has a key");
        for k in &keys {
            prop_assert!(fds.is_candidate_key(k, &all), "{k:?} not a candidate key");
        }
        // Pairwise incomparable.
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                prop_assert!(!a.is_subset(b) && !b.is_subset(a));
            }
        }
    }

    #[test]
    fn synthesized_3nf_is_lossless_and_preserving(fds in arb_fdset()) {
        let all = all_attrs();
        let parts = fds.synthesize_3nf(&all);
        prop_assert!(fds.lossless_join(&all, &parts));
        let mut union = FdSet::new();
        for p in &parts {
            for f in fds.project(p).fds() {
                union.add(f.clone());
            }
        }
        for f in fds.fds() {
            prop_assert!(union.implies(f), "dependency {f} lost");
        }
    }

    #[test]
    fn bcnf_decomposition_is_lossless(fds in arb_fdset()) {
        let all = all_attrs();
        let parts = fds.bcnf_decompose(&all);
        prop_assert!(fds.lossless_join(&all, &parts));
    }

    #[test]
    fn trivial_decomposition_is_lossless(fds in arb_fdset()) {
        let all = all_attrs();
        prop_assert!(fds.lossless_join(&all, std::slice::from_ref(&all)));
    }
}

/// The discovered counterexample to associativity under the subsumption
/// (maximal) reduction: the paper's insertion rule keeps only the most
/// informative objects, and `{a=0}` — subsumed into `{a=0,b=1}` after the
/// first join — can no longer meet `{b=0}` in the second. The least-
/// upper-bound (minimal) reduction keeps it and stays associative.
#[test]
fn maximal_join_is_not_associative() {
    let rec = |pairs: &[(&str, i64)]| {
        Value::record(pairs.iter().map(|(l, v)| (l.to_string(), Value::Int(*v))))
    };
    let a = GenRelation::from_values([rec(&[("a", 0)]), rec(&[("b", 1)])]);
    let b = GenRelation::from_values([rec(&[("a", 0)]), rec(&[("a", 1)])]);
    let c = GenRelation::from_values([rec(&[("b", 0)])]);

    let left = a.natural_join(&b).natural_join(&c);
    let right = a.natural_join(&b.natural_join(&c));
    assert!(left.is_empty());
    assert_eq!(right.len(), 1);
    assert!(
        !left.equiv(&right),
        "maximal reduction: associativity fails"
    );

    let lmin = a
        .natural_join_with(&b, Reduction::Minimal)
        .natural_join_with(&c, Reduction::Minimal);
    let rmin = a.natural_join_with(
        &b.natural_join_with(&c, Reduction::Minimal),
        Reduction::Minimal,
    );
    assert!(lmin.equiv(&rmin), "minimal reduction: associativity holds");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The two orderings and their joins, as [Bune86] uses them: `union`
    /// is the least upper bound of the Hoare ordering; the (minimal-
    /// reduced) natural join of the paper's ordering. Projection is
    /// monotone for Hoare.
    #[test]
    fn union_is_hoare_lub(a in arb_gen_relation(), b in arb_gen_relation()) {
        let u = a.union(&b);
        prop_assert!(a.leq_hoare(&u));
        prop_assert!(b.leq_hoare(&u));
        // Least: below any other Hoare upper bound.
        let bigger = u.union(&arb_extra());
        prop_assert!(u.leq_hoare(&bigger));
    }

    #[test]
    fn hoare_ordering_is_a_preorder(
        a in arb_gen_relation(), b in arb_gen_relation(), c in arb_gen_relation()
    ) {
        prop_assert!(a.leq_hoare(&a));
        if a.leq_hoare(&b) && b.leq_hoare(&c) {
            prop_assert!(a.leq_hoare(&c));
        }
    }

    #[test]
    fn projection_is_monotone_for_hoare(a in arb_gen_relation(), b in arb_gen_relation()) {
        if a.leq_hoare(&b) {
            let paths = [dbpl_values::Path::parse("a"), dbpl_values::Path::parse("b")];
            let pa = a.project(paths.clone());
            let pb = b.project(paths);
            prop_assert!(pa.leq_hoare(&pb));
        }
    }

    /// Weak FD satisfaction is antitone in the Hoare ordering restricted
    /// to *total* relations: removing objects can't create violations.
    #[test]
    fn fd_satisfaction_survives_subsetting(a in arb_gen_relation()) {
        let fd = Fd::new(["a"], ["b"]);
        if dbpl_relation::satisfies_generalized(&a, &fd) {
            let half = GenRelation::from_values(
                a.rows().iter().take(a.len() / 2).cloned().collect::<Vec<_>>(),
            );
            prop_assert!(dbpl_relation::satisfies_generalized(&half, &fd));
        }
    }
}

/// A small fixed relation used as "any other upper bound" material.
fn arb_extra() -> GenRelation {
    GenRelation::from_values([Value::record([("z".to_string(), Value::Int(9))])])
}
