//! Experiment E4's correctness half: the generalized natural join
//! restricted to flat, total records **is** the classical natural join —
//! "it is a generalization of the 'natural join' for 1NF relations".

use dbpl::relation::{to_flat, to_generalized, Relation, Schema};
use dbpl::types::Type;
use dbpl::values::Value;
use proptest::prelude::*;

fn schema(names: &[&str]) -> Schema {
    Schema::new(names.iter().map(|n| (n.to_string(), Type::Int))).unwrap()
}

fn relation(names: &[&str], rows: &[Vec<i64>]) -> Relation {
    let mut r = Relation::new(schema(names));
    for row in rows {
        r.insert(
            names
                .iter()
                .zip(row)
                .map(|(n, v)| ((*n).into(), Value::Int(*v)))
                .collect(),
        )
        .unwrap();
    }
    r
}

#[test]
fn textbook_example_agrees() {
    // R(K, X) ⋈ S(K, Y)
    let r = relation(&["K", "X"], &[vec![1, 10], vec![2, 20], vec![3, 30]]);
    let s = relation(&["K", "Y"], &[vec![1, 100], vec![1, 101], vec![3, 300]]);
    let flat = r.natural_join(&s).unwrap();
    assert_eq!(flat.len(), 3); // K=1 twice, K=3 once

    let gen = to_generalized(&r).natural_join(&to_generalized(&s));
    let back = to_flat(&gen, flat.schema().clone()).unwrap();
    assert_eq!(back, flat);
}

#[test]
fn disjoint_schemas_become_products() {
    let r = relation(&["A"], &[vec![1], vec![2]]);
    let s = relation(&["B"], &[vec![7], vec![8], vec![9]]);
    let flat = r.natural_join(&s).unwrap();
    assert_eq!(flat.len(), 6);
    let gen = to_generalized(&r).natural_join(&to_generalized(&s));
    assert_eq!(gen.len(), 6);
}

#[test]
fn identical_schemas_become_intersections() {
    let r = relation(&["A", "B"], &[vec![1, 1], vec![2, 2]]);
    let s = relation(&["A", "B"], &[vec![2, 2], vec![3, 3]]);
    let flat = r.natural_join(&s).unwrap();
    assert_eq!(flat.len(), 1);
    let gen = to_generalized(&r).natural_join(&to_generalized(&s));
    let back = to_flat(&gen, flat.schema().clone()).unwrap();
    assert_eq!(back, flat);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The headline property, on random relations with overlapping
    /// schemas and small domains (to force matches).
    #[test]
    fn generalized_join_specializes_exactly(
        r_rows in prop::collection::vec(prop::collection::vec(0i64..4, 3), 0..12),
        s_rows in prop::collection::vec(prop::collection::vec(0i64..4, 3), 0..12),
    ) {
        let r = relation(&["K", "L", "X"], &r_rows);
        let s = relation(&["K", "L", "Y"], &s_rows);
        let flat = r.natural_join(&s).unwrap();
        let gen = to_generalized(&r).natural_join(&to_generalized(&s));
        prop_assert_eq!(gen.len(), flat.len());
        let back = to_flat(&gen, flat.schema().clone()).unwrap();
        prop_assert_eq!(back, flat);
    }

    /// Projection also specializes: flat π vs generalized projection.
    #[test]
    fn generalized_projection_specializes(
        rows in prop::collection::vec(prop::collection::vec(0i64..4, 3), 0..12),
    ) {
        let r = relation(&["A", "B", "C"], &rows);
        let flat = r.project(&["A", "B"]).unwrap();
        let gen = to_generalized(&r)
            .project([dbpl::values::Path::parse("A"), dbpl::values::Path::parse("B")]);
        let back = to_flat(&gen, flat.schema().clone()).unwrap();
        prop_assert_eq!(back, flat);
    }
}
