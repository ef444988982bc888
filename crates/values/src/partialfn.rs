//! Partial functions: the common generalization behind records and sets.
//!
//! The paper, about Figure 1's notation: "The same notation {…} has been
//! used for both sets and records. This is because both structures can be
//! derived from a more general structure, a *partial function*, and the
//! orderings defined both on sets and on records are naturally derived
//! from the ordering on partial functions."
//!
//! [`PartialFn<K, V>`] is a finite partial function with the pointwise
//! information ordering over an ordered codomain:
//!
//! ```text
//! f ⊑ g  iff  dom(f) ⊆ dom(g) and ∀k ∈ dom(f). f(k) ⊑ g(k)
//! ```
//!
//! * a **record** is a partial function `Label ⇀ Value` — instantiating
//!   the codomain ordering with the value ordering gives exactly
//!   [`crate::order::leq`] on records;
//! * a **set** is (the paper's observation, made precise here) obtained
//!   by quotienting partial functions `Value ⇀ Unit`: domain elements
//!   carry no information beyond being present, and the Hoare lifting of
//!   the element ordering is recovered on the quotient.
//!
//! [`crate::order`] implements records as a merge of two label-sorted
//! arrays; this module is its oracle. The proptest
//! `record_order_is_the_partial_function_order` (`tests/props.rs`)
//! checks that `⊑`, `⊔` and `⊓` on arbitrary generated record pairs
//! (nested, with set, list, tagged and `Dyn` fields) equal the pointwise
//! operations here; the unit tests below check the set derivation on
//! discretely ordered elements.

use std::collections::BTreeMap;

/// An ordered codomain: the information ordering and partial join/meet
/// of the values a partial function may take.
pub trait InfoOrder: Sized + Clone {
    /// Is `self ⊑ other`?
    fn info_leq(&self, other: &Self) -> bool;
    /// Least upper bound, if the two are consistent.
    fn info_join(&self, other: &Self) -> Option<Self>;
    /// Greatest lower bound; `None` is ⊥ (no common information).
    fn info_meet(&self, other: &Self) -> Option<Self>;
}

/// The one-point codomain: presence is the only information.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Present;

impl InfoOrder for Present {
    fn info_leq(&self, _: &Self) -> bool {
        true
    }
    fn info_join(&self, _: &Self) -> Option<Self> {
        Some(Present)
    }
    fn info_meet(&self, _: &Self) -> Option<Self> {
        Some(Present)
    }
}

impl InfoOrder for crate::value::Value {
    fn info_leq(&self, other: &Self) -> bool {
        crate::order::leq(self, other)
    }
    fn info_join(&self, other: &Self) -> Option<Self> {
        crate::order::join(self, other)
    }
    fn info_meet(&self, other: &Self) -> Option<Self> {
        crate::order::meet(self, other)
    }
}

/// A finite partial function `K ⇀ V` with the pointwise ordering.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PartialFn<K: Ord + Clone, V: InfoOrder> {
    entries: BTreeMap<K, V>,
}

impl<K: Ord + Clone, V: InfoOrder> PartialFn<K, V> {
    /// The nowhere-defined function — the ⊥ of the ordering.
    pub fn empty() -> Self {
        PartialFn {
            entries: BTreeMap::new(),
        }
    }

    /// From explicit graph pairs (later duplicates overwrite).
    pub fn from_pairs(pairs: impl IntoIterator<Item = (K, V)>) -> Self {
        PartialFn {
            entries: pairs.into_iter().collect(),
        }
    }

    /// Defined-ness at a point.
    pub fn defined_at(&self, k: &K) -> bool {
        self.entries.contains_key(k)
    }

    /// Application.
    pub fn apply(&self, k: &K) -> Option<&V> {
        self.entries.get(k)
    }

    /// Extend/overwrite at a point.
    pub fn define(&mut self, k: K, v: V) {
        self.entries.insert(k, v);
    }

    /// The domain.
    pub fn domain(&self) -> impl Iterator<Item = &K> {
        self.entries.keys()
    }

    /// Number of points of definition.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is this the empty (⊥) function?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The pointwise information ordering.
    pub fn leq(&self, other: &Self) -> bool {
        self.entries
            .iter()
            .all(|(k, v)| other.entries.get(k).is_some_and(|w| v.info_leq(w)))
    }

    /// Pointwise join: union of domains, joined where both defined.
    /// `None` when the two disagree at some common point.
    pub fn join(&self, other: &Self) -> Option<Self> {
        let mut out = self.entries.clone();
        for (k, w) in &other.entries {
            match out.get(k) {
                Some(v) => {
                    let j = v.info_join(w)?;
                    out.insert(k.clone(), j);
                }
                None => {
                    out.insert(k.clone(), w.clone());
                }
            }
        }
        Some(PartialFn { entries: out })
    }

    /// Pointwise meet: intersection of domains, met where consistent
    /// (points whose values share no information drop out of the domain).
    pub fn meet(&self, other: &Self) -> Self {
        let mut out = BTreeMap::new();
        for (k, v) in &self.entries {
            if let Some(w) = other.entries.get(k) {
                if let Some(m) = v.info_meet(w) {
                    out.insert(k.clone(), m);
                }
            }
        }
        PartialFn { entries: out }
    }
}

/// View a record value as a partial function `Label ⇀ Value`.
/// Returns `None` if the value is not a record.
pub fn record_as_partial_fn(
    v: &crate::value::Value,
) -> Option<PartialFn<crate::value::Label, crate::value::Value>> {
    v.as_record().map(|fs| PartialFn::from_pairs(fs.clone()))
}

/// View a set value as a partial function `Value ⇀ Present` (its
/// characteristic partial function).
pub fn set_as_partial_fn(
    v: &crate::value::Value,
) -> Option<PartialFn<crate::value::Value, Present>> {
    v.as_set()
        .map(|xs| PartialFn::from_pairs(xs.iter().cloned().map(|x| (x, Present))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order;
    use crate::value::Value;

    fn rec(pairs: &[(&str, i64)]) -> Value {
        Value::record(pairs.iter().map(|(l, v)| (l.to_string(), Value::Int(*v))))
    }

    #[test]
    fn record_ordering_is_derived_from_partial_fn_ordering() {
        // The derivation the paper asserts, checked on concrete cases.
        let cases = [
            (rec(&[("a", 1)]), rec(&[("a", 1), ("b", 2)])),
            (rec(&[("a", 1)]), rec(&[("a", 2)])),
            (rec(&[]), rec(&[("x", 9)])),
            (rec(&[("a", 1), ("b", 2)]), rec(&[("a", 1)])),
        ];
        for (x, y) in &cases {
            let fx = record_as_partial_fn(x).unwrap();
            let fy = record_as_partial_fn(y).unwrap();
            assert_eq!(fx.leq(&fy), order::leq(x, y), "{x} vs {y}");
            // Joins agree too (as records).
            let pj = fx.join(&fy).map(|f| Value::Record(f.entries.into()));
            assert_eq!(pj, order::join(x, y), "join {x} vs {y}");
        }
    }

    #[test]
    fn nested_records_derive_recursively() {
        let a = Value::record([("Addr", rec(&[("City", 1)]))]);
        let b = Value::record([
            ("Addr", rec(&[("City", 1), ("Zip", 2)])),
            ("N", Value::Int(3)),
        ]);
        let fa = record_as_partial_fn(&a).unwrap();
        let fb = record_as_partial_fn(&b).unwrap();
        assert!(fa.leq(&fb));
        assert_eq!(fa.leq(&fb), order::leq(&a, &b));
    }

    #[test]
    fn set_ordering_derives_through_the_characteristic_function() {
        // For *discretely* ordered elements (base values), Hoare ordering
        // degenerates to ⊆, which is exactly the partial-function
        // ordering of the characteristic functions.
        let s1 = Value::set([Value::Int(1), Value::Int(2)]);
        let s2 = Value::set([Value::Int(1), Value::Int(2), Value::Int(3)]);
        let f1 = set_as_partial_fn(&s1).unwrap();
        let f2 = set_as_partial_fn(&s2).unwrap();
        assert_eq!(f1.leq(&f2), order::leq(&s1, &s2));
        assert!(!f2.leq(&f1));
        // Join = union: agrees with the set join.
        let j = f1.join(&f2).unwrap();
        assert_eq!(j.len(), 3);
        assert_eq!(order::join(&s1, &s2), Some(s2));
    }

    #[test]
    fn pointwise_laws() {
        let f = PartialFn::from_pairs([("a", Value::Int(1)), ("b", Value::Int(2))]);
        let g = PartialFn::from_pairs([("b", Value::Int(2)), ("c", Value::Int(3))]);
        let h = PartialFn::from_pairs([("b", Value::Int(9))]);
        // Join exists when common points agree.
        let j = f.join(&g).unwrap();
        assert_eq!(j.len(), 3);
        assert!(f.leq(&j) && g.leq(&j));
        // ...and fails when they clash.
        assert!(f.join(&h).is_none());
        // Meet keeps only agreeing common points.
        let m = f.meet(&g);
        assert_eq!(m.len(), 1);
        assert!(m.leq(&f) && m.leq(&g));
        let m2 = f.meet(&h);
        assert!(m2.is_empty(), "clashing point drops out");
        // Empty is bottom.
        assert!(PartialFn::<&str, Value>::empty().leq(&f));
    }

    #[test]
    fn define_and_apply() {
        let mut f: PartialFn<&str, Value> = PartialFn::empty();
        assert!(!f.defined_at(&"x"));
        f.define("x", Value::Int(1));
        assert_eq!(f.apply(&"x"), Some(&Value::Int(1)));
        assert_eq!(f.domain().count(), 1);
    }
}
