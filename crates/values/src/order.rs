//! The information ordering `⊑` on objects, with its partial join `⊔`
//! and meet `⊓`.
//!
//! This is the paper's object-level inheritance: `o ⊑ o'` means "`o'`
//! contains more information than `o`". A record is made *better defined*
//! "either by adding new fields or by better defining one of the existing
//! fields":
//!
//! ```text
//! {Name='J Doe', Address={City='Austin'}}
//!   ⊑ {Name='J Doe', Address={City='Austin'}, Emp_no=1234}
//!   ⊑ {Name='J Doe', Address={City='Austin', Zip=78759}, Emp_no=1234}
//! ```
//!
//! The join `⊔` "effectively merges the information in two records"; it is
//! partial — `{Name='J Doe'} ⊔ {Name='K Smith'}` does not exist "since
//! there is no value we can put in the Name field that is better than
//! both". Base values are ordered flatly (comparable only when equal);
//! sets are ordered by the Hoare (lower) powerdomain ordering; variants are
//! comparable only under the same tag; references only at the same object
//! identity. The result is a complete partial order on finite values, after
//! Aït-Kaci and Bancilhon–Khoshafian.

use crate::value::{RecordFields, Step, Value};
use dbpl_types::Type;
use std::collections::BTreeSet;

/// Does `a ⊑ b` hold — is `b` at least as informative as `a`?
pub fn leq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        // Every field of `a` is in `b`, and better defined there: one walk
        // of the two label-sorted arrays.
        (Value::Record(fa), Value::Record(fb)) => {
            fa.len() <= fb.len()
                && fa.merge(fb).all(|step| match step {
                    Step::Left(_) => false,
                    Step::Right(_) => true,
                    Step::Both((_, va), (_, vb)) => leq(va, vb),
                })
        }
        (Value::Tagged(la, va), Value::Tagged(lb, vb)) => la == lb && leq(va, vb),
        (Value::List(xa), Value::List(xb)) => {
            xa.len() == xb.len() && xa.iter().zip(xb).all(|(x, y)| leq(x, y))
        }
        // Hoare ordering: every element of `a` is dominated by an element
        // of `b`.
        (Value::Set(xa), Value::Set(xb)) => xa.iter().all(|x| xb.iter().any(|y| leq(x, y))),
        (Value::Dyn(da), Value::Dyn(db)) => da.ty == db.ty && leq(&da.value, &db.value),
        // Base values, references: flat.
        _ => a == b,
    }
}

/// Are the two values `⊑`-comparable (in either direction)?
pub fn comparable(a: &Value, b: &Value) -> bool {
    leq(a, b) || leq(b, a)
}

/// The join `a ⊔ b`: the least value containing the information of both,
/// or `None` when the two disagree (e.g. on a base field).
pub fn join(a: &Value, b: &Value) -> Option<Value> {
    match (a, b) {
        // The union of the fields, joined where both records have one.
        (Value::Record(fa), Value::Record(fb)) => RecordFields::build_sorted(|out| {
            for step in fa.merge(fb) {
                out.push(match step {
                    Step::Left(pair) | Step::Right(pair) => pair.clone(),
                    Step::Both((l, va), (_, vb)) => (*l, join(va, vb)?),
                });
            }
            Some(())
        })
        .map(Value::Record),
        (Value::Tagged(la, va), Value::Tagged(lb, vb)) => {
            if la == lb {
                Some(Value::Tagged(*la, Box::new(join(va, vb)?)))
            } else {
                None
            }
        }
        (Value::List(xa), Value::List(xb)) => {
            if xa.len() != xb.len() {
                return None;
            }
            let items: Option<Vec<Value>> = xa.iter().zip(xb).map(|(x, y)| join(x, y)).collect();
            Some(Value::List(items?))
        }
        // Hoare join: union, canonicalized by dropping dominated elements.
        (Value::Set(xa), Value::Set(xb)) => {
            let union: Vec<Value> = xa.iter().chain(xb.iter()).cloned().collect();
            Some(Value::Set(reduce_maximal(union).into_iter().collect()))
        }
        (Value::Dyn(da), Value::Dyn(db)) => {
            if da.ty == db.ty {
                Some(Value::dynamic(da.ty.clone(), join(&da.value, &db.value)?))
            } else {
                None
            }
        }
        _ => {
            if a == b {
                Some(a.clone())
            } else {
                None
            }
        }
    }
}

/// The meet `a ⊓ b`: the common information of the two values. `None`
/// denotes ⊥ — no information in common at all. For records the meet
/// always exists (possibly the empty record).
pub fn meet(a: &Value, b: &Value) -> Option<Value> {
    match (a, b) {
        // The common fields, met; a field whose meet is ⊥ drops out.
        (Value::Record(fa), Value::Record(fb)) => RecordFields::build_sorted(|out| {
            for step in fa.merge(fb) {
                if let Step::Both((l, va), (_, vb)) = step {
                    if let Some(m) = meet(va, vb) {
                        out.push((*l, m));
                    }
                }
            }
            Some(())
        })
        .map(Value::Record),
        (Value::Tagged(la, va), Value::Tagged(lb, vb)) => {
            if la == lb {
                meet(va, vb).map(|m| Value::Tagged(*la, Box::new(m)))
            } else {
                None
            }
        }
        (Value::List(xa), Value::List(xb)) => {
            if xa.len() != xb.len() {
                return None;
            }
            let items: Option<Vec<Value>> = xa.iter().zip(xb).map(|(x, y)| meet(x, y)).collect();
            items.map(Value::List)
        }
        (Value::Set(xa), Value::Set(xb)) => {
            // Pairwise meets, canonicalized; ⊥ elements are dropped.
            let meets: Vec<Value> = xa
                .iter()
                .flat_map(|x| xb.iter().filter_map(move |y| meet(x, y)))
                .collect();
            Some(Value::Set(reduce_maximal(meets).into_iter().collect()))
        }
        (Value::Dyn(da), Value::Dyn(db)) => {
            if da.ty == db.ty {
                meet(&da.value, &db.value).map(|m| Value::dynamic(da.ty.clone(), m))
            } else {
                None
            }
        }
        _ => {
            if a == b {
                Some(a.clone())
            } else {
                None
            }
        }
    }
}

/// Do the two values have a join — can their information be merged?
pub fn compatible(a: &Value, b: &Value) -> bool {
    join(a, b).is_some()
}

/// Reduce a collection of values to its **maximal** elements: drop any
/// value dominated by another (the paper's subsumption rule for admitting
/// objects into a relation). Duplicates collapse.
pub fn reduce_maximal(items: Vec<Value>) -> Vec<Value> {
    let distinct: BTreeSet<Value> = items.into_iter().collect();
    let items: Vec<Value> = distinct.into_iter().collect();
    let mut keep = Vec::new();
    'outer: for (i, x) in items.iter().enumerate() {
        for (j, y) in items.iter().enumerate() {
            if i != j && leq(x, y) && (!leq(y, x) || j < i) {
                // x is strictly dominated, or equal with an earlier witness.
                continue 'outer;
            }
        }
        keep.push(x.clone());
    }
    keep
}

/// Reduce a collection of values to its **minimal** elements (the dual
/// canonical form, used by the alternative relation ordering).
pub fn reduce_minimal(items: Vec<Value>) -> Vec<Value> {
    let distinct: BTreeSet<Value> = items.into_iter().collect();
    let items: Vec<Value> = distinct.into_iter().collect();
    let mut keep = Vec::new();
    'outer: for (i, x) in items.iter().enumerate() {
        for (j, y) in items.iter().enumerate() {
            if i != j && leq(y, x) && (!leq(x, y) || j < i) {
                continue 'outer;
            }
        }
        keep.push(x.clone());
    }
    keep
}

/// Is the collection an antichain (a *cochain* in the paper's lattice
/// jargon): no two distinct elements comparable?
pub fn is_antichain(items: &[Value]) -> bool {
    for (i, x) in items.iter().enumerate() {
        for y in &items[i + 1..] {
            if comparable(x, y) {
                return false;
            }
        }
    }
    true
}

/// Append a byte key for `v` to `out`: keys compare (as byte strings) in
/// the order of `Value`'s derived `Ord`, and two keys are equal exactly
/// when the values are. Sorting many values on keys held in one buffer
/// compares with `memcmp` instead of walking string-keyed maps.
///
/// The key is prefix-free, so the keys of a sequence's elements can be
/// concatenated: a variant tag in declaration order, then a sign-flipped
/// big-endian `Int`, the `total_cmp` order of a `Float`'s bits, strings
/// with NUL escaped as `00 FF` and terminated by `00 00`, and elements or
/// fields each prefixed by `1` and the sequence closed by `0` (a shorter
/// sequence sorts first). A `Dyn`'s type is encoded the same way, after
/// `Type`'s derived order.
pub fn sort_key(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Unit => out.push(0),
        Value::Bool(b) => out.extend([1, u8::from(*b)]),
        Value::Int(i) => {
            out.push(2);
            out.extend(((*i as u64) ^ (1 << 63)).to_be_bytes());
        }
        Value::Float(x) => {
            out.push(3);
            let bits = x.0.to_bits();
            let key = if bits >> 63 == 1 {
                !bits
            } else {
                bits ^ (1 << 63)
            };
            out.extend(key.to_be_bytes());
        }
        Value::Str(s) => {
            out.push(4);
            str_key(s, out);
        }
        Value::List(xs) => {
            out.push(5);
            seq_key(xs, out, sort_key);
        }
        Value::Set(xs) => {
            out.push(6);
            seq_key(xs, out, sort_key);
        }
        Value::Record(fields) => {
            out.push(7);
            seq_key(fields.iter(), out, |(l, v), out| {
                str_key(l, out);
                sort_key(v, out);
            });
        }
        Value::Tagged(l, v) => {
            out.push(8);
            str_key(l, out);
            sort_key(v, out);
        }
        Value::Dyn(d) => {
            out.push(9);
            type_key(&d.ty, out);
            sort_key(&d.value, out);
        }
        Value::Ref(oid) => {
            out.push(10);
            out.extend(oid.0.to_be_bytes());
        }
    }
}

/// A string's bytes, NUL escaped as `00 FF`, terminated by `00 00`.
fn str_key(s: &str, out: &mut Vec<u8>) {
    for &b in s.as_bytes() {
        out.push(b);
        if b == 0 {
            out.push(0xFF);
        }
    }
    out.extend([0, 0]);
}

/// Each item prefixed by `1`, the sequence closed by `0`.
fn seq_key<I: IntoIterator>(items: I, out: &mut Vec<u8>, item_key: impl Fn(I::Item, &mut Vec<u8>)) {
    for item in items {
        out.push(1);
        item_key(item, out);
    }
    out.push(0);
}

/// [`sort_key`] for the type a `Dyn` carries, after `Type`'s derived order.
fn type_key(t: &Type, out: &mut Vec<u8>) {
    let fields = |fs: &dbpl_types::Fields, out: &mut Vec<u8>| {
        seq_key(fs.iter(), out, |(l, t), out| {
            str_key(l, out);
            type_key(t, out);
        })
    };
    let quant = |q: &dbpl_types::Quant, out: &mut Vec<u8>| {
        str_key(&q.var, out);
        match &q.bound {
            None => out.push(0),
            Some(b) => {
                out.push(1);
                type_key(b, out);
            }
        }
        type_key(&q.body, out);
    };
    match t {
        Type::Int => out.push(0),
        Type::Float => out.push(1),
        Type::Bool => out.push(2),
        Type::Str => out.push(3),
        Type::Unit => out.push(4),
        Type::Top => out.push(5),
        Type::Bottom => out.push(6),
        Type::Dynamic => out.push(7),
        Type::List(e) => {
            out.push(8);
            type_key(e, out);
        }
        Type::Set(e) => {
            out.push(9);
            type_key(e, out);
        }
        Type::Record(fs) => {
            out.push(10);
            fields(fs, out);
        }
        Type::Variant(fs) => {
            out.push(11);
            fields(fs, out);
        }
        Type::Fun(a, r) => {
            out.push(12);
            type_key(a, out);
            type_key(r, out);
        }
        Type::Named(n) => {
            out.push(13);
            str_key(n, out);
        }
        Type::Var(v) => {
            out.push(14);
            str_key(v, out);
        }
        Type::Forall(q) => {
            out.push(15);
            quant(q, out);
        }
        Type::Exists(q) => {
            out.push(16);
            quant(q, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn o1() -> Value {
        Value::record([
            ("Name", Value::str("J Doe")),
            ("Address", Value::record([("City", Value::str("Austin"))])),
        ])
    }
    fn o2() -> Value {
        Value::record([
            ("Name", Value::str("J Doe")),
            ("Address", Value::record([("City", Value::str("Austin"))])),
            ("Emp_no", Value::Int(1234)),
        ])
    }
    fn o3() -> Value {
        Value::record([
            ("Name", Value::str("J Doe")),
            (
                "Address",
                Value::record([("City", Value::str("Austin")), ("Zip", Value::Int(78759))]),
            ),
        ])
    }

    #[test]
    fn paper_examples_of_ordering() {
        // o1 ⊑ o2 and o1 ⊑ o3, exactly as in the paper.
        assert!(leq(&o1(), &o2()));
        assert!(leq(&o1(), &o3()));
        assert!(!leq(&o2(), &o1()));
        assert!(!comparable(&o2(), &o3()));
    }

    #[test]
    fn paper_example_of_join() {
        // {Name='J Doe'} ⊔ {Emp_no=1234} = {Name='J Doe', Emp_no=1234}
        let a = Value::record([("Name", Value::str("J Doe"))]);
        let b = Value::record([("Emp_no", Value::Int(1234))]);
        assert_eq!(
            join(&a, &b),
            Some(Value::record([
                ("Name", Value::str("J Doe")),
                ("Emp_no", Value::Int(1234))
            ]))
        );
        // o2 ⊔ o3 from the paper.
        let expected = Value::record([
            ("Name", Value::str("J Doe")),
            (
                "Address",
                Value::record([("City", Value::str("Austin")), ("Zip", Value::Int(78759))]),
            ),
            ("Emp_no", Value::Int(1234)),
        ]);
        assert_eq!(join(&o2(), &o3()), Some(expected));
    }

    #[test]
    fn join_fails_on_disagreement() {
        // "we cannot join o1 with {Name = 'K Smith'}"
        let k = Value::record([("Name", Value::str("K Smith"))]);
        assert_eq!(join(&o1(), &k), None);
        assert!(!compatible(&o1(), &k));
    }

    #[test]
    fn join_is_least_upper_bound_here() {
        let j = join(&o2(), &o3()).unwrap();
        assert!(leq(&o2(), &j));
        assert!(leq(&o3(), &j));
    }

    #[test]
    fn meet_is_common_information() {
        let m = meet(&o2(), &o3()).unwrap();
        assert_eq!(m, o1());
        // Disagreeing base fields drop out of the meet.
        let a = Value::record([("x", Value::Int(1)), ("y", Value::Int(2))]);
        let b = Value::record([("x", Value::Int(9)), ("y", Value::Int(2))]);
        assert_eq!(meet(&a, &b), Some(Value::record([("y", Value::Int(2))])));
    }

    #[test]
    fn meet_of_unequal_bases_is_bottom() {
        assert_eq!(meet(&Value::Int(1), &Value::Int(2)), None);
        assert_eq!(meet(&Value::Int(1), &Value::Int(1)), Some(Value::Int(1)));
    }

    #[test]
    fn empty_record_is_bottom_of_records() {
        let empty = Value::record::<[(&str, Value); 0], &str>([]);
        assert!(leq(&empty, &o1()));
        assert_eq!(join(&empty, &o1()), Some(o1()));
        assert_eq!(meet(&empty, &o1()), Some(empty));
    }

    #[test]
    fn tags_must_match() {
        let a = Value::tagged("Ok", Value::record([("x", Value::Int(1))]));
        let b = Value::tagged("Ok", Value::record([("y", Value::Int(2))]));
        let c = Value::tagged("Err", Value::record([("x", Value::Int(1))]));
        assert!(join(&a, &b).is_some());
        assert_eq!(join(&a, &c), None);
        assert_eq!(meet(&a, &c), None);
    }

    #[test]
    fn refs_are_flat() {
        use crate::value::Oid;
        assert!(leq(&Value::Ref(Oid(1)), &Value::Ref(Oid(1))));
        assert!(!comparable(&Value::Ref(Oid(1)), &Value::Ref(Oid(2))));
    }

    #[test]
    fn set_hoare_ordering() {
        let small = Value::set([o1()]);
        let big = Value::set([o2(), o3()]);
        assert!(leq(&small, &big), "o1 is dominated by o2");
        assert!(!leq(&big, &small));
        // Empty set is the bottom.
        let empty = Value::set([]);
        assert!(leq(&empty, &small));
    }

    #[test]
    fn set_join_subsumes() {
        let a = Value::set([o1()]);
        let b = Value::set([o2()]);
        // o1 ⊑ o2, so the union canonicalizes to {o2}.
        assert_eq!(join(&a, &b), Some(Value::set([o2()])));
    }

    #[test]
    fn reduce_maximal_drops_dominated_and_dupes() {
        let r = reduce_maximal(vec![o1(), o2(), o3(), o2()]);
        assert_eq!(r.len(), 2);
        assert!(r.contains(&o2()) && r.contains(&o3()));
        assert!(is_antichain(&r));
    }

    #[test]
    fn reduce_minimal_keeps_bottom_elements() {
        let r = reduce_minimal(vec![o1(), o2(), o3()]);
        assert_eq!(r, vec![o1()]);
    }

    #[test]
    fn lists_are_pointwise() {
        let a = Value::list([o1(), o1()]);
        let b = Value::list([o2(), o3()]);
        assert!(leq(&a, &b));
        let j = join(&a, &b).unwrap();
        assert_eq!(j, b);
        // Length mismatch: incomparable, no join.
        let c = Value::list([o1()]);
        assert!(!comparable(&a, &c));
        assert_eq!(join(&a, &c), None);
    }
}
