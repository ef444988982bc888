//! The structural type representation.
//!
//! Types follow the system sketched in the paper: base types, records
//! (subtyped by width and depth), variants, lists, sets, functions, the
//! special `Dynamic` type of Amber, and Cardelli–Wegner style *bounded*
//! universal and existential quantifiers — enough to write down the type of
//! the generic extraction function
//!
//! ```text
//! Get : ∀t. Database → List[∃t' ≤ t]
//! ```
//!
//! Named types are *abbreviations* (as in Amber: "type declarations ...
//! serve only to create names for types") resolved through a
//! [`TypeEnv`](crate::env::TypeEnv); recursive types are expressed by names
//! that mention themselves and are treated equi-recursively by the subtype
//! and equivalence algorithms.
//!
//! Labels are interned [`Label`] symbols, shared with the values; the name
//! table behind them only grows, bounded by the distinct labels ever seen.

pub use crate::label::Label;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// A type variable name (bound by a quantifier).
pub type TyVar = String;

/// A named type (an abbreviation registered in a [`crate::env::TypeEnv`]).
pub type Name = String;

/// The body of a record or variant type: an ordered map from labels to
/// field types, shared.
///
/// `BTreeMap` gives us canonical field order, so two record types with the
/// same fields are structurally identical regardless of declaration order —
/// exactly the structural view the paper attributes to Amber. The map
/// sits behind an [`Arc`]: cloning a record type is a refcount bump, so
/// every stored row of one carried type can point at one map (see
/// `TypedListIndex::add` in `dbpl-core`). Reads deref to the map; writes
/// ([`DerefMut`]) un-share it first with [`Arc::make_mut`]. Equality,
/// order and hashing are the map's.
#[derive(Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fields(Arc<BTreeMap<Label, Type>>);

impl Fields {
    /// No fields.
    pub fn new() -> Fields {
        Fields::default()
    }

    /// Do the two share one map (not merely equal ones)?
    pub fn ptr_eq(&self, other: &Fields) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Deref for Fields {
    type Target = BTreeMap<Label, Type>;

    fn deref(&self) -> &BTreeMap<Label, Type> {
        &self.0
    }
}

impl DerefMut for Fields {
    fn deref_mut(&mut self) -> &mut BTreeMap<Label, Type> {
        Arc::make_mut(&mut self.0)
    }
}

impl fmt::Debug for Fields {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl From<BTreeMap<Label, Type>> for Fields {
    fn from(map: BTreeMap<Label, Type>) -> Fields {
        Fields(Arc::new(map))
    }
}

impl FromIterator<(Label, Type)> for Fields {
    fn from_iter<I: IntoIterator<Item = (Label, Type)>>(fields: I) -> Fields {
        Fields::from(fields.into_iter().collect::<BTreeMap<_, _>>())
    }
}

impl IntoIterator for Fields {
    type Item = (Label, Type);
    type IntoIter = std::collections::btree_map::IntoIter<Label, Type>;

    fn into_iter(self) -> Self::IntoIter {
        Arc::unwrap_or_clone(self.0).into_iter()
    }
}

impl<'a> IntoIterator for &'a Fields {
    type Item = (&'a Label, &'a Type);
    type IntoIter = std::collections::btree_map::Iter<'a, Label, Type>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// A quantified type: `∀v ≤ bound. body` or `∃v ≤ bound. body`.
///
/// A missing bound is equivalent to a bound of [`Type::Top`] (unbounded
/// quantification, as in `Cons : ∀a. (a × List[a]) → List[a]`).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Quant {
    /// The bound variable.
    pub var: TyVar,
    /// Upper bound on the variable; `None` means `Top`.
    pub bound: Option<Box<Type>>,
    /// The body in which `var` may occur free.
    pub body: Box<Type>,
}

/// A structural type.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Type {
    /// 64-bit integers.
    Int,
    /// 64-bit floats. `Int ≤ Float` holds (numeric widening).
    Float,
    /// Booleans.
    Bool,
    /// Strings.
    Str,
    /// The one-value type.
    Unit,
    /// Greatest type: every type is a subtype of `Top`.
    Top,
    /// Least type: `Bottom` is a subtype of every type. Used as the element
    /// type of an empty list and as the identity for type joins.
    Bottom,
    /// Amber's `Dynamic`: a value paired with a runtime description of its
    /// type. `Dynamic` is deliberately *not* a supertype of other types —
    /// values must be injected with an explicit `dynamic` operation and
    /// recovered with `coerce`, as in the paper.
    Dynamic,
    /// Homogeneous lists, covariant.
    List(Box<Type>),
    /// Sets, covariant.
    Set(Box<Type>),
    /// Records, subtyped by width (more fields) and depth (fields at
    /// subtypes).
    Record(Fields),
    /// Variants (tagged unions), subtyped contravariantly in width.
    Variant(Fields),
    /// Functions, contravariant in the argument and covariant in the result.
    Fun(Box<Type>, Box<Type>),
    /// A reference to a named type; resolution (and hence recursion) happens
    /// through a `TypeEnv`.
    Named(Name),
    /// A bound type variable.
    Var(TyVar),
    /// Bounded universal quantification `∀v ≤ B. T`. Boxed, like the
    /// existential, so the rare quantifiers do not widen every type: a
    /// stored row carries its record type, so the enum's size is paid
    /// per row and per field.
    Forall(Box<Quant>),
    /// Bounded existential quantification `∃v ≤ B. T` — the type of an
    /// object "whose type is some subtype of B" extracted by `Get`.
    Exists(Box<Quant>),
}

impl Type {
    /// Convenience constructor for a record type.
    pub fn record<I, S>(fields: I) -> Type
    where
        I: IntoIterator<Item = (S, Type)>,
        S: Into<Label>,
    {
        Type::Record(fields.into_iter().map(|(l, t)| (l.into(), t)).collect())
    }

    /// Convenience constructor for a variant type.
    pub fn variant<I, S>(arms: I) -> Type
    where
        I: IntoIterator<Item = (S, Type)>,
        S: Into<Label>,
    {
        Type::Variant(arms.into_iter().map(|(l, t)| (l.into(), t)).collect())
    }

    /// Convenience constructor for a list type.
    pub fn list(elem: Type) -> Type {
        Type::List(Box::new(elem))
    }

    /// Convenience constructor for a set type.
    pub fn set(elem: Type) -> Type {
        Type::Set(Box::new(elem))
    }

    /// Convenience constructor for a function type.
    pub fn fun(arg: Type, res: Type) -> Type {
        Type::Fun(Box::new(arg), Box::new(res))
    }

    /// Convenience constructor for a named type reference.
    pub fn named(n: impl Into<String>) -> Type {
        Type::Named(n.into())
    }

    /// Convenience constructor for a type variable.
    pub fn var(v: impl Into<String>) -> Type {
        Type::Var(v.into())
    }

    /// `∀v ≤ bound. body` (pass `None` for an unbounded variable).
    pub fn forall(v: impl Into<String>, bound: Option<Type>, body: Type) -> Type {
        Type::Forall(Box::new(Quant {
            var: v.into(),
            bound: bound.map(Box::new),
            body: Box::new(body),
        }))
    }

    /// `∃v ≤ bound. body` (pass `None` for an unbounded variable).
    pub fn exists(v: impl Into<String>, bound: Option<Type>, body: Type) -> Type {
        Type::Exists(Box::new(Quant {
            var: v.into(),
            bound: bound.map(Box::new),
            body: Box::new(body),
        }))
    }

    /// Is this one of the scalar base types?
    pub fn is_base(&self) -> bool {
        matches!(
            self,
            Type::Int | Type::Float | Type::Bool | Type::Str | Type::Unit
        )
    }

    /// The set of type variables occurring free in this type.
    pub fn free_vars(&self) -> BTreeSet<TyVar> {
        let mut acc = BTreeSet::new();
        self.collect_free(&mut Vec::new(), &mut acc);
        acc
    }

    fn collect_free(&self, bound: &mut Vec<TyVar>, acc: &mut BTreeSet<TyVar>) {
        match self {
            Type::Var(v) if !bound.iter().any(|b| b == v) => {
                acc.insert(v.clone());
            }
            Type::Var(_) => {}
            Type::List(t) | Type::Set(t) => t.collect_free(bound, acc),
            Type::Fun(a, r) => {
                a.collect_free(bound, acc);
                r.collect_free(bound, acc);
            }
            Type::Record(fs) | Type::Variant(fs) => {
                for t in fs.values() {
                    t.collect_free(bound, acc);
                }
            }
            Type::Forall(q) | Type::Exists(q) => {
                if let Some(b) = &q.bound {
                    b.collect_free(bound, acc);
                }
                bound.push(q.var.clone());
                q.body.collect_free(bound, acc);
                bound.pop();
            }
            _ => {}
        }
    }

    /// The set of named types mentioned anywhere in this type.
    pub fn named_refs(&self) -> BTreeSet<Name> {
        let mut acc = BTreeSet::new();
        self.collect_named(&mut acc);
        acc
    }

    fn collect_named(&self, acc: &mut BTreeSet<Name>) {
        match self {
            Type::Named(n) => {
                acc.insert(n.clone());
            }
            Type::List(t) | Type::Set(t) => t.collect_named(acc),
            Type::Fun(a, r) => {
                a.collect_named(acc);
                r.collect_named(acc);
            }
            Type::Record(fs) | Type::Variant(fs) => {
                for t in fs.values() {
                    t.collect_named(acc);
                }
            }
            Type::Forall(q) | Type::Exists(q) => {
                if let Some(b) = &q.bound {
                    b.collect_named(acc);
                }
                q.body.collect_named(acc);
            }
            _ => {}
        }
    }

    /// Capture-avoiding substitution of `replacement` for free occurrences
    /// of the variable `var`.
    pub fn subst(&self, var: &str, replacement: &Type) -> Type {
        match self {
            Type::Var(v) if v == var => replacement.clone(),
            Type::Var(_) => self.clone(),
            Type::List(t) => Type::List(Box::new(t.subst(var, replacement))),
            Type::Set(t) => Type::Set(Box::new(t.subst(var, replacement))),
            Type::Fun(a, r) => Type::Fun(
                Box::new(a.subst(var, replacement)),
                Box::new(r.subst(var, replacement)),
            ),
            Type::Record(fs) => Type::Record(
                fs.iter()
                    .map(|(l, t)| (*l, t.subst(var, replacement)))
                    .collect(),
            ),
            Type::Variant(fs) => Type::Variant(
                fs.iter()
                    .map(|(l, t)| (*l, t.subst(var, replacement)))
                    .collect(),
            ),
            Type::Forall(q) => Type::Forall(Box::new(Self::subst_quant(q, var, replacement))),
            Type::Exists(q) => Type::Exists(Box::new(Self::subst_quant(q, var, replacement))),
            _ => self.clone(),
        }
    }

    fn subst_quant(q: &Quant, var: &str, replacement: &Type) -> Quant {
        let bound = q
            .bound
            .as_ref()
            .map(|b| Box::new(b.subst(var, replacement)));
        if q.var == var {
            // The quantifier shadows `var`; only the bound is substituted.
            return Quant {
                var: q.var.clone(),
                bound,
                body: q.body.clone(),
            };
        }
        if replacement.free_vars().contains(&q.var) {
            // Rename the bound variable to avoid capture.
            let fresh = fresh_var(&q.var, replacement, &q.body);
            let renamed = q.body.subst(&q.var, &Type::Var(fresh.clone()));
            Quant {
                var: fresh,
                bound,
                body: Box::new(renamed.subst(var, replacement)),
            }
        } else {
            Quant {
                var: q.var.clone(),
                bound,
                body: Box::new(q.body.subst(var, replacement)),
            }
        }
    }

    /// Structural size of the type term (number of constructors). Used by
    /// benchmarks and to sanity-bound recursion in tests.
    pub fn size(&self) -> usize {
        match self {
            Type::List(t) | Type::Set(t) => 1 + t.size(),
            Type::Fun(a, r) => 1 + a.size() + r.size(),
            Type::Record(fs) | Type::Variant(fs) => 1 + fs.values().map(Type::size).sum::<usize>(),
            Type::Forall(q) | Type::Exists(q) => {
                1 + q.bound.as_ref().map_or(0, |b| b.size()) + q.body.size()
            }
            _ => 1,
        }
    }
}

/// Produce a variable name based on `base` that is free in neither `a` nor
/// `b`.
fn fresh_var(base: &str, a: &Type, b: &Type) -> TyVar {
    let taken_a = a.free_vars();
    let taken_b = b.free_vars();
    let mut i = 0usize;
    loop {
        let cand = format!("{base}%{i}");
        if !taken_a.contains(&cand) && !taken_b.contains(&cand) {
            return cand;
        }
        i += 1;
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::display::fmt_type(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_constructor_orders_fields() {
        let a = Type::record([("b", Type::Int), ("a", Type::Str)]);
        let b = Type::record([("a", Type::Str), ("b", Type::Int)]);
        assert_eq!(a, b);
    }

    #[test]
    fn free_vars_respect_binding() {
        let t = Type::forall("t", None, Type::fun(Type::var("t"), Type::var("u")));
        assert_eq!(t.free_vars(), BTreeSet::from(["u".to_string()]));
    }

    #[test]
    fn free_vars_in_bound_are_free() {
        // The bound of a quantifier is outside the binder's scope.
        let t = Type::forall("t", Some(Type::var("t")), Type::var("t"));
        assert_eq!(t.free_vars(), BTreeSet::from(["t".to_string()]));
    }

    #[test]
    fn subst_simple() {
        let t = Type::fun(Type::var("t"), Type::list(Type::var("t")));
        let s = t.subst("t", &Type::Int);
        assert_eq!(s, Type::fun(Type::Int, Type::list(Type::Int)));
    }

    #[test]
    fn subst_shadowed_variable_untouched() {
        let t = Type::forall("t", None, Type::var("t"));
        assert_eq!(t.subst("t", &Type::Int), t);
    }

    #[test]
    fn subst_avoids_capture() {
        // [u := t] in (∀t. u → t) must not capture the substituted t.
        let t = Type::forall("t", None, Type::fun(Type::var("u"), Type::var("t")));
        let s = t.subst("u", &Type::var("t"));
        if let Type::Forall(q) = &s {
            assert_ne!(q.var, "t", "bound variable must have been renamed");
            if let Type::Fun(arg, res) = q.body.as_ref() {
                assert_eq!(arg.as_ref(), &Type::var("t"), "free t stays free");
                assert_eq!(res.as_ref(), &Type::var(q.var.clone()));
            } else {
                panic!("body shape changed");
            }
        } else {
            panic!("not a forall");
        }
    }

    #[test]
    fn subst_rewrites_quantifier_bound() {
        let t = Type::forall("x", Some(Type::var("u")), Type::var("x"));
        let s = t.subst("u", &Type::Int);
        if let Type::Forall(q) = s {
            assert_eq!(q.bound.as_deref(), Some(&Type::Int));
        } else {
            panic!("not a forall");
        }
    }

    #[test]
    fn named_refs_collects_all() {
        let t = Type::record([
            ("p", Type::named("Person")),
            ("q", Type::list(Type::named("Employee"))),
        ]);
        assert_eq!(
            t.named_refs(),
            BTreeSet::from(["Person".to_string(), "Employee".to_string()])
        );
    }

    #[test]
    fn size_counts_constructors() {
        assert_eq!(Type::Int.size(), 1);
        assert_eq!(Type::record([("a", Type::Int), ("b", Type::Str)]).size(), 3);
        assert_eq!(Type::fun(Type::Int, Type::Bool).size(), 3);
    }
}
