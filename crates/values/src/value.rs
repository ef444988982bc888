//! Runtime values.
//!
//! Values are the "objects" of the paper's object-level discussion: records
//! whose components may themselves be records, plus the usual base values,
//! lists, sets, tagged (variant) values, Amber-style dynamic values, and
//! references carrying *object identity* (the paper: "objects are not
//! identified by intrinsic properties").
//!
//! A record value is inherently *partial*: `{Name = 'J Doe'}` carries less
//! information than `{Name = 'J Doe', Emp_no = 1234}`. The information
//! ordering and join live in [`crate::order`].

use dbpl_types::Type;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// A field label (shared with `dbpl_types::Label`).
pub type Label = String;

/// A totally ordered `f64` wrapper so that [`Value`] can implement `Ord`
/// (required to put values in sets, i.e. relations).
#[derive(Clone, Copy, Debug)]
pub struct F64(pub f64);

impl PartialEq for F64 {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0) == std::cmp::Ordering::Equal
    }
}
impl Eq for F64 {}
impl PartialOrd for F64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for F64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}
impl std::hash::Hash for F64 {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state)
    }
}
impl From<f64> for F64 {
    fn from(x: f64) -> Self {
        F64(x)
    }
}
impl fmt::Display for F64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.fract() == 0.0 && self.0.is_finite() {
            write!(f, "{:.1}", self.0)
        } else {
            write!(f, "{}", self.0)
        }
    }
}

/// An object identity: a handle into a [`crate::heap::Heap`].
///
/// Two structurally identical objects with different `Oid`s are *different
/// objects* — the University parking lot can hold "two identical cars".
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Oid(pub u64);

impl fmt::Display for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

/// A dynamic value: a value that "carries around both a value and a type"
/// (Amber's `Dynamic`). Constructed by the `dynamic` operation, eliminated
/// by `coerce`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DynValue {
    /// The type description carried with the value.
    pub ty: Type,
    /// The value itself.
    pub value: Value,
}

impl DynValue {
    /// Pair a value with a type description. The pairing is *not* checked
    /// here — use [`crate::conform::make_dynamic`] for the checked
    /// constructor.
    pub fn new(ty: Type, value: Value) -> Self {
        DynValue { ty, value }
    }
}

/// The fields of a record value: an ordered map from labels to values,
/// shared.
///
/// The map sits behind an [`Arc`], as [`dbpl_types::Fields`] does for
/// record types: copying a record value is a refcount bump, so a copy of
/// a stored row (a one-row package, a snapshot's rows, a backup) shares
/// its fields with the row. Reads deref to the map; writes
/// ([`DerefMut`]) un-share it first with [`Arc::make_mut`]. Equality,
/// order and hashing are the map's.
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RecordFields(Arc<BTreeMap<Label, Value>>);

impl RecordFields {
    /// No fields.
    pub fn new() -> RecordFields {
        RecordFields::default()
    }

    /// Do the two share one map (not merely equal ones)?
    pub fn ptr_eq(&self, other: &RecordFields) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Deref for RecordFields {
    type Target = BTreeMap<Label, Value>;

    fn deref(&self) -> &BTreeMap<Label, Value> {
        &self.0
    }
}

impl DerefMut for RecordFields {
    fn deref_mut(&mut self) -> &mut BTreeMap<Label, Value> {
        Arc::make_mut(&mut self.0)
    }
}

impl fmt::Debug for RecordFields {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl From<BTreeMap<Label, Value>> for RecordFields {
    fn from(map: BTreeMap<Label, Value>) -> RecordFields {
        RecordFields(Arc::new(map))
    }
}

impl FromIterator<(Label, Value)> for RecordFields {
    fn from_iter<I: IntoIterator<Item = (Label, Value)>>(fields: I) -> RecordFields {
        RecordFields::from(fields.into_iter().collect::<BTreeMap<_, _>>())
    }
}

impl IntoIterator for RecordFields {
    type Item = (Label, Value);
    type IntoIter = std::collections::btree_map::IntoIter<Label, Value>;

    fn into_iter(self) -> Self::IntoIter {
        Arc::unwrap_or_clone(self.0).into_iter()
    }
}

impl<'a> IntoIterator for &'a RecordFields {
    type Item = (&'a Label, &'a Value);
    type IntoIter = std::collections::btree_map::Iter<'a, Label, Value>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// A runtime value.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Value {
    /// The unit value.
    Unit,
    /// A boolean.
    Bool(bool),
    /// A 64-bit integer.
    Int(i64),
    /// A 64-bit float (totally ordered wrapper).
    Float(F64),
    /// A string.
    Str(String),
    /// A homogeneous list.
    List(Vec<Value>),
    /// A set of values.
    Set(BTreeSet<Value>),
    /// A (possibly partial) record.
    Record(RecordFields),
    /// A variant value: a label applied to a payload.
    Tagged(Label, Box<Value>),
    /// A dynamic value (value + its type description).
    Dyn(Box<DynValue>),
    /// A reference to a heap object: pure object identity.
    Ref(Oid),
}

impl Value {
    /// Float constructor from `f64`.
    pub fn float(x: f64) -> Value {
        Value::Float(F64(x))
    }

    /// String constructor.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Record constructor.
    pub fn record<I, S>(fields: I) -> Value
    where
        I: IntoIterator<Item = (S, Value)>,
        S: Into<String>,
    {
        Value::Record(fields.into_iter().map(|(l, v)| (l.into(), v)).collect())
    }

    /// List constructor.
    pub fn list<I: IntoIterator<Item = Value>>(items: I) -> Value {
        Value::List(items.into_iter().collect())
    }

    /// Set constructor (deduplicates).
    pub fn set<I: IntoIterator<Item = Value>>(items: I) -> Value {
        Value::Set(items.into_iter().collect())
    }

    /// Variant constructor.
    pub fn tagged(label: impl Into<String>, payload: Value) -> Value {
        Value::Tagged(label.into(), Box::new(payload))
    }

    /// Dynamic-injection: `dynamic v : T`.
    pub fn dynamic(ty: Type, value: Value) -> Value {
        Value::Dyn(Box::new(DynValue::new(ty, value)))
    }

    /// Is this a record?
    pub fn is_record(&self) -> bool {
        matches!(self, Value::Record(_))
    }

    /// View as record fields, if a record.
    pub fn as_record(&self) -> Option<&RecordFields> {
        match self {
            Value::Record(fs) => Some(fs),
            _ => None,
        }
    }

    /// Mutable view as record fields, if a record.
    pub fn as_record_mut(&mut self) -> Option<&mut RecordFields> {
        match self {
            Value::Record(fs) => Some(fs),
            _ => None,
        }
    }

    /// Field projection on records.
    pub fn field(&self, label: &str) -> Option<&Value> {
        self.as_record().and_then(|fs| fs.get(label))
    }

    /// View as integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// View as float, widening integers.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(F64(x)) => Some(*x),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// View as string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// View as boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// View as list slice.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(xs) => Some(xs),
            _ => None,
        }
    }

    /// View as a set.
    pub fn as_set(&self) -> Option<&BTreeSet<Value>> {
        match self {
            Value::Set(xs) => Some(xs),
            _ => None,
        }
    }

    /// View as an object reference.
    pub fn as_ref_oid(&self) -> Option<Oid> {
        match self {
            Value::Ref(o) => Some(*o),
            _ => None,
        }
    }

    /// View as a dynamic value.
    pub fn as_dyn(&self) -> Option<&DynValue> {
        match self {
            Value::Dyn(d) => Some(d),
            _ => None,
        }
    }

    /// All object references reachable *within* this value (not following
    /// the heap). Used by persistence to compute closures.
    pub fn direct_refs(&self) -> BTreeSet<Oid> {
        let mut acc = BTreeSet::new();
        self.collect_refs(&mut acc);
        acc
    }

    fn collect_refs(&self, acc: &mut BTreeSet<Oid>) {
        match self {
            Value::Ref(o) => {
                acc.insert(*o);
            }
            Value::List(xs) => xs.iter().for_each(|v| v.collect_refs(acc)),
            Value::Set(xs) => xs.iter().for_each(|v| v.collect_refs(acc)),
            Value::Record(fs) => fs.values().for_each(|v| v.collect_refs(acc)),
            Value::Tagged(_, v) => v.collect_refs(acc),
            Value::Dyn(d) => d.value.collect_refs(acc),
            _ => {}
        }
    }

    /// Structural size (number of value constructors).
    pub fn size(&self) -> usize {
        match self {
            Value::List(xs) => 1 + xs.iter().map(Value::size).sum::<usize>(),
            Value::Set(xs) => 1 + xs.iter().map(Value::size).sum::<usize>(),
            Value::Record(fs) => 1 + fs.values().map(Value::size).sum::<usize>(),
            Value::Tagged(_, v) => 1 + v.size(),
            Value::Dyn(d) => 1 + d.value.size(),
            _ => 1,
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::float(x)
    }
}
impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::display::fmt_value(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_field_access() {
        let v = Value::record([("Name", Value::str("J Doe")), ("Age", Value::Int(40))]);
        assert_eq!(v.field("Name"), Some(&Value::str("J Doe")));
        assert_eq!(v.field("Missing"), None);
    }

    #[test]
    fn f64_total_order_handles_nan() {
        let mut s = BTreeSet::new();
        s.insert(Value::float(f64::NAN));
        s.insert(Value::float(1.0));
        s.insert(Value::float(f64::NAN));
        assert_eq!(s.len(), 2, "NaN equals itself under total order");
    }

    #[test]
    fn direct_refs_finds_nested() {
        let v = Value::record([
            ("a", Value::Ref(Oid(1))),
            ("b", Value::list([Value::Ref(Oid(2)), Value::Int(3)])),
            ("c", Value::tagged("Some", Value::Ref(Oid(3)))),
        ]);
        assert_eq!(v.direct_refs(), BTreeSet::from([Oid(1), Oid(2), Oid(3)]));
    }

    #[test]
    fn set_deduplicates() {
        let v = Value::set([Value::Int(1), Value::Int(1), Value::Int(2)]);
        assert_eq!(v.as_set().unwrap().len(), 2);
    }

    #[test]
    fn size_counts() {
        let v = Value::record([("a", Value::Int(1)), ("b", Value::list([Value::Int(2)]))]);
        assert_eq!(v.size(), 4);
    }

    #[test]
    fn widening_view() {
        assert_eq!(Value::Int(3).as_float(), Some(3.0));
        assert_eq!(Value::float(3.5).as_float(), Some(3.5));
        assert_eq!(Value::float(3.5).as_int(), None);
    }

    #[test]
    fn record_copies_share_their_fields_until_written() {
        let v = Value::record([("a", Value::Int(1))]);
        let mut w = v.clone();
        assert!(v.as_record().unwrap().ptr_eq(w.as_record().unwrap()));
        w.as_record_mut()
            .unwrap()
            .insert("b".to_string(), Value::Int(2));
        assert!(!v.as_record().unwrap().ptr_eq(w.as_record().unwrap()));
        assert_eq!(v, Value::record([("a", Value::Int(1))]));
        assert!(v < w, "order is the maps' order");
    }
}
