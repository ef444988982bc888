//! Runtime values.
//!
//! Values are the "objects" of the paper's object-level discussion: records
//! whose components may themselves be records, plus the usual base values,
//! lists, sets, tagged (variant) values, Amber-style dynamic values, and
//! references carrying *object identity* (the paper: "objects are not
//! identified by intrinsic properties").
//!
//! A record value is inherently *partial*: `{Name = 'J Doe'}` carries less
//! information than `{Name = 'J Doe', Emp_no = 1234}`. It is a finite
//! partial function from labels, kept as one shared array of
//! `(label, value)` pairs in label order ([`RecordFields`]), whose labels
//! are interned [`Label`] symbols (compared by pointer, ordered by name;
//! the name table only grows, bounded by the distinct labels ever seen)
//! and whose strings are shared `Arc<str>`s, so a join candidate copies
//! neither. The information ordering and join live in [`crate::order`].

pub use dbpl_types::Label;
use dbpl_types::{LabelKey, Type};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

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

/// A field of a record value: its label and its value.
type Pair = (Label, Value);

/// The fields of a record value: one shared array of `(label, value)`
/// pairs, sorted by label, no label twice.
///
/// A record is the paper's finite partial function from labels to
/// values, kept as its graph in label order. A field read scans a record
/// of a few fields and binary searches a larger one; `⊑`, `⊔` and `⊓`
/// ([`crate::order`]) walk two records' arrays in step. The array sits
/// behind an [`Arc`], as [`dbpl_types::Fields`] does for record types:
/// copying a record value is a refcount bump, so a copy of a stored row
/// (a one-row package, a snapshot's rows, a backup) shares its fields
/// with the row. The mutators ([`RecordFields::insert`],
/// [`RecordFields::get_mut`], [`RecordFields::remove`], [`Extend`])
/// un-share the array first.
///
/// Every builder (`collect`, [`Extend`], the joins and meets of
/// [`crate::order`]) stages its pairs in a per-thread buffer and makes
/// the array in one allocation. Given a label twice, the last value
/// wins, as it does for a `BTreeMap`'s `collect`. Equality, order and
/// hashing are the slice's, which are exactly those of the
/// `BTreeMap<Label, Value>` holding the same pairs: lexicographic over
/// the pairs in label order, and the length, then each pair, hashed.
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RecordFields(Arc<[Pair]>);

impl RecordFields {
    /// No fields.
    pub fn new() -> RecordFields {
        RecordFields::default()
    }

    /// Do the two share one array (not merely equal ones)?
    pub fn ptr_eq(&self, other: &RecordFields) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// No fields at all?
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The field's position. A record of a few fields is scanned (a
    /// [`Label`] key compares pointers, a name bytes); a larger one is
    /// binary searched by name.
    fn index_of(&self, label: impl LabelKey) -> Option<usize> {
        if self.0.len() <= 8 {
            self.0.iter().position(|(l, _)| label.is(*l))
        } else {
            let name = label.name();
            self.0.binary_search_by(|(l, _)| l.as_str().cmp(name)).ok()
        }
    }

    /// The value of a field.
    pub fn get(&self, label: impl LabelKey) -> Option<&Value> {
        self.index_of(label).map(|i| &self.0[i].1)
    }

    /// Is the field present?
    pub fn contains_key(&self, label: impl LabelKey) -> bool {
        self.index_of(label).is_some()
    }

    /// The value of a field, to overwrite in place.
    pub fn get_mut(&mut self, label: impl LabelKey) -> Option<&mut Value> {
        let i = self.index_of(label)?;
        Some(&mut Arc::make_mut(&mut self.0)[i].1)
    }

    /// Set a field, returning the value it replaces. A new label
    /// rebuilds the array (one allocation).
    pub fn insert(&mut self, label: Label, value: Value) -> Option<Value> {
        match self.get_mut(label) {
            Some(slot) => Some(std::mem::replace(slot, value)),
            None => {
                self.extend([(label, value)]);
                None
            }
        }
    }

    /// Drop a field, returning its value.
    pub fn remove(&mut self, label: impl LabelKey) -> Option<Value> {
        let i = self.index_of(label)?;
        let (fields, (_, value)) = with_buffer(|buf| {
            self.drain_into(buf);
            let removed = buf.remove(i);
            (seal(buf), removed)
        });
        *self = fields;
        Some(value)
    }

    /// The fields, in label order.
    pub fn iter(&self) -> Iter<'_> {
        Iter(self.0.iter())
    }

    /// The labels, in order.
    pub fn keys(&self) -> impl Iterator<Item = &Label> {
        self.0.iter().map(|(l, _)| l)
    }

    /// The values, in label order.
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.0.iter().map(|(_, v)| v)
    }

    /// Walk two records' fields in step, in label order.
    pub(crate) fn merge<'a>(&'a self, other: &'a RecordFields) -> Merge<'a> {
        Merge(&self.0, &other.0)
    }

    /// Build a record from the pairs `fill` pushes in strictly ascending
    /// label order, in one allocation; `None` if `fill` gives up.
    pub(crate) fn build_sorted(
        fill: impl FnOnce(&mut Vec<(Label, Value)>) -> Option<()>,
    ) -> Option<RecordFields> {
        with_buffer(|buf| {
            fill(buf)?;
            Some(seal(buf))
        })
    }

    /// Move every pair to the end of `out` (copying them if the array is
    /// shared), leaving no fields.
    fn drain_into(&mut self, out: &mut Vec<Pair>) {
        match Arc::get_mut(&mut self.0) {
            Some(pairs) => out.extend(
                pairs
                    .iter_mut()
                    .map(|(l, v)| (*l, std::mem::replace(v, Value::Unit))),
            ),
            None => out.extend_from_slice(&self.0),
        }
        *self = RecordFields::new();
    }
}

thread_local! {
    /// Staging buffers for record builders, one per build in progress on
    /// this thread (a build nests when a field's value is itself built).
    static BUFFERS: RefCell<Vec<Vec<Pair>>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` on an empty staging buffer, kept for reuse afterwards unless
/// it grew past a few hundred fields or many builds are nested.
fn with_buffer<R>(f: impl FnOnce(&mut Vec<Pair>) -> R) -> R {
    let mut buf = BUFFERS.with_borrow_mut(Vec::pop).unwrap_or_default();
    let out = f(&mut buf);
    buf.clear();
    if buf.capacity() <= 256 {
        BUFFERS.with_borrow_mut(|bufs| {
            if bufs.len() < 32 {
                bufs.push(buf)
            }
        });
    }
    out
}

/// Sort staged pairs by label, keeping the last value given for a label
/// (a no-op on pairs already strictly ascending).
fn normalize(buf: &mut Vec<Pair>) {
    if buf.is_sorted_by(|x, y| x.0 < y.0) {
        return;
    }
    // Reversed, a stable sort puts the last pair given for a label first
    // among its label's pairs, where `dedup_by_key` keeps it.
    buf.reverse();
    buf.sort_by_key(|x| x.0);
    buf.dedup_by_key(|x| x.0);
}

/// Make the array of staged pairs, which are strictly ascending by label:
/// one allocation, the pairs moved.
fn seal(buf: &mut Vec<Pair>) -> RecordFields {
    debug_assert!(
        buf.is_sorted_by(|x, y| x.0 < y.0),
        "record labels out of order"
    );
    RecordFields(buf.drain(..).collect())
}

impl fmt::Debug for RecordFields {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl From<BTreeMap<Label, Value>> for RecordFields {
    fn from(map: BTreeMap<Label, Value>) -> RecordFields {
        map.into_iter().collect()
    }
}

impl FromIterator<(Label, Value)> for RecordFields {
    fn from_iter<I: IntoIterator<Item = (Label, Value)>>(pairs: I) -> RecordFields {
        with_buffer(|buf| {
            buf.extend(pairs);
            normalize(buf);
            seal(buf)
        })
    }
}

impl Extend<(Label, Value)> for RecordFields {
    /// Set every given field, the last value given for a label winning,
    /// as repeated [`RecordFields::insert`]s would; the array is rebuilt
    /// once.
    fn extend<I: IntoIterator<Item = (Label, Value)>>(&mut self, pairs: I) {
        *self = with_buffer(|buf| {
            self.drain_into(buf);
            buf.extend(pairs);
            normalize(buf);
            seal(buf)
        });
    }
}

impl IntoIterator for RecordFields {
    type Item = (Label, Value);
    type IntoIter = std::vec::IntoIter<(Label, Value)>;

    fn into_iter(mut self) -> Self::IntoIter {
        let mut pairs = Vec::with_capacity(self.len());
        self.drain_into(&mut pairs);
        pairs.into_iter()
    }
}

impl<'a> IntoIterator for &'a RecordFields {
    type Item = (&'a Label, &'a Value);
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// The fields of a record, borrowed, in label order.
pub struct Iter<'a>(std::slice::Iter<'a, Pair>);

impl<'a> Iterator for Iter<'a> {
    type Item = (&'a Label, &'a Value);

    fn next(&mut self) -> Option<(&'a Label, &'a Value)> {
        self.0.next().map(|(l, v)| (l, v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

/// One step of walking two records' fields in label order: a label only
/// the left record has, only the right one has, or both have.
pub(crate) enum Step<'a> {
    Left(&'a Pair),
    Right(&'a Pair),
    Both(&'a Pair, &'a Pair),
}

/// Two records' fields walked in step ([`RecordFields::merge`]).
pub(crate) struct Merge<'a>(&'a [Pair], &'a [Pair]);

impl<'a> Iterator for Merge<'a> {
    type Item = Step<'a>;

    fn next(&mut self) -> Option<Step<'a>> {
        let step = match (self.0.first(), self.1.first()) {
            (None, None) => return None,
            (Some(x), None) => Step::Left(x),
            (None, Some(y)) => Step::Right(y),
            // Records met in a join or an ordering mostly share labels,
            // so test `==` (one pointer compare) before ordering names.
            (Some(x), Some(y)) if x.0 == y.0 => Step::Both(x, y),
            (Some(x), Some(y)) if x.0 < y.0 => Step::Left(x),
            (Some(_), Some(y)) => Step::Right(y),
        };
        if !matches!(step, Step::Right(_)) {
            self.0 = &self.0[1..];
        }
        if !matches!(step, Step::Left(_)) {
            self.1 = &self.1[1..];
        }
        Some(step)
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
    /// A string, shared.
    Str(Arc<str>),
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
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(s.as_ref().into())
    }

    /// Record constructor.
    pub fn record<I, S>(fields: I) -> Value
    where
        I: IntoIterator<Item = (S, Value)>,
        S: Into<Label>,
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
    pub fn tagged(label: impl Into<Label>, payload: Value) -> Value {
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
    pub fn field(&self, label: impl LabelKey) -> Option<&Value> {
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
        Value::Str(s.into())
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
    fn a_value_is_four_words() {
        // A record's array is a fat pointer (two words), no wider than a
        // `Tagged` label and its box.
        assert_eq!(std::mem::size_of::<Value>(), 32);
    }

    #[test]
    fn record_labels_are_sorted_and_unique_whatever_the_input() {
        let v = Value::record([
            ("b", Value::Int(1)),
            ("a", Value::Int(2)),
            ("b", Value::Int(3)),
        ]);
        let fields = v.as_record().unwrap();
        let labels: Vec<&str> = fields.keys().map(|l| l.as_str()).collect();
        assert_eq!(labels, ["a", "b"]);
        assert_eq!(format!("{fields:?}"), r#"{"a": Int(2), "b": Int(3)}"#);
    }

    #[test]
    fn record_copies_share_their_fields_until_written() {
        let v = Value::record([("a", Value::Int(1))]);
        let mut w = v.clone();
        assert!(v.as_record().unwrap().ptr_eq(w.as_record().unwrap()));
        w.as_record_mut().unwrap().insert("b".into(), Value::Int(2));
        assert!(!v.as_record().unwrap().ptr_eq(w.as_record().unwrap()));
        assert_eq!(v, Value::record([("a", Value::Int(1))]));
        assert!(v < w, "order is the pairs' order, as a map's");
    }
}
