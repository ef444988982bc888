//! Classical flat (first-normal-form) relations and their algebra — the
//! relational baseline the paper generalizes away from.
//!
//! The paper enumerates the constraints this model imposes: tuples are
//! "identified by intrinsic properties" (set semantics, no object
//! identity), there is "no representation of inheritance", and "relations
//! are *flat* … the well-known first-normal-form condition". All three are
//! enforced here, so the tests can demonstrate exactly what the
//! generalized model relaxes.

use crate::error::RelationError;
use dbpl_types::{Label, Type};
use dbpl_values::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A relation schema: attribute names with *base* types (1NF).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    attrs: BTreeMap<Label, Type>,
}

impl Schema {
    /// Build a schema; every attribute must have a base type, enforcing
    /// first normal form at schema level.
    pub fn new<I, S>(attrs: I) -> Result<Schema, RelationError>
    where
        I: IntoIterator<Item = (S, Type)>,
        S: Into<Label>,
    {
        let attrs: BTreeMap<Label, Type> = attrs.into_iter().map(|(l, t)| (l.into(), t)).collect();
        for (l, t) in &attrs {
            if !t.is_base() {
                return Err(RelationError::NotFirstNormalForm {
                    attr: *l,
                    ty: t.clone(),
                });
            }
        }
        Ok(Schema { attrs })
    }

    /// Attribute names, in canonical order.
    pub fn attr_names(&self) -> impl Iterator<Item = &Label> {
        self.attrs.keys()
    }

    /// Attribute type lookup.
    pub fn attr_type(&self, name: &str) -> Option<&Type> {
        self.attrs.get(name)
    }

    /// Does the schema have this attribute?
    pub fn has(&self, name: &str) -> bool {
        self.attrs.contains_key(name)
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// The attributes shared with another schema (the natural-join
    /// attributes).
    pub fn common(&self, other: &Schema) -> Vec<Label> {
        self.attrs
            .keys()
            .filter(|l| other.has(l))
            .cloned()
            .collect()
    }

    /// Schema of the natural join: union of the attributes. Fails if a
    /// shared attribute has different types.
    pub fn join(&self, other: &Schema) -> Result<Schema, RelationError> {
        let mut attrs = self.attrs.clone();
        for (l, t) in &other.attrs {
            match attrs.get(l) {
                Some(t0) if t0 != t => {
                    return Err(RelationError::SchemaMismatch(format!(
                        "attribute `{l}` has types {t0} and {t}"
                    )))
                }
                _ => {
                    attrs.insert(*l, t.clone());
                }
            }
        }
        Ok(Schema { attrs })
    }

    /// Restriction of the schema to a subset of attributes.
    pub fn project<S: AsRef<str>>(&self, names: &[S]) -> Result<Schema, RelationError> {
        let mut attrs = BTreeMap::new();
        for n in names {
            let n = n.as_ref();
            match self.attrs.get(n) {
                Some(t) => {
                    attrs.insert(Label::new(n), t.clone());
                }
                None => return Err(RelationError::UnknownAttribute(Label::new(n))),
            }
        }
        Ok(Schema { attrs })
    }

    /// Rename an attribute.
    pub fn rename(&self, from: &str, to: &str) -> Result<Schema, RelationError> {
        if !self.has(from) {
            return Err(RelationError::UnknownAttribute(Label::new(from)));
        }
        if self.has(to) {
            return Err(RelationError::SchemaMismatch(format!(
                "attribute `{to}` already exists"
            )));
        }
        let mut attrs = self.attrs.clone();
        let t = attrs.remove(from).expect("checked");
        attrs.insert(Label::new(to), t);
        Ok(Schema { attrs })
    }
}

/// A tuple: a total assignment of base values to a schema's attributes.
pub type Tuple = BTreeMap<Label, Value>;

/// A flat relation: a schema plus a *set* of conforming tuples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    schema: Schema,
    tuples: BTreeSet<Tuple>,
    /// Optional primary key: a set of attributes whose values identify a
    /// tuple. The paper: "we usually impose natural or artificial key
    /// attributes".
    key: Option<BTreeSet<Label>>,
}

impl Relation {
    /// An empty relation over the given schema.
    pub fn new(schema: Schema) -> Relation {
        Relation {
            schema,
            tuples: BTreeSet::new(),
            key: None,
        }
    }

    /// Impose a key. Fails if existing tuples already violate it or the
    /// attributes are unknown.
    pub fn with_key<S: AsRef<str>>(mut self, attrs: &[S]) -> Result<Relation, RelationError> {
        let key: BTreeSet<Label> = attrs.iter().map(|s| Label::new(s.as_ref())).collect();
        for a in &key {
            if !self.schema.has(a) {
                return Err(RelationError::UnknownAttribute(*a));
            }
        }
        let mut seen = BTreeSet::new();
        for t in &self.tuples {
            let kv: Vec<&Value> = key.iter().map(|a| &t[a]).collect();
            if !seen.insert(kv) {
                return Err(RelationError::KeyViolation(format!(
                    "existing tuples collide on key {key:?}"
                )));
            }
        }
        self.key = Some(key);
        Ok(self)
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The tuples.
    pub fn tuples(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter()
    }

    /// Cardinality.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Insert a tuple. It must be total over the schema, flat, conforming,
    /// and must not violate the key. Set semantics: inserting a duplicate
    /// is a no-op returning `false`.
    pub fn insert(&mut self, tuple: Tuple) -> Result<bool, RelationError> {
        self.check_tuple(&tuple)?;
        if self.tuples.contains(&tuple) {
            return Ok(false);
        }
        if let Some(key) = &self.key {
            let kv: Vec<&Value> = key.iter().map(|a| &tuple[a]).collect();
            for t in &self.tuples {
                let existing: Vec<&Value> = key.iter().map(|a| &t[a]).collect();
                if existing == kv {
                    return Err(RelationError::KeyViolation(format!(
                        "key {key:?} already maps to another tuple"
                    )));
                }
            }
        }
        Ok(self.tuples.insert(tuple))
    }

    /// Build and insert a tuple from pairs.
    pub fn insert_row<I, S>(&mut self, pairs: I) -> Result<bool, RelationError>
    where
        I: IntoIterator<Item = (S, Value)>,
        S: Into<Label>,
    {
        self.insert(pairs.into_iter().map(|(l, v)| (l.into(), v)).collect())
    }

    fn check_tuple(&self, tuple: &Tuple) -> Result<(), RelationError> {
        for (l, ty) in &self.schema.attrs {
            let v = tuple.get(l).ok_or(RelationError::MissingAttribute(*l))?;
            let ok = matches!(
                (v, ty),
                (Value::Int(_), Type::Int)
                    | (Value::Int(_), Type::Float)
                    | (Value::Float(_), Type::Float)
                    | (Value::Bool(_), Type::Bool)
                    | (Value::Str(_), Type::Str)
                    | (Value::Unit, Type::Unit)
            );
            if !ok {
                return Err(RelationError::TupleTypeMismatch {
                    attr: *l,
                    expected: ty.clone(),
                    got: v.to_string(),
                });
            }
        }
        for l in tuple.keys() {
            if !self.schema.has(l) {
                return Err(RelationError::UnknownAttribute(*l));
            }
        }
        Ok(())
    }

    /// σ — selection.
    pub fn select(&self, pred: impl Fn(&Tuple) -> bool) -> Relation {
        Relation {
            schema: self.schema.clone(),
            tuples: self.tuples.iter().filter(|t| pred(t)).cloned().collect(),
            key: None,
        }
    }

    /// π — projection (duplicates collapse, per set semantics).
    pub fn project<S: AsRef<str>>(&self, attrs: &[S]) -> Result<Relation, RelationError> {
        let schema = self.schema.project(attrs)?;
        let names: BTreeSet<&str> = attrs.iter().map(|s| s.as_ref()).collect();
        let tuples = self
            .tuples
            .iter()
            .map(|t| {
                t.iter()
                    .filter(|(l, _)| names.contains(l.as_str()))
                    .map(|(l, v)| (*l, v.clone()))
                    .collect()
            })
            .collect();
        Ok(Relation {
            schema,
            tuples,
            key: None,
        })
    }

    /// ⋈ — the classical natural join.
    pub fn natural_join(&self, other: &Relation) -> Result<Relation, RelationError> {
        let schema = self.schema.join(&other.schema)?;
        let common = self.schema.common(&other.schema);
        let mut tuples = BTreeSet::new();
        for a in &self.tuples {
            for b in &other.tuples {
                if common.iter().all(|l| a[l] == b[l]) {
                    let mut t = a.clone();
                    for (l, v) in b {
                        t.insert(*l, v.clone());
                    }
                    tuples.insert(t);
                }
            }
        }
        Ok(Relation {
            schema,
            tuples,
            key: None,
        })
    }

    /// ∪ — union (schemas must agree).
    pub fn union(&self, other: &Relation) -> Result<Relation, RelationError> {
        self.require_same_schema(other)?;
        Ok(Relation {
            schema: self.schema.clone(),
            tuples: self.tuples.union(&other.tuples).cloned().collect(),
            key: None,
        })
    }

    /// − — difference (schemas must agree).
    pub fn difference(&self, other: &Relation) -> Result<Relation, RelationError> {
        self.require_same_schema(other)?;
        Ok(Relation {
            schema: self.schema.clone(),
            tuples: self.tuples.difference(&other.tuples).cloned().collect(),
            key: None,
        })
    }

    /// ∩ — intersection (schemas must agree).
    pub fn intersect(&self, other: &Relation) -> Result<Relation, RelationError> {
        self.require_same_schema(other)?;
        Ok(Relation {
            schema: self.schema.clone(),
            tuples: self.tuples.intersection(&other.tuples).cloned().collect(),
            key: None,
        })
    }

    /// ρ — rename an attribute.
    pub fn rename(&self, from: &str, to: &str) -> Result<Relation, RelationError> {
        let schema = self.schema.rename(from, to)?;
        let tuples = self
            .tuples
            .iter()
            .map(|t| {
                let mut t = t.clone();
                let v = t.remove(from).expect("schema checked");
                t.insert(Label::new(to), v);
                t
            })
            .collect();
        Ok(Relation {
            schema,
            tuples,
            key: None,
        })
    }

    /// × — cartesian product (attribute sets must be disjoint; rename
    /// first otherwise).
    pub fn product(&self, other: &Relation) -> Result<Relation, RelationError> {
        if !self.schema.common(&other.schema).is_empty() {
            return Err(RelationError::SchemaMismatch(
                "product requires disjoint attributes; use rename".into(),
            ));
        }
        self.natural_join(other)
    }

    fn require_same_schema(&self, other: &Relation) -> Result<(), RelationError> {
        if self.schema != other.schema {
            return Err(RelationError::SchemaMismatch("schemas differ".into()));
        }
        Ok(())
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&Label> = self.schema.attr_names().collect();
        writeln!(
            f,
            "| {} |",
            names
                .iter()
                .map(|s| s.as_str())
                .collect::<Vec<_>>()
                .join(" | ")
        )?;
        for t in &self.tuples {
            let row: Vec<String> = names.iter().map(|n| t[*n].to_string()).collect();
            writeln!(f, "| {} |", row.join(" | "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emp() -> Relation {
        let schema =
            Schema::new([("Name", Type::Str), ("Dept", Type::Str), ("Sal", Type::Int)]).unwrap();
        let mut r = Relation::new(schema);
        r.insert_row([
            ("Name", Value::str("ann")),
            ("Dept", Value::str("S")),
            ("Sal", Value::Int(10)),
        ])
        .unwrap();
        r.insert_row([
            ("Name", Value::str("bob")),
            ("Dept", Value::str("M")),
            ("Sal", Value::Int(20)),
        ])
        .unwrap();
        r
    }

    fn dept() -> Relation {
        let schema = Schema::new([("Dept", Type::Str), ("City", Type::Str)]).unwrap();
        let mut r = Relation::new(schema);
        r.insert_row([("Dept", Value::str("S")), ("City", Value::str("Austin"))])
            .unwrap();
        r.insert_row([("Dept", Value::str("M")), ("City", Value::str("Moose"))])
            .unwrap();
        r
    }

    #[test]
    fn first_normal_form_enforced_at_schema() {
        let err = Schema::new([("Kids", Type::list(Type::Str))]).unwrap_err();
        assert!(matches!(err, RelationError::NotFirstNormalForm { .. }));
    }

    #[test]
    fn tuples_must_be_total_and_typed() {
        let mut r = emp();
        assert!(matches!(
            r.insert_row([("Name", Value::str("x"))]),
            Err(RelationError::MissingAttribute(_))
        ));
        assert!(matches!(
            r.insert_row([
                ("Name", Value::Int(1)),
                ("Dept", Value::str("S")),
                ("Sal", Value::Int(1))
            ]),
            Err(RelationError::TupleTypeMismatch { .. })
        ));
        assert!(matches!(
            r.insert_row([
                ("Name", Value::str("x")),
                ("Dept", Value::str("S")),
                ("Sal", Value::Int(1)),
                ("Extra", Value::Int(9))
            ]),
            Err(RelationError::UnknownAttribute(_))
        ));
    }

    #[test]
    fn set_semantics() {
        let mut r = emp();
        let dup = r.insert_row([
            ("Name", Value::str("ann")),
            ("Dept", Value::str("S")),
            ("Sal", Value::Int(10)),
        ]);
        assert!(!dup.unwrap(), "duplicate collapses silently");
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn natural_join_matches_on_common_attrs() {
        let j = emp().natural_join(&dept()).unwrap();
        assert_eq!(j.len(), 2);
        assert_eq!(j.schema().arity(), 4);
        let ann = j.tuples().find(|t| t["Name"] == Value::str("ann")).unwrap();
        assert_eq!(ann["City"], Value::str("Austin"));
    }

    #[test]
    fn join_with_no_common_attrs_is_product() {
        let a = {
            let mut r = Relation::new(Schema::new([("A", Type::Int)]).unwrap());
            r.insert_row([("A", Value::Int(1))]).unwrap();
            r.insert_row([("A", Value::Int(2))]).unwrap();
            r
        };
        let b = {
            let mut r = Relation::new(Schema::new([("B", Type::Int)]).unwrap());
            r.insert_row([("B", Value::Int(3))]).unwrap();
            r
        };
        assert_eq!(a.natural_join(&b).unwrap().len(), 2);
        assert_eq!(a.product(&b).unwrap().len(), 2);
        assert!(a.product(&a).is_err());
    }

    #[test]
    fn select_project_rename() {
        let r = emp();
        let s = r.select(|t| t["Sal"].as_int().unwrap() > 15);
        assert_eq!(s.len(), 1);
        let p = r.project(&["Dept"]).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.schema().arity(), 1);
        let rn = r.rename("Sal", "Salary").unwrap();
        assert!(rn.schema().has("Salary"));
        assert!(r.project(&["Nope"]).is_err());
    }

    #[test]
    fn projection_collapses_duplicates() {
        let mut r = emp();
        r.insert_row([
            ("Name", Value::str("cyd")),
            ("Dept", Value::str("S")),
            ("Sal", Value::Int(30)),
        ])
        .unwrap();
        let p = r.project(&["Dept"]).unwrap();
        assert_eq!(p.len(), 2, "two of the three rows share Dept='S'");
    }

    #[test]
    fn union_difference_intersect() {
        let a = emp();
        let b = {
            let mut b = emp();
            b.insert_row([
                ("Name", Value::str("cyd")),
                ("Dept", Value::str("S")),
                ("Sal", Value::Int(30)),
            ])
            .unwrap();
            b
        };
        assert_eq!(a.union(&b).unwrap().len(), 3);
        assert_eq!(b.difference(&a).unwrap().len(), 1);
        assert_eq!(a.intersect(&b).unwrap().len(), 2);
        let other = dept();
        assert!(a.union(&other).is_err());
    }

    #[test]
    fn keys_enforce_uniqueness() {
        let mut r = emp().with_key(&["Name"]).unwrap();
        let err = r.insert_row([
            ("Name", Value::str("ann")),
            ("Dept", Value::str("X")),
            ("Sal", Value::Int(99)),
        ]);
        assert!(matches!(err, Err(RelationError::KeyViolation(_))));
        // Imposing a key retroactively checks existing data.
        let mut dup = emp();
        dup.insert_row([
            ("Name", Value::str("ann")),
            ("Dept", Value::str("Z")),
            ("Sal", Value::Int(1)),
        ])
        .unwrap();
        assert!(dup.with_key(&["Name"]).is_err());
    }
}
