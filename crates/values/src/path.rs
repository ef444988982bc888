//! Paths into nested records, and record-extension operations.
//!
//! Object-level inheritance turns "a Person into an Employee" by *adding
//! information*; [`extend`] and [`put_path`] are the mutating counterparts
//! of the join `⊔` for the common case of adding or refining fields.

use crate::error::ValueError;
use crate::value::{Label, RecordFields, Value};
use std::fmt;

/// A dotted path into nested records, e.g. `Address.City`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Path(pub Vec<Label>);

impl Path {
    /// Parse `"A.B.C"` into a path.
    pub fn parse(s: &str) -> Path {
        Path(
            s.split('.')
                .filter(|p| !p.is_empty())
                .map(Label::new)
                .collect(),
        )
    }

    /// A single-segment path.
    pub fn field(l: impl Into<Label>) -> Path {
        Path(vec![l.into()])
    }

    /// Is this the empty (root) path?
    pub fn is_root(&self) -> bool {
        self.0.is_empty()
    }
}

impl std::borrow::Borrow<[Label]> for Path {
    // Ord on Path derives from Vec<Label>, which orders exactly like
    // [Label] — so borrowed-slice map lookups agree with owned keys.
    fn borrow(&self) -> &[Label] {
        &self.0
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0.join("."))
    }
}

impl From<&str> for Path {
    fn from(s: &str) -> Self {
        Path::parse(s)
    }
}

/// Fetch the value at `path`, if every intermediate record and field
/// exists.
pub fn get_path<'v>(v: &'v Value, path: &Path) -> Option<&'v Value> {
    let mut cur = v;
    for seg in &path.0 {
        cur = cur.field(seg)?;
    }
    Some(cur)
}

/// Set the value at `path`, creating intermediate (partial) records as
/// needed. Fails if an intermediate value exists but is not a record.
pub fn put_path(v: &mut Value, path: &Path, new: Value) -> Result<(), ValueError> {
    put_at(v, &path.0, new)
}

fn put_at(v: &mut Value, path: &[Label], new: Value) -> Result<(), ValueError> {
    let Some((seg, rest)) = path.split_first() else {
        *v = new;
        return Ok(());
    };
    let fields = v
        .as_record_mut()
        .ok_or_else(|| ValueError::Shape(format!("`{seg}`: not a record on path")))?;
    match fields.get_mut(seg) {
        Some(child) => put_at(child, rest, new),
        None => {
            // A missing field: build the whole new branch, then add it
            // with one rebuild of this record's array.
            let mut child = Value::Record(RecordFields::new());
            put_at(&mut child, rest, new)?;
            fields.insert(*seg, child);
            Ok(())
        }
    }
}

/// Record extension: `base with {l = v, ...}` — the paper's operation for
/// turning a `Person` value into an `Employee` value by "adding
/// information to some Person value". Overwriting an existing field is
/// allowed (this is extension in the programming-language sense; use
/// [`crate::order::join`] for the strictly information-increasing merge).
pub fn extend<I, S>(base: &Value, additions: I) -> Result<Value, ValueError>
where
    I: IntoIterator<Item = (S, Value)>,
    S: Into<Label>,
{
    let mut fields = base
        .as_record()
        .ok_or_else(|| ValueError::Shape("`with` applies to records".into()))?
        .clone();
    fields.extend(additions.into_iter().map(|(l, v)| (l.into(), v)));
    Ok(Value::Record(fields))
}

/// Remove a field, yielding a *less* informative record (moving down the
/// information ordering). Returns the base unchanged if the field was
/// absent.
pub fn without(base: &Value, label: &str) -> Result<Value, ValueError> {
    let mut fields = base
        .as_record()
        .ok_or_else(|| ValueError::Shape("`without` applies to records".into()))?
        .clone();
    fields.remove(label);
    Ok(Value::Record(fields))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::leq;

    fn person() -> Value {
        Value::record([
            ("Name", Value::str("J Doe")),
            ("Address", Value::record([("City", Value::str("Austin"))])),
        ])
    }

    #[test]
    fn get_path_navigates() {
        let p = person();
        assert_eq!(
            get_path(&p, &"Address.City".into()),
            Some(&Value::str("Austin"))
        );
        assert_eq!(get_path(&p, &"Address.Zip".into()), None);
        assert_eq!(get_path(&p, &Path::default()), Some(&p));
    }

    #[test]
    fn put_path_refines() {
        let mut p = person();
        put_path(&mut p, &"Address.Zip".into(), Value::Int(78759)).unwrap();
        assert_eq!(
            get_path(&p, &"Address.Zip".into()),
            Some(&Value::Int(78759))
        );
        assert!(leq(&person(), &p), "refinement moves up the ordering");
    }

    #[test]
    fn put_path_creates_intermediates() {
        let mut v = Value::record::<[(&str, Value); 0], &str>([]);
        put_path(&mut v, &"A.B.C".into(), Value::Int(1)).unwrap();
        assert_eq!(get_path(&v, &"A.B.C".into()), Some(&Value::Int(1)));
    }

    #[test]
    fn put_path_rejects_non_records() {
        let mut v = Value::record([("x", Value::Int(1))]);
        assert!(put_path(&mut v, &"x.y".into(), Value::Int(2)).is_err());
    }

    #[test]
    fn extend_makes_an_employee() {
        let p = person();
        let e = extend(&p, [("Empno", Value::Int(1234))]).unwrap();
        assert!(leq(&p, &e), "extension adds information");
        assert_eq!(e.field("Empno"), Some(&Value::Int(1234)));
        assert!(extend(&Value::Int(1), [("x", Value::Unit)]).is_err());
    }

    #[test]
    fn without_loses_information() {
        let p = person();
        let q = without(&p, "Address").unwrap();
        assert!(leq(&q, &p));
        assert_eq!(q.field("Address"), None);
    }

    #[test]
    fn path_display_roundtrip() {
        let p = Path::parse("Address.City");
        assert_eq!(p.to_string(), "Address.City");
        assert_eq!(Path::parse(&p.to_string()), p);
    }
}
