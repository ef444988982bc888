//! Runtime values for the MiniDBPL evaluator.
//!
//! Runtime values extend the storable [`Value`]s of `dbpl-values` with
//! functions — closures, builtins and partial applications — which exist
//! only during evaluation. Conversion to [`Value`] happens at the *database
//! boundaries* — `dynamic`, `put`, `extern` — where functions are
//! rejected: only data persists.
//!
//! There is no name environment at run time: the checker resolved every
//! variable to a frame slot (see [`crate::ast::Slot`]), so a
//! [`Closure`] holds only the values its body captures.
//!
//! `get` results are not converted either. `get[T](db)` evaluates to an
//! [`RtValue::Extent`]: a view of the snapshot's matching typed lists,
//! read row by row only as it is iterated. The evaluator's `len`,
//! `isEmpty`, `head`, `fold`, `map`, `filter` and `sum` read it in place,
//! and an extent bound by `let` or passed to a function stays a view.
//! Everything else — printing, `==`, storing it inside data, `dynamic`,
//! the other list builtins — turns it into a list through one helper,
//! [`RtValue::materialized`]. The elements a view yields are
//! [`RtValue::Stored`] rows, shared with the store and unpackaged: the
//! program was checked at the bound, so the package has nothing left to
//! tell the evaluator. A field read converts only that field, and
//! [`RtValue::unpack`] converts a whole row where the evaluator inspects
//! its shape.

use crate::ast::Lambda;
use crate::builtins::{sig, Bi};
use crate::error::LangError;
use dbpl_core::{GetView, StoredRow};
use dbpl_types::Type;
use dbpl_values::{Label, Oid, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// A function literal evaluated in a frame: its code and the values it
/// captured there.
#[derive(Debug)]
pub struct Closure {
    /// The resolved literal (shared with the program).
    pub code: Rc<Lambda>,
    /// The captured values, in [`Lambda::captures`] order.
    pub captured: Vec<RtValue>,
}

/// A function applied to fewer arguments than it takes.
#[derive(Debug)]
pub struct Partial {
    /// The function: a closure, a builtin or a partial application.
    pub f: RtValue,
    /// The arguments collected so far.
    pub args: Vec<RtValue>,
}

/// A runtime value.
#[derive(Debug, Clone)]
pub enum RtValue {
    /// Unit.
    Unit,
    /// Boolean.
    Bool(bool),
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// String, shared with the values it came from.
    Str(Arc<str>),
    /// List.
    List(Vec<RtValue>),
    /// Record.
    Record(BTreeMap<Label, RtValue>),
    /// Tagged (variant) value.
    Tagged(Label, Box<RtValue>),
    /// Dynamic: a value carrying its type.
    Dyn(Type, Rc<RtValue>),
    /// An object reference (appears when database values contain them).
    Ref(Oid),
    /// A user function.
    Closure(Rc<Closure>),
    /// A builtin, with the type arguments applied to it so far.
    Builtin(Bi, Vec<Type>),
    /// A partially applied function.
    Partial(Rc<Partial>),
    /// The session database token (the value of the global `db`).
    DbToken,
    /// An unopened `get` result element: a stored row, shared. It
    /// behaves exactly like [`RtValue::from_value`] of the row's value;
    /// [`RtValue::unpack`] performs that conversion where the evaluator
    /// inspects a value's shape.
    Stored(StoredRow),
    /// A `get` result not yet turned into a list: the view of the
    /// snapshot's typed lists. It behaves exactly like the list of its
    /// [`RtValue::Stored`] rows, which [`RtValue::materialized`]
    /// builds.
    Extent(Rc<GetView>),
}

impl RtValue {
    /// Convert to a storable [`Value`]; fails on functions and the
    /// database token.
    pub fn to_value(&self, at: usize) -> Result<Value, LangError> {
        Ok(match self {
            RtValue::Unit => Value::Unit,
            RtValue::Bool(b) => Value::Bool(*b),
            RtValue::Int(i) => Value::Int(*i),
            RtValue::Float(x) => Value::float(*x),
            RtValue::Str(s) => Value::Str(s.clone()),
            RtValue::List(xs) => Value::List(
                xs.iter()
                    .map(|x| x.to_value(at))
                    .collect::<Result<_, _>>()?,
            ),
            RtValue::Record(fs) => Value::Record(
                fs.iter()
                    .map(|(l, v)| Ok((*l, v.to_value(at)?)))
                    .collect::<Result<_, LangError>>()?,
            ),
            RtValue::Tagged(l, v) => Value::Tagged(*l, Box::new(v.to_value(at)?)),
            RtValue::Dyn(t, v) => Value::dynamic(t.clone(), v.to_value(at)?),
            RtValue::Ref(o) => Value::Ref(*o),
            RtValue::Closure(_) | RtValue::Builtin(..) | RtValue::Partial(_) => {
                return Err(LangError::eval(at, "functions cannot be stored as data"))
            }
            RtValue::DbToken => {
                return Err(LangError::eval(
                    at,
                    "the database itself is not a storable value",
                ))
            }
            // Through the runtime form, so the stored value converts
            // exactly as an opened one would (sets become lists).
            RtValue::Stored(p) => return RtValue::from_value(p.value()).to_value(at),
            RtValue::Extent(_) => return self.clone().materialized().to_value(at),
        })
    }

    /// Turn an [`RtValue::Extent`] into the list of its rows, in
    /// store order; every other value is returned as is. The one place a
    /// `get` result is materialized.
    pub fn materialized(self) -> RtValue {
        match self {
            RtValue::Extent(view) => RtValue::List(view.rows().map(RtValue::Stored).collect()),
            other => other,
        }
    }

    /// Open a [`RtValue::Stored`] row into its runtime form; every
    /// other value is returned as is.
    pub fn unpack(self) -> RtValue {
        match self {
            RtValue::Stored(p) => RtValue::from_value(p.value()),
            other => other,
        }
    }

    /// How many more arguments a function value takes before it runs: 1
    /// for any other value, so that applying one fails at once.
    pub fn arity(&self) -> usize {
        match self {
            RtValue::Closure(c) => c.code.arity,
            RtValue::Builtin(id, _) => sig(*id).arity,
            RtValue::Partial(p) => p.f.arity() - p.args.len(),
            _ => 1,
        }
    }

    /// Convert a storable value into a runtime value (always succeeds).
    pub fn from_value(v: &Value) -> RtValue {
        match v {
            Value::Unit => RtValue::Unit,
            Value::Bool(b) => RtValue::Bool(*b),
            Value::Int(i) => RtValue::Int(*i),
            Value::Float(x) => RtValue::Float(x.0),
            Value::Str(s) => RtValue::Str(s.clone()),
            Value::List(xs) => RtValue::List(xs.iter().map(RtValue::from_value).collect()),
            Value::Set(xs) => RtValue::List(xs.iter().map(RtValue::from_value).collect()),
            Value::Record(fs) => RtValue::Record(
                fs.iter()
                    .map(|(l, x)| (*l, RtValue::from_value(x)))
                    .collect(),
            ),
            Value::Tagged(l, x) => RtValue::Tagged(*l, Box::new(RtValue::from_value(x))),
            Value::Dyn(d) => RtValue::Dyn(d.ty.clone(), Rc::new(RtValue::from_value(&d.value))),
            Value::Ref(o) => RtValue::Ref(*o),
        }
    }

    /// Structural equality on data; functions are never equal.
    pub fn data_eq(&self, other: &RtValue) -> Option<bool> {
        match (self, other) {
            (RtValue::Stored(p), _) => RtValue::from_value(p.value()).data_eq(other),
            (_, RtValue::Stored(p)) => self.data_eq(&RtValue::from_value(p.value())),
            (RtValue::Extent(_), _) => self.clone().materialized().data_eq(other),
            (_, RtValue::Extent(_)) => self.data_eq(&other.clone().materialized()),
            (RtValue::Unit, RtValue::Unit) => Some(true),
            (RtValue::Bool(a), RtValue::Bool(b)) => Some(a == b),
            (RtValue::Int(a), RtValue::Int(b)) => Some(a == b),
            (RtValue::Float(a), RtValue::Float(b)) => Some(a == b),
            (RtValue::Int(a), RtValue::Float(b)) | (RtValue::Float(b), RtValue::Int(a)) => {
                Some(*a as f64 == *b)
            }
            (RtValue::Str(a), RtValue::Str(b)) => Some(a == b),
            (RtValue::Ref(a), RtValue::Ref(b)) => Some(a == b),
            (RtValue::List(a), RtValue::List(b)) => {
                if a.len() != b.len() {
                    return Some(false);
                }
                for (x, y) in a.iter().zip(b) {
                    match x.data_eq(y) {
                        Some(true) => {}
                        other => return other,
                    }
                }
                Some(true)
            }
            (RtValue::Record(a), RtValue::Record(b)) => {
                if a.len() != b.len() || !a.keys().eq(b.keys()) {
                    return Some(false);
                }
                for (x, y) in a.values().zip(b.values()) {
                    match x.data_eq(y) {
                        Some(true) => {}
                        other => return other,
                    }
                }
                Some(true)
            }
            (RtValue::Tagged(la, va), RtValue::Tagged(lb, vb)) => {
                if la != lb {
                    return Some(false);
                }
                va.data_eq(vb)
            }
            (RtValue::Dyn(ta, va), RtValue::Dyn(tb, vb)) => {
                if ta != tb {
                    return Some(false);
                }
                va.data_eq(vb)
            }
            _ => None,
        }
    }
}

impl fmt::Display for RtValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtValue::Unit => write!(f, "()"),
            RtValue::Bool(b) => write!(f, "{b}"),
            RtValue::Int(i) => write!(f, "{i}"),
            RtValue::Float(x) => {
                if x.fract() == 0.0 && x.is_finite() {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            RtValue::Str(s) => write!(f, "'{s}'"),
            RtValue::List(xs) => {
                write!(f, "[")?;
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, "]")
            }
            RtValue::Record(fs) => {
                write!(f, "{{")?;
                for (i, (l, v)) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{l} = {v}")?;
                }
                write!(f, "}}")
            }
            RtValue::Tagged(l, v) => write!(f, "{l}({v})"),
            RtValue::Dyn(t, v) => write!(f, "dynamic({v} : {t})"),
            RtValue::Ref(o) => write!(f, "{o}"),
            RtValue::Closure(_) => write!(f, "<fn>"),
            RtValue::Builtin(id, _) => write!(f, "<builtin {}>", sig(*id).name),
            RtValue::Partial(p) => write!(f, "{}", p.f),
            RtValue::DbToken => write!(f, "<database>"),
            RtValue::Stored(p) => write!(f, "{}", RtValue::from_value(p.value())),
            RtValue::Extent(_) => write!(f, "{}", self.clone().materialized()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_roundtrip() {
        let v = Value::record([
            ("a", Value::Int(1)),
            ("b", Value::list([Value::str("x")])),
            ("d", Value::dynamic(Type::Int, Value::Int(3))),
        ]);
        let rt = RtValue::from_value(&v);
        assert_eq!(rt.to_value(0).unwrap(), v);
    }

    #[test]
    fn functions_do_not_convert() {
        let b = RtValue::Builtin(Bi::Len, vec![]);
        assert!(b.to_value(0).is_err());
        assert!(RtValue::DbToken.to_value(0).is_err());
    }

    #[test]
    fn data_eq_numeric_widening() {
        assert_eq!(RtValue::Int(3).data_eq(&RtValue::Float(3.0)), Some(true));
        assert_eq!(RtValue::Int(3).data_eq(&RtValue::Float(3.5)), Some(false));
        let f = RtValue::Builtin(Bi::Len, vec![]);
        assert_eq!(f.data_eq(&f), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(RtValue::List(vec![RtValue::Int(1)]).to_string(), "[1]");
        assert_eq!(RtValue::Float(2.0).to_string(), "2.0");
        let r = RtValue::Record(BTreeMap::from([("a".into(), RtValue::Unit)]));
        assert_eq!(r.to_string(), "{a = ()}");
    }
}
