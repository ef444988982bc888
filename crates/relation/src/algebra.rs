//! A relational-algebra expression language over named flat relations.
//!
//! Merrett's textbook (cited by the paper for "the use of relational
//! algebra to solve a variety of problems") motivates treating algebra
//! expressions as first-class, composable programs; MiniDBPL's relational
//! builtins evaluate through this module. Expressions are data, so
//! transient intermediate relations — the paper's non-persistent extents —
//! arise naturally during evaluation and vanish afterwards.

use crate::error::RelationError;
use crate::flat::{Relation, Tuple};
use dbpl_values::Value;
use std::collections::BTreeMap;
use std::fmt;

/// Comparison operators for selection predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    fn eval(self, a: &Value, b: &Value) -> bool {
        use std::cmp::Ordering::*;
        let ord = a.cmp(b);
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }
}

/// A selection predicate over a tuple.
#[derive(Debug, Clone, PartialEq)]
pub enum Pred {
    /// Compare an attribute with a constant.
    Cmp(String, CmpOp, Value),
    /// Compare two attributes.
    CmpAttrs(String, CmpOp, String),
    /// Conjunction.
    And(Box<Pred>, Box<Pred>),
    /// Disjunction.
    Or(Box<Pred>, Box<Pred>),
    /// Negation.
    Not(Box<Pred>),
    /// Always true.
    True,
}

impl Pred {
    /// `attr op const`.
    pub fn cmp(attr: impl Into<String>, op: CmpOp, v: impl Into<Value>) -> Pred {
        Pred::Cmp(attr.into(), op, v.into())
    }

    /// `attr = const`.
    pub fn eq(attr: impl Into<String>, v: impl Into<Value>) -> Pred {
        Pred::cmp(attr, CmpOp::Eq, v)
    }

    /// Conjunction helper.
    pub fn and(self, other: Pred) -> Pred {
        Pred::And(Box::new(self), Box::new(other))
    }

    /// Disjunction helper.
    pub fn or(self, other: Pred) -> Pred {
        Pred::Or(Box::new(self), Box::new(other))
    }

    /// Evaluate against a tuple; unknown attributes make the comparison
    /// false rather than erroring (checked upfront by `RelExpr::eval`).
    pub fn eval(&self, t: &Tuple) -> bool {
        match self {
            Pred::Cmp(a, op, v) => t.get(a.as_str()).is_some_and(|x| op.eval(x, v)),
            Pred::CmpAttrs(a, op, b) => match (t.get(a.as_str()), t.get(b.as_str())) {
                (Some(x), Some(y)) => op.eval(x, y),
                _ => false,
            },
            Pred::And(p, q) => p.eval(t) && q.eval(t),
            Pred::Or(p, q) => p.eval(t) || q.eval(t),
            Pred::Not(p) => !p.eval(t),
            Pred::True => true,
        }
    }
}

/// A relational-algebra expression.
#[derive(Debug, Clone, PartialEq)]
pub enum RelExpr {
    /// A named base relation, resolved from the catalog.
    Base(String),
    /// A literal relation.
    Const(Relation),
    /// σ — selection.
    Select(Box<RelExpr>, Pred),
    /// π — projection.
    Project(Box<RelExpr>, Vec<String>),
    /// ⋈ — natural join.
    Join(Box<RelExpr>, Box<RelExpr>),
    /// ∪ — union.
    Union(Box<RelExpr>, Box<RelExpr>),
    /// − — difference.
    Difference(Box<RelExpr>, Box<RelExpr>),
    /// ∩ — intersection.
    Intersect(Box<RelExpr>, Box<RelExpr>),
    /// ρ — rename an attribute.
    Rename(Box<RelExpr>, String, String),
}

impl RelExpr {
    /// Reference a named relation.
    pub fn base(name: impl Into<String>) -> RelExpr {
        RelExpr::Base(name.into())
    }

    /// σ helper.
    pub fn select(self, pred: Pred) -> RelExpr {
        RelExpr::Select(Box::new(self), pred)
    }

    /// π helper.
    pub fn project<S: Into<String>>(self, attrs: impl IntoIterator<Item = S>) -> RelExpr {
        RelExpr::Project(Box::new(self), attrs.into_iter().map(Into::into).collect())
    }

    /// ⋈ helper.
    pub fn join(self, other: RelExpr) -> RelExpr {
        RelExpr::Join(Box::new(self), Box::new(other))
    }

    /// ∪ helper.
    pub fn union(self, other: RelExpr) -> RelExpr {
        RelExpr::Union(Box::new(self), Box::new(other))
    }

    /// − helper.
    pub fn difference(self, other: RelExpr) -> RelExpr {
        RelExpr::Difference(Box::new(self), Box::new(other))
    }

    /// ρ helper.
    pub fn rename(self, from: impl Into<String>, to: impl Into<String>) -> RelExpr {
        RelExpr::Rename(Box::new(self), from.into(), to.into())
    }

    /// Evaluate against a catalog of named relations. Intermediate results
    /// are transient — they live only for the duration of evaluation.
    pub fn eval(&self, catalog: &Catalog) -> Result<Relation, RelationError> {
        match self {
            RelExpr::Base(n) => catalog
                .get(n)
                .cloned()
                .ok_or_else(|| RelationError::SchemaMismatch(format!("unknown relation `{n}`"))),
            RelExpr::Const(r) => Ok(r.clone()),
            RelExpr::Select(e, p) => {
                let r = e.eval(catalog)?;
                Ok(r.select(|t| p.eval(t)))
            }
            RelExpr::Project(e, attrs) => e.eval(catalog)?.project(attrs),
            RelExpr::Join(a, b) => a.eval(catalog)?.natural_join(&b.eval(catalog)?),
            RelExpr::Union(a, b) => a.eval(catalog)?.union(&b.eval(catalog)?),
            RelExpr::Difference(a, b) => a.eval(catalog)?.difference(&b.eval(catalog)?),
            RelExpr::Intersect(a, b) => a.eval(catalog)?.intersect(&b.eval(catalog)?),
            RelExpr::Rename(e, from, to) => e.eval(catalog)?.rename(from, to),
        }
    }
}

impl fmt::Display for RelExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelExpr::Base(n) => write!(f, "{n}"),
            RelExpr::Const(r) => write!(f, "<literal:{} rows>", r.len()),
            RelExpr::Select(e, _) => write!(f, "select(…)({e})"),
            RelExpr::Project(e, attrs) => write!(f, "project[{}]({e})", attrs.join(",")),
            RelExpr::Join(a, b) => write!(f, "({a} join {b})"),
            RelExpr::Union(a, b) => write!(f, "({a} union {b})"),
            RelExpr::Difference(a, b) => write!(f, "({a} minus {b})"),
            RelExpr::Intersect(a, b) => write!(f, "({a} intersect {b})"),
            RelExpr::Rename(e, from, to) => write!(f, "rename[{from}->{to}]({e})"),
        }
    }
}

/// A catalog of named relations (Pascal/R's `database` record, roughly).
pub type Catalog = BTreeMap<String, Relation>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::Schema;
    use dbpl_types::Type;

    fn catalog() -> Catalog {
        let mut emp = Relation::new(
            Schema::new([("Name", Type::Str), ("Dept", Type::Str), ("Sal", Type::Int)]).unwrap(),
        );
        for (n, d, s) in [("ann", "S", 10), ("bob", "M", 20), ("cyd", "S", 30)] {
            emp.insert_row([
                ("Name", Value::str(n)),
                ("Dept", Value::str(d)),
                ("Sal", Value::Int(s)),
            ])
            .unwrap();
        }
        let mut dept =
            Relation::new(Schema::new([("Dept", Type::Str), ("City", Type::Str)]).unwrap());
        dept.insert_row([("Dept", Value::str("S")), ("City", Value::str("Austin"))])
            .unwrap();
        dept.insert_row([("Dept", Value::str("M")), ("City", Value::str("Moose"))])
            .unwrap();
        Catalog::from([("Emp".to_string(), emp), ("Dept".to_string(), dept)])
    }

    #[test]
    fn select_join_project_pipeline() {
        let cat = catalog();
        // Cities of employees earning more than 15.
        let e = RelExpr::base("Emp")
            .select(Pred::cmp("Sal", CmpOp::Gt, 15i64))
            .join(RelExpr::base("Dept"))
            .project(["City"]);
        let r = e.eval(&cat).unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn predicates_compose() {
        let cat = catalog();
        let e = RelExpr::base("Emp").select(Pred::eq("Dept", "S").and(Pred::cmp(
            "Sal",
            CmpOp::Lt,
            20i64,
        )));
        assert_eq!(e.eval(&cat).unwrap().len(), 1);
        let e2 = RelExpr::base("Emp").select(Pred::Not(Box::new(Pred::eq("Dept", "S"))));
        assert_eq!(e2.eval(&cat).unwrap().len(), 1);
        let e3 = RelExpr::base("Emp").select(Pred::True);
        assert_eq!(e3.eval(&cat).unwrap().len(), 3);
    }

    #[test]
    fn attr_to_attr_comparison() {
        let mut r = Relation::new(Schema::new([("A", Type::Int), ("B", Type::Int)]).unwrap());
        r.insert_row([("A", Value::Int(1)), ("B", Value::Int(1))])
            .unwrap();
        r.insert_row([("A", Value::Int(1)), ("B", Value::Int(2))])
            .unwrap();
        let e = RelExpr::Const(r).select(Pred::CmpAttrs("A".into(), CmpOp::Eq, "B".into()));
        assert_eq!(e.eval(&Catalog::new()).unwrap().len(), 1);
    }

    #[test]
    fn unknown_base_fails() {
        assert!(RelExpr::base("Ghost").eval(&Catalog::new()).is_err());
    }

    #[test]
    fn rename_enables_self_join() {
        let cat = catalog();
        // Pairs of employees in the same department.
        let left = RelExpr::base("Emp").project(["Name", "Dept"]);
        let right = RelExpr::base("Emp")
            .project(["Name", "Dept"])
            .rename("Name", "Name2");
        let pairs = left.join(right).select(Pred::Not(Box::new(Pred::CmpAttrs(
            "Name".into(),
            CmpOp::Eq,
            "Name2".into(),
        ))));
        let r = pairs.eval(&cat).unwrap();
        // ann-cyd and cyd-ann.
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn set_ops_via_expressions() {
        let cat = catalog();
        let s = RelExpr::base("Emp").select(Pred::eq("Dept", "S"));
        let m = RelExpr::base("Emp").select(Pred::eq("Dept", "M"));
        assert_eq!(s.clone().union(m.clone()).eval(&cat).unwrap().len(), 3);
        assert_eq!(
            RelExpr::base("Emp")
                .difference(s.clone())
                .eval(&cat)
                .unwrap()
                .len(),
            1
        );
        assert_eq!(
            RelExpr::Intersect(Box::new(RelExpr::base("Emp")), Box::new(s))
                .eval(&cat)
                .unwrap()
                .len(),
            2
        );
    }
}
