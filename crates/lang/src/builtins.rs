//! Builtin functions: their static signatures and arities.
//!
//! The star is `get : forall t. Database -> List[t]` — the paper's
//! generic extraction function. (Its fully faithful type is
//! `∀t. Database → List[∃t' ≤ t]`; MiniDBPL applies the sound
//! "use-at-bound" rule, immediately opening every package at `t`, which is
//! what the existential licenses. The `dbpl-core` API exposes the packages
//! themselves.) `cons` is typed exactly as the paper's example
//! `∀a. a → List[a] → List[a]`.
//!
//! The table is built once per process. The checker resolves a builtin's
//! name to its [`Bi`] id; the evaluator dispatches on the id.

use dbpl_types::{parse_type, Type};
use std::sync::LazyLock;

/// The database's abstract type name.
pub const DATABASE: &str = "Database";

/// A builtin's id: its index in the table.
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bi {
    Print,
    Get,
    Put,
    Cons,
    Head,
    Tail,
    IsEmpty,
    Len,
    Append,
    Map,
    Filter,
    Fold,
    Sum,
    Str,
    Reverse,
    Distinct,
    Range,
    Panic,
    Explain,
    ExplainJoin,
    ExplainAnalyze,
    Scrub,
    Timeline,
    Analyze,
    ExtentStats,
    Workload,
    ExplainAnalyzeJoin,
}

/// A builtin's static description.
pub struct BuiltinSig {
    /// Id (the evaluator dispatches on it).
    pub id: Bi,
    /// Name (also the surface identifier).
    pub name: &'static str,
    /// Full (possibly quantified) type.
    pub ty: Type,
    /// Number of *value* arguments the implementation expects.
    pub arity: usize,
}

/// `(id, name, value arity, type)`, in [`Bi`] order.
const TABLE: [(Bi, &str, usize, &str); 27] = [
    (Bi::Print, "print", 1, "Top -> Unit"),
    // Get : ∀t. Database → List[t]   (use-at-bound; see module docs)
    (Bi::Get, "get", 1, "forall t. Database -> List[t]"),
    (Bi::Put, "put", 2, "Database -> Dynamic -> Unit"),
    // Cons : ∀a. a → List[a] → List[a] — the paper's example.
    (Bi::Cons, "cons", 2, "forall a. a -> List[a] -> List[a]"),
    (Bi::Head, "head", 1, "forall a. List[a] -> a"),
    (Bi::Tail, "tail", 1, "forall a. List[a] -> List[a]"),
    (Bi::IsEmpty, "isEmpty", 1, "forall a. List[a] -> Bool"),
    (Bi::Len, "len", 1, "forall a. List[a] -> Int"),
    (
        Bi::Append,
        "append",
        2,
        "forall a. List[a] -> List[a] -> List[a]",
    ),
    (
        Bi::Map,
        "map",
        2,
        "forall a. forall b. (a -> b) -> List[a] -> List[b]",
    ),
    (
        Bi::Filter,
        "filter",
        2,
        "forall a. (a -> Bool) -> List[a] -> List[a]",
    ),
    (
        Bi::Fold,
        "fold",
        3,
        "forall a. forall b. (b -> a -> b) -> b -> List[a] -> b",
    ),
    (Bi::Sum, "sum", 1, "List[Float] -> Float"),
    (Bi::Str, "str", 1, "Top -> Str"),
    (Bi::Reverse, "reverse", 1, "forall a. List[a] -> List[a]"),
    // Set semantics at the language level: duplicates collapse.
    (Bi::Distinct, "distinct", 1, "forall a. List[a] -> List[a]"),
    (Bi::Range, "range", 2, "Int -> Int -> List[Int]"),
    // Unconditional failure, modelling a buggy program that unwinds.
    // The session isolates the panic and aborts its transaction.
    (Bi::Panic, "panic", 1, "Str -> Unit"),
    // Query-plan introspection: run Get at the bound, report the counters it moved.
    (Bi::Explain, "explain", 1, "forall t. Database -> Str"),
    // The same for the generalized natural join of two object lists.
    (
        Bi::ExplainJoin,
        "explainJoin",
        2,
        "forall a. forall b. List[a] -> List[b] -> Str",
    ),
    // EXPLAIN ANALYZE: run Get under a dedicated trace, render the measured plan tree.
    (
        Bi::ExplainAnalyze,
        "explainAnalyze",
        1,
        "forall t. Database -> Str",
    ),
    // SCRUB: verify every stored unit's checksum, read-repair corrupt copies.
    (Bi::Scrub, "scrub", 1, "Database -> Str"),
    // TIMELINE: the flight recorder's recent ring ("what just happened").
    (Bi::Timeline, "timeline", 1, "Database -> Str"),
    // ANALYZE: count the statistics over the healthy store; one summary line.
    (Bi::Analyze, "analyze", 1, "Database -> Str"),
    // The per-carried-type statistics, counted now and rendered.
    (Bi::ExtentStats, "extentStats", 1, "Database -> Str"),
    // The workload query log, read from the trace ring: top-K by plan fingerprint.
    (Bi::Workload, "workload", 1, "Database -> Str"),
    // The same for the generalized natural join of two object lists.
    (
        Bi::ExplainAnalyzeJoin,
        "explainAnalyzeJoin",
        2,
        "forall a. forall b. List[a] -> List[b] -> Str",
    ),
];

static BUILTINS: LazyLock<Vec<BuiltinSig>> = LazyLock::new(|| {
    TABLE
        .iter()
        .map(|&(id, name, arity, ty)| BuiltinSig {
            id,
            name,
            ty: parse_type(ty).expect("builtin signatures parse"),
            arity,
        })
        .collect()
});

/// The table of builtins, in [`Bi`] order.
pub fn builtins() -> &'static [BuiltinSig] {
    &BUILTINS
}

/// Look up one builtin by name.
pub fn builtin(name: &str) -> Option<&'static BuiltinSig> {
    builtins().iter().find(|b| b.name == name)
}

/// One builtin's description, by id.
pub fn sig(id: Bi) -> &'static BuiltinSig {
    &builtins()[id as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_has_the_papers_shape() {
        let g = builtin("get").unwrap();
        assert_eq!(g.ty.to_string(), "forall t. Database -> List[t]");
    }

    #[test]
    fn cons_matches_cardelli_wegner() {
        let c = builtin("cons").unwrap();
        assert_eq!(c.ty.to_string(), "forall a. a -> List[a] -> List[a]");
    }

    #[test]
    fn table_has_no_duplicates() {
        let names: Vec<&str> = builtins().iter().map(|b| b.name).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len());
        assert!(builtin("nope").is_none());
    }

    #[test]
    fn ids_index_the_table_and_arities_match_the_types() {
        for (i, b) in builtins().iter().enumerate() {
            assert_eq!(b.id as usize, i, "{}", b.name);
            assert!(std::ptr::eq(sig(b.id), b));
            let mut ty = &b.ty;
            while let Type::Forall(q) = ty {
                ty = &q.body;
            }
            let mut arrows = 0;
            while let Type::Fun(_, r) = ty {
                arrows += 1;
                ty = r;
            }
            assert_eq!(arrows, b.arity, "{}", b.name);
        }
    }
}
