//! Functional-dependency theory.
//!
//! The paper notes that from the interaction of the two orderings on
//! generalized relations "the basic results of the theory of functional
//! dependencies" can be derived \[Bune86\]. This module supplies that
//! classical theory over attribute sets — Armstrong closure, implication,
//! minimal covers, candidate keys, FD projection, the lossless-join chase,
//! BCNF checking/decomposition and 3NF synthesis — plus *satisfaction*
//! checks against both flat and generalized relations (where partial
//! records weaken satisfaction exactly as one would expect from the
//! domain-theoretic reading).

use crate::flat::Relation;
use crate::generalized::GenRelation;
use dbpl_types::Label;
use dbpl_values::{get_path, Path};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// An attribute set.
pub type Attrs = BTreeSet<Label>;

/// Build an attribute set from names.
pub fn attrs<S: AsRef<str>>(names: impl IntoIterator<Item = S>) -> Attrs {
    names.into_iter().map(|s| Label::new(s.as_ref())).collect()
}

/// A functional dependency `X → Y`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Fd {
    /// Determinant.
    pub lhs: Attrs,
    /// Dependent.
    pub rhs: Attrs,
}

impl Fd {
    /// `X → Y` from attribute names.
    pub fn new<S: AsRef<str>>(
        lhs: impl IntoIterator<Item = S>,
        rhs: impl IntoIterator<Item = S>,
    ) -> Fd {
        Fd {
            lhs: attrs(lhs),
            rhs: attrs(rhs),
        }
    }

    /// Is the dependency trivial (`Y ⊆ X`, Armstrong's reflexivity)?
    pub fn is_trivial(&self) -> bool {
        self.rhs.is_subset(&self.lhs)
    }
}

impl fmt::Display for Fd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let l: Vec<&str> = self.lhs.iter().map(|l| l.as_str()).collect();
        let r: Vec<&str> = self.rhs.iter().map(|l| l.as_str()).collect();
        write!(f, "{} -> {}", l.join(","), r.join(","))
    }
}

/// A set of functional dependencies.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FdSet {
    fds: Vec<Fd>,
}

impl FdSet {
    /// An empty FD set.
    pub fn new() -> FdSet {
        FdSet::default()
    }

    /// From a collection of FDs.
    pub fn from_fds(fds: impl IntoIterator<Item = Fd>) -> FdSet {
        FdSet {
            fds: fds.into_iter().collect(),
        }
    }

    /// Add an FD.
    pub fn add(&mut self, fd: Fd) {
        self.fds.push(fd);
    }

    /// The FDs.
    pub fn fds(&self) -> &[Fd] {
        &self.fds
    }

    /// Number of FDs.
    pub fn len(&self) -> usize {
        self.fds.len()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.fds.is_empty()
    }

    /// The closure `X⁺` of an attribute set under these FDs (Armstrong's
    /// axioms, fixpoint algorithm).
    pub fn closure(&self, start: &Attrs) -> Attrs {
        let mut closed = start.clone();
        loop {
            let before = closed.len();
            for fd in &self.fds {
                if fd.lhs.is_subset(&closed) {
                    closed.extend(fd.rhs.iter().cloned());
                }
            }
            if closed.len() == before {
                return closed;
            }
        }
    }

    /// Does this set imply `fd` (`fd.rhs ⊆ fd.lhs⁺`)?
    pub fn implies(&self, fd: &Fd) -> bool {
        fd.rhs.is_subset(&self.closure(&fd.lhs))
    }

    /// Are two FD sets equivalent (each implies all of the other)?
    pub fn equivalent(&self, other: &FdSet) -> bool {
        self.fds.iter().all(|f| other.implies(f)) && other.fds.iter().all(|f| self.implies(f))
    }

    /// Is `x` a superkey of a relation with attribute set `all`?
    pub fn is_superkey(&self, x: &Attrs, all: &Attrs) -> bool {
        all.is_subset(&self.closure(x))
    }

    /// Is `x` a candidate key (a minimal superkey)?
    pub fn is_candidate_key(&self, x: &Attrs, all: &Attrs) -> bool {
        self.is_superkey(x, all)
            && x.iter().all(|a| {
                let mut smaller = x.clone();
                smaller.remove(a);
                !self.is_superkey(&smaller, all)
            })
    }

    /// *All* candidate keys of a relation with attribute set `all`.
    ///
    /// Every key must contain the attributes that appear on no RHS;
    /// the search enumerates supersets of that essential core in
    /// increasing size, pruning supersets of keys already found.
    pub fn candidate_keys(&self, all: &Attrs) -> Vec<Attrs> {
        let in_rhs: Attrs = self
            .fds
            .iter()
            .flat_map(|f| f.rhs.iter().cloned())
            .collect();
        let essential: Attrs = all.difference(&in_rhs).cloned().collect();
        let optional: Vec<&Label> = all.difference(&essential).collect();

        if self.is_superkey(&essential, all) {
            return vec![essential];
        }
        let mut keys: Vec<Attrs> = Vec::new();
        // Subset enumeration in increasing popcount order.
        let n = optional.len();
        assert!(
            n < 26,
            "candidate-key search limited to 26 non-essential attributes"
        );
        let mut masks: Vec<u32> = (1..(1u32 << n)).collect();
        masks.sort_by_key(|m| m.count_ones());
        for m in masks {
            let mut cand = essential.clone();
            for (i, a) in optional.iter().enumerate() {
                if m & (1 << i) != 0 {
                    cand.insert(*(*a));
                }
            }
            if keys.iter().any(|k| k.is_subset(&cand)) {
                continue; // superset of a known key: not minimal
            }
            if self.is_superkey(&cand, all) {
                keys.push(cand);
            }
        }
        keys
    }

    /// A minimal (canonical) cover: singleton RHSs, no extraneous LHS
    /// attributes, no redundant FDs.
    pub fn minimal_cover(&self) -> FdSet {
        // 1. Split RHSs.
        let mut fds: Vec<Fd> = self
            .fds
            .iter()
            .flat_map(|f| {
                f.rhs.iter().map(move |r| Fd {
                    lhs: f.lhs.clone(),
                    rhs: BTreeSet::from([*r]),
                })
            })
            .filter(|f| !f.is_trivial())
            .collect();
        fds.sort();
        fds.dedup();
        // 2. Remove extraneous LHS attributes.
        let whole = FdSet { fds: fds.clone() };
        for f in &mut fds {
            let mut lhs = f.lhs.clone();
            for a in f.lhs.clone() {
                if lhs.len() == 1 {
                    break;
                }
                let mut trial = lhs.clone();
                trial.remove(&a);
                if whole.implies(&Fd {
                    lhs: trial.clone(),
                    rhs: f.rhs.clone(),
                }) {
                    lhs = trial;
                }
            }
            f.lhs = lhs;
        }
        fds.sort();
        fds.dedup();
        // 3. Remove redundant FDs.
        let mut i = 0;
        while i < fds.len() {
            let without: FdSet = FdSet {
                fds: fds
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .map(|(_, f)| f.clone())
                    .collect(),
            };
            if without.implies(&fds[i]) {
                fds.remove(i);
            } else {
                i += 1;
            }
        }
        FdSet { fds }
    }

    /// Projection of the FD set onto a subset of attributes (closure-based;
    /// exponential in `|onto|`, suitable for the schema sizes of the
    /// experiments).
    pub fn project(&self, onto: &Attrs) -> FdSet {
        let items: Vec<&Label> = onto.iter().collect();
        let n = items.len();
        assert!(n < 26, "FD projection limited to 26 attributes");
        let mut out = Vec::new();
        for m in 1..(1u32 << n) {
            let x: Attrs = items
                .iter()
                .enumerate()
                .filter(|(i, _)| m & (1 << i) != 0)
                .map(|(_, a)| *(*a))
                .collect();
            let cx = self.closure(&x);
            let rhs: Attrs = cx
                .intersection(onto)
                .filter(|a| !x.contains(*a))
                .cloned()
                .collect();
            if !rhs.is_empty() {
                out.push(Fd { lhs: x, rhs });
            }
        }
        FdSet { fds: out }.minimal_cover()
    }

    /// Is the schema in **BCNF**: for every nontrivial `X → Y`, `X` is a
    /// superkey?
    pub fn is_bcnf(&self, all: &Attrs) -> bool {
        self.violating_fd(all).is_none()
    }

    /// A BCNF-violating FD, if any.
    pub fn violating_fd(&self, all: &Attrs) -> Option<&Fd> {
        self.fds
            .iter()
            .filter(|f| !f.is_trivial())
            .find(|f| !self.is_superkey(&f.lhs, all))
    }

    /// Lossless BCNF decomposition by repeated violation splitting.
    pub fn bcnf_decompose(&self, all: &Attrs) -> Vec<Attrs> {
        let mut result = Vec::new();
        let mut work = vec![all.clone()];
        while let Some(r) = work.pop() {
            let local = self.project(&r);
            match local.violating_fd(&r) {
                None => result.push(r),
                Some(f) => {
                    // r1 = X⁺ ∩ r ; r2 = X ∪ (r − X⁺)
                    let cx = local.closure(&f.lhs);
                    let r1: Attrs = r.intersection(&cx).cloned().collect();
                    let mut r2: Attrs = r.difference(&cx).cloned().collect();
                    r2.extend(f.lhs.iter().cloned());
                    if r1 == r || r2 == r {
                        // Degenerate split; accept as-is to guarantee
                        // termination.
                        result.push(r);
                    } else {
                        work.push(r1);
                        work.push(r2);
                    }
                }
            }
        }
        result.sort();
        result.dedup();
        result
    }

    /// Is the schema in **3NF**: for every nontrivial `X → A`, `X` is a
    /// superkey or `A` is prime (member of some candidate key)?
    pub fn is_3nf(&self, all: &Attrs) -> bool {
        let prime: Attrs = self.candidate_keys(all).into_iter().flatten().collect();
        self.fds.iter().filter(|f| !f.is_trivial()).all(|f| {
            self.is_superkey(&f.lhs, all)
                || f.rhs.iter().all(|a| f.lhs.contains(a) || prime.contains(a))
        })
    }

    /// Bernstein-style 3NF synthesis from a minimal cover, with a key
    /// relation added if necessary. Always dependency-preserving and
    /// lossless.
    pub fn synthesize_3nf(&self, all: &Attrs) -> Vec<Attrs> {
        let cover = self.minimal_cover();
        // Group by LHS.
        let mut groups: BTreeMap<Attrs, Attrs> = BTreeMap::new();
        for f in cover.fds() {
            groups
                .entry(f.lhs.clone())
                .or_default()
                .extend(f.rhs.iter().cloned());
        }
        let mut schemas: Vec<Attrs> = groups
            .into_iter()
            .map(|(l, r)| l.union(&r).cloned().collect())
            .collect();
        // Attributes in no FD get their own relation (or join a key rel).
        let covered: Attrs = schemas.iter().flatten().cloned().collect();
        let loose: Attrs = all.difference(&covered).cloned().collect();
        if !loose.is_empty() {
            schemas.push(loose);
        }
        // Ensure some schema contains a key.
        let has_key = schemas.iter().any(|s| self.is_superkey(s, all));
        if !has_key {
            if let Some(k) = self.candidate_keys(all).into_iter().next() {
                schemas.push(k);
            }
        }
        // Drop schemas contained in others.
        let mut keep: Vec<Attrs> = Vec::new();
        schemas.sort_by_key(|s| std::cmp::Reverse(s.len()));
        for s in schemas {
            if !keep.iter().any(|k| s.is_subset(k)) {
                keep.push(s);
            }
        }
        keep.sort();
        keep
    }

    /// The **chase** test for a lossless join decomposition of `all` into
    /// `parts` under these FDs.
    pub fn lossless_join(&self, all: &Attrs, parts: &[Attrs]) -> bool {
        // Tableau: one row per part; cell (i, A) is distinguished (0) if
        // A ∈ parts[i], else a unique symbol i+1.
        let cols: Vec<&Label> = all.iter().collect();
        let col_idx: BTreeMap<&Label, usize> =
            cols.iter().enumerate().map(|(i, c)| (*c, i)).collect();
        let mut tab: Vec<Vec<u32>> = parts
            .iter()
            .enumerate()
            .map(|(i, p)| {
                cols.iter()
                    .map(|c| if p.contains(*c) { 0 } else { (i + 1) as u32 })
                    .collect()
            })
            .collect();
        // Chase to fixpoint.
        loop {
            let mut changed = false;
            for fd in &self.fds {
                let lhs_idx: Vec<usize> = fd
                    .lhs
                    .iter()
                    .filter_map(|a| col_idx.get(a).copied())
                    .collect();
                if lhs_idx.len() != fd.lhs.len() {
                    continue; // FD mentions attributes outside `all`
                }
                let rhs_idx: Vec<usize> = fd
                    .rhs
                    .iter()
                    .filter_map(|a| col_idx.get(a).copied())
                    .collect();
                for i in 0..tab.len() {
                    for j in (i + 1)..tab.len() {
                        if lhs_idx.iter().all(|&c| tab[i][c] == tab[j][c]) {
                            for &c in &rhs_idx {
                                let (a, b) = (tab[i][c], tab[j][c]);
                                if a != b {
                                    let keep = a.min(b);
                                    if tab[i][c] != keep {
                                        tab[i][c] = keep;
                                        changed = true;
                                    }
                                    if tab[j][c] != keep {
                                        tab[j][c] = keep;
                                        changed = true;
                                    }
                                }
                            }
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        tab.iter().any(|row| row.iter().all(|&x| x == 0))
    }
}

impl FromIterator<Fd> for FdSet {
    fn from_iter<I: IntoIterator<Item = Fd>>(iter: I) -> Self {
        FdSet::from_fds(iter)
    }
}

/// Does a flat relation's data satisfy `fd`?
pub fn satisfies_flat(rel: &Relation, fd: &Fd) -> bool {
    let rows: Vec<_> = rel.tuples().collect();
    for (i, a) in rows.iter().enumerate() {
        for b in &rows[i + 1..] {
            if fd.lhs.iter().all(|x| a.get(x) == b.get(x))
                && !fd.rhs.iter().all(|y| a.get(y) == b.get(y))
            {
                return false;
            }
        }
    }
    true
}

/// Does a generalized relation satisfy `fd` *weakly*: whenever two objects
/// are **defined and equal** on all of `X`, they must not **disagree** on
/// any defined attribute of `Y` (missing information never violates, per
/// the partial-record semantics).
pub fn satisfies_generalized(rel: &GenRelation, fd: &Fd) -> bool {
    let rows = rel.rows();
    let path = |a: &Label| Path::field(*a);
    for (i, a) in rows.iter().enumerate() {
        for b in &rows[i + 1..] {
            let lhs_match = fd.lhs.iter().all(|x| {
                match (get_path(a, &path(x)), get_path(b, &path(x))) {
                    (Some(va), Some(vb)) => va == vb,
                    _ => false, // undefined LHS: rule does not fire
                }
            });
            if lhs_match {
                let rhs_clash = fd.rhs.iter().any(|y| {
                    matches!(
                        (get_path(a, &path(y)), get_path(b, &path(y))),
                        (Some(va), Some(vb)) if va != vb
                    )
                });
                if rhs_clash {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abcd() -> Attrs {
        attrs(["A", "B", "C", "D"])
    }

    #[test]
    fn closure_fixpoint() {
        let fds = FdSet::from_fds([Fd::new(["A"], ["B"]), Fd::new(["B"], ["C"])]);
        assert_eq!(fds.closure(&attrs(["A"])), attrs(["A", "B", "C"]));
        assert_eq!(fds.closure(&attrs(["C"])), attrs(["C"]));
    }

    #[test]
    fn implication_and_equivalence() {
        let f = FdSet::from_fds([Fd::new(["A"], ["B"]), Fd::new(["B"], ["C"])]);
        assert!(f.implies(&Fd::new(["A"], ["C"])), "transitivity");
        assert!(f.implies(&Fd::new(["A", "D"], ["B"])), "augmentation");
        assert!(f.implies(&Fd::new(["A"], ["A"])), "reflexivity");
        assert!(!f.implies(&Fd::new(["C"], ["A"])));
        let g = FdSet::from_fds([Fd::new(["A"], ["B", "C"]), Fd::new(["B"], ["C"])]);
        assert!(f.equivalent(&g));
    }

    #[test]
    fn candidate_keys_all_found() {
        // R(A,B,C,D), A→B, B→A, AC→D: keys are AC and BC... and D must come
        // from AC; check: closure(AC)=ABCD ✓; closure(BC)=BACD ✓.
        let fds = FdSet::from_fds([
            Fd::new(["A"], ["B"]),
            Fd::new(["B"], ["A"]),
            Fd::new(["A", "C"], ["D"]),
        ]);
        let keys = fds.candidate_keys(&abcd());
        assert_eq!(keys.len(), 2);
        assert!(keys.contains(&attrs(["A", "C"])));
        assert!(keys.contains(&attrs(["B", "C"])));
    }

    #[test]
    fn candidate_key_of_key_free_schema_is_everything() {
        let fds = FdSet::new();
        let keys = fds.candidate_keys(&abcd());
        assert_eq!(keys, vec![abcd()]);
    }

    #[test]
    fn minimal_cover_shrinks() {
        let fds = FdSet::from_fds([
            Fd::new(["A"], ["B", "C"]),
            Fd::new(["B"], ["C"]),
            Fd::new(["A"], ["B"]),
            Fd::new(["A", "B"], ["C"]), // redundant + extraneous B
        ]);
        let cover = fds.minimal_cover();
        assert!(cover.equivalent(&fds));
        // A→B, B→C suffice.
        assert_eq!(cover.len(), 2);
        for f in cover.fds() {
            assert_eq!(f.rhs.len(), 1);
        }
    }

    #[test]
    fn projection_composes_transitive_deps() {
        // A→B, B→C projected onto {A, C} yields A→C.
        let fds = FdSet::from_fds([Fd::new(["A"], ["B"]), Fd::new(["B"], ["C"])]);
        let p = fds.project(&attrs(["A", "C"]));
        assert!(p.implies(&Fd::new(["A"], ["C"])));
        assert!(!p.implies(&Fd::new(["C"], ["A"])));
    }

    #[test]
    fn bcnf_detection_and_decomposition() {
        // Classic: R(A,B,C), AB→C, C→B is not BCNF (C not a superkey).
        let all = attrs(["A", "B", "C"]);
        let fds = FdSet::from_fds([Fd::new(["A", "B"], ["C"]), Fd::new(["C"], ["B"])]);
        assert!(!fds.is_bcnf(&all));
        let parts = fds.bcnf_decompose(&all);
        assert!(parts.len() >= 2);
        for p in &parts {
            assert!(fds.project(p).is_bcnf(p), "fragment {p:?} not BCNF");
        }
        assert!(
            fds.lossless_join(&all, &parts),
            "BCNF decomposition must be lossless"
        );
    }

    #[test]
    fn threenf_synthesis_preserves_and_joins_losslessly() {
        let all = attrs(["A", "B", "C", "D"]);
        let fds = FdSet::from_fds([
            Fd::new(["A"], ["B"]),
            Fd::new(["B"], ["C"]),
            Fd::new(["A"], ["D"]),
        ]);
        let parts = fds.synthesize_3nf(&all);
        assert!(fds.lossless_join(&all, &parts));
        // Dependency preservation: the union of projections implies the
        // originals.
        let mut union = FdSet::new();
        for p in &parts {
            for f in fds.project(p).fds() {
                union.add(f.clone());
            }
        }
        for f in fds.fds() {
            assert!(union.implies(f), "lost dependency {f}");
        }
        for p in &parts {
            assert!(fds.project(p).is_3nf(p));
        }
    }

    #[test]
    fn chase_detects_lossy_decomposition() {
        // R(A,B,C) with only B→C: splitting into {A,B} and {A,C} is lossy,
        // {A,B} and {B,C} is lossless.
        let all = attrs(["A", "B", "C"]);
        let fds = FdSet::from_fds([Fd::new(["B"], ["C"])]);
        assert!(!fds.lossless_join(&all, &[attrs(["A", "B"]), attrs(["A", "C"])]));
        assert!(fds.lossless_join(&all, &[attrs(["A", "B"]), attrs(["B", "C"])]));
    }

    #[test]
    fn flat_satisfaction() {
        use dbpl_types::Type;
        use dbpl_values::Value;
        let schema = crate::flat::Schema::new([("A", Type::Int), ("B", Type::Int)]).unwrap();
        let mut r = Relation::new(schema);
        r.insert_row([("A", Value::Int(1)), ("B", Value::Int(1))])
            .unwrap();
        r.insert_row([("A", Value::Int(2)), ("B", Value::Int(1))])
            .unwrap();
        assert!(satisfies_flat(&r, &Fd::new(["A"], ["B"])));
        assert!(satisfies_flat(&r, &Fd::new(["B"], ["B"])));
        assert!(!satisfies_flat(&r, &Fd::new(["B"], ["A"])));
    }

    #[test]
    fn generalized_satisfaction_ignores_missing() {
        use dbpl_values::Value;
        let r = GenRelation::from_values([
            Value::record([("A", Value::Int(1)), ("B", Value::Int(1))]),
            Value::record([("A", Value::Int(1)), ("C", Value::Int(9))]), // B missing
        ]);
        // A→B holds weakly: the second object says nothing about B.
        assert!(satisfies_generalized(&r, &Fd::new(["A"], ["B"])));
        let bad = GenRelation::from_values([
            Value::record([("A", Value::Int(1)), ("B", Value::Int(1))]),
            Value::record([("A", Value::Int(1)), ("B", Value::Int(2))]),
        ]);
        assert!(!satisfies_generalized(&bad, &Fd::new(["A"], ["B"])));
    }
}
