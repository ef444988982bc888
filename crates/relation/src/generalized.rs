//! Generalized (non-first-normal-form) relations.
//!
//! "We shall call a set of objects R a (generalized) relation if whenever
//! o₁, o₂ ∈ R then neither o₁ ⊑ o₂ nor o₂ ⊑ o₁ hold" — a *cochain*
//! (antichain) of partial records under the information ordering.
//!
//! Insertion follows the paper's subsumption rule: "we will not admit an
//! object o into a relation R if there is already an object in R which
//! contains as much information as o, and if it is more informative than
//! objects already in R, we will subsume those objects in R".
//!
//! Relations are ordered by
//!
//! ```text
//! R ⊑ R'  iff  for every object o' in R' there is an object o in R
//!              such that o ⊑ o'
//! ```
//!
//! and the corresponding join is "a generalization of the 'natural join'
//! for 1NF relations": all pairwise object joins that exist, canonicalized
//! (Figure 1 of the paper; reproduced in `fixtures::figure1` and verified
//! exactly by the test suite).

use crate::error::RelationError;
use dbpl_values::{
    get_path, is_antichain, leq, order, reduce_maximal, reduce_minimal, Label, Path, Value,
};
use std::collections::HashMap;
use std::fmt;

/// Which canonical form a reduction keeps. The paper's insertion rule is
/// [`Reduction::Maximal`]; the least-upper-bound characterization of the
/// relation ordering canonicalizes with [`Reduction::Minimal`]. DESIGN.md
/// discusses the choice; the default everywhere is `Maximal`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Reduction {
    /// Keep most-informative elements (subsumption).
    #[default]
    Maximal,
    /// Keep least-informative elements.
    Minimal,
}

/// Which algorithm computes the pairwise object joins behind
/// [`GenRelation::natural_join`]. Both produce byte-for-byte identical
/// relations (differentially tested, including on the Figure 1 fixture);
/// they differ only in how many candidate pairs they examine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinStrategy {
    /// Examine every pair of rows — the Figure 1 semantics transcribed
    /// directly, O(n·m) object joins, reduced by the literal all-pairs
    /// `reduce_maximal`. The naive baseline and the oracle, kept
    /// reachable so tests and benches can compare against it.
    Nested,
    /// Hash-partition both sides by their ground values on the shared
    /// definite paths and join within buckets; rows partial on the
    /// partition key fall back to the nested loop. Pairs in different
    /// buckets are provably joinless (they disagree on a shared base
    /// field), so skipping them cannot change the result. Parallelizes
    /// over scoped threads above a work cutoff. Joined rows keep their
    /// bucket, so a maximal reduction compares only rows that can subsume
    /// each other without deriving the key again. The default.
    #[default]
    Partitioned,
}

impl JoinStrategy {
    /// The snake_case name used in metrics, span attributes, and
    /// `explainJoin`/`explainAnalyzeJoin` output.
    pub fn name(self) -> &'static str {
        match self {
            JoinStrategy::Nested => "nested",
            JoinStrategy::Partitioned => "partitioned",
        }
    }
}

/// A generalized relation: an antichain of (usually record) values.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GenRelation {
    rows: Vec<Value>,
}

impl GenRelation {
    /// The empty relation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a relation from arbitrary values, canonicalizing by
    /// subsumption (maximal reduction).
    pub fn from_values<I: IntoIterator<Item = Value>>(items: I) -> Self {
        GenRelation {
            rows: reduce_maximal_own_key(items.into_iter().collect()),
        }
    }

    /// Build from values, requiring them to *already* form an antichain.
    pub fn from_antichain<I: IntoIterator<Item = Value>>(items: I) -> Result<Self, RelationError> {
        let rows: Vec<Value> = items.into_iter().collect();
        if !is_antichain(&rows) {
            return Err(RelationError::NotAnAntichain);
        }
        Ok(GenRelation { rows })
    }

    /// The rows (always an antichain).
    pub fn rows(&self) -> &[Value] {
        &self.rows
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Insert with subsumption. Returns `true` if the object was admitted
    /// (i.e. it was not already dominated by a member).
    pub fn insert(&mut self, o: Value) -> bool {
        if self.rows.iter().any(|r| leq(&o, r)) {
            return false;
        }
        // Subsume strictly less informative members.
        self.rows.retain(|r| !leq(r, &o));
        self.rows.push(o);
        true
    }

    /// Does the relation contain an object `⊒ o` (i.e. does it *entail*
    /// the information in `o`)?
    pub fn entails(&self, o: &Value) -> bool {
        self.rows.iter().any(|r| leq(o, r))
    }

    /// Membership (exact).
    pub fn contains(&self, o: &Value) -> bool {
        self.rows.contains(o)
    }

    /// The paper's relation ordering: `self ⊑ other` iff every object of
    /// `other` is more informative than some object of `self`.
    pub fn leq(&self, other: &GenRelation) -> bool {
        other
            .rows
            .iter()
            .all(|o2| self.rows.iter().any(|o1| leq(o1, o2)))
    }

    /// Relation equivalence under the preorder (mutual `⊑`).
    pub fn equiv(&self, other: &GenRelation) -> bool {
        self.leq(other) && other.leq(self)
    }

    /// The "slightly different ordering on relations" the paper mentions
    /// (from which "a projection operator can be defined"): the Hoare
    /// lifting — `self ≤ other` iff every object of `self` is dominated
    /// by some object of `other`. [`GenRelation::union`] is the join of
    /// *this* ordering, [`GenRelation::natural_join`] of the other; their
    /// interaction is what \[Bune86\] uses to derive FD theory.
    pub fn leq_hoare(&self, other: &GenRelation) -> bool {
        self.rows
            .iter()
            .all(|o1| other.rows.iter().any(|o2| leq(o1, o2)))
    }

    /// Equivalence under the Hoare preorder.
    pub fn equiv_hoare(&self, other: &GenRelation) -> bool {
        self.leq_hoare(other) && other.leq_hoare(self)
    }

    /// The generalized natural join: all pairwise object joins that exist,
    /// canonicalized by `reduction` (Figure 1). Uses the default
    /// (partitioned) strategy; the result is identical to the nested loop.
    ///
    /// On flat, total records over disjoint-or-agreeing attributes this is
    /// exactly the classical natural join (see `crate::convert` and
    /// experiment E4).
    pub fn natural_join(&self, other: &GenRelation) -> GenRelation {
        self.natural_join_with(other, Reduction::Maximal)
    }

    /// [`GenRelation::natural_join`] with an explicit reduction (ablation
    /// hook for the benchmarks).
    pub fn natural_join_with(&self, other: &GenRelation, reduction: Reduction) -> GenRelation {
        self.natural_join_strategy(other, reduction, JoinStrategy::default())
    }

    /// [`GenRelation::natural_join`] with both knobs explicit. The
    /// partition key (the shared-paths computation) is derived **once per
    /// join**, before any row pair is examined — never per pair.
    pub fn natural_join_strategy(
        &self,
        other: &GenRelation,
        reduction: Reduction,
        strategy: JoinStrategy,
    ) -> GenRelation {
        self.natural_join_workers(other, reduction, strategy, detected_workers())
    }

    /// [`GenRelation::natural_join_strategy`] with an explicit worker
    /// count instead of the detected parallelism — the ablation/testing
    /// hook (a single-core machine can still exercise the parallel
    /// product path).
    pub fn natural_join_workers(
        &self,
        other: &GenRelation,
        reduction: Reduction,
        strategy: JoinStrategy,
        workers: usize,
    ) -> GenRelation {
        let mut root = dbpl_obs::span!("join");
        root.set_attr("strategy", strategy.name());
        root.set_attr("left", self.rows.len());
        root.set_attr("right", other.rows.len());
        let (out, hoisted) = match strategy {
            JoinStrategy::Nested => {
                crate::metrics::strategy_nested().inc();
                (join_pairs_nested(&self.rows, &other.rows), Vec::new())
            }
            JoinStrategy::Partitioned => {
                crate::metrics::strategy_partitioned().inc();
                join_pairs_partitioned(&self.rows, &other.rows, workers)
            }
        };
        let rows = {
            let mut reduce = dbpl_obs::span!("join.reduce");
            reduce.set_attr("rows_in", out.len());
            let rows = match (strategy, reduction) {
                (JoinStrategy::Partitioned, Reduction::Maximal) => {
                    let (rows, stats) = reduce_maximal_grouped(out);
                    reduce.set_attr("buckets", stats.buckets);
                    reduce.set_attr("partial_rows", stats.partial_rows);
                    reduce.set_attr("pairs_compared", stats.pairs_compared);
                    crate::metrics::reduce_pairs_compared().add(stats.pairs_compared as u64);
                    rows
                }
                // Nested, and the minimal form, keep the paper-literal
                // reduction: the oracle the grouped one is tested against.
                (JoinStrategy::Nested, Reduction::Maximal) => reduce_maximal(untagged(out)),
                (_, Reduction::Minimal) => reduce_minimal(untagged(out)),
            };
            reduce.set_attr("rows_out", rows.len());
            rows
        };
        // With the strategy, the hoisted key paths are the plan's shape:
        // the query log's `join:<strategy>[<keys>]` fingerprint.
        root.set_attr("keys", KeyPaths(&hoisted));
        root.set_attr("rows_out", rows.len());
        GenRelation { rows }
    }

    /// Generalized projection: restrict every object to the information at
    /// the given paths (fields absent in an object simply do not appear —
    /// partiality is first-class), then canonicalize by subsumption.
    pub fn project<I>(&self, paths: I) -> GenRelation
    where
        I: IntoIterator<Item = dbpl_values::Path> + Clone,
    {
        let paths: Vec<dbpl_values::Path> = paths.into_iter().collect();
        let mut out = Vec::new();
        for row in &self.rows {
            let mut proj = Value::record::<[(&str, Value); 0], &str>([]);
            for p in &paths {
                if let Some(v) = dbpl_values::get_path(row, p) {
                    // Re-install at the same path, preserving nesting.
                    dbpl_values::put_path(&mut proj, p, v.clone())
                        .expect("projection target is a record");
                }
            }
            out.push(proj);
        }
        GenRelation {
            rows: reduce_maximal_own_key(out),
        }
    }

    /// Select the objects satisfying a predicate. The result of filtering
    /// an antichain is an antichain, so no reduction is needed.
    pub fn select(&self, pred: impl Fn(&Value) -> bool) -> GenRelation {
        GenRelation {
            rows: self.rows.iter().filter(|r| pred(r)).cloned().collect(),
        }
    }

    /// Union with subsumption (the join in the *other* — Hoare — ordering
    /// on relations; also the effect of bulk insertion).
    pub fn union(&self, other: &GenRelation) -> GenRelation {
        GenRelation {
            rows: reduce_maximal_own_key(self.rows.iter().chain(&other.rows).cloned().collect()),
        }
    }

    /// The meet in the paper's ordering: pairwise object meets,
    /// canonicalized. Dual to [`GenRelation::natural_join`].
    pub fn meet(&self, other: &GenRelation) -> GenRelation {
        let mut out = Vec::new();
        for a in &self.rows {
            for b in &other.rows {
                if let Some(m) = order::meet(a, b) {
                    out.push(m);
                }
            }
        }
        GenRelation {
            rows: reduce_maximal_own_key(out),
        }
    }

    /// Iterate over the rows.
    pub fn iter(&self) -> impl Iterator<Item = &Value> {
        self.rows.iter()
    }

    /// The paper's type-as-relation join: "the type `{Name: Str; Age:
    /// Int}` can be seen as a very large relation … moreover it is
    /// meaningful to talk about the join of this relation with a relation
    /// R to extract all the objects in R whose type is a sub-type … This
    /// is precisely the operation of extracting sub-classes."
    ///
    /// Joining with the (infinite, virtual) relation denoted by `ty`
    /// keeps exactly the objects that conform to `ty`; nothing new can be
    /// produced because every tuple of the type-relation is total over
    /// `ty`'s fields and free elsewhere. `heap` resolves any
    /// object-identity references the rows may carry (pass an empty heap
    /// for pure-value relations).
    pub fn restrict_to_type(
        &self,
        ty: &dbpl_types::Type,
        env: &dbpl_types::TypeEnv,
        heap: &dbpl_values::Heap,
    ) -> GenRelation {
        GenRelation {
            rows: self
                .rows
                .iter()
                .filter(|r| {
                    dbpl_values::conforms(r, ty, env, heap, dbpl_values::Mode::Strict).is_ok()
                })
                .cloned()
                .collect(),
        }
    }
}

/// Candidate rows without their group tags.
fn untagged(cands: Vec<(u32, Value)>) -> Vec<Value> {
    cands.into_iter().map(|(_, v)| v).collect()
}

/// Pair-product work threshold below which a join runs on a single
/// thread: spawning scoped workers for tiny joins would cost more than
/// the join itself.
pub const PAR_JOIN_CUTOFF: usize = 1 << 16;

/// At most this many paths participate in a composite partition key;
/// beyond that the extra discrimination rarely pays for key building.
const MAX_KEY_PATHS: usize = 4;

/// Base (flat-ordered) values: joinable only with an equal value
/// (`order::join` falls through to `a == b` for them), which is exactly
/// what makes partitioning on them sound.
fn is_ground(v: &Value) -> bool {
    matches!(
        v,
        Value::Unit
            | Value::Bool(_)
            | Value::Int(_)
            | Value::Float(_)
            | Value::Str(_)
            | Value::Ref(_)
    )
}

/// A path through records as labels: the root path is empty.
type Labels = Vec<Label>;

/// How many rows carry a ground value at each path through records (a
/// bare ground row counts at the root path). Paths are counted as label
/// slices; no [`Path`] is built here.
fn ground_coverage(rows: &[Value]) -> HashMap<Labels, usize> {
    fn walk(v: &Value, prefix: &mut Labels, cov: &mut HashMap<Labels, usize>) {
        match v {
            Value::Record(fields) => {
                for (l, f) in fields.iter() {
                    prefix.push(*l);
                    walk(f, prefix, cov);
                    prefix.pop();
                }
            }
            v if is_ground(v) => match cov.get_mut(prefix.as_slice()) {
                Some(n) => *n += 1,
                None => {
                    cov.insert(prefix.clone(), 1);
                }
            },
            _ => {}
        }
    }
    let mut cov = HashMap::new();
    let mut prefix = Vec::new();
    for r in rows {
        walk(r, &mut prefix, &mut cov);
    }
    cov
}

/// Choose the partition key for joining `a` with `b`: shared definite
/// paths, computed **once per join**. Paths ground in *every* row of both
/// sides form a composite key (full coverage — no fallback products at
/// all); otherwise the single shared path with the best combined coverage
/// is used; with no shared ground path the key is empty and the join
/// degenerates to the full pair product.
fn partition_key(a: &[Value], b: &[Value]) -> Vec<Path> {
    shared_key(&ground_coverage(a), a.len(), &ground_coverage(b), b.len())
}

/// [`partition_key`] over precomputed coverage maps of `na` and `nb` rows.
/// Only the chosen paths become [`Path`]s.
fn shared_key(
    ca: &HashMap<Labels, usize>,
    na: usize,
    cb: &HashMap<Labels, usize>,
    nb: usize,
) -> Vec<Path> {
    let to_path = |p: &[Label]| Path(p.to_vec());
    let mut shared: Vec<(&[Label], usize)> = ca
        .iter()
        .filter_map(|(p, a)| cb.get(p).map(|b| (p.as_slice(), a + b)))
        .collect();
    if shared.is_empty() {
        return Vec::new();
    }
    let mut full: Vec<&[Label]> = shared
        .iter()
        .filter(|(p, _)| ca[*p] == na && cb[*p] == nb)
        .map(|(p, _)| *p)
        .collect();
    if !full.is_empty() {
        full.sort();
        full.truncate(MAX_KEY_PATHS);
        return full.into_iter().map(to_path).collect();
    }
    shared.sort_by(|x, y| y.1.cmp(&x.1).then_with(|| x.0.cmp(y.0)));
    vec![to_path(shared[0].0)]
}

/// The group of a candidate row that is partial on the partition key (or
/// of every row when there is no key).
const PARTIAL: u32 = u32::MAX;

/// A slice product: every row on the left is to be joined with every row
/// on the right, and the joins land in the group named first.
type Product<'p, 'r> = (u32, &'p [&'r Value], &'p [&'r Value]);

/// Split rows into buckets keyed by their ground values on `key` (not
/// empty), plus the fallback rows that are partial (or non-ground)
/// somewhere on it. Each row comes with a tag (the row itself, or its
/// index), and the buckets hold the tags in input order. Every keyed
/// row's key values are written into `arena`, one after another, and the
/// buckets are keyed by slices of it: no row allocates a key of its own.
fn bucket<'a, 'r, T>(
    rows: impl IntoIterator<Item = (T, &'r Value)>,
    key: &[Path],
    arena: &'a mut Vec<&'r Value>,
) -> (HashMap<&'a [&'r Value], Vec<T>>, Vec<T>) {
    let (mut tags, mut partial) = (Vec::new(), Vec::new());
    'rows: for (tag, r) in rows {
        let start = arena.len();
        for p in key {
            match get_path(r, p) {
                Some(v) if is_ground(v) => arena.push(v),
                _ => {
                    arena.truncate(start);
                    partial.push(tag);
                    continue 'rows;
                }
            }
        }
        tags.push(tag);
    }
    let arena: &'a [&'r Value] = arena;
    let mut keyed: HashMap<&[&Value], Vec<T>> = HashMap::with_capacity(tags.len());
    for (tag, k) in tags.into_iter().zip(arena.chunks_exact(key.len())) {
        keyed.entry(k).or_default().push(tag);
    }
    (keyed, partial)
}

/// A join's hoisted key paths as a `join` span attribute: comma
/// separated, `$` for the root path. Formatted only while tracing.
struct KeyPaths<'a>(&'a [dbpl_values::Path]);

impl fmt::Display for KeyPaths<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, p) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            if p.is_root() {
                write!(f, "{sep}$")?;
            } else {
                write!(f, "{sep}{p}")?;
            }
        }
        Ok(())
    }
}

/// What one grouped reduction examined, for the `join.reduce` span.
struct ReduceStats {
    buckets: usize,
    partial_rows: usize,
    pairs_compared: usize,
}

/// [`reduce_maximal`] keyed on the rows' own ground paths: the
/// [`partition_key`] of the rows with themselves.
fn reduce_maximal_own_key(items: Vec<Value>) -> Vec<Value> {
    let cov = ground_coverage(&items);
    let key = shared_key(&cov, items.len(), &cov, items.len());
    reduce_maximal_grouped(group_on(items, &key)).0
}

/// Tag every row with its bucket on `key` (numbered from 0), or with
/// [`PARTIAL`] when it is key-partial; with no key every row is.
fn group_on(items: Vec<Value>, key: &[Path]) -> Vec<(u32, Value)> {
    let mut group = vec![PARTIAL; items.len()];
    if !key.is_empty() {
        let mut arena = Vec::new();
        let (keyed, _) = bucket(items.iter().enumerate(), key, &mut arena);
        for (g, members) in (0..).zip(keyed.into_values()) {
            for i in members {
                group[i] = g;
            }
        }
    }
    group.into_iter().zip(items).collect()
}

/// Sort rows into `Value` order and drop duplicates, comparing byte keys
/// ([`order::sort_key`]) held in one arena. Each row keeps its group.
fn sort_dedup(cands: Vec<(u32, Value)>) -> (Vec<u32>, Vec<Value>) {
    let mut arena = Vec::new();
    let mut bounds = Vec::with_capacity(cands.len() + 1);
    bounds.push(0);
    for (_, v) in &cands {
        order::sort_key(v, &mut arena);
        bounds.push(arena.len());
    }
    let key = |i: usize| &arena[bounds[i]..bounds[i + 1]];
    let mut idx: Vec<usize> = (0..cands.len()).collect();
    idx.sort_unstable_by(|&i, &j| key(i).cmp(key(j)));
    idx.dedup_by(|i, j| key(*i) == key(*j));
    let mut slots: Vec<Option<(u32, Value)>> = cands.into_iter().map(Some).collect();
    idx.into_iter()
        .map(|i| slots[i].take().expect("each row is taken once"))
        .unzip()
}

/// A ground value in `v` at a shortest path (the first in label order
/// among those), with the path: the cheapest one to index rows by.
fn shallowest_ground_leaf(v: &Value) -> Option<(Labels, &Value)> {
    let mut level: Vec<(Labels, &Value)> = vec![(Vec::new(), v)];
    while !level.is_empty() {
        if let Some(found) = level.iter().find(|(_, v)| is_ground(v)) {
            return Some(found.clone());
        }
        level = level
            .into_iter()
            .filter_map(|(path, v)| Some((path, v.as_record()?)))
            .flat_map(|(path, fields)| {
                fields.iter().map(move |(l, f)| {
                    let mut p = path.clone();
                    p.push(*l);
                    (p, f)
                })
            })
            .collect();
    }
    None
}

/// The rows (by index, ascending) grouped by the ground value they hold
/// at `path`.
fn ground_index<'r>(rows: &'r [Value], path: &[Label]) -> HashMap<&'r Value, Vec<usize>> {
    let mut index: HashMap<&Value, Vec<usize>> = HashMap::new();
    'rows: for (j, r) in rows.iter().enumerate() {
        let mut v = r;
        for l in path {
            match v.field(*l) {
                Some(f) => v = f,
                None => continue 'rows,
            }
        }
        if is_ground(v) {
            index.entry(v).or_default().push(j);
        }
    }
    index
}

/// [`reduce_maximal`] over rows tagged with their partition group,
/// comparing only rows that can subsume each other.
///
/// If `x ⊑ y` and `x` holds a base value at some path, `y` holds the same
/// value there. So a row of a keyed group (ground on the key) is `⊑` only
/// rows of its own group, and is compared only with those. A
/// [`PARTIAL`] row is compared with the rows holding the same value at
/// one of its ground leaves (a shallowest one), found in a per-path index
/// built on first use; a row without a ground leaf is compared with every
/// row. This is exact
/// for any grouping by ground key values ([`group_on`]); a finer one is
/// only faster. The rows are sorted and deduplicated first, and the
/// literal rule `leq(x, y) && (!leq(y, x) || j < i)` over sorted indices
/// decides each pair, so the result equals `reduce_maximal`'s element for
/// element, in order, Hoare-equivalent rows included.
fn reduce_maximal_grouped(cands: Vec<(u32, Value)>) -> (Vec<Value>, ReduceStats) {
    let (groups, mut rows) = sort_dedup(cands);
    let mut members: Vec<Vec<usize>> = Vec::new();
    let mut partial = Vec::new();
    for (i, &g) in groups.iter().enumerate() {
        if g == PARTIAL {
            partial.push(i);
        } else {
            let g = g as usize;
            if members.len() <= g {
                members.resize_with(g + 1, Vec::new);
            }
            members[g].push(i);
        }
    }
    let mut pairs_compared = 0;
    let mut keep = vec![true; rows.len()];
    {
        let rows = &rows;
        let mut dominated = |i: usize, rivals: &mut dyn Iterator<Item = usize>| {
            rivals.filter(|&j| j != i).any(|j| {
                pairs_compared += 1;
                leq(&rows[i], &rows[j]) && (!leq(&rows[j], &rows[i]) || j < i)
            })
        };
        for group in &members {
            for &i in group {
                keep[i] = !dominated(i, &mut group.iter().copied());
            }
        }
        let mut indexes: HashMap<Labels, HashMap<&Value, Vec<usize>>> = HashMap::new();
        for &i in &partial {
            keep[i] = !match shallowest_ground_leaf(&rows[i]) {
                Some((path, leaf)) => {
                    let index = indexes
                        .entry(path)
                        .or_insert_with_key(|path| ground_index(rows, path));
                    dominated(i, &mut index[leaf].iter().copied())
                }
                None => dominated(i, &mut (0..rows.len())),
            };
        }
    }
    let stats = ReduceStats {
        buckets: members.iter().filter(|m| !m.is_empty()).count(),
        partial_rows: partial.len(),
        pairs_compared,
    };
    let mut keep = keep.into_iter();
    rows.retain(|_| keep.next().expect("one flag per row"));
    (rows, stats)
}

/// Every pair — the paper's definition, transcribed. Deliberately
/// sequential: this is the baseline the fast path is measured against.
fn join_pairs_nested(a: &[Value], b: &[Value]) -> Vec<(u32, Value)> {
    let mut out = Vec::new();
    join_product(
        &a.iter().collect::<Vec<_>>(),
        &b.iter().collect::<Vec<_>>(),
        |j| out.push((PARTIAL, j)),
    );
    out
}

/// The fast path: bucket both sides on the partition key and join within
/// matching buckets. Two rows in different buckets are both ground at
/// some shared path with unequal base values there, so their object join
/// is `None` (record join recurses field-wise down to the disagreeing
/// flat leaf) — skipping those pairs cannot change the result. Rows
/// partial on the key may join with anything: `partial_a` meets every
/// bucket of `b` and `partial_b`, and every bucket of `a` meets
/// `partial_b`.
///
/// Each joined row is tagged with its group. A join with a row ground on
/// the key holds that row's key values, since ground values join only
/// with equal ones; so the products of bucket `k` with either side's
/// key-partial rows land in group `k`, and only `partial_a × partial_b`
/// yields [`PARTIAL`] rows (with a single key path both are partial on
/// it, and so is their join; a composite key is ground in every row).
///
/// Returns the tagged rows together with the hoisted key paths, which
/// become part of the query's plan fingerprint.
fn join_pairs_partitioned(
    a: &[Value],
    b: &[Value],
    workers: usize,
) -> (Vec<(u32, Value)>, Vec<Path>) {
    let _span = dbpl_obs::span!("join.partition");
    let key = {
        let mut hoist = dbpl_obs::span!("join.path_hoist");
        let key = partition_key(a, b);
        hoist.set_attr("key_paths", key.len());
        key
    };
    if key.is_empty() {
        // No shared ground path: nothing can be pruned, but a large pair
        // product still parallelizes.
        crate::metrics::fallback_rows().add((a.len() + b.len()) as u64);
        let (a, b): (Vec<&Value>, Vec<&Value>) = (a.iter().collect(), b.iter().collect());
        let out = run_products(vec![(PARTIAL, &a, &b)], workers);
        return (out, key);
    }
    let (mut arena_a, mut arena_b) = (Vec::new(), Vec::new());
    let (keyed_a, partial_a, keyed_b, partial_b) = {
        let mut bucket_span = dbpl_obs::span!("join.bucket");
        let (keyed_a, partial_a) = bucket(a.iter().map(|r| (r, r)), &key, &mut arena_a);
        let (keyed_b, partial_b) = bucket(b.iter().map(|r| (r, r)), &key, &mut arena_b);
        bucket_span.set_attr("buckets", keyed_a.len() + keyed_b.len());
        bucket_span.set_attr("fallback_rows", partial_a.len() + partial_b.len());
        (keyed_a, partial_a, keyed_b, partial_b)
    };
    debug_assert!(
        key.len() == 1 || (partial_a.is_empty() && partial_b.is_empty()),
        "a composite key is ground in every row of both sides"
    );
    crate::metrics::partition_buckets().add((keyed_a.len() + keyed_b.len()) as u64);
    crate::metrics::fallback_rows().add((partial_a.len() + partial_b.len()) as u64);
    let products = {
        let mut probe = dbpl_obs::span!("join.probe");
        let mut products: Vec<Product> = Vec::new();
        let mut group = 0;
        for (k, rows_a) in &keyed_a {
            let rows_b = keyed_b.get(k).map_or(&[][..], Vec::as_slice);
            products.push((group, rows_a, rows_b));
            products.push((group, rows_a, &partial_b));
            products.push((group, &partial_a, rows_b));
            group += 1;
        }
        for (k, rows_b) in &keyed_b {
            if !keyed_a.contains_key(k) {
                products.push((group, &partial_a, rows_b));
                group += 1;
            }
        }
        products.push((PARTIAL, &partial_a, &partial_b));
        products.retain(|(_, l, r)| !l.is_empty() && !r.is_empty());
        probe.set_attr("products", products.len());
        products
    };
    (run_products(products, workers), key)
}

/// Every existing object join of a slice product, handed to `emit`.
fn join_product(l: &[&Value], r: &[&Value], mut emit: impl FnMut(Value)) {
    for x in l {
        for y in r {
            if let Some(j) = order::join(x, y) {
                emit(j);
            }
        }
    }
}

/// The worker cap derived from the machine: available parallelism,
/// clamped to 8 (the fan-out stops paying for itself beyond that on this
/// workload).
fn detected_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// Evaluate slice products into group-tagged rows: sequentially under
/// [`PAR_JOIN_CUTOFF`] total work, otherwise over scoped threads with
/// oversized products split (each piece keeps its product's group) and
/// pieces placed longest-first on the least-loaded worker. Output order
/// varies with scheduling, which is harmless — the caller canonicalizes
/// through a reduction that sorts first.
fn run_products(products: Vec<Product>, workers: usize) -> Vec<(u32, Value)> {
    let mut span = dbpl_obs::span!("join.product");
    let work: usize = products.iter().map(|(_, l, r)| l.len() * r.len()).sum();
    span.set_attr("pairs", work);
    let run = |pieces: &[Product]| {
        let mut out = Vec::new();
        for &(g, l, r) in pieces {
            join_product(l, r, |j| out.push((g, j)));
        }
        out
    };
    if work < PAR_JOIN_CUTOFF || workers <= 1 {
        span.set_attr("mode", "serial");
        crate::metrics::products_serial().add(products.len() as u64);
        return run(&products);
    }
    span.set_attr("mode", "parallel");
    crate::metrics::products_parallel().add(products.len() as u64);
    let target = work.div_ceil(workers).max(1);
    let mut pieces: Vec<Product> = Vec::new();
    for (g, l, r) in products {
        let rows_per = (target / r.len().max(1)).max(1);
        pieces.extend(l.chunks(rows_per).map(|chunk| (g, chunk, r)));
    }
    pieces.sort_by_key(|(_, l, r)| std::cmp::Reverse(l.len() * r.len()));
    let mut groups: Vec<(usize, Vec<Product>)> = vec![(0, Vec::new()); workers];
    for piece in pieces {
        let w = piece.1.len() * piece.2.len();
        let g = groups
            .iter_mut()
            .min_by_key(|(load, _)| *load)
            .expect("at least one worker");
        g.0 += w;
        g.1.push(piece);
    }
    // Capture the tracing context before the fan-out so worker spans hang
    // off the enclosing `join` tree instead of starting orphan traces.
    let ctx = dbpl_obs::trace::current();
    std::thread::scope(|s| {
        let handles: Vec<_> = groups
            .into_iter()
            .filter(|(_, g)| !g.is_empty())
            .map(|(_, g)| {
                s.spawn(move || {
                    let _ctx = dbpl_obs::trace::adopt(ctx);
                    let mut sp = dbpl_obs::span!("join.product.worker");
                    sp.set_attr("pieces", g.len());
                    run(&g)
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("join worker panicked"))
            .collect()
    })
}

impl IntoIterator for GenRelation {
    type Item = Value;
    type IntoIter = std::vec::IntoIter<Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.rows.into_iter()
    }
}

impl FromIterator<Value> for GenRelation {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        GenRelation::from_values(iter)
    }
}

impl fmt::Display for GenRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{{")?;
        for r in &self.rows {
            writeln!(f, "  {r}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(pairs: &[(&str, Value)]) -> Value {
        Value::record(pairs.iter().map(|(l, v)| (l.to_string(), v.clone())))
    }

    #[test]
    fn join_counters_record_strategy_buckets_and_fallback() {
        // Other tests in this binary also join concurrently; assert on
        // deltas with >=, never ==.
        let g = dbpl_obs::global();
        let s0 = g.counter("join.strategy.partitioned").get();
        let b0 = g.counter("join.partitioned.buckets").get();
        let f0 = g.counter("join.partitioned.fallback_rows").get();
        let a = GenRelation::from_values([
            rec(&[("K", Value::Int(1)), ("X", Value::Int(10))]),
            rec(&[("K", Value::Int(2)), ("X", Value::Int(20))]),
            rec(&[("X", Value::Int(30))]), // partial on the key: fallback
        ]);
        let b = GenRelation::from_values([
            rec(&[("K", Value::Int(1)), ("Y", Value::Int(100))]),
            rec(&[("K", Value::Int(2)), ("Y", Value::Int(200))]),
        ]);
        let j = a.natural_join_strategy(&b, Reduction::Maximal, JoinStrategy::Partitioned);
        assert!(!j.is_empty());
        assert!(g.counter("join.strategy.partitioned").get() - s0 >= 1);
        assert!(
            g.counter("join.partitioned.buckets").get() - b0 >= 4,
            "two keyed buckets per side"
        );
        assert!(
            g.counter("join.partitioned.fallback_rows").get() - f0 >= 1,
            "the key-partial row is counted as fallback"
        );
    }

    #[test]
    fn join_spans_carry_their_hoisted_key_paths() {
        let a = GenRelation::from_values([
            rec(&[("K", Value::Int(1)), ("X", Value::Int(10))]),
            rec(&[("K", Value::Int(2)), ("X", Value::Int(20))]),
        ]);
        let b = GenRelation::from_values([
            rec(&[("K", Value::Int(1)), ("Y", Value::Int(100))]),
            rec(&[("K", Value::Int(2)), ("Y", Value::Int(200))]),
        ]);
        let join = |strategy| {
            let ((), spans) = dbpl_obs::trace::capture("test", || {
                a.natural_join_strategy(&b, Reduction::Maximal, strategy);
            });
            let root = spans.into_iter().find(|s| s.name == "join").unwrap();
            let attr = |k| root.attrs.iter().find(|(n, _)| *n == k).unwrap().1.clone();
            (attr("strategy"), attr("keys"), attr("rows_out"))
        };
        assert_eq!(
            join(JoinStrategy::Partitioned),
            ("partitioned".into(), "K".into(), "2".into())
        );
        assert_eq!(
            join(JoinStrategy::Nested),
            ("nested".into(), String::new(), "2".into())
        );
    }

    #[test]
    fn insert_subsumes() {
        let mut r = GenRelation::new();
        let less = rec(&[("Name", Value::str("J Doe"))]);
        let more = rec(&[("Name", Value::str("J Doe")), ("Dept", Value::str("Sales"))]);
        assert!(r.insert(less.clone()));
        assert!(r.insert(more.clone()), "more informative object admitted");
        assert_eq!(r.len(), 1, "less informative object subsumed");
        assert!(r.contains(&more));
        assert!(!r.insert(less.clone()), "dominated object refused");
        assert!(r.entails(&less));
    }

    #[test]
    fn incomparable_objects_coexist() {
        let mut r = GenRelation::new();
        // The paper: two comparable objects may not coexist, but
        // incomparable ones (e.g. two N Bug variants) may.
        let a = rec(&[("Name", Value::str("N Bug")), ("Dept", Value::str("Manuf"))]);
        let b = rec(&[("Name", Value::str("N Bug")), ("Dept", Value::str("Admin"))]);
        assert!(r.insert(a));
        assert!(r.insert(b));
        assert_eq!(r.len(), 2);
        assert!(is_antichain(r.rows()));
    }

    #[test]
    fn relation_ordering_matches_paper_definition() {
        let r_less = GenRelation::from_values([rec(&[("Name", Value::str("J Doe"))])]);
        let r_more = GenRelation::from_values([
            rec(&[("Name", Value::str("J Doe")), ("Dept", Value::str("Sales"))]),
            rec(&[("Name", Value::str("J Doe")), ("Dept", Value::str("Manuf"))]),
        ]);
        // Every object of r_more refines the single object of r_less.
        assert!(r_less.leq(&r_more));
        assert!(!r_more.leq(&r_less));
        // In this ordering the empty relation is vacuously above
        // everything (no object of R' needs a witness), and below only
        // itself.
        assert!(r_less.leq(&GenRelation::new()));
        assert!(!GenRelation::new().leq(&r_less));
    }

    #[test]
    fn join_is_upper_bound_in_relation_order() {
        let r1 =
            GenRelation::from_values([rec(&[("A", Value::Int(1))]), rec(&[("A", Value::Int(2))])]);
        let r2 = GenRelation::from_values([rec(&[("B", Value::Int(9))])]);
        let j = r1.natural_join(&r2);
        assert!(r1.leq(&j));
        assert!(r2.leq(&j));
        assert_eq!(j.len(), 2);
    }

    #[test]
    fn join_drops_inconsistent_pairs() {
        let r1 = GenRelation::from_values([rec(&[("A", Value::Int(1)), ("B", Value::Int(1))])]);
        let r2 = GenRelation::from_values([rec(&[("A", Value::Int(2)), ("C", Value::Int(3))])]);
        assert!(r1.natural_join(&r2).is_empty(), "clash on A");
    }

    #[test]
    fn projection_keeps_partiality() {
        let r = GenRelation::from_values([
            rec(&[("Name", Value::str("a")), ("Dept", Value::str("S"))]),
            rec(&[("Name", Value::str("b"))]),
        ]);
        let p = r.project([dbpl_values::Path::parse("Dept")]);
        // 'a' projects to {Dept='S'}; 'b' projects to {} which is subsumed.
        assert_eq!(p.len(), 1);
        assert!(p.contains(&rec(&[("Dept", Value::str("S"))])));
    }

    #[test]
    fn projection_of_nested_paths() {
        let r = GenRelation::from_values([rec(&[
            ("Name", Value::str("a")),
            (
                "Addr",
                rec(&[("City", Value::str("Moose")), ("State", Value::str("WY"))]),
            ),
        ])]);
        let p = r.project([dbpl_values::Path::parse("Addr.State")]);
        assert!(p.contains(&rec(&[("Addr", rec(&[("State", Value::str("WY"))]))])));
    }

    #[test]
    fn union_subsumes_across_sides() {
        let less = GenRelation::from_values([rec(&[("A", Value::Int(1))])]);
        let more = GenRelation::from_values([rec(&[("A", Value::Int(1)), ("B", Value::Int(2))])]);
        let u = less.union(&more);
        assert_eq!(u.len(), 1);
    }

    #[test]
    fn meet_extracts_common_information() {
        let r1 = GenRelation::from_values([rec(&[("A", Value::Int(1)), ("B", Value::Int(2))])]);
        let r2 = GenRelation::from_values([rec(&[("A", Value::Int(1)), ("C", Value::Int(3))])]);
        let m = r1.meet(&r2);
        assert!(m.contains(&rec(&[("A", Value::Int(1))])));
        // Meet is a lower bound in the relation order.
        assert!(m.leq(&r1));
        assert!(m.leq(&r2));
    }

    #[test]
    fn from_antichain_validates() {
        let a = rec(&[("A", Value::Int(1))]);
        let b = rec(&[("A", Value::Int(1)), ("B", Value::Int(2))]);
        assert!(GenRelation::from_antichain([a.clone(), b.clone()]).is_err());
        assert!(GenRelation::from_antichain([b]).is_ok());
    }

    #[test]
    fn select_filters() {
        let r =
            GenRelation::from_values([rec(&[("A", Value::Int(1))]), rec(&[("A", Value::Int(2))])]);
        let s = r.select(|v| v.field("A") == Some(&Value::Int(1)));
        assert_eq!(s.len(), 1);
    }

    fn strategies_agree(r1: &GenRelation, r2: &GenRelation) {
        for reduction in [Reduction::Maximal, Reduction::Minimal] {
            let nested = r1.natural_join_strategy(r2, reduction, JoinStrategy::Nested);
            let partitioned = r1.natural_join_strategy(r2, reduction, JoinStrategy::Partitioned);
            assert_eq!(nested, partitioned, "strategies diverged ({reduction:?})");
        }
    }

    #[test]
    fn partitioned_join_matches_nested_on_figure1() {
        let r1 = crate::fixtures::figure1_r1();
        let r2 = crate::fixtures::figure1_r2();
        strategies_agree(&r1, &r2);
        // And both still produce the paper's exact Figure 1 output.
        assert_eq!(r1.natural_join(&r2), crate::fixtures::figure1_expected());
    }

    #[test]
    fn partitioned_join_handles_rows_partial_on_the_key() {
        // `Name` is the best shared path but not full-coverage: the
        // keyless rows must still meet everything on the other side.
        let r1 = GenRelation::from_values([
            rec(&[("Name", Value::str("a")), ("Dept", Value::str("S"))]),
            rec(&[("Name", Value::str("b")), ("Dept", Value::str("M"))]),
            rec(&[("Office", Value::Int(7))]),
        ]);
        let r2 = GenRelation::from_values([
            rec(&[("Name", Value::str("a")), ("Phone", Value::Int(1))]),
            rec(&[("Name", Value::str("c")), ("Phone", Value::Int(2))]),
            rec(&[("Status", Value::str("ok"))]),
        ]);
        strategies_agree(&r1, &r2);
    }

    #[test]
    fn partitioned_join_partitions_on_nested_paths() {
        let r1 = GenRelation::from_values([
            rec(&[
                ("Addr", rec(&[("City", Value::str("Austin"))])),
                ("A", Value::Int(1)),
            ]),
            rec(&[
                ("Addr", rec(&[("City", Value::str("Moose"))])),
                ("A", Value::Int(2)),
            ]),
        ]);
        let r2 = GenRelation::from_values([
            rec(&[
                ("Addr", rec(&[("City", Value::str("Austin"))])),
                ("B", Value::Int(3)),
            ]),
            rec(&[
                ("Addr", rec(&[("City", Value::str("Glen"))])),
                ("B", Value::Int(4)),
            ]),
        ]);
        strategies_agree(&r1, &r2);
        let j = r1.natural_join(&r2);
        assert_eq!(j.len(), 1, "only the Austin rows merge");
    }

    #[test]
    fn partitioned_join_with_no_shared_ground_path() {
        // Disjoint attributes: the key is empty, every pair joins.
        let r1 =
            GenRelation::from_values([rec(&[("A", Value::Int(1))]), rec(&[("A", Value::Int(2))])]);
        let r2 =
            GenRelation::from_values([rec(&[("B", Value::Int(8))]), rec(&[("B", Value::Int(9))])]);
        strategies_agree(&r1, &r2);
        assert_eq!(r1.natural_join(&r2).len(), 4);
    }

    #[test]
    fn parallel_sized_join_matches_nested() {
        // 300 × 300 pairs, past PAR_JOIN_CUTOFF, of which only the 100
        // with equal `Name`s join: the product fans out over two workers,
        // and the literal reductions behind the Nested oracle stay small.
        let side = |label: &str, step: i64| {
            GenRelation::from_values(
                (0..300).map(|i| rec(&[("Name", Value::Int(i * step)), (label, Value::Int(i))])),
            )
        };
        let (r1, r2) = (side("L", 1), side("R", 3));
        let (a, b): (Vec<&Value>, Vec<&Value>) = (r1.iter().collect(), r2.iter().collect());
        assert!(a.len() * b.len() >= PAR_JOIN_CUTOFF);
        let mut serial = untagged(run_products(vec![(0, &a, &b)], 1));
        let fanned_out = crate::metrics::products_parallel().get();
        let mut parallel = untagged(run_products(vec![(0, &a, &b)], 2));
        assert!(
            crate::metrics::products_parallel().get() > fanned_out,
            "two workers never fanned the product out"
        );
        serial.sort();
        parallel.sort();
        assert_eq!(serial.len(), 100);
        assert_eq!(parallel, serial);
        strategies_agree(&r1, &r2);
    }
}

#[cfg(test)]
mod reduce_tests {
    use super::*;
    use proptest::prelude::*;

    fn rec(pairs: &[(&str, Value)]) -> Value {
        Value::record(pairs.iter().map(|(l, v)| (l.to_string(), v.clone())))
    }

    /// Partial records over `a` and `b` with two-value domains, so that
    /// duplicates and subsumption are common.
    fn arb_flat() -> impl Strategy<Value = Value> {
        prop::collection::btree_map("[ab]", 0i64..2, 0..3)
            .prop_map(|m| Value::record(m.into_iter().map(|(k, v)| (k, Value::Int(v)))))
    }

    /// A flat partial record, plus an optional nested record `n` and an
    /// optional set `s` of flat records. Sets such as `{{a=1}}` and
    /// `{{a=1}, {}}` are Hoare-equivalent but unequal, so the `j < i`
    /// tie-break decides which of two such rows survives.
    fn arb_row() -> impl Strategy<Value = Value> {
        (
            arb_flat(),
            prop::option::of(arb_flat()),
            prop::option::of(prop::collection::btree_set(arb_flat(), 0..3)),
        )
            .prop_map(|(mut row, n, s)| {
                let fields = row.as_record_mut().expect("arb_flat builds records");
                if let Some(n) = n {
                    fields.insert("n".into(), n);
                }
                if let Some(s) = s {
                    fields.insert("s".into(), Value::Set(s));
                }
                row
            })
    }

    /// Key paths that are ground, nested, non-ground (`n` is a record,
    /// `s` a set) or absent from every row (`z`, `n.z`).
    fn arb_key() -> impl Strategy<Value = Vec<Path>> {
        let path = prop::sample::select(vec!["a", "b", "n", "n.a", "n.b", "s", "z", "n.z"]);
        prop::collection::vec(path, 0..4).prop_map(|ps| ps.into_iter().map(Path::parse).collect())
    }

    /// The grouped reduction over `rows` bucketed on `key`.
    fn keyed(rows: Vec<Value>, key: &[Path]) -> (Vec<Value>, ReduceStats) {
        reduce_maximal_grouped(group_on(rows, key))
    }

    /// The grouped reduction is the literal one for `key`: the same rows,
    /// in the same order.
    fn keyed_reduction_is_literal(rows: Vec<Value>, key: &[Path]) -> TestCaseResult {
        let literal = reduce_maximal(rows.clone());
        prop_assert_eq!(keyed(rows.clone(), key).0, literal.clone());
        prop_assert_eq!(reduce_maximal_own_key(rows), literal);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn keyed_reduction_equals_reduce_maximal(
            rows in prop::collection::vec(arb_row(), 0..14),
            key in arb_key()
        ) {
            keyed_reduction_is_literal(rows, &key)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16 * 512))]

        #[test]
        #[ignore = "16x the tier-1 cases; nightly runs with --ignored"]
        fn keyed_reduction_equals_reduce_maximal_nightly(
            rows in prop::collection::vec(arb_row(), 0..14),
            key in arb_key()
        ) {
            keyed_reduction_is_literal(rows, &key)?;
        }
    }

    #[test]
    fn hoare_equivalent_rows_keep_the_first_in_sorted_order() {
        let one = rec(&[("a", Value::Int(1))]);
        let small = rec(&[("k", Value::Int(0)), ("s", Value::set([one.clone()]))]);
        let large = rec(&[("k", Value::Int(0)), ("s", Value::set([one, rec(&[])]))]);
        assert!(leq(&small, &large) && leq(&large, &small) && small != large);
        let rows = vec![large.clone(), small.clone()];
        let literal = reduce_maximal(rows.clone());
        assert_eq!(literal.len(), 1);
        for key in [vec![], vec![Path::parse("k")], vec![Path::parse("s")]] {
            assert_eq!(keyed(rows.clone(), &key).0, literal, "key {key:?}");
        }
    }

    #[test]
    fn keyed_rows_meet_their_bucket_and_partial_rows_their_possible_dominators() {
        // Two buckets of two rows on `K`, one row without `K`: each keyed
        // row meets only its bucket-mate (4 pairs); the partial row meets
        // only the rows holding its ground leaf `B = 7`, none but itself
        // (0 pairs).
        let mut rows = vec![
            rec(&[("K", Value::Int(1)), ("A", Value::Int(1))]),
            rec(&[("K", Value::Int(1)), ("A", Value::Int(2))]),
            rec(&[("K", Value::Int(2)), ("A", Value::Int(1))]),
            rec(&[("K", Value::Int(2)), ("A", Value::Int(2))]),
            rec(&[("B", Value::Int(7))]),
        ];
        let key = [Path::parse("K")];
        let (kept, stats) = keyed(rows.clone(), &key);
        assert_eq!(kept, reduce_maximal(rows.clone()));
        assert_eq!((stats.buckets, stats.partial_rows), (2, 1));
        assert_eq!(stats.pairs_compared, 4, "4 keyed pairs, 0 partial");
        // A partial row with no ground leaf meets all six other rows, and
        // `{A = 1}` stops at the first row holding `A = 1`, which
        // dominates it.
        rows.push(rec(&[("s", Value::set([]))]));
        rows.push(rec(&[("A", Value::Int(1))]));
        let (kept, stats) = keyed(rows.clone(), &key);
        assert_eq!(kept, reduce_maximal(rows));
        assert_eq!((stats.buckets, stats.partial_rows), (2, 3));
        assert_eq!(stats.pairs_compared, 4 + 6 + 1);
    }
}

#[cfg(test)]
mod type_relation_tests {
    use super::*;
    use dbpl_types::{parse_type, TypeEnv};
    use dbpl_values::Heap;

    fn rec(pairs: &[(&str, Value)]) -> Value {
        Value::record(pairs.iter().map(|(l, v)| (l.to_string(), v.clone())))
    }

    fn people() -> GenRelation {
        GenRelation::from_values([
            rec(&[("Name", Value::str("p"))]),
            rec(&[("Name", Value::str("e")), ("Empno", Value::Int(1))]),
            rec(&[("Name", Value::str("s")), ("Gpa", Value::float(3.5))]),
            rec(&[("Age", Value::Int(4))]), // not even a Person
        ])
    }

    #[test]
    fn type_as_relation_extracts_subclasses() {
        let env = TypeEnv::new();
        let heap = Heap::new();
        let person = parse_type("{Name: Str}").unwrap();
        let employee = parse_type("{Name: Str, Empno: Int}").unwrap();
        let r = people();
        assert_eq!(r.restrict_to_type(&person, &env, &heap).len(), 3);
        assert_eq!(r.restrict_to_type(&employee, &env, &heap).len(), 1);
        // The extraction respects the hierarchy: Employee ⊆ Person.
        let emps = r.restrict_to_type(&employee, &env, &heap);
        let pers = r.restrict_to_type(&person, &env, &heap);
        for e in emps.rows() {
            assert!(pers.contains(e));
        }
    }

    #[test]
    fn restriction_agrees_with_the_generic_get() {
        // The same extraction through the type-checker path: each kept row
        // conforms; each dropped row does not.
        let env = TypeEnv::new();
        let heap = Heap::new();
        let person = parse_type("{Name: Str}").unwrap();
        let r = people();
        let kept = r.restrict_to_type(&person, &env, &heap);
        for row in r.rows() {
            let conforms =
                dbpl_values::conforms(row, &person, &env, &heap, dbpl_values::Mode::Strict).is_ok();
            assert_eq!(kept.contains(row), conforms, "row {row}");
        }
    }

    #[test]
    fn restriction_is_a_lower_set_operation() {
        // Restriction then join == join then restriction when the type
        // only mentions attributes preserved by the join.
        let env = TypeEnv::new();
        let heap = Heap::new();
        let person = parse_type("{Name: Str}").unwrap();
        let r = people();
        let extra = GenRelation::from_values([rec(&[("Dept", Value::str("S"))])]);
        let a = r
            .restrict_to_type(&person, &env, &heap)
            .natural_join(&extra);
        let b = r
            .natural_join(&extra)
            .restrict_to_type(&person, &env, &heap);
        assert!(a.equiv(&b));
    }
}
