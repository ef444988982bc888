//! The generic extraction function `Get` and its result packages.
//!
//! The paper's central technical move: instead of per-type functions
//!
//! ```text
//! function getPersons(d: Database): PersonList;
//! function getEmployees(d: Database): EmployeeList;
//! ```
//!
//! a *single* generic function
//!
//! ```text
//! Get : ∀t. Database → List[∃t' ≤ t]
//! ```
//!
//! whose result elements are *existential packages*: "there exists a
//! subtype t of Employee such that o has type t … we don't know what the
//! type or representation of o is, all we know is that we can perform on o
//! any operation associated with the type Employee."
//!
//! [`ExistsPkg`] realizes exactly that: the package carries its witness
//! type and its value, but the value is only *usable* through the bound —
//! [`ExistsPkg::open_at`] type-checks the opening. The static type of the
//! whole operation ([`get_signature`]) is expressible in `dbpl-types`, so
//! "the use of this function can be type-checked statically, even though a
//! certain amount of dynamic type-checking may be needed in the
//! implementation" — the dynamic part being the subtype test per scanned
//! element.

use crate::error::CoreError;
use crate::extent::TypedListIndex;
use crate::store::{Chunk, Store};
use dbpl_types::{is_subtype, is_subtype_uncached, Type, TypeEnv};
use dbpl_values::{conforms, DynValue, Heap, Mode, Value};
use std::cmp::Reverse;
use std::collections::BTreeSet;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::Arc;

/// An existential package `∃t' ≤ bound. t'`.
///
/// The package holds its row — the hidden witness type and the value —
/// as a shared pointer to a chunk of rows plus an offset. A package
/// sealed from the typed-list index points into the store itself, so
/// `Get` copies pointers, not rows: querying an extent is not
/// replication, and copy semantics stay with `extern`/`intern`. Packages
/// built by [`ExistsPkg::seal`], [`scan_get`] and [`ExistsPkg::widen`] own a
/// private one-row chunk. Either way a package compares and prints as
/// its `(bound, witness, value)`. The bound is shared too: every
/// package of one `Get` points at one copy of it, so sealing a row costs
/// two refcount bumps.
#[derive(Clone)]
pub struct ExistsPkg {
    bound: Arc<Type>,
    row: StoredRow,
}

/// One stored row, shared: the store chunk it sits in and its offset.
///
/// What [`GetView::rows`] yields to a consumer that was type-checked at
/// the bound already (MiniDBPL's evaluator): the row without its package,
/// so reading one costs one refcount bump instead of two.
#[derive(Clone)]
pub struct StoredRow {
    chunk: Chunk,
    at: usize,
}

impl StoredRow {
    /// The row's carried type.
    pub fn witness(&self) -> &Type {
        &self.chunk[self.at].ty
    }

    /// The row's value.
    pub fn value(&self) -> &Value {
        &self.chunk[self.at].value
    }
}

impl ExistsPkg {
    /// Package a value with its witness type under a bound. Fails unless
    /// `witness ≤ bound` — packages cannot lie.
    pub fn seal(
        witness: Type,
        value: Value,
        bound: Type,
        env: &TypeEnv,
    ) -> Result<ExistsPkg, CoreError> {
        if !is_subtype(&witness, &bound, env) {
            return Err(CoreError::Invalid(format!(
                "cannot seal: witness {witness} is not a subtype of bound {bound}"
            )));
        }
        Ok(ExistsPkg::owned(
            DynValue::new(witness, value),
            Arc::new(bound),
        ))
    }

    fn owned(row: DynValue, bound: Arc<Type>) -> ExistsPkg {
        let row = StoredRow {
            chunk: Arc::new(vec![row]),
            at: 0,
        };
        ExistsPkg { bound, row }
    }

    /// The package's *bound*: the type the caller asked for.
    pub fn bound(&self) -> &Type {
        &self.bound
    }

    fn row(&self) -> &DynValue {
        &self.row.chunk[self.row.at]
    }

    /// The hidden witness type (inspection is allowed — Amber's `typeOf` —
    /// but values can only be *used* through a checked opening).
    pub fn witness(&self) -> &Type {
        &self.row().ty
    }

    /// Open the package at a requested type: succeeds iff the package's
    /// bound is a subtype of the request, so everything the requested
    /// interface offers is supported. This is the "use at bound" rule.
    pub fn open_at(&self, request: &Type, env: &TypeEnv) -> Result<&Value, CoreError> {
        if is_subtype(self.bound(), request, env) {
            Ok(self.open())
        } else {
            Err(CoreError::Invalid(format!(
                "package bound {} does not support interface {request}",
                self.bound
            )))
        }
    }

    /// Open at the package's own bound (always succeeds).
    pub fn open(&self) -> &Value {
        &self.row().value
    }

    /// Re-seal at a *wider* bound (existential subsumption:
    /// `∃t ≤ Employee. t` can be used where `∃t ≤ Person. t` is wanted if
    /// `Employee ≤ Person`).
    pub fn widen(&self, bound: Type, env: &TypeEnv) -> Result<ExistsPkg, CoreError> {
        if !is_subtype(self.bound(), &bound, env) {
            return Err(CoreError::Invalid(format!(
                "cannot widen {} to unrelated bound {bound}",
                self.bound
            )));
        }
        Ok(ExistsPkg::owned(self.row().clone(), Arc::new(bound)))
    }

    /// Dissolve into a dynamic value carrying the witness type.
    pub fn into_dynamic(self) -> DynValue {
        match Arc::try_unwrap(self.row.chunk) {
            Ok(mut rows) => rows.swap_remove(self.row.at),
            Err(chunk) => chunk[self.row.at].clone(),
        }
    }

    /// Package a stored row whose `witness ≤ bound` has *already* been
    /// established (by the typed-list index, whose membership is exactly
    /// that judgement). Crate-private: a public caller could seal a lie,
    /// breaking the static discipline [`ExistsPkg::seal`] enforces.
    fn seal_trusted(row: StoredRow, bound: &Arc<Type>) -> ExistsPkg {
        ExistsPkg {
            bound: Arc::clone(bound),
            row,
        }
    }
}

impl PartialEq for ExistsPkg {
    fn eq(&self, other: &ExistsPkg) -> bool {
        self.bound == other.bound && self.row() == other.row()
    }
}

impl fmt::Debug for StoredRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StoredRow")
            .field("witness", self.witness())
            .field("value", self.value())
            .finish()
    }
}

impl fmt::Debug for ExistsPkg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExistsPkg")
            .field("bound", &self.bound)
            .field("witness", self.witness())
            .field("value", self.open())
            .finish()
    }
}

/// The static type of `Get` itself: `∀t. Database → List[∃t' ≤ t]`.
///
/// Writable — and hence statically checkable — in this type system, which
/// is the paper's point: no distinguished class construct is needed.
pub fn get_signature() -> Type {
    Type::forall(
        "t",
        None,
        Type::fun(
            Type::named("Database"),
            Type::list(Type::exists("u", Some(Type::var("t")), Type::var("u"))),
        ),
    )
}

/// `Get[t]` as a view: the snapshot's typed lists whose carried type is
/// a subtype of the bound, not yet sealed into packages.
///
/// This is the paper's "set of (statically) typed lists" read in place.
/// Building the view ([`crate::Database::get_view`]) picks the matching
/// lists and counts their healthy members; nothing is copied. [`GetView::len`]
/// answers from those counts, and [`GetView::iter`] merges the position
/// lists, sealing one package per row as the consumer asks for it, in
/// store order. The view holds its snapshot (the store's chunk list, the
/// index, the quarantine set), so later writes to the database do not
/// change what it yields.
pub struct GetView {
    store: Store,
    index: Arc<TypedListIndex>,
    types: Vec<Type>,
    quarantined: Arc<BTreeSet<usize>>,
    bound: Arc<Type>,
    len: usize,
}

impl GetView {
    pub(crate) fn new(
        store: Store,
        index: Arc<TypedListIndex>,
        types: Vec<Type>,
        quarantined: Arc<BTreeSet<usize>>,
        bound: Type,
    ) -> GetView {
        let lists = || types.iter().map(|ty| index.positions(ty));
        let candidates: usize = lists().map(<[usize]>::len).sum();
        let excluded = quarantined
            .iter()
            .filter(|pos| lists().any(|l| l.binary_search(pos).is_ok()))
            .count();
        GetView {
            len: candidates - excluded,
            store,
            index,
            types,
            quarantined,
            bound: Arc::new(bound),
        }
    }

    /// How many packages [`GetView::iter`] yields.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Does the view match no rows?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The matching rows, in store order, each sealed as a package that
    /// shares the stored row when it is reached.
    pub fn iter(&self) -> impl Iterator<Item = ExistsPkg> + '_ {
        self.rows()
            .map(|row| ExistsPkg::seal_trusted(row, &self.bound))
    }

    /// The matching rows, in store order, unpackaged: for a consumer
    /// type-checked at the bound already.
    pub fn rows(&self) -> GetIter<'_> {
        // List 0 is an empty run, so the first `next` starts the real
        // list with the smallest head.
        let mut lists: Vec<&[usize]> = vec![&[]];
        let mut heads = BinaryHeap::with_capacity(self.types.len());
        for ty in &self.types {
            let list = self.index.positions(ty);
            if let Some(&first) = list.first() {
                heads.push(Reverse((first, lists.len())));
                lists.push(list);
            }
        }
        GetIter {
            view: self,
            lists,
            run: 0,
            heads,
            sealed: 0,
        }
    }
}

impl fmt::Debug for GetView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GetView")
            .field("bound", &self.bound)
            .field("types", &self.types)
            .field("len", &self.len)
            .finish()
    }
}

/// The iterator behind [`GetView::rows`]: a k-way merge of the matching
/// position lists (each ascending), skipping quarantined positions. It
/// takes rows from one list (the run) for as long as they precede every
/// other list's head, and consults the heap of heads only when the run
/// ends, so a single list, or a list whose rows sit together, is walked
/// without heap operations. The rows it yielded are added to
/// `get.rows_sealed` when it drops.
pub struct GetIter<'a> {
    view: &'a GetView,
    /// Each list's positions not yet yielded.
    lists: Vec<&'a [usize]>,
    /// The list the current run takes rows from.
    run: usize,
    /// Every other non-empty list's first position and index: a min-heap,
    /// so its top is where the current run ends.
    heads: BinaryHeap<Reverse<(usize, usize)>>,
    sealed: u64,
}

impl GetIter<'_> {
    /// The next matching position in store order, quarantined or not.
    fn next_position(&mut self) -> Option<usize> {
        let run = self.lists[self.run];
        if let Some((&pos, rest)) = run.split_first() {
            if self
                .heads
                .peek()
                .is_none_or(|&Reverse((head, _))| pos < head)
            {
                self.lists[self.run] = rest;
                return Some(pos);
            }
            self.heads.push(Reverse((pos, self.run)));
        }
        let Reverse((pos, next)) = self.heads.pop()?;
        self.run = next;
        self.lists[next] = &self.lists[next][1..];
        Some(pos)
    }
}

impl Iterator for GetIter<'_> {
    type Item = StoredRow;

    fn next(&mut self) -> Option<StoredRow> {
        loop {
            let pos = self.next_position()?;
            if self.view.quarantined.contains(&pos) {
                continue;
            }
            self.sealed += 1;
            let (chunk, at) = self.view.store.locate(pos);
            let chunk = Arc::clone(chunk);
            return Some(StoredRow { chunk, at });
        }
    }
}

impl Drop for GetIter<'_> {
    fn drop(&mut self) {
        crate::metrics::rows_sealed().add(self.sealed);
    }
}

/// Scan a list of dynamic values, extracting every element whose carried
/// type is a subtype of `bound` — the body of `Get[t]`. This is the
/// paper's straightforward implementation, with its acknowledged cost: "we
/// have to traverse the whole database … we also have the overhead of
/// having to check the structure of each value we encounter" (experiment
/// E1 measures exactly this against maintained extents and typed lists).
///
/// The structural check here is deliberately **uncached**: this function
/// is the oracle [`crate::Database::get`]'s typed lists are
/// differentially tested and benchmarked against.
pub fn scan_get(dynamics: &[DynValue], bound: &Type, env: &TypeEnv) -> Vec<ExistsPkg> {
    crate::metrics::rows_scanned().add(dynamics.len() as u64);
    let shared = Arc::new(bound.clone());
    dynamics
        .iter()
        .filter(|d| is_subtype_uncached(&d.ty, bound, env))
        .map(|d| ExistsPkg::owned(d.clone(), Arc::clone(&shared)))
        .collect()
}

/// Re-check every stored dynamic against its own carried type, returning
/// `(position, cause)` for each element that no longer conforms —
/// dangling references, structurally impossible values, damage smuggled
/// in through a persistence boundary. The caller quarantines the
/// positions instead of letting one rotten element fail every `Get` that
/// reaches it.
pub fn conformance_sweep(
    dynamics: &[DynValue],
    env: &TypeEnv,
    heap: &Heap,
) -> Vec<(usize, String)> {
    dynamics
        .iter()
        .enumerate()
        .filter_map(|(pos, d)| {
            conforms(&d.value, &d.ty, env, heap, Mode::Strict)
                .err()
                .map(|e| (pos, e.to_string()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbpl_types::parse_type;

    fn env() -> TypeEnv {
        let mut e = TypeEnv::new();
        e.declare("Person", parse_type("{Name: Str}").unwrap())
            .unwrap();
        e.declare("Employee", parse_type("{Name: Str, Empno: Int}").unwrap())
            .unwrap();
        e.declare("Student", parse_type("{Name: Str, Gpa: Float}").unwrap())
            .unwrap();
        e
    }

    fn sample() -> Vec<DynValue> {
        vec![
            DynValue::new(
                Type::named("Person"),
                Value::record([("Name", Value::str("p"))]),
            ),
            DynValue::new(
                Type::named("Employee"),
                Value::record([("Name", Value::str("e")), ("Empno", Value::Int(1))]),
            ),
            DynValue::new(
                Type::named("Student"),
                Value::record([("Name", Value::str("s")), ("Gpa", Value::float(3.9))]),
            ),
            DynValue::new(Type::Int, Value::Int(42)),
        ]
    }

    #[test]
    fn get_persons_returns_larger_list_than_get_employees() {
        // "getPersons will always return a larger list than getEmployees"
        let env = env();
        let persons = scan_get(&sample(), &Type::named("Person"), &env);
        let employees = scan_get(&sample(), &Type::named("Employee"), &env);
        assert_eq!(persons.len(), 3);
        assert_eq!(employees.len(), 1);
        assert!(persons.len() > employees.len());
    }

    #[test]
    fn packages_remember_their_witness() {
        let env = env();
        let persons = scan_get(&sample(), &Type::named("Person"), &env);
        let witnesses: Vec<String> = persons.iter().map(|p| p.witness().to_string()).collect();
        assert!(witnesses.contains(&"Employee".to_string()));
        assert!(witnesses.contains(&"Student".to_string()));
    }

    #[test]
    fn open_at_enforces_the_bound() {
        let env = env();
        let employees = scan_get(&sample(), &Type::named("Employee"), &env);
        let pkg = &employees[0];
        // Usable at the bound and above...
        assert!(pkg.open_at(&Type::named("Employee"), &env).is_ok());
        assert!(pkg.open_at(&Type::named("Person"), &env).is_ok());
        // ...but not at an unrelated or narrower interface, even though
        // the witness might structurally allow it: the static discipline
        // only guarantees the bound.
        assert!(pkg.open_at(&Type::named("Student"), &env).is_err());
    }

    #[test]
    fn seal_rejects_lies() {
        let env = env();
        assert!(ExistsPkg::seal(
            Type::named("Person"),
            Value::record([("Name", Value::str("p"))]),
            Type::named("Employee"),
            &env,
        )
        .is_err());
    }

    #[test]
    fn widen_is_existential_subsumption() {
        let env = env();
        let employees = scan_get(&sample(), &Type::named("Employee"), &env);
        let widened = employees[0].widen(Type::named("Person"), &env).unwrap();
        assert_eq!(*widened.bound(), Type::named("Person"));
        assert_eq!(widened.witness(), employees[0].witness());
        assert!(employees[0].widen(Type::Int, &env).is_err());
    }

    #[test]
    fn get_signature_is_the_papers_type() {
        assert_eq!(
            get_signature().to_string(),
            "forall t. Database -> List[exists u <= t. u]"
        );
    }

    #[test]
    fn conformance_sweep_flags_nonconforming_elements() {
        let env = env();
        let heap = Heap::new();
        let mut dyns = sample();
        dyns.push(DynValue::new(Type::Int, Value::str("not an int")));
        let bad = conformance_sweep(&dyns, &env, &heap);
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].0, dyns.len() - 1);
        assert!(!bad[0].1.is_empty());
        assert!(conformance_sweep(&sample(), &env, &heap).is_empty());
    }

    #[test]
    fn scan_at_top_returns_everything() {
        let env = env();
        assert_eq!(scan_get(&sample(), &Type::Top, &env).len(), 4);
    }

    #[test]
    fn projecting_employee_packages_appear_in_person_result() {
        // "those records obtained by 'projecting' the Employee records
        // returned by getEmployees will always appear in the result of
        // getPersons" — here directly: every Employee package widens into
        // the Person result set.
        let env = env();
        let persons = scan_get(&sample(), &Type::named("Person"), &env);
        let employees = scan_get(&sample(), &Type::named("Employee"), &env);
        for e in &employees {
            let w = e.widen(Type::named("Person"), &env).unwrap();
            assert!(persons.iter().any(|p| p == &w));
        }
    }
}
