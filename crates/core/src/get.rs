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
use crate::store::Chunk;
use dbpl_types::{is_subtype, is_subtype_uncached, Type, TypeEnv};
use dbpl_values::{conforms, DynValue, Heap, Mode, Value};
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
/// its `(bound, witness, value)`.
#[derive(Clone)]
pub struct ExistsPkg {
    /// The package's *bound*: the type the caller asked for.
    pub bound: Type,
    chunk: Chunk,
    at: usize,
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
        Ok(ExistsPkg::owned(DynValue::new(witness, value), bound))
    }

    fn owned(row: DynValue, bound: Type) -> ExistsPkg {
        ExistsPkg {
            bound,
            chunk: Arc::new(vec![row]),
            at: 0,
        }
    }

    fn row(&self) -> &DynValue {
        &self.chunk[self.at]
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
        if is_subtype(&self.bound, request, env) {
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
        if !is_subtype(&self.bound, &bound, env) {
            return Err(CoreError::Invalid(format!(
                "cannot widen {} to unrelated bound {bound}",
                self.bound
            )));
        }
        Ok(ExistsPkg::owned(self.row().clone(), bound))
    }

    /// Dissolve into a dynamic value carrying the witness type.
    pub fn into_dynamic(self) -> DynValue {
        match Arc::try_unwrap(self.chunk) {
            Ok(mut rows) => rows.swap_remove(self.at),
            Err(chunk) => chunk[self.at].clone(),
        }
    }

    /// Package the stored row at offset `at` of `chunk`, whose
    /// `witness ≤ bound` has *already* been established (by the
    /// typed-list index, whose membership is exactly that judgement).
    /// Crate-private: a public caller could seal a lie, breaking the
    /// static discipline [`ExistsPkg::seal`] enforces.
    pub(crate) fn seal_trusted(chunk: &Chunk, at: usize, bound: Type) -> ExistsPkg {
        ExistsPkg {
            bound,
            chunk: Arc::clone(chunk),
            at,
        }
    }
}

impl PartialEq for ExistsPkg {
    fn eq(&self, other: &ExistsPkg) -> bool {
        self.bound == other.bound && self.row() == other.row()
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
    dynamics
        .iter()
        .filter(|d| is_subtype_uncached(&d.ty, bound, env))
        .map(|d| ExistsPkg::owned(d.clone(), bound.clone()))
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
        assert_eq!(widened.bound, Type::named("Person"));
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
