//! # dbpl — Inheritance and Persistence in Database Programming Languages
//!
//! A full executable realization of Peter Buneman and Malcolm Atkinson's
//! SIGMOD 1986 paper. The paper argues that a database programming
//! language should keep **type**, **extent** and **persistence** separate,
//! deriving the class machinery of Taxis/Adaplex/Galileo from a
//! sufficiently powerful type system — and shows how object-level
//! inheritance (partial records under an information ordering) reconciles
//! object-oriented and relational database programming.
//!
//! This facade re-exports the whole workspace:
//!
//! * [`types`] — structural types, decidable subtyping (structural *and*
//!   Adaplex-style declared), bounded ∀/∃, `Dynamic`, type meets/joins;
//! * [`values`] — partial records, the information ordering `⊑` with join
//!   `⊔`, object identity, `typeOf`/`coerce`;
//! * [`relation`] — generalized relations (Figure 1's join), the flat
//!   relational baseline, FD theory;
//! * [`persist`] — the three persistence models over a real log-structured
//!   store with crash recovery, plus schema evolution;
//! * [`core`] — the `Database` with the generic
//!   `Get : ∀t. Database → List[∃t' ≤ t]`, extents divorced from types,
//!   key constraints, the bill-of-materials memoization;
//! * [`lang`] — MiniDBPL, a small statically-typed database programming
//!   language exercising all of it;
//! * [`models`] — executable models of the five surveyed languages;
//! * [`obs`] — unified observability: the metrics registry, span timing,
//!   and structured event sinks every layer above reports into;
//! * [`stats`] — workload introspection derived when asked for: exact
//!   per-extent statistics counted over the typed lists, and the query
//!   log read from the `get` and `join` spans of the trace ring.
//!
//! ## Quickstart
//!
//! ```
//! use dbpl::core::Database;
//! use dbpl::types::{parse_type, Type};
//! use dbpl::values::Value;
//!
//! let mut db = Database::new();
//! db.declare_type("Person", parse_type("{Name: Str}").unwrap()).unwrap();
//! db.declare_type("Employee", parse_type("{Name: Str, Empno: Int}").unwrap()).unwrap();
//!
//! db.put(Type::named("Employee"),
//!        Value::record([("Name", Value::str("J Doe")), ("Empno", Value::Int(1234))])).unwrap();
//!
//! // The generic Get: every Employee is a Person, so it shows up here —
//! // the class hierarchy is derived from the type hierarchy.
//! let persons = db.get(&Type::named("Person"));
//! assert_eq!(persons.len(), 1);
//! assert_eq!(persons[0].witness().to_string(), "Employee");
//! ```
//!
//! See `examples/` for the paper's scenarios end to end and DESIGN.md /
//! EXPERIMENTS.md for the experiment index.

pub use dbpl_core as core;
pub use dbpl_lang as lang;
pub use dbpl_models as models;
pub use dbpl_obs as obs;
pub use dbpl_persist as persist;
pub use dbpl_relation as relation;
pub use dbpl_stats as stats;
pub use dbpl_types as types;
pub use dbpl_values as values;
