//! # dbpl-types — the type system
//!
//! An executable realization of the type system sketched in Buneman &
//! Atkinson, *Inheritance and Persistence in Database Programming
//! Languages* (SIGMOD 1986):
//!
//! * structural [`Type`]s with records, variants, lists, sets, functions,
//!   Amber's `Dynamic`, and Cardelli–Wegner **bounded universal and
//!   existential quantification** — enough to write down the type of the
//!   generic extraction function `Get : ∀t. Database → List[∃t' ≤ t]`;
//! * a **decidable** subtype relation ([`subtype::is_subtype`]) that is
//!   equi-recursive over named definitions and uses the kernel rule on
//!   quantifier bounds, preserving the paper's desideratum that "there are
//!   no non-terminating computations at the level of types";
//! * [`TypeEnv`]s with both the **structural** discipline of Amber/Galileo
//!   and the **declared** (`include`) discipline of Adaplex
//!   ([`env::SubtypePolicy`]);
//! * type **joins, meets and consistency** ([`lattice`]), the engine behind
//!   schema evolution on persistent handles;
//! * a pretty-printer and parser for a small surface syntax.
//!
//! The class hierarchy of a database never needs to be declared separately:
//! it is *derived* from this subtype hierarchy (see `dbpl-core`).

#![warn(missing_docs)]

pub mod cache;
pub mod display;
pub mod env;
pub mod error;
pub mod label;
pub mod lattice;
pub mod parse;
pub mod subtype;
pub mod ty;

pub use cache::SubtypeCache;
pub use env::{SubtypePolicy, TypeEnv};
pub use error::TypeError;
pub use label::LabelKey;
pub use lattice::{consistent, join, meet};
pub use parse::{parse_type, ParseError};
pub use subtype::{is_equiv, is_proper_subtype, is_subtype, is_subtype_uncached, is_subtype_with};
pub use ty::{Fields, Label, Name, Quant, TyVar, Type};
