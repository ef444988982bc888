//! # dbpl-core — the paper's contribution, assembled
//!
//! The core of the reproduction of Buneman & Atkinson, *Inheritance and
//! Persistence in Database Programming Languages* (SIGMOD 1986): a
//! database layer in which **type, extent and persistence are separate**,
//! and in which the class machinery other designs build in is *derived*:
//!
//! * [`get`] — the generic `Get : ∀t. Database → List[∃t' ≤ t]` with
//!   existential result packages;
//! * [`extent`] — maintained extents (Taxis/Adaplex semantics under
//!   cascading, fully independent otherwise), multiple and transient
//!   extents, and the typed-list index;
//! * [`hierarchy`] — the class hierarchy derived from the type hierarchy;
//! * [`keys`] — key constraints forbidding ⊑-comparable members;
//! * [`bom`] — the bill-of-materials example with transient memo fields
//!   on persistent objects;
//! * [`instance`] — the instance-hierarchy scenarios (parking lot,
//!   price-dependent product levels);
//! * [`database`] — the facade composing all of it with every
//!   persistence model.

#![warn(missing_docs)]

pub mod bom;
pub mod database;
pub mod error;
pub mod extent;
pub mod get;
pub mod hierarchy;
pub mod instance;
pub mod keys;
mod metrics;
mod store;

pub use database::Database;
pub use error::CoreError;
pub use extent::{Extent, ExtentManager, TypedListIndex};
pub use get::{conformance_sweep, get_signature, scan_get, ExistsPkg, GetIter, GetView, StoredRow};
pub use hierarchy::ClassHierarchy;
pub use keys::{KeyConstraint, KeyedSet};
