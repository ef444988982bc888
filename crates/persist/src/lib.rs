//! # dbpl-persist — the three forms of persistence
//!
//! The storage layer of the reproduction of Buneman & Atkinson
//! (SIGMOD 1986), implementing both of the paper's design principles —
//! *(1) persistence is a property of values and should be independent of
//! type; (2) while a value persists, so should its description (type)* —
//! and all three persistence models the paper analyses:
//!
//! * **all-or-nothing** ([`snapshot::Image`]) — the whole session image
//!   saved and resumed atomically, Lisp/Prolog style;
//! * **replicating** ([`replicating::ReplicatingStore`]) — Amber-style
//!   `extern`/`intern` of self-describing dynamic values with *copy*
//!   semantics, whose update anomalies and wasted storage are reproduced
//!   by the test suite and measured by experiment E3;
//! * **intrinsic** ([`intrinsic::IntrinsicStore`]) — PS-algol/GemStone
//!   style reachability-from-handles persistence with an explicit
//!   `commit`, built on a CRC-framed append-only [`log::LogFile`] with
//!   torn-tail crash recovery, plus sweep and compaction.
//!
//! [`evolution`] implements the paper's schema-evolution rule for
//! re-opening handles (subtype ⇒ view; consistent ⇒ enrich; otherwise
//! refuse), and [`namespace`] the "multiple name spaces and controlled
//! sharing" the paper calls for in practice.
//!
//! Every store does its file I/O through the pluggable [`vfs::Vfs`]:
//! production code uses [`vfs::StdVfs`], while [`vfs::SimVfs`] is an
//! in-memory file system with power-failure semantics and deterministic
//! fault injection. The [`sim`] module drives scripted workloads over it,
//! crashing at every I/O boundary and checking that recovery always lands
//! on a committed prefix of history.

#![warn(missing_docs)]

pub mod crc;
pub mod error;
pub mod evolution;
pub mod format;
pub mod gate;
pub mod intrinsic;
pub mod log;
mod metrics;
pub mod namespace;
pub mod replicating;
pub mod sim;
pub mod snapshot;
pub mod tempdir;
pub mod txn;
pub mod vfs;

pub use error::PersistError;
pub use evolution::{open_handle, project_to_type, OpenOutcome};
pub use format::{decode_dyn, encode_dyn, frame_unit, unframe_unit, UnitHeader};
pub use gate::{DurabilityGate, Health, Recovery, Verdict};
pub use intrinsic::{IntrinsicStore, RecoveryReport, SalvageReport};
pub use log::LogFile;
pub use namespace::{NamespaceManager, Visibility};
pub use replicating::{
    QuarantineEntry, QuarantineReason, QuarantineReport, ReplicatingStore, ScrubReport,
};
pub use snapshot::Image;
pub use tempdir::TempDir;
pub use txn::{checkpoint, commit_multi, pending_txn, recover_pending, Intent};
pub use vfs::{CountingVfs, FaultPlan, RetryPolicy, SimVfs, StdVfs, Vfs};
