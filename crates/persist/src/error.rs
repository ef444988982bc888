//! Errors for the persistence layer.

use dbpl_types::Type;
use std::fmt;

/// Errors raised by storage, recovery and schema-evolution operations.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Ran out of bytes mid-decode.
    UnexpectedEof,
    /// Structurally invalid bytes.
    Malformed(String),
    /// A unit did not start with the `DBPL` magic.
    BadMagic,
    /// A unit was written by an unknown format version.
    UnsupportedVersion(u8),
    /// Stored bytes failed their CRC — bit rot, a torn write mid-frame,
    /// or any other silent mutation of data at rest. Raised by log-frame
    /// replay and by every framed-unit read path (`intern`, salvage,
    /// scrub, recovery redo).
    ChecksumMismatch {
        /// Byte offset of the damaged region (the frame offset for log
        /// records; `0` for whole-unit checksums).
        offset: u64,
    },
    /// The named handle does not exist.
    UnknownHandle(String),
    /// A handle was re-opened at an incompatible type: neither a supertype
    /// of the stored type nor consistent with it.
    SchemaMismatch {
        /// Handle name.
        handle: String,
        /// The type stored with the value.
        stored: Type,
        /// The type the program expected.
        expected: Type,
    },
    /// A value error bubbled up (dangling reference, conformance...).
    Value(dbpl_values::ValueError),
    /// The named namespace does not exist.
    UnknownNamespace(String),
    /// Attempt to create something that already exists.
    AlreadyExists(String),
    /// A mutation was attempted on a store opened read-only (salvage
    /// mode).
    ReadOnly(String),
    /// A transaction ran past its commit deadline before reaching its
    /// durability point, and was aborted.
    DeadlineExceeded,
    /// A commit failed *after* its record reached the commit log — the
    /// record's fsync failed, or applying it did — so the transaction is
    /// **not** aborted: `recover_pending` (now or on the next reopen)
    /// rolls it forward from the log.
    InDoubt {
        /// The transaction number the logged record commits as.
        txn_id: u64,
        /// The failure after the record was written.
        cause: Box<PersistError>,
    },
    /// The commit-log tail carries intrinsic-store records, but no
    /// intrinsic store was available to recover into. Nothing was
    /// applied; commits must wait until the intrinsic store is attached
    /// and recovery completes.
    RecoveryPending {
        /// The highest transaction number that needs the intrinsic store.
        txn_id: u64,
    },
    /// The durability gate refused a write before it touched the store:
    /// the store is degraded and still unwritable, or a pending
    /// transaction could not be finished first.
    Refused(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::UnexpectedEof => write!(f, "unexpected end of input"),
            PersistError::Malformed(m) => write!(f, "malformed data: {m}"),
            PersistError::BadMagic => write!(f, "not a DBPL unit (bad magic)"),
            PersistError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            PersistError::ChecksumMismatch { offset } => {
                write!(
                    f,
                    "checksum mismatch at offset {offset} (bit rot or torn write)"
                )
            }
            PersistError::UnknownHandle(h) => write!(f, "unknown handle `{h}`"),
            PersistError::SchemaMismatch {
                handle,
                stored,
                expected,
            } => write!(
                f,
                "handle `{handle}` stores type {stored}, which is neither a subtype of nor \
                 consistent with expected type {expected}"
            ),
            PersistError::Value(e) => write!(f, "{e}"),
            PersistError::UnknownNamespace(n) => write!(f, "unknown namespace `{n}`"),
            PersistError::AlreadyExists(n) => write!(f, "`{n}` already exists"),
            PersistError::ReadOnly(what) => {
                write!(f, "store is read-only (salvage mode): {what}")
            }
            PersistError::DeadlineExceeded => {
                write!(
                    f,
                    "transaction deadline exceeded before commit became durable"
                )
            }
            PersistError::InDoubt { txn_id, cause } => {
                write!(
                    f,
                    "transaction {txn_id} is in doubt: its record is in the commit log but \
                     syncing or applying it failed ({cause}); recovery will roll it forward"
                )
            }
            PersistError::RecoveryPending { txn_id } => {
                write!(
                    f,
                    "pending transaction {txn_id} needs the intrinsic store to finish recovery"
                )
            }
            PersistError::Refused(why) => write!(f, "write refused: {why}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<dbpl_values::ValueError> for PersistError {
    fn from(e: dbpl_values::ValueError) -> Self {
        PersistError::Value(e)
    }
}
