//! The durability gate: one policy for what happens when a durable
//! write fails.
//!
//! Every front end that makes writes durable — a single session or a
//! server's group commit — goes through a [`DurabilityGate`]. It holds the
//! only commit-failure state there is (why the store is degraded, and
//! which transaction is still pending recovery) and decides, in one
//! place:
//!
//! * **open-time recovery** ([`DurabilityGate::open`]): an extern-only
//!   commit-log tail left by a crash rolls forward and is checkpointed;
//!   one that also carries intrinsic-store records blocks durable writes
//!   until [`DurabilityGate::recover`] is handed that store; a read-only
//!   store leaves the log where it is.
//! * **probe first**: before any durable write, a degraded gate probes
//!   the store and heals if the probe succeeds, and a pending transaction
//!   is finished first — with the intrinsic store, when there is one.
//!   Either failure refuses the write with nothing attempted.
//! * **commit** ([`DurabilityGate::commit`]): runs [`commit_multi`]. An
//!   in-doubt result rolls forward at once or is recorded as pending; a
//!   failure before the durability point aborts (`TxnAbort`), and running
//!   out of space degrades the gate (`HealthChanged`).
//! * **direct writes** ([`DurabilityGate::write`]): the same gate, and
//!   the same commit log, for a store write made outside any
//!   transaction.
//! * **clean close** ([`DurabilityGate::close`]): a last checkpoint, so
//!   the next open has no log to replay.
//!
//! A transaction is *pending* until its recovery has both replayed it
//! and checkpointed it: an in-doubt commit is settled only once its
//! effects are durable without the log record that may not be.

use crate::error::PersistError;
use crate::intrinsic::IntrinsicStore;
use crate::replicating::ReplicatingStore;
use crate::txn::{checkpoint, commit_multi, pending_txn, recover_pending};
use crate::vfs::RetryPolicy;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt;

/// A store's health, as reported by [`DurabilityGate::health`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Health {
    /// Fully operational: durable commits are accepted.
    Healthy,
    /// The environment failed underneath the store (e.g. its disk filled
    /// up): durable commits and direct store writes are refused —
    /// cleanly, with nothing half-written — until the condition clears.
    /// The gate heals by itself the next time a commit or write finds
    /// the store writable.
    Degraded {
        /// What degraded the store.
        reason: String,
    },
}

impl Health {
    /// Whether the store is degraded.
    pub fn is_degraded(&self) -> bool {
        matches!(self, Health::Degraded { .. })
    }
}

/// What open-time recovery found ([`DurabilityGate::open`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recovery {
    /// No transaction was pending.
    Clean,
    /// A transaction a crash interrupted was rolled forward.
    Completed(u64),
    /// A pending transaction carries intrinsic-store records: it waits
    /// for [`DurabilityGate::recover`] with that store, and durable
    /// writes are refused until then.
    Blocked(u64),
    /// The store is read-only, so a pending transaction was left for a
    /// read-write open to complete.
    ReadOnly(u64),
}

/// The verdict of [`DurabilityGate::commit`]. Its `Display` is the
/// caller-facing message.
#[derive(Debug)]
pub enum Verdict {
    /// Durable — or there was nothing durable to do.
    Committed,
    /// Refused before anything was written: the store is degraded and
    /// still unwritable, or an earlier transaction is still pending.
    Refused(String),
    /// Failed before the durability point: nothing became durable.
    Aborted(PersistError),
    /// Failed after the durability point, and rolling forward at once
    /// failed too. The transaction is **not** aborted: it completes on
    /// recovery, and durable writes are refused until then.
    InDoubt {
        /// The pending transaction's number.
        txn_id: u64,
        /// The apply failure and the failed roll-forward.
        detail: String,
    },
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Committed => write!(f, "committed"),
            Verdict::Refused(why) => write!(f, "commit refused, transaction aborted: {why}"),
            Verdict::Aborted(e) => write!(f, "commit failed, transaction aborted: {e}"),
            Verdict::InDoubt { txn_id, detail } => write!(
                f,
                "commit is in doubt, not aborted: it may be durably logged as transaction \
                 {txn_id}, but confirming or applying it failed ({detail}); it will be \
                 completed on recovery — commits are blocked until then"
            ),
        }
    }
}

/// The commit-failure state: why the store is degraded, and which
/// durable transaction is still waiting to be recovered.
#[derive(Debug, Default)]
struct GateState {
    degraded: Option<String>,
    pending: Option<u64>,
}

/// The one commit-failure policy (see the [module docs](self)). The
/// state sits behind a lock that is never held across I/O, so health
/// reads from other threads never wait on a commit.
#[derive(Debug, Default)]
pub struct DurabilityGate {
    state: Mutex<GateState>,
}

impl DurabilityGate {
    /// A gate over a freshly opened store, after open-time recovery of
    /// the commit-log tail a crash left.
    pub fn open(store: &ReplicatingStore) -> Result<(DurabilityGate, Recovery), PersistError> {
        let gate = DurabilityGate::default();
        if store.is_read_only() {
            let pending = pending_txn(store).ok().flatten();
            return Ok((gate, pending.map_or(Recovery::Clean, Recovery::ReadOnly)));
        }
        let recovery = match gate.recover(None, store) {
            Ok(None) => Recovery::Clean,
            Ok(Some(txn_id)) => Recovery::Completed(txn_id),
            Err(PersistError::RecoveryPending { txn_id }) => {
                gate.state.lock().pending = Some(txn_id);
                Recovery::Blocked(txn_id)
            }
            Err(e) => return Err(e),
        };
        Ok((gate, recovery))
    }

    /// Finish pending transactions now — typically once the intrinsic
    /// store they need is at hand: replay the commit-log tail, then
    /// checkpoint it. Unblocks durable writes on success.
    pub fn recover(
        &self,
        mut intrinsic: Option<&mut IntrinsicStore>,
        store: &ReplicatingStore,
    ) -> Result<Option<u64>, PersistError> {
        let done = recover_pending(intrinsic.as_deref_mut(), store)?;
        // A pending transaction is settled only once a checkpoint makes
        // its effects durable — whether they were replayed just now or by
        // an earlier attempt whose checkpoint failed.
        if done.is_some() || self.state.lock().pending.is_some() {
            checkpoint(intrinsic, store)?;
        }
        self.state.lock().pending = None;
        Ok(done)
    }

    /// A clean close: checkpoint the commit log so the next open replays
    /// nothing. Best effort — a failure leaves the log for that open to
    /// replay — and skipped while a transaction is pending.
    pub fn close(&self, intrinsic: Option<&mut IntrinsicStore>, store: &ReplicatingStore) {
        if self.state.lock().pending.is_none() && !store.is_read_only() {
            let _ = checkpoint(intrinsic, store);
        }
    }

    /// The store's current health.
    pub fn health(&self) -> Health {
        match &self.state.lock().degraded {
            None => Health::Healthy,
            Some(reason) => Health::Degraded {
                reason: reason.clone(),
            },
        }
    }

    /// Degrade the store (idempotent), announcing it with a
    /// `HealthChanged` event.
    pub fn degrade(&self, reason: String) {
        let mut st = self.state.lock();
        if st.degraded.is_none() {
            dbpl_obs::emit(dbpl_obs::Event::HealthChanged {
                degraded: true,
                reason: reason.clone(),
            });
            st.degraded = Some(reason);
        }
    }

    /// Make one transaction durable across both stores, or say why not.
    ///
    /// With nothing staged the commit is purely in memory: it is never
    /// refused, but a degraded store is still probed so the gate heals
    /// as soon as the store is writable again.
    pub fn commit(
        &self,
        mut intrinsic: Option<&mut IntrinsicStore>,
        store: &ReplicatingStore,
        externs: &BTreeMap<String, Option<Vec<u8>>>,
        policy: &RetryPolicy,
    ) -> Verdict {
        if externs.is_empty() && !intrinsic.as_ref().is_some_and(|s| s.is_dirty()) {
            let _ = self.probe(store);
            return Verdict::Committed;
        }
        if let Err(why) = self.admit(intrinsic.as_deref_mut(), store) {
            dbpl_obs::emit(dbpl_obs::Event::TxnAbort {
                reason: format!("commit refused: {why}"),
            });
            return Verdict::Refused(why);
        }
        match commit_multi(intrinsic.as_deref_mut(), store, externs, policy) {
            Ok(_) => Verdict::Committed,
            // Past the durability point: the record is in the log and the
            // transaction must roll forward. Try to finish it right now.
            Err(PersistError::InDoubt { txn_id, cause }) => {
                match self.settle_in_doubt(txn_id, intrinsic, store) {
                    Ok(()) => Verdict::Committed,
                    Err(e) => Verdict::InDoubt {
                        txn_id,
                        detail: format!("{cause}; recovery retry: {e}"),
                    },
                }
            }
            Err(e) => {
                dbpl_obs::emit(dbpl_obs::Event::TxnAbort {
                    reason: format!("commit failed: {e}"),
                });
                self.degrade_if_full(&e, "commit");
                Verdict::Aborted(e)
            }
        }
    }

    /// A direct store write made outside any transaction — install
    /// `unit` under `handle`, or remove it when `None` — as its own
    /// commit through the log, behind the same gate as a commit: refused
    /// with [`PersistError::Refused`] before anything is written while
    /// the store is degraded and unwritable or a transaction is pending;
    /// an in-doubt write rolls forward at once or stays pending; a write
    /// that runs out of space degrades the gate.
    pub fn write(
        &self,
        mut intrinsic: Option<&mut IntrinsicStore>,
        store: &ReplicatingStore,
        handle: &str,
        unit: Option<Vec<u8>>,
    ) -> Result<(), PersistError> {
        self.admit(intrinsic.as_deref_mut(), store)
            .map_err(PersistError::Refused)?;
        let externs = BTreeMap::from([(handle.to_string(), unit)]);
        match commit_multi(None, store, &externs, &RetryPolicy::default()) {
            Ok(_) => Ok(()),
            Err(PersistError::InDoubt { txn_id, cause }) => self
                .settle_in_doubt(txn_id, intrinsic, store)
                .map_err(|_| PersistError::InDoubt { txn_id, cause }),
            Err(e) => {
                self.degrade_if_full(&e, "direct write");
                Err(e)
            }
        }
    }

    /// An in-doubt commit's record is in the log, so it must roll
    /// forward: finish it now, or record it as pending. Returns the
    /// roll-forward's failure.
    fn settle_in_doubt(
        &self,
        txn_id: u64,
        intrinsic: Option<&mut IntrinsicStore>,
        store: &ReplicatingStore,
    ) -> Result<(), PersistError> {
        self.recover(intrinsic, store)
            .map(|_| ())
            .inspect_err(|_| self.state.lock().pending = Some(txn_id))
    }

    /// Probe-first admission of a durable write: heal a degraded store
    /// whose probe succeeds, then finish any pending transaction.
    fn admit(
        &self,
        intrinsic: Option<&mut IntrinsicStore>,
        store: &ReplicatingStore,
    ) -> Result<(), String> {
        self.probe(store)?;
        let pending = self.state.lock().pending;
        if let Some(txn_id) = pending {
            self.recover(intrinsic, store)
                .map_err(|e| format!("blocked by pending transaction {txn_id} ({e})"))?;
        }
        Ok(())
    }

    /// If degraded, probe the store: heal on success, or report the
    /// still-standing reason.
    fn probe(&self, store: &ReplicatingStore) -> Result<(), String> {
        let Some(reason) = self.state.lock().degraded.clone() else {
            return Ok(());
        };
        if let Err(e) = store.probe_writable() {
            return Err(format!(
                "store degraded ({reason}) and still unwritable ({e})"
            ));
        }
        if self.state.lock().degraded.take().is_some() {
            dbpl_obs::emit(dbpl_obs::Event::HealthChanged {
                degraded: false,
                reason: "store is writable again".to_string(),
            });
        }
        Ok(())
    }

    /// Disk full is not the transaction's fault: degrade the store so
    /// later writes are refused up front instead of failing halfway.
    fn degrade_if_full(&self, e: &PersistError, during: &str) {
        if is_storage_full(e) {
            self.degrade(format!("storage full during {during}: {e}"));
        }
    }
}

/// Does this error bottom out in "the device is out of space"?
fn is_storage_full(e: &PersistError) -> bool {
    matches!(e, PersistError::Io(io) if io.kind() == std::io::ErrorKind::StorageFull)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{SimVfs, Vfs};
    use dbpl_types::Type;
    use dbpl_values::{DynValue, Heap, Value};
    use std::path::Path;
    use std::sync::Arc;

    fn unit(v: i64) -> Vec<u8> {
        ReplicatingStore::encode_unit(&DynValue::new(Type::Int, Value::Int(v)), &Heap::new())
            .unwrap()
    }

    fn reopen(vfs: &SimVfs) -> ReplicatingStore {
        let vfs: Arc<dyn Vfs> = Arc::new(vfs.clone());
        ReplicatingStore::open_with(vfs, Path::new("units")).unwrap()
    }

    #[test]
    fn a_direct_write_through_the_gate_outlives_an_older_logged_commit() {
        let vfs = SimVfs::new();
        let store = reopen(&vfs);
        let (gate, _) = DurabilityGate::open(&store).unwrap();
        // `h` and `g` := 1 by a commit: logged, not checkpointed.
        let externs = BTreeMap::from([
            ("h".to_string(), Some(unit(1))),
            ("g".to_string(), Some(unit(1))),
        ]);
        let verdict = gate.commit(None, &store, &externs, &RetryPolicy::default());
        assert!(matches!(verdict, Verdict::Committed), "{verdict}");
        // Then direct writes: `h` := 2, `g` removed.
        gate.write(None, &store, "h", Some(unit(2))).unwrap();
        gate.write(None, &store, "g", None).unwrap();
        // Power fails before any checkpoint; recovery replays the log.
        vfs.crash_now();
        vfs.recover();
        let store = reopen(&vfs);
        let (_, recovery) = DurabilityGate::open(&store).unwrap();
        assert_eq!(recovery, Recovery::Completed(0));
        let mut heap = Heap::new();
        assert_eq!(store.intern("h", &mut heap).unwrap().value, Value::Int(2));
        assert!(matches!(
            store.intern("g", &mut heap),
            Err(PersistError::UnknownHandle(_))
        ));
    }
}
