//! Crash-atomic commits spanning two stores, through one durable commit
//! log.
//!
//! A transaction can touch both an [`IntrinsicStore`] (handles + heap in
//! one log) and a [`ReplicatingStore`] (one file per externed unit). Each
//! store commits atomically on its own, but a crash *between* the two
//! would leave the pair inconsistent. The fix is a redo log:
//!
//! 1. encode everything the transaction will do — the intrinsic store's
//!    staged log records and the full bytes of every extern/remove — into
//!    one [`Intent`];
//! 2. append it as one CRC-framed record to the commit log
//!    (`<replicating dir>/commit.log`) and fsync it — **the durability
//!    point**, and the commit's only fsync: from here the transaction
//!    must roll forward;
//! 3. apply it without syncing: the intrinsic store appends its records
//!    and commit marker, and each unit is written to a temporary file and
//!    renamed into place.
//!
//! A **checkpoint** ([`checkpoint`]) makes the applied effects durable on
//! their own — fsync the intrinsic log, fsync every unit installed since
//! the last checkpoint, fsync the directory — and only then empties the
//! commit log. It runs at the end of a commit once the log passes
//! [`CHECKPOINT_BYTES`], on a clean close, and on demand.
//!
//! On reopen, [`recover_pending`] replays the log tail: intrinsic records
//! of transactions the intrinsic store has not committed are redone, and
//! units are reinstalled in log order. Both halves are idempotent — log
//! records carry absolute values and unit installs are whole-file
//! replaces, last writer wins — so a crash during recovery itself is also
//! safe: the next recovery replays again. The tail stays until the next
//! checkpoint.
//!
//! Every unit write of a [`ReplicatingStore`] goes through the log,
//! direct `extern`/`remove` included: a write that bypassed it could be
//! overwritten by a replay of an older logged value of the same handle.

use crate::error::PersistError;
use crate::format::{self, Reader};
use crate::intrinsic::IntrinsicStore;
use crate::log::{LogFile, Replay};
use crate::replicating::{QuarantineEntry, QuarantineReason, ReplicatingStore};
use crate::vfs::{retry_io, RetryPolicy, Vfs};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Weak};

/// File name of the commit log, co-located with the replicating store's
/// units.
pub const COMMIT_LOG: &str = "commit.log";

/// Size past which a commit checkpoints before it returns: bounds the
/// log's disk and memory footprint and the replay work on reopen.
pub const CHECKPOINT_BYTES: u64 = 64 * 1024;

/// Everything one commit (a transaction or a group-commit batch) applies:
/// one record of the commit log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Intent {
    /// The transaction number the intrinsic store commits as (0 when
    /// the intrinsic store has nothing to commit).
    pub txn_id: u64,
    /// The intrinsic store's staged log records
    /// ([`IntrinsicStore::staged_records`]).
    pub intrinsic_records: Vec<Vec<u8>>,
    /// Per-handle extern effects: `Some(bytes)` installs the encoded
    /// unit, `None` removes the handle.
    pub externs: Vec<(String, Option<Vec<u8>>)>,
}

impl Intent {
    /// Serialize as a commit-log record.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        format::put_u64(&mut out, self.txn_id);
        format::put_u64(&mut out, self.intrinsic_records.len() as u64);
        for rec in &self.intrinsic_records {
            format::put_u64(&mut out, rec.len() as u64);
            out.extend_from_slice(rec);
        }
        format::put_u64(&mut out, self.externs.len() as u64);
        for (handle, unit) in &self.externs {
            format::put_str(&mut out, handle);
            match unit {
                Some(bytes) => {
                    out.push(1);
                    format::put_u64(&mut out, bytes.len() as u64);
                    out.extend_from_slice(bytes);
                }
                None => out.push(0),
            }
        }
        out
    }

    /// Decode a commit-log record.
    pub fn decode(buf: &[u8]) -> Result<Intent, PersistError> {
        let mut r = Reader::new(buf);
        let txn_id = r.u64()?;
        // Counts come from the record: cap the preallocation by what the
        // bytes could hold, so a damaged count cannot exhaust memory.
        let n = r.u64()? as usize;
        let mut intrinsic_records = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            let len = r.u64()? as usize;
            intrinsic_records.push(r.bytes(len)?.to_vec());
        }
        let m = r.u64()? as usize;
        let mut externs = Vec::with_capacity(m.min(r.remaining()));
        for _ in 0..m {
            let handle = r.str()?;
            let unit = match r.byte()? {
                0 => None,
                1 => {
                    let len = r.u64()? as usize;
                    Some(r.bytes(len)?.to_vec())
                }
                k => {
                    return Err(PersistError::Malformed(format!(
                        "bad extern tag {k} in commit record"
                    )))
                }
            };
            externs.push((handle, unit));
        }
        if r.remaining() != 0 {
            return Err(PersistError::Malformed(
                "trailing bytes in commit record".into(),
            ));
        }
        Ok(Intent {
            txn_id,
            intrinsic_records,
            externs,
        })
    }
}

/// The commit log of one store directory. Every [`ReplicatingStore`]
/// open onto the directory in this process shares it ([`shared_log`]).
/// Its lock is held for a whole commit, so effects are applied in log
/// order.
#[derive(Default)]
pub(crate) struct CommitLog {
    /// The append handle, opened at the first logged commit.
    file: Option<LogFile>,
    /// The log file was just created and its directory entry is not yet
    /// durable.
    dir_sync: bool,
    /// Bytes of valid frames in the log.
    len: u64,
    /// A failed write may have left part of a frame past `len`: the file
    /// is cut back to `len` before the next append, so no record ever
    /// follows the debris.
    torn: bool,
    /// Every logged effect is applied to the stores, so a checkpoint may
    /// drop the log. False for a tail an earlier run left, until it is
    /// replayed, and after an in-doubt commit.
    applied: bool,
    /// Units renamed into place since the last checkpoint.
    unsynced: BTreeSet<PathBuf>,
    /// A unit was renamed or removed since the last checkpoint.
    dir_dirty: bool,
    /// Intrinsic logs that records since the last checkpoint were
    /// applied to, each with the VFS it lives on.
    intrinsic: BTreeMap<PathBuf, Arc<dyn Vfs>>,
}

/// The commit logs of the store directories open in this process, by
/// [`Vfs::dir_id`]. Two logs over one file would let either one's
/// checkpoint truncate away the other's records before their effects
/// are durable.
type OpenLogs = Vec<((u64, PathBuf), Weak<Mutex<CommitLog>>)>;
static OPEN_LOGS: std::sync::Mutex<OpenLogs> = std::sync::Mutex::new(Vec::new());

/// The commit log of the store directory `dir`: the one every store
/// open onto it already shares, or a fresh one.
pub(crate) fn shared_log(vfs: &dyn Vfs, dir: &Path) -> Result<Arc<Mutex<CommitLog>>, PersistError> {
    let id = vfs.dir_id(dir);
    let mut open = OPEN_LOGS.lock().unwrap_or_else(|e| e.into_inner());
    open.retain(|(_, log)| log.strong_count() > 0);
    if let Some(log) = open
        .iter()
        .find(|(k, _)| *k == id)
        .and_then(|(_, l)| l.upgrade())
    {
        return Ok(log);
    }
    let log = Arc::new(Mutex::new(CommitLog::open(vfs, dir)?));
    open.push((id, Arc::downgrade(&log)));
    Ok(log)
}

/// Why appending a record failed.
enum LogFailure {
    /// Before the record reached the log file: the commit never happened.
    Aborted(PersistError),
    /// The record is in the log file but its fsync failed: it may or may
    /// not be durable.
    InDoubt(PersistError),
}

impl CommitLog {
    /// The log state of a directory no open store shares yet: a
    /// non-empty log is a tail an earlier run left, unapplied until a
    /// replay.
    fn open(vfs: &dyn Vfs, dir: &Path) -> Result<CommitLog, PersistError> {
        let path = dir.join(COMMIT_LOG);
        let len = if vfs.exists(&path) {
            retry_io(|| vfs.len(&path))?
        } else {
            0
        };
        Ok(CommitLog {
            len,
            applied: len == 0,
            ..CommitLog::default()
        })
    }

    fn intrinsic_applied(&mut self, store: &IntrinsicStore) {
        self.intrinsic
            .insert(store.path().to_path_buf(), Arc::clone(store.vfs()));
    }

    pub(crate) fn unit_installed(&mut self, path: PathBuf) {
        self.unsynced.insert(path);
        self.dir_dirty = true;
    }

    pub(crate) fn unit_removed(&mut self, path: &Path) {
        self.unsynced.remove(path);
        self.dir_dirty = true;
    }

    /// Append one record and fsync it.
    fn append(
        &mut self,
        store: &ReplicatingStore,
        payload: &[u8],
        policy: &RetryPolicy,
    ) -> Result<(), LogFailure> {
        let vfs = &**store.vfs();
        if self.file.is_none() {
            let path = log_path(store);
            self.dir_sync = !vfs.exists(&path);
            self.file = Some(LogFile::open_with(vfs, &path).map_err(LogFailure::Aborted)?);
        }
        if self.dir_sync {
            // A fresh log's name must be durable before any record in it
            // is acknowledged.
            retry_io(|| vfs.sync_dir(store.dir())).map_err(|e| LogFailure::Aborted(e.into()))?;
            self.dir_sync = false;
        }
        let (path, len) = (log_path(store), self.len);
        let (file, torn) = (self.file.as_mut().expect("opened above"), &mut self.torn);
        // The write runs under the caller's policy: transient faults that
        // survive the VFS-level retries get another bounded round here,
        // and the deadline is re-checked between attempts. A failed flush
        // writes nothing later, so each attempt appends afresh — after
        // cutting away whatever part of a frame a failed one left.
        policy
            .run_named("commit_log", || {
                if *torn {
                    vfs.set_len(&path, len)?;
                    *torn = false;
                }
                file.append(payload).map_err(to_io)?;
                file.flush().map_err(|e| {
                    *torn = true;
                    to_io(e)
                })
            })
            .map_err(|e| {
                LogFailure::Aborted(if e.kind() == std::io::ErrorKind::TimedOut {
                    PersistError::DeadlineExceeded
                } else {
                    e.into()
                })
            })?;
        self.len += 8 + payload.len() as u64;
        file.sync().map_err(LogFailure::InDoubt)
    }
}

fn log_path(store: &ReplicatingStore) -> PathBuf {
    store.dir().join(COMMIT_LOG)
}

/// Unwrap a [`PersistError`] back to its I/O error (preserving the kind,
/// so an outer [`RetryPolicy`] still recognizes transient faults).
fn to_io(e: PersistError) -> std::io::Error {
    match e {
        PersistError::Io(io) => io,
        other => std::io::Error::other(other.to_string()),
    }
}

fn in_doubt(txn_id: u64, cause: PersistError) -> PersistError {
    dbpl_obs::emit(dbpl_obs::Event::TxnInDoubt {
        txn_id,
        cause: cause.to_string(),
    });
    PersistError::InDoubt {
        txn_id,
        cause: Box::new(cause),
    }
}

/// Commit one transaction across both store kinds atomically.
///
/// `externs` maps handle → `Some(encoded unit)` to install or `None` to
/// remove. The `policy`'s deadline is honored only *before* the record
/// reaches the commit log — past that point the transaction must roll
/// forward, deadline or not, or recovery would observe half a
/// transaction.
///
/// Returns the committed transaction number (0 if the intrinsic store had
/// nothing to commit), or `Ok(0)` as a no-op when nothing is staged.
///
/// Errors split at the durability point: before the record is written,
/// the transaction never happened and the error means *aborted*; once it
/// is written, failures surface as [`PersistError::InDoubt`] — a failed
/// log fsync leaves the record's durability unknown, and a failed apply
/// leaves a durable record half applied. Either way the transaction is
/// **not** aborted, and [`recover_pending`] (now, or on the next reopen)
/// rolls it forward from the log.
pub fn commit_multi(
    mut intrinsic: Option<&mut IntrinsicStore>,
    store: &ReplicatingStore,
    externs: &BTreeMap<String, Option<Vec<u8>>>,
    policy: &RetryPolicy,
) -> Result<u64, PersistError> {
    let mut root = dbpl_obs::span!("txn.commit");
    if store.is_read_only() {
        return Err(PersistError::ReadOnly("commit_multi".into()));
    }
    let intrinsic_dirty = intrinsic.as_ref().is_some_and(|s| s.is_dirty());
    if !intrinsic_dirty && externs.is_empty() {
        return Ok(0);
    }
    if policy.expired() {
        return Err(PersistError::DeadlineExceeded);
    }
    let intent = Intent {
        txn_id: match &intrinsic {
            Some(s) if intrinsic_dirty => s.txn() + 1,
            _ => 0,
        },
        intrinsic_records: match &intrinsic {
            Some(s) if intrinsic_dirty => s.staged_records(),
            _ => Vec::new(),
        },
        externs: externs
            .iter()
            .map(|(h, u)| (h.clone(), u.clone()))
            .collect(),
    };
    root.set_attr("txn_id", intent.txn_id);
    root.set_attr("externs", externs.len());
    let encoded = intent.encode();
    let mut log = store.commit_log.lock();
    {
        let mut sp = dbpl_obs::span!("txn.intent");
        sp.set_attr("bytes", encoded.len());
        match log.append(store, &encoded, policy) {
            Ok(()) => {}
            Err(LogFailure::Aborted(e)) => return Err(e),
            Err(LogFailure::InDoubt(e)) => {
                log.applied = false;
                return Err(in_doubt(intent.txn_id, e));
            }
        }
    }
    // --- durability point: roll forward from here, no deadline checks ---
    if let Some(s) = intrinsic.as_deref().filter(|_| intrinsic_dirty) {
        log.intrinsic_applied(s);
    }
    let applied = {
        let _sp = dbpl_obs::span!("txn.apply");
        apply(
            intrinsic.as_deref_mut(),
            intrinsic_dirty,
            store,
            &mut log,
            externs,
        )
    };
    match applied {
        Ok(txn) => {
            dbpl_obs::emit(dbpl_obs::Event::TxnCommit {
                txn_id: intent.txn_id,
                externs: externs.len() as u64,
                intrinsic: intrinsic_dirty,
            });
            if log.len >= CHECKPOINT_BYTES {
                // Best effort: a failed checkpoint leaves the log (and
                // its durability guarantee) in place for the next one.
                let _ = checkpoint_locked(intrinsic, store, &mut log);
            }
            Ok(txn)
        }
        Err(cause) => {
            log.applied = false;
            Err(in_doubt(intent.txn_id, cause))
        }
    }
}

/// The apply phase of a commit, after its record became durable: no
/// fsync.
fn apply(
    intrinsic: Option<&mut IntrinsicStore>,
    intrinsic_dirty: bool,
    store: &ReplicatingStore,
    log: &mut CommitLog,
    externs: &BTreeMap<String, Option<Vec<u8>>>,
) -> Result<u64, PersistError> {
    let txn = match intrinsic {
        Some(s) if intrinsic_dirty => s.commit_unsynced()?,
        _ => 0,
    };
    for (handle, unit) in externs {
        match unit {
            Some(bytes) => store.put_unit(log, handle, bytes)?,
            None => store.drop_unit(log, handle)?,
        }
    }
    Ok(txn)
}

/// Read the commit log, refusing one damaged in the middle: a tail that
/// is not a clean frame is a torn append only if no readable record
/// follows it. Dropping later records would silently lose acknowledged
/// commits, so a log with any is refused instead.
fn read_log(vfs: &dyn Vfs, path: &Path) -> Result<Replay, PersistError> {
    let replay = LogFile::replay_with(vfs, path)?;
    if !replay.clean {
        let later = LogFile::salvage_scan(replay.tail())
            .records
            .into_iter()
            .filter(|rec| Intent::decode(rec).is_ok())
            .count();
        if later > 0 {
            return Err(PersistError::Malformed(format!(
                "commit log damaged at byte {} with {later} readable record(s) after the \
                 damage; refusing to drop acknowledged commits",
                replay.valid_len
            )));
        }
    }
    Ok(replay)
}

fn decode_all(replay: &Replay) -> Result<Vec<Intent>, PersistError> {
    replay.records().map(Intent::decode).collect()
}

/// The highest transaction number the commit log holds unapplied,
/// without applying anything — `None` when there is none. Lets a
/// read-only opener report what a read-write one would recover.
pub fn pending_txn(store: &ReplicatingStore) -> Result<Option<u64>, PersistError> {
    if store.commit_log.lock().applied {
        return Ok(None);
    }
    let replay = read_log(&**store.vfs(), &log_path(store))?;
    Ok(decode_all(&replay)?.iter().map(|i| i.txn_id).max())
}

/// Replay the commit log's tail into both stores.
///
/// Call on reopen, after both stores are constructed. Returns
/// `Ok(Some(txn_id))` — the highest transaction number in the tail —
/// when the log held records to replay, `Ok(None)` when it held none: it
/// was empty, or another store open onto the directory in this process
/// already applied every record in it. A torn final record never became
/// durable and is truncated away; damage with readable records after it
/// is refused.
///
/// With `intrinsic = None` (a replicating-only caller), a tail that
/// carries intrinsic-store records is refused with
/// [`PersistError::RecoveryPending`] and **nothing** is applied —
/// recovering just its extern half would hand out a state no commit ever
/// produced. Rerun once the intrinsic store is open.
pub fn recover_pending(
    mut intrinsic: Option<&mut IntrinsicStore>,
    store: &ReplicatingStore,
) -> Result<Option<u64>, PersistError> {
    if store.is_read_only() {
        return Err(PersistError::ReadOnly("recover_pending".into()));
    }
    let mut log = store.commit_log.lock();
    if log.applied {
        return Ok(None);
    }
    let (vfs, path) = (&**store.vfs(), log_path(store));
    let replay = read_log(vfs, &path)?;
    if !replay.clean {
        LogFile::truncate_to_with(vfs, &path, replay.valid_len)?;
    }
    log.len = replay.valid_len;
    log.torn = false;
    let intents = decode_all(&replay)?;
    let Some(last) = intents.iter().map(|i| i.txn_id).max() else {
        log.applied = true;
        return Ok(None);
    };
    log.applied = false;
    if intrinsic.is_none() {
        let needs_intrinsic = intents
            .iter()
            .filter(|i| !i.intrinsic_records.is_empty())
            .map(|i| i.txn_id)
            .max();
        if let Some(txn_id) = needs_intrinsic {
            return Err(PersistError::RecoveryPending { txn_id });
        }
    }
    let mut redo = dbpl_obs::span!("txn.redo");
    redo.set_attr("txn_id", last);
    redo.set_attr("records", intents.len());
    for intent in &intents {
        if let Some(s) = intrinsic
            .as_deref_mut()
            .filter(|_| !intent.intrinsic_records.is_empty())
        {
            // Redo unless the intrinsic store already committed it: its
            // transaction counter advances only once a commit's marker is
            // written.
            if intent.txn_id > s.txn() {
                s.redo(&intent.intrinsic_records)?;
            }
            log.intrinsic_applied(s);
        }
        for (handle, unit) in &intent.externs {
            match unit {
                Some(bytes) => {
                    // The record's CRC protected it as a whole; still
                    // verify the unit's own checksum so a replay never
                    // launders rotted bytes into a store file.
                    format::unframe_unit(bytes)?;
                    store.put_unit(&mut log, handle, bytes)?;
                }
                None => store.drop_unit(&mut log, handle)?,
            }
        }
    }
    log.applied = true;
    dbpl_obs::emit(dbpl_obs::Event::TxnRecovered { txn_id: last });
    Ok(Some(last))
}

/// Checkpoint the commit log: make every logged effect durable in the
/// stores themselves, then empty the log. In order:
///
/// 1. fsync the intrinsic logs commits were applied to — `intrinsic`'s
///    is compacted instead, once it has doubled since its last
///    compaction;
/// 2. fsync every unit installed since the last checkpoint;
/// 3. fsync the store directory;
/// 4. truncate the commit log (and fsync the truncation).
///
/// Returns `Ok(false)` without touching anything when the log cannot be
/// dropped yet: some logged effect may be unapplied (an in-doubt commit
/// or a tail not yet replayed with [`recover_pending`]).
pub fn checkpoint(
    intrinsic: Option<&mut IntrinsicStore>,
    store: &ReplicatingStore,
) -> Result<bool, PersistError> {
    let mut log = store.commit_log.lock();
    checkpoint_locked(intrinsic, store, &mut log)
}

fn checkpoint_locked(
    intrinsic: Option<&mut IntrinsicStore>,
    store: &ReplicatingStore,
    log: &mut CommitLog,
) -> Result<bool, PersistError> {
    if store.is_read_only() || !log.applied {
        return Ok(false);
    }
    let mut sp = dbpl_obs::span!("txn.checkpoint");
    let vfs = store.vfs();
    let mut fsyncs = 0;
    let mut own = None;
    if let Some(s) = intrinsic {
        fsyncs += s.checkpoint_log(log.intrinsic.contains_key(s.path()))?;
        own = Some(s.path().to_path_buf());
    }
    // Logs of intrinsic stores other than `intrinsic` — another store
    // open onto this directory committed through the shared log.
    for (path, ivfs) in &log.intrinsic {
        if own.as_ref() != Some(path) {
            retry_io(|| ivfs.sync_file(path))?;
            fsyncs += 1;
        }
    }
    for path in &log.unsynced {
        match retry_io(|| vfs.sync_file(path)) {
            Ok(()) => fsyncs += 1,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
    }
    if log.dir_dirty {
        retry_io(|| vfs.sync_dir(store.dir()))?;
        fsyncs += 1;
    }
    if log.len > 0 || log.torn {
        let path = log_path(store);
        retry_io(|| vfs.set_len(&path, 0))?;
        retry_io(|| vfs.sync_file(&path))?;
        fsyncs += 1;
    }
    log.len = 0;
    log.torn = false;
    log.unsynced.clear();
    log.dir_dirty = false;
    log.intrinsic.clear();
    sp.set_attr("fsyncs", fsyncs);
    if fsyncs > 0 {
        crate::metrics::checkpoints().inc();
        crate::metrics::checkpoint_fsyncs().add(fsyncs);
    }
    Ok(true)
}

/// Scrub's check of the commit log: every frame must pass its CRC and
/// decode as a record. `None` when it does.
pub(crate) fn scrub_log(store: &ReplicatingStore) -> Option<QuarantineEntry> {
    let damaged = |cause: String, reason| {
        Some(QuarantineEntry {
            handle: COMMIT_LOG.to_string(),
            cause,
            reason,
        })
    };
    let replay = match LogFile::replay_with(&**store.vfs(), log_path(store)) {
        Ok(r) => r,
        Err(e) => return damaged(e.to_string(), QuarantineReason::Undecodable),
    };
    if !replay.clean {
        return damaged(
            format!("commit log frame damaged at byte {}", replay.valid_len),
            QuarantineReason::ChecksumMismatch,
        );
    }
    match decode_all(&replay) {
        Ok(_) => None,
        Err(e) => damaged(e.to_string(), QuarantineReason::Undecodable),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{FaultPlan, SimVfs};
    use crate::TempDir;
    use dbpl_types::Type;
    use dbpl_values::{DynValue, Heap, Value};
    use std::sync::Arc;

    fn fresh(name: &str) -> TempDir {
        TempDir::new(&format!("txn-{name}")).unwrap()
    }

    fn unit(v: i64) -> Vec<u8> {
        ReplicatingStore::encode_unit(&DynValue::new(Type::Int, Value::Int(v)), &Heap::new())
            .unwrap()
    }

    fn interned(repl: &ReplicatingStore, handle: &str) -> Option<Value> {
        repl.intern(handle, &mut Heap::new()).ok().map(|d| d.value)
    }

    /// Both stores on `vfs`, as a reopen would build them.
    fn open_pair(vfs: &SimVfs) -> (IntrinsicStore, ReplicatingStore) {
        let vfs: Arc<dyn Vfs> = Arc::new(vfs.clone());
        (
            IntrinsicStore::open_with(vfs.clone(), Path::new("s.log")).unwrap(),
            ReplicatingStore::open_with(vfs, Path::new("units")).unwrap(),
        )
    }

    /// Commit one two-store transaction on `vfs` (`h` := 1, `u` := 2),
    /// returning the result and the op count it started at.
    fn commit_once(vfs: &SimVfs) -> (Result<u64, PersistError>, u64) {
        let (mut intr, repl) = open_pair(vfs);
        let start = vfs.ops();
        intr.set_handle("h", Type::Int, Value::Int(1));
        let externs = BTreeMap::from([("u".to_string(), Some(unit(2)))]);
        let r = commit_multi(Some(&mut intr), &repl, &externs, &RetryPolicy::default());
        (r, start)
    }

    #[test]
    fn intent_roundtrip() {
        let i = Intent {
            txn_id: 7,
            intrinsic_records: vec![b"abc".to_vec(), b"".to_vec()],
            externs: vec![
                ("alpha".into(), Some(b"unit-bytes".to_vec())),
                ("gone".into(), None),
            ],
        };
        assert_eq!(Intent::decode(&i.encode()).unwrap(), i);
    }

    #[test]
    fn a_commit_makes_one_fsync_and_a_checkpoint_empties_the_log() {
        let sim = SimVfs::new();
        let vfs: Arc<dyn Vfs> = Arc::new(crate::vfs::CountingVfs::new(sim.clone()));
        let mut intr = IntrinsicStore::open_with(vfs.clone(), Path::new("s.log")).unwrap();
        let repl = ReplicatingStore::open_with(vfs, Path::new("units")).unwrap();
        let fsyncs = |spans: &[dbpl_obs::trace::SpanRecord]| {
            spans.iter().filter(|s| s.name == "vfs.fsync").count()
        };
        for i in 0..3 {
            intr.set_handle("h", Type::Int, Value::Int(i));
            let externs = BTreeMap::from([("u".to_string(), Some(unit(i + 10)))]);
            let (txn, spans) = dbpl_obs::trace::capture("commit", || {
                commit_multi(Some(&mut intr), &repl, &externs, &RetryPolicy::default())
            });
            assert_eq!(txn.unwrap(), i as u64 + 1);
            // The first commit also makes the fresh log's name durable.
            assert_eq!(fsyncs(&spans), if i == 0 { 2 } else { 1 });
        }
        let log = Path::new("units").join(COMMIT_LOG);
        assert!(!sim.peek(&log).unwrap().is_empty());
        assert!(checkpoint(Some(&mut intr), &repl).unwrap());
        assert!(sim.peek(&log).unwrap().is_empty());
        // Everything the log covered is durable without it.
        sim.crash_now();
        sim.recover();
        let (mut intr, repl) = open_pair(&sim);
        assert_eq!(intr.handle("h").unwrap().1, Value::Int(2));
        assert_eq!(interned(&repl, "u"), Some(Value::Int(12)));
        assert_eq!(recover_pending(Some(&mut intr), &repl).unwrap(), None);
    }

    #[test]
    fn a_crash_after_the_log_sync_is_redone_on_recovery() {
        let reference = SimVfs::new();
        let (r, start) = commit_once(&reference);
        r.unwrap();
        // Crash on the first op after the record's fsync: the stores are
        // untouched, the record is durable.
        let sync_op = start + 5; // open, dir sync, append, sync — then apply
        let vfs = SimVfs::with_plan(FaultPlan {
            seed: 3,
            crash_at_op: Some(sync_op),
            ..FaultPlan::default()
        });
        let (r, _) = commit_once(&vfs);
        assert!(
            matches!(r, Err(PersistError::InDoubt { txn_id: 1, .. })),
            "{r:?}"
        );
        vfs.recover();
        let (mut intr, repl) = open_pair(&vfs);
        assert_eq!(recover_pending(Some(&mut intr), &repl).unwrap(), Some(1));
        assert_eq!(intr.handle("h").unwrap().1, Value::Int(1));
        assert_eq!(interned(&repl, "u"), Some(Value::Int(2)));
        // The tail stays until a checkpoint. The stores open onto it have
        // applied it, so it has nothing more to replay for them; a crash
        // before the checkpoint replays it again, and replay is
        // idempotent.
        assert_eq!(recover_pending(Some(&mut intr), &repl).unwrap(), None);
        vfs.crash_now();
        vfs.recover();
        let (mut intr, repl) = open_pair(&vfs);
        assert_eq!(recover_pending(Some(&mut intr), &repl).unwrap(), Some(1));
        assert_eq!(intr.handle("h").unwrap().1, Value::Int(1));
        assert_eq!(interned(&repl, "u"), Some(Value::Int(2)));
        assert!(checkpoint(Some(&mut intr), &repl).unwrap());
        assert_eq!(recover_pending(Some(&mut intr), &repl).unwrap(), None);
        vfs.crash_now();
        vfs.recover();
        let (intr, repl) = open_pair(&vfs);
        assert_eq!(intr.handle("h").unwrap().1, Value::Int(1));
        assert_eq!(interned(&repl, "u"), Some(Value::Int(2)));
    }

    #[test]
    fn expired_deadline_aborts_before_durability() {
        let dir = fresh("deadline");
        let mut intr = IntrinsicStore::open(dir.join("store.log")).unwrap();
        let repl = ReplicatingStore::open(dir.join("units")).unwrap();
        intr.set_handle("h", Type::Int, Value::Int(1));
        let policy = RetryPolicy::with_deadline(std::time::Instant::now());
        let err = commit_multi(Some(&mut intr), &repl, &BTreeMap::new(), &policy);
        assert!(matches!(err, Err(PersistError::DeadlineExceeded)));
        // Nothing became durable.
        assert!(!repl.vfs().exists(&repl.dir().join(COMMIT_LOG)));
        drop(intr);
        let intr = IntrinsicStore::open(dir.join("store.log")).unwrap();
        assert!(intr.handle("h").is_none());
    }

    #[test]
    fn replicating_only_recovery_refuses_intrinsic_bearing_tails() {
        let vfs = SimVfs::new();
        commit_once(&vfs).0.unwrap();
        let (mut intr, repl) = open_pair(&vfs);
        intr.set_handle("h", Type::Int, Value::Int(9));
        // Crash just after the second record's fsync.
        vfs.set_plan(FaultPlan {
            crash_at_op: Some(vfs.ops() + 5),
            ..FaultPlan::default()
        });
        let externs = BTreeMap::from([("u".to_string(), None)]);
        let r = commit_multi(Some(&mut intr), &repl, &externs, &RetryPolicy::default());
        assert!(
            matches!(r, Err(PersistError::InDoubt { txn_id: 2, .. })),
            "{r:?}"
        );
        drop((intr, repl));
        vfs.recover();

        // Without the intrinsic store the tail is refused — and nothing
        // of it is applied, so nothing is lost.
        let (mut intr, repl) = open_pair(&vfs);
        let err = recover_pending(None, &repl).unwrap_err();
        assert!(
            matches!(err, PersistError::RecoveryPending { txn_id: 2 }),
            "{err}"
        );
        assert_eq!(pending_txn(&repl).unwrap(), Some(2));
        // With it, the same recovery completes both transactions.
        assert_eq!(recover_pending(Some(&mut intr), &repl).unwrap(), Some(2));
        assert_eq!(intr.handle("h").unwrap().1, Value::Int(9));
        assert_eq!(interned(&repl, "u"), None);
    }

    #[test]
    fn extern_only_tails_recover_without_an_intrinsic_store() {
        let vfs = SimVfs::new();
        let repl = ReplicatingStore::open_with(Arc::new(vfs.clone()), Path::new("units")).unwrap();
        let externs = BTreeMap::from([("u".to_string(), Some(unit(4)))]);
        commit_multi(None, &repl, &externs, &RetryPolicy::default()).unwrap();
        vfs.crash_now();
        vfs.recover();
        let repl = ReplicatingStore::open_with(Arc::new(vfs.clone()), Path::new("units")).unwrap();
        assert_eq!(recover_pending(None, &repl).unwrap(), Some(0));
        assert_eq!(interned(&repl, "u"), Some(Value::Int(4)));
    }

    #[test]
    fn a_failed_apply_is_in_doubt_and_rolls_forward() {
        let reference = SimVfs::new();
        let (r, start) = commit_once(&reference);
        r.unwrap();
        let total = reference.ops() - start;
        // Crash on the very last op (the unit's rename): well past the
        // durability point, so the error is InDoubt and recovery after
        // reboot completes the transaction.
        let vfs = SimVfs::with_plan(FaultPlan {
            seed: 1,
            crash_at_op: Some(start + total),
            ..FaultPlan::default()
        });
        let (r, _) = commit_once(&vfs);
        assert!(
            matches!(r, Err(PersistError::InDoubt { txn_id: 1, .. })),
            "{r:?}"
        );
        vfs.recover();
        let (mut intr, repl) = open_pair(&vfs);
        recover_pending(Some(&mut intr), &repl).unwrap();
        assert_eq!(intr.handle("h").unwrap().1, Value::Int(1));
        assert_eq!(interned(&repl, "u"), Some(Value::Int(2)));
    }

    #[test]
    fn a_direct_write_after_a_logged_one_survives_replay() {
        // `u` := 1 through a commit, then `u` := 2 and a removal of `v`
        // as direct writes: replay must end on the direct writes, not
        // resurrect the older logged values.
        let vfs = SimVfs::new();
        let repl = ReplicatingStore::open_with(Arc::new(vfs.clone()), Path::new("units")).unwrap();
        let externs = BTreeMap::from([
            ("u".to_string(), Some(unit(1))),
            ("v".to_string(), Some(unit(1))),
        ]);
        commit_multi(None, &repl, &externs, &RetryPolicy::default()).unwrap();
        let heap = Heap::new();
        repl.extern_value("u", &DynValue::new(Type::Int, Value::Int(2)), &heap)
            .unwrap();
        repl.remove("v").unwrap();
        vfs.crash_now();
        vfs.recover();
        let repl = ReplicatingStore::open_with(Arc::new(vfs.clone()), Path::new("units")).unwrap();
        recover_pending(None, &repl).unwrap();
        assert_eq!(interned(&repl, "u"), Some(Value::Int(2)));
        assert_eq!(interned(&repl, "v"), None);
    }

    #[test]
    fn stores_open_onto_one_directory_share_its_commit_log() {
        let vfs = SimVfs::new();
        let (mut intr, a) = open_pair(&vfs);
        let b = ReplicatingStore::open_with(Arc::new(vfs.clone()), Path::new("units")).unwrap();
        // A commits to both its stores: logged and applied, not yet
        // checkpointed.
        intr.set_handle("h", Type::Int, Value::Int(1));
        let externs = BTreeMap::from([("u".to_string(), Some(unit(1)))]);
        commit_multi(Some(&mut intr), &a, &externs, &RetryPolicy::default()).unwrap();
        // B finds nothing pending — A applied its record — so its own
        // writes are not blocked.
        let (gate, recovery) = crate::gate::DurabilityGate::open(&b).unwrap();
        assert_eq!(recovery, crate::gate::Recovery::Clean);
        gate.write(None, &b, "v", Some(unit(2))).unwrap();
        // B's checkpoint empties the log, so it must make A's effects
        // durable too.
        assert!(checkpoint(None, &b).unwrap());
        assert!(vfs
            .peek(&Path::new("units").join(COMMIT_LOG))
            .unwrap()
            .is_empty());
        vfs.crash_now();
        vfs.recover();
        let (mut intr, a) = open_pair(&vfs);
        assert_eq!(recover_pending(Some(&mut intr), &a).unwrap(), None);
        assert_eq!(intr.handle("h").unwrap().1, Value::Int(1));
        assert_eq!(interned(&a, "u"), Some(Value::Int(1)));
        assert_eq!(interned(&a, "v"), Some(Value::Int(2)));
    }

    #[test]
    fn a_short_commit_log_write_is_cut_away_before_the_next_record() {
        let vfs = SimVfs::new();
        let (mut intr, repl) = open_pair(&vfs);
        let commit = |intr: &mut IntrinsicStore, v: i64| {
            intr.set_handle("h", Type::Int, Value::Int(v));
            let externs = BTreeMap::from([("u".to_string(), Some(unit(v)))]);
            commit_multi(Some(intr), &repl, &externs, &RetryPolicy::default())
        };
        assert_eq!(commit(&mut intr, 1).unwrap(), 1);
        // The disk fills up halfway through the next record: the commit
        // aborts, leaving half a frame in the log file.
        vfs.set_plan(FaultPlan {
            short_append_at_op: Some(vfs.ops() + 1),
            ..FaultPlan::default()
        });
        let log = Path::new("units").join(COMMIT_LOG);
        let before = vfs.peek(&log).unwrap().len();
        match commit(&mut intr, 2) {
            Err(PersistError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::StorageFull),
            other => panic!("expected an aborted commit, got {other:?}"),
        }
        assert!(vfs.peek(&log).unwrap().len() > before, "no partial frame");
        intr.abort();
        // Space is back. The next commit is acknowledged, then power
        // fails before any checkpoint: replay must reach it.
        assert_eq!(commit(&mut intr, 3).unwrap(), 2);
        vfs.crash_now();
        vfs.recover();
        let (mut intr, repl) = open_pair(&vfs);
        assert_eq!(recover_pending(Some(&mut intr), &repl).unwrap(), Some(2));
        assert_eq!(intr.handle("h").unwrap().1, Value::Int(3));
        assert_eq!(interned(&repl, "u"), Some(Value::Int(3)));
    }

    #[test]
    fn empty_transaction_is_a_noop() {
        let dir = fresh("noop");
        let repl = ReplicatingStore::open(dir.join("units")).unwrap();
        assert_eq!(
            commit_multi(None, &repl, &BTreeMap::new(), &RetryPolicy::default()).unwrap(),
            0
        );
        assert!(!repl.vfs().exists(&repl.dir().join(COMMIT_LOG)));
    }
}
