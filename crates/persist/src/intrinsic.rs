//! Intrinsic persistence: every value is persistent; reachability decides
//! what is retained.
//!
//! "Here the idea is that every value in a program is persistent, however
//! there is no need physically to retain storage for values for which all
//! reference is lost. In this model of persistence there is no need to
//! replicate data or control its movement … The entire purpose of handles
//! for this form of persistence is to maintain reference to values."
//!
//! PS-algol and GemStone implemented forms of this; PS-algol adds "an
//! explicit *commit* instruction — before this instruction is called, the
//! persistent value and the value being used by the program can diverge."
//!
//! [`IntrinsicStore`] realizes the model over the CRC-framed [`LogFile`]:
//!
//! * objects live in a working [`Heap`]; **handles** are the named roots;
//! * the divergence the paper describes is kept as an undo log: the
//!   before-image of every object and handle touched since the last
//!   commit, so the committed state is the working state overlaid with
//!   it, and commit and abort cost what the transaction touched, not
//!   what the store holds;
//! * [`IntrinsicStore::commit`] appends the touched objects and handle
//!   table changes followed by a commit marker, then drops the undo log —
//!   crash recovery replays only up to the last marker;
//! * [`IntrinsicStore::abort`] puts the before-images back, rolling the
//!   working state back to the last commit;
//! * [`IntrinsicStore::sweep`] reclaims objects unreachable from any
//!   handle; [`IntrinsicStore::compact`] rewrites the log to just the live
//!   committed state.
//!
//! Recovery is accounted for: every `open` produces a [`RecoveryReport`]
//! (how far recovery got, what was dropped), and a log too damaged for
//! `open` can still be read with [`IntrinsicStore::open_salvage`] — a
//! read-only best-effort recovery with an explicit [`SalvageReport`] of
//! what was lost.
//!
//! Because objects are *referenced*, not copied, an update through one
//! handle is visible through every other — the exact anomaly of
//! replicating persistence does not arise (experiment E3).

use crate::error::PersistError;
use crate::format::{self, Reader};
use crate::log::LogFile;
use crate::vfs::{retry_io, CountingVfs, StdVfs, Vfs};
use dbpl_types::Type;
use dbpl_values::{Heap, HeapObject, Oid, Value};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The handle table: named roots with their declared types.
pub type Handles = BTreeMap<String, (Type, Value)>;

/// What recovery found and did when a store was opened normally.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The transaction number recovery reached.
    pub recovered_txn: u64,
    /// Bytes of torn tail truncated from the log (crash mid-append).
    pub truncated_bytes: u64,
    /// Valid records after the last commit marker, dropped because their
    /// transaction never committed.
    pub dropped_records: usize,
}

impl RecoveryReport {
    /// Did recovery find the log exactly as a clean shutdown leaves it?
    pub fn clean(&self) -> bool {
        self.truncated_bytes == 0 && self.dropped_records == 0
    }
}

/// What a salvage pass recovered and what it had to give up.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SalvageReport {
    /// The transaction number salvage reached.
    pub recovered_txn: u64,
    /// Records applied to the recovered state.
    pub applied_records: usize,
    /// Frames that decoded as no known record and were skipped.
    pub skipped_records: usize,
    /// Valid records after the last commit marker, dropped because their
    /// transaction never committed.
    pub dropped_records: usize,
    /// Bytes inside corrupt gaps the scan had to step over.
    pub lost_bytes: u64,
    /// Number of distinct corrupt gaps.
    pub gaps: usize,
}

/// A log-structured persistent object store with commit/abort.
pub struct IntrinsicStore {
    vfs: Arc<dyn Vfs>,
    log_path: PathBuf,
    /// `None` when the store is read-only (salvage mode).
    log: Option<LogFile>,
    recovery: RecoveryReport,
    heap: Heap,
    handles: Handles,
    undo: UndoLog,
    /// The last committed transaction. It advances only once the commit's
    /// marker is written, so a transaction whose commit failed is still
    /// ahead of it and recovery redoes it.
    txn: u64,
    /// Bytes of valid frames in the log.
    log_len: u64,
    /// `log_len` after the last compaction (or at open): the checkpoint
    /// compacts once the log has doubled past it.
    compacted_len: u64,
    /// Whether commit markers were written without an fsync since the
    /// last one (commits a durable commit-log record covers).
    unsynced: bool,
}

/// Everything the working state has changed since the last commit, as
/// before-images: the committed state is the working state with these
/// put back. A key is recorded the first time it is touched, so its
/// image is the committed one however often it changes afterwards.
struct UndoLog {
    /// Committed object per touched oid; `None` if it did not exist.
    objects: BTreeMap<Oid, Option<HeapObject>>,
    /// Committed binding per touched handle; `None` if it was unbound.
    handles: BTreeMap<String, Option<(Type, Value)>>,
    /// The allocator watermark at the last commit.
    next_oid: Oid,
}

impl UndoLog {
    fn clean(next_oid: Oid) -> UndoLog {
        UndoLog {
            objects: BTreeMap::new(),
            handles: BTreeMap::new(),
            next_oid,
        }
    }

    fn object(&mut self, oid: Oid, before: Option<HeapObject>) {
        self.objects.entry(oid).or_insert(before);
    }

    fn handle(&mut self, name: &str, before: Option<(Type, Value)>) {
        if !self.handles.contains_key(name) {
            self.handles.insert(name.to_string(), before);
        }
    }

    /// Objects and handles touched since the last commit.
    fn touched(&self) -> usize {
        self.objects.len() + self.handles.len()
    }
}

// Log record kinds.
const REC_OBJECT: u8 = b'O';
const REC_HANDLE: u8 = b'H';
const REC_HANDLE_DEL: u8 = b'D';
const REC_OBJECT_DEL: u8 = b'X';
const REC_COMMIT: u8 = b'C';

/// The committed state reconstructed from a record stream.
struct Applied {
    heap: Heap,
    handles: Handles,
    txn: u64,
    applied_records: usize,
    skipped_records: usize,
    dropped_records: usize,
}

/// Replay `records` into committed state. In `strict` mode an unknown or
/// undecodable record is fatal (the normal-open contract); otherwise it
/// is counted and skipped (salvage).
fn apply_records<'a>(
    records: impl IntoIterator<Item = &'a [u8]>,
    strict: bool,
) -> Result<Applied, PersistError> {
    let mut committed_heap = Heap::new();
    let mut committed_handles = Handles::new();
    let mut staging_heap: Vec<(Oid, Type, Value)> = Vec::new();
    let mut staging_dead: Vec<Oid> = Vec::new();
    let mut staging_handles: Vec<(String, Option<(Type, Value)>)> = Vec::new();
    let mut txn = 0u64;
    let mut applied_records = 0usize;
    let mut skipped_records = 0usize;
    for rec in records {
        let decoded: Result<(), PersistError> = (|| {
            let mut r = Reader::new(rec);
            match r.byte()? {
                REC_OBJECT => {
                    let oid = Oid(r.u64()?);
                    let ty = r.ty()?;
                    let v = r.value()?;
                    staging_heap.push((oid, ty, v));
                }
                REC_OBJECT_DEL => {
                    staging_dead.push(Oid(r.u64()?));
                }
                REC_HANDLE => {
                    let name = r.str()?;
                    let ty = r.ty()?;
                    let v = r.value()?;
                    staging_handles.push((name, Some((ty, v))));
                }
                REC_HANDLE_DEL => {
                    staging_handles.push((r.str()?, None));
                }
                REC_COMMIT => {
                    txn = r.u64()?;
                    for (oid, ty, v) in staging_heap.drain(..) {
                        committed_heap.insert_at(oid, ty, v);
                    }
                    for oid in staging_dead.drain(..) {
                        committed_heap.remove(oid);
                    }
                    for (name, entry) in staging_handles.drain(..) {
                        match entry {
                            Some(tv) => {
                                committed_handles.insert(name, tv);
                            }
                            None => {
                                committed_handles.remove(&name);
                            }
                        }
                    }
                }
                k => return Err(PersistError::Malformed(format!("unknown log record {k}"))),
            }
            Ok(())
        })();
        match decoded {
            Ok(()) => applied_records += 1,
            Err(e) if strict => return Err(e),
            Err(_) => skipped_records += 1,
        }
    }
    // Records after the last commit marker are deliberately dropped:
    // they belong to an uncommitted transaction.
    let dropped_records = staging_heap.len() + staging_dead.len() + staging_handles.len();
    Ok(Applied {
        heap: committed_heap,
        handles: committed_handles,
        txn,
        applied_records: applied_records - dropped_records,
        skipped_records,
        dropped_records,
    })
}

impl IntrinsicStore {
    /// Open (or create) a store backed by the log at `path`, recovering
    /// committed state. A torn tail (crash mid-commit) is truncated away.
    pub fn open(path: impl AsRef<Path>) -> Result<IntrinsicStore, PersistError> {
        IntrinsicStore::open_with(Arc::new(CountingVfs::new(StdVfs)), path)
    }

    /// Open through an explicit [`Vfs`].
    pub fn open_with(
        vfs: Arc<dyn Vfs>,
        path: impl AsRef<Path>,
    ) -> Result<IntrinsicStore, PersistError> {
        let path = path.as_ref().to_path_buf();
        let replay = LogFile::replay_with(&*vfs, &path)?;
        let truncated_bytes = replay.tail().len() as u64;
        if !replay.clean {
            // Distinguish a genuine torn tail from mid-file damage. A torn
            // tail is a prefix cut: no complete frame can follow the bad
            // bytes. If valid frames *resume* past the damage, truncating
            // would destroy committed data that salvage can still recover
            // — refuse to open instead of destroying it.
            let tail = LogFile::salvage_scan(replay.tail());
            if !tail.records.is_empty() {
                return Err(PersistError::Malformed(format!(
                    "log damaged at byte {} with {} readable record(s) after the damage; \
                     refusing to truncate mid-file corruption — use open_salvage",
                    replay.valid_len,
                    tail.records.len()
                )));
            }
            LogFile::truncate_to_with(&*vfs, &path, replay.valid_len)?;
        }
        let log_len = replay.valid_len;
        let applied = apply_records(replay.records(), true)?;
        let log = LogFile::open_with(&*vfs, &path)?;
        // If the log was just created, its directory entry is not durable
        // until the parent directory is fsynced — without this, a crash
        // after the first commit could lose the whole file, fsynced data
        // and all.
        let parent = path.parent().map(Path::to_path_buf).unwrap_or_default();
        retry_io(|| vfs.sync_dir(&parent))?;
        let recovery = RecoveryReport {
            recovered_txn: applied.txn,
            truncated_bytes,
            dropped_records: applied.dropped_records,
        };
        Ok(IntrinsicStore {
            vfs,
            log_path: path,
            log: Some(log),
            recovery,
            undo: UndoLog::clean(applied.heap.next_oid()),
            heap: applied.heap,
            handles: applied.handles,
            txn: applied.txn,
            log_len,
            compacted_len: log_len,
            unsynced: false,
        })
    }

    /// Best-effort, **read-only** recovery of a log that normal
    /// [`IntrinsicStore::open`] rejects (unknown records, corruption in
    /// the middle of the file). Every decodable committed transaction is
    /// applied; damage is stepped over and itemized in the returned
    /// [`SalvageReport`]. The working state can be inspected and even
    /// mutated in memory, but [`IntrinsicStore::commit`] and
    /// [`IntrinsicStore::compact`] refuse with [`PersistError::ReadOnly`]
    /// — salvage never writes to the damaged log.
    pub fn open_salvage(
        path: impl AsRef<Path>,
    ) -> Result<(IntrinsicStore, SalvageReport), PersistError> {
        IntrinsicStore::open_salvage_with(Arc::new(CountingVfs::new(StdVfs)), path)
    }

    /// Salvage through an explicit [`Vfs`].
    pub fn open_salvage_with(
        vfs: Arc<dyn Vfs>,
        path: impl AsRef<Path>,
    ) -> Result<(IntrinsicStore, SalvageReport), PersistError> {
        let path = path.as_ref().to_path_buf();
        let buf = match retry_io(|| vfs.read(&path)) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        let scan = LogFile::salvage_scan(&buf);
        let applied = apply_records(scan.records, false)?;
        let report = SalvageReport {
            recovered_txn: applied.txn,
            applied_records: applied.applied_records,
            skipped_records: applied.skipped_records,
            dropped_records: applied.dropped_records,
            lost_bytes: scan.lost_bytes,
            gaps: scan.gaps,
        };
        let store = IntrinsicStore {
            vfs,
            log_path: path,
            log: None,
            recovery: RecoveryReport {
                recovered_txn: applied.txn,
                truncated_bytes: 0,
                dropped_records: applied.dropped_records,
            },
            undo: UndoLog::clean(applied.heap.next_oid()),
            heap: applied.heap,
            handles: applied.handles,
            txn: applied.txn,
            log_len: 0,
            compacted_len: 0,
            unsynced: false,
        };
        Ok((store, report))
    }

    /// The log path.
    pub fn path(&self) -> &Path {
        &self.log_path
    }

    /// The VFS the log lives on.
    pub(crate) fn vfs(&self) -> &Arc<dyn Vfs> {
        &self.vfs
    }

    /// What recovery found when this store was opened.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Is this store read-only (opened by salvage)?
    pub fn is_read_only(&self) -> bool {
        self.log.is_none()
    }

    /// Read access to the working heap.
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// The working handle table.
    pub fn handles(&self) -> &Handles {
        &self.handles
    }

    /// The last committed transaction number.
    pub fn txn(&self) -> u64 {
        self.txn
    }

    /// Allocate a new object in the working state.
    pub fn alloc(&mut self, ty: Type, value: Value) -> Oid {
        let oid = self.heap.alloc(ty, value);
        self.undo.object(oid, None);
        oid
    }

    /// Update an object in the working state. Visible through *every*
    /// reference immediately — objects are shared, not copied.
    pub fn update(&mut self, oid: Oid, value: Value) -> Result<(), PersistError> {
        let obj = self.heap.get_mut(oid)?;
        let before = std::mem::replace(&mut obj.value, value);
        if let Entry::Vacant(e) = self.undo.objects.entry(oid) {
            e.insert(Some(HeapObject {
                ty: obj.ty.clone(),
                value: before,
            }));
        }
        Ok(())
    }

    /// Fetch an object from the working state.
    pub fn get(&self, oid: Oid) -> Result<&HeapObject, PersistError> {
        Ok(self.heap.get(oid)?)
    }

    /// Bind a handle (a named persistent root). "Creating this global name
    /// is all that is required to ensure persistence."
    pub fn set_handle(&mut self, name: impl Into<String>, ty: Type, value: Value) {
        let name = name.into();
        let before = self.handles.insert(name.clone(), (ty, value));
        self.undo.handle(&name, before);
    }

    /// Look up a handle.
    pub fn handle(&self, name: &str) -> Option<&(Type, Value)> {
        self.handles.get(name)
    }

    /// Drop a handle; the objects it alone kept alive become garbage
    /// (collect them with [`IntrinsicStore::sweep`]).
    pub fn remove_handle(&mut self, name: &str) -> bool {
        let before = self.handles.remove(name);
        let existed = before.is_some();
        if existed {
            self.undo.handle(name, before);
        }
        existed
    }

    /// The log records the next [`IntrinsicStore::commit`] would append
    /// (everything except the commit marker), in append order: touched
    /// objects that exist, then deletions of those that do not, then
    /// handle bindings and unbindings. This is the transaction's
    /// intrinsic half as bytes — what a multi-store commit writes into
    /// its commit-log record so a crash can replay it.
    pub fn staged_records(&self) -> Vec<Vec<u8>> {
        let mut out = Vec::with_capacity(self.undo.touched());
        for &oid in self.undo.objects.keys() {
            if let Ok(obj) = self.heap.get(oid) {
                let mut rec = vec![REC_OBJECT];
                format::put_u64(&mut rec, oid.0);
                format::put_type(&mut rec, &obj.ty);
                format::put_value(&mut rec, &obj.value);
                out.push(rec);
            }
        }
        for &oid in self.undo.objects.keys() {
            if !self.heap.contains(oid) {
                let mut rec = vec![REC_OBJECT_DEL];
                format::put_u64(&mut rec, oid.0);
                out.push(rec);
            }
        }
        for name in self.undo.handles.keys() {
            match self.handles.get(name) {
                Some((ty, v)) => {
                    let mut rec = vec![REC_HANDLE];
                    format::put_str(&mut rec, name);
                    format::put_type(&mut rec, ty);
                    format::put_value(&mut rec, v);
                    out.push(rec);
                }
                None => {
                    let mut rec = vec![REC_HANDLE_DEL];
                    format::put_str(&mut rec, name);
                    out.push(rec);
                }
            }
        }
        out
    }

    /// Make the working state durable: append the touched objects,
    /// handle-table changes and a commit marker, fsync, and drop the undo
    /// log — the working state is now the committed one.
    pub fn commit(&mut self) -> Result<u64, PersistError> {
        self.commit_with(true)
    }

    /// [`IntrinsicStore::commit`] without the fsync: the records and
    /// marker reach the file but not necessarily the disk. Only for a
    /// transaction a durable commit-log record already covers; the
    /// checkpoint syncs the log before that record is dropped.
    pub(crate) fn commit_unsynced(&mut self) -> Result<u64, PersistError> {
        self.commit_with(false)
    }

    fn commit_with(&mut self, sync: bool) -> Result<u64, PersistError> {
        let mut sp = dbpl_obs::span!("intrinsic.commit");
        sp.set_attr("touched", self.undo.touched());
        let records = self.staged_records();
        sp.set_attr("records", records.len());
        let log = self
            .log
            .as_mut()
            .ok_or_else(|| PersistError::ReadOnly("commit".into()))?;
        let mut marker = vec![REC_COMMIT];
        format::put_u64(&mut marker, self.txn + 1);
        let mut bytes = 0;
        for rec in records.iter().chain([&marker]) {
            log.append(rec)?;
            bytes += 8 + rec.len() as u64;
        }
        // The durability point: nothing above is acknowledged until the
        // log (frames + marker) is on disk — or, unsynced, until the
        // commit-log record covering it is.
        if sync {
            log.sync()?;
        } else {
            log.flush()?;
        }
        self.unsynced = !sync;
        self.log_len += bytes;
        self.txn += 1;
        self.undo = UndoLog::clean(self.heap.next_oid());
        Ok(self.txn)
    }

    /// Redo a transaction from its commit-log record: decode `records`
    /// (as produced by [`IntrinsicStore::staged_records`]) into the
    /// working state, then [`IntrinsicStore::commit`]. Idempotent in
    /// effect — records carry absolute values, so re-applying an
    /// already-committed transaction reproduces the same state (the txn
    /// counter may advance, but the heap and handle table are unchanged).
    pub fn apply_records_and_commit(&mut self, records: &[Vec<u8>]) -> Result<u64, PersistError> {
        self.apply_records(records)?;
        self.commit()
    }

    /// The redo recovery runs: [`IntrinsicStore::apply_records_and_commit`]
    /// without the fsync, since the commit log still holds the record.
    pub(crate) fn redo(&mut self, records: &[Vec<u8>]) -> Result<u64, PersistError> {
        self.apply_records(records)?;
        self.commit_unsynced()
    }

    fn apply_records(&mut self, records: &[Vec<u8>]) -> Result<(), PersistError> {
        for rec in records {
            let mut r = Reader::new(rec);
            match r.byte()? {
                REC_OBJECT => {
                    let oid = Oid(r.u64()?);
                    let ty = r.ty()?;
                    let v = r.value()?;
                    let before = self.heap.remove(oid);
                    self.heap.insert_at(oid, ty, v);
                    self.undo.object(oid, before);
                }
                REC_OBJECT_DEL => {
                    let oid = Oid(r.u64()?);
                    let before = self.heap.remove(oid);
                    self.undo.object(oid, before);
                }
                REC_HANDLE => {
                    let name = r.str()?;
                    let ty = r.ty()?;
                    let v = r.value()?;
                    let before = self.handles.insert(name.clone(), (ty, v));
                    self.undo.handle(&name, before);
                }
                REC_HANDLE_DEL => {
                    let name = r.str()?;
                    let before = self.handles.remove(&name);
                    self.undo.handle(&name, before);
                }
                REC_COMMIT => {} // markers never appear in staged records
                k => {
                    return Err(PersistError::Malformed(format!(
                        "unknown staged record {k}"
                    )))
                }
            }
        }
        Ok(())
    }

    /// The checkpoint's step for this store: make every unsynced commit
    /// durable — and the log's contents whatever wrote them, when `sync`
    /// (another store object may have appended to the same file). The
    /// log is compacted instead of synced once it has grown to twice its
    /// size after the last compaction. Returns the fsyncs issued.
    pub(crate) fn checkpoint_log(&mut self, sync: bool) -> Result<u64, PersistError> {
        if self.log.is_none() {
            return Err(PersistError::ReadOnly("checkpoint".into()));
        }
        if self.log_len > 2 * self.compacted_len {
            self.compact()?;
            return Ok(2);
        }
        if !(self.unsynced || sync) {
            return Ok(0);
        }
        self.log.as_mut().expect("writable").sync()?;
        self.unsynced = false;
        Ok(1)
    }

    /// Discard uncommitted work: put every before-image back and rewind
    /// the allocator, so the working state is the last commit again.
    pub fn abort(&mut self) {
        let mut sp = dbpl_obs::span!("intrinsic.abort");
        sp.set_attr("touched", self.undo.touched());
        let watermark = self.undo.next_oid;
        let undo = std::mem::replace(&mut self.undo, UndoLog::clean(watermark));
        for (oid, before) in undo.objects {
            match before {
                Some(obj) => self.heap.insert_at(oid, obj.ty, obj.value),
                None => {
                    self.heap.remove(oid);
                }
            }
        }
        self.heap.rewind_to(undo.next_oid);
        for (name, before) in undo.handles {
            match before {
                Some(tv) => {
                    self.handles.insert(name, tv);
                }
                None => {
                    self.handles.remove(&name);
                }
            }
        }
    }

    /// Is there uncommitted work?
    pub fn is_dirty(&self) -> bool {
        self.undo.touched() > 0
    }

    /// Reclaim objects unreachable from the handle table. Returns the
    /// collected identities; deletions are logged at the next commit.
    pub fn sweep(&mut self) -> Vec<Oid> {
        let roots = self.handles.values().flat_map(|(_, v)| v.direct_refs());
        let dead = self.heap.sweep(roots);
        dead.into_iter()
            .map(|(oid, before)| {
                self.undo.object(oid, Some(before));
                oid
            })
            .collect()
    }

    /// Rewrite the log to contain exactly the live committed state (one
    /// transaction): the working state overlaid with the undo log's
    /// before-images. Uncommitted work is preserved in memory. The rewrite
    /// is crash-safe: the fresh log is fsynced before it atomically
    /// replaces the old one, and the directory entry is fsynced after.
    pub fn compact(&mut self) -> Result<(), PersistError> {
        if self.log.is_none() {
            return Err(PersistError::ReadOnly("compact".into()));
        }
        let tmp = self.log_path.with_extension("compact");
        match retry_io(|| self.vfs.remove_file(&tmp)) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        let objects: BTreeMap<Oid, &HeapObject> = self
            .heap
            .iter()
            .filter(|(oid, _)| !self.undo.objects.contains_key(oid))
            .chain(
                self.undo
                    .objects
                    .iter()
                    .filter_map(|(oid, before)| Some((*oid, before.as_ref()?))),
            )
            .collect();
        let handles: BTreeMap<&String, &(Type, Value)> = self
            .handles
            .iter()
            .filter(|(name, _)| !self.undo.handles.contains_key(*name))
            .chain(
                self.undo
                    .handles
                    .iter()
                    .filter_map(|(name, before)| Some((name, before.as_ref()?))),
            )
            .collect();
        let mut fresh_len = 0;
        {
            let mut fresh = LogFile::open_with(&*self.vfs, &tmp)?;
            let mut append = |rec: &[u8]| {
                fresh_len += 8 + rec.len() as u64;
                fresh.append(rec)
            };
            for (oid, obj) in objects {
                let mut rec = vec![REC_OBJECT];
                format::put_u64(&mut rec, oid.0);
                format::put_type(&mut rec, &obj.ty);
                format::put_value(&mut rec, &obj.value);
                append(&rec)?;
            }
            for (name, (ty, v)) in handles {
                let mut rec = vec![REC_HANDLE];
                format::put_str(&mut rec, name);
                format::put_type(&mut rec, ty);
                format::put_value(&mut rec, v);
                append(&rec)?;
            }
            let mut marker = vec![REC_COMMIT];
            format::put_u64(&mut marker, self.txn);
            append(&marker)?;
            fresh.sync()?;
        }
        // Drop the old append handle before the file under it changes,
        // and reopen whichever file the name holds afterwards: a failed
        // swap leaves the old log in place and the store writable, and
        // the next checkpoint compacts again.
        self.log = None;
        let parent = self
            .log_path
            .parent()
            .map(Path::to_path_buf)
            .unwrap_or_default();
        let swapped = retry_io(|| self.vfs.rename(&tmp, &self.log_path))
            .and_then(|()| retry_io(|| self.vfs.sync_dir(&parent)));
        self.log = Some(LogFile::open_with(&*self.vfs, &self.log_path)?);
        swapped?;
        self.log_len = fresh_len;
        self.compacted_len = fresh_len;
        self.unsynced = false;
        Ok(())
    }

    /// Size of the backing log in bytes.
    pub fn stored_bytes(&self) -> Result<u64, PersistError> {
        Ok(retry_io(|| self.vfs.len(&self.log_path))?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TempDir;

    /// A log path in a fresh directory, removed when the guard drops.
    fn fresh(name: &str) -> (TempDir, PathBuf) {
        let dir = TempDir::new("intr").unwrap();
        let path = dir.join(format!("{name}.log"));
        (dir, path)
    }

    #[test]
    fn commit_then_reopen_restores_state() {
        let (_dir, path) = fresh("reopen");
        {
            let mut s = IntrinsicStore::open(&path).unwrap();
            let o = s.alloc(Type::Int, Value::Int(5));
            s.set_handle("root", Type::Int, Value::Ref(o));
            s.commit().unwrap();
        }
        let s = IntrinsicStore::open(&path).unwrap();
        let (_, v) = s.handle("root").unwrap();
        let o = v.as_ref_oid().unwrap();
        assert_eq!(s.get(o).unwrap().value, Value::Int(5));
        assert_eq!(s.txn(), 1);
        assert!(s.recovery_report().clean());
        assert!(!s.is_read_only());
    }

    #[test]
    fn uncommitted_work_does_not_survive_crash() {
        let (_dir, path) = fresh("crash");
        {
            let mut s = IntrinsicStore::open(&path).unwrap();
            let o = s.alloc(Type::Int, Value::Int(1));
            s.set_handle("root", Type::Int, Value::Ref(o));
            s.commit().unwrap();
            // Uncommitted second transaction.
            s.update(o, Value::Int(2)).unwrap();
            // "crash": drop without commit. (Nothing was appended, but
            // even appended-without-marker records must not apply.)
        }
        let s = IntrinsicStore::open(&path).unwrap();
        let (_, v) = s.handle("root").unwrap();
        assert_eq!(s.get(v.as_ref_oid().unwrap()).unwrap().value, Value::Int(1));
    }

    #[test]
    fn abort_restores_last_commit() {
        let (_dir, path) = fresh("abort");
        let mut s = IntrinsicStore::open(&path).unwrap();
        let o = s.alloc(Type::Int, Value::Int(1));
        s.set_handle("root", Type::Int, Value::Ref(o));
        s.commit().unwrap();
        s.update(o, Value::Int(99)).unwrap();
        assert!(s.is_dirty());
        s.abort();
        assert!(!s.is_dirty());
        assert_eq!(s.get(o).unwrap().value, Value::Int(1));
    }

    #[test]
    fn sharing_is_preserved_no_update_anomaly() {
        // Two handles refer to the same object: an update through one is
        // visible through the other — the inverse of the replicating test.
        let (_dir, path) = fresh("sharing");
        let mut s = IntrinsicStore::open(&path).unwrap();
        let c = s.alloc(Type::Int, Value::Int(7));
        s.set_handle("a", Type::Top, Value::record([("c", Value::Ref(c))]));
        s.set_handle("b", Type::Top, Value::record([("c", Value::Ref(c))]));
        s.commit().unwrap();
        s.update(c, Value::Int(100)).unwrap();
        s.commit().unwrap();
        // Reopen and look through both handles.
        drop(s);
        let s = IntrinsicStore::open(&path).unwrap();
        for h in ["a", "b"] {
            let (_, v) = s.handle(h).unwrap();
            let o = v.field("c").unwrap().as_ref_oid().unwrap();
            assert_eq!(
                s.get(o).unwrap().value,
                Value::Int(100),
                "through handle {h}"
            );
        }
    }

    #[test]
    fn sweep_collects_unrooted_objects() {
        let (_dir, path) = fresh("sweep");
        let mut s = IntrinsicStore::open(&path).unwrap();
        let kept = s.alloc(Type::Int, Value::Int(1));
        let lost = s.alloc(Type::Int, Value::Int(2));
        s.set_handle("root", Type::Int, Value::Ref(kept));
        s.commit().unwrap();
        let dead = s.sweep();
        assert_eq!(dead, vec![lost]);
        s.commit().unwrap();
        drop(s);
        let s = IntrinsicStore::open(&path).unwrap();
        assert!(s.get(kept).is_ok());
        assert!(s.get(lost).is_err(), "deletion persisted");
    }

    #[test]
    fn removing_a_handle_releases_its_objects() {
        let (_dir, path) = fresh("unroot");
        let mut s = IntrinsicStore::open(&path).unwrap();
        let o = s.alloc(Type::Int, Value::Int(1));
        s.set_handle("root", Type::Int, Value::Ref(o));
        s.commit().unwrap();
        assert!(s.remove_handle("root"));
        let dead = s.sweep();
        assert_eq!(dead, vec![o]);
        s.commit().unwrap();
        drop(s);
        let s = IntrinsicStore::open(&path).unwrap();
        assert!(s.handle("root").is_none());
        assert_eq!(s.heap().len(), 0);
    }

    #[test]
    fn compaction_shrinks_the_log() {
        let (_dir, path) = fresh("compact");
        let mut s = IntrinsicStore::open(&path).unwrap();
        let o = s.alloc(Type::Str, Value::str("v".repeat(512)));
        s.set_handle("root", Type::Str, Value::Ref(o));
        for i in 0..50 {
            s.update(o, Value::str(format!("{i}").repeat(512))).unwrap();
            s.commit().unwrap();
        }
        let before = s.stored_bytes().unwrap();
        s.compact().unwrap();
        let after = s.stored_bytes().unwrap();
        assert!(after < before / 10, "compaction {before} -> {after}");
        drop(s);
        let s = IntrinsicStore::open(&path).unwrap();
        let (_, v) = s.handle("root").unwrap();
        let val = &s.get(v.as_ref_oid().unwrap()).unwrap().value;
        assert_eq!(val.as_str().unwrap().len(), 2 * 512);
    }

    #[test]
    fn torn_log_tail_recovers_to_last_commit() {
        let (_dir, path) = fresh("torn");
        {
            let mut s = IntrinsicStore::open(&path).unwrap();
            let o = s.alloc(Type::Int, Value::Int(1));
            s.set_handle("root", Type::Int, Value::Ref(o));
            s.commit().unwrap();
            s.update(o, Value::Int(2)).unwrap();
            s.commit().unwrap();
        }
        // Corrupt the tail: chop 3 bytes off the final commit frame.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);
        let s = IntrinsicStore::open(&path).unwrap();
        let (_, v) = s.handle("root").unwrap();
        assert_eq!(
            s.get(v.as_ref_oid().unwrap()).unwrap().value,
            Value::Int(1),
            "second transaction's torn commit ignored"
        );
        assert_eq!(s.txn(), 1);
        let rep = s.recovery_report();
        assert!(!rep.clean());
        assert_eq!(rep.recovered_txn, 1);
        assert!(rep.truncated_bytes > 0);
    }

    #[test]
    fn many_transactions_replay_in_order() {
        let (_dir, path) = fresh("many");
        {
            let mut s = IntrinsicStore::open(&path).unwrap();
            let o = s.alloc(Type::Int, Value::Int(0));
            s.set_handle("n", Type::Int, Value::Ref(o));
            for i in 1..=20 {
                s.update(o, Value::Int(i)).unwrap();
                s.commit().unwrap();
            }
        }
        let s = IntrinsicStore::open(&path).unwrap();
        let (_, v) = s.handle("n").unwrap();
        assert_eq!(
            s.get(v.as_ref_oid().unwrap()).unwrap().value,
            Value::Int(20)
        );
        assert_eq!(s.txn(), 20);
    }

    /// Build a two-transaction log, then splice an unknown-kind record
    /// (valid framing, bogus payload) between them.
    fn poisoned_log(name: &str) -> (TempDir, PathBuf) {
        let (dir, path) = fresh(name);
        {
            let mut s = IntrinsicStore::open(&path).unwrap();
            let o = s.alloc(Type::Int, Value::Int(1));
            s.set_handle("root", Type::Int, Value::Ref(o));
            s.commit().unwrap();
            s.update(o, Value::Int(2)).unwrap();
            s.commit().unwrap();
        }
        let replay = LogFile::replay(&path).unwrap();
        let records: Vec<&[u8]> = replay.records().collect();
        // Rewrite: txn-1 frames, a poison frame, then txn-2 frames.
        let boundary = records.iter().position(|r| r[0] == REC_COMMIT).unwrap() + 1;
        let _ = std::fs::remove_file(&path);
        let mut log = LogFile::open(&path).unwrap();
        for rec in &records[..boundary] {
            log.append(rec).unwrap();
        }
        log.append(b"?this is not a record").unwrap();
        for rec in &records[boundary..] {
            log.append(rec).unwrap();
        }
        log.sync().unwrap();
        (dir, path)
    }

    #[test]
    fn salvage_recovers_what_normal_open_rejects() {
        let (_dir, path) = poisoned_log("salvage");
        // Normal open refuses the unknown record…
        assert!(matches!(
            IntrinsicStore::open(&path),
            Err(PersistError::Malformed(_))
        ));
        // …salvage applies both transactions and reports the skip.
        let (s, report) = IntrinsicStore::open_salvage(&path).unwrap();
        assert!(s.is_read_only());
        assert_eq!(report.recovered_txn, 2);
        assert_eq!(report.skipped_records, 1);
        assert_eq!(report.gaps, 0);
        let (_, v) = s.handle("root").unwrap();
        assert_eq!(s.get(v.as_ref_oid().unwrap()).unwrap().value, Value::Int(2));
        // The damaged log itself is untouched by salvage.
        assert!(matches!(
            IntrinsicStore::open(&path),
            Err(PersistError::Malformed(_))
        ));
    }

    #[test]
    fn salvage_store_refuses_writes() {
        let (_dir, path) = poisoned_log("salvage-ro");
        let (mut s, _) = IntrinsicStore::open_salvage(&path).unwrap();
        s.set_handle("new", Type::Int, Value::Int(9)); // in-memory only
        assert!(matches!(s.commit(), Err(PersistError::ReadOnly(_))));
        assert!(matches!(s.compact(), Err(PersistError::ReadOnly(_))));
    }

    #[test]
    fn salvage_steps_over_mid_file_corruption() {
        let (_dir, path) = fresh("salvage-gap");
        {
            let mut s = IntrinsicStore::open(&path).unwrap();
            s.set_handle("a", Type::Int, Value::Int(1));
            s.commit().unwrap();
            s.set_handle("b", Type::Int, Value::Int(2));
            s.commit().unwrap();
        }
        // Flip bits inside the *first* transaction's handle record.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[10] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        // Normal open must *refuse*, not truncate: the damage is mid-file
        // and readable records follow it, so truncating would destroy
        // committed data that salvage can recover.
        match IntrinsicStore::open(&path) {
            Err(PersistError::Malformed(msg)) => {
                assert!(msg.contains("open_salvage"), "{msg}")
            }
            Err(other) => panic!("expected Malformed, got {other:?}"),
            Ok(s) => panic!("expected refusal, opened at txn {}", s.txn()),
        }
        assert_eq!(
            std::fs::read(&path).unwrap(),
            bytes,
            "the refused open left the damaged log untouched"
        );
        let (s, report) = IntrinsicStore::open_salvage(&path).unwrap();
        assert_eq!(report.recovered_txn, 2, "both commit markers found");
        assert!(report.lost_bytes > 0);
        assert_eq!(report.gaps, 1);
        assert!(s.handle("a").is_none(), "record inside the gap is lost");
        let (_, v) = s.handle("b").unwrap();
        assert_eq!(*v, Value::Int(2));
    }
}
