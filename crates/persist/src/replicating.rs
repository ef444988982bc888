//! Replicating persistence: explicit `extern`/`intern` of self-describing
//! dynamic values.
//!
//! "The second form of persistence is controlled by having program
//! instructions that move structures in and out of secondary (persistent)
//! storage. We shall call this *replicating* persistence since structures
//! are replicated in secondary storage." Amber is the paper's most
//! complete example, using dynamic types:
//!
//! ```text
//! extern('DBFile', dynamic d)         -- write a copy, with its type
//! var x = intern 'DBFile'             -- read a copy back
//! var d = coerce x to database        -- fails if the types don't match
//! ```
//!
//! Names like `DBFile` are **handles**; "the handle refers to a *copy* of
//! the data in the program". Consequences, all reproduced and tested here:
//!
//! * modifications made after an `extern` "will not survive the second
//!   intern operation" unless re-externed;
//! * two externed values that shared a third object now refer to
//!   "distinct copies", so updates through one are invisible through the
//!   other — the **update anomaly** — and the shared data is stored twice
//!   (**wasted storage**), both measured by experiment E3;
//! * concurrency requires the extern/intern operations on a handle to be
//!   synchronized — each handle carries a lock.

use crate::crc::fnv1a64;
use crate::error::PersistError;
use crate::format;
use crate::intrinsic::IntrinsicStore;
use crate::txn::{commit_multi, shared_log, CommitLog};
use crate::vfs::{retry_io, CountingVfs, RetryPolicy, StdVfs, Vfs};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use dbpl_values::{DynValue, Heap};

/// A directory of handle files, each holding one self-describing unit plus
/// the replicated closure of heap objects reachable from it, and the
/// commit log every unit write goes through ([`crate::txn`]).
pub struct ReplicatingStore {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    locks: Mutex<BTreeMap<String, Arc<Mutex<()>>>>,
    read_only: bool,
    /// Shared by every store open onto `dir` in this process.
    pub(crate) commit_log: Arc<Mutex<CommitLog>>,
}

/// Why a unit was quarantined instead of served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineReason {
    /// The unit's framing checksum failed: the bytes at rest changed
    /// after they were written (bit rot, torn write).
    ChecksumMismatch,
    /// The bytes do not decode as a unit at all (truncation, garbage,
    /// unknown version, I/O failure while reading).
    Undecodable,
}

impl QuarantineReason {
    /// Classify a decode failure.
    pub fn of(e: &PersistError) -> QuarantineReason {
        match e {
            PersistError::ChecksumMismatch { .. } => QuarantineReason::ChecksumMismatch,
            _ => QuarantineReason::Undecodable,
        }
    }
}

impl std::fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuarantineReason::ChecksumMismatch => write!(f, "checksum_mismatch"),
            QuarantineReason::Undecodable => write!(f, "undecodable"),
        }
    }
}

/// One unit the store refused to serve because its bytes do not decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineEntry {
    /// The handle (file stem) of the damaged unit.
    pub handle: String,
    /// Human-readable decode failure.
    pub cause: String,
    /// Machine-readable failure class.
    pub reason: QuarantineReason,
}

/// What a salvage open or bulk import skipped instead of failing on:
/// corrupt or undecodable units, quarantined so the rest of the store
/// stays queryable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QuarantineReport {
    /// The skipped units, in handle order.
    pub entries: Vec<QuarantineEntry>,
}

impl QuarantineReport {
    /// Number of quarantined units.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing was quarantined.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

fn is_safe_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '-' || c == '_'
}

impl ReplicatingStore {
    /// Open (creating) a store rooted at `dir`.
    pub fn open(dir: impl AsRef<Path>) -> Result<ReplicatingStore, PersistError> {
        ReplicatingStore::open_with(Arc::new(CountingVfs::new(StdVfs)), dir)
    }

    /// Open through an explicit [`Vfs`].
    pub fn open_with(
        vfs: Arc<dyn Vfs>,
        dir: impl AsRef<Path>,
    ) -> Result<ReplicatingStore, PersistError> {
        let dir = dir.as_ref().to_path_buf();
        retry_io(|| vfs.create_dir_all(&dir))?;
        let commit_log = shared_log(&*vfs, &dir)?;
        Ok(ReplicatingStore {
            vfs,
            dir,
            locks: Mutex::new(BTreeMap::new()),
            read_only: false,
            commit_log,
        })
    }

    /// Open the store read-only, quarantining every unit that does not
    /// decode instead of failing. The returned report names each skipped
    /// handle and why. Matches [`crate::IntrinsicStore::open_salvage`]:
    /// use it to triage a damaged store; mutations error with
    /// [`PersistError::ReadOnly`].
    pub fn open_salvage(
        dir: impl AsRef<Path>,
    ) -> Result<(ReplicatingStore, QuarantineReport), PersistError> {
        ReplicatingStore::open_salvage_with(Arc::new(CountingVfs::new(StdVfs)), dir)
    }

    /// Salvage-open through an explicit [`Vfs`].
    pub fn open_salvage_with(
        vfs: Arc<dyn Vfs>,
        dir: impl AsRef<Path>,
    ) -> Result<(ReplicatingStore, QuarantineReport), PersistError> {
        let mut store = ReplicatingStore::open_with(vfs, dir)?;
        store.read_only = true;
        let mut report = QuarantineReport::default();
        for path in store.unit_paths()? {
            let stem = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or_default()
                .to_string();
            let mut scratch = Heap::new();
            let outcome = match retry_io(|| store.vfs.read(&path)) {
                Ok(bytes) => ReplicatingStore::decode_unit(&bytes, &mut scratch).map(|_| ()),
                Err(e) => Err(e.into()),
            };
            if let Err(e) = outcome {
                report.entries.push(QuarantineEntry {
                    handle: stem,
                    cause: e.to_string(),
                    reason: QuarantineReason::of(&e),
                });
            }
        }
        Ok((store, report))
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The store's VFS (for co-located bookkeeping files like the commit
    /// log).
    pub(crate) fn vfs(&self) -> &Arc<dyn Vfs> {
        &self.vfs
    }

    /// Is this store read-only (salvage mode)?
    pub fn is_read_only(&self) -> bool {
        self.read_only
    }

    fn check_writable(&self, what: &str) -> Result<(), PersistError> {
        if self.read_only {
            Err(PersistError::ReadOnly(what.to_string()))
        } else {
            Ok(())
        }
    }

    fn unit_paths(&self) -> Result<Vec<PathBuf>, PersistError> {
        let mut out: Vec<PathBuf> = retry_io(|| self.vfs.read_dir(&self.dir))?
            .into_iter()
            .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("dyn"))
            .collect();
        out.sort();
        Ok(out)
    }

    fn handle_path(&self, handle: &str) -> PathBuf {
        // Encode the handle to a safe file name. Handles that are already
        // safe map to themselves; anything else gets its unsafe characters
        // replaced *and* an FNV-1a suffix of the original name, so that
        // distinct handles (`a/b` vs `a.b`) can never collide on one file.
        // The two classes stay disjoint: a sanitized stem always contains
        // `%`, which a safe stem never does.
        if !handle.is_empty() && handle.chars().all(is_safe_char) {
            self.dir.join(format!("{handle}.dyn"))
        } else {
            let safe: String = handle
                .chars()
                .map(|c| if is_safe_char(c) { c } else { '%' })
                .collect();
            self.dir
                .join(format!("{safe}%{:016x}.dyn", fnv1a64(handle.as_bytes())))
        }
    }

    fn lock_for(&self, handle: &str) -> Arc<Mutex<()>> {
        self.locks
            .lock()
            .entry(handle.to_string())
            .or_default()
            .clone()
    }

    /// Serialize a dynamic value plus the closure of heap objects
    /// reachable from it into one self-describing unit — the byte image
    /// that [`ReplicatingStore::extern_value`] writes. Pure: no I/O, so
    /// transactions can stage units long before anything touches disk.
    pub fn encode_unit(d: &DynValue, heap: &Heap) -> Result<Vec<u8>, PersistError> {
        // Replicate the reachable object graph into a private heap whose
        // oids are dense from zero, then serialize (DynValue, objects).
        let mut closure = Heap::new();
        let rewritten = heap.replicate_into(&d.value, &mut closure)?;
        let unit = DynValue::new(d.ty.clone(), rewritten);

        let mut payload = Vec::with_capacity(64);
        format::put_type(&mut payload, &unit.ty);
        format::put_value(&mut payload, &unit.value);
        format::put_u64(&mut payload, closure.len() as u64);
        for (oid, obj) in closure.iter() {
            format::put_u64(&mut payload, oid.0);
            format::put_type(&mut payload, &obj.ty);
            format::put_value(&mut payload, &obj.value);
        }
        // One frame over the whole unit — dynamic, closure and all — so
        // the checksum covers every byte the store will later serve.
        Ok(format::frame_unit(&payload))
    }

    /// Decode one unit's bytes, replicating its object closure into
    /// `heap` under fresh identities. Inverse of
    /// [`ReplicatingStore::encode_unit`].
    pub fn decode_unit(buf: &[u8], heap: &mut Heap) -> Result<DynValue, PersistError> {
        ReplicatingStore::decode_unit_framed(buf, heap).map(|(_, d)| d)
    }

    /// [`ReplicatingStore::decode_unit`], also returning the framing
    /// header (format version and trace-origin ids).
    pub fn decode_unit_framed(
        buf: &[u8],
        heap: &mut Heap,
    ) -> Result<(format::UnitHeader, DynValue), PersistError> {
        let (header, payload) = format::unframe_unit(buf)?;
        let mut r = format::Reader::new(payload);
        let ty = r.ty()?;
        let value = r.value()?;
        let n = r.u64()? as usize;
        let mut stored = Heap::new();
        for _ in 0..n {
            let oid = dbpl_values::Oid(r.u64()?);
            let t = r.ty()?;
            let v = r.value()?;
            stored.insert_at(oid, t, v);
        }
        if r.remaining() != 0 {
            return Err(PersistError::Malformed(
                "trailing bytes after handle unit".into(),
            ));
        }
        let fresh = stored.replicate_into(&value, heap)?;
        Ok((header, DynValue::new(ty, fresh)))
    }

    /// Durably install pre-encoded unit bytes under `handle`: one
    /// commit-log record, then the unit file itself.
    pub fn install_unit(&self, handle: &str, bytes: &[u8]) -> Result<(), PersistError> {
        self.check_writable("install_unit")?;
        self.log_write(handle, Some(bytes.to_vec()))
    }

    /// One unit write as its own commit through the log.
    fn log_write(&self, handle: &str, unit: Option<Vec<u8>>) -> Result<(), PersistError> {
        let externs = BTreeMap::from([(handle.to_string(), unit)]);
        commit_multi(None, self, &externs, &RetryPolicy::default()).map(|_| ())
    }

    /// Apply a logged install: write the unit to a temporary file and
    /// rename it into place, so a reader sees the old complete unit or
    /// the new one. Nothing is fsynced — the commit log covers the unit
    /// until the next checkpoint syncs it. Idempotent, so replay can
    /// repeat it.
    pub(crate) fn put_unit(
        &self,
        log: &mut CommitLog,
        handle: &str,
        bytes: &[u8],
    ) -> Result<(), PersistError> {
        let mut sp = dbpl_obs::span!("store.extern");
        sp.set_attr("handle", handle);
        sp.set_attr("bytes", bytes.len());
        let guard = self.lock_for(handle);
        let _held = guard.lock();
        let path = self.handle_path(handle);
        let tmp = path.with_extension("tmp");
        retry_io(|| self.vfs.write(&tmp, bytes))?;
        retry_io(|| self.vfs.rename(&tmp, &path))?;
        log.unit_installed(path);
        Ok(())
    }

    /// Apply a logged removal; "already gone" is fine, so replay can
    /// repeat it.
    pub(crate) fn drop_unit(&self, log: &mut CommitLog, handle: &str) -> Result<(), PersistError> {
        let guard = self.lock_for(handle);
        let _held = guard.lock();
        let path = self.handle_path(handle);
        match retry_io(|| self.vfs.remove_file(&path)) {
            Ok(()) => log.unit_removed(&path),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        Ok(())
    }

    /// `extern(handle, dynamic d)`: replicate to secondary storage the
    /// value **and everything reachable from it** in `heap`. The stored
    /// bytes are a *copy*: later heap mutations do not affect them.
    pub fn extern_value(
        &self,
        handle: &str,
        d: &DynValue,
        heap: &Heap,
    ) -> Result<(), PersistError> {
        self.check_writable("extern")?;
        let bytes = ReplicatingStore::encode_unit(d, heap)?;
        self.log_write(handle, Some(bytes))
    }

    /// `intern handle`: read the stored unit back, replicating its object
    /// closure into `heap` under **fresh identities**, and return the
    /// dynamic value. Two interns of the same handle produce two
    /// independent copies.
    pub fn intern(&self, handle: &str, heap: &mut Heap) -> Result<DynValue, PersistError> {
        let mut sp = dbpl_obs::span!("store.intern");
        sp.set_attr("handle", handle);
        let guard = self.lock_for(handle);
        let _held = guard.lock();
        let path = self.handle_path(handle);
        let buf = match retry_io(|| self.vfs.read(&path)) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(PersistError::UnknownHandle(handle.to_string()))
            }
            Err(e) => return Err(e.into()),
        };
        let (header, d) = ReplicatingStore::decode_unit_framed(&buf, heap)?;
        // Cross-process stitching: the unit remembers the trace that
        // externed it; surface that origin on this intern's span.
        if header.trace_id != 0 {
            sp.set_attr("origin_trace_id", header.trace_id);
            sp.set_attr("origin_span_id", header.span_id);
        }
        Ok(d)
    }

    /// Intern every decodable unit in the store, quarantining the rest.
    ///
    /// Operates at the file level (stems, which for sanitized handles are
    /// the encoded names), so it works even for handles whose original
    /// spelling cannot be recovered from the file name. Returns the good
    /// `(stem, value)` pairs in stem order plus a report of everything
    /// skipped — the graceful-degradation path: one rotten unit no longer
    /// poisons a whole-store import.
    pub fn intern_all(&self, heap: &mut Heap) -> (Vec<(String, DynValue)>, QuarantineReport) {
        let mut good = Vec::new();
        let mut report = QuarantineReport::default();
        let paths = match self.unit_paths() {
            Ok(p) => p,
            Err(e) => {
                report.entries.push(QuarantineEntry {
                    handle: "<store directory>".to_string(),
                    cause: e.to_string(),
                    reason: QuarantineReason::Undecodable,
                });
                return (good, report);
            }
        };
        for path in paths {
            let stem = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or_default()
                .to_string();
            let outcome = match retry_io(|| self.vfs.read(&path)) {
                Ok(bytes) => ReplicatingStore::decode_unit(&bytes, heap),
                Err(e) => Err(e.into()),
            };
            match outcome {
                Ok(d) => good.push((stem, d)),
                Err(e) => report.entries.push(QuarantineEntry {
                    handle: stem,
                    cause: e.to_string(),
                    reason: QuarantineReason::of(&e),
                }),
            }
        }
        (good, report)
    }

    /// List the stored handles (file stems; handles whose names needed
    /// sanitizing appear in their encoded form).
    pub fn handles(&self) -> Result<Vec<String>, PersistError> {
        let mut out = Vec::new();
        for p in retry_io(|| self.vfs.read_dir(&self.dir))? {
            if p.extension().and_then(|e| e.to_str()) == Some("dyn") {
                if let Some(stem) = p.file_stem().and_then(|s| s.to_str()) {
                    out.push(stem.to_string());
                }
            }
        }
        out.sort();
        Ok(out)
    }

    /// Does a handle exist?
    pub fn exists(&self, handle: &str) -> bool {
        self.vfs.exists(&self.handle_path(handle))
    }

    /// Remove a handle (durably: through the commit log).
    pub fn remove(&self, handle: &str) -> Result<(), PersistError> {
        self.check_writable("remove")?;
        if !self.exists(handle) {
            return Err(PersistError::UnknownHandle(handle.to_string()));
        }
        self.log_write(handle, None)
    }

    /// Stored size in bytes of one handle — the measure of the paper's
    /// "wasted storage" when shared structures are replicated per handle.
    pub fn stored_bytes(&self, handle: &str) -> Result<u64, PersistError> {
        Ok(retry_io(|| self.vfs.len(&self.handle_path(handle)))?)
    }

    /// Probe whether the underlying storage currently accepts writes — a
    /// tiny write-then-remove in the store directory. Used to detect
    /// recovery from a disk-full condition before re-enabling commits.
    pub fn probe_writable(&self) -> Result<(), PersistError> {
        self.check_writable("probe")?;
        let probe = self.dir.join(".dbpl-probe.tmp");
        retry_io(|| self.vfs.write(&probe, b"probe"))?;
        let _ = self.vfs.remove_file(&probe);
        Ok(())
    }

    /// Verify every unit in the store in bounded batches, read-repairing
    /// what it can, and check every commit-log frame. See [`ScrubReport`]
    /// for what comes back.
    ///
    /// Each unit is fully decoded into a scratch heap, which verifies
    /// the version-2 framing checksum (and structurally validates legacy
    /// version-1 units, which carry none). A unit that fails is counted
    /// corrupt; when `replica` holds a handle of the same name — the
    /// intrinsic↔replicating pairing a [`crate::txn::commit_multi`]
    /// session maintains — the damaged copy is re-encoded from the
    /// replica's healthy value and durably reinstalled. Units that are
    /// corrupt with no repair source end up in
    /// [`ScrubReport::corrupt`], ready to quarantine, as does a damaged
    /// commit log (under its file name, [`crate::txn::COMMIT_LOG`]).
    /// Read-only (salvage) stores verify but never repair.
    ///
    /// Counters: `scrub.verified`, `scrub.corrupt`, `scrub.repaired`.
    /// Span tree: `scrub` → one `scrub.batch` per [`SCRUB_BATCH`] units.
    pub fn scrub(&self, replica: Option<&IntrinsicStore>) -> ScrubReport {
        let mut sp = dbpl_obs::span!("scrub");
        let mut report = ScrubReport::default();
        if let Some(damage) = crate::txn::scrub_log(self) {
            crate::metrics::scrub_corrupt().inc();
            report.corrupt.push(damage);
        }
        let paths = match self.unit_paths() {
            Ok(p) => p,
            Err(e) => {
                report.corrupt.push(QuarantineEntry {
                    handle: "<store directory>".to_string(),
                    cause: e.to_string(),
                    reason: QuarantineReason::Undecodable,
                });
                return report;
            }
        };
        // Map unit files back to the replica's handle spelling, so
        // sanitized file names still find their repair source.
        let repair_map: BTreeMap<PathBuf, &String> = replica
            .map(|r| {
                r.handles()
                    .keys()
                    .map(|name| (self.handle_path(name), name))
                    .collect()
            })
            .unwrap_or_default();
        for batch in paths.chunks(SCRUB_BATCH) {
            let mut bsp = dbpl_obs::span!("scrub.batch");
            bsp.set_attr("units", batch.len());
            for path in batch {
                report.scanned += 1;
                let stem = path
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .unwrap_or_default()
                    .to_string();
                let mut scratch = Heap::new();
                let outcome = match retry_io(|| self.vfs.read(path)) {
                    Ok(bytes) => ReplicatingStore::decode_unit(&bytes, &mut scratch).map(|_| ()),
                    Err(e) => Err(e.into()),
                };
                let e = match outcome {
                    Ok(()) => {
                        report.verified += 1;
                        crate::metrics::scrub_verified().inc();
                        continue;
                    }
                    Err(e) => e,
                };
                crate::metrics::scrub_corrupt().inc();
                if !self.read_only {
                    if let (Some(r), Some(&name)) = (replica, repair_map.get(path)) {
                        if let Some((ty, v)) = r.handle(name) {
                            let healthy = DynValue::new(ty.clone(), v.clone());
                            let reinstall = ReplicatingStore::encode_unit(&healthy, r.heap())
                                .and_then(|bytes| self.install_unit(name, &bytes));
                            if reinstall.is_ok() {
                                crate::metrics::scrub_repaired().inc();
                                report.repaired.push(name.clone());
                                continue;
                            }
                        }
                    }
                }
                report.corrupt.push(QuarantineEntry {
                    handle: stem,
                    cause: e.to_string(),
                    reason: QuarantineReason::of(&e),
                });
            }
        }
        sp.set_attr("scanned", report.scanned);
        sp.set_attr("verified", report.verified);
        sp.set_attr("corrupt", report.corrupt.len());
        sp.set_attr("repaired", report.repaired.len());
        dbpl_obs::emit(dbpl_obs::Event::ScrubReport {
            scanned: report.scanned as u64,
            verified: report.verified as u64,
            corrupt: report.corrupt.len() as u64,
            repaired: report.repaired.len() as u64,
        });
        report
    }
}

/// Units per `scrub.batch` span — bounds how much work (and memory) one
/// scrub step takes before yielding a progress boundary.
pub const SCRUB_BATCH: usize = 64;

/// What a [`ReplicatingStore::scrub`] pass found and fixed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Units examined.
    pub scanned: usize,
    /// Units whose bytes verified clean.
    pub verified: usize,
    /// Units found corrupt and **not** repaired — quarantine these.
    pub corrupt: Vec<QuarantineEntry>,
    /// Handles found corrupt and rebuilt from the intrinsic replica.
    pub repaired: Vec<String>,
}

impl ScrubReport {
    /// True when every unit verified clean (nothing corrupt, nothing
    /// needing repair).
    pub fn is_clean(&self) -> bool {
        self.corrupt.is_empty() && self.repaired.is_empty()
    }

    /// One-line human summary, `scrub: scanned=… verified=… …`.
    pub fn summary(&self) -> String {
        format!(
            "scrub: scanned={} verified={} corrupt={} repaired={}",
            self.scanned,
            self.verified,
            self.corrupt.len(),
            self.repaired.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TempDir;
    use dbpl_types::Type;
    use dbpl_values::Value;

    /// A store over a fresh directory, removed when the guard drops.
    fn store(name: &str) -> (TempDir, ReplicatingStore) {
        let dir = TempDir::new(&format!("repl-{name}")).unwrap();
        let s = ReplicatingStore::open(&dir).unwrap();
        (dir, s)
    }

    #[test]
    fn extern_intern_roundtrip_plain_value() {
        let (_dir, s) = store("plain");
        let heap = Heap::new();
        let d = DynValue::new(Type::Int, Value::Int(42));
        s.extern_value("X", &d, &heap).unwrap();
        let mut h2 = Heap::new();
        let back = s.intern("X", &mut h2).unwrap();
        assert_eq!(back, d);
        assert_eq!(s.handles().unwrap(), vec!["X".to_string()]);
    }

    #[test]
    fn unknown_handle_errors() {
        let (_dir, s) = store("unknown");
        let mut heap = Heap::new();
        assert!(matches!(
            s.intern("Ghost", &mut heap),
            Err(PersistError::UnknownHandle(_))
        ));
        assert!(matches!(
            s.remove("Ghost"),
            Err(PersistError::UnknownHandle(_))
        ));
    }

    #[test]
    fn paper_example_modifications_do_not_survive_reintern() {
        // var x = intern 'DBFile'; -- code that modifies x --
        // x = intern 'DBFile';  => the modifications are gone.
        let (_dir, s) = store("reintern");
        let mut heap = Heap::new();
        let o = heap.alloc(Type::Int, Value::Int(1));
        let d = DynValue::new(Type::Top, Value::Ref(o));
        s.extern_value("DBFile", &d, &heap).unwrap();

        let x = s.intern("DBFile", &mut heap).unwrap();
        let xo = x.value.as_ref_oid().unwrap();
        heap.update(xo, Value::Int(99)).unwrap(); // modify the copy
        let x2 = s.intern("DBFile", &mut heap).unwrap(); // re-intern
        let xo2 = x2.value.as_ref_oid().unwrap();
        assert_eq!(
            heap.get(xo2).unwrap().value,
            Value::Int(1),
            "modification lost"
        );
    }

    #[test]
    fn update_anomaly_shared_value_diverges() {
        // a and b both refer to c; extern both; updates through a's copy
        // of c are invisible through b's copy.
        let (_dir, s) = store("anomaly");
        let mut heap = Heap::new();
        let c = heap.alloc(Type::Int, Value::Int(7));
        let a = DynValue::new(Type::Top, Value::record([("c", Value::Ref(c))]));
        let b = DynValue::new(Type::Top, Value::record([("c", Value::Ref(c))]));
        s.extern_value("A", &a, &heap).unwrap();
        s.extern_value("B", &b, &heap).unwrap();

        let mut h2 = Heap::new();
        let ia = s.intern("A", &mut h2).unwrap();
        let ib = s.intern("B", &mut h2).unwrap();
        let ca = ia.value.field("c").unwrap().as_ref_oid().unwrap();
        let cb = ib.value.field("c").unwrap().as_ref_oid().unwrap();
        assert_ne!(ca, cb, "the shared object was split into two copies");
        h2.update(ca, Value::Int(100)).unwrap();
        assert_eq!(h2.get(cb).unwrap().value, Value::Int(7), "update anomaly");
    }

    #[test]
    fn wasted_storage_is_observable() {
        // A large shared payload is stored once per handle.
        let (_dir, s) = store("waste");
        let mut heap = Heap::new();
        let big = heap.alloc(Type::Str, Value::str("x".repeat(10_000)));
        let a = DynValue::new(Type::Top, Value::record([("p", Value::Ref(big))]));
        let b = DynValue::new(Type::Top, Value::record([("p", Value::Ref(big))]));
        s.extern_value("A", &a, &heap).unwrap();
        s.extern_value("B", &b, &heap).unwrap();
        let total = s.stored_bytes("A").unwrap() + s.stored_bytes("B").unwrap();
        assert!(total > 20_000, "payload duplicated: {total} bytes");
    }

    #[test]
    fn extern_carries_the_reachable_closure() {
        // "it carries with it everything that is reachable from that value"
        let (_dir, s) = store("closure");
        let mut heap = Heap::new();
        let inner = heap.alloc(Type::Int, Value::Int(5));
        let outer = heap.alloc(Type::Top, Value::record([("inner", Value::Ref(inner))]));
        let d = DynValue::new(Type::Top, Value::Ref(outer));
        s.extern_value("G", &d, &heap).unwrap();
        // A fresh program (fresh heap) sees the whole graph.
        let mut h2 = Heap::new();
        let g = s.intern("G", &mut h2).unwrap();
        let o = g.value.as_ref_oid().unwrap();
        let i = h2
            .get(o)
            .unwrap()
            .value
            .field("inner")
            .unwrap()
            .as_ref_oid()
            .unwrap();
        assert_eq!(h2.get(i).unwrap().value, Value::Int(5));
    }

    #[test]
    fn extern_is_atomic_replace() {
        let (_dir, s) = store("atomic");
        let heap = Heap::new();
        s.extern_value("H", &DynValue::new(Type::Int, Value::Int(1)), &heap)
            .unwrap();
        s.extern_value("H", &DynValue::new(Type::Int, Value::Int(2)), &heap)
            .unwrap();
        let mut h2 = Heap::new();
        assert_eq!(s.intern("H", &mut h2).unwrap().value, Value::Int(2));
    }

    #[test]
    fn handles_with_odd_names_are_sanitized() {
        let (_dir, s) = store("odd");
        let heap = Heap::new();
        s.extern_value("a/b c", &DynValue::new(Type::Int, Value::Int(3)), &heap)
            .unwrap();
        let mut h2 = Heap::new();
        assert_eq!(s.intern("a/b c", &mut h2).unwrap().value, Value::Int(3));
    }

    #[test]
    fn sanitized_names_cannot_collide() {
        // Regression: `a/b` and `a.b` both used to sanitize to `a%b.dyn`,
        // so externing one silently clobbered the other.
        let (_dir, s) = store("collide");
        let heap = Heap::new();
        for (i, h) in ["a/b", "a.b", "a b", "a%b"].iter().enumerate() {
            s.extern_value(h, &DynValue::new(Type::Int, Value::Int(i as i64)), &heap)
                .unwrap();
        }
        let mut h2 = Heap::new();
        for (i, h) in ["a/b", "a.b", "a b", "a%b"].iter().enumerate() {
            assert_eq!(
                s.intern(h, &mut h2).unwrap().value,
                Value::Int(i as i64),
                "handle {h} kept its own value"
            );
        }
        assert_eq!(s.handles().unwrap().len(), 4, "four distinct files");
        // A safe handle never collides with a sanitized one either.
        s.extern_value("ab", &DynValue::new(Type::Int, Value::Int(9)), &heap)
            .unwrap();
        assert_eq!(s.intern("a/b", &mut h2).unwrap().value, Value::Int(0));
    }

    #[test]
    fn salvage_open_quarantines_corrupt_units_and_is_read_only() {
        let (_dir, s) = store("salvage");
        let heap = Heap::new();
        s.extern_value("good", &DynValue::new(Type::Int, Value::Int(1)), &heap)
            .unwrap();
        s.extern_value("bad", &DynValue::new(Type::Int, Value::Int(2)), &heap)
            .unwrap();
        // Rot the second unit.
        let bad_path = s.dir().join("bad.dyn");
        let mut bytes = std::fs::read(&bad_path).unwrap();
        bytes.truncate(bytes.len() / 2);
        std::fs::write(&bad_path, &bytes).unwrap();

        let (ro, report) = ReplicatingStore::open_salvage(s.dir()).unwrap();
        assert!(ro.is_read_only());
        assert_eq!(report.len(), 1);
        assert_eq!(report.entries[0].handle, "bad");
        assert!(!report.entries[0].cause.is_empty());
        // The good unit still reads; mutations are refused.
        let mut h2 = Heap::new();
        assert_eq!(ro.intern("good", &mut h2).unwrap().value, Value::Int(1));
        assert!(matches!(
            ro.extern_value("x", &DynValue::new(Type::Int, Value::Int(0)), &h2),
            Err(PersistError::ReadOnly(_))
        ));
        assert!(matches!(ro.remove("good"), Err(PersistError::ReadOnly(_))));
    }

    #[test]
    fn intern_all_skips_undecodable_units() {
        let (_dir, s) = store("intern-all");
        let heap = Heap::new();
        s.extern_value("a", &DynValue::new(Type::Int, Value::Int(10)), &heap)
            .unwrap();
        s.extern_value("b", &DynValue::new(Type::Int, Value::Int(20)), &heap)
            .unwrap();
        std::fs::write(s.dir().join("b.dyn"), b"not a unit").unwrap();
        let mut h2 = Heap::new();
        let (good, report) = s.intern_all(&mut h2);
        assert_eq!(good.len(), 1);
        assert_eq!(good[0].0, "a");
        assert_eq!(good[0].1.value, Value::Int(10));
        assert_eq!(report.len(), 1);
        assert_eq!(report.entries[0].handle, "b");
    }

    #[test]
    fn encode_install_matches_extern_and_remove_undoes_it() {
        let (_dir, s) = store("staged");
        let heap = Heap::new();
        let d = DynValue::new(Type::Int, Value::Int(77));
        let bytes = ReplicatingStore::encode_unit(&d, &heap).unwrap();
        s.install_unit("staged", &bytes).unwrap();
        let mut h2 = Heap::new();
        assert_eq!(s.intern("staged", &mut h2).unwrap(), d);
        s.remove("staged").unwrap();
        assert!(!s.exists("staged"));
        assert!(matches!(
            s.remove("staged"),
            Err(PersistError::UnknownHandle(_))
        ));
    }

    #[test]
    fn remove_then_listing_and_exists_agree() {
        let (_dir, s) = store("remove");
        let heap = Heap::new();
        s.extern_value("keep", &DynValue::new(Type::Int, Value::Int(1)), &heap)
            .unwrap();
        s.extern_value("drop", &DynValue::new(Type::Int, Value::Int(2)), &heap)
            .unwrap();
        assert!(s.exists("drop"));
        s.remove("drop").unwrap();
        assert!(!s.exists("drop"));
        assert_eq!(s.handles().unwrap(), vec!["keep".to_string()]);
    }
}
