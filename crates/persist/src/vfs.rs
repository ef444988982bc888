//! A pluggable virtual file system for the persistence layer.
//!
//! Every byte the stores read or write goes through a [`Vfs`]
//! implementation. Production code uses [`StdVfs`], a thin veneer over
//! `std::fs` that adds the directory-fsync primitive POSIX durability
//! requires. Tests use [`SimVfs`], an in-memory file system that models
//! *exactly* what survives a power failure:
//!
//! * data written but not `sync_data`'d may be lost — or torn, with only
//!   an arbitrary prefix surviving;
//! * a `rename` (or create, or remove) is not durable until the parent
//!   directory is `sync_dir`'d — the classic "file vanished after rename"
//!   crash bug;
//! * a [`FaultPlan`] injects deterministic faults from a seed: crash at
//!   the Nth operation (with torn final write), transient `Interrupted`
//!   errors that well-behaved callers absorb with [`retry_io`], a full
//!   disk (`StorageFull` on every write-kind operation) from the Nth
//!   operation until space "returns", and media bit rot that flips a
//!   seed-chosen bit of a file as it is read.
//!
//! The crash-simulation harness in [`crate::sim`] drives scripted
//! workloads over `SimVfs`, crashing at *every* I/O boundary and checking
//! that recovery always lands on a committed prefix of history.

use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An open file handle for appending.
pub trait VfsFile: Send {
    /// Append `data` at the end of the file.
    fn write_all(&mut self, data: &[u8]) -> io::Result<()>;
    /// Make everything written so far durable (fsync of file data).
    fn sync_data(&mut self) -> io::Result<()>;
}

/// The file-system operations the persistence layer needs.
///
/// All paths are interpreted by the implementation; [`StdVfs`] maps them
/// to the real file system, [`SimVfs`] to an in-memory image.
pub trait Vfs: Send + Sync {
    /// Open (creating if needed) `path` for appending.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Read the entire contents of `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Create or replace `path` with exactly `data`.
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()>;
    /// fsync the contents of an existing file by path.
    fn sync_file(&self, path: &Path) -> io::Result<()>;
    /// fsync a directory, making renames/creates/removes within it durable.
    fn sync_dir(&self, path: &Path) -> io::Result<()>;
    /// Atomically rename `from` to `to` (replacing `to` if present).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Truncate (or extend) `path` to `len` bytes.
    fn set_len(&self, path: &Path, len: u64) -> io::Result<()>;
    /// Remove a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Create a directory and any missing parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// List the files in a directory.
    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>>;
    /// Does `path` exist?
    fn exists(&self, path: &Path) -> bool;
    /// Length of the file at `path` in bytes.
    fn len(&self, path: &Path) -> io::Result<u64>;
    /// Identify the directory `dir`: a file-system instance number (0
    /// for the host's file system) and the directory's canonical path.
    /// Two handles onto one directory — through this VFS or another onto
    /// the same file system — get equal ids, so stores can share their
    /// per-directory state (the commit log).
    fn dir_id(&self, dir: &Path) -> (u64, PathBuf);
}

/// A bounded retry/backoff policy for transient I/O faults, optionally
/// bounded by a wall-clock deadline (the per-transaction commit deadline).
///
/// `Interrupted` errors are retried up to `max_attempts` times with
/// exponential backoff from `base_delay`; anything else — explicitly
/// including `StorageFull` (ENOSPC), which no amount of retrying can
/// clear — is returned immediately, on the first attempt. When a
/// `deadline` is set, the policy stops retrying — and
/// [`RetryPolicy::expired`] reports true — once the deadline has passed,
/// so a commit stuck behind a fault storm fails in bounded time instead
/// of hanging.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts (first try included).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles on each subsequent one.
    pub base_delay: Duration,
    /// Give up (and stop starting new retries) past this instant.
    pub deadline: Option<Instant>,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_micros(50),
            deadline: None,
        }
    }
}

impl RetryPolicy {
    /// The default policy bounded by a deadline.
    pub fn with_deadline(deadline: Instant) -> RetryPolicy {
        RetryPolicy {
            deadline: Some(deadline),
            ..RetryPolicy::default()
        }
    }

    /// Has the deadline passed?
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Run `f` under this policy. Retries count into `io.retries` and
    /// emit a generic `retry` event (op `"io"`); use
    /// [`RetryPolicy::run_named`] where a meaningful operation name is
    /// available.
    pub fn run<T>(&self, f: impl FnMut() -> io::Result<T>) -> io::Result<T> {
        self.run_named("io", f)
    }

    /// [`RetryPolicy::run`] with an operation name attached to the
    /// retry events it emits.
    pub fn run_named<T>(&self, op: &str, mut f: impl FnMut() -> io::Result<T>) -> io::Result<T> {
        let mut delay = self.base_delay;
        for attempt in 1..self.max_attempts {
            if self.expired() {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "transaction deadline exceeded",
                ));
            }
            match f() {
                // A full disk is not transient: retrying burns the
                // budget (and wall-clock backoff) on a fault that only
                // an operator or a space-freeing sweep can clear. Fatal,
                // first attempt. Listed before the transient arm so the
                // classification is explicit, not incidental.
                Err(e) if e.kind() == io::ErrorKind::StorageFull => return Err(e),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                    crate::metrics::io_retries().inc();
                    dbpl_obs::emit(dbpl_obs::Event::Retry {
                        op: op.to_string(),
                        attempt: attempt as u64,
                    });
                    std::thread::sleep(delay);
                    delay *= 2;
                }
                other => return other,
            }
        }
        // The final attempt honors the deadline too: a commit must not
        // start its durability write after the transaction's budget ran
        // out just because the retry loop happened to be on its last lap.
        if self.expired() {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "transaction deadline exceeded",
            ));
        }
        f()
    }
}

/// Retry `f` a bounded number of times on transient (`Interrupted`)
/// errors, with exponential backoff. Any other outcome is returned
/// immediately. This is the layer that absorbs the "short read / failed
/// fsync once" class of fault without compromising on real errors.
/// Shorthand for running under [`RetryPolicy::default`].
pub fn retry_io<T>(f: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    RetryPolicy::default().run(f)
}

// ---------------------------------------------------------------------------
// StdVfs
// ---------------------------------------------------------------------------

/// The production VFS: `std::fs`, plus directory fsync.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdVfs;

/// Unbuffered: a write reaches the OS before it returns, so other
/// readers of the file see it, and a failed one leaves nothing behind to
/// be written later. Callers batch their own writes ([`crate::LogFile`]).
struct StdFile(std::fs::File);

impl VfsFile for StdFile {
    fn write_all(&mut self, data: &[u8]) -> io::Result<()> {
        use std::io::Write;
        self.0.write_all(data)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }
}

impl Vfs for StdVfs {
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Box::new(StdFile(f)))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        std::fs::write(path, data)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        std::fs::File::open(path)?.sync_data()
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        let dir = if path.as_os_str().is_empty() {
            Path::new(".")
        } else {
            path
        };
        // Windows cannot open directories as files; directory durability
        // is best-effort there.
        match std::fs::File::open(dir) {
            Ok(d) => d.sync_data().or(Ok(())),
            Err(_) if cfg!(windows) => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn set_len(&self, path: &Path, len: u64) -> io::Result<()> {
        std::fs::OpenOptions::new()
            .write(true)
            .open(path)?
            .set_len(len)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(path)? {
            out.push(entry?.path());
        }
        out.sort();
        Ok(out)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        Ok(std::fs::metadata(path)?.len())
    }

    fn dir_id(&self, dir: &Path) -> (u64, PathBuf) {
        (
            0,
            std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf()),
        )
    }
}

// ---------------------------------------------------------------------------
// CountingVfs
// ---------------------------------------------------------------------------

/// A [`Vfs`] wrapper that counts operations into the global
/// [`dbpl_obs`] registry — `vfs.reads` / `vfs.writes` / `vfs.fsyncs`
/// (file and directory syncs) / `vfs.renames` — then delegates to the
/// wrapped implementation. Cheap enough for production: one relaxed
/// atomic add per counted operation, nothing on the uncounted ones.
/// The default store opens wrap [`StdVfs`] in this.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingVfs<V: Vfs = StdVfs> {
    inner: V,
}

impl<V: Vfs> CountingVfs<V> {
    /// Wrap `inner`, counting its operations.
    pub fn new(inner: V) -> CountingVfs<V> {
        CountingVfs { inner }
    }
}

/// A file handle whose writes and data syncs are counted.
struct CountingFile(Box<dyn VfsFile>);

impl VfsFile for CountingFile {
    fn write_all(&mut self, data: &[u8]) -> io::Result<()> {
        crate::metrics::vfs_writes().inc();
        let mut sp = dbpl_obs::span!("vfs.write");
        sp.set_attr("bytes", data.len());
        self.0.write_all(data)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        crate::metrics::vfs_fsyncs().inc();
        let _sp = dbpl_obs::span!("vfs.fsync");
        self.0.sync_data()
    }
}

impl<V: Vfs> Vfs for CountingVfs<V> {
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(CountingFile(self.inner.open_append(path)?)))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        crate::metrics::vfs_reads().inc();
        let mut sp = dbpl_obs::span!("vfs.read");
        let data = self.inner.read(path)?;
        sp.set_attr("bytes", data.len());
        Ok(data)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        crate::metrics::vfs_writes().inc();
        let mut sp = dbpl_obs::span!("vfs.write");
        sp.set_attr("bytes", data.len());
        self.inner.write(path, data)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        crate::metrics::vfs_fsyncs().inc();
        let _sp = dbpl_obs::span!("vfs.fsync");
        self.inner.sync_file(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        crate::metrics::vfs_fsyncs().inc();
        let _sp = dbpl_obs::span!("vfs.fsync");
        self.inner.sync_dir(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        crate::metrics::vfs_renames().inc();
        let _sp = dbpl_obs::span!("vfs.rename");
        self.inner.rename(from, to)
    }

    fn set_len(&self, path: &Path, len: u64) -> io::Result<()> {
        self.inner.set_len(path, len)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.read_dir(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        self.inner.len(path)
    }

    fn dir_id(&self, dir: &Path) -> (u64, PathBuf) {
        self.inner.dir_id(dir)
    }
}

// ---------------------------------------------------------------------------
// Deterministic fault injection
// ---------------------------------------------------------------------------

/// A deterministic fault-injection plan for [`SimVfs`], derived from a
/// seed. The same plan over the same workload produces the same faults.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultPlan {
    /// Seed for torn-write lengths and transient-fault placement.
    pub seed: u64,
    /// Simulate a power failure when the operation counter reaches this
    /// (1-based) value. A crash during a write leaves a torn prefix.
    pub crash_at_op: Option<u64>,
    /// If `Some(n)`, roughly one in `n` operations fails once with a
    /// transient `Interrupted` error (before any side effect), modelling
    /// short reads and fsyncs that must be retried.
    pub transient_one_in: Option<u64>,
    /// If `Some(n)`, the disk is full from the `n`th operation (1-based)
    /// onward: every write-kind operation (`append`, `write`,
    /// `set_len`) fails with `StorageFull` before any side effect, until
    /// the plan is replaced ([`SimVfs::set_plan`] models space coming
    /// back). Reads keep working — disk-full machines stay readable.
    pub enospc_at_op: Option<u64>,
    /// If `Some(n)`, the first `append` at or after the `n`th operation
    /// (1-based) writes only the first half of its bytes and then fails
    /// with `StorageFull` — a disk that fills up partway through a
    /// write. Once: later appends succeed.
    pub short_append_at_op: Option<u64>,
    /// If `Some(n)`, roughly one in `n` `read` operations first flips
    /// one seed-chosen bit of the file being read — media decay. The
    /// flip is persistent: it lands in both the live and the synced
    /// image, so it survives crashes and re-reads until rewritten.
    pub bit_rot_one_in: Option<u64>,
    /// If `Some(n)`, every fsync-kind operation (`sync_data`,
    /// `sync_file`, `sync_dir`) fails from the `n`th operation (1-based)
    /// onward with a *non-transient* error, until the plan is replaced.
    /// Models a dying disk whose flush path is gone: [`RetryPolicy`]
    /// must pass the error through (it is not `Interrupted`), so a
    /// grouped commit whose durability fsync hits this sees the same
    /// failure on its immediate roll-forward retry and surfaces
    /// `InDoubt` to every member of the batch.
    pub fail_fsync_at_op: Option<u64>,
    /// If `Some(us)`, every *successful* fsync-kind operation sleeps
    /// `us` microseconds before returning — deterministic flush latency
    /// for throughput experiments (the fsync a group commit amortizes).
    /// The sleep happens outside the state lock, so concurrent readers
    /// are never blocked by a simulated flush.
    pub fsync_delay_us: Option<u64>,
    /// If `Some(us)`, every successful fsync-kind operation sleeps an
    /// additional seed-derived duration in `[0, us)` microseconds on top
    /// of `fsync_delay_us` — deterministic *jittered* flush latency, so
    /// overload and chaos runs exercise group-commit batches of varying
    /// shape while two runs with the same seed see the same schedule of
    /// delays.
    pub fsync_jitter_us: Option<u64>,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

// ---------------------------------------------------------------------------
// SimVfs
// ---------------------------------------------------------------------------

/// One in-memory file: the live contents and the contents as of the last
/// data sync (what a crash reverts to, modulo a torn tail).
#[derive(Debug, Clone, Default)]
struct SimInode {
    bytes: Vec<u8>,
    synced: Vec<u8>,
    /// Whether the live bytes were rewritten (`write`, `set_len`) since
    /// the last sync. While they were only appended to, `synced` is a
    /// prefix of `bytes` and a sync copies just the new tail.
    rewritten: bool,
    /// Live names, durable names and open handles that refer to this
    /// inode. At zero nothing, not even a crash, can reach it again, so
    /// its buffers are freed.
    refs: usize,
}

impl SimInode {
    /// Make the live bytes durable: extend the synced image with what was
    /// appended since the last sync, or copy the file when it was
    /// rewritten.
    fn sync(&mut self) {
        if self.rewritten || self.synced.len() > self.bytes.len() {
            self.synced = self.bytes.clone();
        } else {
            let done = self.synced.len();
            self.synced.extend_from_slice(&self.bytes[done..]);
        }
        self.rewritten = false;
    }
}

#[derive(Debug, Default)]
struct SimState {
    inodes: Vec<SimInode>,
    /// Slots of freed inodes, reused before the table grows.
    free: Vec<usize>,
    /// The live namespace.
    current: BTreeMap<PathBuf, usize>,
    /// The namespace as of the last `sync_dir` of each directory — what a
    /// crash reverts to.
    durable: BTreeMap<PathBuf, usize>,
    dirs: BTreeSet<PathBuf>,
    ops: u64,
    plan: FaultPlan,
    crashed: bool,
    /// This boot's file-system instance number ([`Vfs::dir_id`]); 0
    /// until first asked. A reboot ([`SimVfs::recover`]) is a new
    /// instance: state shared through the old one died with the crash.
    fs_id: u64,
}

/// The next [`SimState::fs_id`] (0 is the host's file system).
static NEXT_SIM_FS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

/// An in-memory file system with power-failure semantics and
/// deterministic fault injection. Cloning shares the underlying state, so
/// a store and the test harness can observe the same "disk".
#[derive(Clone, Default)]
pub struct SimVfs {
    state: Arc<Mutex<SimState>>,
}

fn err_crashed() -> io::Error {
    io::Error::other("simulated crash: I/O after power failure")
}

fn err_transient() -> io::Error {
    io::Error::new(io::ErrorKind::Interrupted, "simulated transient I/O fault")
}

impl SimState {
    /// Total simulated flush latency for the fsync that just succeeded:
    /// the fixed `fsync_delay_us` plus a seed-derived jitter in
    /// `[0, fsync_jitter_us)`. `None` when both knobs are off.
    fn flush_delay(&self) -> Option<u64> {
        let base = self.plan.fsync_delay_us.unwrap_or(0);
        let jitter = match self.plan.fsync_jitter_us {
            Some(j) if j > 0 => splitmix64(self.plan.seed ^ self.ops ^ 0x71_77E2) % j,
            _ => 0,
        };
        let total = base + jitter;
        (total > 0).then_some(total)
    }

    /// Account for one operation; inject planned faults. Returns
    /// `Ok(torn_len)` where `torn_len` is `Some(prefix)` if this very
    /// operation is a write that must tear before the crash.
    fn enter_op(
        &mut self,
        op: &'static str,
        write_len: Option<usize>,
    ) -> io::Result<Option<usize>> {
        if self.crashed {
            return Err(err_crashed());
        }
        self.ops += 1;
        if let Some(n) = self.plan.enospc_at_op {
            let is_write = matches!(op, "append" | "write" | "set_len");
            if is_write && self.ops >= n {
                crate::metrics::faults_injected().inc();
                dbpl_obs::emit(dbpl_obs::Event::FaultInjected {
                    op: op.to_string(),
                    kind: "enospc".to_string(),
                });
                // Fails before any side effect, like the real ENOSPC on
                // a whole-file write to a full disk.
                return Err(io::Error::new(
                    io::ErrorKind::StorageFull,
                    "simulated disk full",
                ));
            }
        }
        if let Some(n) = self.plan.fail_fsync_at_op {
            let is_fsync = matches!(op, "sync_data" | "sync_file" | "sync_dir");
            if is_fsync && self.ops >= n {
                crate::metrics::faults_injected().inc();
                dbpl_obs::emit(dbpl_obs::Event::FaultInjected {
                    op: op.to_string(),
                    kind: "fsync_fail".to_string(),
                });
                // Deliberately NOT Interrupted: the flush path is gone
                // for good, so bounded retries must not absorb this.
                return Err(io::Error::other("simulated persistent fsync failure"));
            }
        }
        if let Some(n) = self.plan.transient_one_in {
            if n > 0 && splitmix64(self.plan.seed ^ self.ops).is_multiple_of(n) {
                crate::metrics::faults_injected().inc();
                dbpl_obs::emit(dbpl_obs::Event::FaultInjected {
                    op: op.to_string(),
                    kind: "transient".to_string(),
                });
                // Fails before any side effect: retrying is always safe.
                return Err(err_transient());
            }
        }
        if self.plan.crash_at_op == Some(self.ops) {
            self.crashed = true;
            crate::metrics::faults_injected().inc();
            dbpl_obs::emit(dbpl_obs::Event::FaultInjected {
                op: op.to_string(),
                kind: "crash".to_string(),
            });
            if let Some(len) = write_len {
                // Tear the in-flight write: an arbitrary, seed-chosen
                // prefix of it reaches the disk cache.
                let keep = (splitmix64(self.plan.seed ^ self.ops ^ 0xF00D) as usize)
                    .checked_rem(len + 1)
                    .unwrap_or(0);
                return Ok(Some(keep));
            }
            return Err(err_crashed());
        }
        Ok(None)
    }

    /// Planned media decay: maybe flip one seed-chosen bit of `path`'s
    /// contents, persistently (live *and* synced image — rot is on the
    /// platter, not in the page cache). Called on the read path, after
    /// the operation is counted, so decay placement is deterministic.
    fn maybe_rot(&mut self, path: &Path) {
        let Some(n) = self.plan.bit_rot_one_in else {
            return;
        };
        if n == 0 || !splitmix64(self.plan.seed ^ self.ops).is_multiple_of(n) {
            return;
        }
        let Some(&i) = self.current.get(path) else {
            return;
        };
        let bits = self.inodes[i].bytes.len() * 8;
        if bits == 0 {
            return;
        }
        let bit = (splitmix64(self.plan.seed ^ self.ops ^ 0xB17_207) as usize) % bits;
        self.inodes[i].bytes[bit / 8] ^= 1 << (bit % 8);
        self.inodes[i].rewritten = true;
        self.inodes[i].sync();
        crate::metrics::faults_injected().inc();
        dbpl_obs::emit(dbpl_obs::Event::FaultInjected {
            op: "read".to_string(),
            kind: "bit_rot".to_string(),
        });
    }

    fn inode_for(&mut self, path: &Path) -> usize {
        if let Some(&i) = self.current.get(path) {
            return i;
        }
        let i = match self.free.pop() {
            Some(i) => i,
            None => {
                self.inodes.push(SimInode::default());
                self.inodes.len() - 1
            }
        };
        self.inodes[i].refs = 1; // the live name
        self.current.insert(path.to_path_buf(), i);
        i
    }

    /// Drop one reference to inode `i`; free it if that was the last.
    /// Only the inode a name or handle just let go of is checked.
    fn release(&mut self, i: usize) {
        let inode = &mut self.inodes[i];
        inode.refs -= 1;
        if inode.refs == 0 {
            *inode = SimInode::default();
            self.free.push(i);
        }
    }
}

impl SimVfs {
    /// A fresh, empty simulated file system with no faults planned.
    pub fn new() -> SimVfs {
        SimVfs::default()
    }

    /// A fresh simulated file system executing `plan`.
    pub fn with_plan(plan: FaultPlan) -> SimVfs {
        let vfs = SimVfs::default();
        vfs.state.lock().plan = plan;
        vfs
    }

    /// The number of operations performed so far.
    pub fn ops(&self) -> u64 {
        self.state.lock().ops
    }

    /// Has the planned crash happened?
    pub fn crashed(&self) -> bool {
        self.state.lock().crashed
    }

    /// Simulate an immediate power failure: all further I/O fails until
    /// [`SimVfs::recover`] is called.
    pub fn crash_now(&self) {
        self.state.lock().crashed = true;
    }

    /// "Reboot" after a crash: the live state becomes exactly what was
    /// durable — synced file contents under sync_dir'd names. Unsynced
    /// appends survive only as the torn prefix the crash left (if any).
    /// Clears the fault plan so recovery code runs fault-free.
    pub fn recover(&self) {
        let mut guard = self.state.lock();
        let s = &mut *guard;
        s.crashed = false;
        s.plan = FaultPlan::default();
        s.fs_id = 0;
        let lost = std::mem::replace(&mut s.current, s.durable.clone());
        for &i in s.current.values() {
            s.inodes[i].refs += 1;
        }
        for i in lost.into_values() {
            s.release(i);
        }
        for inode in &mut s.inodes {
            inode.bytes = inode.synced.clone();
            inode.rewritten = false;
        }
    }

    /// Bytes the simulated disk holds for its files, live and synced
    /// images together, reachable or not — for test assertions.
    pub fn retained_bytes(&self) -> usize {
        let s = self.state.lock();
        s.inodes
            .iter()
            .map(|i| i.bytes.len() + i.synced.len())
            .sum()
    }

    /// Replace the fault plan (e.g. to arm faults after a fault-free
    /// setup phase).
    pub fn set_plan(&self, plan: FaultPlan) {
        self.state.lock().plan = plan;
    }

    /// The live contents of `path`, bypassing fault injection — for test
    /// assertions only.
    pub fn peek(&self, path: &Path) -> Option<Vec<u8>> {
        let s = self.state.lock();
        s.current.get(path).map(|&i| s.inodes[i].bytes.clone())
    }

    /// Corrupt the live contents of `path` in place (bypassing fault
    /// accounting) — for building salvage scenarios.
    pub fn corrupt(&self, path: &Path, f: impl FnOnce(&mut Vec<u8>)) {
        let mut s = self.state.lock();
        if let Some(&i) = s.current.get(path) {
            f(&mut s.inodes[i].bytes);
            s.inodes[i].rewritten = true;
            s.inodes[i].sync();
        }
    }
}

/// An append handle into a [`SimVfs`] file. It holds a reference to its
/// inode, so a file unlinked while open lives until the handle drops.
struct SimFile {
    state: Arc<Mutex<SimState>>,
    inode: usize,
}

impl Drop for SimFile {
    fn drop(&mut self) {
        self.state.lock().release(self.inode);
    }
}

impl VfsFile for SimFile {
    fn write_all(&mut self, data: &[u8]) -> io::Result<()> {
        let mut s = self.state.lock();
        let torn = s.enter_op("append", Some(data.len()))?;
        if s.plan.short_append_at_op.is_some_and(|n| s.ops >= n) {
            s.plan.short_append_at_op = None;
            crate::metrics::faults_injected().inc();
            dbpl_obs::emit(dbpl_obs::Event::FaultInjected {
                op: "append".to_string(),
                kind: "short_write".to_string(),
            });
            let inode = self.inode;
            s.inodes[inode]
                .bytes
                .extend_from_slice(&data[..data.len() / 2]);
            return Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "simulated disk full partway through a write",
            ));
        }
        match torn {
            Some(keep) => {
                let inode = self.inode;
                s.inodes[inode].bytes.extend_from_slice(&data[..keep]);
                // The torn prefix reached the disk cache but nothing
                // after this instant does.
                s.inodes[inode].sync();
                Err(err_crashed())
            }
            None => {
                let inode = self.inode;
                s.inodes[inode].bytes.extend_from_slice(data);
                Ok(())
            }
        }
    }

    fn sync_data(&mut self) -> io::Result<()> {
        let delay = {
            let mut s = self.state.lock();
            s.enter_op("sync_data", None)?;
            let inode = self.inode;
            s.inodes[inode].sync();
            s.flush_delay()
        };
        sim_flush_delay(delay);
        Ok(())
    }
}

/// Simulated flush latency: sleep outside the [`SimState`] lock so a slow
/// fsync never serializes unrelated reads.
fn sim_flush_delay(us: Option<u64>) {
    if let Some(us) = us {
        if us > 0 {
            std::thread::sleep(Duration::from_micros(us));
        }
    }
}

fn parent_of(path: &Path) -> PathBuf {
    path.parent().map(Path::to_path_buf).unwrap_or_default()
}

impl Vfs for SimVfs {
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let mut s = self.state.lock();
        s.enter_op("open_append", None)?;
        let inode = s.inode_for(path);
        s.inodes[inode].refs += 1;
        Ok(Box::new(SimFile {
            state: Arc::clone(&self.state),
            inode,
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut s = self.state.lock();
        s.enter_op("read", None)?;
        s.maybe_rot(path);
        match s.current.get(path) {
            Some(&i) => Ok(s.inodes[i].bytes.clone()),
            None => Err(io::Error::new(io::ErrorKind::NotFound, "no such file")),
        }
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut s = self.state.lock();
        match s.enter_op("write", Some(data.len()))? {
            Some(keep) => {
                let inode = s.inode_for(path);
                s.inodes[inode].bytes = data[..keep].to_vec();
                s.inodes[inode].rewritten = true;
                s.inodes[inode].sync();
                Err(err_crashed())
            }
            None => {
                // A whole-file write replaces the contents but is not
                // durable until sync_file (fresh inode: nothing synced).
                let inode = s.inode_for(path);
                s.inodes[inode].bytes = data.to_vec();
                s.inodes[inode].rewritten = true;
                Ok(())
            }
        }
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        let delay = {
            let mut s = self.state.lock();
            s.enter_op("sync_file", None)?;
            match s.current.get(path).copied() {
                Some(i) => s.inodes[i].sync(),
                None => return Err(io::Error::new(io::ErrorKind::NotFound, "no such file")),
            }
            s.flush_delay()
        };
        sim_flush_delay(delay);
        Ok(())
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        let delay = {
            let mut guard = self.state.lock();
            let s = &mut *guard;
            s.enter_op("sync_dir", None)?;
            // Promote this directory's slice of the namespace to durable:
            // creates, renames and removes under it now survive a crash.
            let in_dir: Vec<(PathBuf, usize)> = s
                .current
                .iter()
                .filter(|(p, _)| parent_of(p) == *path)
                .map(|(p, &i)| (p.clone(), i))
                .collect();
            for &(_, i) in &in_dir {
                s.inodes[i].refs += 1;
            }
            let mut dropped = Vec::new();
            s.durable.retain(|p, &mut i| {
                let keep = parent_of(p) != *path;
                if !keep {
                    dropped.push(i);
                }
                keep
            });
            s.durable.extend(in_dir);
            for i in dropped {
                s.release(i);
            }
            s.flush_delay()
        };
        sim_flush_delay(delay);
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut s = self.state.lock();
        s.enter_op("rename", None)?;
        match s.current.remove(from) {
            Some(i) => {
                if let Some(replaced) = s.current.insert(to.to_path_buf(), i) {
                    s.release(replaced);
                }
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                "rename: no such file",
            )),
        }
    }

    fn set_len(&self, path: &Path, len: u64) -> io::Result<()> {
        let mut s = self.state.lock();
        s.enter_op("set_len", None)?;
        match s.current.get(path).copied() {
            Some(i) => {
                s.inodes[i].bytes.resize(len as usize, 0);
                s.inodes[i].rewritten = true;
                Ok(())
            }
            None => Err(io::Error::new(io::ErrorKind::NotFound, "no such file")),
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut s = self.state.lock();
        s.enter_op("remove_file", None)?;
        match s.current.remove(path) {
            Some(i) => {
                s.release(i);
                Ok(())
            }
            None => Err(io::Error::new(io::ErrorKind::NotFound, "no such file")),
        }
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        let mut s = self.state.lock();
        s.enter_op("create_dir_all", None)?;
        // Directory creation is modelled as immediately durable; the
        // interesting crash windows are all on files within.
        s.dirs.insert(path.to_path_buf());
        Ok(())
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let mut s = self.state.lock();
        s.enter_op("read_dir", None)?;
        Ok(s.current
            .keys()
            .filter(|p| parent_of(p) == *path)
            .cloned()
            .collect())
    }

    fn exists(&self, path: &Path) -> bool {
        let s = self.state.lock();
        s.current.contains_key(path) || s.dirs.contains(path)
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        let mut s = self.state.lock();
        s.enter_op("len", None)?;
        match s.current.get(path) {
            Some(&i) => Ok(s.inodes[i].bytes.len() as u64),
            None => Err(io::Error::new(io::ErrorKind::NotFound, "no such file")),
        }
    }

    fn dir_id(&self, dir: &Path) -> (u64, PathBuf) {
        let mut s = self.state.lock();
        if s.fs_id == 0 {
            s.fs_id = NEXT_SIM_FS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        (s.fs_id, dir.components().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn std_vfs_roundtrip() {
        let dir = crate::TempDir::new("vfs").unwrap();
        let path = dir.join("f.bin");
        let vfs = StdVfs;
        vfs.write(&path, b"abc").unwrap();
        vfs.sync_file(&path).unwrap();
        vfs.sync_dir(&dir).unwrap();
        assert_eq!(vfs.read(&path).unwrap(), b"abc");
        assert_eq!(vfs.len(&path).unwrap(), 3);
        let renamed = dir.join("g.bin");
        vfs.rename(&path, &renamed).unwrap();
        assert!(vfs.exists(&renamed) && !vfs.exists(&path));
        vfs.remove_file(&renamed).unwrap();
    }

    #[test]
    fn sim_unsynced_data_lost_on_crash() {
        let vfs = SimVfs::new();
        vfs.create_dir_all(&p("d")).unwrap();
        let mut f = vfs.open_append(&p("d/log")).unwrap();
        f.write_all(b"durable").unwrap();
        f.sync_data().unwrap();
        vfs.sync_dir(&p("d")).unwrap();
        f.write_all(b" volatile").unwrap(); // never synced
        vfs.crash_now();
        assert!(vfs.read(&p("d/log")).is_err(), "I/O fails after crash");
        vfs.recover();
        assert_eq!(vfs.read(&p("d/log")).unwrap(), b"durable");
    }

    #[test]
    fn sim_append_syncs_recover_exactly_the_synced_prefix() {
        let vfs = SimVfs::new();
        let mut f = vfs.open_append(&p("d/log")).unwrap();
        vfs.sync_dir(&p("d")).unwrap();
        let mut durable = Vec::new();
        for i in 0..5u8 {
            let chunk = vec![i; 10 + i as usize];
            f.write_all(&chunk).unwrap();
            f.sync_data().unwrap();
            durable.extend_from_slice(&chunk);
        }
        f.write_all(b"lost").unwrap();
        vfs.crash_now();
        vfs.recover();
        assert_eq!(vfs.read(&p("d/log")).unwrap(), durable);
        // Appends after the reboot extend the recovered image, not the
        // pre-crash one.
        f.write_all(b"more").unwrap();
        f.sync_data().unwrap();
        durable.extend_from_slice(b"more");
        vfs.crash_now();
        vfs.recover();
        assert_eq!(vfs.read(&p("d/log")).unwrap(), durable);
    }

    #[test]
    fn sim_set_len_between_syncs_recovers_the_synced_image() {
        let vfs = SimVfs::new();
        let mut f = vfs.open_append(&p("d/log")).unwrap();
        vfs.sync_dir(&p("d")).unwrap();
        f.write_all(b"abcdefgh").unwrap();
        f.sync_data().unwrap();
        // Shrink, then append past the old end: the synced image is no
        // longer a prefix of the live one, so the next sync copies it all.
        vfs.set_len(&p("d/log"), 3).unwrap();
        f.write_all(b"XYZWV").unwrap();
        vfs.crash_now();
        vfs.recover();
        assert_eq!(vfs.read(&p("d/log")).unwrap(), b"abcdefgh");
        vfs.set_len(&p("d/log"), 3).unwrap();
        f.write_all(b"XYZWV").unwrap();
        f.sync_data().unwrap();
        f.write_all(b"!").unwrap();
        vfs.crash_now();
        vfs.recover();
        assert_eq!(vfs.read(&p("d/log")).unwrap(), b"abcXYZWV");
    }

    #[test]
    fn sim_rename_without_dir_sync_is_lost() {
        let vfs = SimVfs::new();
        vfs.write(&p("d/tmp"), b"new").unwrap();
        vfs.sync_file(&p("d/tmp")).unwrap();
        vfs.rename(&p("d/tmp"), &p("d/final")).unwrap();
        // No sync_dir: the rename is still in the dirty directory block.
        vfs.crash_now();
        vfs.recover();
        assert!(!vfs.exists(&p("d/final")), "rename must not be durable");
    }

    #[test]
    fn sim_rename_with_dir_sync_survives() {
        let vfs = SimVfs::new();
        vfs.write(&p("d/tmp"), b"new").unwrap();
        vfs.sync_file(&p("d/tmp")).unwrap();
        vfs.rename(&p("d/tmp"), &p("d/final")).unwrap();
        vfs.sync_dir(&p("d")).unwrap();
        vfs.crash_now();
        vfs.recover();
        assert_eq!(vfs.read(&p("d/final")).unwrap(), b"new");
        assert!(!vfs.exists(&p("d/tmp")));
    }

    #[test]
    fn crash_at_op_tears_the_write() {
        // Crash on the 2nd op (the write): only a prefix lands.
        let vfs = SimVfs::with_plan(FaultPlan {
            seed: 7,
            crash_at_op: Some(2),
            transient_one_in: None,
            ..FaultPlan::default()
        });
        let mut f = vfs.open_append(&p("log")).unwrap(); // op 1
        let err = f.write_all(&[b'x'; 64]).unwrap_err(); // op 2: crash
        assert!(!matches!(err.kind(), io::ErrorKind::Interrupted));
        vfs.recover();
        // File may be absent (name never dir-synced) — but if we made the
        // entry durable first the torn prefix would show. Check via a run
        // where the entry is durable:
        let vfs = SimVfs::with_plan(FaultPlan {
            seed: 7,
            crash_at_op: Some(4),
            transient_one_in: None,
            ..FaultPlan::default()
        });
        let mut f = vfs.open_append(&p("log")).unwrap(); // op 1
        f.write_all(b"committed").unwrap(); // op 2
        f.sync_data().unwrap(); // op 3 — hmm, dir never synced though
        vfs.sync_dir(&p("")).unwrap_err(); // op 4: crash during dir sync
        vfs.recover();
        // The dir sync crashed before taking effect: entry not durable.
        assert!(!vfs.exists(&p("log")));
    }

    #[test]
    fn transient_faults_are_absorbed_by_retry() {
        let vfs = SimVfs::with_plan(FaultPlan {
            seed: 3,
            crash_at_op: None,
            transient_one_in: Some(4), // aggressive, but within retry budget
            ..FaultPlan::default()
        });
        for i in 0..20 {
            let path = p(&format!("f{i}"));
            retry_io(|| vfs.write(&path, b"v")).unwrap();
            retry_io(|| vfs.sync_file(&path)).unwrap();
        }
        vfs.sync_dir(&p("")).ok();
        // Every write eventually succeeded.
        for i in 0..20 {
            assert_eq!(retry_io(|| vfs.read(&p(&format!("f{i}")))).unwrap(), b"v");
        }
    }

    #[test]
    fn expired_deadline_blocks_every_attempt_including_the_last() {
        // An already-expired deadline must prevent `f` from running at
        // all — the trailing attempt after the retry loop included.
        let policy = RetryPolicy::with_deadline(Instant::now() - Duration::from_millis(1));
        let mut calls = 0;
        let err = policy
            .run(|| -> io::Result<()> {
                calls += 1;
                Ok(())
            })
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert_eq!(calls, 0, "no attempt may start past the deadline");

        // Same for a policy whose loop never runs (single attempt).
        let policy = RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::with_deadline(Instant::now() - Duration::from_millis(1))
        };
        let err = policy.run(|| -> io::Result<()> { Ok(()) }).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn determinism_same_seed_same_faults() {
        let run = |seed| {
            let vfs = SimVfs::with_plan(FaultPlan {
                seed,
                crash_at_op: Some(5),
                transient_one_in: None,
                ..FaultPlan::default()
            });
            let mut ops: Vec<bool> = Vec::new();
            let mut f = vfs.open_append(&p("x")).unwrap();
            for _ in 0..6 {
                ops.push(f.write_all(b"0123456789").is_ok());
                if vfs.crashed() {
                    break;
                }
            }
            // Peek the torn image before reboot (the name was never
            // dir-synced, so recovery would drop it entirely).
            (ops, vfs.peek(&p("x")))
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).1, run(43).1, "different seeds tear differently");
    }

    #[test]
    fn storage_full_is_fatal_on_the_first_attempt() {
        // ENOSPC must not burn the retry budget: one attempt, no
        // backoff sleeps, the error surfaces as-is.
        let mut calls = 0;
        let err = RetryPolicy::default()
            .run(|| -> io::Result<()> {
                calls += 1;
                Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"))
            })
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert_eq!(calls, 1, "StorageFull retried");
    }

    #[test]
    fn enospc_fails_writes_until_space_returns_and_reads_keep_working() {
        let vfs = SimVfs::new();
        vfs.write(&p("d/keep"), b"old").unwrap();
        vfs.sync_file(&p("d/keep")).unwrap();
        vfs.sync_dir(&p("d")).unwrap();
        vfs.set_plan(FaultPlan {
            enospc_at_op: Some(1),
            ..FaultPlan::default()
        });
        // Every write-kind op fails with StorageFull, before any side
        // effect; reads are unaffected.
        let err = vfs.write(&p("d/new"), b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert!(!vfs.exists(&p("d/new")), "failed write left a file");
        let err = vfs.set_len(&p("d/keep"), 0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        let mut f = vfs.open_append(&p("d/keep")).unwrap();
        assert_eq!(
            f.write_all(b"y").unwrap_err().kind(),
            io::ErrorKind::StorageFull
        );
        assert_eq!(vfs.read(&p("d/keep")).unwrap(), b"old");
        // Space returns: writes work again.
        vfs.set_plan(FaultPlan::default());
        vfs.write(&p("d/new"), b"x").unwrap();
        assert_eq!(vfs.read(&p("d/new")).unwrap(), b"x");
    }

    #[test]
    fn bit_rot_flips_exactly_one_bit_persistently_and_deterministically() {
        let run = |seed| {
            let vfs = SimVfs::new();
            vfs.write(&p("d/unit"), &[0u8; 64]).unwrap();
            vfs.sync_file(&p("d/unit")).unwrap();
            vfs.sync_dir(&p("d")).unwrap();
            vfs.set_plan(FaultPlan {
                seed,
                bit_rot_one_in: Some(1), // rot on every read
                ..FaultPlan::default()
            });
            let rotted = vfs.read(&p("d/unit")).unwrap();
            let ones: u32 = rotted.iter().map(|b| b.count_ones()).sum();
            assert_eq!(ones, 1, "exactly one bit flipped per rot event");
            // The rot is on the platter: it survives a crash + reboot.
            vfs.set_plan(FaultPlan::default());
            vfs.crash_now();
            vfs.recover();
            assert_eq!(vfs.read(&p("d/unit")).unwrap(), rotted);
            rotted
        };
        assert_eq!(run(9), run(9), "same seed, same decay");
        assert_ne!(run(9), run(10), "different seeds decay differently");
    }
}
