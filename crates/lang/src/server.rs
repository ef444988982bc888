//! The concurrent multi-session engine: MVCC snapshot reads and
//! leader-led group commit.
//!
//! A [`Server`] multiplexes many MiniDBPL sessions over one shared
//! database. The design (documented in depth in `docs/CONCURRENCY.md`):
//!
//! * **Snapshots.** The engine's state is an epoch-stamped, immutable
//!   [`EngineState`] behind an Arc-swap-style [`SnapshotCell`]. A reader
//!   clones the `Arc` (two atomic ops under a momentary read lock) and
//!   then runs entirely against its private snapshot: it never blocks a
//!   writer and is never blocked by one. [`Database::clone`] is O(1)
//!   copy-on-write, so the snapshot carries the whole database for free.
//!   Reclamation is the `Arc` itself: an old epoch's memory is freed when
//!   the last reader holding it drops it — no epoch lists, no grace
//!   periods.
//! * **Frames.** A program runs on a copy of its snapshot and records
//!   its effects in a frame as it goes, exactly as in a standalone
//!   session: the extern writes it staged and the types and `include`
//!   edges the checker newly declared. Programs can only *append* (put,
//!   declare, extern, intern-allocate), so the rows and heap objects past
//!   the snapshot's watermarks are its puts and interned objects. A pure
//!   read records nothing and never touches the commit queue.
//! * **Group commit, led by a committing session.** There is no writer
//!   thread. A session with a frame to commit queues it; if no batch is
//!   in flight it becomes the **leader**: on its own thread it takes
//!   whatever is queued (up to [`MAX_BATCH`]) — its own frame and every
//!   frame that queued behind the previous batch — applies the frames in
//!   arrival order to a private successor of the current snapshot, makes
//!   the batch's merged extern writes durable with **one** log record and
//!   one fsync, publishes **one** new epoch, and posts every member's
//!   outcome. Sessions whose frames another leader took just wait for
//!   their answer. The fsync that dominated per-transaction commit cost
//!   is paid once per batch.
//! * **Failure semantics** are [`Session`](crate::Session)'s, because both go through one
//!   [`DurabilityGate`]: a refused or pre-durability failure aborts the
//!   whole batch (nothing published, disk-full flips the engine
//!   degraded); a post-durability failure is **in doubt** and is
//!   attributed to *every* member of the batch, whose effects roll
//!   forward on recovery.
//! * **Overload resilience.** The commit queue is **bounded**
//!   ([`ServerConfig`]): admission past capacity waits within the
//!   caller's transaction deadline and otherwise fails fast with an
//!   [`ErrorKind::Overloaded`](crate::ErrorKind::Overloaded) error —
//!   probe-first, nothing staged. Deadlines are **queue-aware**: time
//!   spent waiting behind a batch counts, and the leader drops
//!   already-expired frames before the log record is written. Batches
//!   are **supervised**: a panicking frame aborts only itself, and a
//!   panic that escapes a batch flips the engine [`Health::Degraded`]
//!   before any member is answered engine-down. Every admitted commit
//!   gets a definitive reply — committed, conflicted, overloaded,
//!   expired, aborted, in doubt or engine-down — never a hang, including
//!   across [`Server::shutdown`], which closes admission and waits only
//!   for the batches already queued.

use crate::check::{declare_type, include};
use crate::error::LangError;
use crate::eval::{Ctx, Frame};
use dbpl_core::Database;
use dbpl_obs::timeline::{Recorder, RecorderConfig, Timeline};
use dbpl_obs::{Counter, Gauge, Histogram};
use dbpl_persist::{
    DurabilityGate, Health, QuarantineEntry, ReplicatingStore, RetryPolicy, TempDir, Verdict, Vfs,
};
use dbpl_types::TypeError;
use dbpl_values::{DynValue, Oid, Value};
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Most frames coalesced into one group commit. Bounds both the latency
/// a queued commit can accumulate behind its batch and the size of the
/// coalesced log record. Batch formation adds **no artificial delay**:
/// a leader takes whatever is queued the moment the previous batch
/// finishes, so under light load every batch has size 1 (pure serial
/// latency) and under heavy load batches grow naturally toward this cap
/// — the fairness bound is "at most one in-flight batch ahead of you".
pub const MAX_BATCH: usize = 128;

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

/// Capacity knobs for a [`Server`]'s write path. All limits are
/// *admission* limits: a request past a limit is refused (or waits, if
/// its transaction deadline allows) **before anything is staged**, so a
/// saturated engine degrades into fast, clean `Overloaded` errors
/// instead of unbounded queue growth and memory exhaustion.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Most frames that may sit in the commit queue waiting for a
    /// batch. Enqueue past this either waits (within the session's
    /// `txn_deadline`) or fails fast with `Overloaded`.
    pub queue_depth: usize,
    /// Most frames in flight overall: queued plus taken into a batch but
    /// not yet answered. Bounds the memory pinned by staged frames even
    /// while a slow batch is being made durable.
    pub max_inflight_frames: usize,
    /// Most concurrently live [`ServerSession`]s. [`Server::try_session`]
    /// past this fails with `Overloaded`; a dropped session frees its
    /// slot.
    pub max_sessions: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            queue_depth: 256,
            max_inflight_frames: 256 + MAX_BATCH,
            max_sessions: 4096,
        }
    }
}

/// Why the admission gate turned a commit away.
#[derive(Debug)]
enum AdmissionError {
    /// At capacity and the caller's deadline did not allow waiting (or
    /// expired while waiting). Nothing was staged.
    Overloaded { gate: &'static str, depth: usize },
    /// The engine is shut down.
    EngineDown,
}

/// The bounded commit queue: a `VecDeque` under one mutex with two
/// condvars (admission waiters, and committers waiting for the batch in
/// flight). Every admitted request gets exactly one outcome, posted in
/// `answered` by the leader of the batch that took it (see
/// [`Engine::commit`]).
#[derive(Default)]
struct CommitQueue {
    state: Mutex<QueueState>,
    /// Signals admission waiters that depth may have dropped.
    space: Condvar,
    /// Signals committers (and shutdown) that a batch finished.
    turn: Condvar,
}

#[derive(Default)]
struct QueueState {
    items: VecDeque<CommitRequest>,
    /// Frames taken into the batch in flight and not yet answered.
    inflight: usize,
    /// Set once by shutdown: no further admissions.
    shutdown: bool,
    /// A session is leading a batch; other committers wait their turn.
    leading: bool,
    /// The ticket the next admitted request gets.
    next_ticket: u64,
    /// Outcomes of finished batches, by ticket, until collected.
    answered: HashMap<u64, CommitOutcome>,
}

impl CommitQueue {
    /// Admit one frame, with the database its program wrote, and return
    /// its ticket, or refuse it with nothing staged. At capacity the call
    /// waits for space until the frame's deadline and gives up
    /// `Overloaded` when it passes — or immediately, if the caller set
    /// no deadline.
    fn enqueue(
        &self,
        frame: Frame,
        db: Database,
        cfg: &ServerConfig,
    ) -> Result<u64, AdmissionError> {
        let enqueued_at = Instant::now();
        let deadline = frame.deadline;
        let mut st = self.state.lock();
        loop {
            if st.shutdown {
                return Err(AdmissionError::EngineDown);
            }
            let gate = if st.items.len() >= cfg.queue_depth {
                Some("queue_full")
            } else if st.items.len() + st.inflight >= cfg.max_inflight_frames {
                Some("inflight_full")
            } else {
                None
            };
            let Some(gate) = gate else {
                let ticket = st.next_ticket;
                st.next_ticket += 1;
                st.items.push_back(CommitRequest {
                    ticket,
                    frame,
                    db,
                    enqueued_at,
                });
                queue_depth().set(st.items.len() as i64);
                return Ok(ticket);
            };
            let depth = st.items.len();
            let Some(deadline) = deadline else {
                return Err(Self::rejected(gate, depth));
            };
            if Instant::now() >= deadline || self.space.wait_until(&mut st, deadline).timed_out() {
                return Err(Self::rejected("admission_timeout", st.items.len()));
            }
        }
    }

    fn rejected(gate: &'static str, depth: usize) -> AdmissionError {
        overload_rejected().inc();
        dbpl_obs::emit(dbpl_obs::Event::Overload {
            depth: depth as u64,
            gate: gate.to_string(),
        });
        AdmissionError::Overloaded { gate, depth }
    }

    /// Take up to [`MAX_BATCH`] queued requests as the next batch.
    fn take_batch(&self, st: &mut QueueState) -> Vec<CommitRequest> {
        let n = st.items.len().min(MAX_BATCH);
        let batch: Vec<CommitRequest> = st.items.drain(..n).collect();
        st.inflight += n;
        queue_depth().set(st.items.len() as i64);
        // Conservation pair with `server.queue_wait_us`: every admitted
        // (taken) frame records exactly one queue-wait observation, so
        // the counter and the histogram count move in lockstep — the
        // invariant the chaos harness and `check_timeline` verify.
        frames_admitted().add(n as u64);
        let wait = queue_wait_us();
        let now = Instant::now();
        for req in &batch {
            wait.record_us(now.duration_since(req.enqueued_at).as_micros() as u64);
        }
        self.space.notify_all();
        batch
    }

    /// Close admission and wait until nothing is queued or in flight:
    /// the sessions whose frames are queued lead them to completion.
    fn close(&self) {
        let mut st = self.state.lock();
        st.shutdown = true;
        self.space.notify_all();
        while st.leading || !st.items.is_empty() {
            self.turn.wait(&mut st);
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// One immutable, epoch-stamped published state of the engine.
#[derive(Debug)]
pub struct EngineState {
    /// Monotone publication counter: epoch `n+1` is the state after the
    /// `n+1`th group commit. Epoch 0 is the state at open.
    pub epoch: u64,
    /// The database as of this epoch. Cloning it is O(1) (copy-on-write
    /// components), which is what makes per-program snapshots free.
    pub db: Database,
    /// Retention accounting: decrements the engine's live-snapshot count
    /// (and the `snapshot.live` gauge) when the last `Arc` clone of this
    /// state drops. `None` for states not owned by an engine.
    live: Option<LiveTag>,
}

/// The accounting handle an [`EngineState`] carries so snapshot
/// retention is observable: one global gauge for dashboards, one
/// per-engine count for tests (the global gauge is shared by every
/// engine in the process).
#[derive(Debug)]
struct LiveTag {
    gauge: Arc<dbpl_obs::Gauge>,
    engine_live: Arc<AtomicI64>,
}

impl EngineState {
    fn tracked(epoch: u64, db: Database, engine_live: &Arc<AtomicI64>) -> EngineState {
        let gauge = Arc::clone(snapshot_live());
        gauge.inc();
        engine_live.fetch_add(1, Ordering::Relaxed);
        EngineState {
            epoch,
            db,
            live: Some(LiveTag {
                gauge,
                engine_live: Arc::clone(engine_live),
            }),
        }
    }
}

impl Drop for EngineState {
    fn drop(&mut self) {
        if let Some(tag) = &self.live {
            tag.gauge.dec();
            tag.engine_live.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// An Arc-swap-style cell holding the current [`EngineState`].
///
/// Readers take the read lock only long enough to clone the `Arc`; a
/// batch's leader takes the write lock only long enough to store a new
/// one.
/// Neither ever holds the lock across I/O or evaluation, so readers
/// never wait on a writer's *work* — only on a pointer swap. (A true
/// lock-free arc-swap needs deferred reclamation machinery; the
/// two-atomic-ops critical section here is the standard-library
/// equivalent, and is invisible next to program execution costs.)
struct SnapshotCell {
    inner: RwLock<Arc<EngineState>>,
}

impl SnapshotCell {
    fn new(state: EngineState) -> SnapshotCell {
        SnapshotCell {
            inner: RwLock::new(Arc::new(state)),
        }
    }

    /// The current snapshot — O(1), never blocks on in-flight commits.
    fn load(&self) -> Arc<EngineState> {
        Arc::clone(&self.inner.read())
    }

    /// Publish a new snapshot — O(1) pointer swap.
    fn store(&self, state: EngineState) {
        *self.inner.write() = Arc::new(state);
    }
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

/// Rewrite every `Ref` in `value` through `remap`, leaving unmapped
/// references (objects that predate the frame) untouched.
fn remap_refs(value: &Value, remap: &BTreeMap<Oid, Oid>) -> Value {
    match value {
        Value::Ref(o) => Value::Ref(remap.get(o).copied().unwrap_or(*o)),
        Value::List(xs) => Value::List(xs.iter().map(|v| remap_refs(v, remap)).collect()),
        Value::Set(xs) => Value::Set(xs.iter().map(|v| remap_refs(v, remap)).collect()),
        Value::Record(fs) => {
            Value::Record(fs.iter().map(|(l, v)| (*l, remap_refs(v, remap))).collect())
        }
        Value::Tagged(l, v) => Value::Tagged(*l, Box::new(remap_refs(v, remap))),
        Value::Dyn(d) => Value::dynamic(d.ty.clone(), remap_refs(&d.value, remap)),
        other => other.clone(),
    }
}

/// Apply one frame, and the rows and heap objects its program wrote into
/// `db`, to `working` in place. On `Err` the caller restores its
/// pre-frame backup — `working` must be treated as poisoned.
fn apply_frame(working: &mut Database, frame: &Frame, db: &Database) -> Result<(), String> {
    // Schema first, validated against the *current* master env: another
    // frame may have declared the same name since this program's base
    // snapshot. An equivalent definition is idempotent — the checker's
    // rule — and a different one is a genuine write-write conflict.
    let mut env = working.env().clone(); // O(1) copy-on-write
    for (name, ty) in &frame.decls {
        declare_type(&mut env, name, ty).map_err(|e| match e {
            TypeError::Duplicate(_) => {
                format!("type '{name}' was concurrently declared with a different definition")
            }
            e => format!("declaring type '{name}': {e}"),
        })?;
    }
    for (sub, sup) in &frame.includes {
        include(&mut env, sub, sup).map_err(|e| format!("include {sub} in {sup}: {e}"))?;
    }
    *working.env_mut() = env;
    // Heap objects re-allocate at master identities; references between
    // this frame's own objects are remapped (ascending-oid order makes
    // one forward pass sufficient; cycles cannot form because programs
    // cannot update an object after allocating it).
    let mut remap: BTreeMap<Oid, Oid> = BTreeMap::new();
    for (oid, obj) in db.heap().iter_from(frame.base.heap().next_oid()) {
        let v = remap_refs(&obj.value, &remap);
        let new = working.heap_mut().alloc(obj.ty.clone(), v);
        if new != oid {
            remap.insert(oid, new);
        }
    }
    for d in db.rows_from(frame.base.len()) {
        let v = remap_refs(&d.value, &remap);
        working
            .put_dyn(DynValue::new(d.ty.clone(), v))
            .map_err(|e| format!("applying put: {e}"))?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Group commit
// ---------------------------------------------------------------------------

/// Group commit's answer for one queued frame: the epoch that published
/// it, or the caller-facing error of a frame that did not commit —
/// conflicted, expired in the queue, aborted, engine-down or in doubt.
type CommitOutcome = Result<u64, LangError>;

struct CommitRequest {
    /// Where the batch's leader posts this request's outcome.
    ticket: u64,
    /// The program's frame. Admission waits until its deadline, and the
    /// leader drops it (pre-durability) if the deadline has passed by
    /// the time its batch starts.
    frame: Frame,
    /// The database the program wrote: its snapshot plus the frame's
    /// rows and heap objects.
    db: Database,
    /// When the request asked for admission (`server.queue_wait_us`).
    enqueued_at: Instant,
}

/// Deterministic panic-injection knobs for the chaos harness: arm a
/// 1-based frame / batch ordinal (0 = off) and the group commit panics
/// when its running count reaches it — inside the per-frame supervision
/// boundary (frame) or just before the durable commit (batch, so the
/// injected failure is always pre-durability).
#[derive(Default)]
struct Chaos {
    frames_seen: AtomicU64,
    panic_frame_at: AtomicU64,
    batches_seen: AtomicU64,
    panic_batch_at: AtomicU64,
}

/// The shared engine: published snapshots, the commit queue, and the
/// durability gate every batch commits through.
struct Engine {
    snap: SnapshotCell,
    store: Arc<ReplicatingStore>,
    /// The bounded commit queue (admission control lives here).
    queue: CommitQueue,
    /// Capacity knobs fixed at open.
    cfg: ServerConfig,
    /// The commit-failure policy (degraded mode, pending recovery,
    /// in-doubt roll-forward) — the one a standalone [`Session`] uses.
    gate: DurabilityGate,
    /// When enabled, every applied frame in serialization order plus the
    /// database it started from — the commit order's log, replayable
    /// single-threaded for differential testing.
    frame_log: Mutex<Option<FrameLog>>,
    /// Live [`ServerSession`] count, gated by `cfg.max_sessions`.
    sessions: AtomicU64,
    /// Live snapshot count for *this* engine (the `snapshot.live` gauge
    /// aggregates every engine in the process; tests need isolation).
    engine_live: Arc<AtomicI64>,
    /// Panic-injection knobs (chaos harness only; all zero in service).
    chaos: Chaos,
    /// The flight recorder, when one is running
    /// ([`Server::start_recorder`]). Shutdown drains it first, so the
    /// timeline's last sample still sees the final batch's metrics.
    recorder: Mutex<Option<Recorder>>,
    /// The temp directory [`Server::new`] created for the store, removed
    /// when the engine drops. A directory the caller named is never
    /// removed.
    owned_dir: Option<TempDir>,
}

struct FrameLog {
    base: Database,
    /// Each applied frame with the database its program wrote.
    frames: Vec<(Frame, Database)>,
}

impl Engine {
    fn open_with(
        vfs: Arc<dyn Vfs>,
        dir: impl AsRef<Path>,
        cfg: ServerConfig,
    ) -> Result<Engine, LangError> {
        let store = Arc::new(
            ReplicatingStore::open_with(vfs, dir)
                .map_err(|e| LangError::eval(0, format!("cannot open store: {e}")))?,
        );
        // Same open-time recovery as a standalone session.
        let (gate, _) = DurabilityGate::open(&store)
            .map_err(|e| LangError::eval(0, format!("cannot recover pending transaction: {e}")))?;
        let engine_live = Arc::new(AtomicI64::new(0));
        Ok(Engine {
            snap: SnapshotCell::new(EngineState::tracked(0, Database::new(), &engine_live)),
            store,
            queue: CommitQueue::default(),
            cfg,
            gate,
            frame_log: Mutex::new(None),
            sessions: AtomicU64::new(0),
            engine_live,
            chaos: Chaos::default(),
            recorder: Mutex::new(None),
            owned_dir: None,
        })
    }

    /// Admit `frame` (with the database its program wrote) and return its
    /// outcome, leading batches on this thread while no other session
    /// is. A leader takes everything
    /// queued (up to [`MAX_BATCH`]) — its own frame and whatever queued
    /// behind the previous batch — commits it with [`commit_batch`],
    /// posts every member's outcome and gives up the lead. A session
    /// whose frame another leader took waits for that batch's answer, so
    /// nobody waits behind more than the batch in flight ahead of it.
    fn commit(&self, frame: Frame, db: Database) -> Result<CommitOutcome, AdmissionError> {
        let ticket = self.queue.enqueue(frame, db, &self.cfg)?;
        let mut st = self.queue.state.lock();
        loop {
            if let Some(outcome) = st.answered.remove(&ticket) {
                return Ok(outcome);
            }
            if st.leading {
                self.queue.turn.wait(&mut st);
                continue;
            }
            st.leading = true;
            let batch = self.queue.take_batch(&mut st);
            drop(st);
            let outcomes = commit_batch(self, &batch);
            st = self.queue.state.lock();
            st.inflight -= batch.len();
            st.answered
                .extend(batch.iter().map(|req| req.ticket).zip(outcomes));
            st.leading = false;
            self.queue.turn.notify_all();
            self.queue.space.notify_all();
        }
    }

    /// Stop the flight recorder (if one is running) and drain its ring.
    fn drain_recorder(&self) -> Option<Timeline> {
        self.recorder.lock().take().map(Recorder::stop)
    }

    /// Stop the recorder, close admission, wait for the queued batches,
    /// then checkpoint the commit log: with no batch in flight this is a
    /// clean close.
    fn shutdown(&self) {
        // Recorder first: its final sample sees the engine still live.
        drop(self.drain_recorder());
        self.queue.close();
        self.gate.close(None, &self.store);
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
        // `owned_dir` drops after this, removing the directory.
    }
}

/// The error of a frame that will not commit, announced with a
/// `TxnAbort` event as a failed session commit is. (A batch the
/// durability gate fails is announced by the gate.)
fn aborted(err: LangError) -> LangError {
    dbpl_obs::emit(dbpl_obs::Event::TxnAbort {
        reason: err.msg.clone(),
    });
    err
}

/// Commit one taken batch on the calling thread and return each
/// member's outcome, in batch order. Supervision: a panic that escapes
/// the batch (a bug, or injected chaos) is caught here, and the engine
/// is degraded **before** any member is answered — every member is
/// answered engine-down, and the probe-first gate decides when commits
/// resume.
fn commit_batch(engine: &Engine, batch: &[CommitRequest]) -> Vec<CommitOutcome> {
    catch_unwind(AssertUnwindSafe(|| apply_batch(engine, batch))).unwrap_or_else(|payload| {
        dbpl_obs::global().counter("applier.panic").inc();
        let msg = format!(
            "group commit panicked mid-batch: {}",
            crate::eval::panic_message(&payload)
        );
        engine.gate.degrade(msg.clone());
        let down = || LangError::engine_down(format!("commit not applied: {msg}"));
        batch.iter().map(|_| Err(aborted(down()))).collect()
    })
}

fn apply_batch(engine: &Engine, batch: &[CommitRequest]) -> Vec<CommitOutcome> {
    // Queue-aware deadlines: a frame whose transaction deadline expired
    // while it waited is dropped HERE, before anything is applied or any
    // log record is written — strictly pre-durability, so
    // `DeadlineExceeded` always means "nothing durable happened".
    let now = Instant::now();
    let mut outcomes: Vec<Option<CommitOutcome>> = batch
        .iter()
        .map(|req| match req.frame.deadline {
            Some(d) if now >= d => {
                deadline_dropped().inc();
                let waited_ms = now.duration_since(req.enqueued_at).as_millis() as u64;
                Some(Err(aborted(LangError::deadline_exceeded(format!(
                    "transaction deadline expired after {waited_ms} ms in the commit \
                     queue; dropped before the log record was written — nothing durable \
                     happened"
                )))))
            }
            _ => None,
        })
        .collect();
    let live: Vec<usize> = (0..batch.len())
        .filter(|&i| outcomes[i].is_none())
        .collect();
    if live.is_empty() {
        return finish(outcomes);
    }

    let mut span = dbpl_obs::span!("txn.group_commit");
    span.set_attr("batch_size", live.len());
    group_commit_batch_size().record_us(live.len() as u64);
    group_commit_batches().inc();

    let current = engine.snap.load();
    let mut working = current.db.clone(); // O(1) copy-on-write
    let mut applied: Vec<usize> = Vec::new();
    let mut externs: BTreeMap<String, Option<Vec<u8>>> = BTreeMap::new();
    let panic_frame_at = engine.chaos.panic_frame_at.load(Ordering::Relaxed);
    for i in live {
        let CommitRequest { frame, db, .. } = &batch[i];
        // O(1); pays copy-on-write only if the frame applies partially.
        let backup = working.clone();
        // Per-frame supervision: a panic while applying one frame (bad
        // data, a bug, injected chaos) aborts ONLY that frame — the
        // working database is restored from the backup and the rest of
        // the batch proceeds.
        let frame_no = engine.chaos.frames_seen.fetch_add(1, Ordering::Relaxed) + 1;
        let res = catch_unwind(AssertUnwindSafe(|| {
            if panic_frame_at != 0 && frame_no == panic_frame_at {
                panic!("chaos: injected panic applying frame {frame_no}");
            }
            apply_frame(&mut working, frame, db)
        }));
        match res {
            Ok(Ok(())) => {
                applied.push(i);
                // Later frames override earlier ones per handle — the
                // same last-writer-wins the serial schedule would give.
                for (h, w) in &frame.externs {
                    externs.insert(h.clone(), w.clone());
                }
            }
            Ok(Err(msg)) => {
                working = backup;
                outcomes[i] = Some(Err(aborted(LangError::eval(
                    0,
                    format!("commit conflict, transaction aborted: {msg}"),
                ))));
            }
            Err(payload) => {
                dbpl_obs::global().counter("applier.frame_panic").inc();
                working = backup;
                outcomes[i] = Some(Err(aborted(LangError::eval(
                    0,
                    format!(
                        "commit failed, transaction aborted: frame application panicked \
                         (frame aborted, batch unaffected): {}",
                        crate::eval::panic_message(&payload)
                    ),
                ))));
            }
        }
    }
    span.set_attr("applied", applied.len());
    span.set_attr("externs", externs.len());

    // Batch-level chaos: fires BEFORE the durable commit, so an injected
    // batch-level panic is always pre-durability — `commit_batch`
    // answers the whole batch engine-down and nothing is published.
    let batch_no = engine.chaos.batches_seen.fetch_add(1, Ordering::Relaxed) + 1;
    let panic_batch_at = engine.chaos.panic_batch_at.load(Ordering::Relaxed);
    if panic_batch_at != 0 && batch_no == panic_batch_at {
        panic!("chaos: injected panic before batch {batch_no} commit");
    }

    // One log record + one fsync for the whole batch, through the
    // engine's durability gate.
    let verdict = engine
        .gate
        .commit(None, &engine.store, &externs, &RetryPolicy::default());
    let epoch = current.epoch + 1;
    let outcome = match verdict {
        Verdict::Committed => Ok(epoch),
        // Past the durability point: the coalesced record is durable, so
        // the batch publishes and every member is in doubt as a unit.
        Verdict::InDoubt { .. } => {
            span.set_attr("outcome", "in_doubt");
            Err(LangError::eval(0, verdict.to_string()))
        }
        // Nothing durable happened: the whole batch aborts and no new
        // epoch is published.
        Verdict::Refused(_) | Verdict::Aborted(_) => {
            span.set_attr("outcome", "aborted");
            for &i in &applied {
                outcomes[i] = Some(Err(LangError::eval(0, verdict.to_string())));
            }
            return finish(outcomes);
        }
    };
    span.set_attr("epoch", epoch);
    if let Some(log) = engine.frame_log.lock().as_mut() {
        for &i in &applied {
            log.frames
                .push((batch[i].frame.clone(), batch[i].db.clone()));
        }
    }
    engine
        .snap
        .store(EngineState::tracked(epoch, working, &engine.engine_live));
    snapshot_publish().inc();
    for &i in &applied {
        outcomes[i] = Some(outcome.clone());
    }
    finish(outcomes)
}

fn finish(outcomes: Vec<Option<CommitOutcome>>) -> Vec<CommitOutcome> {
    outcomes
        .into_iter()
        .map(|o| o.unwrap_or_else(|| Err(LangError::eval(0, "group commit invariant broken"))))
        .collect()
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// A multi-session MiniDBPL server over one shared, snapshot-published
/// database. Clone-free sharing: hand each connection a
/// [`Server::session`].
///
/// ```
/// use dbpl_lang::Server;
/// let server = Server::new().unwrap();
/// let mut a = server.session();
/// let mut b = server.session();
/// a.run("type Person = {Name: Str} put(db, dynamic {Name = 'amy'})")
///     .unwrap();
/// let out = b.run("len[Person](get[Person](db))").unwrap();
/// assert_eq!(out, vec!["1"]);
/// ```
pub struct Server {
    engine: Arc<Engine>,
}

impl Server {
    /// A server whose replicating store lives in a fresh temp directory,
    /// removed when the engine drops (after the last session and the
    /// server itself are gone).
    pub fn new() -> Result<Server, LangError> {
        let dir = TempDir::new("server")
            .map_err(|e| LangError::eval(0, format!("cannot create a store directory: {e}")))?;
        let mut server = Server::with_store_dir(&dir)?;
        Arc::get_mut(&mut server.engine)
            .expect("a new server's engine is not shared yet")
            .owned_dir = Some(dir);
        Ok(server)
    }

    /// A server over a specific store directory.
    pub fn with_store_dir(dir: impl AsRef<Path>) -> Result<Server, LangError> {
        Server::open_with(
            Arc::new(dbpl_persist::CountingVfs::new(dbpl_persist::StdVfs)),
            dir,
        )
    }

    /// A server over an explicit [`Vfs`] (fault injection, in-memory
    /// testing) with default capacity knobs.
    pub fn open_with(vfs: Arc<dyn Vfs>, dir: impl AsRef<Path>) -> Result<Server, LangError> {
        Server::open_with_config(vfs, dir, ServerConfig::default())
    }

    /// A server over an explicit [`Vfs`] and explicit [`ServerConfig`]
    /// capacity knobs.
    pub fn open_with_config(
        vfs: Arc<dyn Vfs>,
        dir: impl AsRef<Path>,
        cfg: ServerConfig,
    ) -> Result<Server, LangError> {
        Ok(Server {
            engine: Arc::new(Engine::open_with(vfs, dir, cfg)?),
        })
    }

    /// The capacity knobs this server was opened with.
    pub fn config(&self) -> &ServerConfig {
        &self.engine.cfg
    }

    /// A new session over the shared engine, or an
    /// [`ErrorKind::Overloaded`](crate::ErrorKind::Overloaded) error if
    /// [`ServerConfig::max_sessions`] are already live. Dropping a
    /// session frees its slot.
    pub fn try_session(&self) -> Result<ServerSession, LangError> {
        let engine = &self.engine;
        let prev = engine.sessions.fetch_add(1, Ordering::Relaxed);
        if prev as usize >= engine.cfg.max_sessions {
            engine.sessions.fetch_sub(1, Ordering::Relaxed);
            let AdmissionError::Overloaded { gate, depth } =
                CommitQueue::rejected("session_cap", prev as usize)
            else {
                unreachable!()
            };
            return Err(LangError::overloaded(format!(
                "session refused: engine overloaded ({gate}, {depth} sessions live)"
            )));
        }
        sessions_live().inc();
        Ok(ServerSession {
            engine: Arc::clone(&self.engine),
            out: Vec::new(),
            quarantined: Vec::new(),
            last_commit_epoch: None,
            txn_deadline: None,
            attribution: None,
        })
    }

    /// A new session over the shared engine. Sessions are independent
    /// (own output, own quarantine record) but read and write the same
    /// database through snapshots and group commit. Sessions are `Send`:
    /// hand one to each connection thread.
    ///
    /// # Panics
    ///
    /// Panics if [`ServerConfig::max_sessions`] sessions are already
    /// live; use [`Server::try_session`] to handle that as an error.
    pub fn session(&self) -> ServerSession {
        self.try_session()
            .expect("session table at capacity; use Server::try_session")
    }

    /// How many [`EngineState`] snapshots of this engine are currently
    /// alive (the published one plus every pinned reader copy). The
    /// per-engine view of the process-wide `snapshot.live` gauge.
    pub fn live_snapshots(&self) -> i64 {
        self.engine.engine_live.load(Ordering::Relaxed)
    }

    /// Chaos knob: panic group commit while applying the `n`th frame it
    /// sees (1-based; 0 disarms). The panic is caught by per-frame
    /// supervision — only that frame aborts.
    #[doc(hidden)]
    pub fn chaos_panic_at_frame(&self, n: u64) {
        self.engine.chaos.panic_frame_at.store(n, Ordering::Relaxed);
    }

    /// Chaos knob: panic group commit just before the `n`th batch's
    /// durable commit (1-based; 0 disarms). The panic escapes the batch,
    /// exercising batch-level supervision: the engine degrades and the
    /// batch's sessions all get definitive errors.
    #[doc(hidden)]
    pub fn chaos_panic_at_batch(&self, n: u64) {
        self.engine.chaos.panic_batch_at.store(n, Ordering::Relaxed);
    }

    /// The currently published snapshot epoch.
    pub fn epoch(&self) -> u64 {
        self.engine.snap.load().epoch
    }

    /// The engine's health: [`Health::Degraded`] after an environmental
    /// failure (disk full) flipped durable commits off. Each batch
    /// probes before it commits, so a degraded engine heals itself with
    /// the first commit after the store is writable again.
    pub fn health(&self) -> Health {
        self.engine.gate.health()
    }

    /// Start recording the frame log: the current database plus every
    /// subsequently applied frame in serialization order. Differential
    /// tests replay it with [`Server::check_frame_log_replay`].
    pub fn start_frame_log(&self) {
        let base = self.engine.snap.load().db.clone();
        *self.engine.frame_log.lock() = Some(FrameLog {
            base,
            frames: Vec::new(),
        });
    }

    /// Replay the recorded frame log single-threaded from its base
    /// state and check the result is equivalent to the current published
    /// snapshot. Returns the number of frames replayed.
    ///
    /// This is the engine's serializability witness: whatever interleaving
    /// the sessions produced, the published state must equal a sequential
    /// execution of the frames in the order group commit chose.
    pub fn check_frame_log_replay(&self) -> Result<usize, String> {
        // Hold no locks while replaying: clone the log out.
        let (base, frames) = {
            let guard = self.engine.frame_log.lock();
            let log = guard.as_ref().ok_or("frame log was never started")?;
            (log.base.clone(), log.frames.clone())
        };
        let mut replayed = base;
        for (i, (frame, db)) in frames.iter().enumerate() {
            apply_frame(&mut replayed, frame, db)
                .map_err(|e| format!("replaying frame {i}: {e}"))?;
        }
        let published = self.engine.snap.load();
        db_equiv(&replayed, &published.db)?;
        Ok(frames.len())
    }

    /// Start a flight recorder over this server's lifetime: a background
    /// sampler snapshots the (process-global) metrics registry per
    /// `cfg.interval` into a bounded ring, evaluates `cfg.slos`, and
    /// emits [`dbpl_obs::Event::SloViolation`] when an objective starts
    /// failing. Replaces (and drains) any recorder already running.
    /// [`Server::shutdown`] stops it automatically, draining the final
    /// sample *before* admission closes.
    pub fn start_recorder(&self, cfg: RecorderConfig) {
        let mut slot = self.engine.recorder.lock();
        if let Some(old) = slot.take() {
            drop(old.stop());
        }
        *slot = Some(Recorder::start(cfg));
    }

    /// Stop the flight recorder and return its drained [`Timeline`], or
    /// `None` if none was running.
    pub fn stop_recorder(&self) -> Option<Timeline> {
        self.engine.drain_recorder()
    }

    /// Close admission, wait for the commits already queued to be
    /// answered, and checkpoint the commit log. Sessions that commit
    /// afterwards get an engine-down error. Dropping the last
    /// `Server`/`ServerSession` shuts down implicitly.
    pub fn shutdown(self) {
        self.engine.shutdown();
    }
}

/// A registry metric resolved once per process, the `counter_fn!`
/// pattern of `dbpl_persist`: the per-read and per-commit paths skip the
/// registry's by-name lookup. The handle stays valid across `reset`,
/// which zeroes metrics in place.
macro_rules! cached_metric {
    ($fn_name:ident: $kind:ident($metric:expr) -> $ty:ty) => {
        fn $fn_name() -> &'static Arc<$ty> {
            static M: OnceLock<Arc<$ty>> = OnceLock::new();
            M.get_or_init(|| dbpl_obs::global().$kind($metric))
        }
    };
}

cached_metric!(snapshot_reads: counter("snapshot.reads") -> Counter);
cached_metric!(snapshot_publish: counter("snapshot.publish") -> Counter);
cached_metric!(snapshot_live: gauge("snapshot.live") -> Gauge);
cached_metric!(queue_depth: gauge("server.queue_depth") -> Gauge);
cached_metric!(sessions_live: gauge("server.sessions") -> Gauge);
cached_metric!(queue_wait_us: histogram("server.queue_wait_us") -> Histogram);
cached_metric!(frames_admitted: counter("server.frames_admitted") -> Counter);
cached_metric!(overload_rejected: counter("server.overload_rejected") -> Counter);
cached_metric!(deadline_dropped: counter("server.deadline_dropped") -> Counter);
cached_metric!(group_commit_batches: counter("group_commit.batches") -> Counter);
cached_metric!(group_commit_batch_size: histogram("group_commit.batch_size") -> Histogram);

/// Structural equivalence of two databases: same dynamics, same schema,
/// same heap. (Used by the replay check; `Database` deliberately does not
/// implement `PartialEq`.)
fn db_equiv(a: &Database, b: &Database) -> Result<(), String> {
    if a.len() != b.len() || !a.rows_from(0).eq(b.rows_from(0)) {
        return Err(format!(
            "dynamic stores differ: {} vs {} elements (or content)",
            a.len(),
            b.len()
        ));
    }
    let defs_a: Vec<_> = a.env().definitions().collect();
    let defs_b: Vec<_> = b.env().definitions().collect();
    if defs_a != defs_b {
        return Err("schemas differ".to_string());
    }
    let heap_a: Vec<_> = a.heap().iter().collect();
    let heap_b: Vec<_> = b.heap().iter().collect();
    if heap_a != heap_b {
        return Err(format!(
            "heaps differ: {} vs {} objects (or content)",
            a.heap().len(),
            b.heap().len()
        ));
    }
    Ok(())
}

/// One session multiplexed over a [`Server`]'s shared engine.
///
/// Each [`ServerSession::run`] executes against a private MVCC snapshot;
/// a program that wrote anything commits through the engine's group
/// commit, a pure read never leaves its snapshot. Output
/// accumulates in [`ServerSession::out`] exactly as in [`Session`].
pub struct ServerSession {
    engine: Arc<Engine>,
    /// Output produced by this session's programs (printing is an
    /// observable effect; it survives aborted transactions).
    pub out: Vec<String>,
    /// Corrupt store units this session's programs tripped over.
    quarantined: Vec<QuarantineEntry>,
    /// The epoch published for this session's most recent write commit.
    last_commit_epoch: Option<u64>,
    /// Wall-clock budget for each [`ServerSession::run`], measured from
    /// entry and **queue-aware**: waiting for admission and waiting in
    /// the commit queue both count. An expired deadline refuses to start
    /// the durability step — the commit fails `DeadlineExceeded` with
    /// nothing durable. `None` (the default) also means admission never
    /// waits: a full queue rejects `Overloaded` immediately.
    pub txn_deadline: Option<Duration>,
    /// Per-session metric attribution ([`ServerSession::set_label`]):
    /// cached counter handles so the hot path pays one relaxed add, not
    /// a registry lookup.
    attribution: Option<SessionTag>,
}

/// Cached attribution handles for a labeled session.
struct SessionTag {
    label: String,
    /// `server.session.<label>.commits` — durable-commit attempts
    /// offered to the admission gate (rejected attempts count: this is
    /// the "who saturated the queue" signal).
    commits: Arc<dbpl_obs::Counter>,
    /// `server.session.<label>.reads` — programs answered entirely from
    /// the session's snapshot (the pure-read fast path).
    reads: Arc<dbpl_obs::Counter>,
}

/// Sanitize a session label into a single metric-name segment:
/// characters outside `[A-Za-z0-9_-]` become `_` (a dot, in particular,
/// would splice extra segments into `server.session.<label>.commits`
/// and confuse the SLO engine's offender attribution). If anything was
/// replaced — or the label was empty — an 8-hex-digit FNV-1a hash of
/// the *original* label is appended, so two distinct raw labels that
/// sanitize alike (`"a b"` and `"a?b"`) still land on distinct metrics,
/// while already-clean labels pass through byte-for-byte.
pub fn sanitize_label(raw: &str) -> String {
    let cleaned: String = raw
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if !cleaned.is_empty() && cleaned == raw {
        return cleaned;
    }
    use std::hash::Hasher;
    let mut h = dbpl_stats::Fnv1a::new();
    h.write(raw.as_bytes());
    let stem = if cleaned.is_empty() {
        "session"
    } else {
        cleaned.as_str()
    };
    format!("{stem}-{:08x}", h.finish() as u32)
}

impl Drop for ServerSession {
    fn drop(&mut self) {
        self.engine.sessions.fetch_sub(1, Ordering::Relaxed);
        sessions_live().dec();
    }
}

impl ServerSession {
    /// The epoch at which this session's most recent writing program was
    /// published, or `None` if it has not committed a write yet. Any
    /// snapshot at this epoch or later observes the commit — the handle a
    /// caller uses to reason about visibility across sessions.
    pub fn last_commit_epoch(&self) -> Option<u64> {
        self.last_commit_epoch
    }

    /// Attribute this session's activity in the metrics registry:
    /// subsequent runs bump `server.session.<label>.commits` (durable
    /// commit attempts offered to the admission gate, rejected ones
    /// included) and `server.session.<label>.reads` (programs answered
    /// purely from the snapshot). The flight recorder's SLO engine uses
    /// these to name the offending session in a violation. Labels are
    /// opt-in — metric cardinality is the caller's responsibility (use
    /// a connection or tenant id, not a per-request string).
    ///
    /// The label is sanitized into a valid metric-name segment first
    /// (see [`sanitize_label`]): characters outside `[A-Za-z0-9_-]` are
    /// replaced, and any altered label gains an FNV-1a suffix of the
    /// original so two distinct raw labels can never collide on one
    /// metric. [`ServerSession::label`] reports the sanitized form —
    /// the name the registry actually carries.
    pub fn set_label(&mut self, label: &str) {
        let label = sanitize_label(label);
        let reg = dbpl_obs::global();
        self.attribution = Some(SessionTag {
            commits: reg.counter(&format!("server.session.{label}.commits")),
            reads: reg.counter(&format!("server.session.{label}.reads")),
            label,
        });
    }

    /// The attribution label set via [`ServerSession::set_label`], if
    /// any.
    pub fn label(&self) -> Option<&str> {
        self.attribution.as_ref().map(|t| t.label.as_str())
    }

    /// Parse, type-check and run one program against a fresh snapshot,
    /// committing its effects (if any) through group commit.
    /// Returns the lines of output it produced. The program is one
    /// transaction: explicit `begin`/`commit`/`abort` are rejected.
    pub fn run(&mut self, src: &str) -> Result<Vec<String>, LangError> {
        let out_start = self.out.len();
        let (frame, db) = self.execute(src)?;
        let out_lines = self.out[out_start..].to_vec();
        if frame.is_empty(&db) {
            // A pure read never touches the commit queue: this is the
            // reader-scaling fast path.
            if let Some(tag) = &self.attribution {
                tag.reads.inc();
            }
            return Ok(out_lines);
        }
        // Attributed *before* admission: a rejected attempt still
        // pressured the queue, which is exactly what the SLO engine's
        // offender attribution wants to see.
        if let Some(tag) = &self.attribution {
            tag.commits.inc();
        }

        // A deadline that expired during evaluation refuses to start the
        // durability step at all — nothing enqueued, nothing staged.
        if frame.deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(aborted(LangError::deadline_exceeded(
                "transaction deadline expired before the commit was enqueued; \
                 nothing durable happened",
            )));
        }

        let epoch = self.engine.commit(frame, db).map_err(|e| match e {
            AdmissionError::Overloaded { gate, depth } => aborted(LangError::overloaded(format!(
                "commit not admitted, transaction aborted: engine overloaded \
                     ({gate}, queue depth {depth}); nothing was staged"
            ))),
            AdmissionError::EngineDown => aborted(LangError::engine_down(
                "engine is shut down; the commit was not enqueued",
            )),
        })??;
        self.last_commit_epoch = Some(epoch);
        Ok(out_lines)
    }

    /// Run `src` on a copy of the published snapshot, with its output
    /// appended to [`ServerSession::out`]: the frame it recorded and the
    /// database it wrote, for group commit to apply.
    fn execute(&mut self, src: &str) -> Result<(Frame, Database), LangError> {
        let mut db = self.engine.snap.load().db.clone();
        snapshot_reads().inc();
        let mut txn = None;
        Ctx {
            db: &mut db,
            txn: &mut txn,
            store: &self.engine.store,
            intrinsic: None,
            out: &mut self.out,
            quarantined: &mut self.quarantined,
            gate: None,
            budget: self.txn_deadline,
        }
        .run(src)?;
        Ok((txn.expect("a program that ran leaves its frame open"), db))
    }

    /// Run a program, rendering any error against the source.
    pub fn run_pretty(&mut self, src: &str) -> Result<Vec<String>, String> {
        self.run(src).map_err(|e| e.render(src))
    }

    /// The snapshot this session would read right now (epoch + database).
    /// Consistent and immutable: queries against it never see later
    /// commits.
    pub fn snapshot(&self) -> Arc<EngineState> {
        snapshot_reads().inc();
        self.engine.snap.load()
    }

    /// The session's health — the shared engine's: one session's
    /// disk-full failure is visible to every session, and every batch
    /// refuses their durable commits (probe-first, nothing written) until
    /// the store heals.
    pub fn health(&self) -> Health {
        self.engine.gate.health()
    }

    /// Corrupt store units this session's programs tripped over.
    pub fn quarantine_report(&self) -> dbpl_persist::QuarantineReport {
        dbpl_persist::QuarantineReport {
            entries: self.quarantined.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbpl_persist::{FaultPlan, SimVfs};

    fn sim_server(plan: Option<FaultPlan>) -> (Server, SimVfs) {
        let vfs = SimVfs::new();
        if let Some(p) = plan {
            vfs.set_plan(p);
        }
        let server = Server::open_with(Arc::new(vfs.clone()), "/srv").unwrap();
        (server, vfs)
    }

    #[test]
    fn an_owned_store_dir_goes_with_the_engine_and_a_given_one_stays() {
        let server = Server::new().unwrap();
        let owned = server.engine.store.dir().to_path_buf();
        let mut s = server.session();
        s.run("extern('K', dynamic 1)").unwrap();
        drop(server);
        assert!(owned.exists(), "a live session keeps the engine open");
        drop(s);
        assert!(!owned.exists(), "the engine removes the directory it made");

        let given = TempDir::new("server-given").unwrap();
        let server = Server::with_store_dir(&given).unwrap();
        server.session().run("extern('K', dynamic 2)").unwrap();
        server.shutdown();
        let server = Server::with_store_dir(&given).unwrap();
        let out = server.session().run("coerce intern('K') to Int").unwrap();
        assert_eq!(out, vec!["2"]);
        server.shutdown();
        assert!(given.exists(), "a given directory stays");
    }

    #[test]
    fn sessions_share_commits_through_snapshots() {
        let server = Server::new().unwrap();
        let mut a = server.session();
        let mut b = server.session();
        a.run("type Person = {Name: Str} put(db, dynamic {Name = 'amy'})")
            .unwrap();
        let out = b.run("len[Person](get[Person](db))").unwrap();
        assert_eq!(out, vec!["1"]);
        assert_eq!(server.epoch(), 1);
    }

    #[test]
    fn pure_reads_do_not_publish_epochs() {
        let server = Server::new().unwrap();
        let mut s = server.session();
        s.run("type T = {X: Int} put(db, dynamic {X = 1})").unwrap();
        let e = server.epoch();
        s.run("len[T](get[T](db))").unwrap();
        s.run("print('hello')").unwrap();
        assert_eq!(server.epoch(), e, "reads must not publish");
    }

    #[test]
    fn relabeling_mid_session_routes_bumps_to_the_new_label() {
        let g = dbpl_obs::global();
        let a_before = g.counter("server.session.tenant-a.commits").get();
        let b_before = g.counter("server.session.tenant-b.commits").get();
        let b_reads_before = g.counter("server.session.tenant-b.reads").get();
        let server = Server::new().unwrap();
        let mut s = server.session();
        s.set_label("tenant-a");
        s.run("type T = {X: Int} put(db, dynamic {X = 1})").unwrap();
        // Relabel mid-session: subsequent bumps must go to the new
        // label and only to it.
        s.set_label("tenant-b");
        s.run("put(db, dynamic {X = 2})").unwrap();
        s.run("len[T](get[T](db))").unwrap();
        assert_eq!(
            g.counter("server.session.tenant-a.commits").get() - a_before,
            1,
            "only the pre-relabel commit is attributed to tenant-a"
        );
        assert_eq!(
            g.counter("server.session.tenant-b.commits").get() - b_before,
            1,
            "the post-relabel commit moved to tenant-b"
        );
        assert_eq!(
            g.counter("server.session.tenant-b.reads").get() - b_reads_before,
            1,
            "the pure read is attributed to the current label"
        );
    }

    #[test]
    fn labels_are_sanitized_into_valid_metric_names() {
        let server = Server::new().unwrap();
        let mut s = server.session();
        s.set_label("löad 2!.x");
        let label = s.label().unwrap().to_string();
        assert!(
            label
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-'),
            "sanitized label `{label}` is a single clean metric segment"
        );
        let before = dbpl_obs::global()
            .counter(&format!("server.session.{label}.commits"))
            .get();
        s.run("type S = {Y: Int} put(db, dynamic {Y = 1})").unwrap();
        assert_eq!(
            dbpl_obs::global()
                .counter(&format!("server.session.{label}.commits"))
                .get()
                - before,
            1,
            "bumps land on the sanitized metric name"
        );
    }

    #[test]
    fn sanitize_label_never_collides_distinct_raw_labels() {
        // Clean labels pass through untouched — the FNV-suffix scheme
        // must not perturb the labels the recorder already attributes.
        assert_eq!(sanitize_label("load-1"), "load-1");
        assert_eq!(sanitize_label("tenant_7"), "tenant_7");
        // Two raw labels that sanitize alike get distinct suffixes.
        let a = sanitize_label("a b");
        let b = sanitize_label("a?b");
        assert_ne!(a, b, "`a b` and `a?b` must not share a metric");
        assert!(a.starts_with("a_b-") && b.starts_with("a_b-"));
        // Dots are replaced (they would splice metric segments), and the
        // empty label still produces a usable stem.
        assert!(!sanitize_label("x.y").contains('.'));
        assert!(sanitize_label("").starts_with("session-"));
    }

    #[test]
    fn snapshots_are_immutable_while_writers_commit() {
        let server = Server::new().unwrap();
        let mut w = server.session();
        w.run("type T = {X: Int} put(db, dynamic {X = 1})").unwrap();
        let r = server.session();
        let snap = r.snapshot();
        let before = snap.db.len();
        w.run("put(db, dynamic {X = 2})").unwrap();
        assert_eq!(snap.db.len(), before, "held snapshot must not move");
        assert!(server.epoch() >= 2);
    }

    #[test]
    fn conflicting_decl_frames_fail_only_that_frame() {
        let server = Server::new().unwrap();
        let mut s = server.session();
        // Record three frames against the same base snapshot: nothing
        // commits until they are sent.
        let mut mk = |ty: &str| {
            s.execute(&format!("type T = {{X: {ty}}} put(db, dynamic {{X = 1}})"))
                .unwrap()
        };
        let f1 = mk("Int");
        let f2 = mk("Int"); // identical: idempotent
        let f3 = mk("Str"); // structurally different: conflict
        let send = |(frame, db)| server.engine.commit(frame, db).unwrap();
        assert!(send(f1).is_ok());
        assert!(send(f2).is_ok());
        assert!(matches!(send(f3), Err(e) if e.msg.starts_with("commit conflict")));
        // The conflicting frame aborted alone; the store still serves T.
        let mut s2 = server.session();
        assert_eq!(s2.run("len[T](get[T](db))").unwrap(), vec!["2"]);
    }

    #[test]
    fn equivalent_concurrent_declarations_do_not_conflict() {
        // Run one after the other, both programs succeed: the checker
        // takes `type Q = P` and `type Q = {Name: Str}` as one structure.
        // Recorded from one base, the second frame must apply too.
        let server = Server::new().unwrap();
        let mut s = server.session();
        s.run("type P = {Name: Str}").unwrap();
        let by_name = s
            .execute("type Q = P put(db, dynamic {Name = 'a'})")
            .unwrap();
        let by_structure = s
            .execute("type Q = {Name: Str} put(db, dynamic {Name = 'b'})")
            .unwrap();
        let send = |(frame, db)| server.engine.commit(frame, db).unwrap();
        assert!(send(by_name).is_ok());
        let outcome = send(by_structure);
        assert!(outcome.is_ok(), "{outcome:?}");
        assert_eq!(s.run("len[Q](get[Q](db))").unwrap(), vec!["2"]);
    }

    #[test]
    fn interned_heap_objects_remap_across_frames() {
        let server = Server::new().unwrap();
        let mut a = server.session();
        // Extern a record, then two sessions intern it concurrently and
        // put the result — both allocate overlapping oids in their own
        // snapshots; group commit must remap, not collide.
        a.run("type P = {Name: Str} extern('p', dynamic {Name = 'x'})")
            .unwrap();
        let mut b = server.session();
        let mut c = server.session();
        b.run("put(db, intern('p'))").unwrap();
        c.run("put(db, intern('p'))").unwrap();
        let mut r = server.session();
        assert_eq!(r.run("len[P](get[P](db))").unwrap(), vec!["2"]);
    }

    #[test]
    fn frame_log_replay_matches_published_state() {
        let server = Server::new().unwrap();
        server.start_frame_log();
        let mut a = server.session();
        let mut b = server.session();
        a.run("type T = {X: Int} put(db, dynamic {X = 1})").unwrap();
        b.run("put(db, dynamic {X = 2})").unwrap();
        a.run("put(db, dynamic {X = 3})").unwrap();
        let n = server.check_frame_log_replay().unwrap();
        assert_eq!(n, 3);
    }

    #[test]
    fn degraded_engine_refuses_enqueue_probe_first() {
        let (server, vfs) = sim_server(None);
        let mut s = server.session();
        s.run("type T = {X: Int} extern('h1', dynamic {X = 1})")
            .unwrap();
        // Disk fills: the next durable commit fails pre-durability, the
        // engine degrades.
        vfs.set_plan(FaultPlan {
            enospc_at_op: Some(1),
            ..Default::default()
        });
        let err = s
            .run("extern('h2', dynamic {X = 2})")
            .expect_err("commit must fail on a full disk");
        assert!(err.to_string().contains("commit"), "{err}");
        assert!(server.health().is_degraded());
        assert!(s.health().is_degraded(), "health is the engine's");
        // While degraded: enqueue is refused probe-first — the failing
        // op count must not advance past the probe's own writes, and
        // reads keep flowing.
        let err = s
            .run("extern('h3', dynamic {X = 3})")
            .expect_err("degraded engine must refuse");
        assert!(err.to_string().contains("refused"), "{err}");
        assert!(s.run("len[T](get[T](db))").is_ok(), "reads still work");
        // Space returns: the probe heals the engine and commits resume.
        vfs.set_plan(FaultPlan::default());
        s.run("extern('h4', dynamic {X = 4})").unwrap();
        assert!(!server.health().is_degraded());
    }

    #[test]
    fn in_doubt_group_commit_attributes_to_every_batch_member() {
        // A persistent fsync failure after the durability point must
        // surface InDoubt to EVERY member of the coalesced batch, not
        // just the first frame in the queue. Build three frames against
        // one snapshot and commit them as one batch with `commit_batch`.
        // A persistent fsync failure armed at increasing op offsets sweeps
        // the commit across its durability boundary until the in-doubt
        // window is hit, crash-sweep style.
        let mut saw_in_doubt = false;
        'sweep: for fail_at in 1..200u64 {
            let vfs2 = SimVfs::new();
            let server2 = Server::open_with(Arc::new(vfs2.clone()), "/srv2").unwrap();
            let mut setup2 = server2.session();
            setup2
                .run("type T = {X: Int} extern('seed', dynamic {X = 0})")
                .unwrap();
            let mut batch = Vec::new();
            for i in 0..3 {
                let (frame, db) = setup2
                    .execute(&format!("extern('h{i}', dynamic {{X = {i}}})"))
                    .unwrap();
                batch.push(CommitRequest {
                    ticket: i,
                    frame,
                    db,
                    enqueued_at: Instant::now(),
                });
            }
            let base_ops = vfs2.ops();
            vfs2.set_plan(FaultPlan {
                fail_fsync_at_op: Some(base_ops + fail_at),
                ..Default::default()
            });
            let outcomes = commit_batch(&server2.engine, &batch);
            let in_doubt = outcomes
                .iter()
                .filter(|o| matches!(o, Err(e) if e.msg.contains("in doubt")))
                .count();
            if in_doubt > 0 {
                // The regression: in-doubt must cover the WHOLE batch.
                assert_eq!(
                    in_doubt, 3,
                    "in-doubt attributed to only {in_doubt}/3 members at fail_at={fail_at}: {outcomes:?}"
                );
                // All members share the same coalesced transaction (the
                // message names its id).
                let msgs: std::collections::BTreeSet<&str> = outcomes
                    .iter()
                    .map(|o| match o {
                        Err(e) => e.msg.as_str(),
                        _ => unreachable!(),
                    })
                    .collect();
                assert_eq!(msgs.len(), 1, "one batch, one txn id: {msgs:?}");
                assert!(
                    msgs.iter()
                        .all(|m| m.contains("durably logged as transaction")),
                    "{msgs:?}"
                );
                saw_in_doubt = true;
                break 'sweep;
            }
        }
        assert!(
            saw_in_doubt,
            "sweep never produced an in-doubt batch; fault plan is miswired"
        );
    }

    #[test]
    fn group_commit_span_belongs_to_the_committing_request() {
        let vfs = dbpl_persist::CountingVfs::new(SimVfs::new());
        let server = Server::open_with(Arc::new(vfs), "/traced").unwrap();
        let mut s = server.session();
        let (res, spans) = dbpl_obs::trace::capture("test.write", || {
            s.run("type T = {X: Int} put(db, dynamic {X = 1}) extern('h', dynamic 1)")
        });
        res.unwrap();
        let group = spans
            .iter()
            .find(|sp| sp.name == "txn.group_commit")
            .expect("the request's trace holds its group commit");
        let root = spans.iter().find(|sp| sp.parent_id.is_none()).unwrap();
        assert_eq!(root.name, "test.write");
        assert_eq!(group.trace_id, root.trace_id);
        // Walk each fsync's parents up to the group commit.
        let descends = |sp: &dbpl_obs::trace::SpanRecord| {
            let mut parent = sp.parent_id;
            while let Some(p) = parent {
                if p == group.span_id {
                    return true;
                }
                parent = spans
                    .iter()
                    .find(|x| x.span_id == p)
                    .and_then(|x| x.parent_id);
            }
            false
        };
        let fsyncs: Vec<_> = spans.iter().filter(|sp| sp.name == "vfs.fsync").collect();
        assert!(!fsyncs.is_empty(), "the commit's fsync is traced");
        assert!(
            fsyncs.iter().all(|sp| descends(sp)),
            "every fsync sits under txn.group_commit:\n{}",
            dbpl_obs::trace::render_tree(&spans)
        );
    }

    #[test]
    fn a_read_is_one_run_span() {
        let server = Server::new().unwrap();
        let mut s = server.session();
        s.run("put(db, dynamic 1)").unwrap();
        let (res, spans) = dbpl_obs::trace::capture("test.read", || s.run("len(get[Int](db))"));
        assert_eq!(res.unwrap(), vec!["1"]);
        let root = spans.iter().find(|sp| sp.parent_id.is_none()).unwrap();
        let stages: Vec<&str> = spans
            .iter()
            .filter(|sp| sp.parent_id == Some(root.span_id))
            .map(|sp| sp.name)
            .collect();
        assert_eq!(stages, ["run"], "{}", dbpl_obs::trace::render_tree(&spans));
    }

    #[test]
    fn explicit_txn_statements_are_rejected() {
        let server = Server::new().unwrap();
        let mut s = server.session();
        let err = s.run("begin put(db, dynamic 1) commit").unwrap_err();
        assert!(err.to_string().contains("not supported"), "{err}");
    }

    #[test]
    fn shutdown_drains_queued_commits() {
        let server = Server::new().unwrap();
        let mut s = server.session();
        s.run("type T = {X: Int} put(db, dynamic {X = 1})").unwrap();
        server.shutdown();
    }

    #[test]
    fn recorder_attributes_labeled_sessions_and_drains_on_shutdown() {
        use dbpl_obs::timeline::RecorderConfig;
        let server = Server::new().unwrap();
        server.start_recorder(RecorderConfig {
            interval: Duration::from_millis(2),
            capacity: 256,
            slos: Vec::new(),
        });
        let mut s = server.session();
        s.set_label("rec-test");
        assert_eq!(s.label(), Some("rec-test"));
        let commits = dbpl_obs::global().counter("server.session.rec-test.commits");
        let reads = dbpl_obs::global().counter("server.session.rec-test.reads");
        let (c0, r0) = (commits.get(), reads.get());
        s.run("type T = {X: Int} put(db, dynamic {X = 1})").unwrap();
        s.run("len[T](get[T](db))").unwrap();
        assert_eq!(commits.get(), c0 + 1, "one attributed commit attempt");
        assert_eq!(reads.get(), r0 + 1, "one attributed pure read");
        // The MiniDBPL view of the live ring (a Str value, rendered
        // quoted by the session).
        let out = s.run("timeline(db)").unwrap();
        assert!(
            out[0].trim_matches('\'').starts_with("timeline: "),
            "timeline(db) renders the ring: {}",
            out[0]
        );
        // Shutdown stops the recorder before the queue closes; a second
        // stop finds nothing.
        drop(s);
        let timeline = server.stop_recorder().expect("recorder was running");
        assert!(!timeline.samples.is_empty(), "drain sample always lands");
        let attributed: u64 = timeline
            .samples
            .iter()
            .map(|smp| smp.delta.counter("server.session.rec-test.commits"))
            .sum();
        assert!(attributed >= 1, "the commit shows up in the timeline");
        assert!(server.stop_recorder().is_none());
        server.shutdown();
    }

    #[test]
    fn timeline_builtin_without_recorder_says_so() {
        let server = Server::new().unwrap();
        let mut s = server.session();
        let out = s.run("timeline(db)").unwrap();
        // Another test's recorder may be live in this process; accept
        // either answer but require the builtin to respond coherently.
        let text = out[0].trim_matches('\'');
        assert!(
            text == "timeline: no recorder active" || text.starts_with("timeline: "),
            "{text}"
        );
    }

    #[test]
    fn stats_builtins_render_the_counted_catalog() {
        let server = Server::new().unwrap();
        let mut s = server.session();
        s.run(concat!(
            "type Person = {Name: Str, Age: Int} ",
            "put(db, dynamic {Name = 'amy', Age = 30}) ",
            "put(db, dynamic {Name = 'bob', Age = 41}) ",
            "len[Person](get[Person](db))",
        ))
        .unwrap();
        let out = s.run("extentStats(db)").unwrap();
        let text = out[0].trim_matches('\'').to_string();
        // Dynamics carry their structural record type; both rows share it.
        assert!(text.contains("Age") && text.contains("Name"), "{text}");
        assert!(text.contains("rows=2"), "{text}");
        assert!(text.contains("distinct=2"), "{text}");
        let out = s.run("analyze(db)").unwrap();
        let text = out[0].trim_matches('\'').to_string();
        assert_eq!(text, "analyze: statistics for 1 carried type(s), 2 row(s)");
    }

    #[test]
    fn shutdown_with_running_recorder_is_clean() {
        use dbpl_obs::timeline::RecorderConfig;
        let server = Server::new().unwrap();
        server.start_recorder(RecorderConfig {
            interval: Duration::from_millis(2),
            capacity: 16,
            slos: Vec::new(),
        });
        let mut s = server.session();
        s.run("type T = {X: Int} put(db, dynamic {X = 1})").unwrap();
        drop(s);
        // No explicit stop_recorder: shutdown must drain it itself.
        server.shutdown();
    }
}
