//! Crash-simulation harness: scripted workloads over the fault-injecting
//! [`SimVfs`], killed at **every** I/O boundary.
//!
//! The after-the-fact corruption tests (truncate or flip bits in a
//! finished log) only exercise recovery from damage a crash *might* have
//! left. This harness is exhaustive instead: it first runs a seeded
//! workload fault-free to count the I/O operations it performs, then
//! replays the identical workload once per operation, simulating a power
//! failure at exactly that boundary — torn final write included — reboots
//! the simulated disk, reopens the store, and asserts the recovered state
//! is a **committed prefix** of history:
//!
//! * every acknowledged commit survives;
//! * at most the single in-flight transaction may additionally appear;
//! * recovery itself never panics and never surfaces corruption.
//!
//! [`transient_storm_intrinsic`] and [`transient_storm_replicating`]
//! check the complementary contract: with transient fault injection
//! (short reads, failed fsyncs) but no crash, the bounded-retry layer
//! absorbs everything and the workload completes bit-identically.
//!
//! All scripts derive deterministically from a seed, so a failure report
//! (`seed`, crash op) reproduces exactly.

use crate::error::PersistError;
use crate::intrinsic::IntrinsicStore;
use crate::replicating::ReplicatingStore;
use crate::snapshot::Image;
use crate::txn::{checkpoint, commit_multi, recover_pending};
use crate::vfs::{FaultPlan, RetryPolicy, SimVfs, Vfs};
use dbpl_types::{Type, TypeEnv};
use dbpl_values::{DynValue, Heap, Value};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// What a crash sweep covered — returned so tests can assert the sweep
/// was not vacuous.
#[derive(Debug, Clone, Copy)]
pub struct SweepReport {
    /// I/O operations in the fault-free reference run (= crash points
    /// exercised: the workload was killed once at each).
    pub crash_points: u64,
    /// Transactions (or externs) acknowledged in the reference run.
    pub committed: usize,
}

/// Minimal deterministic generator for workload scripts.
struct ScriptRng(u64);

impl ScriptRng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

// ---------------------------------------------------------------------------
// IntrinsicStore
// ---------------------------------------------------------------------------

const INTRINSIC_LOG: &str = "store.log";
const HANDLE_NAMES: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

/// One scripted action inside a transaction.
enum Action {
    /// Bind a handle to a fresh object holding this value.
    Set(usize, i64),
    /// Unbind a handle.
    Remove(usize),
}

/// A deterministic transaction script: each transaction is 1–3 actions
/// followed by a commit. Values increase monotonically so every distinct
/// committed state is distinguishable.
fn intrinsic_script(seed: u64, txns: usize) -> Vec<Vec<Action>> {
    let mut rng = ScriptRng(seed);
    let mut counter = 0i64;
    (0..txns)
        .map(|_| {
            (0..1 + rng.below(3))
                .map(|_| {
                    let h = rng.below(HANDLE_NAMES.len() as u64) as usize;
                    if rng.below(4) == 0 {
                        Action::Remove(h)
                    } else {
                        counter += 1;
                        Action::Set(h, counter)
                    }
                })
                .collect()
        })
        .collect()
}

/// The model states the script passes through: `states[i]` is the handle
/// table after `i` committed transactions.
fn intrinsic_states(script: &[Vec<Action>]) -> Vec<BTreeMap<String, i64>> {
    let mut states = vec![BTreeMap::new()];
    let mut cur: BTreeMap<String, i64> = BTreeMap::new();
    for txn in script {
        for action in txn {
            match action {
                Action::Set(h, v) => {
                    cur.insert(HANDLE_NAMES[*h].to_string(), *v);
                }
                Action::Remove(h) => {
                    cur.remove(HANDLE_NAMES[*h]);
                }
            }
        }
        states.push(cur.clone());
    }
    states
}

/// Run the script against a store on `vfs`. Returns the number of
/// acknowledged commits, plus the error that stopped the run (if any).
fn run_intrinsic(vfs: &SimVfs, script: &[Vec<Action>]) -> (usize, Option<PersistError>) {
    let vfs: Arc<dyn Vfs> = Arc::new(vfs.clone());
    let mut store = match IntrinsicStore::open_with(vfs, Path::new(INTRINSIC_LOG)) {
        Ok(s) => s,
        Err(e) => return (0, Some(e)),
    };
    let mut acked = 0;
    for txn in script {
        for action in txn {
            match action {
                Action::Set(h, v) => {
                    let o = store.alloc(Type::Int, Value::Int(*v));
                    store.set_handle(HANDLE_NAMES[*h], Type::Int, Value::Ref(o));
                }
                Action::Remove(h) => {
                    store.remove_handle(HANDLE_NAMES[*h]);
                }
            }
        }
        match store.commit() {
            Ok(_) => acked += 1,
            Err(e) => return (acked, Some(e)),
        }
    }
    (acked, None)
}

/// Read a store's committed handle table back as a model state.
fn intrinsic_canonical(store: &IntrinsicStore) -> BTreeMap<String, i64> {
    store
        .handles()
        .iter()
        .map(|(name, (_, v))| {
            let oid = v.as_ref_oid().expect("script stores only refs");
            match store.get(oid).expect("handle points at live object").value {
                Value::Int(i) => (name.clone(), i),
                ref other => panic!("script stores only ints, found {other:?}"),
            }
        })
        .collect()
}

/// Exhaustive crash sweep over an [`IntrinsicStore`] workload: the seeded
/// script is killed once at every I/O operation it performs; after each
/// simulated power failure the store is reopened and its state must equal
/// the model state after `acked` or `acked + 1` commits — the
/// committed-prefix contract. Panics (with the seed and crash op in the
/// message) on any violation.
pub fn crash_sweep_intrinsic(seed: u64, txns: usize) -> SweepReport {
    let script = intrinsic_script(seed, txns);
    let states = intrinsic_states(&script);

    // Fault-free reference run: fixes the op count and sanity-checks the
    // script against the model.
    let reference = SimVfs::new();
    let (acked, err) = run_intrinsic(&reference, &script);
    assert!(err.is_none(), "seed {seed}: fault-free run failed: {err:?}");
    assert_eq!(acked, txns);
    let total_ops = reference.ops();
    assert!(total_ops > 0);

    for crash_at in 1..=total_ops {
        let vfs = SimVfs::with_plan(FaultPlan {
            seed,
            crash_at_op: Some(crash_at),
            transient_one_in: None,
            ..FaultPlan::default()
        });
        let (acked, err) = run_intrinsic(&vfs, &script);
        assert!(
            err.is_some(),
            "seed {seed}: planned crash at op {crash_at}/{total_ops} never hit"
        );
        vfs.recover();
        let vfs_dyn: Arc<dyn Vfs> = Arc::new(vfs.clone());
        let store =
            IntrinsicStore::open_with(vfs_dyn, Path::new(INTRINSIC_LOG)).unwrap_or_else(|e| {
                panic!("seed {seed}, crash at op {crash_at}: recovery failed: {e}")
            });
        let got = intrinsic_canonical(&store);
        let in_flight = states.get(acked + 1);
        assert!(
            got == states[acked] || Some(&got) == in_flight,
            "seed {seed}, crash at op {crash_at}: recovered {got:?}, \
             expected state {acked} ({:?}) or the in-flight {in_flight:?}",
            states[acked],
        );
        assert!(
            store.txn() as usize <= txns,
            "recovered past the end of history"
        );
    }
    SweepReport {
        crash_points: total_ops,
        committed: txns,
    }
}

/// Transient-fault storm over the same intrinsic workload: roughly one in
/// six I/O operations fails once with a retryable error, and the workload
/// must nonetheless complete with exactly the model's final state.
pub fn transient_storm_intrinsic(seed: u64, txns: usize) {
    let script = intrinsic_script(seed, txns);
    let states = intrinsic_states(&script);
    let vfs = SimVfs::with_plan(FaultPlan {
        seed,
        crash_at_op: None,
        transient_one_in: Some(6),
        ..FaultPlan::default()
    });
    let (acked, err) = run_intrinsic(&vfs, &script);
    assert!(
        err.is_none(),
        "seed {seed}: transient faults leaked through retry: {err:?}"
    );
    assert_eq!(acked, txns);
    let vfs_dyn: Arc<dyn Vfs> = Arc::new(vfs.clone());
    let store = IntrinsicStore::open_with(vfs_dyn, Path::new(INTRINSIC_LOG)).unwrap();
    assert_eq!(intrinsic_canonical(&store), *states.last().unwrap());
}

// ---------------------------------------------------------------------------
// ReplicatingStore
// ---------------------------------------------------------------------------

const REPL_DIR: &str = "rstore";
// One deliberately unsafe name so the sweep also covers the sanitized
// file-name path.
const REPL_HANDLES: [&str; 3] = ["alpha", "beta", "a/b!"];

/// Run `writes` seeded externs. Returns the last acknowledged value per
/// handle, the extern in flight when an error stopped the run, and that
/// error.
#[allow(clippy::type_complexity)]
fn run_replicating(
    vfs: &SimVfs,
    seed: u64,
    writes: usize,
) -> (Vec<Option<i64>>, Option<(usize, i64)>, Option<PersistError>) {
    let mut rng = ScriptRng(seed ^ 0x5EED_5A17);
    let mut acked: Vec<Option<i64>> = vec![None; REPL_HANDLES.len()];
    let vfs_dyn: Arc<dyn Vfs> = Arc::new(vfs.clone());
    let store = match ReplicatingStore::open_with(vfs_dyn, Path::new(REPL_DIR)) {
        Ok(s) => s,
        Err(e) => return (acked, None, Some(e)),
    };
    let heap = Heap::new();
    for i in 0..writes {
        let h = rng.below(REPL_HANDLES.len() as u64) as usize;
        let v = (i + 1) as i64;
        let d = DynValue::new(Type::Int, Value::Int(v));
        match store.extern_value(REPL_HANDLES[h], &d, &heap) {
            Ok(()) => acked[h] = Some(v),
            Err(e) => return (acked, Some((h, v)), Some(e)),
        }
    }
    (acked, None, None)
}

/// Exhaustive crash sweep over a [`ReplicatingStore`] workload. After
/// every simulated power failure, each handle must intern to its last
/// acknowledged value (or, at most, the single extern that was in
/// flight); a handle never externed successfully may be absent. Torn or
/// half-renamed units must **never** be visible — any decode error other
/// than `UnknownHandle` is a violation. Panics on any violation.
pub fn crash_sweep_replicating(seed: u64, writes: usize) -> SweepReport {
    let reference = SimVfs::new();
    let (ref_acked, _, err) = run_replicating(&reference, seed, writes);
    assert!(err.is_none(), "seed {seed}: fault-free run failed: {err:?}");
    let total_ops = reference.ops();
    let committed = ref_acked.iter().filter(|a| a.is_some()).count();

    for crash_at in 1..=total_ops {
        let vfs = SimVfs::with_plan(FaultPlan {
            seed,
            crash_at_op: Some(crash_at),
            transient_one_in: None,
            ..FaultPlan::default()
        });
        let (acked, in_flight, err) = run_replicating(&vfs, seed, writes);
        assert!(
            err.is_some(),
            "seed {seed}: planned crash at op {crash_at}/{total_ops} never hit"
        );
        vfs.recover();
        let vfs_dyn: Arc<dyn Vfs> = Arc::new(vfs.clone());
        let store = ReplicatingStore::open_with(vfs_dyn, Path::new(REPL_DIR))
            .unwrap_or_else(|e| panic!("seed {seed}, crash at op {crash_at}: reopen failed: {e}"));
        // Externs are durable in the commit log; replaying its tail
        // brings the unit files up to date.
        recover_pending(None, &store).unwrap_or_else(|e| {
            panic!("seed {seed}, crash at op {crash_at}: log replay failed: {e}")
        });
        for (i, name) in REPL_HANDLES.iter().enumerate() {
            let mut heap = Heap::new();
            match store.intern(name, &mut heap) {
                Ok(d) => {
                    let got = match d.value {
                        Value::Int(v) => v,
                        ref other => panic!(
                            "seed {seed}, crash at op {crash_at}: handle {name} \
                             interned garbage {other:?}"
                        ),
                    };
                    assert!(
                        acked[i] == Some(got) || in_flight == Some((i, got)),
                        "seed {seed}, crash at op {crash_at}: handle {name} has {got}, \
                         acked {:?}, in flight {in_flight:?}",
                        acked[i],
                    );
                }
                Err(PersistError::UnknownHandle(_)) => {
                    assert!(
                        acked[i].is_none(),
                        "seed {seed}, crash at op {crash_at}: handle {name} lost \
                         its acknowledged extern {:?}",
                        acked[i],
                    );
                }
                Err(e) => panic!(
                    "seed {seed}, crash at op {crash_at}: handle {name} surfaced \
                     corruption after recovery: {e}"
                ),
            }
        }
        // The store stays fully usable after recovery.
        let heap = Heap::new();
        store
            .extern_value(
                "post-crash",
                &DynValue::new(Type::Int, Value::Int(-1)),
                &heap,
            )
            .unwrap_or_else(|e| {
                panic!("seed {seed}, crash at op {crash_at}: store unusable after recovery: {e}")
            });
    }
    SweepReport {
        crash_points: total_ops,
        committed,
    }
}

/// Transient-fault storm over the replicating workload: every extern must
/// succeed through the retry layer, and every handle must intern to its
/// final value.
pub fn transient_storm_replicating(seed: u64, writes: usize) {
    let vfs = SimVfs::with_plan(FaultPlan {
        seed,
        crash_at_op: None,
        transient_one_in: Some(6),
        ..FaultPlan::default()
    });
    let (acked, _, err) = run_replicating(&vfs, seed, writes);
    assert!(
        err.is_none(),
        "seed {seed}: transient faults leaked through retry: {err:?}"
    );
    let vfs_dyn: Arc<dyn Vfs> = Arc::new(vfs.clone());
    let store = ReplicatingStore::open_with(vfs_dyn, Path::new(REPL_DIR)).unwrap();
    for (i, name) in REPL_HANDLES.iter().enumerate() {
        if let Some(v) = acked[i] {
            let mut heap = Heap::new();
            assert_eq!(store.intern(name, &mut heap).unwrap().value, Value::Int(v));
        }
    }
}

// ---------------------------------------------------------------------------
// Multi-store transactions (IntrinsicStore + ReplicatingStore in one commit)
// ---------------------------------------------------------------------------

const MULTI_LOG: &str = "mstore.log";
const MULTI_DIR: &str = "mstore";
// One deliberately unsafe name so the sweep also covers sanitized paths.
const MULTI_EXT_HANDLES: [&str; 3] = ["left", "right", "odd name!"];

/// One scripted action inside a multi-store transaction.
enum MultiAction {
    /// Bind an intrinsic handle to this value.
    SetIntr(usize, i64),
    /// Stage an extern of this value under a replicating handle.
    SetExt(usize, i64),
    /// Stage removal of a replicating handle.
    DelExt(usize),
}

/// Paired model state: the intrinsic handle table and the replicating
/// units after some number of committed transactions.
type MultiState = (BTreeMap<String, i64>, BTreeMap<String, i64>);

/// A deterministic multi-store script. Every transaction touches **both**
/// stores (at least one intrinsic set and one extern) — the shape whose
/// atomicity the commit log exists to protect — plus 0–2 extra
/// actions. Values increase monotonically so states are distinguishable.
fn multi_script(seed: u64, txns: usize) -> Vec<Vec<MultiAction>> {
    let mut rng = ScriptRng(seed ^ 0x11_17E17);
    let mut counter = 0i64;
    (0..txns)
        .map(|_| {
            let mut actions = Vec::new();
            counter += 1;
            actions.push(MultiAction::SetIntr(
                rng.below(HANDLE_NAMES.len() as u64) as usize,
                counter,
            ));
            counter += 1;
            actions.push(MultiAction::SetExt(
                rng.below(MULTI_EXT_HANDLES.len() as u64) as usize,
                counter,
            ));
            for _ in 0..rng.below(3) {
                let h = rng.below(MULTI_EXT_HANDLES.len() as u64) as usize;
                match rng.below(3) {
                    0 => actions.push(MultiAction::DelExt(h)),
                    1 => {
                        counter += 1;
                        actions.push(MultiAction::SetExt(h, counter));
                    }
                    _ => {
                        counter += 1;
                        actions.push(MultiAction::SetIntr(
                            rng.below(HANDLE_NAMES.len() as u64) as usize,
                            counter,
                        ));
                    }
                }
            }
            actions
        })
        .collect()
}

/// `states[i]` is the paired state after `i` committed transactions.
fn multi_states(script: &[Vec<MultiAction>]) -> Vec<MultiState> {
    let mut states = vec![(BTreeMap::new(), BTreeMap::new())];
    let mut cur: MultiState = (BTreeMap::new(), BTreeMap::new());
    for txn in script {
        for action in txn {
            match action {
                MultiAction::SetIntr(h, v) => {
                    cur.0.insert(HANDLE_NAMES[*h].to_string(), *v);
                }
                MultiAction::SetExt(h, v) => {
                    cur.1.insert(MULTI_EXT_HANDLES[*h].to_string(), *v);
                }
                MultiAction::DelExt(h) => {
                    cur.1.remove(MULTI_EXT_HANDLES[*h]);
                }
            }
        }
        states.push(cur.clone());
    }
    states
}

/// Run the multi-store script on `vfs`: every transaction commits through
/// [`commit_multi`], so each one is all-or-nothing across both stores.
fn run_multi(vfs: &SimVfs, script: &[Vec<MultiAction>]) -> (usize, Option<PersistError>) {
    let vfs_dyn: Arc<dyn Vfs> = Arc::new(vfs.clone());
    let mut intr = match IntrinsicStore::open_with(vfs_dyn.clone(), Path::new(MULTI_LOG)) {
        Ok(s) => s,
        Err(e) => return (0, Some(e)),
    };
    let repl = match ReplicatingStore::open_with(vfs_dyn, Path::new(MULTI_DIR)) {
        Ok(s) => s,
        Err(e) => return (0, Some(e)),
    };
    let heap = Heap::new();
    let mut acked = 0;
    for txn in script {
        if acked == script.len() / 2 {
            if let Err(e) = checkpoint_step(Some(&mut intr), &repl) {
                return (acked, Some(e));
            }
        }
        let mut externs: BTreeMap<String, Option<Vec<u8>>> = BTreeMap::new();
        for action in txn {
            match action {
                MultiAction::SetIntr(h, v) => {
                    intr.set_handle(HANDLE_NAMES[*h], Type::Int, Value::Int(*v));
                }
                MultiAction::SetExt(h, v) => {
                    let d = DynValue::new(Type::Int, Value::Int(*v));
                    match ReplicatingStore::encode_unit(&d, &heap) {
                        Ok(bytes) => {
                            externs.insert(MULTI_EXT_HANDLES[*h].to_string(), Some(bytes));
                        }
                        Err(e) => return (acked, Some(e)),
                    }
                }
                MultiAction::DelExt(h) => {
                    externs.insert(MULTI_EXT_HANDLES[*h].to_string(), None);
                }
            }
        }
        // Transaction-level bounded retry on top of the VFS-level one,
        // split at the durability point: a pre-durability transient fault
        // left no trace, so the whole commit is safe to repeat; an
        // in-doubt failure means the record is in the log and the only
        // correct move is to roll the SAME transaction forward via
        // recovery — re-running the commit would log it twice. This is
        // the layering a real application would use under a fault storm.
        let mut attempts = 0;
        loop {
            match commit_multi(Some(&mut intr), &repl, &externs, &RetryPolicy::default()) {
                Ok(_) => {
                    acked += 1;
                    break;
                }
                Err(PersistError::Io(e))
                    if e.kind() == std::io::ErrorKind::Interrupted && attempts < 4 =>
                {
                    attempts += 1;
                }
                Err(PersistError::InDoubt { .. }) => {
                    let mut rec_attempts = 0;
                    loop {
                        match recover_pending(Some(&mut intr), &repl) {
                            Ok(_) => break,
                            Err(PersistError::Io(e))
                                if e.kind() == std::io::ErrorKind::Interrupted
                                    && rec_attempts < 4 =>
                            {
                                rec_attempts += 1;
                            }
                            Err(e) => return (acked, Some(e)),
                        }
                    }
                    acked += 1;
                    break;
                }
                Err(e) => return (acked, Some(e)),
            }
        }
    }
    (acked, None)
}

/// The scripts' checkpoint step, halfway through: a crash sweep then
/// also kills the workload at every I/O boundary of one checkpoint.
/// Transient faults get the same bounded retry as a commit.
fn checkpoint_step(
    mut intr: Option<&mut IntrinsicStore>,
    repl: &ReplicatingStore,
) -> Result<(), PersistError> {
    let mut attempts = 0;
    loop {
        match checkpoint(intr.as_deref_mut(), repl) {
            Ok(done) => {
                assert!(done, "a checkpoint of a fully applied log ran");
                return Ok(());
            }
            Err(PersistError::Io(e))
                if e.kind() == std::io::ErrorKind::Interrupted && attempts < 4 =>
            {
                attempts += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Read the recovered pair of stores back as a model state. Any decode
/// error other than `UnknownHandle` is surfaced corruption — a violation.
fn multi_canonical(intr: &IntrinsicStore, repl: &ReplicatingStore, context: &str) -> MultiState {
    let intr_state: BTreeMap<String, i64> = intr
        .handles()
        .iter()
        .map(|(name, (_, v))| match v {
            Value::Int(i) => (name.clone(), *i),
            other => panic!("{context}: intrinsic handle {name} holds garbage {other:?}"),
        })
        .collect();
    let mut ext_state = BTreeMap::new();
    for name in MULTI_EXT_HANDLES {
        let mut heap = Heap::new();
        match repl.intern(name, &mut heap) {
            Ok(d) => match d.value {
                Value::Int(v) => {
                    ext_state.insert(name.to_string(), v);
                }
                other => panic!("{context}: handle {name} interned garbage {other:?}"),
            },
            Err(PersistError::UnknownHandle(_)) => {}
            Err(e) => panic!("{context}: handle {name} surfaced corruption after recovery: {e}"),
        }
    }
    (intr_state, ext_state)
}

/// Exhaustive crash sweep over transactions spanning **both** store
/// kinds: the seeded script is killed once at every I/O operation of
/// every commit; after each simulated power failure the pair of stores is
/// reopened, [`recover_pending`] replays the commit-log tail, and the
/// **paired** recovered state
/// must equal the model state after `acked` or `acked + 1` transactions.
/// Pairing is the point: an intrinsic state from one history index
/// combined with an extern state from another would be the torn commit
/// this layer exists to rule out. Panics (with seed and crash op) on any
/// violation.
pub fn crash_sweep_multi_store(seed: u64, txns: usize) -> SweepReport {
    let script = multi_script(seed, txns);
    let states = multi_states(&script);

    let reference = SimVfs::new();
    let (acked, err) = run_multi(&reference, &script);
    assert!(err.is_none(), "seed {seed}: fault-free run failed: {err:?}");
    assert_eq!(acked, txns);
    let total_ops = reference.ops();
    assert!(total_ops > 0);

    for crash_at in 1..=total_ops {
        let vfs = SimVfs::with_plan(FaultPlan {
            seed,
            crash_at_op: Some(crash_at),
            transient_one_in: None,
            ..FaultPlan::default()
        });
        let (acked, err) = run_multi(&vfs, &script);
        assert!(
            err.is_some(),
            "seed {seed}: planned crash at op {crash_at}/{total_ops} never hit"
        );
        vfs.recover();
        let context = format!("seed {seed}, crash at op {crash_at}");
        let vfs_dyn: Arc<dyn Vfs> = Arc::new(vfs.clone());
        let mut intr = IntrinsicStore::open_with(vfs_dyn.clone(), Path::new(MULTI_LOG))
            .unwrap_or_else(|e| panic!("{context}: intrinsic recovery failed: {e}"));
        let repl = ReplicatingStore::open_with(vfs_dyn, Path::new(MULTI_DIR))
            .unwrap_or_else(|e| panic!("{context}: replicating reopen failed: {e}"));
        recover_pending(Some(&mut intr), &repl)
            .unwrap_or_else(|e| panic!("{context}: log replay failed: {e}"));
        let got = multi_canonical(&intr, &repl, &context);
        let in_flight = states.get(acked + 1);
        assert!(
            got == states[acked] || Some(&got) == in_flight,
            "{context}: recovered {got:?}, expected paired state {acked} \
             ({:?}) or the in-flight {in_flight:?}",
            states[acked],
        );
    }
    SweepReport {
        crash_points: total_ops,
        committed: txns,
    }
}

/// An extern-only script: the shape of the default replicating-only
/// session (no intrinsic store attached), where every transaction's
/// commit-log record carries only extern effects.
fn extern_only_script(seed: u64, txns: usize) -> Vec<Vec<MultiAction>> {
    let mut rng = ScriptRng(seed ^ 0xE0_57E5);
    let mut counter = 0i64;
    (0..txns)
        .map(|_| {
            let mut actions = Vec::new();
            counter += 1;
            actions.push(MultiAction::SetExt(
                rng.below(MULTI_EXT_HANDLES.len() as u64) as usize,
                counter,
            ));
            for _ in 0..rng.below(3) {
                let h = rng.below(MULTI_EXT_HANDLES.len() as u64) as usize;
                if rng.below(3) == 0 {
                    actions.push(MultiAction::DelExt(h));
                } else {
                    counter += 1;
                    actions.push(MultiAction::SetExt(h, counter));
                }
            }
            actions
        })
        .collect()
}

/// Run an extern-only script: every transaction commits through
/// [`commit_multi`] with **no intrinsic store**, exactly as a default
/// `Session` does.
fn run_extern_only(vfs: &SimVfs, script: &[Vec<MultiAction>]) -> (usize, Option<PersistError>) {
    let vfs_dyn: Arc<dyn Vfs> = Arc::new(vfs.clone());
    let repl = match ReplicatingStore::open_with(vfs_dyn, Path::new(MULTI_DIR)) {
        Ok(s) => s,
        Err(e) => return (0, Some(e)),
    };
    let heap = Heap::new();
    let mut acked = 0;
    for txn in script {
        if acked == script.len() / 2 {
            if let Err(e) = checkpoint_step(None, &repl) {
                return (acked, Some(e));
            }
        }
        let mut externs: BTreeMap<String, Option<Vec<u8>>> = BTreeMap::new();
        for action in txn {
            match action {
                MultiAction::SetExt(h, v) => {
                    let d = DynValue::new(Type::Int, Value::Int(*v));
                    match ReplicatingStore::encode_unit(&d, &heap) {
                        Ok(bytes) => {
                            externs.insert(MULTI_EXT_HANDLES[*h].to_string(), Some(bytes));
                        }
                        Err(e) => return (acked, Some(e)),
                    }
                }
                MultiAction::DelExt(h) => {
                    externs.insert(MULTI_EXT_HANDLES[*h].to_string(), None);
                }
                MultiAction::SetIntr(..) => unreachable!("extern-only script"),
            }
        }
        let mut attempts = 0;
        loop {
            match commit_multi(None, &repl, &externs, &RetryPolicy::default()) {
                Ok(_) => {
                    acked += 1;
                    break;
                }
                Err(PersistError::Io(e))
                    if e.kind() == std::io::ErrorKind::Interrupted && attempts < 4 =>
                {
                    attempts += 1;
                }
                Err(PersistError::InDoubt { .. }) => {
                    let mut rec_attempts = 0;
                    loop {
                        match recover_pending(None, &repl) {
                            Ok(_) => break,
                            Err(PersistError::Io(e))
                                if e.kind() == std::io::ErrorKind::Interrupted
                                    && rec_attempts < 4 =>
                            {
                                rec_attempts += 1;
                            }
                            Err(e) => return (acked, Some(e)),
                        }
                    }
                    acked += 1;
                    break;
                }
                Err(e) => return (acked, Some(e)),
            }
        }
    }
    (acked, None)
}

/// Read the recovered replicating store back as a model state.
fn extern_canonical(repl: &ReplicatingStore, context: &str) -> BTreeMap<String, i64> {
    let mut ext_state = BTreeMap::new();
    for name in MULTI_EXT_HANDLES {
        let mut heap = Heap::new();
        match repl.intern(name, &mut heap) {
            Ok(d) => match d.value {
                Value::Int(v) => {
                    ext_state.insert(name.to_string(), v);
                }
                other => panic!("{context}: handle {name} interned garbage {other:?}"),
            },
            Err(PersistError::UnknownHandle(_)) => {}
            Err(e) => panic!("{context}: handle {name} surfaced corruption after recovery: {e}"),
        }
    }
    ext_state
}

/// [`crash_sweep_multi_store`]'s replicating-only variant: transactions
/// commit through the same commit log but with **no intrinsic store
/// attached** — the default `Session` shape — and recovery after every
/// crash runs with `intrinsic = None`, proving a replicating-only reopen
/// rolls a torn multi-extern transaction forward on its own. Panics (with
/// seed and crash op) on any violation.
pub fn crash_sweep_extern_only(seed: u64, txns: usize) -> SweepReport {
    let script = extern_only_script(seed, txns);
    let states = multi_states(&script);

    let reference = SimVfs::new();
    let (acked, err) = run_extern_only(&reference, &script);
    assert!(err.is_none(), "seed {seed}: fault-free run failed: {err:?}");
    assert_eq!(acked, txns);
    let total_ops = reference.ops();
    assert!(total_ops > 0);

    for crash_at in 1..=total_ops {
        let vfs = SimVfs::with_plan(FaultPlan {
            seed,
            crash_at_op: Some(crash_at),
            transient_one_in: None,
            ..FaultPlan::default()
        });
        let (acked, err) = run_extern_only(&vfs, &script);
        assert!(
            err.is_some(),
            "seed {seed}: planned crash at op {crash_at}/{total_ops} never hit"
        );
        vfs.recover();
        let context = format!("seed {seed}, crash at op {crash_at} (extern-only)");
        let vfs_dyn: Arc<dyn Vfs> = Arc::new(vfs.clone());
        let repl = ReplicatingStore::open_with(vfs_dyn, Path::new(MULTI_DIR))
            .unwrap_or_else(|e| panic!("{context}: replicating reopen failed: {e}"));
        recover_pending(None, &repl)
            .unwrap_or_else(|e| panic!("{context}: replicating-only log replay failed: {e}"));
        let got = extern_canonical(&repl, &context);
        let in_flight = states.get(acked + 1).map(|s| &s.1);
        assert!(
            got == states[acked].1 || Some(&got) == in_flight,
            "{context}: recovered {got:?}, expected state {acked} ({:?}) or the \
             in-flight {in_flight:?}",
            states[acked].1,
        );
    }
    SweepReport {
        crash_points: total_ops,
        committed: txns,
    }
}

/// Chunk an extern-only script into group-commit batches and merge each
/// batch's staged externs the way the engine's applier does: frames apply
/// in arrival order, later writes to a handle override earlier ones.
fn group_batches(
    script: &[Vec<MultiAction>],
    batch_size: usize,
) -> Vec<BTreeMap<String, Option<i64>>> {
    script
        .chunks(batch_size)
        .map(|batch| {
            let mut merged: BTreeMap<String, Option<i64>> = BTreeMap::new();
            for frame in batch {
                for action in frame {
                    match action {
                        MultiAction::SetExt(h, v) => {
                            merged.insert(MULTI_EXT_HANDLES[*h].to_string(), Some(*v));
                        }
                        MultiAction::DelExt(h) => {
                            merged.insert(MULTI_EXT_HANDLES[*h].to_string(), None);
                        }
                        MultiAction::SetIntr(..) => unreachable!("extern-only script"),
                    }
                }
            }
            merged
        })
        .collect()
}

/// `states[i]` is the extern state after `i` committed **batches**. One
/// batch = one state step: a recovered state between two batch states
/// would mean a crash tore a coalesced commit into per-frame pieces.
fn group_states(batches: &[BTreeMap<String, Option<i64>>]) -> Vec<BTreeMap<String, i64>> {
    let mut states = vec![BTreeMap::new()];
    let mut cur: BTreeMap<String, i64> = BTreeMap::new();
    for batch in batches {
        for (h, w) in batch {
            match w {
                Some(v) => {
                    cur.insert(h.clone(), *v);
                }
                None => {
                    cur.remove(h);
                }
            }
        }
        states.push(cur.clone());
    }
    states
}

/// Run the batched script: each batch's merged externs commit through
/// **one** [`commit_multi`] call — one coalesced commit-log record, one
/// fsync — exactly the engine's group-commit shape.
fn run_group_commit(
    vfs: &SimVfs,
    batches: &[BTreeMap<String, Option<i64>>],
) -> (usize, Option<PersistError>) {
    let vfs_dyn: Arc<dyn Vfs> = Arc::new(vfs.clone());
    let repl = match ReplicatingStore::open_with(vfs_dyn, Path::new(MULTI_DIR)) {
        Ok(s) => s,
        Err(e) => return (0, Some(e)),
    };
    let heap = Heap::new();
    let mut acked = 0;
    for batch in batches {
        if acked == batches.len() / 2 {
            if let Err(e) = checkpoint_step(None, &repl) {
                return (acked, Some(e));
            }
        }
        let mut externs: BTreeMap<String, Option<Vec<u8>>> = BTreeMap::new();
        for (h, w) in batch {
            match w {
                Some(v) => {
                    let d = DynValue::new(Type::Int, Value::Int(*v));
                    match ReplicatingStore::encode_unit(&d, &heap) {
                        Ok(bytes) => {
                            externs.insert(h.clone(), Some(bytes));
                        }
                        Err(e) => return (acked, Some(e)),
                    }
                }
                None => {
                    externs.insert(h.clone(), None);
                }
            }
        }
        let mut attempts = 0;
        loop {
            match commit_multi(None, &repl, &externs, &RetryPolicy::default()) {
                Ok(_) => {
                    acked += 1;
                    break;
                }
                Err(PersistError::Io(e))
                    if e.kind() == std::io::ErrorKind::Interrupted && attempts < 4 =>
                {
                    attempts += 1;
                }
                Err(PersistError::InDoubt { .. }) => {
                    let mut rec_attempts = 0;
                    loop {
                        match recover_pending(None, &repl) {
                            Ok(_) => break,
                            Err(PersistError::Io(e))
                                if e.kind() == std::io::ErrorKind::Interrupted
                                    && rec_attempts < 4 =>
                            {
                                rec_attempts += 1;
                            }
                            Err(e) => return (acked, Some(e)),
                        }
                    }
                    acked += 1;
                    break;
                }
                Err(e) => return (acked, Some(e)),
            }
        }
    }
    (acked, None)
}

/// Crash sweep for **group commit**: frames from `batch_size` concurrent
/// sessions coalesce into one commit-log record per batch (the engine's
/// `dbpl-lang` applier shape), and the simulated machine is killed once
/// at every I/O boundary of every coalesced commit. After each crash the
/// store reopens with `recover_pending` and the recovered state must be
/// a whole number of **batches** — all of a coalesced commit's frames or
/// none of them. A state that splits a batch (some members' externs
/// installed, others missing, with no logged record to finish the job)
/// is exactly the torn group commit this sweep exists to rule out.
/// Panics (with seed and crash op) on any violation.
pub fn crash_sweep_group_commit(seed: u64, batches: usize, batch_size: usize) -> SweepReport {
    let script = extern_only_script(seed ^ 0x006E_07C0_1717, batches * batch_size);
    let merged = group_batches(&script, batch_size);
    let states = group_states(&merged);

    let reference = SimVfs::new();
    let (acked, err) = run_group_commit(&reference, &merged);
    assert!(err.is_none(), "seed {seed}: fault-free run failed: {err:?}");
    assert_eq!(acked, batches);
    let total_ops = reference.ops();
    assert!(total_ops > 0);

    for crash_at in 1..=total_ops {
        let vfs = SimVfs::with_plan(FaultPlan {
            seed,
            crash_at_op: Some(crash_at),
            transient_one_in: None,
            ..FaultPlan::default()
        });
        let (acked, err) = run_group_commit(&vfs, &merged);
        assert!(
            err.is_some(),
            "seed {seed}: planned crash at op {crash_at}/{total_ops} never hit"
        );
        vfs.recover();
        let context = format!("seed {seed}, crash at op {crash_at} (group commit)");
        let vfs_dyn: Arc<dyn Vfs> = Arc::new(vfs.clone());
        let repl = ReplicatingStore::open_with(vfs_dyn, Path::new(MULTI_DIR))
            .unwrap_or_else(|e| panic!("{context}: replicating reopen failed: {e}"));
        recover_pending(None, &repl)
            .unwrap_or_else(|e| panic!("{context}: coalesced log replay failed: {e}"));
        let got = extern_canonical(&repl, &context);
        let in_flight = states.get(acked + 1);
        assert!(
            got == states[acked] || Some(&got) == in_flight,
            "{context}: recovered {got:?} — not a whole number of batches; \
             expected batch state {acked} ({:?}) or the in-flight {in_flight:?}",
            states[acked],
        );
    }
    SweepReport {
        crash_points: total_ops,
        committed: batches,
    }
}

/// Transient-fault storm over the multi-store workload: with retryable
/// faults injected but no crash, every transaction must commit and the
/// final paired state must match the model exactly.
pub fn transient_storm_multi_store(seed: u64, txns: usize) {
    transient_storm_multi_store_at(seed, txns, 6)
}

/// [`transient_storm_multi_store`] at an explicit fault rate (roughly one
/// in `one_in` operations fails once) — the nightly retry matrix runs
/// several rates.
pub fn transient_storm_multi_store_at(seed: u64, txns: usize, one_in: u64) {
    let script = multi_script(seed, txns);
    let states = multi_states(&script);
    let vfs = SimVfs::with_plan(FaultPlan {
        seed,
        crash_at_op: None,
        transient_one_in: Some(one_in),
        ..FaultPlan::default()
    });
    let (acked, err) = run_multi(&vfs, &script);
    assert!(
        err.is_none(),
        "seed {seed}: transient faults leaked through retry: {err:?}"
    );
    assert_eq!(acked, txns);
    let vfs_dyn: Arc<dyn Vfs> = Arc::new(vfs.clone());
    let intr = IntrinsicStore::open_with(vfs_dyn.clone(), Path::new(MULTI_LOG)).unwrap();
    let repl = ReplicatingStore::open_with(vfs_dyn, Path::new(MULTI_DIR)).unwrap();
    let got = multi_canonical(&intr, &repl, &format!("seed {seed}, storm"));
    assert_eq!(got, *states.last().unwrap());
}

// ---------------------------------------------------------------------------
// Bit rot + scrub (self-healing storage)
// ---------------------------------------------------------------------------

const ROT_LOG: &str = "rot.log";
const ROT_DIR: &str = "rotstore";

/// What a bit-rot sweep planted and what scrub did about it.
#[derive(Debug, Clone, Copy)]
pub struct ScrubSweepReport {
    /// Units written — each had exactly one bit flipped at rest.
    pub planted: usize,
    /// Corruptions scrub reported with **no** replica attached.
    pub found: usize,
    /// Units scrub read-repaired once the intrinsic replica was attached.
    pub repaired: usize,
}

/// Deterministic bit-rot sweep: seed a replicating store and an intrinsic
/// replica with the same handles, flip exactly one (seed-determined) bit
/// in every `.dyn` unit at rest, then assert the self-healing contract
/// end to end:
///
/// 1. no rotted unit is ever served — every `intern` fails its checksum;
/// 2. a scrub with no replica **finds** every corruption (and repairs
///    nothing);
/// 3. a scrub with the replica attached **repairs** every unit, after
///    which all units intern to their original values and a final scrub
///    comes back clean.
///
/// Panics (with the seed in the message) on any violation.
pub fn bit_rot_scrub_sweep(seed: u64, units: usize) -> ScrubSweepReport {
    let vfs = SimVfs::new();
    let vfs_dyn: Arc<dyn Vfs> = Arc::new(vfs.clone());
    let mut intr = IntrinsicStore::open_with(vfs_dyn.clone(), Path::new(ROT_LOG)).unwrap();
    let repl = ReplicatingStore::open_with(vfs_dyn, Path::new(ROT_DIR)).unwrap();
    let heap = Heap::new();
    let value_of = |i: usize| Value::Int((seed as i64).wrapping_add(i as i64 + 1));
    for i in 0..units {
        let name = format!("u{i}");
        intr.set_handle(name.clone(), Type::Int, value_of(i));
        repl.extern_value(&name, &DynValue::new(Type::Int, value_of(i)), &heap)
            .unwrap();
    }
    intr.commit().unwrap();

    // Plant the rot: with `bit_rot_one_in: 1` armed, every read flips one
    // seed-determined bit of the file it touches — persistently, in both
    // the live and the synced copy. One read per unit ⇒ one flipped bit
    // per unit.
    vfs.set_plan(FaultPlan {
        seed,
        bit_rot_one_in: Some(1),
        ..FaultPlan::default()
    });
    for i in 0..units {
        let path = format!("{ROT_DIR}/u{i}.dyn");
        vfs.read(Path::new(&path))
            .unwrap_or_else(|e| panic!("seed {seed}: planting read of u{i} failed: {e}"));
    }
    vfs.set_plan(FaultPlan::default());

    // (1) The checksum fences every rotted unit off the read path.
    for i in 0..units {
        let mut h = Heap::new();
        let got = repl.intern(&format!("u{i}"), &mut h);
        assert!(
            got.is_err(),
            "seed {seed}: rotted unit u{i} was served: {got:?}"
        );
    }
    // (2) Scrub without a replica finds every corruption, repairs none.
    let found = repl.scrub(None);
    assert_eq!(
        found.corrupt.len(),
        units,
        "seed {seed}: scrub missed corruption: {found:?}"
    );
    assert!(
        found.repaired.is_empty(),
        "seed {seed}: scrub 'repaired' without a replica: {found:?}"
    );
    // (3) With the replica attached, every unit is read-repaired…
    let healed = repl.scrub(Some(&intr));
    assert_eq!(
        healed.repaired.len(),
        units,
        "seed {seed}: scrub failed to repair: {healed:?}"
    );
    assert!(
        healed.corrupt.is_empty(),
        "seed {seed}: corruption survived repair: {healed:?}"
    );
    // …after which the store is fully healthy again.
    for i in 0..units {
        let mut h = Heap::new();
        let d = repl
            .intern(&format!("u{i}"), &mut h)
            .unwrap_or_else(|e| panic!("seed {seed}: repaired unit u{i} unreadable: {e}"));
        assert_eq!(
            d.value,
            value_of(i),
            "seed {seed}: u{i} repaired to wrong value"
        );
    }
    let clean = repl.scrub(Some(&intr));
    assert!(
        clean.is_clean() && clean.verified == units,
        "seed {seed}: store not clean after repair: {clean:?}"
    );
    ScrubSweepReport {
        planted: units,
        found: found.corrupt.len(),
        repaired: healed.repaired.len(),
    }
}

// ---------------------------------------------------------------------------
// Disk full (graceful degradation)
// ---------------------------------------------------------------------------

/// Disk-full sweep over the extern-only workload: the seeded script is
/// re-run once per I/O operation with the simulated disk filling up at
/// exactly that point (every write-class operation fails with
/// `StorageFull` from then on, reads keep working). After each run:
///
/// * every handle still reads back a value from the committed prefix (the
///   last acknowledged state, or the single in-flight transaction a
///   durable commit-log record may partially apply) — never corruption;
/// * a write while the disk is full fails **cleanly** with `StorageFull`;
/// * once space returns, [`recover_pending`] replays the log tail,
///   the store lands on the committed-prefix contract, and a fresh commit
///   succeeds.
///
/// Panics (with seed and fill point) on any violation.
pub fn enospc_sweep_extern_only(seed: u64, txns: usize) -> SweepReport {
    let script = extern_only_script(seed, txns);
    let states = multi_states(&script);

    let reference = SimVfs::new();
    let (acked, err) = run_extern_only(&reference, &script);
    assert!(err.is_none(), "seed {seed}: fault-free run failed: {err:?}");
    assert_eq!(acked, txns);
    let total_ops = reference.ops();
    assert!(total_ops > 0);

    for full_at in 1..=total_ops {
        let vfs = SimVfs::with_plan(FaultPlan {
            seed,
            enospc_at_op: Some(full_at),
            ..FaultPlan::default()
        });
        let (acked, err) = run_extern_only(&vfs, &script);
        let context = format!("seed {seed}, disk full at op {full_at}");
        if err.is_none() {
            // The budget ran out after the workload's last write-class
            // operation — nothing degraded, nothing to check.
            assert_eq!(acked, txns, "{context}: silent partial run");
            continue;
        }

        let vfs_dyn: Arc<dyn Vfs> = Arc::new(vfs.clone());
        let repl = ReplicatingStore::open_with(vfs_dyn, Path::new(MULTI_DIR))
            .unwrap_or_else(|e| panic!("{context}: reopen while full failed: {e}"));

        // Still full: reads serve the committed prefix. A durable record
        // may have partially applied the in-flight transaction, so each
        // handle individually must come from state `acked` or `acked+1`.
        let next = states.get(acked + 1);
        for name in MULTI_EXT_HANDLES {
            let mut h = Heap::new();
            let prev_v = states[acked].1.get(name);
            let next_v = next.and_then(|s| s.1.get(name));
            match repl.intern(name, &mut h) {
                Ok(d) => {
                    let v = match d.value {
                        Value::Int(v) => v,
                        ref other => {
                            panic!("{context}: handle {name} interned garbage {other:?}")
                        }
                    };
                    assert!(
                        prev_v == Some(&v) || next_v == Some(&v),
                        "{context}: handle {name} reads {v}, expected {prev_v:?} or {next_v:?}"
                    );
                }
                Err(PersistError::UnknownHandle(_)) => {
                    assert!(
                        prev_v.is_none() || next_v.is_none(),
                        "{context}: handle {name} lost ({prev_v:?} / {next_v:?})"
                    );
                }
                Err(e) => {
                    panic!("{context}: degraded read surfaced corruption: {e}")
                }
            }
        }
        // Still full: a write fails cleanly with StorageFull — no retry
        // storm, no torn unit.
        let probe = repl.extern_value(
            "degraded-probe",
            &DynValue::new(Type::Int, Value::Int(-7)),
            &Heap::new(),
        );
        match probe {
            Err(PersistError::Io(e)) if e.kind() == std::io::ErrorKind::StorageFull => {}
            other => panic!("{context}: degraded write was not a clean StorageFull: {other:?}"),
        }

        // Space returns: replay the log tail, land on the
        // committed-prefix contract, and accept new commits.
        vfs.set_plan(FaultPlan::default());
        recover_pending(None, &repl)
            .unwrap_or_else(|e| panic!("{context}: recovery after space returned failed: {e}"));
        let got = extern_canonical(&repl, &context);
        let in_flight = states.get(acked + 1).map(|s| &s.1);
        assert!(
            got == states[acked].1 || Some(&got) == in_flight,
            "{context}: recovered {got:?}, expected state {acked} ({:?}) or the \
             in-flight {in_flight:?}",
            states[acked].1,
        );
        let d = DynValue::new(Type::Int, Value::Int(9_999));
        let bytes = ReplicatingStore::encode_unit(&d, &Heap::new()).unwrap();
        let externs = BTreeMap::from([("post-full".to_string(), Some(bytes))]);
        commit_multi(None, &repl, &externs, &RetryPolicy::default())
            .unwrap_or_else(|e| panic!("{context}: commit after space returned failed: {e}"));
    }
    SweepReport {
        crash_points: total_ops,
        committed: txns,
    }
}

// ---------------------------------------------------------------------------
// Snapshot images (all-or-nothing persistence)
// ---------------------------------------------------------------------------

const SNAP_PATH: &str = "session.image";

/// A sequence of distinguishable images: image `i` binds `n` to `i`.
fn snapshot_images(saves: usize) -> Vec<Image> {
    (1..=saves)
        .map(|i| {
            let env = TypeEnv::new();
            let mut heap = Heap::new();
            let o = heap.alloc(Type::Int, Value::Int(i as i64));
            let mut bindings = BTreeMap::new();
            bindings.insert("n".to_string(), DynValue::new(Type::Int, Value::Ref(o)));
            Image::capture(&env, &heap, &bindings)
        })
        .collect()
}

/// Save each image in turn over the previous one. Returns how many saves
/// were acknowledged.
fn run_snapshot(vfs: &SimVfs, images: &[Image]) -> (usize, Option<PersistError>) {
    let mut acked = 0;
    for img in images {
        match img.save_with(vfs, Path::new(SNAP_PATH)) {
            Ok(()) => acked += 1,
            Err(e) => return (acked, Some(e)),
        }
    }
    (acked, None)
}

/// Exhaustive crash sweep over [`Image::save_with`]: a sequence of saves
/// to one path is killed at every I/O operation; after each simulated
/// power failure [`Image::load_with`] must return the last acknowledged
/// image or the one in flight, never a torn or undecodable file, and a
/// missing file is legal only before the first save was acknowledged.
pub fn crash_sweep_snapshot(seed: u64, saves: usize) -> SweepReport {
    let images = snapshot_images(saves);

    let reference = SimVfs::new();
    let (acked, err) = run_snapshot(&reference, &images);
    assert!(err.is_none(), "seed {seed}: fault-free run failed: {err:?}");
    assert_eq!(acked, saves);
    let total_ops = reference.ops();
    assert!(total_ops > 0);

    for crash_at in 1..=total_ops {
        let vfs = SimVfs::with_plan(FaultPlan {
            seed,
            crash_at_op: Some(crash_at),
            transient_one_in: None,
            ..FaultPlan::default()
        });
        let (acked, err) = run_snapshot(&vfs, &images);
        assert!(
            err.is_some(),
            "seed {seed}: planned crash at op {crash_at}/{total_ops} never hit"
        );
        vfs.recover();
        match Image::load_with(&vfs, Path::new(SNAP_PATH)) {
            Ok(img) => {
                let last_acked = acked.checked_sub(1).map(|i| &images[i]);
                let in_flight = images.get(acked);
                assert!(
                    Some(&img) == last_acked || Some(&img) == in_flight,
                    "seed {seed}, crash at op {crash_at}: loaded image is neither \
                     the last acknowledged save ({acked}) nor the one in flight"
                );
            }
            Err(PersistError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                assert_eq!(
                    acked, 0,
                    "seed {seed}, crash at op {crash_at}: acknowledged image lost"
                );
            }
            Err(e) => panic!(
                "seed {seed}, crash at op {crash_at}: snapshot surfaced corruption \
                 after recovery: {e}"
            ),
        }
    }
    SweepReport {
        crash_points: total_ops,
        committed: saves,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The integration suite (`tests/crash_sim.rs`) runs the full sweeps
    // over several seeds; here we keep one small smoke test per harness
    // so `cargo test -p dbpl-persist` exercises them too.

    #[test]
    fn intrinsic_sweep_smoke() {
        let report = crash_sweep_intrinsic(0xD0, 3);
        // open is 3 ops (read, create, dir sync); each commit is 2 (write,
        // fsync).
        assert!(report.crash_points >= 9, "got {}", report.crash_points);
        assert_eq!(report.committed, 3);
    }

    #[test]
    fn replicating_sweep_smoke() {
        let report = crash_sweep_replicating(0xD1, 4);
        assert!(report.crash_points > 10);
    }

    #[test]
    fn transient_storms_smoke() {
        transient_storm_intrinsic(0xD2, 3);
        transient_storm_replicating(0xD3, 4);
        transient_storm_multi_store(0xD4, 3);
    }

    #[test]
    fn multi_store_sweep_smoke() {
        let report = crash_sweep_multi_store(0xD5, 2);
        assert!(report.crash_points > 10, "got {}", report.crash_points);
        assert_eq!(report.committed, 2);
    }

    #[test]
    fn extern_only_sweep_smoke() {
        let report = crash_sweep_extern_only(0xD7, 2);
        assert!(report.crash_points > 5, "got {}", report.crash_points);
        assert_eq!(report.committed, 2);
    }

    #[test]
    fn bit_rot_scrub_smoke() {
        let report = bit_rot_scrub_sweep(0xDA, 6);
        assert_eq!(report.planted, 6);
        assert_eq!(report.found, 6);
        assert_eq!(report.repaired, 6);
    }

    #[test]
    fn enospc_sweep_smoke() {
        let report = enospc_sweep_extern_only(0xDB, 2);
        assert!(report.crash_points > 5, "got {}", report.crash_points);
        assert_eq!(report.committed, 2);
    }

    #[test]
    fn snapshot_sweep_smoke() {
        let report = crash_sweep_snapshot(0xD6, 3);
        assert!(report.crash_points >= 9, "got {}", report.crash_points);
        assert_eq!(report.committed, 3);
    }
}
