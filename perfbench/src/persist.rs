//! `persist_txn`: crash-atomic `Session::transaction`s over a replicating
//! store and an intrinsic store on one simulated disk. Each transaction
//! updates a few parts of a bill-of-materials graph reachable from a
//! persistent handle and externs one unit.

use crate::common::*;
use crate::hier::FSYNC_DELAY_US;
use dbpl_lang::{LangError, Session};
use dbpl_persist::{
    commit_multi, encode_dyn, recover_pending, CountingVfs, FaultPlan, IntrinsicStore,
    PersistError, ReplicatingStore, RetryPolicy, SimVfs, Vfs,
};
use dbpl_types::Type;
use dbpl_values::{DynValue, Heap, HeapObject, Oid, Value};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

const PERSIST_DIR: &str = "/persist";
const REPL_DIR: &str = "/persist/units";
const LOG_PATH: &str = "/persist/parts.log";
/// Parts updated per transaction.
const UPDATES_PER_TXN: usize = 3;
/// Extern handles the transactions rotate over.
const UNITS: u64 = 8;

fn part(name: String, base: bool, price: f64, cost: f64, components: Vec<(i64, Oid)>) -> Value {
    let comps = components
        .into_iter()
        .map(|(q, o)| Value::record([("Qty", Value::Int(q)), ("SubPart", Value::Ref(o))]))
        .collect::<Vec<_>>();
    Value::record([
        ("Name", Value::str(name)),
        ("IsBase", Value::Bool(base)),
        ("PurchasePrice", Value::float(price)),
        ("ManufacturingCost", Value::float(cost)),
        ("Mass", Value::float(1.0)),
        ("Components", Value::List(comps)),
    ])
}

/// A seeded parts DAG in `store`: base parts, then assemblies over
/// earlier parts, then one root assembly bound to the handle `bom`.
/// Returns every part's identity.
fn build_parts(store: &mut IntrinsicStore, parts: usize, seed: u64) -> Vec<Oid> {
    let mut rng = Rng::new(seed, 200);
    let ty = Type::named("Part");
    let base = parts * 2 / 3;
    let mut oids = Vec::with_capacity(parts + 1);
    for i in 0..base {
        let price = rng.below(10_000) as f64 / 100.0;
        oids.push(store.alloc(ty.clone(), part(format!("b{i}"), true, price, 0.0, vec![])));
    }
    for i in base..parts {
        let comps = (0..2 + rng.below(3))
            .map(|_| {
                (
                    1 + rng.below(4) as i64,
                    oids[rng.below(oids.len() as u64) as usize],
                )
            })
            .collect();
        let cost = rng.below(1_000) as f64 / 100.0;
        oids.push(store.alloc(ty.clone(), part(format!("a{i}"), false, 0.0, cost, comps)));
    }
    let top: Vec<(i64, Oid)> = oids[base..].iter().map(|o| (1, *o)).collect();
    let root = store.alloc(ty.clone(), part("root".into(), false, 0.0, 1.0, top));
    oids.push(root);
    store.set_handle("bom", ty, Value::Ref(root));
    oids
}

/// A session over both stores on a fresh simulated disk, with the parts
/// graph committed.
fn build(parts: usize, seed: u64, plan: FaultPlan) -> (Session, SimVfs, Vec<Oid>) {
    let sim = SimVfs::with_plan(plan);
    let vfs: Arc<dyn Vfs> = Arc::new(CountingVfs::new(sim.clone()));
    let repl = ReplicatingStore::open_with(Arc::clone(&vfs), REPL_DIR).expect("open units");
    let mut session = Session::from_store(repl).expect("session over the units store");
    let mut intrinsic = IntrinsicStore::open_with(vfs, LOG_PATH).expect("open parts log");
    let oids = build_parts(&mut intrinsic, parts, seed);
    intrinsic.commit().expect("commit the parts graph");
    session.intrinsic = Some(intrinsic);
    (session, sim, oids)
}

/// The parts a transaction updates, with their new values.
fn updates(heap: &Heap, oids: &[Oid], rng: &mut Rng, seq: u64) -> Vec<(Oid, Value)> {
    let mut picked: Vec<Oid> = Vec::new();
    while picked.len() < UPDATES_PER_TXN {
        let o = oids[rng.below(oids.len() as u64 - 1) as usize];
        if !picked.contains(&o) {
            picked.push(o);
        }
    }
    picked
        .into_iter()
        .map(|o| {
            let mut v = heap.get(o).expect("picked parts exist").value.clone();
            let base = v.field("IsBase").and_then(Value::as_bool).unwrap_or(false);
            let field = if base {
                "PurchasePrice"
            } else {
                "ManufacturingCost"
            };
            let fields = v.as_record_mut().expect("parts are records");
            fields.insert(field.into(), Value::float((seq % 10_000) as f64 / 100.0));
            (o, v)
        })
        .collect()
}

fn lang_err(e: PersistError) -> LangError {
    LangError::eval(0, format!("{e}"))
}

fn snapshot_heap(heap: &Heap) -> Vec<(Oid, HeapObject)> {
    heap.iter().map(|(o, obj)| (o, obj.clone())).collect()
}

/// Side stores the traced blocks time the commit paths on: an intrinsic
/// store alone, and an intrinsic plus a replicating store, each holding
/// the same parts graph on a disk with the same flush policy.
struct Side {
    alone: IntrinsicStore,
    multi: IntrinsicStore,
    units: ReplicatingStore,
}

impl Side {
    fn new(parts: usize, seed: u64, plan: FaultPlan) -> Side {
        let vfs: Arc<dyn Vfs> = Arc::new(SimVfs::with_plan(plan));
        let mut alone =
            IntrinsicStore::open_with(Arc::clone(&vfs), "/side/alone.log").expect("open side log");
        build_parts(&mut alone, parts, seed);
        alone.commit().expect("side commit");
        let mut multi =
            IntrinsicStore::open_with(Arc::clone(&vfs), "/side/multi.log").expect("open side log");
        build_parts(&mut multi, parts, seed);
        multi.commit().expect("side commit");
        let units = ReplicatingStore::open_with(vfs, "/side/units").expect("open side units");
        Side {
            alone,
            multi,
            units,
        }
    }
}

#[derive(Default)]
struct PersistLayers {
    intrinsic_commit: Vec<f64>,
    commit_multi: Vec<f64>,
    encode: Vec<f64>,
}

fn probe_commit(
    t: &mut Tracer,
    side: &mut Side,
    ups: &[(Oid, Value)],
    handle: &str,
    unit: &DynValue,
    layers: &mut PersistLayers,
) {
    for (o, v) in ups {
        side.alone.update(*o, v.clone()).expect("side update");
        side.multi.update(*o, v.clone()).expect("side update");
    }
    let (c_us, r) = t.span("persist.intrinsic_commit", || side.alone.commit());
    r.expect("side intrinsic commit");
    let (e_us, bytes) = t.span("persist.encode", || {
        ReplicatingStore::encode_unit(unit, &Heap::new())
    });
    let externs = BTreeMap::from([(handle.to_string(), Some(bytes.expect("encode unit")))]);
    let (m_us, r) = t.span("persist.commit_multi", || {
        commit_multi(
            Some(&mut side.multi),
            &side.units,
            &externs,
            &RetryPolicy::default(),
        )
    });
    r.expect("side multi-store commit");
    layers.intrinsic_commit.push(c_us);
    layers.encode.push(e_us);
    layers.commit_multi.push(m_us);
}

/// Reopen both stores as a session would after a restart: the units
/// store (recovering any pending intent), then the parts log, finishing
/// a multi-store transaction a crash left between them.
struct Reopened {
    session: Session,
    repl_us: f64,
    intr_us: f64,
    total_us: f64,
}

fn reopen(sim: &SimVfs) -> Checked<Reopened> {
    let vfs: Arc<dyn Vfs> = Arc::new(sim.clone());
    let start = Instant::now();
    let (repl_us, repl) = timed(|| ReplicatingStore::open_with(Arc::clone(&vfs), REPL_DIR));
    let repl = repl.map_err(|e| Wrong(format!("persist_txn: reopen units: {e}")))?;
    let mut session =
        Session::from_store(repl).map_err(|e| Wrong(format!("persist_txn: reopen: {e}")))?;
    let (intr_us, intr) = timed(|| IntrinsicStore::open_with(vfs, LOG_PATH));
    let mut intr = intr.map_err(|e| Wrong(format!("persist_txn: reopen parts log: {e}")))?;
    recover_pending(Some(&mut intr), &session.store)
        .map_err(|e| Wrong(format!("persist_txn: recovery: {e}")))?;
    session.intrinsic = Some(intr);
    Ok(Reopened {
        session,
        repl_us,
        intr_us,
        total_us: start.elapsed().as_secs_f64() * 1e6,
    })
}

pub fn persist_txn(cfg: &Cfg) -> Checked<Outcome> {
    let parts = if cfg.mini { 60 } else { 1_000 };
    let plan = FaultPlan {
        fsync_delay_us: Some(FSYNC_DELAY_US),
        ..FaultPlan::default()
    };
    let mut out = Outcome::default();
    let (setup_s, (mut session, sim, oids)) = setup_median(25, || build(parts, cfg.seed, plan));
    out.metric("setup_s", setup_s, "s");
    out.notes.push(format!(
        "parts graph: {parts} parts + root behind handle `bom`; each transaction updates \
         {UPDATES_PER_TXN} parts and externs 1 of {UNITS} units; one session, closed loop; \
         SimVfs fsync delay {FSYNC_DELAY_US} us"
    ));
    let mut side = cfg.trace.then(|| Side::new(parts, cfg.seed, plan));

    let g = dbpl_obs::global();
    let fsyncs0 = g.counter("vfs.fsyncs").get();
    let vwrites0 = g.counter("vfs.writes").get();
    let mut rng = Rng::new(cfg.seed, 300);
    let mut tracer = Tracer::new(Instant::now(), 0);
    let mut plain = Samples::default();
    let mut traced = Samples::default();
    let mut layers = PersistLayers::default();
    let mut units: BTreeMap<String, i64> = BTreeMap::new();
    let deadline = cfg.deadline();
    let max_ops = if cfg.mini { 48 } else { u64::MAX };
    let started = Instant::now();
    let mut op = 0u64;
    while Instant::now() < deadline && op < max_ops {
        let seq = op;
        let trace_this = traced_block(cfg.trace, op);
        op += 1;
        calibrate_tick();
        out.attempted += 1;
        let heap = session.intrinsic.as_ref().expect("attached").heap();
        let ups = updates(heap, &oids, &mut rng, seq);
        let handle = format!("unit{}", rng.below(UNITS));
        let unit = DynValue::new(Type::Int, Value::Int(seq as i64));
        let txn = |s: &mut Session| -> Result<(), LangError> {
            let store = s.intrinsic.as_mut().expect("attached");
            for (o, v) in &ups {
                store.update(*o, v.clone()).map_err(lang_err)?;
            }
            s.stage_extern(&handle, &unit).map_err(lang_err)
        };
        let (us, res) = if trace_this {
            tracer.begin_op();
            let root = tracer.enter("op.txn");
            let (us, res) = tracer.span("lang.transaction", || session.transaction(txn));
            probe_commit(
                &mut tracer,
                side.as_mut().expect("traced runs build side stores"),
                &ups,
                &handle,
                &unit,
                &mut layers,
            );
            tracer.exit(root);
            (us, res)
        } else {
            timed(|| session.transaction(txn))
        };
        match res {
            Ok(()) => {
                units.insert(handle, seq as i64);
                if trace_this {
                    traced.push_us(us);
                } else {
                    plain.push_us(us);
                }
            }
            Err(e) => out.fail(&e),
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    let acked = (plain.len() + traced.len()) as f64;
    let fsyncs = g.counter("vfs.fsyncs").get() - fsyncs0;
    let vwrites = g.counter("vfs.writes").get() - vwrites0;

    // Close, then reopen (three times; the median is reported) and check
    // the reopened state against what was committed.
    let committed = snapshot_heap(session.intrinsic.as_ref().expect("attached").heap());
    drop(session);
    let mut reopens = Vec::new();
    let mut last = None;
    for _ in 0..3 {
        drop(last.take());
        let r = reopen(&sim)?;
        reopens.push((r.total_us, r.repl_us, r.intr_us));
        last = Some(r);
    }
    let reopened = last.expect("reopened").session;
    let live = check_reopened(&reopened, &committed, &oids, &units)?;
    let stored = stored_bytes(&sim, &[PERSIST_DIR, REPL_DIR]);

    let s = if cfg.trace { &traced } else { &plain };
    out.headline("write", s);
    out.metric("write_per_s", acked / elapsed, "1/s");
    out.metric("ops_per_s", acked / elapsed, "1/s");
    let col = |i: usize| -> Vec<f64> { reopens.iter().map(|r| [r.0, r.1, r.2][i]).collect() };
    out.metric("reopen_ms", median(&col(0)).expect("reopened") / 1e3, "ms");
    out.metric("space_amp", stored as f64 / live as f64, "ratio");

    out.layer(
        "persist.intrinsic_commit_us",
        median(&layers.intrinsic_commit),
        "us",
    );
    out.layer(
        "persist.commit_multi_us",
        median(&layers.commit_multi),
        "us",
    );
    out.layer("persist.encode_us", median(&layers.encode), "us");
    out.layer("persist.reopen_replicating_us", median(&col(1)), "us");
    out.layer("persist.reopen_intrinsic_us", median(&col(2)), "us");
    out.layer("persist.stored_bytes", Some(stored as f64), "bytes");
    if acked > 0.0 {
        out.layer(
            "persist.fsyncs_per_commit",
            Some(fsyncs as f64 / acked),
            "count",
        );
        out.layer(
            "persist.writes_per_commit",
            Some(vwrites as f64 / acked),
            "count",
        );
    }
    out.layer(
        "obs.trace_overhead_pct",
        trace_overhead_pct(&plain, &traced),
        "%",
    );
    out.spans = tracer.spans;
    Ok(out)
}

/// The reopened parts graph equals the committed one, the root handle
/// still reaches it, and every unit interns its last acknowledged value.
/// Returns the live user bytes (encoded objects, root and units).
fn check_reopened(
    s: &Session,
    committed: &[(Oid, HeapObject)],
    oids: &[Oid],
    units: &BTreeMap<String, i64>,
) -> Checked<u64> {
    let intr = s.intrinsic.as_ref().expect("attached");
    let got = snapshot_heap(intr.heap());
    if got != committed {
        return wrong(format!(
            "persist_txn: reopened parts graph ({} objects) differs from the committed one \
             ({} objects)",
            got.len(),
            committed.len()
        ));
    }
    let root = oids.last().expect("graph has a root");
    match intr.handle("bom") {
        Some((_, Value::Ref(o))) if o == root => {}
        other => return wrong(format!("persist_txn: handle `bom` reopened as {other:?}")),
    }
    let mut live: u64 = got
        .iter()
        .map(|(_, obj)| encode_dyn(&DynValue::new(obj.ty.clone(), obj.value.clone())).len() as u64)
        .sum();
    for (handle, want) in units {
        let mut heap = Heap::new();
        let d = s
            .store
            .intern(handle, &mut heap)
            .map_err(|e| Wrong(format!("persist_txn: intern('{handle}') after reopen: {e}")))?;
        if d.value.as_int() != Some(*want) {
            return wrong(format!(
                "persist_txn: '{handle}' interned {:?} after reopen, last acknowledged {want}",
                d.value
            ));
        }
        live += encode_dyn(&d).len() as u64;
    }
    Ok(live)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reopen_oracle_rejects_a_lost_update() {
        let (session, sim, oids) = build(30, 5, FaultPlan::default());
        let mut committed = snapshot_heap(session.intrinsic.as_ref().unwrap().heap());
        drop(session);
        let r = reopen(&sim).unwrap();
        assert!(check_reopened(&r.session, &committed, &oids, &BTreeMap::new()).is_ok());
        // Pretend a committed update existed that the store lost.
        let obj = &mut committed[0].1;
        obj.value = Value::Int(-1);
        assert!(check_reopened(&r.session, &committed, &oids, &BTreeMap::new()).is_err());
        let lost_unit = BTreeMap::from([("unit0".to_string(), 7)]);
        let committed = snapshot_heap(r.session.intrinsic.as_ref().unwrap().heap());
        assert!(check_reopened(&r.session, &committed, &oids, &lost_unit).is_err());
    }
}
