//! `get_hier` and `rw_mix`: MiniDBPL programs over a `Server` whose store
//! holds a Person/Employee/Student/WorkingStudent hierarchy plus `Int`
//! noise. Reads are `len(get[T](db))` or a `fold` over it; `rw_mix` adds
//! writes that `put` a row and `extern` a hot handle in one program.

use crate::common::*;
use dbpl_core::{scan_get, Database};
use dbpl_lang::{check_program, parse_program, Server, ServerSession};
use dbpl_persist::{
    commit_multi, CountingVfs, FaultPlan, ReplicatingStore, RetryPolicy, SimVfs, Vfs,
};
use dbpl_types::Type;
use dbpl_values::{DynValue, Heap, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

/// The hierarchy, declared by the first set-up program.
const TYPES: &str = "type Person = {Name: Str}\n\
                     type Employee = {Name: Str, Empno: Int}\n\
                     type Student = {Name: Str, Gpa: Float}\n\
                     type WorkingStudent = {Name: Str, Empno: Int, Gpa: Float}\n";

/// The bounds read programs cycle through.
pub const BOUNDS: [&str; 4] = ["Person", "Employee", "Student", "WorkingStudent"];

/// Flush latency injected into every successful fsync of `rw_mix` and
/// `persist_txn` stores (the same on both sides of any comparison).
pub const FSYNC_DELAY_US: u64 = 200;

/// Puts per set-up program.
const SETUP_CHUNK: usize = 500;

/// Hot extern handles the writes of `rw_mix` spread over.
const HOT_HANDLES: u64 = 4;

/// One generated `put` statement of row class `class`: Person,
/// Employee, Student, WorkingStudent or `Int` noise.
fn row_stmt(rng: &mut Rng, class: u64, i: usize) -> String {
    let empno = rng.below(100_000);
    let gpa = format!("{}.{:02}", rng.below(4), rng.below(100));
    match class {
        0 => format!("put(db, dynamic {{Name = 'p{i}'}})"),
        1 => format!("put(db, dynamic {{Name = 'p{i}', Empno = {empno}}})"),
        2 => format!("put(db, dynamic {{Name = 'p{i}', Gpa = {gpa}}})"),
        3 => format!("put(db, dynamic {{Name = 'p{i}', Empno = {empno}, Gpa = {gpa}}})"),
        _ => format!("put(db, dynamic {empno})"),
    }
}

/// Row classes for `rows` rows: exactly a fifth of each, in seeded order,
/// so every seed reads extents of the same sizes.
fn row_classes(rows: usize, rng: &mut Rng) -> Vec<u64> {
    rng.shuffled(rows)
        .into_iter()
        .map(|i| i as u64 % 5)
        .collect()
}

/// A read program over `get[T](db)`: `len` for Person and
/// WorkingStudent, a counting `fold` for Employee and Student. The two
/// middle extents have the same size and the same program, so the
/// latency median sits inside one mode rather than between two.
#[derive(Clone, Copy, Debug)]
struct Read {
    bound: usize,
}

impl Read {
    /// The `op`th read: the bound cycles through the hierarchy.
    fn nth(op: u64) -> Read {
        Read {
            bound: (op % 4) as usize,
        }
    }

    fn src(self) -> String {
        let t = BOUNDS[self.bound];
        match self.bound {
            1 | 2 => format!("fold(fn(acc: Int, x: {t}) => acc + 1, 0, get[{t}](db))"),
            _ => format!("len(get[{t}](db))"),
        }
    }
}

/// Paper-literal Scan: how many rows of `rows` `get[T]` returns.
fn scan_count(rows: &[DynValue], bound: &Type, db: &Database) -> i64 {
    scan_get(rows, bound, db.env()).len() as i64
}

fn parse_output(out: &[String]) -> Option<i64> {
    match out {
        [line] => line.parse().ok(),
        _ => None,
    }
}

/// A server over a fresh simulated disk, populated with `rows` rows.
fn build_store(rows: usize, seed: u64, plan: FaultPlan) -> (Server, SimVfs) {
    let sim = SimVfs::with_plan(plan);
    let vfs: Arc<dyn Vfs> = Arc::new(CountingVfs::new(sim.clone()));
    let server = Server::open_with(vfs, STORE_DIR).expect("open server on the simulated disk");
    let mut session = server.session();
    session.run(TYPES).expect("declare the hierarchy");
    let mut rng = Rng::new(seed, 1);
    let classes = row_classes(rows, &mut rng);
    let mut i = 0;
    while i < rows {
        let n = SETUP_CHUNK.min(rows - i);
        let prog: String = (i..i + n)
            .map(|k| row_stmt(&mut rng, classes[k], k) + "\n")
            .collect();
        session.run(&prog).expect("set-up puts commit");
        i += n;
    }
    drop(session);
    (server, sim)
}

const STORE_DIR: &str = "/hier";

/// Layer probes around one read, on the snapshot the read saw.
struct ReadProbe {
    parse_us: f64,
    check_us: f64,
    get_us: f64,
    rows_out: f64,
}

fn probe_read(t: &mut Tracer, src: &str, db: &Database, bound: &Type) -> ReadProbe {
    let (parse_us, prog) = t.span("lang.parse", || parse_program(src));
    let prog = prog.expect("generated programs parse");
    let (check_us, checked) = t.span("lang.check", || check_program(&prog, db.env()));
    checked.expect("generated programs check");
    let (get_us, rows_out) = t.span("core.get", || db.get(bound).len());
    ReadProbe {
        parse_us,
        check_us,
        get_us,
        rows_out: rows_out as f64,
    }
}

/// Per-layer read metrics from the probes of the traced blocks.
#[derive(Default)]
struct ReadLayers {
    parse: Vec<f64>,
    check: Vec<f64>,
    get: Vec<f64>,
    rows: Vec<f64>,
    per_row: Vec<f64>,
    run_self: Vec<f64>,
}

impl ReadLayers {
    fn add(&mut self, run_us: f64, p: &ReadProbe) {
        self.parse.push(p.parse_us);
        self.check.push(p.check_us);
        self.get.push(p.get_us);
        self.rows.push(p.rows_out);
        if p.rows_out > 0.0 {
            self.per_row.push(p.get_us / p.rows_out);
        }
        self.run_self
            .push(run_us - p.parse_us - p.check_us - p.get_us);
    }

    fn merge(&mut self, o: ReadLayers) {
        self.parse.extend(o.parse);
        self.check.extend(o.check);
        self.get.extend(o.get);
        self.rows.extend(o.rows);
        self.per_row.extend(o.per_row);
        self.run_self.extend(o.run_self);
    }

    fn report(&self, out: &mut Outcome) {
        out.layer("lang.parse_us", median(&self.parse), "us");
        out.layer("lang.check_us", median(&self.check), "us");
        out.layer("lang.run_self_us", median(&self.run_self), "us");
        out.layer("core.get_us", median(&self.get), "us");
        out.layer("core.get_rows_out", median(&self.rows), "count");
        out.layer("core.get_us_per_row", median(&self.per_row), "us");
    }
}

struct SubtypeCounters(u64, u64);

impl SubtypeCounters {
    fn now() -> SubtypeCounters {
        let g = dbpl_obs::global();
        SubtypeCounters(
            g.counter("subtype.cache.hits").get(),
            g.counter("subtype.cache.misses").get(),
        )
    }

    fn hit_ratio_since(&self, before: &SubtypeCounters) -> Option<f64> {
        let hits = self.0 - before.0;
        let total = hits + (self.1 - before.1);
        (total > 0).then(|| hits as f64 / total as f64)
    }
}

// ---------------------------------------------------------------------------
// get_hier
// ---------------------------------------------------------------------------

pub fn get_hier(cfg: &Cfg) -> Checked<Outcome> {
    let rows = if cfg.mini { 600 } else { 8_000 };
    let mut out = Outcome::default();
    let (setup_s, (server, _sim)) =
        setup_median(3, || build_store(rows, cfg.seed, FaultPlan::default()));
    out.metric("setup_s", setup_s, "s");
    out.notes.push(format!(
        "store: {rows} rows (20% each Person/Employee/Student/WorkingStudent/Int), \
         one client, closed loop"
    ));

    let mut session = server.session();
    let snap = session.snapshot();
    let bounds: Vec<Type> = BOUNDS.iter().map(|b| Type::named(*b)).collect();
    // The store does not change during the run: one Scan per bound.
    let expected: Vec<i64> = bounds
        .iter()
        .map(|b| scan_count(snap.db.dynamics(), b, &snap.db))
        .collect();

    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch, 0);
    let mut plain = Samples::default();
    let mut traced = Samples::default();
    let mut layers = ReadLayers::default();
    let subtype_before = SubtypeCounters::now();
    let deadline = cfg.deadline();
    let max_ops = if cfg.mini { 48 } else { u64::MAX };
    let started = Instant::now();
    let mut op = 0u64;
    while Instant::now() < deadline && op < max_ops {
        let read = Read::nth(op);
        let src = read.src();
        let trace_this = traced_block(cfg.trace, op);
        out.attempted += 1;
        let (run_us, res) = if trace_this {
            tracer.begin_op();
            let root = tracer.enter("op.read");
            let (run_us, res) = tracer.span("lang.server.run", || session.run(&src));
            let p = probe_read(&mut tracer, &src, &snap.db, &bounds[read.bound]);
            tracer.exit(root);
            layers.add(run_us, &p);
            (run_us, res)
        } else {
            timed(|| session.run(&src))
        };
        op += 1;
        calibrate_tick();
        match res {
            Ok(lines) => {
                let want = expected[read.bound];
                if parse_output(&lines) != Some(want) {
                    return wrong(format!(
                        "get_hier: `{src}` printed {lines:?}, Scan oracle says {want}"
                    ));
                }
                if trace_this {
                    traced.push_us(run_us);
                } else {
                    plain.push_us(run_us);
                }
            }
            Err(e) => out.fail(&e),
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    let completed = (plain.len() + traced.len()) as f64;

    let reads = if cfg.trace { &traced } else { &plain };
    out.headline("read", reads);
    out.metric("read_per_s", completed / elapsed, "1/s");
    out.metric("ops_per_s", completed / elapsed, "1/s");

    layers.report(&mut out);
    out.layer(
        "types.subtype_hit_ratio",
        SubtypeCounters::now().hit_ratio_since(&subtype_before),
        "ratio",
    );
    out.layer("core.store_rows", Some(snap.db.len() as f64), "count");
    out.layer(
        "obs.trace_overhead_pct",
        trace_overhead_pct(&plain, &traced),
        "%",
    );
    out.spans = tracer.spans;
    Ok(out)
}

// ---------------------------------------------------------------------------
// rw_mix
// ---------------------------------------------------------------------------

/// One read whose output is checked after the run, against Scan over the
/// store prefix it could have seen (the store only grows, so the snapshot
/// a read ran on is a prefix of the final store).
struct ReadCheck {
    read: Read,
    rows_before: usize,
    rows_after: usize,
    got: Option<i64>,
    src: String,
}

/// One write program and what became of it.
struct Write {
    name: String,
    empno: i64,
    handle: String,
    value: i64,
    /// The epoch its commit was published at, when acknowledged.
    epoch: Option<u64>,
}

#[derive(Default)]
struct ThreadResult {
    attempted: u64,
    failures: Vec<dbpl_lang::LangError>,
    reads_plain: Samples,
    reads_traced: Samples,
    writes_plain: Samples,
    writes_traced: Samples,
    reads: Vec<ReadCheck>,
    writes: Vec<Write>,
    read_layers: ReadLayers,
    write_layers: WriteLayers,
    tracer: Option<Tracer>,
}

#[derive(Default)]
struct WriteLayers {
    put_cow: Vec<f64>,
    stats_maintain: Vec<f64>,
    encode: Vec<f64>,
    commit_multi: Vec<f64>,
}

impl WriteLayers {
    fn merge(&mut self, o: WriteLayers) {
        self.put_cow.extend(o.put_cow);
        self.stats_maintain.extend(o.stats_maintain);
        self.encode.extend(o.encode);
        self.commit_multi.extend(o.commit_multi);
    }
}

/// Layer probes around one write: copy-on-write `put` on a clone of the
/// pinned snapshot, statistics upkeep (a second `put` on that clone with
/// statistics on vs off), and the unit encode plus `commit_multi` of the
/// same extern on a side store over the same flush policy.
fn probe_write(
    t: &mut Tracer,
    db: &Database,
    row: &DynValue,
    unit: &DynValue,
    handle: &str,
    side: &ReplicatingStore,
    layers: &mut WriteLayers,
) {
    let (cow_us, (db_on, put)) = t.span("core.put_cow", || {
        let mut db = db.clone();
        let r = db.put_dyn(row.clone());
        (db, r)
    });
    put.expect("probe put conforms");
    let mut db_on = db_on;
    let mut db_off = db_on.clone();
    db_off.set_stats_enabled(false);
    db_off.put_dyn(row.clone()).expect("probe put conforms");
    db_on.put_dyn(row.clone()).expect("probe put conforms");
    let (on_us, on) = t.span("stats.put_with_stats", || {
        db_on.put_dyn(row.clone()).is_ok()
    });
    let (off_us, off) = t.span("core.put_without_stats", || {
        db_off.put_dyn(row.clone()).is_ok()
    });
    assert!(on && off, "probe puts conform");
    let (enc_us, bytes) = t.span("persist.encode", || {
        ReplicatingStore::encode_unit(unit, &Heap::new())
    });
    let bytes = bytes.expect("encode probe unit");
    let externs = BTreeMap::from([(handle.to_string(), Some(bytes))]);
    let (commit_us, r) = t.span("persist.commit_multi", || {
        commit_multi(None, side, &externs, &RetryPolicy::default())
    });
    r.expect("side-store commit");
    drop((db_on, db_off));
    layers.put_cow.push(cow_us);
    layers.stats_maintain.push(on_us - off_us);
    layers.encode.push(enc_us);
    layers.commit_multi.push(commit_us);
}

#[allow(clippy::too_many_arguments)]
fn rw_client(
    cfg: &Cfg,
    thread: u64,
    server: &Server,
    bounds: &[Type],
    epoch: Instant,
    deadline: Instant,
    max_ops: u64,
    plan: FaultPlan,
) -> ThreadResult {
    let mut session: ServerSession = server.session();
    let mut rng = Rng::new(cfg.seed, 10 + thread);
    let mut r = ThreadResult::default();
    let mut tracer = Tracer::new(epoch, thread);
    let side = cfg.trace.then(|| {
        ReplicatingStore::open_with(Arc::new(SimVfs::with_plan(plan)), "/side")
            .expect("open side store")
    });
    let mut op = 0u64;
    while Instant::now() < deadline && op < max_ops {
        let n = op;
        op += 1;
        calibrate_tick();
        let trace_this = traced_block(cfg.trace, n);
        r.attempted += 1;
        if trace_this {
            tracer.begin_op();
        }
        if n % 5 == 4 {
            // Write: one row and one hot extern in a single program.
            let seq = r.writes.len();
            let name = format!("w{thread}_{seq}");
            let empno = rng.below(100_000) as i64;
            let handle = format!("hot{}", rng.below(HOT_HANDLES));
            let value = ((thread as i64) << 32) | seq as i64;
            let src = format!(
                "put(db, dynamic {{Name = '{name}', Empno = {empno}}})\n\
                 extern('{handle}', dynamic {value})"
            );
            let (us, res) = if trace_this {
                let root = tracer.enter("op.write");
                let (us, res) = tracer.span("lang.server.run", || session.run(&src));
                let snap = session.snapshot();
                let row = DynValue::new(
                    Type::record([("Name", Type::Str), ("Empno", Type::Int)]),
                    Value::record([("Name", Value::str(&name)), ("Empno", Value::Int(empno))]),
                );
                let unit = DynValue::new(Type::Int, Value::Int(value));
                probe_write(
                    &mut tracer,
                    &snap.db,
                    &row,
                    &unit,
                    &handle,
                    side.as_ref().expect("traced runs open a side store"),
                    &mut r.write_layers,
                );
                tracer.exit(root);
                (us, res)
            } else {
                timed(|| session.run(&src))
            };
            let mut w = Write {
                name,
                empno,
                handle,
                value,
                epoch: None,
            };
            match res {
                Ok(_) => {
                    w.epoch = session.last_commit_epoch();
                    if trace_this {
                        r.writes_traced.push_us(us);
                    } else {
                        r.writes_plain.push_us(us);
                    }
                }
                Err(e) => r.failures.push(e),
            }
            r.writes.push(w);
        } else {
            let read = Read::nth(n);
            let src = read.src();
            let before = session.snapshot();
            let rows_before = before.db.len();
            let (us, res) = if trace_this {
                let root = tracer.enter("op.read");
                let (us, res) = tracer.span("lang.server.run", || session.run(&src));
                let p = probe_read(&mut tracer, &src, &before.db, &bounds[read.bound]);
                tracer.exit(root);
                r.read_layers.add(us, &p);
                (us, res)
            } else {
                timed(|| session.run(&src))
            };
            drop(before);
            let rows_after = session.snapshot().db.len();
            match res {
                Ok(lines) => {
                    if trace_this {
                        r.reads_traced.push_us(us);
                    } else {
                        r.reads_plain.push_us(us);
                    }
                    r.reads.push(ReadCheck {
                        read,
                        rows_before,
                        rows_after,
                        got: parse_output(&lines),
                        src,
                    });
                }
                Err(e) => r.failures.push(e),
            }
        }
    }
    r.tracer = cfg.trace.then_some(tracer);
    r
}

pub fn rw_mix(cfg: &Cfg) -> Checked<Outcome> {
    let rows = if cfg.mini { 600 } else { 4_000 };
    let clients = 2u64;
    let plan = FaultPlan {
        fsync_delay_us: Some(FSYNC_DELAY_US),
        ..FaultPlan::default()
    };
    let mut out = Outcome::default();
    let (setup_s, (server, sim)) = setup_median(5, || build_store(rows, cfg.seed, plan));
    out.metric("setup_s", setup_s, "s");
    out.notes.push(format!(
        "store: {rows} rows at start; {clients} sessions on {clients} threads, closed loop, \
         80% reads / 20% writes (put + extern to 1 of {HOT_HANDLES} hot handles); \
         SimVfs fsync delay {FSYNC_DELAY_US} us"
    ));
    let bounds: Vec<Type> = BOUNDS.iter().map(|b| Type::named(*b)).collect();

    let g = dbpl_obs::global();
    let wait_hist = g.histogram("server.queue_wait_us");
    let (wait_count0, wait_sum0) = (wait_hist.count(), wait_hist.sum_us());
    let fsyncs0 = g.counter("vfs.fsyncs").get();
    let vwrites0 = g.counter("vfs.writes").get();
    let epoch0 = server.epoch();
    let subtype_before = SubtypeCounters::now();

    let epoch = Instant::now();
    let deadline = cfg.deadline();
    let max_ops = if cfg.mini { 64 } else { u64::MAX };
    let started = Instant::now();
    let results: Vec<ThreadResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|t| {
                let (server, bounds) = (&server, &bounds);
                scope.spawn(move || {
                    rw_client(cfg, t, server, bounds, epoch, deadline, max_ops, plan)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();

    let acked_epochs = server.epoch() - epoch0;
    let fsyncs = g.counter("vfs.fsyncs").get() - fsyncs0;
    let vwrites = g.counter("vfs.writes").get() - vwrites0;
    let (wait_count, wait_sum) = (
        wait_hist.count() - wait_count0,
        wait_hist.sum_us() - wait_sum0,
    );
    let subtype_ratio = SubtypeCounters::now().hit_ratio_since(&subtype_before);

    let mut reads = (Samples::default(), Samples::default());
    let mut writes = (Samples::default(), Samples::default());
    let mut read_layers = ReadLayers::default();
    let mut write_layers = WriteLayers::default();
    let mut read_checks = Vec::new();
    let mut all_writes = Vec::new();
    let mut tracer = Tracer::new(epoch, 0);
    for r in results {
        out.attempted += r.attempted;
        for e in &r.failures {
            out.fail(e);
        }
        reads.0 .0.extend(r.reads_plain.0);
        reads.1 .0.extend(r.reads_traced.0);
        writes.0 .0.extend(r.writes_plain.0);
        writes.1 .0.extend(r.writes_traced.0);
        read_layers.merge(r.read_layers);
        write_layers.merge(r.write_layers);
        read_checks.extend(r.reads);
        all_writes.extend(r.writes);
        if let Some(t) = r.tracer {
            tracer.absorb(t);
        }
    }

    // --- Oracle: reads against Scan over the prefix they saw. ---
    let session = server.session();
    let fin = session.snapshot();
    drop(session);
    check_reads(&fin.db, &bounds, &read_checks)?;
    // --- Oracle: every acknowledged put visible, no refused one. ---
    check_puts(&fin.db, &all_writes)?;
    let store_rows = fin.db.len();
    drop(fin);

    // --- Oracle: reopen the store; every acknowledged extern interns its
    // last value. ---
    server.shutdown();
    let reopened = ReplicatingStore::open_with(Arc::new(sim.clone()), STORE_DIR)
        .map_err(|e| Wrong(format!("rw_mix: reopen failed: {e}")))?;
    let live_bytes = check_externs(&reopened, &all_writes)?;
    let stored = stored_bytes(&sim, &[STORE_DIR]);

    let acked = all_writes.iter().filter(|w| w.epoch.is_some()).count() as f64;
    let completed = (reads.0.len() + reads.1.len() + writes.0.len() + writes.1.len()) as f64;
    let (read_s, write_s) = if cfg.trace {
        (&reads.1, &writes.1)
    } else {
        (&reads.0, &writes.0)
    };
    out.latency("read", read_s);
    out.headline("write", write_s);
    out.metric(
        "read_per_s",
        (reads.0.len() + reads.1.len()) as f64 / elapsed,
        "1/s",
    );
    out.metric("write_per_s", acked / elapsed, "1/s");
    out.metric("ops_per_s", completed / elapsed, "1/s");
    if live_bytes > 0 {
        out.metric("space_amp", stored as f64 / live_bytes as f64, "ratio");
    }

    read_layers.report(&mut out);
    out.layer("types.subtype_hit_ratio", subtype_ratio, "ratio");
    out.layer("core.store_rows", Some(store_rows as f64), "count");
    out.layer("core.put_cow_us", median(&write_layers.put_cow), "us");
    out.layer(
        "stats.maintain_us",
        median(&write_layers.stats_maintain),
        "us",
    );
    out.layer("persist.encode_us", median(&write_layers.encode), "us");
    out.layer(
        "persist.commit_multi_us",
        median(&write_layers.commit_multi),
        "us",
    );
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
    if wait_count > 0 {
        out.layer(
            "lang.server.queue_wait_us",
            Some(wait_sum as f64 / wait_count as f64),
            "us",
        );
    }
    if acked_epochs > 0 {
        out.layer(
            "lang.server.batch_size",
            Some(acked / acked_epochs as f64),
            "count",
        );
    }
    out.layer("persist.stored_bytes", Some(stored as f64), "bytes");
    out.layer(
        "obs.trace_overhead_pct",
        trace_overhead_pct(&writes.0, &writes.1),
        "%",
    );
    out.spans = tracer.spans;
    Ok(out)
}

/// Scan-oracle counts of every bound over every prefix of the store.
fn prefix_counts(db: &Database, bounds: &[Type]) -> Vec<Vec<i64>> {
    bounds
        .iter()
        .map(|b| {
            let mut acc = 0;
            let mut v = Vec::with_capacity(db.len() + 1);
            v.push(acc);
            for i in 0..db.len() {
                acc += scan_count(&db.dynamics()[i..=i], b, db);
                v.push(acc);
            }
            v
        })
        .collect()
}

fn check_reads(db: &Database, bounds: &[Type], reads: &[ReadCheck]) -> Checked<()> {
    let prefix = prefix_counts(db, bounds);
    for r in reads {
        let counts = &prefix[r.read.bound];
        let (lo, hi) = (counts[r.rows_before], counts[r.rows_after]);
        match r.got {
            Some(got) if lo <= got && got <= hi => {}
            got => {
                return wrong(format!(
                    "rw_mix: `{}` printed {got:?}; Scan over the snapshot it ran on \
                     says {lo}..={hi}",
                    r.src
                ))
            }
        }
    }
    Ok(())
}

fn check_puts(db: &Database, writes: &[Write]) -> Checked<()> {
    let employees = scan_get(db.dynamics(), &Type::named("Employee"), db.env());
    let seen: BTreeSet<(String, i64)> = employees
        .iter()
        .filter_map(|p| {
            let v = p.open();
            Some((
                v.field("Name")?.as_str()?.to_string(),
                v.field("Empno")?.as_int()?,
            ))
        })
        .collect();
    for w in writes {
        let visible = seen.contains(&(w.name.clone(), w.empno));
        match (w.epoch.is_some(), visible) {
            (true, false) => {
                return wrong(format!(
                    "rw_mix: acknowledged put of '{}' is not visible",
                    w.name
                ))
            }
            (false, true) => {
                return wrong(format!(
                    "rw_mix: put of '{}' is visible although its commit failed",
                    w.name
                ))
            }
            _ => {}
        }
    }
    Ok(())
}

/// Every hot handle interns a value written by one of its latest
/// acknowledged writes (frames of one group commit share an epoch, and
/// any of them may be the batch's last writer). Returns the live bytes.
fn check_externs(store: &ReplicatingStore, writes: &[Write]) -> Checked<u64> {
    let mut last: BTreeMap<&str, (u64, Vec<i64>)> = BTreeMap::new();
    for w in writes {
        let Some(e) = w.epoch else { continue };
        let entry = last.entry(w.handle.as_str()).or_insert((e, Vec::new()));
        if e > entry.0 {
            *entry = (e, Vec::new());
        }
        if e == entry.0 {
            entry.1.push(w.value);
        }
    }
    let mut live = 0u64;
    for (handle, (_, candidates)) in &last {
        let mut heap = Heap::new();
        let got = store
            .intern(handle, &mut heap)
            .map_err(|e| Wrong(format!("rw_mix: intern('{handle}') after reopen: {e}")))?;
        match got.value.as_int() {
            Some(v) if candidates.contains(&v) => {}
            other => {
                return wrong(format!(
                    "rw_mix: '{handle}' interned {other:?} after reopen, \
                     last acknowledged value(s) {candidates:?}"
                ))
            }
        }
        live += ReplicatingStore::encode_unit(&got, &heap)
            .map(|b| b.len() as u64)
            .unwrap_or(0);
    }
    Ok(live)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_db() -> Database {
        let (server, _sim) = build_store(200, 7, FaultPlan::default());
        let s = server.session();
        s.snapshot().db.clone()
    }

    #[test]
    fn read_oracle_rejects_a_result_with_one_row_dropped() {
        let db = small_db();
        let bounds: Vec<Type> = BOUNDS.iter().map(|b| Type::named(*b)).collect();
        let read = Read { bound: 0 };
        let right = db.get(&bounds[0]).len() as i64;
        let check = |got: i64| {
            check_reads(
                &db,
                &bounds,
                &[ReadCheck {
                    read,
                    rows_before: db.len(),
                    rows_after: db.len(),
                    got: Some(got),
                    src: read.src(),
                }],
            )
        };
        assert!(check(right).is_ok());
        assert!(check(right - 1).is_err(), "one row dropped must be caught");
    }

    fn write(handle: &str, value: i64, epoch: u64) -> Write {
        Write {
            name: format!("w{value}"),
            empno: value,
            handle: handle.into(),
            value,
            epoch: Some(epoch),
        }
    }

    #[test]
    fn extern_oracle_rejects_a_stale_value() {
        let store = ReplicatingStore::open_with(Arc::new(SimVfs::new()), "/t").unwrap();
        let unit = DynValue::new(Type::Int, Value::Int(5));
        store.extern_value("hot0", &unit, &Heap::new()).unwrap();
        assert!(check_externs(&store, &[write("hot0", 5, 1)]).is_ok());
        // Two frames of one group commit: either may be the last writer.
        assert!(check_externs(&store, &[write("hot0", 5, 2), write("hot0", 6, 2)]).is_ok());
        assert!(check_externs(&store, &[write("hot0", 5, 1), write("hot0", 6, 2)]).is_err());
    }

    #[test]
    fn put_oracle_rejects_a_lost_acknowledged_put() {
        let db = small_db();
        assert!(check_puts(&db, &[write("hot0", 1, 1)]).is_err());
    }
}
