//! The measurements behind `report`'s tables and the gate tests in
//! `crates/bench/tests/`: each one is one function here. A gate test
//! asserts its bound on what the function returns; `report` only
//! prints it. Sizes are arguments, so the tests measure small inputs
//! and `report` large ones with the same code.
//!
//! Many read the global metrics registry or the trace ring, or time
//! themselves: where several may run at once, as in a test binary,
//! hold [`crate::exclusive`] around each.

use crate::{keyed_gen_relation, populated_db, record_tower};
use dbpl_lang::{Health, Server, ServerConfig, Session};
use dbpl_obs::timeline::{RecorderConfig, Slo, Timeline};
use dbpl_obs::StatsSnapshot;
use dbpl_persist::{
    commit_multi, CountingVfs, FaultPlan, ReplicatingStore, RetryPolicy, ScrubReport, SimVfs,
    TempDir,
};
use dbpl_relation::{JoinStrategy, Reduction};
use dbpl_stats::{extent_json, queries, query_json, top_json, top_k, FingerprintAgg, QueryRecord};
use dbpl_types::{is_subtype, is_subtype_uncached, Type, TypeEnv};
use dbpl_values::{DynValue, Heap, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Microseconds per call of `f`, averaged over `iters` calls after one
/// warm-up call, with the last call's result.
pub fn time<R>(mut f: impl FnMut() -> R, iters: u32) -> (f64, R) {
    let mut out = f();
    let start = Instant::now();
    for _ in 0..iters {
        out = f();
    }
    (start.elapsed().as_secs_f64() / iters as f64 * 1e6, out)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// A ratio gate's estimator: `rounds` paired rounds, each measuring the
/// base arm and the treated arm back to back, alternating which runs
/// first so clock drift and a warmer second slot tax both arms alike.
/// Returns the median of the per-round `treated / base` ratios — a
/// host stall lands on one round's pair, not on the verdict — and each
/// arm's median measurement.
pub fn paired_median_ratio(
    rounds: usize,
    mut base: impl FnMut() -> f64,
    mut treated: impl FnMut() -> f64,
) -> (f64, f64, f64) {
    let (mut bases, mut treateds, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..rounds {
        let (b, t) = if round % 2 == 0 {
            let b = base();
            (b, treated())
        } else {
            let t = treated();
            (base(), t)
        };
        bases.push(b);
        treateds.push(t);
        ratios.push(t / b.max(1e-9));
    }
    (median(ratios), median(bases), median(treateds))
}

/// E1: `Database::get` (the typed lists) against the paper's scan
/// (`get_by_scan`), bound `Employee` over `populated_db(n, 42)`, µs per
/// call.
#[derive(Debug, Clone, Copy)]
pub struct GetCost {
    /// The scan oracle.
    pub scan_us: f64,
    /// The typed lists.
    pub typed_us: f64,
}

/// Measure [`GetCost`] over `n` rows, `iters` calls per path.
pub fn get_cost(n: usize, iters: u32) -> GetCost {
    let db = populated_db(n, 42);
    let bound = Type::named("Employee");
    let (scan_us, _) = time(|| db.get_by_scan(&bound).len(), iters);
    let (typed_us, _) = time(|| db.get(&bound).len(), iters);
    GetCost { scan_us, typed_us }
}

/// F1-scaled: the maximal natural join of two `keyed_gen_relation`s of
/// `n` rows under both strategies, µs per join.
#[derive(Debug, Clone, Copy)]
pub struct JoinCost {
    /// `JoinStrategy::Nested`, the paper's pair product.
    pub nested_us: f64,
    /// `JoinStrategy::Partitioned`, the production join.
    pub partitioned_us: f64,
}

/// Measure [`JoinCost`] at `n` rows a side, `iters` joins per strategy.
pub fn join_cost(n: usize, iters: u32) -> JoinCost {
    let r1 = keyed_gen_relation(n, "Dept", 11);
    let r2 = keyed_gen_relation(n, "Phone", 13);
    let join = |s| r1.natural_join_strategy(&r2, Reduction::Maximal, s).len();
    let (nested_us, _) = time(|| join(JoinStrategy::Nested), iters);
    let (partitioned_us, _) = time(|| join(JoinStrategy::Partitioned), iters);
    JoinCost {
        nested_us,
        partitioned_us,
    }
}

/// E5: one `record_tower(width, depth)` subtype check by the structural
/// walk and through the memo table, µs per check.
#[derive(Debug, Clone, Copy)]
pub struct SubtypeCost {
    /// `is_subtype_uncached`.
    pub walk_us: f64,
    /// `is_subtype`.
    pub memo_us: f64,
}

/// Measure [`SubtypeCost`], `iters` checks per path.
pub fn subtype_cost(width: usize, depth: usize, iters: u32) -> SubtypeCost {
    let tenv = TypeEnv::new();
    let sub = record_tower(width, depth, true);
    let sup = record_tower(width, depth, false);
    let (walk_us, _) = time(|| is_subtype_uncached(&sub, &sup, &tenv), iters);
    let (memo_us, _) = time(|| is_subtype(&sub, &sup, &tenv), iters);
    SubtypeCost { walk_us, memo_us }
}

/// The same `handles` externs written three ways, µs per batch.
#[derive(Debug, Clone, Copy)]
pub struct TxnCommitCost {
    /// `ReplicatingStore::extern_value` per handle: no staging, no
    /// intent record.
    pub raw_us: f64,
    /// One `Session::run` of the externs: an implicit transaction.
    pub implicit_us: f64,
    /// The same program inside `begin` … `commit`.
    pub explicit_us: f64,
}

/// Measure [`TxnCommitCost`], `iters` batches per path.
pub fn txn_commit_cost(handles: usize, iters: u32) -> TxnCommitCost {
    let dir = TempDir::new("bench-txn").expect("temp dir");
    let program: String = (0..handles)
        .map(|i| format!("extern('h{i}', dynamic {i})\n"))
        .collect();
    let store = ReplicatingStore::open(dir.join("raw")).unwrap();
    let heap = Heap::new();
    let (raw_us, _) = time(
        || {
            for i in 0..handles {
                let d = DynValue::new(Type::Int, Value::Int(i as i64));
                store.extern_value(&format!("h{i}"), &d, &heap).unwrap();
            }
        },
        iters,
    );
    let mut implicit = Session::with_store_dir(dir.join("implicit")).unwrap();
    let (implicit_us, _) = time(|| implicit.run(&program).unwrap().len(), iters);
    let mut explicit = Session::with_store_dir(dir.join("explicit")).unwrap();
    let block = format!("begin\n{program}commit");
    let (explicit_us, _) = time(|| explicit.run(&block).unwrap().len(), iters);
    TxnCommitCost {
        raw_us,
        implicit_us,
        explicit_us,
    }
}

/// Decoding one `rows`-row unit framed as v2 (CRC-32C verified on read)
/// against the same payload in the legacy unframed v1 layout.
#[derive(Debug, Clone, Copy)]
pub struct VerifyOnRead {
    /// Rows in the unit.
    pub rows: usize,
    /// Median µs per legacy decode.
    pub legacy_us: f64,
    /// Median µs per framed decode.
    pub framed_us: f64,
    /// Median of the paired framed/legacy ratios.
    pub ratio: f64,
}

/// Measure [`VerifyOnRead`] with [`paired_median_ratio`] over `rounds`
/// pairs, each arm timing 3 decodes.
pub fn verify_on_read(rows: usize, rounds: usize) -> VerifyOnRead {
    use dbpl_persist::format::{LEGACY_VERSION, MAGIC};
    use dbpl_persist::{decode_dyn, encode_dyn, unframe_unit};
    // Records force per-row allocations, so the unit is decode-heavy.
    let v = Value::List(
        (0..rows)
            .map(|i| {
                Value::record([
                    ("id", Value::Int(i as i64)),
                    ("name", Value::str(format!("row {i:08}"))),
                ])
            })
            .collect(),
    );
    let v2 = encode_dyn(&DynValue::new(Type::list(Type::Top), v));
    let (_, payload) = unframe_unit(&v2).expect("freshly framed unit");
    let mut v1 = MAGIC.to_vec();
    v1.push(LEGACY_VERSION);
    v1.extend_from_slice(payload);
    let decode = |bytes: &[u8]| time(|| decode_dyn(bytes).unwrap().ty, 3).0;
    let (ratio, legacy_us, framed_us) = paired_median_ratio(rounds, || decode(&v1), || decode(&v2));
    VerifyOnRead {
        rows,
        legacy_us,
        framed_us,
        ratio,
    }
}

/// One scrub pass over a store of `units` healthy units.
#[derive(Debug)]
pub struct Scrub {
    /// Units in the store.
    pub units: usize,
    /// µs per pass.
    pub us_per_pass: f64,
    /// The last pass's findings.
    pub report: ScrubReport,
}

/// Measure [`Scrub`], `iters` passes.
pub fn scrub(units: usize, iters: u32) -> Scrub {
    let dir = TempDir::new("bench-scrub").expect("temp dir");
    let store = ReplicatingStore::open(dir.join("units")).unwrap();
    let heap = Heap::new();
    for i in 0..units {
        let d = DynValue::new(Type::Int, Value::Int(i as i64));
        store.extern_value(&format!("u{i}"), &d, &heap).unwrap();
    }
    let (us_per_pass, report) = time(|| store.scrub(None), iters);
    Scrub {
        units,
        us_per_pass,
        report,
    }
}

/// A server whose database holds `rows` records of type `R`: the
/// store the snapshot-read measurements read.
pub struct ReadFixture {
    /// The engine.
    pub server: Server,
    /// Records of type `R` in it.
    pub rows: usize,
}

/// Build a [`ReadFixture`] with one setup program.
pub fn read_fixture(rows: usize) -> ReadFixture {
    let server = Server::new().unwrap();
    let mut prog = String::from("type R = {X: Int}\n");
    for i in 0..rows {
        let _ = writeln!(prog, "put(db, dynamic {{X = {i}}})");
    }
    server.session().run(&prog).unwrap();
    ReadFixture { server, rows }
}

/// The hardware threads, as the read measurements size their pools.
pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Snapshot reads of bound `R` by one session count.
#[derive(Debug, Clone, Copy)]
pub struct ReadPoint {
    /// Sessions opened.
    pub sessions: usize,
    /// Threads they were spread over.
    pub threads: usize,
    /// Reads done.
    pub reads: u64,
    /// Reads per second.
    pub ops_per_sec: f64,
}

/// Snapshot-read throughput as the session count grows.
#[derive(Debug, Clone)]
pub struct ReadScaling {
    /// One point per session count, in the order asked.
    pub points: Vec<ReadPoint>,
    /// Reads that did not see all `rows` records: a torn snapshot.
    pub torn: u64,
}

impl ReadScaling {
    /// The best throughput over the single-session throughput.
    pub fn speedup(&self) -> f64 {
        let single = self
            .points
            .iter()
            .find(|p| p.sessions == 1)
            .map_or(0.0, |p| p.ops_per_sec);
        let peak = self
            .points
            .iter()
            .map(|p| p.ops_per_sec)
            .fold(0.0, f64::max);
        peak / single.max(1e-9)
    }
}

/// Measure [`ReadScaling`]: each session does `reads_per_session`
/// snapshot reads. Sessions beyond the hardware width round-robin over
/// a capped thread pool, so 10k sessions is a multiplexing test, not a
/// 10k-thread one.
pub fn read_scaling(
    fx: &ReadFixture,
    session_counts: &[usize],
    reads_per_session: usize,
) -> ReadScaling {
    let bound = Type::named("R");
    let torn = AtomicU64::new(0);
    let mut points = Vec::new();
    for &sessions in session_counts {
        let threads = sessions.min(cores().max(2) * 2).min(32);
        let per_thread = sessions.div_ceil(threads);
        let total = AtomicU64::new(0);
        let start = Instant::now();
        std::thread::scope(|scope| {
            for t in 0..threads {
                let (bound, total, torn) = (&bound, &total, &torn);
                scope.spawn(move || {
                    let mine = per_thread.min(sessions.saturating_sub(t * per_thread));
                    let mut done = 0u64;
                    for _ in 0..mine {
                        let session = fx.server.session();
                        for _ in 0..reads_per_session {
                            if session.snapshot().db.get(bound).len() != fx.rows {
                                torn.fetch_add(1, Ordering::Relaxed);
                            }
                            done += 1;
                        }
                    }
                    total.fetch_add(done, Ordering::Relaxed);
                });
            }
        });
        let reads = total.load(Ordering::Relaxed);
        points.push(ReadPoint {
            sessions,
            threads,
            reads,
            ops_per_sec: reads as f64 / start.elapsed().as_secs_f64().max(1e-9),
        });
    }
    ReadScaling {
        points,
        torn: torn.into_inner(),
    }
}

/// Snapshot-read throughput with the flight recorder off and on.
#[derive(Debug, Clone, Copy)]
pub struct RecorderOverhead {
    /// Median reads per second, recorder off.
    pub off: f64,
    /// Median reads per second, recorder on.
    pub on: f64,
    /// Median of the paired on/off ratios.
    pub ratio: f64,
    /// Reads that did not see all `rows` records.
    pub torn: u64,
}

/// Measure [`RecorderOverhead`] at the recorder's default 100ms
/// interval: `rounds` pairs of fixed 250ms trials, each reading flat
/// out from 2–4 threads.
pub fn recorder_overhead(fx: &ReadFixture, rounds: usize) -> RecorderOverhead {
    let bound = Type::named("R");
    let torn = AtomicU64::new(0);
    let trial = || -> f64 {
        let threads = cores().clamp(2, 4);
        let window = Duration::from_millis(250);
        let done = AtomicU64::new(0);
        let start = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let (bound, done, torn) = (&bound, &done, &torn);
                scope.spawn(move || {
                    let session = fx.server.session();
                    let stop_at = Instant::now() + window;
                    let mut ops = 0u64;
                    while Instant::now() < stop_at {
                        if session.snapshot().db.get(bound).len() != fx.rows {
                            torn.fetch_add(1, Ordering::Relaxed);
                        }
                        ops += 1;
                    }
                    done.fetch_add(ops, Ordering::Relaxed);
                });
            }
        });
        done.load(Ordering::Relaxed) as f64 / start.elapsed().as_secs_f64().max(1e-9)
    };
    let (ratio, off, on) = paired_median_ratio(rounds, trial, || {
        let rec = dbpl_obs::timeline::Recorder::start(RecorderConfig::default());
        let reads = trial();
        drop(rec.stop());
        reads
    });
    RecorderOverhead {
        off,
        on,
        ratio,
        torn: torn.into_inner(),
    }
}

/// The same commits made one at a time through `commit_multi` and by
/// concurrent sessions of one engine, on a `SimVfs` with
/// `fsync_delay_us` of latency per fsync.
#[derive(Debug, Clone, Copy)]
pub struct GroupCommit {
    /// Concurrent sessions in the grouped run.
    pub sessions: usize,
    /// Commits each session makes.
    pub commits_per_session: usize,
    /// Injected fsync latency.
    pub fsync_delay_us: u64,
    /// Serial commits per second.
    pub serial_cps: f64,
    /// Grouped commits per second.
    pub grouped_cps: f64,
    /// fsyncs per serial commit.
    pub serial_fpc: f64,
    /// fsyncs per grouped commit.
    pub grouped_fpc: f64,
}

impl GroupCommit {
    /// Grouped over serial throughput.
    pub fn speedup(&self) -> f64 {
        self.grouped_cps / self.serial_cps.max(1e-9)
    }
}

/// Measure [`GroupCommit`]. Every commit writes one of 4 hot handles.
/// Serial commits each pay the full write-ahead protocol; grouped
/// frames coalesce into batches that each pay one log record and one
/// fsync for their merged handles.
pub fn group_commit(
    sessions: usize,
    commits_per_session: usize,
    fsync_delay_us: u64,
) -> GroupCommit {
    const HOT: usize = 4;
    let total = sessions * commits_per_session;
    let fsyncs = || dbpl_obs::global().counter("vfs.fsyncs").get();
    let sim = || {
        Arc::new(CountingVfs::new(SimVfs::with_plan(FaultPlan {
            fsync_delay_us: Some(fsync_delay_us),
            ..FaultPlan::default()
        })))
    };

    let store = ReplicatingStore::open_with(sim(), "/mvcc-serial").unwrap();
    let heap = Heap::new();
    let before = fsyncs();
    let start = Instant::now();
    for c in 0..total {
        let d = DynValue::new(Type::Int, Value::Int(c as i64));
        let bytes = ReplicatingStore::encode_unit(&d, &heap).unwrap();
        let externs = BTreeMap::from([(format!("h{}", c % HOT), Some(bytes))]);
        commit_multi(None, &store, &externs, &RetryPolicy::default()).unwrap();
    }
    let serial_secs = start.elapsed().as_secs_f64();
    let serial_fsyncs = fsyncs() - before;

    let server = Server::open_with(sim(), "/mvcc-grouped").unwrap();
    let before = fsyncs();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for s in 0..sessions {
            let server = &server;
            scope.spawn(move || {
                let mut session = server.session();
                for j in 0..commits_per_session {
                    let c = s * commits_per_session + j;
                    session
                        .run(&format!("extern('h{}', dynamic {c})", c % HOT))
                        .unwrap();
                }
            });
        }
    });
    let grouped_secs = start.elapsed().as_secs_f64();
    let grouped_fsyncs = fsyncs() - before;
    GroupCommit {
        sessions,
        commits_per_session,
        fsync_delay_us,
        serial_cps: total as f64 / serial_secs.max(1e-9),
        grouped_cps: total as f64 / grouped_secs.max(1e-9),
        serial_fpc: serial_fsyncs as f64 / total as f64,
        grouped_fpc: grouped_fsyncs as f64 / total as f64,
    }
}

/// A burst of commit attempts at about 4x what the engine drains.
#[derive(Debug)]
pub struct Overload {
    /// Sessions offering load.
    pub sessions: usize,
    /// Attempts each session makes.
    pub attempts_per_session: usize,
    /// The engine's bounded commit queue.
    pub queue_depth: usize,
    /// Injected fsync latency and its jitter.
    pub fsync_delay_us: u64,
    /// Half the delay.
    pub fsync_jitter_us: u64,
    /// Latencies of applied commits, µs, ascending.
    pub applied_us: Vec<f64>,
    /// Latencies of commits refused as `Overloaded`, µs, ascending.
    pub rejected_us: Vec<f64>,
    /// Attempts that ended neither applied nor cleanly refused.
    pub starved: u64,
    /// How far `server.overload_rejected` moved.
    pub shed_count: u64,
    /// How far the group-commit panic counters moved.
    pub panics: u64,
    /// The engine's health after the burst.
    pub health: Health,
    /// The flight record of the burst.
    pub timeline: Timeline,
}

/// The `q` quantile of ascending `xs` by nearest rank (0 when empty).
fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs[((xs.len() - 1) as f64 * q).round() as usize]
}

impl Overload {
    /// Attempts made.
    pub fn offered(&self) -> u64 {
        (self.sessions * self.attempts_per_session) as u64
    }

    /// The `q` quantile of applied-commit latency, µs.
    pub fn applied_quantile(&self, q: f64) -> f64 {
        quantile(&self.applied_us, q)
    }

    /// The `q` quantile of refused-commit latency, µs.
    pub fn rejected_quantile(&self, q: f64) -> f64 {
        quantile(&self.rejected_us, q)
    }
}

/// Measure [`Overload`]: `sessions` sessions (labeled `load-<s>`) each
/// make `attempts_per_session` commits against an engine whose queue
/// holds 2 frames, on a `SimVfs` with `fsync_delay_us` ± half of it per
/// fsync. A refused session waits a quarter of the delay and offers
/// again, so the engine sees several times what it drains and must
/// shed. No deadline is set, so admission is fail-fast: a full queue
/// refuses at once with nothing staged.
///
/// The whole burst runs under a 20ms flight recorder with one SLO,
/// `server.queue_wait_us p99 < 1ms over 200ms`, which never re-arms
/// (`clear_after: u32::MAX`), so it fires at most once and names the
/// busiest label as its offender.
pub fn overload(sessions: usize, attempts_per_session: usize, fsync_delay_us: u64) -> Overload {
    let fsync_jitter_us = fsync_delay_us / 2;
    // The queue is far smaller than the session count, so whenever the
    // engine is mid-batch the backlog of blocked sessions (one frame
    // each) exceeds capacity several times over.
    let queue_depth = 2usize;
    let cfg = ServerConfig {
        queue_depth,
        max_inflight_frames: queue_depth + dbpl_lang::MAX_BATCH,
        max_sessions: sessions + 1,
    };
    let vfs = SimVfs::with_plan(FaultPlan {
        seed: 0xB0A7,
        fsync_delay_us: Some(fsync_delay_us),
        fsync_jitter_us: Some(fsync_jitter_us),
        ..FaultPlan::default()
    });
    let server = Server::open_with_config(Arc::new(vfs), "/overload", cfg).unwrap();
    let slo = Slo {
        clear_after: u32::MAX,
        ..Slo::parse("server.queue_wait_us p99 < 1ms over 200ms").expect("SLO grammar")
    };
    server.start_recorder(RecorderConfig {
        interval: Duration::from_millis(20),
        capacity: 512,
        slos: vec![slo],
    });

    let ctr = |name: &str| dbpl_obs::global().counter(name).get();
    let panic_count = || ctr("applier.panic") + ctr("applier.frame_panic");
    let rejected_before = ctr("server.overload_rejected");
    let panics_before = panic_count();
    let reject_pace = Duration::from_micros(fsync_delay_us / 4);
    let (mut applied_us, mut rejected_us, mut starved) = (Vec::new(), Vec::new(), 0u64);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..sessions)
            .map(|s| {
                let server = &server;
                scope.spawn(move || {
                    let mut session = server.session();
                    session.set_label(&format!("load-{s}"));
                    let (mut applied, mut rejected, mut starved) = (Vec::new(), Vec::new(), 0u64);
                    for a in 0..attempts_per_session {
                        let src = format!("extern('h{}', dynamic {a})", (s * 7 + a) % 4);
                        let start = Instant::now();
                        let out = session.run(&src);
                        let us = start.elapsed().as_secs_f64() * 1e6;
                        match out {
                            Ok(_) => applied.push(us),
                            Err(e) if e.is_overloaded() => {
                                rejected.push(us);
                                std::thread::sleep(reject_pace);
                            }
                            Err(_) => starved += 1,
                        }
                    }
                    (applied, rejected, starved)
                })
            })
            .collect();
        for w in workers {
            let (a, r, o) = w.join().expect("overload worker panicked");
            applied_us.extend(a);
            rejected_us.extend(r);
            starved += o;
        }
    });
    let timeline = server.stop_recorder().expect("recorder was started");
    applied_us.sort_by(f64::total_cmp);
    rejected_us.sort_by(f64::total_cmp);
    let out = Overload {
        sessions,
        attempts_per_session,
        queue_depth,
        fsync_delay_us,
        fsync_jitter_us,
        applied_us,
        rejected_us,
        starved,
        shed_count: ctr("server.overload_rejected") - rejected_before,
        panics: panic_count() - panics_before,
        health: server.health(),
        timeline,
    };
    server.shutdown();
    out
}

/// A mixed window of `Get`s and joins and what the query log and the
/// metrics registry made of it.
pub struct Workload {
    /// The database the window read.
    pub db: dbpl_core::Database,
    /// The window's query records, read from its own spans.
    pub records: Vec<QueryRecord>,
    /// The top 10 fingerprints.
    pub top: Vec<FingerprintAgg>,
    /// The registry's change over the window.
    pub delta: StatsSnapshot,
}

/// Run the window over `populated_db(db_rows, 7)`: five scans and three
/// typed-list reads of `Employee`, one read of `Person`, and a nested
/// and a partitioned join of two `join_rows`-row keyed relations. The
/// window runs under its own trace capture, so its records are exactly
/// its queries.
pub fn workload(db_rows: usize, join_rows: usize) -> Workload {
    let db = populated_db(db_rows, 7);
    let bound = Type::named("Employee");
    let before = dbpl_obs::global().snapshot();
    let ((), spans) = dbpl_obs::trace::capture("workload_window", || {
        for _ in 0..5 {
            db.get_by_scan(&bound);
        }
        for _ in 0..3 {
            db.get(&bound);
        }
        db.get(&Type::named("Person"));
        let j1 = keyed_gen_relation(join_rows, "L", 1);
        let j2 = keyed_gen_relation(join_rows, "R", 2);
        for s in [JoinStrategy::Nested, JoinStrategy::Partitioned] {
            j1.natural_join_strategy(&j2, Reduction::Maximal, s);
        }
    });
    let delta = dbpl_obs::global().snapshot().delta_since(&before);
    let records = queries(&spans);
    let top = top_k(&records, 10);
    Workload {
        db,
        records,
        top,
        delta,
    }
}

impl Workload {
    /// The `dbpl.workload.v1` JSONL artifact: a header, per-carried-type
    /// extent statistics, the raw query records, the top-K heavy
    /// hitters, and the `get.strategy.*` counter deltas over the window.
    pub fn to_jsonl(&self) -> String {
        let mut lines = vec![format!(
            "{{\"schema\":\"dbpl.workload.v1\",\"top_k\":{}}}",
            self.top.len()
        )];
        for ty in self.db.stats_catalog().keys() {
            lines.push(extent_json(&ty.to_string(), &self.db.extent_stats(ty)));
        }
        lines.extend(self.records.iter().map(query_json));
        lines.extend(self.top.iter().enumerate().map(|(i, a)| top_json(i + 1, a)));
        let counters: Vec<String> = ["get.strategy.scan", "get.strategy.typed_lists"]
            .iter()
            .map(|name| format!("\"{name}\":{}", self.delta.counter(name)))
            .collect();
        lines.push(format!("{{\"trace_counters\":{{{}}}}}", counters.join(",")));
        lines.join("\n") + "\n"
    }
}

/// A Chrome trace of one small run of the fast paths, a transaction and
/// an extern↔intern round trip, taken with `dbpl_obs::trace::capture`
/// (so no other thread's spans and no ring eviction touch it), exported
/// with the registry's `span.*` counter tracks.
pub fn trace_artifact() -> String {
    let ((), spans) = dbpl_obs::trace::capture("trace_artifact", || {
        get_cost(200, 1);
        join_cost(32, 1);
        txn_commit_cost(2, 1);
        let dir = TempDir::new("bench-trace").expect("temp dir");
        let store = ReplicatingStore::open(dir.path()).unwrap();
        let d = DynValue::new(Type::Int, Value::Int(0));
        store.extern_value("u0", &d, &Heap::new()).unwrap();
        store.intern("u0", &mut Heap::new()).unwrap();
    });
    dbpl_obs::trace::export_chrome_with_counters(&spans, &dbpl_obs::global().snapshot())
}
