//! Shared pieces of the benchmark: the seeded generator, latency samples,
//! the in-memory span recorder, failure classification and the
//! per-run outcome every workload returns.

use dbpl_lang::{ErrorKind, LangError};
use dbpl_persist::Vfs;
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// SplitMix64: a small, seedable generator, so the inputs depend only on
/// `--seed` and never on the workspace's own random-number crates.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// `0..n` in seeded order (Fisher-Yates).
    pub fn shuffled(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
        v
    }
}

/// Wall time of `f` in microseconds, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64() * 1e6, out)
}

/// The fixed reference task the machine's speed is calibrated on: builds,
/// copies and pairwise compares 200 small string-keyed records. It uses
/// only the standard library, so no change to the workspace can change
/// it. It allocates and chases pointers like the workloads do, and on a
/// shared host its time tracks theirs when neighbours slow the machine
/// down. Changing it invalidates every earlier normalized figure.
pub fn reference_task() -> usize {
    let recs: Vec<BTreeMap<String, String>> = (0..200)
        .map(|i| {
            [
                ("Name", format!("n{i}")),
                ("Dept", format!("d{}", i % 17)),
                ("Addr", format!("a{}", i % 50)),
            ]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect()
        })
        .collect();
    let set: BTreeSet<_> = recs.iter().cloned().collect();
    let mut subsumed = 0;
    for a in &recs {
        for b in &recs {
            if a.iter().all(|(k, v)| b.get(k) == Some(v)) {
                subsumed += 1;
            }
        }
    }
    subsumed + set.len()
}

/// Reference-task time the normalized metrics are scaled to, in µs.
pub const REFERENCE_US: f64 = 1000.0;

/// Reference-task timings taken during the run, on every thread.
static CALIBRATION: Mutex<Vec<f64>> = Mutex::new(Vec::new());

thread_local! {
    static LAST_CALIBRATION: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Time the reference task if this thread has not done so for 50 ms.
/// Called between ops and between set-ups, never inside a timed op.
pub fn calibrate_tick() {
    let due = LAST_CALIBRATION.with(|last| {
        last.get()
            .is_none_or(|t| t.elapsed() >= Duration::from_millis(50))
    });
    if due {
        // A short-lived thread of its own allocates from its own arena, so
        // the heap state the workload leaves behind does not time the task.
        let us = std::thread::scope(|s| {
            s.spawn(|| {
                let (us, n) = timed(reference_task);
                std::hint::black_box(n);
                us
            })
            .join()
            .expect("the reference task does not panic")
        });
        CALIBRATION
            .lock()
            .expect("calibration lock is never held across a panic")
            .push(us);
        LAST_CALIBRATION.with(|last| last.set(Some(Instant::now())));
    }
}

/// Median reference-task time of the run so far, in µs, and the count.
pub fn calibration_us() -> (Option<f64>, usize) {
    let c = CALIBRATION
        .lock()
        .expect("calibration lock is never held across a panic");
    (median(&c), c.len())
}

/// Latency samples of one operation family, in milliseconds.
#[derive(Default, Clone)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push_us(&mut self, us: f64) {
        self.0.push(us / 1e3);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Linear-interpolated quantile (`q` in `[0, 1]`); `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        quantile(&self.0, q)
    }

    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    pub fn p95(&self) -> Option<f64> {
        self.quantile(0.95)
    }
}

pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Why an operation failed, from the error the public API returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FailKind {
    Overloaded,
    Conflict,
    Deadline,
    EngineDown,
    Refused,
    Other,
}

pub fn classify(e: &LangError) -> FailKind {
    match e.kind {
        ErrorKind::Overloaded => FailKind::Overloaded,
        ErrorKind::DeadlineExceeded => FailKind::Deadline,
        ErrorKind::EngineDown => FailKind::EngineDown,
        ErrorKind::General if e.msg.starts_with("commit conflict") => FailKind::Conflict,
        ErrorKind::General if e.msg.starts_with("commit refused") => FailKind::Refused,
        ErrorKind::General => FailKind::Other,
    }
}

/// One recorded span: the benchmark's own call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// In-memory span recorder. Spans nest by call order on one thread; each
/// thread of a workload owns its own recorder, and the recorders are
/// merged once the run is over. Nothing is written until the run ends.
pub struct Tracer {
    epoch: Instant,
    /// Added to op ids so the ops of different threads never share one.
    op_base: u64,
    op: u64,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant, thread: u64) -> Tracer {
        Tracer {
            epoch,
            op_base: thread << 40,
            op: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start a new operation: later spans carry its id.
    pub fn begin_op(&mut self) {
        self.op += 1;
    }

    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op_base + self.op,
        });
        self.stack.push(id);
        id
    }

    /// Close span `id` (the innermost open one); returns its duration in µs.
    pub fn exit(&mut self, id: usize) -> f64 {
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans must close innermost first");
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        (end - span.start_ns) as f64 / 1e3
    }

    /// Time `f` as a span named `name`; returns its duration in µs.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (f64, R) {
        let id = self.enter(name);
        let out = f();
        (self.exit(id), out)
    }

    /// Append another recorder's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Per span name: (count, total µs, self µs). Self time is a span's
/// duration minus the time its direct children cover; children of one
/// span run sequentially on its thread, so they never overlap.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut table: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let dur = (s.end_ns - s.start_ns) as f64 / 1e3;
        let e = table.entry(s.name).or_default();
        e.0 += 1;
        e.1 += dur;
        e.2 += dur - child_ns[i] as f64 / 1e3;
    }
    table
}

/// Spans as JSON lines (name, start, end, parent, op).
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}\n",
            s.name, s.start_ns, s.end_ns, s.op
        ));
    }
    out
}

/// Which blocks of a traced run are traced: ops alternate in blocks of
/// eight between untraced and traced, so the two halves see the same
/// store and the same machine load.
pub fn traced_block(trace: bool, op: u64) -> bool {
    trace && (op / 8) % 2 == 1
}

/// Overhead of tracing on the headline latency, in percent.
pub fn trace_overhead_pct(plain: &Samples, traced: &Samples) -> Option<f64> {
    Some((traced.p50()? / plain.p50()? - 1.0) * 100.0)
}

/// Settings of one run, from the command line.
#[derive(Debug, Clone, Copy)]
pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// A small fixed-size run used to fill per-layer metrics of layers
    /// that are off the traced workload's own path.
    pub mini: bool,
}

impl Cfg {
    pub fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }
}

/// A wrong output: the run fails, it is not counted as a slow op.
#[derive(Debug)]
pub struct Wrong(pub String);

pub type Checked<T> = Result<T, Wrong>;

pub fn wrong<T>(msg: impl Into<String>) -> Checked<T> {
    Err(Wrong(msg.into()))
}

/// A named, unit-carrying metric value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    /// Sample count behind the value (latency families), for the report.
    pub samples: Option<usize>,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failures: BTreeMap<FailKind, u64>,
    /// Every metric the run measured, by name: the benchmark-wide ones
    /// (`p50_ms`, `setup_s`, …) and the issue-level families
    /// (`read_p50_ms`, `reopen_ms`, …).
    pub metrics: BTreeMap<String, Metric>,
    /// Per-layer metrics measured on this workload's own path.
    pub layers: BTreeMap<String, Metric>,
    pub spans: Vec<Span>,
    /// Human-readable notes (flush policy, data sizes).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }

    pub fn fail(&mut self, e: &LangError) {
        *self.failures.entry(classify(e)).or_default() += 1;
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit,
                samples: None,
            },
        );
    }

    /// Record p50/p95 of a latency family under `<family>_p50_ms` and
    /// `<family>_p95_ms`.
    pub fn latency(&mut self, family: &str, s: &Samples) {
        for (q, v) in [("p50", s.p50()), ("p95", s.p95())] {
            if let Some(v) = v {
                self.metrics.insert(
                    format!("{family}_{q}_ms"),
                    Metric {
                        value: v,
                        unit: "ms",
                        samples: Some(s.len()),
                    },
                );
            }
        }
    }

    /// [`Outcome::latency`] for the workload's headline op, also
    /// published as `p50_ms` and `p95_ms`.
    pub fn headline(&mut self, family: &str, s: &Samples) {
        self.latency(family, s);
        for q in ["p50", "p95"] {
            if let Some(m) = self.metrics.get(&format!("{family}_{q}_ms")).cloned() {
                self.metrics.insert(format!("{q}_ms"), m);
            }
        }
    }

    pub fn layer(&mut self, name: &str, value: Option<f64>, unit: &'static str) {
        if let Some(value) = value.filter(|v| v.is_finite()) {
            self.layers.insert(
                name.to_string(),
                Metric {
                    value,
                    unit,
                    samples: None,
                },
            );
        }
    }
}

/// Total bytes of the files directly under each of `dirs` on `vfs`.
pub fn stored_bytes(vfs: &dyn Vfs, dirs: &[&str]) -> u64 {
    dirs.iter()
        .flat_map(|d| vfs.read_dir(Path::new(d)).unwrap_or_default())
        .map(|f| vfs.len(&f).unwrap_or(0))
        .sum()
}

/// Median wall time of `n` runs of `build`, in seconds, and the last
/// thing it built (the one the run then uses).
pub fn setup_median<T>(n: usize, mut build: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        drop(last.take());
        let start = Instant::now();
        let built = build();
        times.push(start.elapsed().as_secs_f64());
        last = Some(built);
        calibrate_tick();
    }
    (
        median(&times).expect("at least one set-up"),
        last.expect("at least one set-up"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_are_classified_by_kind() {
        assert_eq!(
            classify(&LangError::overloaded("full")),
            FailKind::Overloaded
        );
        assert_eq!(
            classify(&LangError::engine_down("gone")),
            FailKind::EngineDown
        );
        assert_eq!(
            classify(&LangError::deadline_exceeded("late")),
            FailKind::Deadline
        );
        assert_eq!(
            classify(&LangError::eval(
                0,
                "commit conflict, transaction aborted: x"
            )),
            FailKind::Conflict
        );
        assert_eq!(classify(&LangError::eval(0, "boom")), FailKind::Other);
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 1,
        };
        let spans = [
            span("op", 0, 10_000, None),
            span("a", 1_000, 4_000, Some(0)),
            span("b", 5_000, 9_000, Some(0)),
            span("c", 6_000, 7_000, Some(2)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["op"], (1, 10.0, 3.0));
        assert_eq!(t["b"], (1, 4.0, 3.0));
        assert_eq!(t["c"], (1, 1.0, 1.0));
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(median(&[]), None);
    }
}
