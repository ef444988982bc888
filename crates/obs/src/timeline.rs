//! The flight recorder: a sampled timeline of the whole metrics
//! registry, bucket-based percentile estimation, and a declarative SLO
//! engine with burn-rate alerts.
//!
//! A [`Recorder`] runs a background sampler thread that snapshots
//! [`global()`] every `interval` into a bounded drop-oldest ring. Each
//! [`TimelineSample`] carries both the cumulative registry state and
//! the per-interval delta ([`StatsSnapshot::delta_since`]), so the
//! exported timeline can answer *when* a metric went bad, not just that
//! it is bad now. On top of the ring, [`Slo`] objectives (parsed from a
//! tiny grammar, e.g. `server.queue_wait_us p99 < 5ms over 10s`) are
//! evaluated at every sample; a sustained violation emits exactly one
//! [`Event::SloViolation`] — hysteresis (`clear_after` consecutive
//! healthy evaluations before re-arming) keeps alerts from flapping,
//! the same enter/exit shape as the engine's degraded-health handling.
//!
//! Exports: [`Timeline::to_jsonl`] (schema-tagged JSONL, checked by
//! `dbpl_bench::check::check_timeline`), [`Timeline::to_chrome`] (`ph:"C"`
//! counter tracks for chrome://tracing / Perfetto, loadable next to the
//! span export), and [`Timeline::render`] (the ASCII view behind the
//! `timeline(db)` MiniDBPL builtin).

use crate::metrics::{global, HistogramSnapshot, StatsSnapshot, BUCKET_BOUNDS_US};
use crate::{emit, json_escape, Event};
use parking_lot::RwLock;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Estimate the `q`-quantile (`0 < q <= 1`) of a histogram from its
/// fixed buckets: walk the cumulative counts and report the **upper
/// bound** of the bucket containing the target rank. The estimate is
/// therefore conservative (an upper bound on the true quantile) and
/// saturates at the last finite bound for mass in the overflow bucket.
/// Returns `None` for an empty histogram.
pub fn percentile(h: &HistogramSnapshot, q: f64) -> Option<u64> {
    if h.count == 0 {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let target = ((q * h.count as f64).ceil() as u64).clamp(1, h.count);
    let mut cum = 0u64;
    for (i, &c) in h.buckets.iter().enumerate() {
        cum += c;
        if cum >= target {
            return Some(bucket_bound(i));
        }
    }
    Some(bucket_bound(BUCKET_BOUNDS_US.len()))
}

/// The upper bound reported for bucket `idx`; the overflow bucket
/// saturates to the last finite bound.
fn bucket_bound(idx: usize) -> u64 {
    BUCKET_BOUNDS_US
        .get(idx)
        .copied()
        .unwrap_or(BUCKET_BOUNDS_US[BUCKET_BOUNDS_US.len() - 1])
}

/// Whether observations in bucket `idx` are (conservatively) above
/// `threshold_us`: true when the bucket's upper bound exceeds the
/// threshold, so thresholds aligned to [`BUCKET_BOUNDS_US`] are exact
/// and unaligned ones over-count by at most one bucket.
fn bucket_exceeds(idx: usize, threshold_us: u64) -> bool {
    BUCKET_BOUNDS_US.get(idx).is_none_or(|&b| b > threshold_us)
}

fn merge_hist(into: &mut HistogramSnapshot, from: &HistogramSnapshot) {
    if into.buckets.len() < from.buckets.len() {
        into.buckets.resize(from.buckets.len(), 0);
    }
    for (i, &c) in from.buckets.iter().enumerate() {
        into.buckets[i] += c;
    }
    into.count += from.count;
    into.sum_us += from.sum_us;
}

/// A declarative service-level objective over one histogram, e.g.
/// "`server.queue_wait_us p99 < 5ms over 10s`": the `q`-quantile of the
/// metric, estimated over a trailing window of the recorder ring, must
/// stay at or below the threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct Slo {
    /// The histogram the objective watches.
    pub metric: String,
    /// The quantile, as a fraction (`0.99` for p99).
    pub quantile: f64,
    /// The objective's threshold in microseconds.
    pub threshold_us: u64,
    /// The trailing evaluation window (rounded up to whole recorder
    /// intervals, minimum one).
    pub window: Duration,
    /// Hysteresis: consecutive healthy evaluations required before a
    /// fired objective re-arms. Keeps a jittery recovery from flapping.
    pub clear_after: u32,
}

impl Slo {
    /// Parse the SLO grammar `<metric> p<q> < <duration> over
    /// <duration>`, where durations take a `us`/`ms`/`s` suffix:
    /// `server.queue_wait_us p99 < 5ms over 10s`. `clear_after`
    /// defaults to 3 and can be adjusted on the returned value.
    pub fn parse(s: &str) -> Result<Slo, String> {
        let toks: Vec<&str> = s.split_whitespace().collect();
        let [metric, q, lt, threshold, over, window] = toks[..] else {
            return Err(format!(
                "SLO `{s}`: expected `<metric> p<q> < <dur> over <dur>`"
            ));
        };
        if lt != "<" || over != "over" {
            return Err(format!("SLO `{s}`: expected `<` and `over` keywords"));
        }
        let pct: f64 = q
            .strip_prefix('p')
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| format!("SLO `{s}`: bad quantile `{q}` (want e.g. p99)"))?;
        if !(0.0..100.0).contains(&pct) || pct <= 0.0 {
            return Err(format!("SLO `{s}`: quantile `{q}` out of (0, 100)"));
        }
        Ok(Slo {
            metric: metric.to_string(),
            quantile: pct / 100.0,
            threshold_us: parse_duration_us(threshold)
                .ok_or_else(|| format!("SLO `{s}`: bad duration `{threshold}`"))?,
            window: Duration::from_micros(
                parse_duration_us(window)
                    .ok_or_else(|| format!("SLO `{s}`: bad duration `{window}`"))?,
            ),
            clear_after: 3,
        })
    }

    /// The quantile rendered as a label: `p99`, `p99.9`.
    pub fn quantile_label(&self) -> String {
        let pct = self.quantile * 100.0;
        if (pct - pct.round()).abs() < 1e-9 {
            format!("p{}", pct.round() as u64)
        } else {
            format!("p{pct}")
        }
    }
}

impl fmt::Display for Slo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} < {}us over {}ms",
            self.metric,
            self.quantile_label(),
            self.threshold_us,
            self.window.as_millis()
        )
    }
}

fn parse_duration_us(s: &str) -> Option<u64> {
    let (num, mul) = if let Some(n) = s.strip_suffix("us") {
        (n, 1)
    } else if let Some(n) = s.strip_suffix("ms") {
        (n, 1_000)
    } else if let Some(n) = s.strip_suffix('s') {
        (n, 1_000_000)
    } else {
        return None;
    };
    num.parse::<u64>().ok().map(|n| n * mul)
}

/// Per-objective engine state: fires once when the objective starts
/// failing, then stays silent until `clear_after` consecutive healthy
/// evaluations re-arm it.
#[derive(Debug)]
struct SloState {
    slo: Slo,
    firing: bool,
    healthy: u32,
}

impl SloState {
    fn new(slo: Slo) -> Self {
        SloState {
            slo,
            firing: false,
            healthy: 0,
        }
    }

    /// Evaluate one trailing window of per-interval deltas. Returns the
    /// violation event to emit iff the objective just started failing.
    fn observe(
        &mut self,
        window: &[&StatsSnapshot],
        window_start_us: u64,
        window_end_us: u64,
    ) -> Option<Event> {
        let mut merged = HistogramSnapshot {
            buckets: vec![0; BUCKET_BOUNDS_US.len() + 1],
            count: 0,
            sum_us: 0,
        };
        for s in window {
            if let Some(h) = s.histograms.get(&self.slo.metric) {
                merge_hist(&mut merged, h);
            }
        }
        let observed = percentile(&merged, self.slo.quantile);
        let violating = observed.is_some_and(|o| o > self.slo.threshold_us);
        if !violating {
            // An empty window counts as healthy: no observations means
            // no burn.
            if self.firing {
                self.healthy += 1;
                if self.healthy >= self.slo.clear_after {
                    self.firing = false;
                    self.healthy = 0;
                }
            }
            return None;
        }
        self.healthy = 0;
        if self.firing {
            return None;
        }
        self.firing = true;
        let bad: u64 = merged
            .buckets
            .iter()
            .enumerate()
            .filter(|(i, _)| bucket_exceeds(*i, self.slo.threshold_us))
            .map(|(_, &c)| c)
            .sum();
        // Burn rate: the share of window observations over threshold,
        // relative to the error budget 1 - q. 100 = burning the budget
        // exactly; 1000 = 10x over.
        let bad_fraction = bad as f64 / merged.count.max(1) as f64;
        let budget = (1.0 - self.slo.quantile).max(1e-9);
        Some(Event::SloViolation {
            metric: self.slo.metric.clone(),
            quantile: self.slo.quantile_label(),
            observed_us: observed.unwrap_or(0),
            threshold_us: self.slo.threshold_us,
            burn_rate_pct: ((bad_fraction / budget) * 100.0).round() as u64,
            window_start_us,
            window_end_us,
            offender: attribute_offender(window),
        })
    }
}

/// The session label with the most attributed commit attempts
/// (`server.session.<label>.commits` delta) in the window; ties break
/// to the lexicographically first label, `""` when no labeled session
/// was active. This is how a violation answers "who saturated the
/// queue".
fn attribute_offender(window: &[&StatsSnapshot]) -> String {
    let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
    for s in window {
        for (k, &v) in &s.counters {
            if v == 0 {
                continue;
            }
            if let Some(label) = k
                .strip_prefix("server.session.")
                .and_then(|r| r.strip_suffix(".commits"))
            {
                *totals.entry(label).or_default() += v;
            }
        }
    }
    totals
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(a.0)))
        .map(|(label, _)| label.to_string())
        .unwrap_or_default()
}

/// One entry of the recorder ring: the registry as of `t_us`
/// microseconds after the recorder started, plus the change since the
/// previous sample.
#[derive(Debug, Clone)]
pub struct TimelineSample {
    /// Monotone sample ordinal (survives ring eviction: the first
    /// retained sample may have `seq > 0`).
    pub seq: u64,
    /// Microseconds since the recorder started (monotonic clock).
    pub t_us: u64,
    /// The cumulative registry state at this sample.
    pub total: StatsSnapshot,
    /// Change since the previous sample (for the first sample, since
    /// recorder start). Counters and histogram buckets are true deltas;
    /// gauges carry the instantaneous level (see
    /// [`StatsSnapshot::delta_since`]).
    pub delta: StatsSnapshot,
}

/// A fired SLO violation, pinned to the sample that triggered it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The `seq` of the sample whose evaluation fired.
    pub at_seq: u64,
    /// The emitted [`Event::SloViolation`].
    pub event: Event,
}

/// The drained contents of a recorder: everything still in the ring
/// plus every violation fired over the recorder's lifetime.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// The configured sampling interval, in microseconds.
    pub interval_us: u64,
    /// Samples evicted by the drop-oldest ring before the drain.
    pub dropped: u64,
    /// Retained samples, oldest first, `seq` consecutive.
    pub samples: Vec<TimelineSample>,
    /// Fired SLO violations, oldest first (never evicted).
    pub violations: Vec<Violation>,
}

impl Timeline {
    /// Render as schema-tagged JSONL (no trailing newline): a header
    /// line, one line per sample, then one line per violation.
    ///
    /// ```text
    /// {"schema":"dbpl.timeline.v1","interval_us":N,"dropped":N,"bounds_us":[...]}
    /// {"seq":N,"t_us":N,"counters":{<nonzero deltas>},"total":{<cumulative counters>},
    ///  "gauges":{<levels>},"histograms":{"name":{"count":N,"sum_us":N,"p50_us":N,"p95_us":N,"p99_us":N}}}
    /// {"at_seq":N,"violation":{"event":"slo_violation",...}}
    /// ```
    ///
    /// Sample lines carry only nonzero counter deltas and only
    /// histograms with window observations; `total` always carries
    /// every counter, so consecutive lines conserve sums
    /// (`total[i][c] - total[i-1][c] == counters[i][c]`) — the
    /// invariant `dbpl_bench::check::check_timeline` verifies. Histogram percentiles are
    /// estimated over that sample's window delta.
    pub fn to_jsonl(&self) -> String {
        let mut lines = vec![format!(
            "{{\"schema\":\"dbpl.timeline.v1\",\"interval_us\":{},\"dropped\":{},\"bounds_us\":[{}]}}",
            self.interval_us,
            self.dropped,
            BUCKET_BOUNDS_US
                .iter()
                .map(|b| b.to_string())
                .collect::<Vec<_>>()
                .join(",")
        )];
        for s in &self.samples {
            lines.push(sample_jsonl(s));
        }
        for v in &self.violations {
            lines.push(format!(
                "{{\"at_seq\":{},\"violation\":{}}}",
                v.at_seq,
                v.event.to_jsonl()
            ));
        }
        lines.join("\n")
    }

    /// Render as a Chrome-trace JSON array: `ph:"M"` metadata naming
    /// the process and recorder track, then `ph:"C"` counter events —
    /// one track per counter (per-interval delta), gauge (level), and
    /// active histogram (windowed p99) — loadable in chrome://tracing
    /// or Perfetto alongside the span export.
    pub fn to_chrome(&self) -> String {
        // Metadata first, so Perfetto labels the process and the
        // recorder's counter track instead of showing bare ids.
        let mut parts = vec![
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"dbpl\"}}"
                .to_string(),
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"dbpl-recorder\"}}"
                .to_string(),
        ];
        let mut track = |name: &str, ts: u64, value: i64| {
            parts.push(format!(
                "{{\"name\":\"{}\",\"ph\":\"C\",\"ts\":{ts},\"pid\":1,\"tid\":0,\"args\":{{\"value\":{value}}}}}",
                json_escape(name)
            ));
        };
        for s in &self.samples {
            for (k, &v) in &s.delta.counters {
                if v > 0 {
                    track(k, s.t_us, v as i64);
                }
            }
            for (k, &v) in &s.delta.gauges {
                track(k, s.t_us, v);
            }
            for (k, h) in &s.delta.histograms {
                if let Some(p99) = percentile(h, 0.99) {
                    track(&format!("{k}.p99_us"), s.t_us, p99 as i64);
                }
            }
        }
        format!("[{}]", parts.join(",\n"))
    }

    /// A compact ASCII rendering of the most recent `max` samples (the
    /// view behind the `timeline(db)` builtin).
    pub fn render(&self, max: usize) -> String {
        let skip = self.samples.len().saturating_sub(max);
        let mut out = render_samples(&self.samples[skip..], self.interval_us, self.dropped);
        for v in &self.violations {
            out.push_str(&format!(
                "\nslo violation @#{}: {}",
                v.at_seq,
                v.event.to_jsonl()
            ));
        }
        out
    }
}

fn sample_jsonl(s: &TimelineSample) -> String {
    let mut out = format!("{{\"seq\":{},\"t_us\":{},\"counters\":{{", s.seq, s.t_us);
    let mut first = true;
    for (k, &v) in &s.delta.counters {
        if v == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\"{}\":{v}", json_escape(k)));
    }
    out.push_str("},\"total\":{");
    for (i, (k, v)) in s.total.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{v}", json_escape(k)));
    }
    out.push_str("},\"gauges\":{");
    for (i, (k, v)) in s.delta.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{v}", json_escape(k)));
    }
    out.push_str("},\"histograms\":{");
    let mut first = true;
    for (k, h) in &s.delta.histograms {
        if h.count == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\"{}\":{{\"count\":{},\"sum_us\":{},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{}}}",
            json_escape(k),
            h.count,
            h.sum_us,
            percentile(h, 0.50).unwrap_or(0),
            percentile(h, 0.95).unwrap_or(0),
            percentile(h, 0.99).unwrap_or(0),
        ));
    }
    out.push_str("}}");
    out
}

fn render_samples(samples: &[TimelineSample], interval_us: u64, dropped: u64) -> String {
    let mut out = format!(
        "timeline: {} sample{} @ {}ms interval ({dropped} dropped)",
        samples.len(),
        if samples.len() == 1 { "" } else { "s" },
        interval_us / 1_000,
    );
    for s in samples {
        out.push_str(&format!("\n#{} t={}ms", s.seq, s.t_us / 1_000));
        let mut counters: Vec<(&String, u64)> = s
            .delta
            .counters
            .iter()
            .filter(|(_, &v)| v > 0)
            .map(|(k, &v)| (k, v))
            .collect();
        counters.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        for (k, v) in counters.iter().take(4) {
            out.push_str(&format!(" {k}=+{v}"));
        }
        for (k, &v) in s.delta.gauges.iter().filter(|(_, &v)| v != 0) {
            out.push_str(&format!(" {k}={v}"));
        }
        for (k, h) in s
            .delta
            .histograms
            .iter()
            .filter(|(_, h)| h.count > 0)
            .take(3)
        {
            out.push_str(&format!(
                " {k} p50/p95/p99={}/{}/{}us (n={})",
                percentile(h, 0.50).unwrap_or(0),
                percentile(h, 0.95).unwrap_or(0),
                percentile(h, 0.99).unwrap_or(0),
                h.count
            ));
        }
    }
    out
}

/// Configuration for a [`Recorder`].
#[derive(Debug, Clone)]
pub struct RecorderConfig {
    /// Sampling interval. Each tick costs one registry snapshot, so at
    /// the default 100ms the recorder is far below noise on the commit
    /// path (the `dbpl-bench` timing test
    /// `recorder_costs_at_most_2_percent_of_reads` gates this at ≤2%).
    pub interval: Duration,
    /// Ring capacity in samples; the oldest sample is dropped when
    /// full. 600 × 100ms = one minute of history by default.
    pub capacity: usize,
    /// Objectives evaluated at every sample.
    pub slos: Vec<Slo>,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            interval: Duration::from_millis(100),
            capacity: 600,
            slos: Vec::new(),
        }
    }
}

/// The most recently started recorder, weakly held so the `timeline`
/// builtin can render the live ring without keeping it alive.
static ACTIVE: RwLock<Option<Weak<RecorderInner>>> = RwLock::new(None);

struct RecorderInner {
    interval: Duration,
    capacity: usize,
    ring: Mutex<RingState>,
    stop_flag: Mutex<bool>,
    stop_cv: Condvar,
}

struct RingState {
    seq: u64,
    dropped: u64,
    /// The previous cumulative snapshot, the base for the next delta.
    base: StatsSnapshot,
    samples: VecDeque<TimelineSample>,
    slos: Vec<SloState>,
    violations: Vec<Violation>,
}

impl RecorderInner {
    /// Sleep one interval, waking early on stop. Returns `true` when
    /// stop was requested (the caller takes one final drain sample).
    fn wait_interval(&self) -> bool {
        let deadline = Instant::now() + self.interval;
        let mut stopped = self.stop_flag.lock().unwrap();
        while !*stopped {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self.stop_cv.wait_timeout(stopped, deadline - now).unwrap();
            stopped = guard;
        }
        true
    }

    fn take_sample(&self, started: Instant) {
        let total = global().snapshot();
        let t_us = started.elapsed().as_micros() as u64;
        let mut ring = self.ring.lock().unwrap();
        let delta = total.delta_since(&ring.base);
        ring.base = total.clone();
        let seq = ring.seq;
        ring.seq += 1;
        if ring.samples.len() >= self.capacity {
            ring.samples.pop_front();
            ring.dropped += 1;
        }
        ring.samples.push_back(TimelineSample {
            seq,
            t_us,
            total,
            delta,
        });
        let interval_us = (self.interval.as_micros() as u64).max(1);
        let RingState {
            samples,
            slos,
            violations,
            ..
        } = &mut *ring;
        for state in slos.iter_mut() {
            let n = (state.slo.window.as_micros() as u64)
                .div_ceil(interval_us)
                .max(1)
                .min(samples.len() as u64) as usize;
            let win: Vec<&StatsSnapshot> = samples
                .iter()
                .skip(samples.len() - n)
                .map(|s| &s.delta)
                .collect();
            let start_us = samples[samples.len() - n].t_us;
            if let Some(event) = state.observe(&win, start_us, t_us) {
                violations.push(Violation {
                    at_seq: seq,
                    event: event.clone(),
                });
                emit(event);
            }
        }
    }
}

/// A running flight recorder. Stop it with [`Recorder::stop`] to drain
/// the ring into a [`Timeline`]; dropping it also shuts the sampler
/// thread down cleanly (discarding the drained timeline).
pub struct Recorder {
    inner: Arc<RecorderInner>,
    thread: Option<JoinHandle<()>>,
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recorder")
            .field("interval", &self.inner.interval)
            .field("capacity", &self.inner.capacity)
            .finish()
    }
}

impl Recorder {
    /// Start sampling [`global()`] on a background thread. The first
    /// delta is measured against the registry state at this call.
    pub fn start(cfg: RecorderConfig) -> Recorder {
        let inner = Arc::new(RecorderInner {
            interval: cfg.interval.max(Duration::from_micros(100)),
            capacity: cfg.capacity.max(2),
            ring: Mutex::new(RingState {
                seq: 0,
                dropped: 0,
                base: global().snapshot(),
                samples: VecDeque::new(),
                slos: cfg.slos.into_iter().map(SloState::new).collect(),
                violations: Vec::new(),
            }),
            stop_flag: Mutex::new(false),
            stop_cv: Condvar::new(),
        });
        *ACTIVE.write() = Some(Arc::downgrade(&inner));
        let sampler = Arc::clone(&inner);
        let thread = std::thread::Builder::new()
            .name("dbpl-recorder".into())
            .spawn(move || {
                let started = Instant::now();
                loop {
                    let stopping = sampler.wait_interval();
                    sampler.take_sample(started);
                    if stopping {
                        break;
                    }
                }
            })
            .expect("spawn recorder thread");
        Recorder {
            inner,
            thread: Some(thread),
        }
    }

    /// A copy of the samples currently in the ring, oldest first.
    pub fn samples(&self) -> Vec<TimelineSample> {
        self.inner
            .ring
            .lock()
            .unwrap()
            .samples
            .iter()
            .cloned()
            .collect()
    }

    /// Stop the sampler (it takes one final drain sample first), join
    /// the thread, and return the drained timeline.
    pub fn stop(mut self) -> Timeline {
        self.shutdown();
        let ring = self.inner.ring.lock().unwrap();
        Timeline {
            interval_us: self.inner.interval.as_micros() as u64,
            dropped: ring.dropped,
            samples: ring.samples.iter().cloned().collect(),
            violations: ring.violations.clone(),
        }
    }

    fn shutdown(&mut self) {
        let Some(handle) = self.thread.take() else {
            return;
        };
        *self.inner.stop_flag.lock().unwrap() = true;
        self.inner.stop_cv.notify_all();
        let _ = handle.join();
        let mut active = ACTIVE.write();
        if active
            .as_ref()
            .and_then(Weak::upgrade)
            .is_some_and(|a| Arc::ptr_eq(&a, &self.inner))
        {
            *active = None;
        }
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Render the most recent `max` samples of the most recently started,
/// still-live recorder (the `timeline(db)` builtin); `None` when no
/// recorder is active.
pub fn render_active(max: usize) -> Option<String> {
    let inner = ACTIVE.read().as_ref().and_then(Weak::upgrade)?;
    let ring = inner.ring.lock().unwrap();
    let skip = ring.samples.len().saturating_sub(max);
    let samples: Vec<TimelineSample> = ring.samples.iter().skip(skip).cloned().collect();
    let dropped = ring.dropped;
    let violations = ring.violations.len();
    drop(ring);
    let mut out = render_samples(&samples, inner.interval.as_micros() as u64, dropped);
    if violations > 0 {
        out.push_str(&format!("\nslo violations fired: {violations}"));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist_of(values: &[u64]) -> HistogramSnapshot {
        let h = crate::Histogram::new();
        for &v in values {
            h.record_us(v);
        }
        h.snapshot()
    }

    fn snap_with(metric: &str, values: &[u64]) -> StatsSnapshot {
        let mut s = StatsSnapshot::default();
        s.histograms.insert(metric.to_string(), hist_of(values));
        s
    }

    // -- satellite: percentile estimation at bucket boundaries --------

    #[test]
    fn percentile_empty_histogram_is_none() {
        let h = hist_of(&[]);
        assert_eq!(percentile(&h, 0.5), None);
        assert_eq!(percentile(&h, 0.99), None);
    }

    #[test]
    fn percentile_exact_boundary_values_report_their_own_bound() {
        // 256 is an inclusive bucket bound; anything in (128, 256]
        // reports 256.
        let h = hist_of(&[256]);
        assert_eq!(percentile(&h, 0.5), Some(256));
        let h = hist_of(&[129]);
        assert_eq!(percentile(&h, 0.5), Some(256));
        let h = hist_of(&[1]);
        assert_eq!(percentile(&h, 0.5), Some(1), "lowest bound is inclusive");
        let h = hist_of(&[0]);
        assert_eq!(
            percentile(&h, 0.5),
            Some(1),
            "zero lands in the first bucket"
        );
    }

    #[test]
    fn percentile_single_bucket_mass_pins_every_quantile() {
        let h = hist_of(&[7; 1000]);
        for q in [0.01, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(percentile(&h, q), Some(8), "q={q}");
        }
    }

    #[test]
    fn percentile_saturates_at_the_top_bucket() {
        // Overflow mass reports the last finite bound, never a fabricated
        // larger number.
        let h = hist_of(&[1_000_000; 10]);
        assert_eq!(percentile(&h, 0.99), Some(65_536));
        assert_eq!(percentile(&h, 0.5), Some(65_536));
    }

    #[test]
    fn percentile_walks_cumulative_ranks() {
        // 99 fast + 1 catastrophically slow: p50 and p99 stay at the fast
        // bound, only the tail past rank 99 sees the overflow.
        let mut values = vec![1u64; 99];
        values.push(1_000_000);
        let h = hist_of(&values);
        assert_eq!(percentile(&h, 0.5), Some(1));
        assert_eq!(percentile(&h, 0.99), Some(1));
        assert_eq!(percentile(&h, 1.0), Some(65_536));
    }

    // -- SLO grammar and engine ---------------------------------------

    #[test]
    fn slo_grammar_round_trips() {
        let slo = Slo::parse("server.queue_wait_us p99 < 5ms over 10s").unwrap();
        assert_eq!(slo.metric, "server.queue_wait_us");
        assert!((slo.quantile - 0.99).abs() < 1e-12);
        assert_eq!(slo.threshold_us, 5_000);
        assert_eq!(slo.window, Duration::from_secs(10));
        assert_eq!(slo.clear_after, 3);
        assert_eq!(
            slo.to_string(),
            "server.queue_wait_us p99 < 5000us over 10000ms"
        );
        assert_eq!(
            Slo::parse("m p50 < 100us over 250ms").unwrap().threshold_us,
            100
        );
        for bad in [
            "",
            "m p99 < 5ms",
            "m q99 < 5ms over 10s",
            "m p99 > 5ms over 10s",
            "m p0 < 5ms over 10s",
            "m p99 < 5parsecs over 10s",
        ] {
            assert!(Slo::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn slo_fires_once_and_rearms_after_hysteresis() {
        let mut slo = Slo::parse("m p99 < 256us over 100ms").unwrap();
        slo.clear_after = 2;
        let mut state = SloState::new(slo);
        let quiet = snap_with("m", &[10; 50]);
        let loud = snap_with("m", &[5_000; 50]);
        let observe = |state: &mut SloState, s: &StatsSnapshot| state.observe(&[s], 0, 100);
        assert!(observe(&mut state, &quiet).is_none(), "healthy window");
        let fired = observe(&mut state, &loud).expect("first bad window fires");
        match &fired {
            Event::SloViolation {
                observed_us,
                threshold_us,
                burn_rate_pct,
                ..
            } => {
                assert_eq!(*observed_us, 8_192);
                assert_eq!(*threshold_us, 256);
                // Every observation blew the budget: 1.0 / 0.01 = 100x.
                assert_eq!(*burn_rate_pct, 10_000);
            }
            other => panic!("unexpected event {other:?}"),
        }
        assert!(
            observe(&mut state, &loud).is_none(),
            "sustained violation stays quiet"
        );
        assert!(
            observe(&mut state, &quiet).is_none(),
            "1 healthy < clear_after"
        );
        assert!(
            observe(&mut state, &loud).is_none(),
            "flap inside hysteresis does not re-fire"
        );
        assert!(observe(&mut state, &quiet).is_none());
        assert!(observe(&mut state, &quiet).is_none(), "2nd healthy re-arms");
        assert!(
            observe(&mut state, &loud).is_some(),
            "a genuinely new violation fires again"
        );
    }

    #[test]
    fn slo_offender_is_busiest_labeled_session() {
        let mut a = snap_with("m", &[5_000; 10]);
        a.counters.insert("server.session.alice.commits".into(), 3);
        a.counters.insert("server.session.bob.commits".into(), 9);
        a.counters.insert("server.session.bob.reads".into(), 500);
        let mut b = StatsSnapshot::default();
        b.counters.insert("server.session.alice.commits".into(), 4);
        assert_eq!(attribute_offender(&[&a, &b]), "bob");
        assert_eq!(attribute_offender(&[&b]), "alice");
        assert_eq!(attribute_offender(&[&snap_with("m", &[1])]), "");
    }

    // -- recorder end-to-end ------------------------------------------

    #[test]
    fn recorder_samples_conserve_sums_and_evict_oldest() {
        let ctr = global().counter("timeline.test.recorder");
        let rec = Recorder::start(RecorderConfig {
            interval: Duration::from_millis(2),
            capacity: 4,
            slos: Vec::new(),
        });
        // Keep feeding the counter until the ring has demonstrably
        // evicted (first retained seq > 0) — robust to a starved
        // sampler thread under parallel test load.
        let deadline = Instant::now() + Duration::from_secs(30);
        while rec.samples().first().is_none_or(|s| s.seq == 0) {
            assert!(Instant::now() < deadline, "ring never filled");
            ctr.add(3);
            std::thread::sleep(Duration::from_millis(3));
        }
        let timeline = rec.stop();
        assert!(timeline.samples.len() >= 2, "sampler ran");
        assert!(timeline.samples.len() <= 4, "ring bounded");
        assert!(timeline.dropped > 0, "oldest samples evicted");
        for pair in timeline.samples.windows(2) {
            assert_eq!(pair[1].seq, pair[0].seq + 1, "seq consecutive");
            assert!(pair[1].t_us >= pair[0].t_us, "timestamps monotone");
            // Conservation: the delta is exactly the difference of the
            // cumulative totals, for every counter.
            for (k, &total) in &pair[1].total.counters {
                let prev = pair[0].total.counter(k);
                assert_eq!(
                    pair[1].delta.counter(k),
                    total.saturating_sub(prev),
                    "counter {k} conserved"
                );
            }
        }
        let seen: u64 = timeline
            .samples
            .iter()
            .map(|s| s.delta.counter("timeline.test.recorder"))
            .sum();
        assert!(seen > 0, "our counter shows up in retained deltas");
    }

    #[test]
    fn recorder_exports_parse_and_render() {
        let ctr = global().counter("timeline.test.export");
        let hist = global().histogram("timeline.test.export_us");
        let rec = Recorder::start(RecorderConfig {
            interval: Duration::from_millis(2),
            capacity: 64,
            slos: vec![Slo::parse("timeline.test.export_us p99 < 65ms over 10ms").unwrap()],
        });
        for _ in 0..6 {
            ctr.inc();
            hist.record_us(12);
            std::thread::sleep(Duration::from_millis(3));
        }
        let timeline = rec.stop();
        let jsonl = timeline.to_jsonl();
        let mut lines = jsonl.lines();
        let header = crate::json::parse(lines.next().unwrap()).unwrap();
        assert_eq!(
            header.get("schema").and_then(|s| s.as_str()),
            Some("dbpl.timeline.v1")
        );
        assert_eq!(
            header.get("interval_us").and_then(|n| n.as_u64()),
            Some(2_000)
        );
        assert_eq!(
            header
                .get("bounds_us")
                .and_then(|a| a.as_array())
                .map(|a| a.len()),
            Some(BUCKET_BOUNDS_US.len())
        );
        for line in lines {
            let v = crate::json::parse(line).unwrap();
            assert!(
                v.get("seq").is_some() || v.get("violation").is_some(),
                "line is a sample or a violation: {line}"
            );
        }
        let chrome = crate::json::parse(&timeline.to_chrome()).unwrap();
        let events = chrome.as_array().expect("chrome export is an array");
        // Leading ph:"M" metadata names the process and recorder track;
        // everything after is a counter sample.
        assert_eq!(
            events[0].get("name").and_then(|n| n.as_str()),
            Some("process_name")
        );
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(|n| n.as_str()),
            Some("dbpl-recorder")
        );
        let counters = &events[2..];
        assert!(!counters.is_empty());
        assert!(counters.iter().all(|e| {
            e.get("ph").and_then(|p| p.as_str()) == Some("C") && e.get("ts").is_some()
        }));
        let rendered = timeline.render(5);
        assert!(rendered.starts_with("timeline: "));
        assert!(rendered.contains("t="));
    }

    #[test]
    fn active_recorder_renders_and_clears_on_drop() {
        // ACTIVE is process-global; other tests may have a recorder up,
        // so only assert our own lifecycle transitions.
        let rec = Recorder::start(RecorderConfig {
            interval: Duration::from_millis(2),
            capacity: 8,
            slos: Vec::new(),
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while rec.samples().len() < 2 {
            assert!(Instant::now() < deadline, "sampler produced no samples");
            std::thread::sleep(Duration::from_millis(2));
        }
        let live = render_active(3).expect("a recorder is active");
        assert!(live.starts_with("timeline: "));
        drop(rec);
    }

    #[test]
    fn timeline_jsonl_sample_schema_is_stable() {
        let mut total = StatsSnapshot::default();
        total.counters.insert("a".into(), 5);
        total.counters.insert("b".into(), 0);
        let mut delta = StatsSnapshot::default();
        delta.counters.insert("a".into(), 2);
        delta.counters.insert("b".into(), 0);
        delta.gauges.insert("g".into(), -1);
        delta.histograms.insert("h".into(), hist_of(&[7, 7]));
        delta.histograms.insert("empty".into(), hist_of(&[]));
        let timeline = Timeline {
            interval_us: 1_000,
            dropped: 0,
            samples: vec![TimelineSample {
                seq: 3,
                t_us: 4_000,
                total,
                delta,
            }],
            violations: Vec::new(),
        };
        let line = timeline.to_jsonl().lines().nth(1).unwrap().to_string();
        assert_eq!(
            line,
            "{\"seq\":3,\"t_us\":4000,\"counters\":{\"a\":2},\"total\":{\"a\":5,\"b\":0},\
             \"gauges\":{\"g\":-1},\"histograms\":{\"h\":{\"count\":2,\"sum_us\":14,\
             \"p50_us\":8,\"p95_us\":8,\"p99_us\":8}}}"
        );
    }
}
