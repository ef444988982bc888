//! Named relaxed-atomic counters, gauges, and fixed-bucket latency
//! histograms.
//!
//! # The delta rule
//!
//! [`StatsSnapshot::delta_since`] treats the three metric kinds
//! differently, and every consumer (the `report` bench phases, the
//! [`crate::timeline`] flight recorder, tests measuring per-run
//! activity) relies on the distinction:
//!
//! * **Counters** are monotone totals: the delta is the subtraction
//!   `self - earlier`, clamped at zero.
//! * **Histograms** are diffed bucket-wise (and count/sum-wise), also
//!   clamped — a histogram delta is the observations of the interval.
//! * **Gauges** are instantaneous levels (queue depth, live snapshots,
//!   open sessions). Subtracting two levels yields a meaningless
//!   number, so the "delta" carries `self`'s current level unchanged:
//!   a gauge answers "where is it now", never "how much did it move".

use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A monotonically increasing event counter. All operations use relaxed
/// ordering: counters are statistics, not synchronization — concurrent
/// increments are lossless but establish no happens-before edges.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Reset to zero (used by benchmarks and tests that measure deltas).
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// An instantaneous level — queue depth, live snapshots, open sessions.
/// Unlike a [`Counter`] it moves both ways; like one, it is pure relaxed
/// atomics and establishes no ordering.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtract one.
    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Add `n` (which may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrite the level.
    #[inline]
    pub fn set(&self, n: i64) {
        self.value.store(n, Ordering::Relaxed);
    }

    /// Current level.
    #[inline]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Upper bounds (inclusive, in microseconds) of the histogram buckets;
/// one extra overflow bucket catches everything above the last bound.
pub const BUCKET_BOUNDS_US: [u64; 12] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 1_024, 8_192, 65_536];

/// A fixed-bucket latency histogram over [`BUCKET_BOUNDS_US`], with a
/// running count and sum. Like [`Counter`], purely relaxed atomics.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKET_BOUNDS_US.len() + 1],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: Default::default(),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation of `us` microseconds.
    pub fn record_us(&self, us: u64) {
        let idx = BUCKET_BOUNDS_US
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(BUCKET_BOUNDS_US.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations, in microseconds.
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count(),
            sum_us: self.sum_us(),
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_us.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of one histogram's state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts; the last entry is the overflow
    /// bucket above the final [`BUCKET_BOUNDS_US`] bound.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observations in microseconds.
    pub sum_us: u64,
}

impl HistogramSnapshot {
    /// Mean observation in microseconds, `0` when empty. Exact up to
    /// integer division — derived from the recorded sum, not from the
    /// bucket midpoints — so it stays meaningful on `delta_since`
    /// windows too (windowed sum over windowed count).
    pub fn mean_us(&self) -> u64 {
        self.sum_us.checked_div(self.count).unwrap_or(0)
    }
}

/// A registry of named counters and histograms. Handles are `Arc`s:
/// look a metric up once (hot paths cache the handle in a `OnceLock`)
/// and increment it forever after without touching the registry lock.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// A fresh, empty registry (tests; production uses [`global()`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.counters.read().get(name) {
            return Arc::clone(c);
        }
        Arc::clone(self.counters.write().entry(name.to_string()).or_default())
    }

    /// The gauge named `name`, created at zero on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(g) = self.gauges.read().get(name) {
            return Arc::clone(g);
        }
        Arc::clone(self.gauges.write().entry(name.to_string()).or_default())
    }

    /// The histogram named `name`, created empty on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.histograms.read().get(name) {
            return Arc::clone(h);
        }
        Arc::clone(self.histograms.write().entry(name.to_string()).or_default())
    }

    /// A point-in-time snapshot of every registered metric.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            counters: self
                .counters
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }

    /// Zero every metric **in place** — cached `Arc` handles stay valid,
    /// so this is safe to call between benchmark phases.
    pub fn reset(&self) {
        for c in self.counters.read().values() {
            c.reset();
        }
        for g in self.gauges.read().values() {
            g.set(0);
        }
        for h in self.histograms.read().values() {
            h.reset();
        }
    }
}

/// A serializable point-in-time copy of a [`MetricsRegistry`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by name (instantaneous, not monotone).
    pub gauges: BTreeMap<String, i64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl StatsSnapshot {
    /// The value of counter `name` in this snapshot (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The level of gauge `name` in this snapshot (0 if absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// The state of histogram `name` in this snapshot, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// The difference `self - earlier` as another snapshot: per-counter
    /// values clamped at zero, histograms diffed bucket-wise. Gauges are
    /// instantaneous levels, not monotone totals, so the "delta" carries
    /// `self`'s current levels unchanged. Only names present in `self`
    /// are reported.
    pub fn delta_since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), v.saturating_sub(earlier.counter(k))))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| {
                let old = earlier.histograms.get(k);
                let buckets = h
                    .buckets
                    .iter()
                    .enumerate()
                    .map(|(i, &b)| {
                        b.saturating_sub(old.and_then(|o| o.buckets.get(i)).copied().unwrap_or(0))
                    })
                    .collect();
                let diffed = HistogramSnapshot {
                    buckets,
                    count: h.count.saturating_sub(old.map_or(0, |o| o.count)),
                    sum_us: h.sum_us.saturating_sub(old.map_or(0, |o| o.sum_us)),
                };
                (k.clone(), diffed)
            })
            .collect();
        StatsSnapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms,
        }
    }

    /// Render as a single-line JSON object:
    /// `{"counters":{...},"histograms":{"name":{"count":n,"sum_us":n,"buckets":[...]}},"gauges":{...}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", crate::json_escape(k), v));
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"sum_us\":{},\"buckets\":[{}]}}",
                crate::json_escape(k),
                h.count,
                h.sum_us,
                h.buckets
                    .iter()
                    .map(|b| b.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            ));
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", crate::json_escape(k), v));
        }
        out.push_str("}}");
        out
    }
}

/// The process-wide registry every dbpl crate reports into.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn registry_interns_by_name() {
        let r = MetricsRegistry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        assert_eq!(b.get(), 1, "same name returns the same counter");
        assert_eq!(r.counter("y").get(), 0);
    }

    #[test]
    fn gauge_moves_both_ways_and_snapshots() {
        let r = MetricsRegistry::new();
        let g = r.gauge("depth");
        g.inc();
        g.add(4);
        g.dec();
        assert_eq!(g.get(), 4);
        g.add(-10);
        assert_eq!(g.get(), -6, "gauges may go negative");
        g.set(2);
        let snap = r.snapshot();
        assert_eq!(snap.gauge("depth"), 2);
        assert_eq!(snap.gauge("absent"), 0);
        // Deltas carry the instantaneous level, not a difference.
        let later = r.snapshot();
        assert_eq!(later.delta_since(&snap).gauge("depth"), 2);
        assert!(later.to_json().contains("\"gauges\":{\"depth\":2}"));
        r.reset();
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn regression_gauge_delta_is_last_value_not_subtraction() {
        // The delta rule (module docs): counters subtract, gauges carry
        // the instantaneous level. A subtracted gauge would report 2-5
        // = -3 here and poison every timeline sample.
        let r = MetricsRegistry::new();
        r.gauge("depth").set(5);
        r.counter("hits").add(5);
        let before = r.snapshot();
        r.gauge("depth").set(2);
        r.counter("hits").add(2);
        let d = r.snapshot().delta_since(&before);
        assert_eq!(d.gauge("depth"), 2, "gauge delta is the current level");
        assert_eq!(d.counter("hits"), 2, "counter delta is the subtraction");
        // A gauge that fell below its earlier level must not clamp or
        // wrap either.
        r.gauge("depth").set(-4);
        assert_eq!(r.snapshot().delta_since(&before).gauge("depth"), -4);
    }

    #[test]
    fn histogram_buckets_and_sum() {
        let h = Histogram::new();
        h.record_us(0); // bucket 0 (<=1)
        h.record_us(1); // bucket 0
        h.record_us(3); // bucket 2 (<=4)
        h.record_us(1_000_000); // overflow
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum_us, 1_000_004);
        assert_eq!(s.buckets[0], 2);
        assert_eq!(s.buckets[2], 1);
        assert_eq!(*s.buckets.last().unwrap(), 1);
        assert_eq!(s.buckets.len(), BUCKET_BOUNDS_US.len() + 1);
    }

    #[test]
    fn concurrent_increments_are_lossless() {
        // The parallel join's shape: scoped worker threads all bumping
        // the same counter; no increment may be lost.
        let r = MetricsRegistry::new();
        let c = r.counter("par");
        const THREADS: usize = 8;
        const PER: u64 = 10_000;
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                let c = Arc::clone(&c);
                scope.spawn(move || {
                    for _ in 0..PER {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), THREADS as u64 * PER);
    }

    #[test]
    fn snapshot_delta_and_json() {
        let r = MetricsRegistry::new();
        r.counter("a").add(3);
        let before = r.snapshot();
        r.counter("a").add(2);
        r.counter("b").inc();
        r.histogram("h").record_us(7);
        let after = r.snapshot();
        let d = after.delta_since(&before);
        assert_eq!(d.counter("a"), 2);
        assert_eq!(d.counter("b"), 1);
        assert_eq!(d.histograms["h"].count, 1);
        let json = after.to_json();
        assert!(json.starts_with("{\"counters\":{\"a\":5,\"b\":1}"));
        assert!(json.contains("\"h\":{\"count\":1,\"sum_us\":7,\"buckets\":[0,0,0,1,"));
    }

    #[test]
    fn histogram_sum_follows_the_delta_rule() {
        // Like counters, a histogram's count/sum/buckets subtract in
        // delta_since — a windowed snapshot must report exactly the
        // window's observations, so windowed means stay honest.
        let r = MetricsRegistry::new();
        let h = r.histogram("h");
        h.record_us(10);
        h.record_us(100);
        let before = r.snapshot();
        h.record_us(1_000);
        let after = r.snapshot();
        let d = after.delta_since(&before);
        let w = &d.histograms["h"];
        assert_eq!(w.count, 1);
        assert_eq!(w.sum_us, 1_000);
        assert_eq!(
            w.buckets.iter().sum::<u64>(),
            w.count,
            "bucket diffs conserve the windowed count"
        );
        assert_eq!(w.mean_us(), 1_000, "windowed mean = windowed sum/count");
        assert_eq!(after.histograms["h"].mean_us(), 370, "1110/3");
        assert_eq!(HistogramSnapshot::default().mean_us(), 0, "empty is 0");
        // The recorded sum — not a bucket-midpoint estimate — is what
        // both JSON forms carry.
        assert!(after
            .to_json()
            .contains("\"h\":{\"count\":3,\"sum_us\":1110,"));
    }

    #[test]
    fn reset_keeps_cached_handles_valid() {
        let r = MetricsRegistry::new();
        let c = r.counter("k");
        c.add(9);
        r.reset();
        assert_eq!(c.get(), 0);
        c.inc();
        assert_eq!(r.counter("k").get(), 1);
    }
}
