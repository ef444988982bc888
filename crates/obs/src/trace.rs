//! Hierarchical trace trees: thread-local span context, a bounded ring
//! of completed spans, and the exporters built on it.
//!
//! Every [`span!`](crate::span!) site participates: while tracing is
//! active (at least one of [`enable`], [`capture`], or a slow-op
//! threshold), each guard allocates a `span_id`, inherits the
//! thread-local parent, and pushes a [`SpanRecord`] into the global
//! [`TraceBuffer`] ring when it drops — so the flat histogram samples of
//! the metrics layer compose into causal trees. While tracing is
//! *inactive*, the same sites cost one cached-histogram record and
//! **zero allocations** (asserted by `tests/span_alloc.rs`).
//!
//! Three consumers sit on the buffer:
//!
//! * [`capture`] — run a closure under a fresh root span and return its
//!   whole subtree, collected apart from the ring so no [`clear`] or
//!   eviction can lose part of it (the `explainAnalyze` builtins and
//!   `Session::run_profiled` render it with [`render_tree`]);
//! * the slow-op log — [`set_slow_threshold_us`] makes every *root*
//!   span that exceeds the threshold emit an
//!   [`Event::SlowOp`](crate::Event::SlowOp) carrying its subtree;
//! * [`export_chrome`] — render spans as Chrome
//!   `chrome://tracing` / Perfetto JSON for flamegraph viewing.
//!
//! Cross-thread composition: scoped workers (the parallel join's
//! products) capture [`current`] in the parent thread and [`adopt`] it
//! inside the spawned closure, so their spans carry the parent's
//! `trace_id`/`parent_id` and the exported tree stays connected.

use parking_lot::Mutex;
use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Ring capacity used by [`capture`] and the slow-op log when tracing is
/// not already enabled with an explicit capacity.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// One completed span, as stored in the [`TraceBuffer`] ring.
///
/// `trace_id` is the `span_id` of the tree's root, so one equality test
/// groups a whole tree; `parent_id` is `None` exactly at the root.
/// Times are microseconds since an arbitrary process-wide epoch, taken
/// from one monotonic clock — a child's `[start_us, start_us + dur_us]`
/// interval always nests within its parent's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The root span's id — shared by every span of one tree.
    pub trace_id: u64,
    /// This span's process-unique id.
    pub span_id: u64,
    /// The enclosing span's id (`None` at the root).
    pub parent_id: Option<u64>,
    /// The `span!` site name (also names the `span.<name>` histogram).
    pub name: &'static str,
    /// Start, in microseconds since the process trace epoch.
    pub start_us: u64,
    /// Duration in microseconds (saturating).
    pub dur_us: u64,
    /// A small per-thread integer (stable within the process).
    pub tid: u64,
    /// Attributes attached via `SpanGuard::set_attr` (rows, strategy,
    /// bytes, …), in attachment order.
    pub attrs: Vec<(&'static str, String)>,
}

impl SpanRecord {
    /// Render as one JSON object (the wire form used inside
    /// [`Event::SlowOp`](crate::Event::SlowOp) lines): `parent_id` is
    /// `null` at the root, attrs become a string-valued object.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"name\":\"{}\",\"trace_id\":{},\"span_id\":{},\"parent_id\":{},\"start_us\":{},\"dur_us\":{},\"tid\":{},\"attrs\":{{",
            crate::json_escape(self.name),
            self.trace_id,
            self.span_id,
            self.parent_id
                .map_or("null".to_string(), |p| p.to_string()),
            self.start_us,
            self.dur_us,
            self.tid,
        );
        for (i, (k, v)) in self.attrs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":\"{}\"",
                crate::json_escape(k),
                crate::json_escape(v)
            ));
        }
        out.push_str("}}");
        out
    }
}

/// The (trace, span) pair a worker thread adopts to attach its spans
/// under a parent from another thread. Capture with [`current`] in the
/// parent, [`adopt`] in the worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The tree's root span id.
    pub trace_id: u64,
    /// The span the adopting thread's spans become children of.
    pub span_id: u64,
}

// ---------------------------------------------------------------------------
// thread-local context + id allocation
// ---------------------------------------------------------------------------

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The innermost open traced span on this thread: (trace_id, span_id).
    static CURRENT: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
    /// Small stable per-thread id for trace export. Allocation also
    /// registers the OS thread's name, so exporters can label tracks.
    static TID: u64 = {
        let t = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        let name = std::thread::current()
            .name()
            .map_or_else(|| format!("thread-{t}"), str::to_string);
        thread_name_registry().lock().insert(t, name);
        t
    };
}

fn tid() -> u64 {
    TID.with(|t| *t)
}

fn thread_name_registry() -> &'static Mutex<std::collections::BTreeMap<u64, String>> {
    static NAMES: OnceLock<Mutex<std::collections::BTreeMap<u64, String>>> = OnceLock::new();
    NAMES.get_or_init(|| Mutex::new(std::collections::BTreeMap::new()))
}

/// The name registered for an exported `tid`, if that thread has traced
/// anything yet. Named threads (the `dbpl-recorder` sampler, scoped
/// workers) report their OS name; anonymous ones get `thread-<tid>`.
pub fn thread_name(tid: u64) -> Option<String> {
    thread_name_registry().lock().get(&tid).cloned()
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn saturating_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

fn now_us() -> u64 {
    saturating_us(epoch().elapsed())
}

/// The current thread's innermost traced span, if any — capture this
/// *before* `std::thread::scope` and [`adopt`] it inside each worker.
pub fn current() -> Option<TraceContext> {
    CURRENT
        .with(|c| c.get())
        .map(|(trace_id, span_id)| TraceContext { trace_id, span_id })
}

/// Install `ctx` as this thread's span context until the returned guard
/// drops (restoring whatever was there before). `adopt(None)` detaches:
/// spans opened under it start fresh traces — [`capture`] uses this so a
/// profile nested inside a traced run gets its own tree.
pub fn adopt(ctx: Option<TraceContext>) -> ContextGuard {
    let prev = CURRENT.with(|c| c.replace(ctx.map(|x| (x.trace_id, x.span_id))));
    ContextGuard { prev }
}

/// Restores the previous thread-local context on drop; see [`adopt`].
#[derive(Debug)]
pub struct ContextGuard {
    prev: Option<(u64, u64)>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

// ---------------------------------------------------------------------------
// the ring buffer
// ---------------------------------------------------------------------------

/// The bounded in-memory ring of completed spans. One process-global
/// instance sits behind [`enable`]/[`buffered`]/[`take_trace`]; the
/// struct itself is public so its drop-oldest behaviour is unit-testable
/// in isolation.
#[derive(Debug)]
pub struct TraceBuffer {
    spans: VecDeque<SpanRecord>,
    capacity: usize,
    dropped: u64,
}

impl TraceBuffer {
    /// An empty buffer holding at most `capacity` spans.
    pub fn new(capacity: usize) -> TraceBuffer {
        TraceBuffer {
            spans: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Append one completed span, evicting the *oldest* first when full.
    pub fn push(&mut self, span: SpanRecord) {
        while self.spans.len() >= self.capacity {
            self.spans.pop_front();
            self.dropped += 1;
        }
        self.spans.push_back(span);
    }

    /// Change the capacity, evicting oldest-first down to the new bound.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
        while self.spans.len() > self.capacity {
            self.spans.pop_front();
            self.dropped += 1;
        }
    }

    /// Buffered spans, oldest first (completion order).
    pub fn spans(&self) -> impl Iterator<Item = &SpanRecord> {
        self.spans.iter()
    }

    /// Number of buffered spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the buffer holds no spans.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// How many spans have been evicted since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

static ACTIVE: AtomicU64 = AtomicU64::new(0);
static SLOW_US: AtomicU64 = AtomicU64::new(u64::MAX);

fn ring() -> &'static Mutex<TraceBuffer> {
    static RING: OnceLock<Mutex<TraceBuffer>> = OnceLock::new();
    RING.get_or_init(|| Mutex::new(TraceBuffer::new(DEFAULT_TRACE_CAPACITY)))
}

/// Number of open [`capture`]s; while zero, closing a span never touches
/// the capture table.
static CAPTURING: AtomicU64 = AtomicU64::new(0);

/// The open captures: trace id → the spans of that trace completed so
/// far. A captured trace's spans are collected here instead of in the
/// shared ring, so neither [`clear`] nor ring eviction can lose them.
fn captures() -> &'static Mutex<BTreeMap<u64, Vec<SpanRecord>>> {
    static CAPTURES: OnceLock<Mutex<BTreeMap<u64, Vec<SpanRecord>>>> = OnceLock::new();
    CAPTURES.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Whether span sites currently record trace trees (cheap relaxed load —
/// this is the only cost tracing adds to an instrumented path when off).
#[inline]
pub fn is_active() -> bool {
    ACTIVE.load(Ordering::Relaxed) > 0
}

/// Start recording completed spans into the global ring (at most
/// `capacity` retained, oldest evicted first). Activation is
/// reference-counted: pair every `enable` with a [`disable`]. Buffered
/// spans survive `disable` — export first, then [`clear`] when done.
pub fn enable(capacity: usize) {
    ring().lock().set_capacity(capacity);
    ACTIVE.fetch_add(1, Ordering::Relaxed);
}

/// Drop one [`enable`] reference; recording stops at zero.
pub fn disable() {
    let _ = ACTIVE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1));
}

/// Snapshot every buffered span, oldest first.
pub fn buffered() -> Vec<SpanRecord> {
    ring().lock().spans().cloned().collect()
}

/// Remove and return the spans of one trace, sorted by
/// `(start_us, span_id)` — parents before children. Spans of other
/// traces stay buffered.
pub fn take_trace(trace_id: u64) -> Vec<SpanRecord> {
    let mut r = ring().lock();
    let mut taken = Vec::new();
    r.spans.retain(|s| {
        if s.trace_id == trace_id {
            taken.push(s.clone());
            false
        } else {
            true
        }
    });
    drop(r);
    taken.sort_by_key(|s| (s.start_us, s.span_id));
    taken
}

/// Discard every buffered span.
pub fn clear() {
    ring().lock().spans.clear();
}

/// Set (or with `None`, clear) the slow-op threshold: while set, every
/// *root* span whose duration reaches the threshold emits an
/// [`Event::SlowOp`](crate::Event::SlowOp) carrying the root's whole
/// buffered subtree. Setting a threshold keeps tracing active
/// (reference-counted like [`enable`]), so the subtree is actually
/// there. Process-global, like the registry and the sink.
pub fn set_slow_threshold_us(threshold: Option<u64>) {
    let new = threshold.unwrap_or(u64::MAX);
    let old = SLOW_US.swap(new, Ordering::Relaxed);
    if old == u64::MAX && new != u64::MAX {
        enable(DEFAULT_TRACE_CAPACITY);
    } else if old != u64::MAX && new == u64::MAX {
        disable();
    }
}

// ---------------------------------------------------------------------------
// span-site integration (used by SpanGuard)
// ---------------------------------------------------------------------------

/// The traced half of an open `SpanGuard`, created only while tracing is
/// active.
#[derive(Debug)]
pub(crate) struct TraceSlot {
    trace_id: u64,
    span_id: u64,
    parent_id: Option<u64>,
    name: &'static str,
    start_us: u64,
    prev: Option<(u64, u64)>,
    pub(crate) attrs: Vec<(&'static str, String)>,
}

/// Open a traced span: allocate an id, inherit the thread-local parent,
/// and become the thread's innermost span. Returns `None` (and touches
/// nothing) while tracing is inactive.
pub(crate) fn open_slot(name: &'static str) -> Option<TraceSlot> {
    if !is_active() {
        return None;
    }
    let span_id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = CURRENT.with(|c| c.get());
    let (trace_id, parent_id) = match parent {
        Some((trace, span)) => (trace, Some(span)),
        None => (span_id, None),
    };
    CURRENT.with(|c| c.set(Some((trace_id, span_id))));
    Some(TraceSlot {
        trace_id,
        span_id,
        parent_id,
        name,
        start_us: now_us(),
        prev: parent,
        attrs: Vec::new(),
    })
}

/// Close a traced span: restore the thread-local parent, push the
/// completed record, and fire the slow-op check on roots.
pub(crate) fn close_slot(slot: TraceSlot) {
    CURRENT.with(|c| c.set(slot.prev));
    let record = SpanRecord {
        trace_id: slot.trace_id,
        span_id: slot.span_id,
        parent_id: slot.parent_id,
        name: slot.name,
        start_us: slot.start_us,
        dur_us: now_us().saturating_sub(slot.start_us),
        tid: tid(),
        attrs: slot.attrs,
    };
    let is_root = record.parent_id.is_none();
    let slow = is_root && record.dur_us >= SLOW_US.load(Ordering::Relaxed);
    // A captured trace collects into its capture; any other goes to the
    // ring. Either way a slow root takes its whole subtree along.
    let captured = if CAPTURING.load(Ordering::Relaxed) > 0 {
        captures().lock().get_mut(&record.trace_id).map(|own| {
            own.push(record.clone());
            slow.then(|| own.clone())
        })
    } else {
        None
    };
    let subtree = captured.unwrap_or_else(|| {
        let mut r = ring().lock();
        r.push(record.clone());
        slow.then(|| {
            r.spans()
                .filter(|s| s.trace_id == record.trace_id)
                .cloned()
                .collect()
        })
    });
    if let Some(mut spans) = subtree {
        spans.sort_by_key(|s| (s.start_us, s.span_id));
        // Emitted outside the ring lock: sinks may be arbitrarily slow.
        crate::emit(crate::Event::SlowOp {
            name: record.name.to_string(),
            dur_us: record.dur_us,
            spans,
        });
    }
}

// ---------------------------------------------------------------------------
// capture
// ---------------------------------------------------------------------------

/// Run `f` under a fresh root span named `name` and return its result
/// together with the completed trace (root included), sorted parents
/// before children. Tracing is enabled for the duration (and left in
/// whatever state it was). The trace's spans — from any thread that
/// adopted its context — are collected apart from the shared ring, so
/// concurrent captures don't see each other's trees, and a [`clear`] or
/// ring eviction meanwhile loses none of them. The root is detached from
/// any enclosing span on this thread — a capture nested inside a traced
/// `run` still yields exactly its own tree.
pub fn capture<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, Vec<SpanRecord>) {
    enable(DEFAULT_TRACE_CAPACITY);
    let _detach = adopt(None);
    let slot = open_slot(name).expect("tracing just enabled");
    let trace_id = slot.trace_id;
    captures().lock().insert(trace_id, Vec::new());
    CAPTURING.fetch_add(1, Ordering::Relaxed);
    let r = f();
    close_slot(slot);
    CAPTURING.fetch_sub(1, Ordering::Relaxed);
    disable();
    let mut spans = captures().lock().remove(&trace_id).unwrap_or_default();
    spans.sort_by_key(|s| (s.start_us, s.span_id));
    (r, spans)
}

// ---------------------------------------------------------------------------
// exporters
// ---------------------------------------------------------------------------

/// Render spans as a Chrome trace-event JSON array (`chrome://tracing`,
/// Perfetto): metadata events (`"ph":"M"`) naming the process and every
/// participating thread track, then one complete event (`"ph":"X"`) per
/// span with `ts`/`dur` in microseconds, `pid` fixed at 1, `tid` the
/// span's thread, and the span/trace ids plus every attribute under
/// `args`.
pub fn export_chrome(spans: &[SpanRecord]) -> String {
    let mut out = String::from("[");
    let mut first = true;
    push_metadata_events(spans, &mut out, &mut first);
    push_span_events(spans, &mut out, &mut first);
    out.push_str("\n]\n");
    out
}

/// Like [`export_chrome`], but the span events are followed by Chrome
/// counter events (`"ph":"C"`): one per `span.<name>` histogram in
/// `stats`, carrying the site's total observation count and summed
/// duration. Perfetto draws these as counter tracks alongside the
/// timeline, so a trace file alone shows both *this* capture's spans and
/// the process-lifetime totals per instrumented site.
pub fn export_chrome_with_counters(spans: &[SpanRecord], stats: &crate::StatsSnapshot) -> String {
    let mut out = String::from("[");
    let mut first = true;
    push_metadata_events(spans, &mut out, &mut first);
    push_span_events(spans, &mut out, &mut first);
    // Counters are point samples; stamp them at the end of the captured
    // window so they sit after the spans on the timeline.
    let ts = spans
        .iter()
        .map(|s| s.start_us + s.dur_us)
        .max()
        .unwrap_or(0);
    for (name, h) in &stats.histograms {
        if !name.starts_with("span.") {
            continue;
        }
        push_event(
            &mut out,
            &mut first,
            &format!(
                "{{\"name\":\"{}\",\"cat\":\"dbpl\",\"ph\":\"C\",\"ts\":{ts},\"pid\":1,\"args\":{{\"count\":{},\"sum_us\":{}}}}}",
                crate::json_escape(name),
                h.count,
                h.sum_us,
            ),
        );
    }
    out.push_str("\n]\n");
    out
}

/// Append one comma-separated event line to an in-progress JSON array.
fn push_event(out: &mut String, first: &mut bool, event: &str) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push_str("\n  ");
    out.push_str(event);
}

/// Append Chrome metadata events (`"ph":"M"`): one `process_name` for
/// the fixed pid, then one `thread_name` per distinct `tid` in `spans`,
/// so Perfetto labels the recorder/session/worker tracks with their OS
/// thread names instead of bare integers.
fn push_metadata_events(spans: &[SpanRecord], out: &mut String, first: &mut bool) {
    push_event(
        out,
        first,
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"dbpl\"}}",
    );
    let tids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.tid).collect();
    for t in tids {
        let name = thread_name(t).unwrap_or_else(|| format!("thread-{t}"));
        push_event(
            out,
            first,
            &format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{t},\"args\":{{\"name\":\"{}\"}}}}",
                crate::json_escape(&name)
            ),
        );
    }
}

/// Append the `"ph":"X"` complete events for `spans` (no enclosing
/// brackets) — shared by both Chrome exporters.
fn push_span_events(spans: &[SpanRecord], out: &mut String, first: &mut bool) {
    for s in spans {
        let mut ev = format!(
            "{{\"name\":\"{}\",\"cat\":\"dbpl\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{\"trace_id\":{},\"span_id\":{},\"parent_id\":{}",
            crate::json_escape(s.name),
            s.start_us,
            s.dur_us,
            s.tid,
            s.trace_id,
            s.span_id,
            s.parent_id.map_or("null".to_string(), |p| p.to_string()),
        );
        for (k, v) in &s.attrs {
            ev.push_str(&format!(
                ",\"{}\":\"{}\"",
                crate::json_escape(k),
                crate::json_escape(v)
            ));
        }
        ev.push_str("}}");
        push_event(out, first, &ev);
    }
}

/// Render spans as an indented EXPLAIN-ANALYZE-style tree: one line per
/// span — name, duration, attributes — children indented under their
/// parent, ordered by start time. Spans whose parent is absent from the
/// slice are printed as roots, so a truncated ring still renders.
pub fn render_tree(spans: &[SpanRecord]) -> String {
    use std::collections::{BTreeMap, BTreeSet};
    let ids: BTreeSet<u64> = spans.iter().map(|s| s.span_id).collect();
    let mut children: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    let mut roots: Vec<&SpanRecord> = Vec::new();
    for s in spans {
        match s.parent_id {
            Some(p) if ids.contains(&p) => children.entry(p).or_default().push(s),
            _ => roots.push(s),
        }
    }
    let by_start =
        |a: &&SpanRecord, b: &&SpanRecord| (a.start_us, a.span_id).cmp(&(b.start_us, b.span_id));
    roots.sort_by(by_start);
    for v in children.values_mut() {
        v.sort_by(by_start);
    }
    fn line(s: &SpanRecord, depth: usize, out: &mut String) {
        out.push_str(&"  ".repeat(depth));
        out.push_str(s.name);
        out.push_str(&format!(" dur_us={}", s.dur_us));
        for (k, v) in &s.attrs {
            out.push_str(&format!(" {k}={v}"));
        }
        out.push('\n');
    }
    fn walk(
        s: &SpanRecord,
        depth: usize,
        children: &std::collections::BTreeMap<u64, Vec<&SpanRecord>>,
        out: &mut String,
    ) {
        line(s, depth, out);
        if let Some(kids) = children.get(&s.span_id) {
            for k in kids {
                walk(k, depth + 1, children, out);
            }
        }
    }
    let mut out = String::new();
    for r in &roots {
        walk(r, 0, &children, &mut out);
    }
    out
}

#[cfg(test)]
pub(crate) static TRACE_TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(trace: u64, span: u64, parent: Option<u64>, name: &'static str) -> SpanRecord {
        SpanRecord {
            trace_id: trace,
            span_id: span,
            parent_id: parent,
            name,
            start_us: span * 10,
            dur_us: 5,
            tid: 0,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn trace_buffer_drops_oldest_first_at_capacity() {
        let mut b = TraceBuffer::new(4);
        for i in 0..10 {
            b.push(rec(1, i, None, "s"));
        }
        assert_eq!(b.len(), 4);
        assert_eq!(b.dropped(), 6);
        let kept: Vec<u64> = b.spans().map(|s| s.span_id).collect();
        assert_eq!(kept, vec![6, 7, 8, 9], "oldest evicted first");
        // Shrinking also evicts oldest-first, never panics.
        b.set_capacity(2);
        let kept: Vec<u64> = b.spans().map(|s| s.span_id).collect();
        assert_eq!(kept, vec![8, 9]);
        assert_eq!(b.dropped(), 8);
    }

    #[test]
    fn capture_returns_a_connected_tree() {
        let _guard = TRACE_TEST_LOCK.lock();
        let ((), spans) = capture("root", || {
            let _a = crate::span!("child.a");
            {
                let _b = crate::span!("child.b");
            }
        });
        // child.a encloses child.b (guards drop in reverse order), so the
        // tree is root -> child.a -> child.b.
        assert_eq!(spans.len(), 3);
        let root = &spans[0];
        assert_eq!(root.name, "root");
        assert_eq!(root.parent_id, None);
        assert_eq!(root.span_id, root.trace_id);
        let a = spans.iter().find(|s| s.name == "child.a").unwrap();
        let b = spans.iter().find(|s| s.name == "child.b").unwrap();
        assert_eq!(a.parent_id, Some(root.span_id));
        assert_eq!(b.parent_id, Some(a.span_id));
        for s in &spans {
            assert_eq!(s.trace_id, root.trace_id);
            // Interval nesting: child within parent.
            if let Some(p) = s.parent_id {
                let parent = spans.iter().find(|x| x.span_id == p).unwrap();
                assert!(s.start_us >= parent.start_us);
                assert!(s.start_us + s.dur_us <= parent.start_us + parent.dur_us);
            }
        }
    }

    #[test]
    fn capture_keeps_its_spans_through_clear_and_eviction() {
        let _guard = TRACE_TEST_LOCK.lock();
        let ((), spans) = capture("kept", || {
            {
                let _early = crate::span!("early");
            }
            // Another user of the shared ring wipes it, then floods it
            // past capacity from an unrelated trace.
            clear();
            enable(4);
            {
                let _detach = adopt(None);
                for _ in 0..16 {
                    let _noise = crate::span!("noise");
                }
            }
            disable();
            let _late = crate::span!("late");
        });
        enable(DEFAULT_TRACE_CAPACITY);
        disable();
        clear();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["kept", "early", "late"]);
    }

    #[test]
    fn capture_detaches_from_an_enclosing_trace() {
        let _guard = TRACE_TEST_LOCK.lock();
        enable(DEFAULT_TRACE_CAPACITY);
        let outer = crate::span!("outer.run");
        let ((), spans) = capture("inner", || {
            let _s = crate::span!("inner.child");
        });
        drop(outer);
        disable();
        assert_eq!(spans.len(), 2, "only the capture's own tree");
        assert!(spans.iter().all(|s| s.trace_id == spans[0].trace_id));
        assert!(spans.iter().any(|s| s.name == "inner.child"));
        clear();
    }

    #[test]
    fn adopt_carries_context_across_threads() {
        let _guard = TRACE_TEST_LOCK.lock();
        let ((), spans) = capture("par.root", || {
            let ctx = current();
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(move || {
                        let _cx = adopt(ctx);
                        let _w = crate::span!("par.worker");
                    });
                }
            });
        });
        let root = spans.iter().find(|s| s.name == "par.root").unwrap();
        let workers: Vec<_> = spans.iter().filter(|s| s.name == "par.worker").collect();
        assert_eq!(workers.len(), 2);
        for w in workers {
            assert_eq!(w.trace_id, root.trace_id);
            assert_eq!(w.parent_id, Some(root.span_id));
        }
    }

    #[test]
    fn slow_threshold_emits_slow_op_with_subtree() {
        let _guard = TRACE_TEST_LOCK.lock();
        let sink = std::sync::Arc::new(crate::MemorySink::new());
        crate::set_sink(sink.clone());
        set_slow_threshold_us(Some(0)); // every root is "slow"
        {
            let _root = crate::span!("slowtest.root");
            let _child = crate::span!("slowtest.child");
        }
        set_slow_threshold_us(None);
        crate::clear_sink();
        let slow: Vec<_> = sink
            .events()
            .into_iter()
            .filter_map(|e| match e {
                crate::Event::SlowOp { name, spans, .. } if name == "slowtest.root" => Some(spans),
                _ => None,
            })
            .collect();
        assert_eq!(slow.len(), 1);
        let spans = &slow[0];
        assert!(spans.iter().any(|s| s.name == "slowtest.root"));
        assert!(spans.iter().any(|s| s.name == "slowtest.child"));
        clear();
    }

    #[test]
    fn chrome_export_shape_is_valid_json() {
        let spans = vec![
            SpanRecord {
                trace_id: 1,
                span_id: 1,
                parent_id: None,
                name: "root",
                start_us: 0,
                dur_us: 100,
                tid: 0,
                attrs: vec![("strategy", "typed_lists".to_string())],
            },
            SpanRecord {
                trace_id: 1,
                span_id: 2,
                parent_id: Some(1),
                name: "child \"q\"",
                start_us: 10,
                dur_us: 20,
                tid: 0,
                attrs: Vec::new(),
            },
        ];
        let text = export_chrome(&spans);
        let json = crate::json::parse(&text).expect("chrome export parses as JSON");
        let arr = json.as_array().expect("top level is an array");
        let xs: Vec<_> = arr
            .iter()
            .filter(|ev| ev.get("ph").and_then(|v| v.as_str()) == Some("X"))
            .collect();
        assert_eq!(xs.len(), 2);
        for ev in &xs {
            assert!(ev.get("ts").and_then(|v| v.as_u64()).is_some());
            assert!(ev.get("dur").and_then(|v| v.as_u64()).is_some());
            assert_eq!(ev.get("pid").and_then(|v| v.as_u64()), Some(1));
            assert!(ev.get("tid").and_then(|v| v.as_u64()).is_some());
            assert!(ev.get("name").and_then(|v| v.as_str()).is_some());
            assert!(ev.get("args").and_then(|v| v.get("span_id")).is_some());
        }
        // The escaped name round-trips.
        assert_eq!(
            xs[1].get("name").and_then(|v| v.as_str()),
            Some("child \"q\"")
        );
        assert_eq!(
            xs[1]
                .get("args")
                .and_then(|a| a.get("parent_id"))
                .and_then(|v| v.as_u64()),
            Some(1)
        );
    }

    #[test]
    fn chrome_export_labels_process_and_thread_tracks() {
        let spans = vec![SpanRecord {
            trace_id: 1,
            span_id: 1,
            parent_id: None,
            name: "root",
            start_us: 0,
            dur_us: 10,
            tid: 7_777_777, // never allocated: falls back to thread-<tid>
            attrs: Vec::new(),
        }];
        let text = export_chrome(&spans);
        let json = crate::json::parse(&text).expect("parses");
        let arr = json.as_array().unwrap();
        let metas: Vec<_> = arr
            .iter()
            .filter(|ev| ev.get("ph").and_then(|v| v.as_str()) == Some("M"))
            .collect();
        // One process_name plus one thread_name per distinct tid — and
        // metadata precedes the span events.
        assert_eq!(metas.len(), 2, "{text}");
        assert_eq!(
            arr[0].get("name").and_then(|v| v.as_str()),
            Some("process_name")
        );
        assert_eq!(
            arr[0]
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(|v| v.as_str()),
            Some("dbpl")
        );
        let thread = metas
            .iter()
            .find(|ev| ev.get("name").and_then(|v| v.as_str()) == Some("thread_name"))
            .expect("thread_name event");
        assert_eq!(thread.get("tid").and_then(|v| v.as_u64()), Some(7_777_777));
        assert_eq!(
            thread
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(|v| v.as_str()),
            Some("thread-7777777")
        );
    }

    #[test]
    fn named_threads_register_their_track_names() {
        std::thread::Builder::new()
            .name("dbpl-track-test".to_string())
            .spawn(|| {
                // Force TID allocation on this named thread by capturing
                // a span, then check the registry saw the OS name.
                let (t, _) = capture("track-test", super::tid);
                assert_eq!(thread_name(t).as_deref(), Some("dbpl-track-test"));
                let spans = vec![SpanRecord {
                    trace_id: 1,
                    span_id: 1,
                    parent_id: None,
                    name: "root",
                    start_us: 0,
                    dur_us: 1,
                    tid: t,
                    attrs: Vec::new(),
                }];
                assert!(export_chrome(&spans).contains("dbpl-track-test"));
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn chrome_export_with_counters_appends_histogram_tracks() {
        let spans = vec![SpanRecord {
            trace_id: 1,
            span_id: 1,
            parent_id: None,
            name: "root",
            start_us: 5,
            dur_us: 100,
            tid: 0,
            attrs: Vec::new(),
        }];
        let mut stats = crate::StatsSnapshot::default();
        stats.histograms.insert(
            "span.get".to_string(),
            crate::HistogramSnapshot {
                buckets: vec![3],
                count: 3,
                sum_us: 120,
            },
        );
        // Non-span histograms stay out of the trace file.
        stats.histograms.insert(
            "other.metric".to_string(),
            crate::HistogramSnapshot {
                buckets: vec![1],
                count: 1,
                sum_us: 1,
            },
        );
        let text = export_chrome_with_counters(&spans, &stats);
        let json = crate::json::parse(&text).expect("counter export parses as JSON");
        let arr = json.as_array().expect("top level is an array");
        let counters: Vec<_> = arr
            .iter()
            .filter(|ev| ev.get("ph").and_then(|v| v.as_str()) == Some("C"))
            .collect();
        assert_eq!(counters.len(), 1, "{text}");
        assert!(arr
            .iter()
            .any(|ev| ev.get("ph").and_then(|v| v.as_str()) == Some("X")));
        let c = counters[0];
        assert_eq!(c.get("ph").and_then(|v| v.as_str()), Some("C"));
        assert_eq!(c.get("name").and_then(|v| v.as_str()), Some("span.get"));
        // Counter sample sits at the end of the captured window.
        assert_eq!(c.get("ts").and_then(|v| v.as_u64()), Some(105));
        assert_eq!(
            c.get("args")
                .and_then(|a| a.get("count"))
                .and_then(|v| v.as_u64()),
            Some(3)
        );
        assert_eq!(
            c.get("args")
                .and_then(|a| a.get("sum_us"))
                .and_then(|v| v.as_u64()),
            Some(120)
        );
    }

    #[test]
    fn render_tree_indents_and_tolerates_orphans() {
        let spans = vec![
            SpanRecord {
                trace_id: 1,
                span_id: 1,
                parent_id: None,
                name: "get",
                start_us: 0,
                dur_us: 50,
                tid: 0,
                attrs: vec![("rows_out", "3".to_string())],
            },
            rec(1, 2, Some(1), "get.seal"),
            // Parent 99 was evicted from the ring: still rendered, as a root.
            rec(1, 3, Some(99), "orphan"),
        ];
        let tree = render_tree(&spans);
        assert!(tree.contains("get dur_us=50 rows_out=3\n"));
        assert!(tree.contains("\n  get.seal dur_us=5\n"));
        assert!(tree.contains("\norphan dur_us=5\n"));
    }

    #[test]
    fn span_record_json_shape() {
        let mut r = rec(1, 2, Some(1), "s");
        r.attrs.push(("rows", "7".to_string()));
        assert_eq!(
            r.to_json(),
            "{\"name\":\"s\",\"trace_id\":1,\"span_id\":2,\"parent_id\":1,\
             \"start_us\":20,\"dur_us\":5,\"tid\":0,\"attrs\":{\"rows\":\"7\"}}"
        );
        let root = rec(1, 1, None, "r");
        assert!(root.to_json().contains("\"parent_id\":null"));
    }
}
