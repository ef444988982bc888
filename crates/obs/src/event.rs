//! Structured events and the pluggable sink they stream through.

use crate::json_escape;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// A structured observability event. The JSONL rendering of every
/// variant is a stable, golden-tested schema: the `event` field names
/// the variant in snake_case, and the remaining fields are fixed per
/// variant — sinks may rely on field names and types not drifting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A transaction frame opened (implicit per-program or explicit
    /// `begin`).
    TxnBegin {
        /// `true` for an explicit `begin`, `false` for the implicit
        /// per-program frame.
        explicit: bool,
    },
    /// A transaction committed durably.
    TxnCommit {
        /// The store's monotonically increasing transaction id.
        txn_id: u64,
        /// Number of extern handles written or removed by the commit.
        externs: u64,
        /// Whether the commit also carried intrinsic-store records.
        intrinsic: bool,
    },
    /// A transaction frame rolled back (explicit `abort`, a failing
    /// program, or a panic).
    TxnAbort {
        /// Why the frame was abandoned.
        reason: String,
    },
    /// A commit's record reached the commit log but its fsync or the
    /// apply failed; a replay of the log will roll it forward.
    TxnInDoubt {
        /// The in-doubt transaction id.
        txn_id: u64,
        /// The apply-phase error.
        cause: String,
    },
    /// A replay of the commit-log tail completed.
    TxnRecovered {
        /// The recovered transaction id.
        txn_id: u64,
    },
    /// A damaged `.dyn` unit (or undecodable store position) was fenced
    /// off rather than aborting the session.
    Quarantine {
        /// The handle or position that was quarantined.
        handle: String,
        /// The corruption error that triggered it.
        reason: String,
    },
    /// A salvage-mode open skipped undecodable data and continued.
    Salvage {
        /// Units successfully loaded.
        loaded: u64,
        /// Units skipped as undecodable.
        skipped: u64,
    },
    /// A transient I/O error was retried.
    Retry {
        /// The operation being retried.
        op: String,
        /// 1-based attempt number that failed.
        attempt: u64,
    },
    /// The simulated VFS injected a fault (tests and crash sweeps).
    FaultInjected {
        /// The faulted operation.
        op: String,
        /// The fault kind (`"transient"` or `"crash"`).
        kind: String,
    },
    /// A scrub pass over a replicating store finished (see
    /// `ReplicatingStore::scrub` in `dbpl-persist`).
    ScrubReport {
        /// Units examined.
        scanned: u64,
        /// Units whose checksum and decode both passed.
        verified: u64,
        /// Units found corrupt and left quarantined (repair failed or no
        /// replica was available).
        corrupt: u64,
        /// Units found corrupt and rewritten from a healthy replica.
        repaired: u64,
    },
    /// An engine shed load: a commit was rejected (or timed out waiting)
    /// at the admission gate because the write path was at capacity.
    Overload {
        /// Commit-queue depth observed at the rejection.
        depth: u64,
        /// Which gate rejected: `"queue_full"`, `"inflight_full"`,
        /// `"session_cap"`, or `"admission_timeout"`.
        gate: String,
    },
    /// A session entered or left degraded (read-only) mode, e.g. on
    /// disk-full during commit and again when space returns.
    HealthChanged {
        /// `true` when entering degraded mode, `false` on recovery.
        degraded: bool,
        /// Why the health state changed.
        reason: String,
    },
    /// A service-level objective evaluated by the flight recorder
    /// ([`crate::timeline`]) began failing: the windowed percentile
    /// estimate crossed its threshold. The SLO engine's hysteresis
    /// guarantees one event per sustained violation (no flapping).
    SloViolation {
        /// The histogram the objective watches (e.g.
        /// `server.queue_wait_us`).
        metric: String,
        /// The objective's quantile label (e.g. `p99`).
        quantile: String,
        /// The windowed quantile estimate, in microseconds.
        observed_us: u64,
        /// The objective's threshold, in microseconds.
        threshold_us: u64,
        /// Burn rate ×100: the share of window observations over the
        /// threshold relative to the error budget `1 - q`; 100 means
        /// burning the budget exactly, 1000 means 10x over.
        burn_rate_pct: u64,
        /// Window start, microseconds since recorder start.
        window_start_us: u64,
        /// Window end, microseconds since recorder start.
        window_end_us: u64,
        /// The session label with the most attributed commit attempts
        /// in the window (`""` when no labeled session was active).
        offender: String,
    },
    /// A root span exceeded the slow-op threshold
    /// ([`crate::trace::set_slow_threshold_us`]); carries the whole
    /// subtree so the log alone answers "where did it spend its time".
    SlowOp {
        /// The root span's name (e.g. `run`, `get`, `txn.commit`).
        name: String,
        /// The root span's duration in microseconds.
        dur_us: u64,
        /// The completed spans of the trace, root included, parents
        /// before children.
        spans: Vec<crate::trace::SpanRecord>,
    },
}

impl Event {
    /// The snake_case variant name used as the JSONL `event` field and
    /// the `events.<kind>` counter suffix.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::TxnBegin { .. } => "txn_begin",
            Event::TxnCommit { .. } => "txn_commit",
            Event::TxnAbort { .. } => "txn_abort",
            Event::TxnInDoubt { .. } => "txn_in_doubt",
            Event::TxnRecovered { .. } => "txn_recovered",
            Event::Quarantine { .. } => "quarantine",
            Event::Salvage { .. } => "salvage",
            Event::Retry { .. } => "retry",
            Event::FaultInjected { .. } => "fault_injected",
            Event::ScrubReport { .. } => "scrub_report",
            Event::Overload { .. } => "overload",
            Event::HealthChanged { .. } => "health_changed",
            Event::SloViolation { .. } => "slo_violation",
            Event::SlowOp { .. } => "slow_op",
        }
    }

    /// Render as one JSONL line (no trailing newline). Field order is
    /// fixed: `event` first, then the variant's fields in declaration
    /// order.
    pub fn to_jsonl(&self) -> String {
        let kind = self.kind();
        match self {
            Event::TxnBegin { explicit } => {
                format!("{{\"event\":\"{kind}\",\"explicit\":{explicit}}}")
            }
            Event::TxnCommit {
                txn_id,
                externs,
                intrinsic,
            } => format!(
                "{{\"event\":\"{kind}\",\"txn_id\":{txn_id},\"externs\":{externs},\"intrinsic\":{intrinsic}}}"
            ),
            Event::TxnAbort { reason } => format!(
                "{{\"event\":\"{kind}\",\"reason\":\"{}\"}}",
                json_escape(reason)
            ),
            Event::TxnInDoubt { txn_id, cause } => format!(
                "{{\"event\":\"{kind}\",\"txn_id\":{txn_id},\"cause\":\"{}\"}}",
                json_escape(cause)
            ),
            Event::TxnRecovered { txn_id } => {
                format!("{{\"event\":\"{kind}\",\"txn_id\":{txn_id}}}")
            }
            Event::Quarantine { handle, reason } => format!(
                "{{\"event\":\"{kind}\",\"handle\":\"{}\",\"reason\":\"{}\"}}",
                json_escape(handle),
                json_escape(reason)
            ),
            Event::Salvage { loaded, skipped } => format!(
                "{{\"event\":\"{kind}\",\"loaded\":{loaded},\"skipped\":{skipped}}}"
            ),
            Event::Retry { op, attempt } => format!(
                "{{\"event\":\"{kind}\",\"op\":\"{}\",\"attempt\":{attempt}}}",
                json_escape(op)
            ),
            Event::FaultInjected { op, kind: fk } => format!(
                "{{\"event\":\"{kind}\",\"op\":\"{}\",\"kind\":\"{}\"}}",
                json_escape(op),
                json_escape(fk)
            ),
            Event::ScrubReport {
                scanned,
                verified,
                corrupt,
                repaired,
            } => format!(
                "{{\"event\":\"{kind}\",\"scanned\":{scanned},\"verified\":{verified},\"corrupt\":{corrupt},\"repaired\":{repaired}}}"
            ),
            Event::Overload { depth, gate } => format!(
                "{{\"event\":\"{kind}\",\"depth\":{depth},\"gate\":\"{}\"}}",
                json_escape(gate)
            ),
            Event::HealthChanged { degraded, reason } => format!(
                "{{\"event\":\"{kind}\",\"degraded\":{degraded},\"reason\":\"{}\"}}",
                json_escape(reason)
            ),
            Event::SloViolation {
                metric,
                quantile,
                observed_us,
                threshold_us,
                burn_rate_pct,
                window_start_us,
                window_end_us,
                offender,
            } => format!(
                "{{\"event\":\"{kind}\",\"metric\":\"{}\",\"quantile\":\"{}\",\"observed_us\":{observed_us},\"threshold_us\":{threshold_us},\"burn_rate_pct\":{burn_rate_pct},\"window_start_us\":{window_start_us},\"window_end_us\":{window_end_us},\"offender\":\"{}\"}}",
                json_escape(metric),
                json_escape(quantile),
                json_escape(offender)
            ),
            Event::SlowOp {
                name,
                dur_us,
                spans,
            } => format!(
                "{{\"event\":\"{kind}\",\"name\":\"{}\",\"dur_us\":{dur_us},\"spans\":[{}]}}",
                json_escape(name),
                spans
                    .iter()
                    .map(|s| s.to_json())
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        }
    }
}

/// Where emitted events go. Implementations must be cheap and must not
/// call back into [`emit`].
pub trait EventSink: Send + Sync {
    /// Receive one event.
    fn emit(&self, event: &Event);
}

/// An in-memory sink that records every event it receives (tests,
/// examples).
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// A fresh, empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of everything received so far.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().unwrap().clone()
    }

    /// Drop everything received so far.
    pub fn clear(&self) {
        self.events.lock().unwrap().clear();
    }
}

impl EventSink for MemorySink {
    fn emit(&self, event: &Event) {
        self.events.lock().unwrap().push(event.clone());
    }
}

static SINK_ATTACHED: AtomicBool = AtomicBool::new(false);
static SINK: RwLock<Option<Arc<dyn EventSink>>> = RwLock::new(None);

/// Attach the process-wide event sink (replacing any previous one).
pub fn set_sink(sink: Arc<dyn EventSink>) {
    *SINK.write() = Some(sink);
    SINK_ATTACHED.store(true, Ordering::Release);
}

/// Detach the process-wide event sink.
pub fn clear_sink() {
    SINK_ATTACHED.store(false, Ordering::Release);
    *SINK.write() = None;
}

/// Whether a sink is currently attached (fast relaxed load).
pub fn sink_attached() -> bool {
    SINK_ATTACHED.load(Ordering::Relaxed)
}

/// Emit one event: always bumps the `events.<kind>` counter in the
/// [`global`](crate::global) registry, and forwards to the attached
/// sink if there is one. With no sink attached this is one relaxed
/// atomic load plus one counter increment.
pub fn emit(event: Event) {
    crate::global()
        .counter(&format!("events.{}", event.kind()))
        .inc();
    if !SINK_ATTACHED.load(Ordering::Acquire) {
        return;
    }
    if let Some(sink) = SINK.read().as_ref() {
        sink.emit(&event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that touch the process-wide sink (the test
    /// binary runs tests on parallel threads).
    static SINK_TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn golden_jsonl_schema() {
        // These exact strings are the contract with external sinks; a
        // failure here means the event schema drifted.
        let cases: Vec<(Event, &str)> = vec![
            (
                Event::TxnBegin { explicit: true },
                r#"{"event":"txn_begin","explicit":true}"#,
            ),
            (
                Event::TxnCommit {
                    txn_id: 7,
                    externs: 2,
                    intrinsic: false,
                },
                r#"{"event":"txn_commit","txn_id":7,"externs":2,"intrinsic":false}"#,
            ),
            (
                Event::TxnAbort {
                    reason: "panic: \"boom\"".into(),
                },
                r#"{"event":"txn_abort","reason":"panic: \"boom\""}"#,
            ),
            (
                Event::TxnInDoubt {
                    txn_id: 9,
                    cause: "apply failed".into(),
                },
                r#"{"event":"txn_in_doubt","txn_id":9,"cause":"apply failed"}"#,
            ),
            (
                Event::TxnRecovered { txn_id: 9 },
                r#"{"event":"txn_recovered","txn_id":9}"#,
            ),
            (
                Event::Quarantine {
                    handle: "H".into(),
                    reason: "checksum mismatch".into(),
                },
                r#"{"event":"quarantine","handle":"H","reason":"checksum mismatch"}"#,
            ),
            (
                Event::Salvage {
                    loaded: 3,
                    skipped: 1,
                },
                r#"{"event":"salvage","loaded":3,"skipped":1}"#,
            ),
            (
                Event::Retry {
                    op: "commit_log".into(),
                    attempt: 2,
                },
                r#"{"event":"retry","op":"commit_log","attempt":2}"#,
            ),
            (
                Event::FaultInjected {
                    op: "sync_file".into(),
                    kind: "transient".into(),
                },
                r#"{"event":"fault_injected","op":"sync_file","kind":"transient"}"#,
            ),
            (
                Event::ScrubReport {
                    scanned: 10,
                    verified: 8,
                    corrupt: 1,
                    repaired: 1,
                },
                r#"{"event":"scrub_report","scanned":10,"verified":8,"corrupt":1,"repaired":1}"#,
            ),
            (
                Event::Overload {
                    depth: 256,
                    gate: "queue_full".into(),
                },
                r#"{"event":"overload","depth":256,"gate":"queue_full"}"#,
            ),
            (
                Event::HealthChanged {
                    degraded: true,
                    reason: "disk full".into(),
                },
                r#"{"event":"health_changed","degraded":true,"reason":"disk full"}"#,
            ),
            (
                Event::SloViolation {
                    metric: "server.queue_wait_us".into(),
                    quantile: "p99".into(),
                    observed_us: 8192,
                    threshold_us: 1000,
                    burn_rate_pct: 4200,
                    window_start_us: 100_000,
                    window_end_us: 300_000,
                    offender: "load-3".into(),
                },
                r#"{"event":"slo_violation","metric":"server.queue_wait_us","quantile":"p99","observed_us":8192,"threshold_us":1000,"burn_rate_pct":4200,"window_start_us":100000,"window_end_us":300000,"offender":"load-3"}"#,
            ),
            (
                Event::SlowOp {
                    name: "run".into(),
                    dur_us: 1500,
                    spans: vec![crate::trace::SpanRecord {
                        trace_id: 4,
                        span_id: 4,
                        parent_id: None,
                        name: "run",
                        start_us: 10,
                        dur_us: 1500,
                        tid: 0,
                        attrs: vec![("statements", "2".to_string())],
                    }],
                },
                r#"{"event":"slow_op","name":"run","dur_us":1500,"spans":[{"name":"run","trace_id":4,"span_id":4,"parent_id":null,"start_us":10,"dur_us":1500,"tid":0,"attrs":{"statements":"2"}}]}"#,
            ),
        ];
        for (event, expected) in cases {
            assert_eq!(event.to_jsonl(), expected, "schema drift for {event:?}");
            let kind = event.kind();
            assert!(
                expected.contains(&format!("\"event\":\"{kind}\"")),
                "kind/jsonl mismatch for {event:?}"
            );
        }
    }

    #[test]
    fn emit_reaches_sink_and_counts() {
        let _guard = SINK_TEST_LOCK.lock().unwrap();
        let sink = Arc::new(MemorySink::new());
        set_sink(sink.clone());
        let before = crate::global().counter("events.salvage").get();
        emit(Event::Salvage {
            loaded: 1,
            skipped: 0,
        });
        clear_sink();
        assert!(!sink_attached());
        let got = sink.events();
        assert!(got.contains(&Event::Salvage {
            loaded: 1,
            skipped: 0
        }));
        assert!(crate::global().counter("events.salvage").get() > before);
        // After clearing, emits still count but do not reach the sink.
        sink.clear();
        emit(Event::Salvage {
            loaded: 2,
            skipped: 0,
        });
        assert!(sink.events().is_empty());
    }
}
