//! The correctness gates over `dbpl_bench::measure`: no torn snapshot
//! read, an overload burst that answers every attempt and fires exactly
//! one attributed SLO violation, the counters each measured path must
//! move, and the three artifact checks, each run over an artifact built
//! here and over hand-corrupted copies of it, which they must refuse.
//! The timing bounds are in `timing.rs`.

use dbpl_bench::check::{check_timeline, check_timeline_chrome, check_trace, check_workload};
use dbpl_bench::exclusive;
use dbpl_bench::measure::{
    get_cost, join_cost, overload, read_fixture, read_scaling, scrub, trace_artifact,
    txn_commit_cost, workload, Overload,
};
use dbpl_obs::json::{self, Json};
use std::sync::OnceLock;

/// The overload burst every gate here reads, run once per process:
/// 8 sessions × 120 attempts, 400 µs ± 200 µs per fsync. The attempts
/// make the burst outlast the recorder's 20ms interval more than twice
/// (it takes about 60 ms in release), so its flight record holds at
/// least two samples; 40 attempts take 20–37 ms, too short to be sure.
fn burst() -> &'static Overload {
    static BURST: OnceLock<Overload> = OnceLock::new();
    BURST.get_or_init(|| {
        let _x = exclusive();
        overload(8, 120, 400)
    })
}

fn trace() -> &'static str {
    static TRACE: OnceLock<String> = OnceLock::new();
    TRACE.get_or_init(|| {
        let _x = exclusive();
        trace_artifact()
    })
}

fn workload_jsonl() -> &'static str {
    static WORKLOAD: OnceLock<String> = OnceLock::new();
    WORKLOAD.get_or_init(|| {
        let _x = exclusive();
        workload(400, 48).to_jsonl()
    })
}

fn moved(delta: &dbpl_obs::StatsSnapshot, counters: &[&str]) {
    for c in counters {
        assert!(delta.counter(c) > 0, "{c} never moved");
    }
}

#[test]
fn snapshot_reads_never_tear() {
    let _x = exclusive();
    let fx = read_fixture(500);
    let scaling = read_scaling(&fx, &[1, 4, 16], 16);
    assert_eq!(scaling.torn, 0, "a snapshot read saw a torn database");
    assert_eq!(scaling.points.iter().map(|p| p.reads).sum::<u64>(), 21 * 16);
}

#[test]
fn overload_burst_answers_every_attempt_and_sheds() {
    let o = burst();
    let (applied, rejected) = (o.applied_us.len() as u64, o.rejected_us.len() as u64);
    assert_eq!(
        applied + rejected + o.starved,
        o.offered(),
        "attempts went missing"
    );
    assert_eq!(o.starved, 0, "attempts ended neither applied nor refused");
    assert!(
        applied > 0,
        "engine starved: zero commits applied under load"
    );
    assert!(
        rejected > 0 && o.shed_count >= rejected,
        "admission control never shed ({rejected} refusals, counter moved {})",
        o.shed_count
    );
    assert_eq!(o.panics, 0, "group commit panicked under plain overload");
    assert!(
        matches!(o.health, dbpl_lang::Health::Healthy),
        "engine degraded under plain overload: {:?}",
        o.health
    );
}

#[test]
fn overload_burst_fires_one_attributed_slo_violation() {
    let t = &burst().timeline;
    assert!(t.samples.len() >= 2, "{} samples", t.samples.len());
    assert_eq!(t.violations.len(), 1, "{:?}", t.violations);
    let dbpl_obs::Event::SloViolation { offender, .. } = &t.violations[0].event else {
        panic!("non-SLO violation in the ring: {:?}", t.violations[0]);
    };
    assert!(offender.starts_with("load-"), "offender {offender:?}");
}

#[test]
fn fast_paths_and_transactions_move_their_counters() {
    let _x = exclusive();
    let before = dbpl_obs::global().snapshot();
    get_cost(500, 2);
    join_cost(64, 2);
    let delta = dbpl_obs::global().snapshot().delta_since(&before);
    moved(
        &delta,
        &[
            "get.strategy.scan",
            "get.strategy.typed_lists",
            "get.rows_scanned",
            "join.strategy.partitioned",
        ],
    );
    let before = dbpl_obs::global().snapshot();
    txn_commit_cost(4, 2);
    let delta = dbpl_obs::global().snapshot().delta_since(&before);
    moved(
        &delta,
        &[
            "events.txn_begin",
            "events.txn_commit",
            "vfs.writes",
            "vfs.fsyncs",
        ],
    );
}

#[test]
fn scrub_finds_a_healthy_store_clean() {
    let s = scrub(48, 2);
    assert!(
        s.report.is_clean() && s.report.verified == s.units,
        "{:?}",
        s.report
    );
}

#[test]
fn trace_artifact_passes_its_check() {
    let summary = check_trace(trace()).unwrap();
    assert!(
        summary.spans > 0 && summary.stitched >= 1 && summary.counters >= 1,
        "{summary:?}"
    );
}

#[test]
fn overload_timeline_passes_its_check() {
    let summary = check_timeline(&burst().timeline.to_jsonl()).unwrap();
    assert_eq!(summary.samples, burst().timeline.samples.len());
    assert!(summary.overload_seen, "no sample saw the burst shed");
    assert_eq!(summary.violations.len(), 1, "{:?}", summary.violations);
    let (metric, offender) = &summary.violations[0];
    assert_eq!(metric, "server.queue_wait_us");
    assert!(!offender.is_empty(), "the violation names no session");
}

#[test]
fn overload_timeline_chrome_export_passes_its_check() {
    let tracks = check_timeline_chrome(&burst().timeline.to_chrome()).unwrap();
    assert!(tracks.contains("server.frames_admitted"), "{tracks:?}");
    assert!(tracks.iter().any(|t| t.ends_with(".p99_us")), "{tracks:?}");
}

#[test]
fn workload_artifact_passes_its_check() {
    let summary = check_workload(workload_jsonl()).unwrap();
    assert!(summary.get_strategies.len() >= 2, "{summary:?}");
    assert!(summary.nested_join && summary.keyed_join, "{summary:?}");
    assert!(summary.extents > 0 && summary.queries > 0, "{summary:?}");
}

// --- Each check refuses a hand-corrupted artifact ---

/// Render a parsed value back to JSON.
fn emit(j: &Json) -> String {
    match j {
        Json::Null => "null".into(),
        Json::Bool(b) => b.to_string(),
        Json::Num(n) if n.fract() == 0.0 => format!("{}", *n as i64),
        Json::Num(n) => n.to_string(),
        Json::Str(s) => format!("\"{}\"", dbpl_obs::json_escape(s)),
        Json::Arr(v) => format!("[{}]", v.iter().map(emit).collect::<Vec<_>>().join(",")),
        Json::Obj(m) => {
            let members: Vec<String> = m
                .iter()
                .map(|(k, v)| format!("\"{}\":{}", dbpl_obs::json_escape(k), emit(v)))
                .collect();
            format!("{{{}}}", members.join(","))
        }
    }
}

/// The member at `path` of nested objects.
fn at<'a>(j: &'a mut Json, path: &[&str]) -> &'a mut Json {
    path.iter().fold(j, |j, k| match j {
        Json::Obj(m) => m.get_mut(*k).unwrap_or_else(|| panic!("no member {k}")),
        _ => panic!("not an object at {k}"),
    })
}

fn num(j: &Json) -> f64 {
    match j {
        Json::Num(n) => *n,
        _ => panic!("not a number: {j:?}"),
    }
}

/// Parse each JSONL line, let `edit` change the list, and render it.
fn edit_lines(body: &str, edit: impl FnOnce(&mut Vec<Json>)) -> String {
    let mut lines: Vec<Json> = body
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| json::parse(l).unwrap())
        .collect();
    edit(&mut lines);
    lines.iter().map(emit).collect::<Vec<_>>().join("\n")
}

/// The first line holding `key`.
fn line_with<'a>(lines: &'a mut [Json], key: &str) -> &'a mut Json {
    lines
        .iter_mut()
        .find(|l| l.get(key).is_some())
        .unwrap_or_else(|| panic!("no line with {key}"))
}

/// `check` must refuse the artifact and name `why`.
fn refused<T: std::fmt::Debug>(check: impl Fn(&str) -> Result<T, String>, body: &str, why: &str) {
    match check(body) {
        Ok(s) => panic!("accepted a corrupted artifact (want `{why}`): {s:?}"),
        Err(e) => assert!(e.contains(why), "refused for `{e}`, want `{why}`"),
    }
}

#[test]
fn check_trace_refuses_corrupted_traces() {
    let doc = json::parse(trace()).unwrap();
    let edit = |f: &dyn Fn(&mut Vec<Json>)| {
        let mut events = doc.as_array().unwrap().to_vec();
        f(&mut events);
        emit(&Json::Arr(events))
    };
    let spans = |events: &[Json]| -> Vec<usize> {
        (0..events.len())
            .filter(|&i| events[i].get("ph").and_then(Json::as_str) == Some("X"))
            .collect()
    };
    let child = |events: &[Json]| {
        spans(events)
            .into_iter()
            .find(|&i| {
                let parent = events[i].get("args").and_then(|a| a.get("parent_id"));
                parent.is_some_and(|p| !p.is_null())
            })
            .expect("a span with a parent")
    };
    let orphaned = edit(&|ev| {
        let i = child(ev);
        *at(&mut ev[i], &["args", "parent_id"]) = Json::Num(u32::MAX as f64);
    });
    refused(check_trace, &orphaned, "orphaned parent_id");
    let duplicated = edit(&|ev| {
        let s = spans(ev);
        let id = at(&mut ev[s[0]], &["args", "span_id"]).clone();
        *at(&mut ev[s[1]], &["args", "span_id"]) = id;
    });
    refused(check_trace, &duplicated, "duplicate span_id");
    let escaped = edit(&|ev| {
        let i = child(ev);
        *at(&mut ev[i], &["dur"]) = Json::Num(1e12);
    });
    refused(check_trace, &escaped, "escapes its parent");
    let unstitched = edit(&|ev| {
        for e in ev.iter_mut() {
            if let Json::Obj(m) = e {
                if let Some(Json::Obj(args)) = m.get_mut("args") {
                    args.remove("origin_trace_id");
                }
            }
        }
    });
    refused(check_trace, &unstitched, "stitched origin_trace_id");
    let unnamed =
        edit(&|ev| ev.retain(|e| e.get("name").and_then(Json::as_str) != Some("thread_name")));
    refused(check_trace, &unnamed, "no thread_name");
}

#[test]
fn check_timeline_refuses_corrupted_timelines() {
    let body = burst().timeline.to_jsonl();
    let samples = |lines: &[Json]| -> Vec<usize> {
        (0..lines.len())
            .filter(|&i| lines[i].get("seq").is_some())
            .collect()
    };
    // Sample 2 claims the next seq but one: a sample went missing.
    let dropped = edit_lines(&body, |lines| {
        let i = samples(lines)[1];
        let seq = at(&mut lines[i], &["seq"]);
        *seq = Json::Num(num(seq) + 1.0);
    });
    refused(check_timeline, &dropped, "must be contiguous");
    let unconserved = edit_lines(&body, |lines| {
        let i = samples(lines)[1];
        let Json::Obj(deltas) = at(&mut lines[i], &["counters"]) else {
            panic!("counters is not an object");
        };
        let d = deltas
            .entry("server.frames_admitted".into())
            .or_insert(Json::Num(0.0));
        *d = Json::Num(num(d) + 1.0);
    });
    refused(check_timeline, &unconserved, "not conserved");
    let disordered = edit_lines(&body, |lines| {
        let i = samples(lines)
            .into_iter()
            .find(|&i| matches!(lines[i].get("histograms"), Some(Json::Obj(h)) if !h.is_empty()))
            .expect("a sample with a histogram window");
        let Json::Obj(h) = at(&mut lines[i], &["histograms"]) else {
            unreachable!()
        };
        let w = h.values_mut().next().unwrap();
        let p99 = num(at(w, &["p99_us"]));
        *at(w, &["p50_us"]) = Json::Num(p99 + 1.0);
    });
    refused(check_timeline, &disordered, "percentiles disordered");
    let early = edit_lines(&body, |lines| {
        let last = samples(lines)
            .into_iter()
            .map(|i| num(lines[i].get("seq").unwrap()))
            .fold(0.0, f64::max);
        *at(line_with(lines, "at_seq"), &["at_seq"]) = Json::Num(last + 1.0);
    });
    refused(check_timeline, &early, "not yet sampled");
    let rebound = edit_lines(&body, |lines| {
        *at(&mut lines[0], &["bounds_us"]) = Json::Arr(vec![Json::Num(1.0)]);
    });
    refused(check_timeline, &rebound, "bounds_us");
}

#[test]
fn check_workload_refuses_corrupted_workloads() {
    let body = workload_jsonl();
    let off_by_one = edit_lines(body, |lines| {
        let c = at(line_with(lines, "top"), &["top", "count"]);
        *c = Json::Num(num(c) + 1.0);
    });
    refused(
        check_workload,
        &off_by_one,
        "diverge from the raw query lines",
    );
    let miscounted = edit_lines(body, |lines| {
        let c = at(
            line_with(lines, "trace_counters"),
            &["trace_counters", "get.strategy.scan"],
        );
        *c = Json::Num(num(c) + 1.0);
    });
    refused(check_workload, &miscounted, "fingerprint/counter mismatch");
    let overground = edit_lines(body, |lines| {
        let e = line_with(lines, "extent");
        let rows = num(e.get("rows").unwrap());
        *at(e, &["ground_rows"]) = Json::Num(rows + 1.0);
    });
    refused(check_workload, &overground, "ground_rows");
    let misnamed = edit_lines(body, |lines| {
        *at(line_with(lines, "query"), &["query", "fingerprint"]) = Json::Str("get:".into());
    });
    refused(check_workload, &misnamed, "malformed get strategy");
    let overfull = edit_lines(body, |lines| {
        let q = lines
            .iter_mut()
            .find(|l| {
                l.get("query")
                    .and_then(|q| q.get("fingerprint"))
                    .and_then(Json::as_str)
                    .is_some_and(|f| f.starts_with("get:"))
            })
            .unwrap();
        let rows_in = num(at(q, &["query", "rows_in"]));
        *at(q, &["query", "rows_out"]) = Json::Num(rows_in + 1.0);
    });
    refused(check_workload, &overfull, "returned");
}
