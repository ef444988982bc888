//! Structural checks of the observability artifacts: the Chrome span
//! trace ([`crate::measure::trace_artifact`]), the flight recorder's
//! timeline JSONL and its Chrome counter tracks
//! ([`crate::measure::overload`]), and the `dbpl.workload.v1` JSONL
//! ([`crate::measure::Workload::to_jsonl`]). Each returns the first
//! violation as an error, or a summary for the caller to hold to what
//! its run should have produced.

use dbpl_obs::json::{self, Json};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// An object member that must be a `u64`-valued number.
fn need_u64(obj: &Json, key: &str) -> Option<u64> {
    obj.get(key).and_then(Json::as_u64)
}

/// Flatten a `{"name": count}` member into a map; `None` if it is
/// missing, not an object, or holds a non-`u64` value.
fn counter_map(obj: &Json, key: &str) -> Option<BTreeMap<String, u64>> {
    let Some(Json::Obj(m)) = obj.get(key) else {
        return None;
    };
    m.iter()
        .map(|(k, v)| Some((k.clone(), v.as_u64()?)))
        .collect()
}

/// What a valid span trace held.
#[derive(Debug)]
pub struct TraceSummary {
    /// Complete (`ph:"X"`) span events.
    pub spans: usize,
    /// Counter (`ph:"C"`) events.
    pub counters: usize,
    /// `store.intern` spans carrying a nonzero origin.
    pub stitched: usize,
}

/// Check a Chrome trace-event export of one captured trace:
/// * a JSON array of track-naming metadata (`ph:"M"`: one
///   `process_name`, a `thread_name` for every `tid` that carries a
///   span, all before the first span), complete events (`ph:"X"` with
///   `name`, `ts`, `dur`, `pid`, `tid`, and `args` holding
///   `trace_id`/`span_id`/`parent_id`), and counter events (`ph:"C"`,
///   at least one a `span.<name>` histogram with `count`/`sum_us`);
/// * `span_id`s are unique, every non-null `parent_id` names a span in
///   the file (a capture evicts nothing), and every child lies within
///   its parent's `[ts, ts+dur]`;
/// * a `get`, a `join` and a `txn.commit` span each have a child;
/// * some `store.intern` span carries the `origin_trace_id` and
///   `origin_span_id` of the span that externed its unit, and one such
///   origin names a span in the file.
pub fn check_trace(body: &str) -> Result<TraceSummary, String> {
    let doc = json::parse(body).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = doc.as_array().ok_or("top level is not a JSON array")?;
    if events.is_empty() {
        return Err("trace contains no events".into());
    }

    struct Ev {
        name: String,
        ts: u64,
        dur: u64,
        trace_id: u64,
        span_id: u64,
        parent_id: Option<u64>,
        origin: Option<(u64, u64)>,
    }
    let mut evs: Vec<Ev> = Vec::with_capacity(events.len());
    let (mut counters, mut span_counters) = (0usize, 0usize);
    let mut process_named = false;
    let mut named_tids: HashSet<u64> = HashSet::new();
    let mut span_tids: HashSet<u64> = HashSet::new();
    for (i, e) in events.iter().enumerate() {
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i} has no string `name`"))?
            .to_string();
        let ph = e.get("ph").and_then(Json::as_str);
        if ph == Some("C") {
            let args = e
                .get("args")
                .filter(|_| need_u64(e, "ts").is_some())
                .ok_or_else(|| format!("counter {i} ({name}) lacks ts/args"))?;
            if need_u64(args, "count").is_none() || need_u64(args, "sum_us").is_none() {
                return Err(format!("counter {i} ({name}) args lack count/sum_us"));
            }
            counters += 1;
            span_counters += usize::from(name.starts_with("span."));
            continue;
        }
        if ph == Some("M") {
            if name != "process_name" && name != "thread_name" {
                return Err(format!("metadata {i} has unexpected name `{name}`"));
            }
            let label = e
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(Json::as_str);
            if label.is_none_or(str::is_empty) {
                return Err(format!("metadata {i} ({name}) lacks args.name"));
            }
            if !evs.is_empty() {
                return Err(format!("metadata {i} ({name}) follows a span event"));
            }
            if name == "process_name" {
                process_named = true;
            } else {
                let tid = need_u64(e, "tid")
                    .ok_or_else(|| format!("thread_name metadata {i} lacks a tid"))?;
                named_tids.insert(tid);
            }
            continue;
        }
        if ph != Some("X") {
            return Err(format!("event {i} ({name}) is not a complete event"));
        }
        let (Some(ts), Some(dur), Some(_pid), Some(tid)) = (
            need_u64(e, "ts"),
            need_u64(e, "dur"),
            need_u64(e, "pid"),
            need_u64(e, "tid"),
        ) else {
            return Err(format!("event {i} ({name}) lacks ts/dur/pid/tid"));
        };
        span_tids.insert(tid);
        let args = e
            .get("args")
            .ok_or_else(|| format!("event {i} ({name}) has no args"))?;
        let (Some(trace_id), Some(span_id)) =
            (need_u64(args, "trace_id"), need_u64(args, "span_id"))
        else {
            return Err(format!("event {i} ({name}) args lack trace_id/span_id"));
        };
        // Span attrs are exported as strings.
        let origin = match (
            args.get("origin_trace_id").and_then(Json::as_str),
            args.get("origin_span_id").and_then(Json::as_str),
        ) {
            (Some(t), Some(s)) => match (t.parse::<u64>(), s.parse::<u64>()) {
                (Ok(t), Ok(s)) => Some((t, s)),
                _ => return Err(format!("event {i} ({name}) has non-numeric origin ids")),
            },
            _ => None,
        };
        let parent_id = match args.get("parent_id") {
            Some(p) if p.is_null() => None,
            Some(p) => Some(
                p.as_u64()
                    .ok_or_else(|| format!("event {i} ({name}) parent_id is not a number"))?,
            ),
            None => return Err(format!("event {i} ({name}) args lack parent_id")),
        };
        evs.push(Ev {
            name,
            ts,
            dur,
            trace_id,
            span_id,
            parent_id,
            origin,
        });
    }
    if span_counters == 0 {
        return Err("no `span.*` counter events (`ph:\"C\"` histogram tracks)".into());
    }
    if !process_named {
        return Err("no `process_name` metadata event".into());
    }
    if let Some(tid) = span_tids.iter().find(|t| !named_tids.contains(t)) {
        return Err(format!("tid {tid} carries spans but has no thread_name"));
    }

    let mut by_id: HashMap<u64, &Ev> = HashMap::new();
    for e in &evs {
        if by_id.insert(e.span_id, e).is_some() {
            return Err(format!("duplicate span_id {}", e.span_id));
        }
    }
    for e in &evs {
        let Some(pid) = e.parent_id else { continue };
        let p = by_id.get(&pid).ok_or_else(|| {
            format!(
                "span {} ({}) has orphaned parent_id {pid}",
                e.span_id, e.name
            )
        })?;
        if e.ts < p.ts || e.ts + e.dur > p.ts + p.dur {
            return Err(format!(
                "span {} ({}) [{}..{}] escapes its parent {} ({}) [{}..{}]",
                e.span_id,
                e.name,
                e.ts,
                e.ts + e.dur,
                p.span_id,
                p.name,
                p.ts,
                p.ts + p.dur,
            ));
        }
    }

    let with_children: HashSet<u64> = evs.iter().filter_map(|e| e.parent_id).collect();
    for want in ["get", "join", "txn.commit"] {
        if !evs
            .iter()
            .any(|e| e.name == want && with_children.contains(&e.span_id))
        {
            return Err(format!("no `{want}` span with children"));
        }
    }

    let stitched: Vec<(u64, u64)> = evs
        .iter()
        .filter(|e| e.name == "store.intern")
        .filter_map(|e| e.origin.filter(|&(t, _)| t != 0))
        .collect();
    if stitched.is_empty() {
        return Err("no `store.intern` span carries a stitched origin_trace_id".into());
    }
    if !stitched
        .iter()
        .any(|(t, s)| by_id.get(s).is_some_and(|p| p.trace_id == *t))
    {
        return Err("no stitched origin_span_id resolves to its externing span".into());
    }
    Ok(TraceSummary {
        spans: evs.len(),
        counters,
        stitched: stitched.len(),
    })
}

/// What a valid timeline held.
#[derive(Debug)]
pub struct TimelineSummary {
    /// Sample lines.
    pub samples: usize,
    /// Whether some sample saw `server.overload_rejected` move.
    pub overload_seen: bool,
    /// Each violation's `(metric, offender)`, in file order.
    pub violations: Vec<(String, String)>,
}

/// Check a `Timeline::to_jsonl` export:
/// * line 1 is the `dbpl.timeline.v1` header with a positive interval,
///   a `dropped` count and the fixed histogram bucket bounds;
/// * sample `seq`s are consecutive (the exported ring is the contiguous
///   survivor window after drop-oldest eviction) and `t_us` never goes
///   backwards;
/// * **conservation**: for every cumulative counter, the change between
///   consecutive samples equals the delta the later line reports (an
///   absent delta is zero), and every delta counter has a total;
/// * histogram windows have a positive count and ordered percentiles
///   (`p50 ≤ p95 ≤ p99 ≤` the top bound);
/// * violation lines name a sampled `seq` and are `slo_violation`
///   events with a window inside the sampled range.
pub fn check_timeline(body: &str) -> Result<TimelineSummary, String> {
    let mut lines = body
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let (_, header_line) = lines.next().ok_or("empty timeline")?;
    let header = json::parse(header_line).map_err(|e| format!("header is not JSON: {e}"))?;
    if header.get("schema").and_then(Json::as_str) != Some("dbpl.timeline.v1") {
        return Err("header schema is not dbpl.timeline.v1".into());
    }
    if need_u64(&header, "interval_us").is_none_or(|i| i == 0) {
        return Err("header lacks a positive interval_us".into());
    }
    if need_u64(&header, "dropped").is_none() {
        return Err("header lacks a dropped count".into());
    }
    let bounds = header
        .get("bounds_us")
        .and_then(Json::as_array)
        .ok_or("header lacks bounds_us")?;
    let want = dbpl_obs::BUCKET_BOUNDS_US;
    if bounds.len() != want.len() || bounds.iter().zip(want).any(|(b, w)| b.as_u64() != Some(w)) {
        return Err(format!("header bounds_us is not {want:?}"));
    }
    let top_bound = *want.last().unwrap();

    let mut samples = 0usize;
    let mut prev_seq: Option<u64> = None;
    let mut prev_t_us = 0u64;
    let mut prev_total: Option<BTreeMap<String, u64>> = None;
    let mut overload_seen = false;
    let mut violations = Vec::new();
    for (lineno, line) in lines {
        let n = lineno + 1;
        let v = json::parse(line).map_err(|e| format!("line {n} is not JSON: {e}"))?;

        if let Some(at_seq) = need_u64(&v, "at_seq") {
            // A violation may name a sample the ring has since evicted,
            // never one from the future.
            if prev_seq.is_none_or(|s| at_seq > s) {
                return Err(format!(
                    "line {n}: violation at_seq {at_seq} not yet sampled"
                ));
            }
            let ev = v
                .get("violation")
                .ok_or_else(|| format!("line {n}: violation line lacks a violation object"))?;
            if ev.get("event").and_then(Json::as_str) != Some("slo_violation") {
                return Err(format!("line {n}: violation is not an slo_violation event"));
            }
            let text = |key| {
                ev.get(key)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("line {n}: violation lacks string `{key}`"))
            };
            let (metric, _, offender) = (text("metric")?, text("quantile")?, text("offender")?);
            let (Some(ws), Some(we)) = (
                need_u64(ev, "window_start_us"),
                need_u64(ev, "window_end_us"),
            ) else {
                return Err(format!("line {n}: violation lacks its window"));
            };
            if ws > we || we > prev_t_us {
                return Err(format!(
                    "line {n}: violation window [{ws}, {we}] escapes the sampled range \
                     (last t_us {prev_t_us})"
                ));
            }
            for key in ["observed_us", "threshold_us", "burn_rate_pct"] {
                if need_u64(ev, key).is_none() {
                    return Err(format!("line {n}: violation lacks numeric `{key}`"));
                }
            }
            violations.push((metric.to_string(), offender.to_string()));
            continue;
        }

        let (Some(seq), Some(t_us)) = (need_u64(&v, "seq"), need_u64(&v, "t_us")) else {
            return Err(format!("line {n} is neither a sample nor a violation"));
        };
        if let Some(p) = prev_seq {
            if seq != p + 1 {
                return Err(format!(
                    "line {n}: seq {seq} after {p}, the exported ring must be contiguous"
                ));
            }
            if t_us < prev_t_us {
                return Err(format!(
                    "line {n}: t_us went backwards ({t_us} < {prev_t_us})"
                ));
            }
        }
        let deltas = counter_map(&v, "counters")
            .ok_or_else(|| format!("line {n}: sample lacks a counters object"))?;
        let total = counter_map(&v, "total")
            .ok_or_else(|| format!("line {n}: sample lacks a total object"))?;
        if let Some(prev) = &prev_total {
            for (name, &cum) in &total {
                let before = prev.get(name).copied().unwrap_or(0);
                let delta = deltas.get(name).copied().unwrap_or(0);
                if cum.checked_sub(before) != Some(delta) {
                    return Err(format!(
                        "line {n}: counter `{name}` not conserved: \
                         total {before} -> {cum} but delta says {delta}"
                    ));
                }
            }
        }
        if let Some(name) = deltas.keys().find(|k| !total.contains_key(*k)) {
            return Err(format!(
                "line {n}: delta counter `{name}` missing from total"
            ));
        }
        overload_seen |= deltas
            .get("server.overload_rejected")
            .is_some_and(|&d| d > 0);
        if let Some(Json::Obj(hists)) = v.get("histograms") {
            for (name, h) in hists {
                let (Some(count), Some(_), Some(p50), Some(p95), Some(p99)) = (
                    need_u64(h, "count"),
                    need_u64(h, "sum_us"),
                    need_u64(h, "p50_us"),
                    need_u64(h, "p95_us"),
                    need_u64(h, "p99_us"),
                ) else {
                    return Err(format!("line {n}: histogram `{name}` window malformed"));
                };
                if count == 0 {
                    return Err(format!("line {n}: histogram `{name}` has an empty window"));
                }
                if !(p50 <= p95 && p95 <= p99 && p99 <= top_bound) {
                    return Err(format!(
                        "line {n}: histogram `{name}` percentiles disordered: \
                         p50 {p50}, p95 {p95}, p99 {p99} (top bound {top_bound})"
                    ));
                }
            }
        }
        samples += 1;
        prev_seq = Some(seq);
        prev_t_us = t_us;
        prev_total = Some(total);
    }
    if samples == 0 {
        return Err("timeline has a header but no samples".into());
    }
    Ok(TimelineSummary {
        samples,
        overload_seen,
        violations,
    })
}

/// Check a `Timeline::to_chrome` export: a JSON array whose `ph:"M"`
/// metadata names the process and the `dbpl-recorder` thread, and whose
/// other events are all counter samples (`ph:"C"` with `ts` and `args`).
/// Returns the counter track names.
pub fn check_timeline_chrome(body: &str) -> Result<BTreeSet<String>, String> {
    let doc = json::parse(body).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = doc.as_array().ok_or("top level is not a JSON array")?;
    let (meta, samples): (Vec<&Json>, Vec<&Json>) = events
        .iter()
        .partition(|e| e.get("ph").and_then(Json::as_str) == Some("M"));
    let named = |what: &str| {
        meta.iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some(what))
    };
    if !named("process_name") {
        return Err("the process is unnamed".into());
    }
    let recorder_named = meta.iter().any(|e| {
        e.get("name").and_then(Json::as_str) == Some("thread_name")
            && e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(Json::as_str)
                == Some("dbpl-recorder")
    });
    if !recorder_named {
        return Err("the recorder track is unnamed".into());
    }
    let mut tracks = BTreeSet::new();
    for (i, e) in samples.iter().enumerate() {
        if e.get("ph").and_then(Json::as_str) != Some("C") {
            return Err(format!("sample {i} is not a counter event"));
        }
        let name = e.get("name").and_then(Json::as_str);
        match (name, need_u64(e, "ts"), e.get("args")) {
            (Some(name), Some(_), Some(_)) => tracks.insert(name.to_string()),
            _ => return Err(format!("counter {i} lacks name/ts/args")),
        };
    }
    Ok(tracks)
}

/// What a valid workload artifact held.
#[derive(Debug)]
pub struct WorkloadSummary {
    /// Extent lines.
    pub extents: u64,
    /// Query lines.
    pub queries: u64,
    /// The distinct `get:<strategy>` strategies queried.
    pub get_strategies: BTreeSet<String>,
    /// Whether a `join:nested` query was logged.
    pub nested_join: bool,
    /// Whether a join with hoisted key paths (`join:<kind>[p,...]`) was.
    pub keyed_join: bool,
}

/// Validate a plan fingerprint against the shared grammar
/// (`get:<strategy>`, `join:<kind>` or `join:<kind>[p,...]`); returns
/// the strategy of a `get:` fingerprint.
fn check_fingerprint(fp: &str) -> Result<Option<&str>, String> {
    if let Some(strategy) = fp.strip_prefix("get:") {
        let ok = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_';
        if strategy.is_empty() || !strategy.chars().all(ok) {
            return Err(format!("malformed get strategy in `{fp}`"));
        }
        return Ok(Some(strategy));
    }
    let rest = fp
        .strip_prefix("join:")
        .ok_or_else(|| format!("fingerprint `{fp}` is neither get: nor join:"))?;
    let kind = rest.split('[').next().unwrap_or("");
    if kind.is_empty() || !kind.chars().all(|c| c.is_ascii_lowercase() || c == '_') {
        return Err(format!("malformed join kind in `{fp}`"));
    }
    if let Some(open) = rest.find('[') {
        let paths = rest[open + 1..]
            .strip_suffix(']')
            .ok_or_else(|| format!("unterminated key-path list in `{fp}`"))?;
        if paths.is_empty() || paths.split(',').any(str::is_empty) {
            return Err(format!("empty key path in `{fp}`"));
        }
    }
    Ok(None)
}

/// The aggregate one fingerprint's query lines sum to, or a top line
/// claims: count, rows in, rows out, total and max duration.
type Agg = (u64, u64, u64, u64, u64);

/// Check a `dbpl.workload.v1` export:
/// * line 1 is the header with its `top_k` count;
/// * extent lines are consistent: `ground_rows ≤ rows`, `fanout ≥ 1`,
///   and per path `1 ≤ present ≤ rows`, `ground ≤ present` and
///   `1 ≤ distinct ≤ present` (the counts are exact);
/// * query fingerprints obey the grammar and a `get` never returns more
///   rows than it read;
/// * top-K lines have consecutive ranks, non-increasing counts, and
///   aggregates equal to the sums over the raw query lines;
/// * **fingerprint ↔ counters**: the `get:<s>` query lines number
///   exactly the `get.strategy.<s>` counter delta over the same window.
pub fn check_workload(body: &str) -> Result<WorkloadSummary, String> {
    let mut lines = body
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let (_, header_line) = lines.next().ok_or("empty workload file")?;
    let header = json::parse(header_line).map_err(|e| format!("header is not JSON: {e}"))?;
    if header.get("schema").and_then(Json::as_str) != Some("dbpl.workload.v1") {
        return Err("header schema is not dbpl.workload.v1".into());
    }
    let header_top_k = need_u64(&header, "top_k").ok_or("header lacks top_k")?;

    let mut extents = 0u64;
    let mut sums: BTreeMap<String, Agg> = BTreeMap::new();
    let mut get_counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut tops: Vec<(u64, String, Agg)> = Vec::new();
    let mut trace_counters: Option<BTreeMap<String, u64>> = None;
    let (mut nested_join, mut keyed_join) = (false, false);
    for (lineno, line) in lines {
        let n = lineno + 1;
        let v = json::parse(line).map_err(|e| format!("line {n} is not JSON: {e}"))?;

        if let Some(name) = v.get("extent") {
            let name = name
                .as_str()
                .filter(|s| !s.is_empty())
                .ok_or_else(|| format!("line {n}: extent lacks a name"))?;
            let (Some(rows), Some(ground_rows), Some(fanout)) = (
                need_u64(&v, "rows"),
                need_u64(&v, "ground_rows"),
                need_u64(&v, "fanout"),
            ) else {
                return Err(format!("line {n}: extent `{name}` malformed"));
            };
            if ground_rows > rows {
                return Err(format!(
                    "line {n}: extent `{name}` has ground_rows {ground_rows} > rows {rows}"
                ));
            }
            if fanout == 0 || rows == 0 {
                return Err(format!(
                    "line {n}: extent `{name}` has no contributing rows"
                ));
            }
            let Some(Json::Obj(paths)) = v.get("paths") else {
                return Err(format!("line {n}: extent `{name}` lacks a paths object"));
            };
            for (p, ps) in paths {
                let (Some(present), Some(ground), Some(distinct)) = (
                    need_u64(ps, "present"),
                    need_u64(ps, "ground"),
                    need_u64(ps, "distinct"),
                ) else {
                    return Err(format!("line {n}: path `{name}.{p}` malformed"));
                };
                if present == 0 || present > rows || ground > present {
                    return Err(format!(
                        "line {n}: path `{name}.{p}` counts inconsistent: \
                         present {present}, ground {ground}, rows {rows}"
                    ));
                }
                if distinct == 0 || distinct > present {
                    return Err(format!(
                        "line {n}: path `{name}.{p}` has distinct {distinct} outside 1..={present}"
                    ));
                }
            }
            extents += 1;
        } else if let Some(q) = v.get("query") {
            let fp = q
                .get("fingerprint")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("line {n}: query lacks a fingerprint"))?;
            let strategy = check_fingerprint(fp).map_err(|e| format!("line {n}: {e}"))?;
            let (Some(rows_in), Some(rows_out), Some(dur_us)) = (
                need_u64(q, "rows_in"),
                need_u64(q, "rows_out"),
                need_u64(q, "dur_us"),
            ) else {
                return Err(format!("line {n}: query `{fp}` malformed"));
            };
            if let Some(s) = strategy {
                if rows_out > rows_in {
                    return Err(format!(
                        "line {n}: get query `{fp}` returned {rows_out} rows from {rows_in}"
                    ));
                }
                *get_counts.entry(s.to_string()).or_default() += 1;
            }
            keyed_join |= strategy.is_none() && fp.contains('[');
            nested_join |= fp == "join:nested";
            let s = sums.entry(fp.to_string()).or_default();
            *s = (
                s.0 + 1,
                s.1 + rows_in,
                s.2 + rows_out,
                s.3 + dur_us,
                s.4.max(dur_us),
            );
        } else if let Some(t) = v.get("top") {
            let fp = t
                .get("fingerprint")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("line {n}: top line lacks a fingerprint"))?;
            check_fingerprint(fp).map_err(|e| format!("line {n}: {e}"))?;
            let field = |k| need_u64(t, k).ok_or_else(|| format!("line {n}: top line lacks `{k}`"));
            let agg = (
                field("count")?,
                field("rows_in")?,
                field("rows_out")?,
                field("total_dur_us")?,
                field("max_dur_us")?,
            );
            tops.push((field("rank")?, fp.to_string(), agg));
        } else if v.get("trace_counters").is_some() {
            trace_counters = Some(
                counter_map(&v, "trace_counters")
                    .ok_or_else(|| format!("line {n}: trace_counters is not a u64 object"))?,
            );
        } else {
            return Err(format!("line {n}: unrecognized workload line"));
        }
    }

    if tops.len() as u64 != header_top_k {
        return Err(format!(
            "header top_k {header_top_k} but {} top lines",
            tops.len()
        ));
    }
    for (i, (rank, fp, agg)) in tops.iter().enumerate() {
        if *rank != i as u64 + 1 {
            return Err(format!("top ranks not consecutive at `{fp}`: rank {rank}"));
        }
        if i > 0 && agg.0 > tops[i - 1].2 .0 {
            return Err(format!("top counts increase at rank {rank} (`{fp}`)"));
        }
        let raw = sums.get(fp).copied().unwrap_or_default();
        if raw != *agg {
            return Err(format!(
                "top `{fp}` aggregates diverge from the raw query lines: {agg:?} vs {raw:?}"
            ));
        }
    }

    let trace = trace_counters.ok_or("no trace_counters line")?;
    for (name, &moved) in &trace {
        let strategy = name
            .strip_prefix("get.strategy.")
            .ok_or_else(|| format!("unexpected trace counter `{name}`"))?;
        let logged = get_counts.get(strategy).copied().unwrap_or(0);
        if logged != moved {
            return Err(format!(
                "fingerprint/counter mismatch for `{strategy}`: \
                 {logged} get:{strategy} records vs counter delta {moved}"
            ));
        }
    }
    if let Some(s) = get_counts
        .keys()
        .find(|s| !trace.contains_key(&format!("get.strategy.{s}")))
    {
        return Err(format!("get:{s} records but no get.strategy.{s} counter"));
    }
    Ok(WorkloadSummary {
        extents,
        queries: sums.values().map(|s| s.0).sum(),
        get_strategies: get_counts.into_keys().collect(),
        nested_join,
        keyed_join,
    })
}
