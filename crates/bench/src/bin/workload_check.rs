//! Structural checker for `report --workload-out` output: parses the
//! `dbpl.workload.v1` JSONL artifact and asserts the invariants CI
//! relies on — exits nonzero with a message on the first violation. Run
//! as `cargo run -p dbpl-bench --bin workload_check -- target/workload.jsonl
//! [--expect-smoke-workload]`.
//!
//! Checks:
//! * line 1 is the `dbpl.workload.v1` header with its `top_k` count;
//! * extent lines are internally consistent: `ground_rows ≤ rows`,
//!   `fanout ≥ 1`, and per path `1 ≤ present`, `ground ≤ present ≤
//!   rows` and `1 ≤ distinct ≤ present` (the counts are exact);
//! * query fingerprints obey the shared grammar (`get:<strategy>`,
//!   `join:<kind>` or `join:<kind>[p,...]`) and a `get` never returns
//!   more rows than it read;
//! * top-K lines have consecutive ranks, non-increasing counts, and
//!   aggregates that exactly equal the sums over the raw query lines
//!   per fingerprint;
//! * **fingerprint ↔ trace consistency** — the number of `get:<s>`
//!   query records equals the `get.strategy.<s>` counter delta measured
//!   over the same window.
//!
//! With `--expect-smoke-workload` (the CI `workload-smoke` mode) the
//! artifact must additionally cover a mixed workload: at least two
//! distinct `get` strategies and both join kinds, the partitioned one
//! with at least one hoisted key path.

use dbpl_obs::json::{self, Json};
use std::collections::BTreeMap;
use std::process::ExitCode;

fn fail(msg: &str) -> ExitCode {
    eprintln!("workload_check FAILED: {msg}");
    ExitCode::FAILURE
}

/// An object member that must be a `u64`-valued number.
fn need_u64(obj: &Json, key: &str) -> Option<u64> {
    obj.get(key).and_then(Json::as_u64)
}

/// Validate a plan fingerprint against the shared grammar; returns the
/// strategy name for `get:` fingerprints.
fn check_fingerprint(fp: &str) -> Result<Option<&str>, String> {
    if let Some(strategy) = fp.strip_prefix("get:") {
        if strategy.is_empty()
            || !strategy
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        {
            return Err(format!("malformed get strategy in `{fp}`"));
        }
        return Ok(Some(strategy));
    }
    if let Some(rest) = fp.strip_prefix("join:") {
        let kind = rest.split('[').next().unwrap_or("");
        if kind.is_empty() || !kind.chars().all(|c| c.is_ascii_lowercase() || c == '_') {
            return Err(format!("malformed join kind in `{fp}`"));
        }
        if let Some(open) = rest.find('[') {
            let inner = &rest[open + 1..];
            let Some(paths) = inner.strip_suffix(']') else {
                return Err(format!("unterminated key-path list in `{fp}`"));
            };
            if paths.is_empty() || paths.split(',').any(str::is_empty) {
                return Err(format!("empty key path in `{fp}`"));
            }
        }
        return Ok(None);
    }
    Err(format!("fingerprint `{fp}` is neither get: nor join:"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let expect_smoke = args.iter().any(|a| a == "--expect-smoke-workload");
    let path = match args.iter().find(|a| !a.starts_with("--")) {
        Some(p) => p.clone(),
        None => return fail("usage: workload_check <workload.jsonl> [--expect-smoke-workload]"),
    };
    let body = match std::fs::read_to_string(&path) {
        Ok(b) => b,
        Err(e) => return fail(&format!("cannot read {path}: {e}")),
    };
    let mut lines = body
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());

    // --- Header ---
    let Some((_, header_line)) = lines.next() else {
        return fail("empty workload file");
    };
    let header = match json::parse(header_line) {
        Ok(h) => h,
        Err(e) => return fail(&format!("header is not valid JSON: {e}")),
    };
    if header.get("schema").and_then(Json::as_str) != Some("dbpl.workload.v1") {
        return fail("header schema is not dbpl.workload.v1");
    }
    let Some(header_top_k) = need_u64(&header, "top_k") else {
        return fail("header lacks top_k");
    };

    // --- Body lines, discriminated by their single top-level key ---
    let mut extents = 0u64;
    let mut query_counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut query_sums: BTreeMap<String, (u64, u64, u64, u64)> = BTreeMap::new();
    let mut get_strategy_counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut tops: Vec<(u64, String, u64, u64, u64, u64, u64)> = Vec::new();
    let mut trace_counters: Option<BTreeMap<String, u64>> = None;
    let mut seen_partitioned_with_key = false;
    let mut seen_nested_join = false;

    for (lineno, line) in lines {
        let n = lineno + 1;
        let v = match json::parse(line) {
            Ok(v) => v,
            Err(e) => return fail(&format!("line {n} is not valid JSON: {e}")),
        };

        if let Some(name) = v.get("extent") {
            // Extent lines are flat: the `extent` member is the name and
            // the statistics ride alongside it.
            let name = match name.as_str() {
                Some(s) if !s.is_empty() => s,
                _ => return fail(&format!("line {n}: extent lacks a name")),
            };
            let e = &v;
            let (Some(rows), Some(ground_rows), Some(fanout)) = (
                need_u64(e, "rows"),
                need_u64(e, "ground_rows"),
                need_u64(e, "fanout"),
            ) else {
                return fail(&format!("line {n}: extent `{name}` malformed"));
            };
            if ground_rows > rows {
                return fail(&format!(
                    "line {n}: extent `{name}` has ground_rows {ground_rows} > rows {rows}"
                ));
            }
            if fanout == 0 || rows == 0 {
                return fail(&format!(
                    "line {n}: extent `{name}` exported with no contributing rows"
                ));
            }
            let Some(Json::Obj(paths)) = e.get("paths") else {
                return fail(&format!("line {n}: extent `{name}` lacks a paths object"));
            };
            for (p, ps) in paths {
                let (Some(present), Some(ground), Some(distinct)) = (
                    need_u64(ps, "present"),
                    need_u64(ps, "ground"),
                    need_u64(ps, "distinct"),
                ) else {
                    return fail(&format!("line {n}: path `{name}.{p}` malformed"));
                };
                if present == 0 || present > rows || ground > present {
                    return fail(&format!(
                        "line {n}: path `{name}.{p}` counts inconsistent: \
                         present {present}, ground {ground}, rows {rows}"
                    ));
                }
                if distinct == 0 || distinct > present {
                    return fail(&format!(
                        "line {n}: path `{name}.{p}` has distinct {distinct} \
                         outside 1..={present}"
                    ));
                }
            }
            extents += 1;
            continue;
        }

        if let Some(q) = v.get("query") {
            let Some(fp) = q.get("fingerprint").and_then(Json::as_str) else {
                return fail(&format!("line {n}: query lacks a fingerprint"));
            };
            let strategy = match check_fingerprint(fp) {
                Ok(s) => s,
                Err(e) => return fail(&format!("line {n}: {e}")),
            };
            let (Some(rows_in), Some(rows_out), Some(dur_us)) = (
                need_u64(q, "rows_in"),
                need_u64(q, "rows_out"),
                need_u64(q, "dur_us"),
            ) else {
                return fail(&format!("line {n}: query `{fp}` malformed"));
            };
            if strategy.is_some() && rows_out > rows_in {
                return fail(&format!(
                    "line {n}: get query `{fp}` returned {rows_out} rows from {rows_in}"
                ));
            }
            if let Some(s) = strategy {
                *get_strategy_counts.entry(s.to_string()).or_default() += 1;
            } else if fp.contains('[') {
                seen_partitioned_with_key = true;
            } else if fp == "join:nested" {
                seen_nested_join = true;
            }
            *query_counts.entry(fp.to_string()).or_default() += 1;
            let sums = query_sums.entry(fp.to_string()).or_default();
            sums.0 += rows_in;
            sums.1 += rows_out;
            sums.2 += dur_us;
            sums.3 = sums.3.max(dur_us);
            continue;
        }

        if let Some(t) = v.get("top") {
            let (Some(rank), Some(count), Some(rows_in), Some(rows_out), Some(total), Some(max)) = (
                need_u64(t, "rank"),
                need_u64(t, "count"),
                need_u64(t, "rows_in"),
                need_u64(t, "rows_out"),
                need_u64(t, "total_dur_us"),
                need_u64(t, "max_dur_us"),
            ) else {
                return fail(&format!("line {n}: top line malformed"));
            };
            let Some(fp) = t.get("fingerprint").and_then(Json::as_str) else {
                return fail(&format!("line {n}: top line lacks a fingerprint"));
            };
            if let Err(e) = check_fingerprint(fp) {
                return fail(&format!("line {n}: {e}"));
            }
            tops.push((rank, fp.to_string(), count, rows_in, rows_out, total, max));
            continue;
        }

        if v.get("trace_counters").is_some() {
            let Some(Json::Obj(m)) = v.get("trace_counters") else {
                return fail(&format!("line {n}: trace_counters is not an object"));
            };
            let mut out = BTreeMap::new();
            for (k, c) in m {
                let Some(c) = c.as_u64() else {
                    return fail(&format!("line {n}: trace counter `{k}` is not a u64"));
                };
                out.insert(k.clone(), c);
            }
            trace_counters = Some(out);
            continue;
        }

        return fail(&format!("line {n}: unrecognized workload line"));
    }

    // --- Top-K: ranks, ordering, and agreement with the raw records ---
    if tops.len() as u64 != header_top_k {
        return fail(&format!(
            "header top_k {header_top_k} but {} top lines",
            tops.len()
        ));
    }
    for (i, (rank, fp, count, rows_in, rows_out, total, max)) in tops.iter().enumerate() {
        if *rank != i as u64 + 1 {
            return fail(&format!("top ranks not consecutive at `{fp}`: rank {rank}"));
        }
        if i > 0 && *count > tops[i - 1].2 {
            return fail(&format!("top counts increase at rank {rank} (`{fp}`)"));
        }
        let qc = query_counts.get(fp).copied().unwrap_or(0);
        if qc != *count {
            return fail(&format!(
                "top `{fp}` claims count {count} but {qc} query lines carry it"
            ));
        }
        let (si, so, st, sm) = query_sums.get(fp).copied().unwrap_or_default();
        if (si, so, st, sm) != (*rows_in, *rows_out, *total, *max) {
            return fail(&format!(
                "top `{fp}` aggregates diverge from the raw query lines: \
                 ({rows_in},{rows_out},{total},{max}) vs ({si},{so},{st},{sm})"
            ));
        }
    }

    // --- Fingerprint ↔ trace consistency over the same window ---
    let Some(trace) = &trace_counters else {
        return fail("no trace_counters line");
    };
    for (name, &moved) in trace {
        let Some(strategy) = name.strip_prefix("get.strategy.") else {
            return fail(&format!("unexpected trace counter `{name}`"));
        };
        let logged = get_strategy_counts.get(strategy).copied().unwrap_or(0);
        if logged != moved {
            return fail(&format!(
                "fingerprint/trace mismatch for `{strategy}`: \
                 {logged} get:{strategy} records vs counter delta {moved}"
            ));
        }
    }
    for (strategy, &logged) in &get_strategy_counts {
        if !trace.contains_key(&format!("get.strategy.{strategy}")) {
            return fail(&format!(
                "{logged} get:{strategy} records but no get.strategy.{strategy} \
                 counter in the trace window"
            ));
        }
    }

    // --- Smoke-workload mode: the CI contract ---
    if expect_smoke {
        if get_strategy_counts.len() < 2 {
            return fail(&format!(
                "smoke workload covered only {} get strategies, want ≥ 2",
                get_strategy_counts.len()
            ));
        }
        if !seen_partitioned_with_key {
            return fail("smoke workload has no partitioned join with hoisted key paths");
        }
        if !seen_nested_join {
            return fail("smoke workload has no nested join");
        }
        if extents == 0 {
            return fail("smoke workload exported no extent statistics");
        }
    }

    let queries: u64 = query_counts.values().sum();
    println!(
        "workload_check OK: {extents} extents, {queries} queries over {} fingerprints, \
         top-{} verified against raw records, fingerprints consistent with trace \
         counters{}",
        query_counts.len(),
        tops.len(),
        if expect_smoke {
            " (mixed smoke workload covered)"
        } else {
            ""
        }
    );
    ExitCode::SUCCESS
}
