//! The workload query log, read from the span ring.
//!
//! Nothing records into a log of its own: every `Get` and every
//! generalized join already closes a root span (`get`, `join`) carrying
//! its plan and row counts as attributes. [`queries`] turns the spans
//! of a window — [`dbpl_obs::trace::buffered`], or a
//! [`dbpl_obs::trace::capture`] — into one [`QueryRecord`] per query,
//! and [`top_k`] aggregates them by plan fingerprint. With tracing
//! inactive there are no spans, so there is no log.
//!
//! Plan fingerprints follow a fixed grammar: `get:<strategy>` for extent
//! queries, `join:nested` / `join:partitioned[P1,P2]` (hoisted key
//! paths in brackets) for generalized joins — so heavy-hitter
//! aggregation groups by *plan shape*, not by query text.

use dbpl_obs::trace::SpanRecord;
use std::collections::{BTreeMap, HashMap};

/// One executed query: its plan fingerprint and measured cost features.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryRecord {
    /// Plan fingerprint (`get:<strategy>`, `join:partitioned[...]`, …).
    pub fingerprint: String,
    /// Rows the plan read (store rows for a `Get`, left·right product
    /// bound for a join).
    pub rows_in: u64,
    /// Rows the query produced.
    pub rows_out: u64,
    /// The query span's duration.
    pub dur_us: u64,
}

/// Aggregated statistics for one fingerprint (a heavy-hitter row).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FingerprintAgg {
    /// The shared plan fingerprint.
    pub fingerprint: String,
    /// How many queries carry it.
    pub count: u64,
    /// Summed rows in.
    pub rows_in: u64,
    /// Summed rows out.
    pub rows_out: u64,
    /// Summed duration.
    pub total_dur_us: u64,
    /// Worst single duration.
    pub max_dur_us: u64,
}

fn attr<'a>(span: &'a SpanRecord, key: &str) -> &'a str {
    span.attrs
        .iter()
        .find(|(k, _)| *k == key)
        .map_or("", |(_, v)| v.as_str())
}

fn count(span: &SpanRecord, key: &str) -> u64 {
    attr(span, key).parse().unwrap_or(0)
}

/// The queries among `spans`, in span completion order: one record per
/// `get` span (its store size read from the `get.plan` stage under it)
/// and per `join` span.
pub fn queries(spans: &[SpanRecord]) -> Vec<QueryRecord> {
    let store_rows: HashMap<Option<u64>, u64> = spans
        .iter()
        .filter(|s| s.name == "get.plan")
        .map(|s| (s.parent_id, count(s, "store_rows")))
        .collect();
    spans
        .iter()
        .filter_map(|s| {
            let (fingerprint, rows_in) = match s.name {
                "get" => (
                    format!("get:{}", attr(s, "strategy")),
                    store_rows.get(&Some(s.span_id)).copied().unwrap_or(0),
                ),
                "join" => {
                    let (kind, keys) = (attr(s, "strategy"), attr(s, "keys"));
                    let fingerprint = if keys.is_empty() {
                        format!("join:{kind}")
                    } else {
                        format!("join:{kind}[{keys}]")
                    };
                    let rows_in = count(s, "left").saturating_mul(count(s, "right"));
                    (fingerprint, rows_in)
                }
                _ => return None,
            };
            Some(QueryRecord {
                fingerprint,
                rows_in,
                rows_out: count(s, "rows_out"),
                dur_us: s.dur_us,
            })
        })
        .collect()
}

/// The top-K heavy hitters by fingerprint: aggregate the records by
/// fingerprint and rank by count (descending), fingerprint (ascending)
/// as the deterministic tiebreak.
pub fn top_k(records: &[QueryRecord], k: usize) -> Vec<FingerprintAgg> {
    let mut by_fp: BTreeMap<&str, FingerprintAgg> = BTreeMap::new();
    for r in records {
        let agg = by_fp.entry(&r.fingerprint).or_default();
        agg.count += 1;
        agg.rows_in += r.rows_in;
        agg.rows_out += r.rows_out;
        agg.total_dur_us += r.dur_us;
        agg.max_dur_us = agg.max_dur_us.max(r.dur_us);
    }
    let mut out: Vec<FingerprintAgg> = by_fp
        .into_iter()
        .map(|(fp, mut agg)| {
            agg.fingerprint = fp.to_string();
            agg
        })
        .collect();
    out.sort_by(|a, b| {
        b.count
            .cmp(&a.count)
            .then_with(|| a.fingerprint.cmp(&b.fingerprint))
    });
    out.truncate(k);
    out
}

/// Render a query record as one `dbpl.workload.v1` JSONL line.
pub fn query_json(r: &QueryRecord) -> String {
    format!(
        "{{\"query\":{{\"fingerprint\":\"{}\",\"rows_in\":{},\"rows_out\":{},\"dur_us\":{}}}}}",
        dbpl_obs::json_escape(&r.fingerprint),
        r.rows_in,
        r.rows_out,
        r.dur_us
    )
}

/// Render one heavy-hitter row (1-based rank) as a JSONL line.
pub fn top_json(rank: usize, a: &FingerprintAgg) -> String {
    format!(
        "{{\"top\":{{\"rank\":{rank},\"fingerprint\":\"{}\",\"count\":{},\"rows_in\":{},\
         \"rows_out\":{},\"total_dur_us\":{},\"max_dur_us\":{}}}}}",
        dbpl_obs::json_escape(&a.fingerprint),
        a.count,
        a.rows_in,
        a.rows_out,
        a.total_dur_us,
        a.max_dur_us
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        id: u64,
        parent: Option<u64>,
        attrs: &[(&'static str, &str)],
    ) -> SpanRecord {
        SpanRecord {
            trace_id: 1,
            span_id: id,
            parent_id: parent,
            name,
            start_us: 0,
            dur_us: id * 10,
            tid: 0,
            attrs: attrs.iter().map(|(k, v)| (*k, v.to_string())).collect(),
        }
    }

    #[test]
    fn get_and_join_spans_become_fingerprinted_records() {
        let spans = [
            span("get.plan", 2, Some(3), &[("store_rows", "8")]),
            span(
                "get",
                3,
                None,
                &[("strategy", "typed_lists"), ("rows_out", "5")],
            ),
            span("join.reduce", 4, Some(5), &[("rows_out", "2")]),
            span(
                "join",
                5,
                None,
                &[
                    ("strategy", "partitioned"),
                    ("left", "3"),
                    ("right", "4"),
                    ("keys", "Name,Dept.Id"),
                    ("rows_out", "2"),
                ],
            ),
            span(
                "join",
                6,
                None,
                &[
                    ("strategy", "nested"),
                    ("left", "1"),
                    ("right", "2"),
                    ("keys", ""),
                    ("rows_out", "1"),
                ],
            ),
        ];
        let got = queries(&spans);
        let want = [
            ("get:typed_lists", 8, 5, 30),
            ("join:partitioned[Name,Dept.Id]", 12, 2, 50),
            ("join:nested", 2, 1, 60),
        ];
        assert_eq!(got.len(), want.len());
        for (r, (fp, rows_in, rows_out, dur_us)) in got.iter().zip(want) {
            assert_eq!(
                (r.fingerprint.as_str(), r.rows_in, r.rows_out, r.dur_us),
                (fp, rows_in, rows_out, dur_us)
            );
        }
    }

    fn rec(fp: &str, dur: u64) -> QueryRecord {
        QueryRecord {
            fingerprint: fp.to_string(),
            rows_in: 10,
            rows_out: 3,
            dur_us: dur,
        }
    }

    #[test]
    fn top_k_ranks_by_count_then_fingerprint() {
        let mut records = vec![rec("get:scan", 5); 3];
        records.extend(vec![rec("get:typed_lists", 1); 3]);
        records.push(rec("join:nested", 100));
        let top = top_k(&records, 2);
        assert_eq!(top.len(), 2);
        // Equal counts tie-break on fingerprint.
        assert_eq!(top[0].fingerprint, "get:scan");
        assert_eq!(top[1].fingerprint, "get:typed_lists");
        assert_eq!(top[0].count, 3);
        assert_eq!(top[0].total_dur_us, 15);
        assert_eq!(top[0].max_dur_us, 5);
        assert_eq!(top[0].rows_in, 30);
    }

    #[test]
    fn json_lines_parse_and_pin_shape() {
        let r = rec("get:scan", 7);
        let line = query_json(&r);
        assert_eq!(
            line,
            "{\"query\":{\"fingerprint\":\"get:scan\",\"rows_in\":10,\"rows_out\":3,\"dur_us\":7}}"
        );
        dbpl_obs::json::parse(&line).unwrap();
        let agg = FingerprintAgg {
            fingerprint: "join:nested".into(),
            count: 2,
            rows_in: 20,
            rows_out: 6,
            total_dur_us: 9,
            max_dur_us: 8,
        };
        let t = top_json(1, &agg);
        assert!(t.contains("\"rank\":1") && t.contains("\"count\":2"));
        dbpl_obs::json::parse(&t).unwrap();
    }
}
