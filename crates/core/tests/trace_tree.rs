//! Trace-tree invariants for the instrumented `Get` paths: stage
//! durations account for the root, and span row attributes agree with
//! the metric deltas the same operation moved.

use dbpl_core::Database;
use dbpl_types::Type;
use dbpl_values::Value;

fn int_db(n: usize) -> Database {
    let mut db = Database::new();
    for i in 0..n {
        db.put(Type::Int, Value::Int(i as i64)).unwrap();
    }
    db
}

#[test]
fn get_stage_durations_and_rows_agree_with_stats() {
    let db = int_db(1000);
    let before = dbpl_obs::global().snapshot();
    let (rows, spans) = dbpl_obs::trace::capture("test.get", || db.get(&Type::Int).len());
    let delta = dbpl_obs::global().snapshot().delta_since(&before);
    assert_eq!(rows, 1000);

    let get = spans.iter().find(|s| s.name == "get").expect("get span");
    let attr = |s: &dbpl_obs::SpanRecord, k: &str| -> Option<String> {
        s.attrs
            .iter()
            .find(|(key, _)| *key == k)
            .map(|(_, v)| v.clone())
    };
    // The root's rows_out attribute is the real row count, which is also
    // what the metric registry saw. The registry is process-global and
    // other tests run concurrently, so the delta is `>=`.
    assert_eq!(attr(get, "rows_out").as_deref(), Some("1000"));
    assert_eq!(attr(get, "strategy").as_deref(), Some("typed_lists"));
    assert!(delta.counter("get.rows_sealed") >= 1000);

    // Stage accounting: the direct children of `get` (plan, index, seal)
    // are sequential and disjoint, so their durations sum to at most the
    // root's — "where did the time go" is answerable from the tree alone.
    for stage in ["get.plan", "get.index", "get.seal"] {
        assert!(
            spans
                .iter()
                .any(|s| s.name == stage && s.parent_id == Some(get.span_id)),
            "missing stage span {stage}"
        );
    }
    let child_sum: u64 = spans
        .iter()
        .filter(|s| s.parent_id == Some(get.span_id))
        .map(|s| s.dur_us)
        .sum();
    assert!(
        child_sum <= get.dur_us,
        "children of get ({child_sum}us) exceed the root ({}us)",
        get.dur_us
    );
    // The seal stage's rows_out matches the root's.
    let seal = spans.iter().find(|s| s.name == "get.seal").unwrap();
    assert_eq!(attr(seal, "rows_out").as_deref(), Some("1000"));
}

#[test]
fn the_scan_oracle_records_the_same_get_tree() {
    let db = int_db(300);
    let before = dbpl_obs::global().snapshot();
    let (rows, spans) = dbpl_obs::trace::capture("test.scan", || db.get_by_scan(&Type::Int).len());
    let delta = dbpl_obs::global().snapshot().delta_since(&before);
    assert_eq!(rows, 300);
    let get = spans.iter().find(|s| s.name == "get").expect("get span");
    assert!(get
        .attrs
        .iter()
        .any(|(k, v)| *k == "strategy" && v == "scan"));
    for stage in ["get.plan", "get.scan"] {
        assert!(
            spans
                .iter()
                .any(|s| s.name == stage && s.parent_id == Some(get.span_id)),
            "missing stage span {stage}"
        );
    }
    assert!(delta.counter("get.strategy.scan") >= 1);
    assert!(delta.counter("get.rows_scanned") >= 300);
}
