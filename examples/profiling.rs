//! Hierarchical tracing and query profiling, end to end: `run_profiled`
//! trace trees, `explainAnalyze` / `explainAnalyzeJoin` measured plans,
//! the slow-op log, and the Chrome-trace export.
//!
//! Run with `cargo run --example profiling`.

use dbpl::lang::Session;
use dbpl::obs::{self, Event, MemorySink};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("dbpl-profiling-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;

    let mut s = Session::with_store_dir(dir.join("store")).map_err(|e| e.msg.clone())?;

    // ---------- 1. profile a whole program ----------
    // Tracing is off by default (a span! site is then just a histogram
    // add, with no allocation); run_profiled captures one program.
    obs::trace::enable(1 << 16);
    println!("== run_profiled: the trace tree of a whole program");
    let (out, tree) = s
        .run_profiled(
            "type Person = {Name: Str}\n\
             put(db, dynamic {Name = 'ann'})\n\
             put(db, dynamic {Name = 'bob'})\n\
             extern('people', dynamic [1, 2, 3])\n\
             'committed'",
        )
        .map_err(|e| e.msg.clone())?;
    println!("   program said: {}", out.last().unwrap());
    for line in tree.lines() {
        println!("   {line}");
    }

    // ---------- 2. EXPLAIN ANALYZE from the language ----------
    println!("\n== explainAnalyze: one query, executed under its own trace");
    let out = s
        .run("explainAnalyze[Person](db)")
        .map_err(|e| e.msg.clone())?;
    for line in out[0].lines() {
        println!("   {line}");
    }

    println!("\n== explainAnalyzeJoin: the measured join plan");
    let out = s
        .run(
            "explainAnalyzeJoin[{K: Int, A: Int}][{K: Int, B: Int}](\n\
               [{K = 1, A = 10}, {K = 2, A = 20}],\n\
               [{K = 1, B = 30}, {K = 3, B = 40}])",
        )
        .map_err(|e| e.msg.clone())?;
    for line in out[0].lines() {
        println!("   {line}");
    }

    // ---------- 3. the slow-op log ----------
    // A zero threshold makes every root span "slow" — each slow_op event
    // carries its whole subtree, so the log alone localizes the time.
    println!("\n== slow-op log (threshold = 0 so everything qualifies)");
    let sink = Arc::new(MemorySink::new());
    obs::set_sink(sink.clone());
    obs::trace::set_slow_threshold_us(Some(0));
    s.run("put(db, dynamic 7)\nget[Int](db)")
        .map_err(|e| e.msg.clone())?;
    obs::trace::set_slow_threshold_us(None);
    obs::clear_sink();
    let slow: Vec<_> = sink
        .events()
        .into_iter()
        .filter(|e| matches!(e, Event::SlowOp { .. }))
        .collect();
    for e in &slow {
        let line = e.to_jsonl();
        println!("   {}…", &line[..line.len().min(110)]);
    }

    // ---------- 4. Chrome-trace export ----------
    let trace_path = dir.join("trace.json");
    s.export_trace_chrome(&trace_path)
        .map_err(|e| e.msg.clone())?;
    let json = std::fs::read_to_string(&trace_path)?;
    println!("\n== Chrome trace written ({} bytes)", json.len());
    println!("   open in chrome://tracing or https://ui.perfetto.dev");
    obs::trace::disable();

    // The demo is also a smoke test: the surfaces it claims must hold.
    assert!(tree.contains("run"), "profile tree has the run span");
    assert!(tree.contains("stmt"), "profile tree has statement spans");
    assert!(!slow.is_empty(), "zero threshold produced slow_op events");
    assert!(json.starts_with('['), "chrome export is a JSON array");

    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
