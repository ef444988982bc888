//! Unified observability, end to end: the metrics registry, structured
//! event sinks, query-plan introspection (`explain` / `explainJoin`),
//! how storage faults and recovery surface as counters and events, and
//! the flight recorder — a background sampler whose timeline answers
//! "what was the engine doing just now".
//!
//! Run with `cargo run --example observability`.

use dbpl::lang::{Server, Session};
use dbpl::obs::timeline::{RecorderConfig, Slo};
use dbpl::obs::{self, MemorySink};
use dbpl::persist::{FaultPlan, IntrinsicStore, SimVfs};
use dbpl::types::Type;
use dbpl::values::Value;
use std::sync::Arc;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("dbpl-obs-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;

    // ---------- 1. attach a sink, snapshot the registry ----------
    // Counters always accumulate in the process-global registry; the
    // sink additionally streams structured events while it is attached.
    let sink = Arc::new(MemorySink::new());
    obs::set_sink(sink.clone());
    let before = obs::global().snapshot();

    // ---------- 2. query-plan introspection ----------
    println!("== explain: which strategy ran my Get, and what did it cost?");
    let mut s = Session::with_store_dir(dir.join("store")).map_err(|e| e.msg.clone())?;
    let out = s
        .run(
            "type Person = {Name: Str}\n\
             type Employee = {Name: Str, Empno: Int}\n\
             put(db, dynamic {Name = 'ann'})\n\
             put(db, dynamic {Name = 'bob', Empno = 7})\n\
             put(db, dynamic 3)\n\
             explain[Person](db)",
        )
        .map_err(|e| e.msg.clone())?;
    println!("   {}", out[0]);
    let oracle = s.db.get_by_scan(&Type::named("Person"));
    println!(
        "   the paper's whole-store scan (the oracle) finds the same {} object(s)",
        oracle.len()
    );

    println!("\n== explainJoin: the partitioned generalized join");
    let out = s
        .run(
            "explainJoin[{K: Int, A: Int}][{K: Int, B: Int}](\n\
               [{K = 1, A = 10}, {K = 2, A = 20}],\n\
               [{K = 1, B = 30}, {K = 3, B = 40}])",
        )
        .map_err(|e| e.msg.clone())?;
    println!("   {}", out[0]);

    // ---------- 3. durable transactions stream events ----------
    println!("\n== transactions and corruption surface as events");
    s.run("begin\nextern('Audited', dynamic [1, 2, 3])\ncommit")
        .map_err(|e| e.msg.clone())?;
    std::fs::write(dir.join("store").join("Rotten.dyn"), b"\xFFbit rot")?;
    let err = s.run("intern('Rotten')").unwrap_err();
    println!("   intern of the damaged unit failed: {}", err.msg);
    println!("   (watch for txn_begin/txn_commit/quarantine in the log below)");

    // ---------- 4. injected faults are visible as retries ----------
    println!("\n== injected transient faults surface as retry events");
    let vfs = SimVfs::new();
    vfs.set_plan(FaultPlan {
        seed: 3,
        crash_at_op: None,
        transient_one_in: Some(5),
        ..FaultPlan::default()
    });
    {
        let mut istore = IntrinsicStore::open_with(Arc::new(vfs), std::path::Path::new("sim.log"))?;
        for i in 0..4 {
            istore.set_handle(format!("k{i}"), Type::Int, Value::Int(i));
            istore.commit()?;
        }
    }
    println!("   4 commits survived a fault every ~5th I/O op (see io.retries)");

    // ---------- 5. the flight recorder ----------
    // Detach the sink first: the sections above are the event-log demo;
    // the recorder watches the registry, not the sink.
    obs::clear_sink();
    println!("\n== the flight recorder: a sampled timeline of the registry");
    let server = Server::new().map_err(|e| e.msg.clone())?;
    server.start_recorder(RecorderConfig {
        interval: Duration::from_millis(2),
        capacity: 64,
        // An objective loose enough to stay healthy here; under real
        // overload it fires an slo_violation naming the busiest label.
        slos: vec![
            Slo::parse("server.queue_wait_us p99 < 10s over 100ms").map_err(|e| e.to_string())?
        ],
    });
    let mut operator = server.try_session().map_err(|e| e.msg.clone())?;
    operator.set_label("demo");
    for i in 0..20 {
        operator
            .run(&format!("extern('h{}', dynamic {i})", i % 4))
            .map_err(|e| e.msg.clone())?;
    }
    // Let the sampler tick a few more times past the burst.
    std::thread::sleep(Duration::from_millis(10));
    let out = operator.run("timeline(db)").map_err(|e| e.msg.clone())?;
    println!("   the `timeline(db)` builtin renders the live ring:");
    for line in out[0].trim_matches('\'').lines().take(6) {
        println!("     {line}");
    }
    let timeline = server
        .stop_recorder()
        .expect("the recorder was started above");
    println!(
        "   drained {} samples ({} evicted, {} violation(s)); first JSONL lines:",
        timeline.samples.len(),
        timeline.dropped,
        timeline.violations.len()
    );
    for line in timeline.to_jsonl().lines().take(2) {
        let line = if line.len() > 110 {
            format!("{}…", &line[..110])
        } else {
            line.to_string()
        };
        println!("     {line}");
    }
    // Smoke assertions: the recorder sampled, and the labeled session's
    // commits were attributed.
    assert!(timeline.samples.len() >= 2, "recorder barely sampled");
    let attributed = timeline
        .samples
        .last()
        .expect("at least the drain sample")
        .total
        .counter("server.session.demo.commits");
    assert!(attributed >= 20, "attributed {attributed} of 20 commits");
    server.shutdown();

    // ---------- 6. the numbers and the event log ----------
    let delta = obs::global().snapshot().delta_since(&before);
    println!("\n== counter deltas for this whole demo");
    for name in [
        "get.strategy.typed_lists",
        "get.strategy.scan",
        "get.rows_scanned",
        "get.rows_sealed",
        "join.strategy.partitioned",
        "join.partitioned.buckets",
        "subtype.cache.hits",
        "subtype.cache.misses",
        "vfs.writes",
        "vfs.fsyncs",
        "io.retries",
        "faults.injected",
        "events.txn_begin",
        "events.txn_commit",
        "events.quarantine",
        "events.retry",
    ] {
        println!("   {name} = {}", delta.counter(name));
    }

    println!("\n== the structured event log the sink collected (JSONL)");
    for e in sink.events() {
        println!("   {}", e.to_jsonl());
    }

    println!("\n== obs::global().snapshot() serializes the same registry");
    let json = obs::global().snapshot().to_json();
    println!("   {}…", &json[..json.len().min(120)]);

    // The demo is also a smoke test: the counters it claims to move
    // must actually move.
    assert!(delta.counter("events.txn_commit") >= 1);
    assert!(delta.counter("events.quarantine") >= 1);
    assert!(delta.counter("vfs.fsyncs") >= 1);
    assert!(delta.counter("faults.injected") >= 1);
    assert!(delta.counter("io.retries") >= 1);

    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
