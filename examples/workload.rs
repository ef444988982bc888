//! Workload introspection, end to end: extent statistics counted when
//! asked for, the query log read from the trace ring, and the
//! `dbpl.workload.v1` JSONL lines `dbpl_bench::measure::Workload`
//! joins them into.
//!
//! Run with `cargo run --example workload`.

use dbpl::lang::Session;
use dbpl::stats::{extent_json, queries, query_json, top_json, top_k};
use dbpl::types::Type;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---------- 1. statistics are counted, not maintained ----------
    // A put writes the row and its typed-list position, nothing more.
    // `extentStats(db)` counts, per carried type, the rows, the
    // ground-row density and, per definite path, its presence and its
    // exact number of distinct values.
    let mut s = Session::new().map_err(|e| e.msg.clone())?;
    s.run(
        "type Person = {Name: Str}\n\
         type Employee = {Name: Str, Empno: Int}\n\
         type Student = {Name: Str, Gpa: Int}\n\
         put(db, dynamic {Name = 'ann', Empno = 1})\n\
         put(db, dynamic {Name = 'bob', Empno = 2})\n\
         put(db, dynamic {Name = 'cal', Gpa = 4})\n\
         put(db, dynamic {Name = 'dee'})",
    )
    .map_err(|e| e.msg.clone())?;

    println!("== extentStats: counted now, per carried type");
    let out = s.run("extentStats(db)").map_err(|e| e.msg.clone())?;
    println!("{}\n", out[0]);

    // ---------- 2. an inherited extent counts its subtypes ----------
    // `Get[Person]` serves every Employee and Student too, so the Person
    // extent's statistics pass over every typed list `Get` would read;
    // the fan-out is how many carried types feed the extent.
    let person = Type::named("Person");
    let e = s.db.extent_stats(&person);
    println!("== statistics of the Person extent");
    println!(
        "   rows={} ground_rows={} fanout={} (carried types feeding Get[Person])",
        e.rows, e.ground_rows, e.fanout
    );
    for (p, ps) in &e.paths {
        println!(
            "   path {}: present={} distinct={}",
            p, ps.present, ps.distinct
        );
    }

    // ---------- 3. the query log is the trace ring ----------
    // Every Get and generalized join closes a span carrying its plan and
    // row counts. While tracing is on, `workload(db)` reads those spans
    // back as query records: the plan fingerprint (`get:<strategy>`,
    // `join:partitioned[Name]`), rows in/out and the span's duration.
    let out = s.run("workload(db)").map_err(|e| e.msg.clone())?;
    println!("\n== {}", out[0]);
    dbpl::obs::trace::enable(1 << 12);
    dbpl::obs::trace::clear();
    for _ in 0..3 {
        s.db.get(&person);
    }
    s.db.get_by_scan(&person);
    s.db.get_by_scan(&Type::named("Employee"));

    println!("\n== workload: the heavy hitters among the traced queries");
    let out = s.run("workload(db)").map_err(|e| e.msg.clone())?;
    println!("{}\n", out[0]);
    let out = s.run("analyze(db)").map_err(|e| e.msg.clone())?;
    println!("== {}", out[0]);

    // ---------- 4. the dbpl.workload.v1 artifact ----------
    // `dbpl_bench::measure::Workload::to_jsonl` joins the three views —
    // extent statistics, raw query records, top-K aggregates — into one
    // JSONL file that `dbpl_bench::check::check_workload` validates. The
    // same renderers are public:
    println!("\n== dbpl.workload.v1, rendered line by line");
    for ty in s.db.stats_catalog().keys() {
        println!("{}", extent_json(&ty.to_string(), &s.db.extent_stats(ty)));
    }
    let records = queries(&dbpl::obs::trace::buffered());
    dbpl::obs::trace::disable();
    for rec in &records {
        println!("{}", query_json(rec));
    }
    for (i, agg) in top_k(&records, 3).iter().enumerate() {
        println!("{}", top_json(i + 1, agg));
    }

    // The heavy hitter is the fingerprint that ran three times.
    let top = top_k(&records, 1);
    assert_eq!(top[0].fingerprint, "get:typed_lists");
    assert_eq!(top[0].count, 3);
    println!("\nworkload walkthrough OK");
    Ok(())
}
