//! Workload introspection, end to end: the per-extent statistics catalog
//! (maintained incrementally at commit time, rebuildable with `analyze`),
//! the bounded query log with measured cost features, and the
//! `dbpl.workload.v1` JSONL artifact that joins the two views with the
//! trace counters — the planner inputs of ROADMAP item 3, inspectable
//! from a session today.
//!
//! Run with `cargo run --example workload`.

use dbpl::lang::Session;
use dbpl::stats::{extent_json, query_json, query_log, top_json};
use dbpl::types::Type;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---------- 1. the catalog is maintained, not recomputed ----------
    // Every committed put/remove updates the statistics catalog in
    // lockstep with the store: row counts, ground-row density, and a
    // removable distinct sketch per definite path, all per carried type.
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

    println!("== extentStats: the maintained catalog, per carried type");
    let out = s.run("extentStats(db)").map_err(|e| e.msg.clone())?;
    println!("{}\n", out[0]);

    // ---------- 2. inherited extents roll up their subtypes ----------
    // `Get[Person]` serves every Employee and Student too, so extent
    // statistics for the Person bound union all contributing carried
    // types — the fan-out is how many types feed the extent.
    let person = Type::named("Person");
    let e = s.db.extent_stats(&person);
    println!("== rollup for the Person extent");
    println!(
        "   rows={} ground_rows={} fanout={} (carried types feeding Get[Person])",
        e.rows, e.ground_rows, e.fanout
    );
    for (p, ps) in &e.paths {
        println!(
            "   path {}: present={} distinct~{}",
            p,
            ps.present,
            ps.sketch.estimate()
        );
    }

    // ---------- 3. the query log measures what actually ran ----------
    // Every Get and generalized join appends one record: the plan
    // fingerprint (`get:<strategy>`, `join:partitioned[Name]`), rows
    // in/out, and the measured duration. The ring is bounded and drops
    // oldest-first, so it is safe to leave on in production.
    query_log().clear();
    for _ in 0..3 {
        s.db.get(&person);
    }
    s.db.get_by_scan(&person);
    s.db.get_by_scan(&Type::named("Employee"));

    println!("\n== workload: recent queries and the heavy hitters");
    let out = s.run("workload(db)").map_err(|e| e.msg.clone())?;
    println!("{}\n", out[0]);

    // ---------- 4. analyze rebuilds; the differential invariant ----------
    // `observe_put`/`observe_remove` are exact inverses, so the
    // maintained catalog always equals a from-scratch rebuild — the
    // invariant the proptests and `workload_check` assert. `analyze`
    // replaces the catalog wholesale (the recovery hatch after, say, a
    // restored backup).
    assert!(s.db.stats_consistent(), "maintained catalog != rebuild");
    let out = s.run("analyze(db)").map_err(|e| e.msg.clone())?;
    println!("== {}", out[0]);
    assert!(s.db.stats_consistent());

    // ---------- 5. the dbpl.workload.v1 artifact ----------
    // `report --workload-out` joins the three views — extent statistics,
    // raw query records, top-K aggregates — into one JSONL file that
    // `workload_check` validates in CI. The same renderers are public:
    println!("\n== dbpl.workload.v1, rendered line by line");
    for (ty, _) in s.db.stats_catalog().types() {
        println!("{}", extent_json(&ty.to_string(), &s.db.extent_stats(ty)));
    }
    for rec in query_log().snapshot() {
        println!("{}", query_json(&rec));
    }
    for (i, agg) in query_log().top_k(3).iter().enumerate() {
        println!("{}", top_json(i + 1, agg));
    }

    // The heavy hitter is the fingerprint that ran three times.
    let top = query_log().top_k(1);
    assert_eq!(top[0].fingerprint, "get:typed_lists");
    assert_eq!(top[0].count, 3);
    println!("\nworkload walkthrough OK");
    Ok(())
}
