//! Transactional sessions, end to end: implicit per-program atomicity,
//! explicit `begin`/`commit`/`abort`, panic isolation, multi-store
//! commits, deadlines, and corruption quarantine.
//!
//! Run with `cargo run --example transactions`.

use dbpl::lang::Session;
use dbpl::obs::{self, MemorySink};
use dbpl::types::Type;
use dbpl::values::Value;
use std::sync::Arc;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("dbpl-txn-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;

    // Every transaction below also streams structured events into this
    // sink; the tail of the demo prints the JSONL log it collected.
    let sink = Arc::new(MemorySink::new());
    obs::set_sink(sink.clone());

    // ---------- 1. every program is a transaction ----------
    println!("== implicit per-program atomicity");
    let mut s = Session::with_store_dir(dir.join("store")).map_err(|e| e.msg.clone())?;
    let err = s
        .run(
            "type Person = {Name: Str}\n\
             put(db, dynamic {Name = 'ann'})\n\
             head[Int]([])", // <- fails here
        )
        .unwrap_err();
    println!("   program failed: {}", err.msg);
    println!(
        "   database objects after the failure: {} (the put rolled back)",
        s.db.len()
    );
    println!(
        "   `Person` survived? {} (the type declaration rolled back too)\n",
        s.db.env().lookup("Person").is_some()
    );

    // ---------- 2. explicit transactions span programs ----------
    println!("== begin / commit / abort");
    s.run("begin").map_err(|e| e.msg.clone())?;
    s.run("put(db, dynamic 1)").map_err(|e| e.msg.clone())?;
    s.run("put(db, dynamic 2)").map_err(|e| e.msg.clone())?;
    println!("   inside txn: {} objects staged", s.db.len());
    s.run("abort").map_err(|e| e.msg.clone())?;
    println!("   after abort: {} objects\n", s.db.len());

    // ---------- 3. a panicking program poisons nothing ----------
    println!("== panic isolation");
    // The session catches the unwind; silence the default hook's
    // backtrace so the demo output stays readable.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let err = s
        .run("put(db, dynamic 3)\npanic('simulated bug')\nput(db, dynamic 4)")
        .unwrap_err();
    std::panic::set_hook(default_hook);
    println!("   {}", err.msg);
    let out = s
        .run("put(db, dynamic 5)\nlen[Int](get[Int](db))")
        .map_err(|e| e.msg.clone())?;
    println!("   next program runs fine; Int count = {}\n", out[0]);

    // ---------- 4. one commit spans both store kinds ----------
    println!("== multi-store atomic commit");
    s.attach_intrinsic(dir.join("intr.log"))
        .map_err(|e| e.msg.clone())?;
    s.transaction(|s| {
        // Host-side staging into the intrinsic (log-structured) store…
        s.intrinsic
            .as_mut()
            .unwrap()
            .set_handle("audit", Type::Str, Value::Str("batch 1".into()));
        // …and language-level externs to the replicating store, all
        // covered by one commit-log record.
        s.run("extern('Batch', dynamic [1, 2, 3])")?;
        Ok(())
    })
    .map_err(|e| e.msg.clone())?;
    println!("   committed across intrinsic log + replicating store");
    let back = s
        .run("len[Int](coerce intern('Batch') to List[Int])")
        .map_err(|e| e.msg.clone())?;
    println!("   interned batch length: {}\n", back[0]);

    // ---------- 5. per-transaction deadlines ----------
    println!("== commit deadline");
    s.txn_deadline = Some(Duration::ZERO);
    let err = s.run("extern('Late', dynamic 9)").unwrap_err();
    println!("   {}", err.msg);
    s.txn_deadline = None;

    // ---------- 6. corruption quarantine ----------
    println!("\n== corruption quarantine");
    std::fs::write(dir.join("store").join("Damaged.dyn"), b"\xFFbit rot")?;
    let err = s.run("intern('Damaged')").unwrap_err();
    println!("   intern failed as it must: {}", err.msg);
    let ok = s
        .run("coerce intern('Batch') to List[Int]")
        .map_err(|e| e.msg.clone())?;
    println!("   but healthy handles still read: {}", ok[0]);
    for e in &s.quarantine_report().entries {
        println!("   quarantined: {} ({})", e.handle, e.cause);
    }

    // ---------- 7. the event log the sink collected ----------
    println!("\n== structured event log (JSONL)");
    obs::clear_sink();
    let events = sink.events();
    for e in &events {
        println!("   {}", e.to_jsonl());
    }
    assert!(
        events.iter().any(|e| e.kind() == "txn_commit"),
        "the demo committed, so the sink must have heard about it"
    );
    assert!(
        events.iter().any(|e| e.kind() == "quarantine"),
        "the corruption above must surface as a quarantine event"
    );

    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
