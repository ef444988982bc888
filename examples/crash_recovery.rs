//! Crash recovery, fault injection and salvage mode, end to end.
//!
//! Run with `cargo run --example crash_recovery`.

use dbpl::lang::Session;
use dbpl::persist::{FaultPlan, IntrinsicStore, LogFile, SimVfs};
use dbpl::types::Type;
use dbpl::values::Value;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Removed, with everything the stores wrote, when `dir` drops.
    let dir = dbpl::persist::TempDir::new("crash-demo")?;

    // ---------- 1. a torn tail is recovered, and the user is told ----------
    println!("== torn-tail recovery");
    let log = dir.join("torn.log");
    {
        let mut s = IntrinsicStore::open(&log)?;
        for i in 0..3 {
            s.set_handle(format!("h{i}"), Type::Int, Value::Int(i));
            s.commit()?;
        }
    }
    // A crash mid-append leaves bytes that cannot frame a record.
    use std::io::Write;
    std::fs::OpenOptions::new()
        .append(true)
        .open(&log)?
        .write_all(&[0xDE, 0xAD, 0xBE, 0xEF])?;

    let mut session = Session::new().map_err(|e| e.msg.clone())?;
    session.attach_intrinsic(&log).map_err(|e| e.msg.clone())?;
    for line in &session.out {
        println!("   {line}");
    }
    let store = session.intrinsic.as_ref().unwrap();
    println!(
        "   handles after recovery: {:?}",
        store.handles().keys().collect::<Vec<_>>()
    );

    // ---------- 2. salvage mode on a log normal open refuses ----------
    println!("\n== salvage mode");
    let poisoned = dir.join("poisoned.log");
    let _ = std::fs::remove_file(&poisoned);
    {
        let mut s = IntrinsicStore::open(&poisoned)?;
        s.set_handle("keep", Type::Int, Value::Int(42));
        s.commit()?;
    }
    {
        let mut l = LogFile::open(&poisoned)?;
        l.append(b"?record written by a newer version")?;
        l.sync()?;
    }
    match IntrinsicStore::open(&poisoned) {
        Err(e) => println!("   normal open: {e}"),
        Ok(_) => println!("   normal open unexpectedly succeeded!"),
    }
    let mut session = Session::new().map_err(|e| e.msg.clone())?;
    let report = session
        .attach_intrinsic_salvage(&poisoned)
        .map_err(|e| e.msg.clone())?;
    for line in &session.out {
        println!("   {line}");
    }
    let store = session.intrinsic.as_mut().unwrap();
    println!(
        "   salvaged 'keep' = {:?}, lost {} byte(s)",
        store.handle("keep").map(|(_, v)| v.clone()),
        report.lost_bytes
    );
    store.set_handle("more", Type::Int, Value::Int(1));
    match store.commit() {
        Err(e) => println!("   write refused: {e}"),
        Ok(_) => println!("   write unexpectedly accepted!"),
    }

    // ---------- 3. deterministic fault injection ----------
    println!("\n== fault injection: crash at the 7th I/O operation");
    let vfs = SimVfs::new();
    vfs.set_plan(FaultPlan {
        seed: 7,
        crash_at_op: Some(7),
        transient_one_in: None,
        ..FaultPlan::default()
    });
    let sim_log = std::path::Path::new("sim.log");
    let mut acked = 0;
    {
        let mut s = IntrinsicStore::open_with(Arc::new(vfs.clone()), sim_log)?;
        for i in 0..5 {
            s.set_handle(format!("k{i}"), Type::Int, Value::Int(i));
            match s.commit() {
                Ok(_) => acked += 1,
                Err(e) => {
                    println!("   commit {i} hit the injected fault: {e}");
                    break;
                }
            }
        }
    }
    vfs.recover(); // reboot: volatile state reverts to what was fsynced
    let s = IntrinsicStore::open_with(Arc::new(vfs), sim_log)?;
    println!(
        "   {acked} commit(s) acked before the crash; after reboot the store holds txn {} with handles {:?}",
        s.txn(),
        s.handles().keys().collect::<Vec<_>>()
    );
    Ok(())
}
