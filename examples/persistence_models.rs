//! The three forms of persistence, side by side — including the
//! replicating model's update anomaly and the intrinsic model's immunity
//! to it.
//!
//! Run with `cargo run --example persistence_models`.

use dbpl::persist::{Image, IntrinsicStore, ReplicatingStore};
use dbpl::types::{Type, TypeEnv};
use dbpl::values::{DynValue, Heap, Value};
use std::collections::BTreeMap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Removed, with everything the stores wrote, when `dir` drops.
    let dir = dbpl::persist::TempDir::new("persist-demo")?;

    // ---------- 1. all-or-nothing ----------
    println!("== all-or-nothing: the whole session image");
    let mut heap = Heap::new();
    let env = TypeEnv::new();
    let o = heap.alloc(Type::Int, Value::Int(7));
    let bindings = BTreeMap::from([("root".to_string(), DynValue::new(Type::Int, Value::Ref(o)))]);
    let image_path = dir.join("session.image");
    Image::capture(&env, &heap, &bindings).save(&image_path)?;
    let (_, heap2, bindings2) = Image::load(&image_path)?.restore()?;
    let ro = bindings2["root"].value.as_ref_oid().unwrap();
    println!("   resumed session sees: {}", heap2.get(ro)?.value);
    println!("   (no sharing between programs, no volatile/durable split — by design)");

    // ---------- 2. replicating: the update anomaly ----------
    println!("\n== replicating: extern/intern with copy semantics");
    let store = ReplicatingStore::open(dir.join("replicating"))?;
    let mut h = Heap::new();
    let shared = h.alloc(Type::Int, Value::Int(100));
    let a = DynValue::new(Type::Top, Value::record([("c", Value::Ref(shared))]));
    let b = DynValue::new(Type::Top, Value::record([("c", Value::Ref(shared))]));
    store.extern_value("A", &a, &h)?;
    store.extern_value("B", &b, &h)?;
    println!(
        "   shared payload stored twice: A={}B, B={}B",
        store.stored_bytes("A")?,
        store.stored_bytes("B")?
    );

    let mut h2 = Heap::new();
    let ia = store.intern("A", &mut h2)?;
    let ib = store.intern("B", &mut h2)?;
    let ca = ia.value.field("c").unwrap().as_ref_oid().unwrap();
    let cb = ib.value.field("c").unwrap().as_ref_oid().unwrap();
    h2.update(ca, Value::Int(999))?;
    println!(
        "   after updating through A's copy: A sees {}, B sees {}  <- the update anomaly",
        h2.get(ca)?.value,
        h2.get(cb)?.value
    );

    // ---------- 3. intrinsic: no copies, no anomaly ----------
    println!("\n== intrinsic: handles are roots; objects are shared");
    let log = dir.join("intrinsic.log");
    let _ = std::fs::remove_file(&log);
    let mut s = IntrinsicStore::open(&log)?;
    let c = s.alloc(Type::Int, Value::Int(100));
    s.set_handle("a", Type::Top, Value::record([("c", Value::Ref(c))]));
    s.set_handle("b", Type::Top, Value::record([("c", Value::Ref(c))]));
    s.commit()?;
    s.update(c, Value::Int(999))?;
    s.commit()?;
    drop(s);
    let s = IntrinsicStore::open(&log)?;
    for hname in ["a", "b"] {
        let (_, v) = s.handle(hname).unwrap();
        let o = v.field("c").unwrap().as_ref_oid().unwrap();
        println!("   after reopen, handle {hname} sees {}", s.get(o)?.value);
    }
    println!("   one object, every handle sees the update — no anomaly, no duplication");
    println!("   log size: {} bytes (compactable)", s.stored_bytes()?);

    // Garbage: drop a handle, sweep, commit.
    let mut s = s;
    s.remove_handle("b");
    let dead = s.sweep();
    println!("   dropped handle b; swept {} object(s)", dead.len());
    s.commit()?;

    Ok(())
}
