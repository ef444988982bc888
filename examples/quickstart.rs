//! Quickstart: types, the derived class hierarchy, the generic `Get`, and
//! object-level inheritance — the paper's core ideas in one page.
//!
//! Run with `cargo run --example quickstart`.

use dbpl::core::Database;
use dbpl::types::{parse_type, Type};
use dbpl::values::{self, Value};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Declare types. Names are abbreviations (Amber-style): the
    //    subtype hierarchy is inferred from structure.
    let mut db = Database::new();
    db.declare_type("Person", parse_type("{Name: Str, Address: {City: Str}}")?)?;
    db.declare_type(
        "Employee",
        parse_type("{Name: Str, Address: {City: Str}, Empno: Int, Dept: Str}")?,
    )?;
    db.declare_type(
        "Student",
        parse_type("{Name: Str, Address: {City: Str}, Gpa: Float}")?,
    )?;

    // 2. The class hierarchy is derived from the type hierarchy — no class
    //    declarations anywhere.
    let hierarchy = db.class_hierarchy();
    println!("derived class hierarchy (DOT):\n{}", hierarchy.to_dot());

    // 3. Populate a heterogeneous database of dynamic values.
    db.put(
        Type::named("Employee"),
        Value::record([
            ("Name", Value::str("J Doe")),
            ("Address", Value::record([("City", Value::str("Austin"))])),
            ("Empno", Value::Int(1234)),
            ("Dept", Value::str("Sales")),
        ]),
    )?;
    db.put(
        Type::named("Student"),
        Value::record([
            ("Name", Value::str("M Dee")),
            ("Address", Value::record([("City", Value::str("Moose"))])),
            ("Gpa", Value::float(3.7)),
        ]),
    )?;
    db.put(Type::Int, Value::Int(42))?; // the database is unconstrained

    // 4. The generic Get: one function for every type.
    //    Get : forall t. Database -> List[exists t' <= t. t']
    println!("Get signature: {}", dbpl::core::get_signature());
    for bound in ["Person", "Employee", "Student"] {
        let pkgs = db.get(&Type::named(bound));
        println!("get[{bound}] -> {} object(s)", pkgs.len());
        for p in &pkgs {
            println!("   witness {} : {}", p.witness(), p.open());
        }
    }
    // `get` reads typed lists; the paper's whole-store scan, kept as its
    // oracle, finds the same objects at a higher cost (see benches).
    assert_eq!(
        db.get(&Type::named("Person")),
        db.get_by_scan(&Type::named("Person"))
    );

    // 5. Object-level inheritance: add information to a Person to make an
    //    Employee (the paper's o ⊑ o′).
    let o1 = Value::record([
        ("Name", Value::str("N Bug")),
        ("Address", Value::record([("City", Value::str("Billings"))])),
    ]);
    let o2 = values::extend(
        &o1,
        [("Empno", Value::Int(7)), ("Dept", Value::str("Manuf"))],
    )?;
    assert!(values::leq(&o1, &o2), "o1 ⊑ o2: information only grew");
    println!("\nobject-level inheritance:\n  {o1}\n  ⊑ {o2}");

    // ...and joins merge information when consistent:
    let zip = Value::record([("Address", Value::record([("Zip", Value::Int(59101))]))]);
    let merged = values::join(&o2, &zip).expect("consistent");
    println!("  ⊔ {zip}\n  = {merged}");

    Ok(())
}
