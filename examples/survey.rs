//! The paper's survey, executed: each of the five language models doing
//! its characteristic thing — and hitting its characteristic restriction.
//!
//! Run with `cargo run --example survey`.

use dbpl::models::{
    capability, AdaplexSchema, AmberProgram, GalileoSchema, MetaClass, PascalRDatabase, TaxisSchema,
};
use dbpl::relation::Schema;
use dbpl::types::Type;
use dbpl::values::Value;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Removed, with everything the stores wrote, when `dir` drops.
    let dir = dbpl::persist::TempDir::new("survey")?;

    // ---------- Pascal/R ----------
    println!("== Pascal/R: type / extent / persistence cleanly separated");
    let mut pr = PascalRDatabase::open(dir.join("pascal_r.db"))?;
    pr.declare_relation(
        "Employees",
        Schema::new([("Name", Type::Str), ("Sal", Type::Int)])?,
    )?;
    pr.relation_mut("Employees")?
        .insert_row([("Name", Value::str("ann")), ("Sal", Value::Int(10))])?;
    pr.save()?;
    println!("   relation persisted; but arbitrary values:");
    println!("   {}", pr.store_value("X", Value::Int(3)).unwrap_err());

    // ---------- Taxis ----------
    println!("\n== Taxis: VARIABLE_CLASS EMPLOYEE isa PERSON");
    let mut tx = TaxisSchema::new();
    tx.declare_class(
        "PERSON",
        MetaClass::VariableClass,
        &[],
        [("Name", Type::Str)],
    )?;
    tx.declare_class(
        "EMPLOYEE",
        MetaClass::VariableClass,
        &["PERSON"],
        [("Empno", Type::Int), ("Department", Type::Str)],
    )?;
    let e = tx.new_instance(
        "EMPLOYEE",
        Value::record([
            ("Name", Value::str("J Doe")),
            ("Empno", Value::Int(1)),
            ("Department", Value::str("Sales")),
        ]),
    )?;
    println!(
        "   instance created; in PERSON's extent too: {}",
        tx.extent("PERSON")?.contains(&e)
    );
    tx.declare_class(
        "ADDRESS",
        MetaClass::AggregateClass,
        &[],
        [("City", Type::Str)],
    )?;
    println!(
        "   AGGREGATE_CLASS has no extent: {}",
        tx.extent("ADDRESS").unwrap_err()
    );

    // ---------- Adaplex ----------
    println!("\n== Adaplex: include directives, not structure");
    let mut ad = AdaplexSchema::new();
    ad.entity_type("Person", [("Name", Type::Str)])?;
    ad.entity_type("Employee", [("Name", Type::Str), ("Empno", Type::Int)])?;
    ad.entity_type("Impostor", [("Name", Type::Str), ("Empno", Type::Int)])?;
    ad.include("Employee", "Person")?;
    println!(
        "   Employee ≤ Person (declared): {}",
        ad.is_subtype("Employee", "Person")
    );
    println!(
        "   Impostor ≤ Person (same structure, no include): {}",
        ad.is_subtype("Impostor", "Person")
    );

    // ---------- Galileo ----------
    println!("\n== Galileo: type first, class second — even a class of Int");
    let mut ga = GalileoSchema::new();
    ga.define_class("favourites", Type::Int)?;
    ga.insert("favourites", Value::Int(42))?;
    println!("   class of integers: {:?}", ga.extent("favourites")?);
    println!(
        "   second extent on the same type: {}",
        ga.define_class("more", Type::Int).unwrap_err()
    );

    // ---------- Amber ----------
    println!("\n== Amber: no classes; dynamic values and derived extents");
    let mut am = AmberProgram::open(dir.join("amber"))?;
    am.env
        .declare("Person", Type::record([("Name", Type::Str)]))?;
    am.env.declare(
        "Employee",
        Type::record([("Name", Type::Str), ("Empno", Type::Int)]),
    )?;
    let d = am.dynamic(
        Type::named("Employee"),
        Value::record([("Name", Value::str("J Doe")), ("Empno", Value::Int(1))]),
    )?;
    am.add(d.clone());
    println!("   typeOf: {}", am.type_of(&d)?);
    println!(
        "   derived Person extent size: {}",
        am.extract(&Type::named("Person")).len()
    );
    am.extern_value("DBFile", &d)?;
    let back = am.intern("DBFile")?;
    println!("   extern/intern roundtrip: {}", back.value);

    // ---------- the comparison table ----------
    println!("\n== Capability matrix (each claim pinned by tests)\n");
    println!("{}", capability::to_markdown());
    Ok(())
}
