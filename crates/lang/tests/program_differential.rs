//! Program-sequence differential: one seeded sequence of MiniDBPL
//! programs runs through a standalone [`Session`], through one
//! [`ServerSession`], and through three `ServerSession`s taking turns
//! over one [`Server`]. All three must print the same lines, fail with
//! the same messages, and end with the same rows, schema and heap.
//!
//! The generator covers `type` declarations with `include`, `put`s of
//! heterogeneous subtypes, `get` consumed by `len`, `fold`, `map`,
//! `filter` and `head`, `extern`/`intern` (interned values are put back
//! into the database, one of them carrying a heap object), and programs
//! that fail after they have written.

use dbpl_core::Database;
use dbpl_lang::{LangError, Server, ServerSession, Session};
use dbpl_persist::TempDir;
use dbpl_types::{parse_type, Type};
use dbpl_values::{DynValue, Value};
use std::path::Path;

/// Programs per sequence.
const PROGRAMS: usize = 40;

/// The first program of every sequence. It also puts the unit
/// [`seed_store`] left, so every sequence interns a heap object.
const SCHEMA: &str = "
    type Person = {Name: Str}
    type Employee = {Name: Str, Empno: Int}
    type Student = {Name: Str, Gpa: Float}
    include Employee in Person
    include Student in Person
    put(db, intern('obj'))
";

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One generated statement.
fn statement(rng: &mut Rng) -> String {
    let k = rng.below(6);
    match rng.below(17) {
        0 => format!("put(db, dynamic {{Name = 'p{k}'}})"),
        1 => format!("put(db, dynamic {{Name = 'e{k}', Empno = {k}}})"),
        2 => format!("put(db, dynamic {{Name = 's{k}', Gpa = {k}.5}})"),
        3 => format!("put(db, dynamic {k})"),
        4 => "len(get[Person](db))".to_string(),
        5 => "fold(fn(a: Int, e: Employee) => a + e.Empno, 0, get[Employee](db))".to_string(),
        6 => "map(fn(p: Person) => p.Name, get[Person](db))".to_string(),
        7 => format!("filter(fn(e: Employee) => e.Empno > {k}, get[Employee](db))"),
        8 => "head(get[Student](db)).Name".to_string(),
        9 => format!("extern('h{k}', dynamic {{Name = 'x{k}', Empno = {k}}})"),
        10 => format!("put(db, intern('h{k}'))"),
        11 => format!("(coerce intern('h{k}') to Employee).Empno"),
        12 => "put(db, intern('obj'))".to_string(),
        // A subtype declared mid-sequence, which later reads see.
        13 => format!("type Manager = {{Name: Str, Empno: Int, Reports: Int}} include Manager in Employee put(db, dynamic {{Name = 'm{k}', Empno = {k}, Reports = 2}})"),
        14 => "len(get[Manager](db))".to_string(),
        // A declaration in a program that then fails: it must not stick,
        // so a later declaration of the name at another structure works.
        15 => format!("type Tmp = {{A: Int}} put(db, dynamic {{A = {k}}}) head[Int]([])"),
        _ => format!("type Tmp = {{A: Str}} put(db, dynamic {{A = 't{k}'}}) len(get[Tmp](db))"),
    }
}

/// A program: one to three statements, sometimes ending in a failure
/// after everything before it has written.
fn program(rng: &mut Rng) -> String {
    let n = 1 + rng.below(3);
    let mut stmts: Vec<String> = (0..n).map(|_| statement(rng)).collect();
    if rng.below(6) == 0 {
        stmts.push("extern('late', dynamic 1)".to_string());
        stmts.push("1 / 0".to_string());
    }
    stmts.join("\n")
}

fn sequence(seed: u64) -> Vec<String> {
    let mut rng = Rng(seed);
    std::iter::once(SCHEMA.to_string())
        .chain((0..PROGRAMS).map(|_| program(&mut rng)))
        .collect()
}

/// Put a unit that carries a heap object into the store at `dir`, so
/// interning it allocates in whatever database the program runs on.
fn seed_store(dir: &Path) {
    let mut s = Session::with_store_dir(dir).unwrap();
    let part_ty = parse_type("{Mass: Int}").unwrap();
    let part =
        s.db.alloc(part_ty, Value::record([("Mass", Value::Int(5))]))
            .unwrap();
    let ty = parse_type("{Name: Str, Part: {Mass: Int}}").unwrap();
    let value = Value::record([("Name", Value::str("obj")), ("Part", Value::Ref(part))]);
    s.stage_extern("obj", &DynValue::new(ty, value)).unwrap();
}

/// What a run leaves to compare: every program's output or error
/// message, then the final rows, schema (definitions and declared
/// supertypes) and heap.
#[derive(Debug, PartialEq)]
struct Trace {
    outputs: Vec<Result<Vec<String>, String>>,
    rows: Vec<DynValue>,
    schema: Vec<(String, Type, Vec<String>)>,
    heap: Vec<String>,
}

fn trace(outputs: Vec<Result<Vec<String>, LangError>>, db: &Database) -> Trace {
    let env = db.env();
    Trace {
        outputs: outputs.into_iter().map(|r| r.map_err(|e| e.msg)).collect(),
        rows: db.rows_from(0).cloned().collect(),
        schema: env
            .definitions()
            .map(|(name, ty)| {
                let sups = env.declared_supertypes(name).cloned().collect();
                (name.clone(), ty.clone(), sups)
            })
            .collect(),
        heap: db
            .heap()
            .iter()
            .map(|(oid, obj)| format!("{oid:?}: {} = {:?}", obj.ty, obj.value))
            .collect(),
    }
}

fn through_session(programs: &[String]) -> Trace {
    let dir = TempDir::new("prog-diff").unwrap();
    seed_store(&dir);
    let mut s = Session::with_store_dir(&dir).unwrap();
    let outputs = programs.iter().map(|p| s.run(p)).collect();
    trace(outputs, &s.db)
}

/// The sequence through `sessions` sessions of one server, program `i`
/// on session `i % sessions`.
fn through_server(programs: &[String], sessions: usize) -> Trace {
    let dir = TempDir::new("prog-diff").unwrap();
    seed_store(&dir);
    let server = Server::with_store_dir(&dir).unwrap();
    let mut ss: Vec<ServerSession> = (0..sessions).map(|_| server.session()).collect();
    let outputs = programs
        .iter()
        .enumerate()
        .map(|(i, p)| ss[i % sessions].run(p))
        .collect();
    trace(outputs, &ss[0].snapshot().db)
}

fn differential(seed: u64) {
    let programs = sequence(seed);
    let session = through_session(&programs);
    let failures = session.outputs.iter().filter(|o| o.is_err()).count();
    assert!(
        failures > 0 && failures < programs.len() / 2,
        "seed {seed}: {failures} of {} programs failed; the generator should mix both",
        programs.len()
    );
    assert!(
        !session.heap.is_empty(),
        "seed {seed}: no heap object interned"
    );
    for (what, other) in [
        ("one server session", through_server(&programs, 1)),
        ("three server sessions", through_server(&programs, 3)),
    ] {
        for (i, (a, b)) in session.outputs.iter().zip(&other.outputs).enumerate() {
            assert_eq!(
                a, b,
                "seed {seed}: program {i} differs on {what}:\n{}",
                programs[i]
            );
        }
        assert_eq!(session, other, "seed {seed}: final state differs on {what}");
    }
}

#[test]
fn seed_1() {
    differential(1);
}

#[test]
fn seed_2() {
    differential(2);
}

#[test]
fn seed_3() {
    differential(3);
}
