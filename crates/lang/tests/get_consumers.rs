//! Every way a program can consume a `get` result, with outputs pinned.
//!
//! `get` hands out unopened packages that share the stored rows; the
//! evaluator converts one only where the program looks inside it. These
//! programs touch each consumer — field, `with`, `case`, `==`,
//! `distinct`, `print`/`str`, `dynamic` + `put`, `extern`, the list
//! builtins, and builtins passed to `map` — and must print exactly what
//! the evaluator printed when `get` converted every row eagerly. Each
//! runs on a single-user `Session` and on a `ServerSession`.

use dbpl_lang::{Server, Session};
use dbpl_types::Type;
use dbpl_values::Value;
use std::collections::BTreeSet;

const SETUP: &str = "
    type Person = {Name: Str, Age: Int}
    type Employee = {Name: Str, Age: Int, Dept: Str}
    type Shape = <Circle: Float | Square: Float>
    type Drawn = {Name: Str, Age: Int, Shape: Shape, Tags: List[Str]}
    put(db, dynamic {Name = 'ann', Age = 31})
    put(db, dynamic {Name = 'bob', Age = 45, Dept = 'Ops'})
    put(db, dynamic {Name = 'cy', Age = 28, Dept = 'Dev'})
    put(db, dynamic {Name = 'dee', Age = 52, Shape = tag Circle 1.5, Tags = ['x', 'y']})
    put(db, dynamic {Name = 'eve', Age = 19, Shape = tag Square 2.0, Tags = ['z']})
    put(db, dynamic 7)
    put(db, dynamic 35)
";

/// `(program, the lines it prints)`, run after [`SETUP`].
const CORPUS: &[(&str, &[&str])] = &[
    // Field projection, straight off the bound variable and nested.
    ("print(map(fn(p: Person) => p.Name, get[Person](db)))", &["['ann', 'bob', 'cy', 'dee', 'eve']"]),
    (
        "print(map(fn(d: Drawn) => d.Tags, get[Drawn](db)))",
        &["[['x', 'y'], ['z']]"],
    ),
    ("print(head(get[Employee](db)).Dept)", &["'Ops'"]),
    // `with`.
    (
        "print(map(fn(p: Person) => p with {Age = p.Age + 1}, get[Person](db)))",
        &["[{Age = 32, Name = 'ann'}, {Age = 46, Dept = 'Ops', Name = 'bob'}, {Age = 29, Dept = 'Dev', Name = 'cy'}, {Age = 53, Name = 'dee', Shape = Circle(1.5), Tags = ['x', 'y']}, {Age = 20, Name = 'eve', Shape = Square(2.0), Tags = ['z']}]"],
    ),
    // `case` on a stored variant.
    (
        "print(map(fn(d: Drawn) => case d.Shape of Circle r => r | Square w => w * 2.0, get[Drawn](db)))",
        &["[1.5, 4.0]"],
    ),
    (
        "print(case head(get[Drawn](db)).Shape of Circle r => 'circle' | Square w => 'square')",
        &["'circle'"],
    ),
    // `==`, on whole lists, single rows and inside a predicate.
    ("print(get[Person](db) == get[Person](db))", &["true"]),
    ("print(get[Employee](db) == get[Person](db))", &["false"]),
    (
        "print(head(get[Employee](db)) == {Name = 'bob', Age = 45, Dept = 'Ops'})",
        &["true"],
    ),
    (
        "print(len(filter(fn(p: Person) => p == head(get[Person](db)), get[Person](db))))",
        &["1"],
    ),
    // `distinct`.
    (
        "print(len(distinct(append(get[Employee](db), get[Employee](db)))))",
        &["2"],
    ),
    ("print(distinct(get[Int](db)))", &["[7, 35]"]),
    // `print`, `str` and a bare expression statement.
    ("print(get[Employee](db))", &["[{Age = 45, Dept = 'Ops', Name = 'bob'}, {Age = 28, Dept = 'Dev', Name = 'cy'}]"]),
    ("print(str(head(get[Drawn](db))))", &["'{Age = 52, Name = 'dee', Shape = Circle(1.5), Tags = ['x', 'y']}'"]),
    ("get[Drawn](db)", &["[{Age = 52, Name = 'dee', Shape = Circle(1.5), Tags = ['x', 'y']}, {Age = 19, Name = 'eve', Shape = Square(2.0), Tags = ['z']}]"]),
    ("print(get[Top](db))", &["[{Age = 31, Name = 'ann'}, {Age = 45, Dept = 'Ops', Name = 'bob'}, {Age = 28, Dept = 'Dev', Name = 'cy'}, {Age = 52, Name = 'dee', Shape = Circle(1.5), Tags = ['x', 'y']}, {Age = 19, Name = 'eve', Shape = Square(2.0), Tags = ['z']}, 7, 35]"]),
    // `dynamic` + `put`, `typeof` and `coerce`.
    (
        "put(db, dynamic head(get[Employee](db)))\nprint(len(get[Employee](db)))",
        &["3"],
    ),
    (
        "put(db, dynamic get[Employee](db))\nprint(len(get[List[Employee]](db)))\nprint(head(get[List[Employee]](db)))",
        &["1", "[{Age = 45, Dept = 'Ops', Name = 'bob'}, {Age = 28, Dept = 'Dev', Name = 'cy'}]"],
    ),
    ("print(typeof (dynamic head(get[Drawn](db))))", &["'{Age: Int, Name: Str, Shape: <Circle: Float>, Tags: List[Str]}'"]),
    (
        "print((coerce (dynamic head(get[Employee](db))) to Person).Name)",
        &["'bob'"],
    ),
    ("print(map(fn(d: Drawn) => dynamic d, get[Drawn](db)))", &["[dynamic({Age = 52, Name = 'dee', Shape = Circle(1.5), Tags = ['x', 'y']} : {Age: Int, Name: Str, Shape: <Circle: Float>, Tags: List[Str]}), dynamic({Age = 19, Name = 'eve', Shape = Square(2.0), Tags = ['z']} : {Age: Int, Name: Str, Shape: <Square: Float>, Tags: List[Str]})]"]),
    // `extern`, read back through `intern`.
    (
        "extern('staff', dynamic get[Employee](db))\nprint(coerce intern('staff') to List[Employee])",
        &["[{Age = 45, Dept = 'Ops', Name = 'bob'}, {Age = 28, Dept = 'Dev', Name = 'cy'}]"],
    ),
    // The list builtins.
    ("print(head(get[Person](db)).Name)", &["'ann'"]),
    ("print(tail(get[Person](db)))", &["[{Age = 45, Dept = 'Ops', Name = 'bob'}, {Age = 28, Dept = 'Dev', Name = 'cy'}, {Age = 52, Name = 'dee', Shape = Circle(1.5), Tags = ['x', 'y']}, {Age = 19, Name = 'eve', Shape = Square(2.0), Tags = ['z']}]"]),
    (
        "print(cons({Name = 'zed', Age = 1}, get[Person](db)))",
        &["[{Age = 1, Name = 'zed'}, {Age = 31, Name = 'ann'}, {Age = 45, Dept = 'Ops', Name = 'bob'}, {Age = 28, Dept = 'Dev', Name = 'cy'}, {Age = 52, Name = 'dee', Shape = Circle(1.5), Tags = ['x', 'y']}, {Age = 19, Name = 'eve', Shape = Square(2.0), Tags = ['z']}]"],
    ),
    ("print(append(get[Person](db), get[Drawn](db)))", &["[{Age = 31, Name = 'ann'}, {Age = 45, Dept = 'Ops', Name = 'bob'}, {Age = 28, Dept = 'Dev', Name = 'cy'}, {Age = 52, Name = 'dee', Shape = Circle(1.5), Tags = ['x', 'y']}, {Age = 19, Name = 'eve', Shape = Square(2.0), Tags = ['z']}, {Age = 52, Name = 'dee', Shape = Circle(1.5), Tags = ['x', 'y']}, {Age = 19, Name = 'eve', Shape = Square(2.0), Tags = ['z']}]"]),
    ("print(reverse(get[Employee](db)))", &["[{Age = 28, Dept = 'Dev', Name = 'cy'}, {Age = 45, Dept = 'Ops', Name = 'bob'}]"]),
    ("print(len(get[Person](db)))\nprint(isEmpty(get[Employee](db)))", &["5", "false"]),
    (
        "print(len(filter(fn(p: Person) => p.Age > 30, get[Person](db))))",
        &["3"],
    ),
    (
        "print(fold(fn(acc: Int, p: Person) => acc + p.Age, 0, get[Person](db)))",
        &["175"],
    ),
    (
        "print(fold(fn(acc: Str, p: Person) => acc ++ p.Name, '', reverse(get[Person](db))))",
        &["'evedeecybobann'"],
    ),
    ("print(sum(get[Int](db)))", &["42.0"]),
    (
        "print(sum(map(fn(p: Person) => p.Age, get[Person](db))))",
        &["175.0"],
    ),
    (
        "let ps = get[Person](db)\nprint(head(tail(ps)).Name)\nprint(len(ps))",
        &["'bob'", "5"],
    ),
    // Builtins passed to `map`.
    ("print(map(str, get[Employee](db)))", &["['{Age = 45, Dept = 'Ops', Name = 'bob'}', '{Age = 28, Dept = 'Dev', Name = 'cy'}']"]),
    ("print(map(print, get[Int](db)))", &["7", "35", "[(), ()]"]),
];

/// Programs over a row only the core API can store — its `Marks` field is
/// a set, which opens as a list — run on a `Session` after [`SETUP`].
const SET_CORPUS: &[(&str, &[&str])] = &[
    ("print(get[Marked](db))", &["[{Label = 'm1', Marks = [1, 3]}]"]),
    ("print(map(fn(m: Marked) => m.Marks, get[Marked](db)))", &["[[1, 3]]"]),
    ("print(head(get[Marked](db)) == head(get[Marked](db)))", &["true"]),
    (
        "put(db, dynamic head(get[Marked](db)))\nprint(len(get[Marked](db)))\nprint(len(get[Top](db)))",
        &["1", "9"],
    ),
    (
        "extern('m', dynamic get[Marked](db))\nprint(typeof intern('m'))",
        &["'List[{Label: Str, Marks: List[Int]}]'"],
    ),
];

fn on_session(prog: &str, with_set_row: bool) -> Result<Vec<String>, String> {
    let mut s = Session::new().unwrap();
    s.run(SETUP).unwrap();
    if with_set_row {
        s.run("type Marked = {Label: Str, Marks: Set[Int]}")
            .unwrap();
        let marks: BTreeSet<Value> = [Value::Int(3), Value::Int(1)].into();
        s.db.put(
            Type::named("Marked"),
            Value::record([("Label", Value::str("m1")), ("Marks", Value::Set(marks))]),
        )
        .unwrap();
    }
    s.run_pretty(prog)
}

fn on_server(prog: &str) -> Result<Vec<String>, String> {
    let server = Server::new().unwrap();
    let mut s = server.session();
    s.run(SETUP).unwrap();
    s.run_pretty(prog)
}

#[test]
fn every_consumer_of_get_prints_the_pinned_output() {
    let mut wrong = Vec::new();
    for (prog, want) in CORPUS {
        let want = Ok(want.iter().map(|l| l.to_string()).collect::<Vec<_>>());
        let session = on_session(prog, false);
        if session != want {
            wrong.push(format!("{prog:?}\n  session printed {session:?}"));
        }
        let server = on_server(prog);
        if server != want {
            wrong.push(format!("{prog:?}\n  server session printed {server:?}"));
        }
    }
    for (prog, want) in SET_CORPUS {
        let want = Ok(want.iter().map(|l| l.to_string()).collect::<Vec<_>>());
        let session = on_session(prog, true);
        if session != want {
            wrong.push(format!("{prog:?}\n  session printed {session:?}"));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
