//! Name resolution, pinned: which binding each name means, and what a
//! closure sees once its scope has ended.
//!
//! The checker resolves every name to a frame slot, a captured value or a
//! builtin, and the evaluator never looks a name up. These programs cover
//! each kind of binder and each way a name can be shadowed or captured,
//! with the output each must print. Each runs on a single-user `Session`
//! and on a `ServerSession`.

use dbpl_lang::{Server, Session};

const SETUP: &str = "
    type Person = {Name: Str}
    type Employee = {Name: Str, Empno: Int}
";

/// `(program, the lines it prints)`, run after [`SETUP`].
const CORPUS: &[(&str, &[&str])] = &[
    // Shadowing by `let`, including a binder that reads what it shadows.
    ("(let x = 1 in let x = x + 1 in x * 10)", &["20"]),
    ("let x = 1\nlet x = x + 1\nx", &["2"]),
    (
        "(let x = 1 in (let x = 'inner' in x) ++ str(x))",
        &["'inner1'"],
    ),
    // Lambda parameters shadow, and stop shadowing after the body.
    ("(let x = 5 in (fn(x: Int) => x + 1)(10) + x)", &["16"]),
    ("(fn(x: Int, x: Str) => x)(1, 'second')", &["'second'"]),
    // `case` binders shadow, in each arm separately.
    (
        "(let v = 100 in (case tag A 3 of A v => v + 1) + v)",
        &["104"],
    ),
    (
        "(let s = if true then tag A 1 else tag B 'b' in case s of A v => str(v) | B v => v)",
        &["'1'"],
    ),
    // `fun` parameters shadow top-level bindings, and the function's own
    // name is shadowed by a parameter of the same name.
    (
        "let n = 7\nfun f(n: Int): Int = n * 2\nf(3)\nn",
        &["6", "7"],
    ),
    ("fun f(f: Int): Int = f + 1\nf(1)", &["2"]),
    // A user binding shadows a builtin, and only in its scope.
    ("(let len = fn(x: Int) => x in len(3))", &["3"]),
    (
        "(let len = fn(x: Int) => x in len(3)) + len([1, 2])",
        &["5"],
    ),
    ("let db = 3\ndb + 1", &["4"]),
    ("fun print(x: Int): Int = x * 2\nprint(21)", &["42"]),
    // Closures that outlive their scope keep what they captured.
    (
        "let add = fn(a: Int) => fn(b: Int) => a + b\nlet add5 = add(5)\nadd5(10)",
        &["15"],
    ),
    (
        "let k = 1\nlet f = fn(x: Int) => x + k\nlet k = 100\nf(1)\nk",
        &["2", "100"],
    ),
    ("(let y = 10 in fn(x: Int) => x + y)(5)", &["15"]),
    (
        "(let a = 1 in let g = fn(b: Int) => fn(c: Int) => a + b + c in g(10)(100))",
        &["111"],
    ),
    (
        "let fs = map(fn(i: Int) => fn(x: Int) => x * i, range(1, 4))\n\
         map(fn(f: Int -> Int) => f(10), fs)",
        &["[10, 20, 30]"],
    ),
    // Recursion, with two parameters and from inside a nested lambda.
    (
        "fun pow(b: Int, e: Int): Int = if e == 0 then 1 else b * pow(b, e - 1)\npow(2, 10)",
        &["1024"],
    ),
    (
        "fun sumTo(n: Int, acc: Int): Int = if n == 0 then acc else sumTo(n - 1, acc + n)\n\
         sumTo(30, 0)",
        &["465"],
    ),
    (
        "fun depth(n: Int): Int = if n == 0 then 0 else (fn(m: Int) => depth(m) + 1)(n - 1)\n\
         depth(5)",
        &["5"],
    ),
    (
        "fun later(n: Int): Int -> Int = fn(x: Int) => if x == 0 then n else later(n + 1)(x - 1)\n\
         later(10)(3)",
        &["13"],
    ),
    // Partial application: a two-parameter lambda, a two-parameter
    // `fun` and a builtin, each passed on with one argument given.
    (
        "let add = fn(a: Int, b: Int) => a + b\nmap(add(10), [1, 2, 3])",
        &["[11, 12, 13]"],
    ),
    (
        "fun mul(a: Int, b: Int): Int = a * b\nlet triple = mul(3)\nmap(triple, [1, 2])\ntriple(5)",
        &["[3, 6]", "15"],
    ),
    ("map(cons(0), [[1], [2]])", &["[[0, 1], [0, 2]]"]),
    (
        "fold(fn(acc: Int) => fn(x: Int) => acc * 10 + x, 0, [1, 2, 3])",
        &["123"],
    ),
    // A builtin passed as `fold`'s function (instantiated: the checker
    // does not solve a polymorphic argument's own variables).
    ("fold(append[Int], [], [[1], [2]])", &["[1, 2]"]),
    // A function applied to more arguments than it takes runs as soon as
    // it has its own, before the next argument is evaluated.
    (
        "let f = fn(x: Int) => let u = print('body') in fn(y: Int) => x + y\n\
         f(1)(let v = print('argument') in 2)",
        &["'body'", "'argument'", "3"],
    ),
    // Type-parameterised functions, applied with `[T]` and without.
    (
        "fun ident[t](x: t): t = x\nident[Int](4)\nident('s')",
        &["4", "'s'"],
    ),
    (
        "fun name[t <= Person](x: t): Str = x.Name\n\
         name[Employee]({Name = 'e', Empno = 1})\n\
         map(name[Employee], [{Name = 'f', Empno = 2}])",
        &["'e'", "['f']"],
    ),
    (
        "fun pair[a, b](x: a, y: b): {Fst: a, Snd: b} = {Fst = x, Snd = y}\n\
         pair[Int][Str](1, 'one').Snd",
        &["'one'"],
    ),
];

fn on_session(prog: &str) -> Result<Vec<String>, String> {
    let mut s = Session::new().unwrap();
    s.run(SETUP).unwrap();
    s.run_pretty(prog)
}

fn on_server(prog: &str) -> Result<Vec<String>, String> {
    let server = Server::new().unwrap();
    let mut s = server.session();
    s.run(SETUP).unwrap();
    s.run_pretty(prog)
}

#[test]
fn every_name_means_its_nearest_binding() {
    let mut wrong = Vec::new();
    for (prog, want) in CORPUS {
        let want = Ok(want.iter().map(|l| l.to_string()).collect::<Vec<_>>());
        let session = on_session(prog);
        if session != want {
            wrong.push(format!("{prog:?}\n  session printed {session:?}"));
        }
        let server = on_server(prog);
        if server != want {
            wrong.push(format!("{prog:?}\n  server session printed {server:?}"));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
