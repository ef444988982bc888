//! A public-API probe of the MiniDBPL evaluator's per-program cost.
//!
//! One `ServerSession` over an 8,000-row hierarchy (a fifth each of
//! Person, Employee, Student, WorkingStudent and `Int` rows, so
//! `get[Employee]` matches 3,200 rows) runs each probe program 400 times,
//! untraced, and prints the median wall time of `run` and of
//! `check_program` alone.
//!
//! ```text
//! cargo run --release --example eval_probe
//! ```

use dbpl::lang::{check_program, parse_program, Server};
use std::time::Instant;

const ROWS: usize = 8_000;
const RUNS: usize = 400;

const PROGRAMS: [(&str, &str); 5] = [
    ("constant", "1"),
    ("len over get (6,400 rows)", "len(get[Person](db))"),
    (
        "counting fold over get (3,200 rows)",
        "fold(fn(acc: Int, x: Employee) => acc + 1, 0, get[Employee](db))",
    ),
    (
        "counting fold over range (3,200)",
        "fold(fn(acc: Int, x: Int) => acc + 1, 0, range(0, 3200))",
    ),
    (
        "field-reading fold over get (3,200 rows)",
        "fold(fn(acc: Int, x: Employee) => acc + x.Empno, 0, get[Employee](db))",
    ),
];

fn median_us(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let server = Server::new().expect("open a server");
    let mut session = server.session();
    session
        .run(
            "type Person = {Name: Str}\n\
             type Employee = {Name: Str, Empno: Int}\n\
             type Student = {Name: Str, Gpa: Float}\n\
             type WorkingStudent = {Name: Str, Empno: Int, Gpa: Float}",
        )
        .expect("declare the hierarchy");
    for start in (0..ROWS).step_by(500) {
        let prog: String = (start..start + 500)
            .map(|i| match i % 5 {
                0 => format!("put(db, dynamic {{Name = 'p{i}'}})\n"),
                1 => format!("put(db, dynamic {{Name = 'p{i}', Empno = {i}}})\n"),
                2 => format!("put(db, dynamic {{Name = 'p{i}', Gpa = 2.5}})\n"),
                3 => format!("put(db, dynamic {{Name = 'p{i}', Empno = {i}, Gpa = 2.5}})\n"),
                _ => format!("put(db, dynamic {i})\n"),
            })
            .collect();
        session.run(&prog).expect("set-up puts commit");
    }
    let env = session.snapshot().db.env().clone();
    println!("| program | run median (µs) | check median (µs) |");
    println!("|---|---|---|");
    for (what, src) in PROGRAMS {
        let prog = parse_program(src).expect("probe programs parse");
        let mut run = Vec::with_capacity(RUNS);
        let mut check = Vec::with_capacity(RUNS);
        for _ in 0..RUNS {
            let t = Instant::now();
            session.run(src).expect("probe programs run");
            run.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            check_program(&prog, &env).expect("probe programs check");
            check.push(t.elapsed().as_secs_f64() * 1e6);
        }
        println!(
            "| `{src}` ({what}) | {:.1} | {:.1} |",
            median_us(run),
            median_us(check)
        );
    }
}
