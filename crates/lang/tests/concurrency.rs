//! Concurrency: parallel `Get`s over one session must return exactly what
//! sequential ones return. `Get` takes `&Database`, and the only shared
//! mutable state on its path is the subtype memo table, which sits behind
//! a lock — so hammering one session from many threads is safe and
//! deterministic.

use dbpl_lang::Session;
use dbpl_types::{parse_type, Type};
use dbpl_values::Value;

fn populated_session(n: i64) -> Session {
    let mut s = Session::new().unwrap();
    s.db.declare_type("Person", parse_type("{Name: Str}").unwrap())
        .unwrap();
    s.db.declare_type("Employee", parse_type("{Name: Str, Empno: Int}").unwrap())
        .unwrap();
    s.db.declare_type(
        "Manager",
        parse_type("{Name: Str, Empno: Int, Reports: Int}").unwrap(),
    )
    .unwrap();
    for i in 0..n {
        match i % 3 {
            0 => {
                s.db.put(
                    Type::named("Person"),
                    Value::record([("Name", Value::str(format!("p{i}")))]),
                )
                .unwrap()
            }
            1 => {
                s.db.put(
                    Type::named("Employee"),
                    Value::record([
                        ("Name", Value::str(format!("e{i}"))),
                        ("Empno", Value::Int(i)),
                    ]),
                )
                .unwrap()
            }
            _ => {
                s.db.put(
                    Type::named("Manager"),
                    Value::record([
                        ("Name", Value::str(format!("m{i}"))),
                        ("Empno", Value::Int(i)),
                        ("Reports", Value::Int(2)),
                    ]),
                )
                .unwrap()
            }
        };
    }
    s
}

#[test]
fn parallel_gets_over_one_session_match_sequential() {
    let s = populated_session(3_000);
    let bounds = [
        Type::named("Person"),
        Type::named("Employee"),
        Type::named("Manager"),
        Type::Top,
    ];
    let sequential: Vec<_> = bounds.iter().map(|b| s.db.get(b)).collect();
    let db = &s.db;
    let parallel: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = bounds
            .iter()
            .map(|b| {
                scope.spawn(move || {
                    // Repeated queries from every thread, racing on the
                    // shared memo table.
                    let mut last = db.get(b);
                    for _ in 0..4 {
                        last = db.get(b);
                    }
                    last
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(sequential, parallel);
}

#[test]
fn parallel_gets_agree_with_the_scan_oracle() {
    let s = populated_session(1_000);
    let bound = Type::named("Person");
    let naive = s.db.get_by_scan(&bound);
    let db = &s.db;
    std::thread::scope(|scope| {
        for oracle in [false, true, false] {
            let naive = &naive;
            let bound = &bound;
            scope.spawn(move || {
                let got = if oracle {
                    db.get_by_scan(bound)
                } else {
                    db.get(bound)
                };
                assert_eq!(&got, naive, "oracle: {oracle}");
            });
        }
    });
}
