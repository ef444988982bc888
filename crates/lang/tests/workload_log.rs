//! `workload(db)` reads the query log from the trace ring: with tracing
//! off it says so, and with tracing on it shows exactly the `get`s and
//! joins a program ran, fingerprinted by plan shape.
//!
//! The trace ring is process-global, so this binary holds one test.

use dbpl_lang::{Server, Session};

fn workload(run: &mut impl FnMut(&str) -> Vec<String>) -> String {
    run("workload(db)")[0].trim_matches('\'').to_string()
}

const PROGRAM: &str = "type P = {K: Int, X: Int}
put(db, dynamic {K = 1, X = 10})
put(db, dynamic {K = 2, X = 20})
len(get[P](db))
len(get[P](db))
len(get[Top](db))
explainJoin[{K: Int, X: Int}][{K: Int, Y: Int}]([{K = 1, X = 10}, {K = 2, X = 20}], [{K = 1, Y = 5}])
explainJoin[{K: Int, X: Int}][{K: Int, Y: Int}]([{K = 1, X = 10}], [{K = 1, Y = 5}, {K = 2, Y = 6}])";

#[test]
fn workload_shows_exactly_the_queries_a_program_ran() {
    let mut s = Session::new().unwrap();
    let mut run = |src: &str| s.run(src).unwrap();
    assert_eq!(
        workload(&mut run),
        "workload: tracing is off, so no queries were recorded"
    );
    dbpl_obs::trace::enable(1 << 12);
    dbpl_obs::trace::clear();
    run(PROGRAM);
    let text = workload(&mut run);
    assert!(
        text.starts_with("workload: 5 query(ies) in the trace ring\n"),
        "{text}"
    );
    assert!(
        text.contains("#1 get:typed_lists count=3 rows_in=6 rows_out=6 "),
        "{text}"
    );
    assert!(
        text.contains("#2 join:partitioned[K] count=2 rows_in=4 rows_out=2 "),
        "{text}"
    );

    // The same program through a server session records the same five.
    dbpl_obs::trace::clear();
    let server = Server::new().unwrap();
    let mut session = server.session();
    let mut run = |src: &str| session.run(src).unwrap();
    run(PROGRAM);
    let text = workload(&mut run);
    assert!(
        text.starts_with("workload: 5 query(ies) in the trace ring\n"),
        "{text}"
    );
    dbpl_obs::trace::disable();
    dbpl_obs::trace::clear();
}
