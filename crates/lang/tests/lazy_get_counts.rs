//! `len(get[T](db))` answers from the typed lists' lengths: it seals no
//! package, however large the extent. Counted, not timed: the
//! `get.rows_sealed` counter must not move. (One test in its own binary,
//! so no other test moves the process-global counter meanwhile.)

use dbpl_lang::Session;
use dbpl_types::Type;
use dbpl_values::Value;

fn sealed() -> u64 {
    dbpl_obs::global().counter("get.rows_sealed").get()
}

/// Run `prog` and return what it printed and how many packages it sealed.
fn run_counted(s: &mut Session, prog: &str) -> (Vec<String>, u64) {
    let before = sealed();
    let out = s.run(prog).unwrap();
    (out, sealed() - before)
}

#[test]
fn len_and_is_empty_seal_no_rows_at_8k_and_64k() {
    for rows in [8_000usize, 64_000] {
        let mut s = Session::new().unwrap();
        s.run("type Person = {Name: Str}\ntype Employee = {Name: Str, Empno: Int}")
            .unwrap();
        for i in 0..rows {
            let name = ("Name", Value::str(format!("p{i}")));
            if i % 2 == 0 {
                s.db.put(Type::named("Person"), Value::record([name]))
                    .unwrap();
            } else {
                s.db.put(
                    Type::named("Employee"),
                    Value::record([name, ("Empno", Value::Int(i as i64))]),
                )
                .unwrap();
            }
        }

        let (out, n) = run_counted(&mut s, "print(len(get[Person](db)))");
        assert_eq!(out, vec![rows.to_string()]);
        assert_eq!(n, 0, "len seals no rows at {rows}");
        let (out, n) = run_counted(&mut s, "print(isEmpty(get[Employee](db)))");
        assert_eq!(out, vec!["false"]);
        assert_eq!(n, 0, "isEmpty seals no rows at {rows}");
        let (out, n) = run_counted(&mut s, "let xs = get[Employee](db)\nprint(len(xs))");
        assert_eq!(out, vec![(rows / 2).to_string()]);
        assert_eq!(n, 0, "a bound view stays a view at {rows}");

        // The counter does move when rows are sealed: `head` seals one,
        // a fold every row it visits.
        let (_, n) = run_counted(&mut s, "print(head(get[Person](db)))");
        assert_eq!(n, 1);
        let (out, n) = run_counted(
            &mut s,
            "print(fold(fn(n: Int, p: Person) => n + 1, 0, get[Employee](db)))",
        );
        assert_eq!(out, vec![(rows / 2).to_string()]);
        assert_eq!(n, (rows / 2) as u64);
    }
}
