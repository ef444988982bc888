//! `get[T](db)` evaluates to a view of the snapshot's typed lists, not a
//! list. For random stores (subtypes interleaved, some rows quarantined)
//! and every list consumer, a program over the lazy view must print
//! exactly what the same program prints over the materialized list
//! (`reverse(reverse(get[T](db)))`, which turns the view into a list
//! first), and what the paper's scan predicts: the expected output is
//! computed here, on the host, from `Database::get_by_scan`.

use dbpl_lang::{RtValue, Session};
use dbpl_types::Type;
use dbpl_values::Value;
use proptest::prelude::*;

const TYPES: &str = "
    type Person = {Name: Str, Age: Int}
    type Employee = {Name: Str, Age: Int, Dept: Str}
    type Student = {Name: Str, Age: Int, Gpa: Float}
";

/// The bounds a case reads at.
const BOUNDS: [&str; 5] = ["Person", "Employee", "Student", "Int", "Top"];

/// Every consumer of a list, as a program over the extent expression `E`
/// at element type `T`. `Sum` and `Ages` only apply at bounds whose
/// elements are numbers or carry an `Age`.
#[derive(Clone, Copy, Debug)]
enum Consumer {
    Len,
    IsEmpty,
    Head,
    Tail,
    Print,
    Str,
    EqPerson,
    Distinct,
    Cons,
    Reverse,
    MapId,
    FilterHead,
    FoldCount,
    FoldConcat,
    Sum,
    Ages,
    PutAfterGet,
    Extern,
}

const CONSUMERS: [Consumer; 18] = [
    Consumer::Len,
    Consumer::IsEmpty,
    Consumer::Head,
    Consumer::Tail,
    Consumer::Print,
    Consumer::Str,
    Consumer::EqPerson,
    Consumer::Distinct,
    Consumer::Cons,
    Consumer::Reverse,
    Consumer::MapId,
    Consumer::FilterHead,
    Consumer::FoldCount,
    Consumer::FoldConcat,
    Consumer::Sum,
    Consumer::Ages,
    Consumer::PutAfterGet,
    Consumer::Extern,
];

impl Consumer {
    fn applies(self, bound: &str) -> bool {
        match self {
            Consumer::Sum => bound == "Int",
            Consumer::Ages => !matches!(bound, "Int" | "Top"),
            // `List[Int] == List[Person]` does not type-check.
            Consumer::EqPerson => bound != "Int",
            _ => true,
        }
    }

    fn program(self, t: &str, e: &str) -> String {
        match self {
            Consumer::Len => format!("print(len({e}))"),
            Consumer::IsEmpty => format!("print(isEmpty({e}))"),
            Consumer::Head => format!("print(head({e}))"),
            Consumer::Tail => format!("print(tail({e}))"),
            Consumer::Print => format!("print({e})"),
            Consumer::Str => format!("print(str({e}))"),
            Consumer::EqPerson => format!("print({e} == get[Person](db))"),
            Consumer::Distinct => format!("print(distinct(append({e}, {e})))"),
            Consumer::Cons => format!("print(cons(head({e}), {e}))"),
            Consumer::Reverse => format!("print(reverse({e}))"),
            Consumer::MapId => format!("print(map(fn(x: {t}) => x, {e}))"),
            Consumer::FilterHead => {
                format!("print(filter(fn(x: {t}) => x == head({e}), {e}))")
            }
            Consumer::FoldCount => format!("print(fold(fn(n: Int, x: {t}) => n + 1, 0, {e}))"),
            Consumer::FoldConcat => {
                format!("print(fold(fn(acc: Str, x: {t}) => acc ++ str(x), '', {e}))")
            }
            Consumer::Sum => format!("print(sum({e}))"),
            Consumer::Ages => format!("print(sum(map(fn(x: {t}) => x.Age, {e})))"),
            Consumer::PutAfterGet => format!(
                "let xs = {e}\n\
                 put(db, dynamic {{Name = 'late', Age = 1, Dept = 'z'}})\n\
                 print(len(xs))\n\
                 print(xs)\n\
                 print(len({e}))"
            ),
            Consumer::Extern => format!(
                "extern('h', dynamic {e})\n\
                 print(coerce intern('h') to List[{t}])"
            ),
        }
    }

    /// What the program prints, from the scan oracle's rows (`None`:
    /// the program fails at run time). `persons` is the scan at
    /// `Person`; `late_matches` says whether the row `PutAfterGet`
    /// stores is in the extent.
    fn expected(
        self,
        rows: &[Value],
        persons: &[Value],
        late_matches: bool,
    ) -> Option<Vec<String>> {
        let show = |xs: &[Value]| list(xs).to_string();
        let one = |s: String| Some(vec![s]);
        match self {
            Consumer::Len | Consumer::FoldCount => one(rows.len().to_string()),
            Consumer::IsEmpty => one(rows.is_empty().to_string()),
            Consumer::Head => one(RtValue::from_value(rows.first()?).to_string()),
            Consumer::Tail => {
                rows.first()?;
                one(show(&rows[1..]))
            }
            Consumer::Print | Consumer::MapId => one(show(rows)),
            Consumer::Str => one(format!("'{}'", show(rows))),
            // `==` fails at run time on values of different shapes (an
            // `Int` and a record under `Top`): `data_eq` answers `None`.
            Consumer::EqPerson => one(list(rows).data_eq(&list(persons))?.to_string()),
            Consumer::Distinct => {
                let mut seen: Vec<Value> = Vec::new();
                for r in rows {
                    if !seen.contains(r) {
                        seen.push(r.clone());
                    }
                }
                one(show(&seen))
            }
            Consumer::Cons => {
                let mut out = vec![rows.first()?.clone()];
                out.extend_from_slice(rows);
                one(show(&out))
            }
            Consumer::Reverse => {
                let mut out = rows.to_vec();
                out.reverse();
                one(show(&out))
            }
            Consumer::FilterHead => {
                // The predicate (and so `head`) only runs on a row.
                let mut out = Vec::new();
                if let Some(first) = rows.first() {
                    let first = RtValue::from_value(first);
                    for r in rows {
                        if RtValue::from_value(r).data_eq(&first)? {
                            out.push(r.clone());
                        }
                    }
                }
                one(show(&out))
            }
            Consumer::FoldConcat => one(format!(
                "'{}'",
                rows.iter()
                    .map(|r| RtValue::from_value(r).to_string())
                    .collect::<String>()
            )),
            Consumer::Sum => {
                one(RtValue::Float(sum(rows.iter().map(|r| r.as_int().unwrap()))).to_string())
            }
            Consumer::Ages => one(RtValue::Float(sum(rows
                .iter()
                .map(|r| r.field("Age").and_then(Value::as_int).unwrap())))
            .to_string()),
            Consumer::PutAfterGet => Some(vec![
                rows.len().to_string(),
                show(rows),
                (rows.len() + usize::from(late_matches)).to_string(),
            ]),
            Consumer::Extern => one(show(rows)),
        }
    }
}

/// `sum` as the evaluator adds: from `0.0` (`f64`'s `Sum` starts at
/// `-0.0`, which prints differently).
fn sum(xs: impl Iterator<Item = i64>) -> f64 {
    xs.fold(0.0, |total, x| total + x as f64)
}

fn list(xs: &[Value]) -> RtValue {
    RtValue::List(xs.iter().map(RtValue::from_value).collect())
}

/// One generated row: class 0–2 is Person/Employee/Student, 3 is `Int`.
fn row_stmt(i: usize, class: u8, n: i64) -> String {
    match class {
        0 => format!("put(db, dynamic {{Name = 'p{i}', Age = {n}}})"),
        1 => format!(
            "put(db, dynamic {{Name = 'e{i}', Age = {n}, Dept = 'd{}'}})",
            n % 3
        ),
        2 => format!(
            "put(db, dynamic {{Name = 's{i}', Age = {n}, Gpa = {}.5}})",
            n % 4
        ),
        _ => format!("put(db, dynamic {})", n % 5),
    }
}

/// A session holding the generated store, with `quarantined` positions
/// (modulo the store size) quarantined.
fn session(rows: &[(u8, i64)], quarantined: &[usize]) -> Session {
    let mut s = Session::new().unwrap();
    s.run(TYPES).unwrap();
    if !rows.is_empty() {
        let puts: Vec<String> = rows
            .iter()
            .enumerate()
            .map(|(i, &(class, n))| row_stmt(i, class, n))
            .collect();
        s.run(&puts.join("\n")).unwrap();
        for q in quarantined {
            s.db.quarantine_position(q % rows.len(), "planted damage");
        }
    }
    s
}

fn scan(s: &Session, bound: &str) -> Vec<Value> {
    s.db.get_by_scan(&bound_type(bound))
        .iter()
        .map(|p| p.open().clone())
        .collect()
}

fn bound_type(bound: &str) -> Type {
    match bound {
        "Int" => Type::Int,
        "Top" => Type::Top,
        named => Type::named(named),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn lazy_get_prints_what_the_list_and_the_scan_print(
        rows in prop::collection::vec((0u8..4, 0i64..60), 0..20),
        quarantined in prop::collection::vec(0usize..64, 0..3),
        bound in prop::sample::select(BOUNDS.to_vec()),
        consumer in prop::sample::select(CONSUMERS.to_vec()),
    ) {
        if !consumer.applies(bound) {
            return Ok(());
        }
        let lazy = format!("get[{bound}](db)");
        let materialized = format!("reverse(reverse(get[{bound}](db)))");

        let mut s = session(&rows, &quarantined);
        let want = consumer.expected(
            &scan(&s, bound),
            &scan(&s, "Person"),
            !matches!(bound, "Int" | "Student"),
        );
        let got_lazy = s.run(&consumer.program(bound, &lazy));
        let mut s = session(&rows, &quarantined);
        let got_list = s.run(&consumer.program(bound, &materialized));

        let program = consumer.program(bound, &lazy);
        prop_assert_eq!(got_lazy.as_ref().ok(), got_list.as_ref().ok(), "{}", program);
        prop_assert_eq!(got_lazy.ok(), want, "{}", program);
    }
}
