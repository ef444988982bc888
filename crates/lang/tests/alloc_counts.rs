//! Counted, not timed: reading `get` rows through `fold`, `map`,
//! `filter` and `len` allocates nothing per row, and looking up a builtin
//! allocates nothing at all.
//!
//! The checker resolves names once, and the evaluator applies a
//! full-arity function to each element in place, so a program's
//! allocations must not grow with the rows it reads. Each program runs at
//! 1,600 and at 3,200 matching rows; the two counts may differ only by
//! the few reallocations of a result list that doubles once more.
//!
//! The counting allocator counts only on the thread that asked, between
//! [`allocations`]' start and end, so no other thread on a shared host
//! moves the count.

use dbpl_lang::builtins::{builtin, sig, Bi};
use dbpl_lang::Session;
use dbpl_types::Type;
use dbpl_values::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// `Some(n)` while this thread counts: `n` allocations so far.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

fn note() {
    let _ = COUNT.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// How many allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    COUNT.with(|c| c.set(Some(0)));
    let out = f();
    (out, COUNT.with(|c| c.take()).expect("counting"))
}

/// The programs, each reading every `Employee` row once.
const PROGRAMS: [&str; 6] = [
    "fold(fn(acc: Int, x: Employee) => acc + 1, 0, get[Employee](db))",
    "fold(fn(acc: Int, x: Employee) => acc + x.Empno, 0, get[Employee](db))",
    "len(map(fn(x: Employee) => x.Empno, get[Employee](db)))",
    "len(filter(fn(x: Employee) => x.Empno >= 0, get[Employee](db)))",
    "len(get[Employee](db))",
    "fold(fn(acc: Int, x: Int) => acc + 1, 0, range(0, len(get[Employee](db))))",
];

/// Allocations of each program (the second of two runs) once the
/// session holds `employees` Employee rows, half as many Person rows and
/// as many `Int` rows.
fn counts(s: &mut Session, employees: usize) -> Vec<u64> {
    let have = s.db.get(&Type::named("Employee")).len();
    for i in have..employees {
        let name = ("Name", Value::str(format!("p{i}")));
        let empno = ("Empno", Value::Int(i as i64));
        s.db.put(
            Type::named("Employee"),
            Value::record([name.clone(), empno]),
        )
        .unwrap();
        if i % 2 == 0 {
            s.db.put(Type::named("Person"), Value::record([name]))
                .unwrap();
        }
        s.db.put(Type::Int, Value::Int(i as i64)).unwrap();
    }
    PROGRAMS
        .iter()
        .map(|prog| {
            s.run(prog).unwrap();
            let (out, n) = allocations(|| s.run(prog).unwrap());
            assert!(!out.is_empty(), "{prog} printed nothing");
            n
        })
        .collect()
}

#[test]
fn reading_get_rows_allocates_nothing_per_row() {
    let mut s = Session::new().unwrap();
    s.run("type Person = {Name: Str}\ntype Employee = {Name: Str, Empno: Int}")
        .unwrap();
    let small = counts(&mut s, 1_600);
    let large = counts(&mut s, 3_200);
    for ((prog, a), b) in PROGRAMS.iter().zip(&small).zip(&large) {
        assert!(
            b.abs_diff(*a) <= 4,
            "{prog}: {a} allocations at 1,600 rows, {b} at 3,200"
        );
    }
}

#[test]
fn builtin_lookup_allocates_nothing() {
    builtin("len").unwrap();
    let (found, n) = allocations(|| {
        let by_name = builtin("fold").map(|b| b.id);
        (by_name, sig(Bi::Fold).arity, builtin("nope").is_none())
    });
    assert_eq!(found, (Some(Bi::Fold), 3, true));
    assert_eq!(n, 0, "a builtin lookup allocated");
}
