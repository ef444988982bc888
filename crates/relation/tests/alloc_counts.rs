//! Counted, not timed: what one partitioned generalized join allocates.
//!
//! A join candidate is the object join of two rows: one record array,
//! with its labels (interned symbols) and strings (shared `Arc<str>`s)
//! copied as pointers. So a join of two Figure-1-shaped relations of 180
//! rows a side, 2 of them partial on the key, allocates per candidate
//! about one record array (two where the candidate joins an `Addr`
//! record), plus the bucket, sort and reduction buffers, which grow with
//! the rows only. Counts do not flake on a shared host the way times do.
//!
//! The counting allocator counts only on the thread that asked, between
//! [`allocations`]' start and end; the join runs on one worker, so every
//! allocation it makes is on that thread.

use dbpl_relation::{GenRelation, JoinStrategy, Reduction};
use dbpl_values::{Label, Value};
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

/// A splitmix64 stream: the relations depend on the seed only.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }

    fn shuffled(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
        v
    }
}

/// One side of a Figure-1-shaped join: `n` rows, each with a payload
/// string; all but `partial` of them carry a distinct `Name`, and a
/// seeded half (plus every key-partial row) an `Addr` record holding a
/// `City` (left) or a `State` (right).
fn relation(n: usize, partial: usize, left: bool, rng: &mut Rng) -> GenRelation {
    let (payload, addr_field) = if left {
        ("Dept", "City")
    } else {
        ("Phone", "State")
    };
    let names = rng.shuffled(n - partial);
    let with_addr = rng.shuffled(n);
    let rows: Vec<Value> = (0..n)
        .map(|i| {
            let mut fields = vec![(
                payload,
                Value::str(format!("{payload}{}", rng.below(n as u64))),
            )];
            if i >= partial {
                fields.push(("Name", Value::str(format!("n{}", names[i - partial]))));
            }
            if i < partial || with_addr[i].is_multiple_of(2) {
                let city = Value::str(format!("a{}", rng.below(50)));
                fields.push(("Addr", Value::record([(addr_field, city)])));
            }
            Value::record(fields)
        })
        .collect();
    GenRelation::from_values(rows)
}

#[test]
fn a_partitioned_join_allocates_per_candidate_not_per_label() {
    let mut rng = Rng(4242);
    let r1 = relation(180, 2, true, &mut rng);
    let r2 = relation(180, 2, false, &mut rng);
    let join = || r1.natural_join_workers(&r2, Reduction::Maximal, JoinStrategy::Partitioned, 1);
    let want = r1.natural_join_strategy(&r2, Reduction::Maximal, JoinStrategy::Nested);
    // The first join warms the per-thread record buffers and label cache.
    assert_eq!(join(), want);
    let (got, n) = allocations(join);
    assert_eq!(got, want);
    assert!(
        n <= 3_000,
        "one partitioned join of {} rows made {n} allocations",
        got.len()
    );
}

#[test]
fn a_record_over_interned_labels_is_one_allocation() {
    let labels = [Label::new("Name"), Label::new("Addr"), Label::new("Empno")];
    // The first build on a thread makes its staging buffer.
    Value::record([(labels[0], Value::Unit)]);
    let (v, n) = allocations(|| {
        Value::record([
            (labels[0], Value::Int(1)),
            (labels[1], Value::Unit),
            (labels[2], Value::Int(3)),
        ])
    });
    assert_eq!(v.as_record().map(|r| r.len()), Some(3));
    assert_eq!(n, 1, "the field array, and nothing per label");
}
