//! **E1 — the cost of the generic `Get`.**
//!
//! The paper, on implementing `Get` over a list of dynamic values: "this
//! is not a very efficient solution since we have to traverse the whole
//! database in order to obtain a small subset; we also have the overhead
//! of having to check the structure of each value we encounter. Another
//! possibility would be to keep a set of (statically) typed lists…".
//!
//! Strategies compared, at database sizes 1k–32k:
//! * `scan`        — full traversal + per-element structural subtype check
//!   (`Database::get_by_scan`, the oracle);
//! * `typed_lists` — one subtype check per *distinct carried type*
//!   (`Database::get`);
//! * `extents`     — maintained (Taxis-style) extents: membership is
//!   precomputed, a `Get` is a read.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dbpl_bench::{build_extents, populated_db};
use dbpl_types::Type;
use std::hint::black_box;

fn e1_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("e1_get");
    group.sample_size(20);
    for n in [1_000usize, 4_000, 32_000] {
        let db = populated_db(n, 42);
        let mut db_ext = populated_db(n, 42);
        build_extents(&mut db_ext);
        let bound = Type::named("Employee");

        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("scan", n), &n, |b, _| {
            b.iter(|| db.get_by_scan(black_box(&bound)))
        });
        group.bench_with_input(BenchmarkId::new("typed_lists", n), &n, |b, _| {
            b.iter(|| db.get(black_box(&bound)))
        });
        group.bench_with_input(BenchmarkId::new("extents", n), &n, |b, _| {
            b.iter(|| {
                let e = db_ext.extents().extent("Employee").unwrap();
                black_box(e.len())
            })
        });
    }
    group.finish();
}

fn e1_selectivity(c: &mut Criterion) {
    // Scanning cost is flat in the bound; the result size varies — the
    // "small subset" point.
    let db = populated_db(8_000, 7);
    let mut group = c.benchmark_group("e1_get/selectivity");
    group.sample_size(20);
    for bound in ["Person", "Employee", "WorkingStudent"] {
        let t = Type::named(bound);
        group.bench_with_input(BenchmarkId::from_parameter(bound), &t, |b, t| {
            b.iter(|| db.get_by_scan(black_box(t)))
        });
    }
    group.finish();
}

criterion_group!(benches, e1_strategies, e1_selectivity);
criterion_main!(benches);
