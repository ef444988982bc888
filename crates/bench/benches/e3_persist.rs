//! **E3 — the three persistence models.**
//!
//! Measures what the paper argues qualitatively:
//! * replicating `extern` pays for the whole reachable closure every
//!   time, and shared structure is duplicated per handle (storage);
//! * intrinsic `commit` pays only for the dirty delta;
//! * all-or-nothing snapshots pay for everything, every time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dbpl_persist::{Image, IntrinsicStore, ReplicatingStore};
use dbpl_types::{Type, TypeEnv};
use dbpl_values::{DynValue, Heap, Value};
use std::collections::BTreeMap;
use std::hint::black_box;

/// A fresh directory, removed when the guard drops.
fn scratch(name: &str) -> dbpl_persist::TempDir {
    dbpl_persist::TempDir::new(&format!("bench-{name}")).unwrap()
}

/// A heap holding `n` objects of ~64 bytes reachable from one root.
fn object_graph(n: usize) -> (Heap, Value) {
    let mut heap = Heap::new();
    let refs: Vec<Value> = (0..n)
        .map(|i| {
            let o = heap.alloc(
                Type::Str,
                Value::Str(format!("object payload number {i:051}")),
            );
            Value::Ref(o)
        })
        .collect();
    (heap, Value::record([("members", Value::List(refs))]))
}

fn e3_write_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("e3_persist/write");
    group.sample_size(10);
    for n in [100usize, 1_000, 4_000] {
        let (heap, root) = object_graph(n);
        let d = DynValue::new(Type::Top, root.clone());

        // Replicating: every extern rewrites the whole closure.
        let dir = scratch(&format!("repl{n}"));
        let store = ReplicatingStore::open(&dir).unwrap();
        group.bench_with_input(BenchmarkId::new("replicating_extern", n), &n, |b, _| {
            b.iter(|| store.extern_value("H", black_box(&d), &heap).unwrap())
        });

        // All-or-nothing: every save rewrites the whole image.
        let img_dir = scratch(&format!("img{n}"));
        let env = TypeEnv::new();
        let bindings =
            BTreeMap::from([("root".to_string(), DynValue::new(Type::Top, root.clone()))]);
        group.bench_with_input(BenchmarkId::new("snapshot_save", n), &n, |b, _| {
            b.iter(|| {
                Image::capture(&env, &heap, &bindings)
                    .save(img_dir.join("s.image"))
                    .unwrap()
            })
        });

        // Intrinsic: one commit of the whole graph once, then commits of a
        // single dirty object.
        let log_dir = scratch(&format!("intr{n}"));
        let log = log_dir.join("db.log");
        let mut istore = IntrinsicStore::open(&log).unwrap();
        let mut first = None;
        for i in 0..n {
            let o = istore.alloc(
                Type::Str,
                Value::Str(format!("object payload number {i:051}")),
            );
            first.get_or_insert(o);
        }
        istore.set_handle("root", Type::Top, root);
        istore.commit().unwrap();
        let victim = first.unwrap();
        group.bench_with_input(BenchmarkId::new("intrinsic_commit_delta", n), &n, |b, _| {
            b.iter(|| {
                istore.update(victim, Value::Str("updated".into())).unwrap();
                istore.commit().unwrap()
            })
        });
    }
    group.finish();
}

fn e3_read_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("e3_persist/read");
    group.sample_size(10);
    for n in [100usize, 1_000] {
        let (heap, root) = object_graph(n);
        let d = DynValue::new(Type::Top, root.clone());
        let dir = scratch(&format!("replread{n}"));
        let store = ReplicatingStore::open(&dir).unwrap();
        store.extern_value("H", &d, &heap).unwrap();
        group.bench_with_input(BenchmarkId::new("replicating_intern", n), &n, |b, _| {
            b.iter(|| {
                let mut h = Heap::new();
                store.intern("H", &mut h).unwrap()
            })
        });

        // Intrinsic recovery: reopen the store from its log.
        let log_dir = scratch(&format!("intrread{n}"));
        let log = log_dir.join("db.log");
        {
            let mut s = IntrinsicStore::open(&log).unwrap();
            for i in 0..n {
                s.alloc(
                    Type::Str,
                    Value::Str(format!("object payload number {i:051}")),
                );
            }
            s.set_handle("root", Type::Top, root.clone());
            s.commit().unwrap();
        }
        group.bench_with_input(BenchmarkId::new("intrinsic_recover", n), &n, |b, _| {
            b.iter(|| IntrinsicStore::open(black_box(&log)).unwrap())
        });
    }
    group.finish();
}

fn e3_storage_duplication(c: &mut Criterion) {
    // Not a timing benchmark so much as a measured fact: shared payload,
    // stored per handle. Criterion runs it; the report binary prints the
    // byte counts for EXPERIMENTS.md.
    c.bench_function("e3_persist/shared_payload_two_handles", |b| {
        let dir = scratch("dup");
        let store = ReplicatingStore::open(&dir).unwrap();
        let mut heap = Heap::new();
        let shared = heap.alloc(Type::Str, Value::Str("x".repeat(8192)));
        let a = DynValue::new(Type::Top, Value::record([("c", Value::Ref(shared))]));
        b.iter(|| {
            store.extern_value("A", &a, &heap).unwrap();
            store.extern_value("B", &a, &heap).unwrap();
            store.stored_bytes("A").unwrap() + store.stored_bytes("B").unwrap()
        })
    });
}

criterion_group!(
    benches,
    e3_write_paths,
    e3_read_paths,
    e3_storage_duplication
);
criterion_main!(benches);
