//! Print the EXPERIMENTS.md tables: one deterministic pass over every
//! experiment, as markdown. The tables give the *shapes* (who wins, by
//! what factor, where the crossovers are); the bounds the build holds
//! them to are the tests under `crates/bench/tests/`, over the same
//! `dbpl_bench::measure` functions at small sizes.
//!
//! Run with `cargo run -p dbpl-bench --release --bin report`.

use dbpl_bench::measure::*;
use dbpl_bench::*;
use dbpl_core::bom::{total_cost_memo, total_cost_naive, TransientFields};
use dbpl_persist::{Image, IntrinsicStore, ReplicatingStore, TempDir};
use dbpl_relation::{figure1_expected, figure1_r1, figure1_r2, to_generalized, Reduction};
use dbpl_types::{is_subtype, Type, TypeEnv};
use dbpl_values::{DynValue, Heap, Value};
use std::collections::BTreeMap;

fn fast_paths() {
    println!("## Fast paths — memoized subtyping, indexed Get, partitioned join\n");
    println!("| N | scan | typed lists | scan/typed lists |");
    println!("|---|---|---|---|");
    for n in [1_000, 4_000, 16_000] {
        let c = get_cost(n, 10);
        let speedup = c.scan_us / c.typed_us.max(1e-9);
        println!(
            "| {n} | {:.1} | {:.1} | {speedup:.1}x |",
            c.scan_us, c.typed_us
        );
    }
    println!();

    println!("| N per side | nested ⋈ | partitioned ⋈ | speedup |");
    println!("|---|---|---|---|");
    for n in [256, 1_000, 2_000] {
        let c = join_cost(n, if n >= 2_000 { 2 } else { 5 });
        let speedup = c.nested_us / c.partitioned_us.max(1e-9);
        println!(
            "| {n} | {:.0} | {:.0} | {speedup:.1}x |",
            c.nested_us, c.partitioned_us
        );
    }
    println!();

    println!("| tower (width×depth) | structural walk | memoized |");
    println!("|---|---|---|");
    for (w, d) in [(8, 8), (16, 16)] {
        let c = subtype_cost(w, d, 50);
        println!("| {w}×{d} | {:.1} | {:.3} |", c.walk_us, c.memo_us);
    }
    println!();
}

fn txn_commit() {
    println!("## Transaction commit overhead — staged commit vs direct run\n");
    let handles = 16;
    let c = txn_commit_cost(handles, 10);
    let vs = |t: f64| t / c.raw_us.max(1e-9);
    println!("| path ({handles} externs) | µs | vs raw |");
    println!("|---|---|---|");
    println!("| raw store writes | {:.0} | 1.0x |", c.raw_us);
    println!(
        "| implicit txn (run) | {:.0} | {:.2}x |",
        c.implicit_us,
        vs(c.implicit_us)
    );
    println!(
        "| explicit begin/commit | {:.0} | {:.2}x |",
        c.explicit_us,
        vs(c.explicit_us)
    );
    println!();
}

fn integrity() {
    println!("## Integrity — verify-on-read overhead and scrub throughput\n");
    let v = verify_on_read(8_000, 21);
    println!(
        "| decode path ({}-row unit, median of 21 pairs) | µs | vs legacy |",
        v.rows
    );
    println!("|---|---|---|");
    println!("| legacy v1 (no checksum) | {:.0} | 1.000x |", v.legacy_us);
    println!(
        "| framed v2 (CRC-32C verified) | {:.0} | {:.3}x |",
        v.framed_us, v.ratio
    );
    println!();
    let s = scrub(256, 5);
    println!("| scrub | µs/pass | units/s |");
    println!("|---|---|---|");
    println!(
        "| {} units | {:.0} | {:.0} |",
        s.units,
        s.us_per_pass,
        s.units as f64 / (s.us_per_pass / 1e6)
    );
    println!();
}

fn mvcc() {
    println!("## MVCC engine — snapshot-read scaling and group-commit throughput\n");
    let fx = read_fixture(4_000);
    let scaling = read_scaling(&fx, &[1, 10, 100, 1_000, 10_000], 24);
    println!("| sessions | threads | snapshot reads | ops/sec |");
    println!("|---|---|---|---|");
    for p in &scaling.points {
        println!(
            "| {} | {} | {} | {:.0} |",
            p.sessions, p.threads, p.reads, p.ops_per_sec
        );
    }
    println!();

    let r = recorder_overhead(&fx, 9);
    println!("| recorder (100ms sampling, median of 9 pairs) | reads/sec | vs off |");
    println!("|---|---|---|");
    println!("| off | {:.0} | 1.000x |", r.off);
    println!("| on | {:.0} | {:.3}x |", r.on, r.ratio);
    println!();

    let g = group_commit(64, 2, 500);
    println!(
        "| commit path ({} sessions × {}, {}µs/fsync) | commits/sec | fsyncs/commit |",
        g.sessions, g.commits_per_session, g.fsync_delay_us
    );
    println!("|---|---|---|");
    println!(
        "| serial (one fsync set per commit) | {:.0} | {:.2} |",
        g.serial_cps, g.serial_fpc
    );
    println!(
        "| grouped (coalesced intent per batch) | {:.0} | {:.2} |",
        g.grouped_cps, g.grouped_fpc
    );
    println!();
}

fn overload_table() {
    println!("## Overload — bounded admission under 4x offered load\n");
    let o = overload(16, 40, 800);
    println!(
        "| outcome ({} sessions × {}, queue depth {}, {}µs/fsync ±{}) | count | p50 µs | p99 µs |",
        o.sessions, o.attempts_per_session, o.queue_depth, o.fsync_delay_us, o.fsync_jitter_us
    );
    println!("|---|---|---|---|");
    println!(
        "| applied | {} | {:.0} | {:.0} |",
        o.applied_us.len(),
        o.applied_quantile(0.50),
        o.applied_quantile(0.99)
    );
    println!(
        "| shed (`Overloaded`, nothing staged) | {} | — | {:.0} |",
        o.rejected_us.len(),
        o.rejected_quantile(0.99)
    );
    println!(
        "| starved replies (no definitive outcome) | {} | — | — |",
        o.starved
    );
    println!();
}

fn workload_table() {
    println!("## Workload introspection — the query log\n");
    let w = workload(2_000, 256);
    println!("| rank | fingerprint | count | rows_in | rows_out | total µs |");
    println!("|---|---|---|---|---|---|");
    for (i, a) in w.top.iter().take(5).enumerate() {
        println!(
            "| {} | `{}` | {} | {} | {} | {} |",
            i + 1,
            a.fingerprint,
            a.count,
            a.rows_in,
            a.rows_out,
            a.total_dur_us
        );
    }
    println!();
}

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("report takes no arguments: it prints the EXPERIMENTS.md tables");
        std::process::exit(2);
    }
    println!("# Experiment report (regenerates the EXPERIMENTS.md tables)\n");
    fast_paths();
    txn_commit();
    integrity();
    mvcc();
    overload_table();
    workload_table();

    // ---------- F1 ----------
    println!("## F1 — Figure 1, join of generalized relations\n");
    let joined = figure1_r1().natural_join(&figure1_r2());
    let ok = {
        let e = figure1_expected();
        joined.len() == e.len() && e.rows().iter().all(|r| joined.contains(r))
    };
    println!("| check | result |");
    println!("|---|---|");
    println!("| join size | {} (paper: 4) |", joined.len());
    println!("| rows match published figure exactly | {ok} |");
    let mini = figure1_r1().natural_join_with(&figure1_r2(), Reduction::Minimal);
    println!(
        "| maximal ≡ minimal reduction on Fig. 1 | {} |\n",
        mini.equiv(&joined)
    );

    // ---------- E1 ----------
    println!("## E1 — Get: scan vs typed lists vs maintained extents (µs/op)\n");
    println!("| N | scan | typed lists | extents | scan/extents |");
    println!("|---|---|---|---|---|");
    for n in [1_000usize, 4_000, 16_000] {
        let c = get_cost(n, 20);
        let mut db = populated_db(n, 42);
        build_extents(&mut db);
        let extent = db.extents().extent("Employee").unwrap();
        let (t_ext, _) = time(|| extent.members().count(), 20);
        println!(
            "| {n} | {:.1} | {:.1} | {t_ext:.2} | {:.0}x |",
            c.scan_us,
            c.typed_us,
            c.scan_us / t_ext.max(1e-9)
        );
    }
    println!();

    // ---------- E2 ----------
    println!("## E2 — bill of materials on diamond DAGs\n");
    println!("| depth | naive visits | memo visits | naive µs | memo µs | speedup |");
    println!("|---|---|---|---|---|---|");
    for depth in [8usize, 12, 16, 20] {
        let mut heap = Heap::new();
        let root = diamond_dag(&mut heap, depth);
        let iters = if depth >= 16 { 1 } else { 5 };
        let (t_naive, (_, nv)) = time(|| total_cost_naive(&heap, root).unwrap(), iters);
        let (t_memo, mv) = time(
            || {
                let mut memo = TransientFields::new();
                total_cost_memo(&heap, root, &mut memo).unwrap().1
            },
            20,
        );
        println!(
            "| {depth} | {nv} | {mv} | {t_naive:.1} | {t_memo:.2} | {:.0}x |",
            t_naive / t_memo.max(1e-9)
        );
    }
    println!();

    // ---------- E3 ----------
    println!("## E3 — persistence models (1000-object graph)\n");
    let dir = TempDir::new("report").expect("temp dir");
    let n = 1_000;
    let mut heap = Heap::new();
    let refs: Vec<Value> = (0..n)
        .map(|i| Value::Ref(heap.alloc(Type::Str, Value::str(format!("payload {i:050}")))))
        .collect();
    let root = Value::record([("members", Value::List(refs))]);
    let d = DynValue::new(Type::Top, root.clone());

    let store = ReplicatingStore::open(dir.join("repl")).unwrap();
    let (t_extern, _) = time(|| store.extern_value("H", &d, &heap).unwrap(), 5);
    let env = TypeEnv::new();
    let bindings = BTreeMap::from([("r".to_string(), DynValue::new(Type::Top, root.clone()))]);
    let (t_snap, _) = time(
        || {
            Image::capture(&env, &heap, &bindings)
                .save(dir.join("img"))
                .unwrap()
        },
        5,
    );
    let log = dir.join("intr.log");
    let mut istore = IntrinsicStore::open(&log).unwrap();
    let mut first = None;
    for i in 0..n {
        let o = istore.alloc(Type::Str, Value::str(format!("payload {i:050}")));
        first.get_or_insert(o);
    }
    istore.set_handle("root", Type::Top, root);
    istore.commit().unwrap();
    let victim = first.unwrap();
    let (t_commit, _) = time(
        || {
            istore.update(victim, Value::Str("u".into())).unwrap();
            istore.commit().unwrap()
        },
        10,
    );
    println!("| operation | µs |");
    println!("|---|---|");
    println!("| replicating extern (whole closure) | {t_extern:.0} |");
    println!("| all-or-nothing snapshot save | {t_snap:.0} |");
    println!("| intrinsic commit (1 dirty object) | {t_commit:.0} |");

    // Storage duplication.
    let mut h2 = Heap::new();
    let shared = h2.alloc(Type::Str, Value::str("x".repeat(8192)));
    let a = DynValue::new(Type::Top, Value::record([("c", Value::Ref(shared))]));
    store.extern_value("A", &a, &h2).unwrap();
    store.extern_value("B", &a, &h2).unwrap();
    let dup = store.stored_bytes("A").unwrap() + store.stored_bytes("B").unwrap();
    println!("| bytes for 8 KiB shared payload via 2 replicating handles | {dup} |");
    let mut i2 = IntrinsicStore::open(dir.join("intr2.log")).unwrap();
    let so = i2.alloc(Type::Str, Value::str("x".repeat(8192)));
    i2.set_handle("a", Type::Top, Value::record([("c", Value::Ref(so))]));
    i2.set_handle("b", Type::Top, Value::record([("c", Value::Ref(so))]));
    i2.commit().unwrap();
    println!(
        "| bytes for the same via 2 intrinsic handles | {} |\n",
        i2.stored_bytes().unwrap()
    );

    // ---------- E4 ----------
    println!("## E4 — generalized vs classical natural join on flat data (µs)\n");
    println!("| N per side | flat ⋈ | generalized ⋈ | overhead |");
    println!("|---|---|---|---|");
    for n in [32usize, 128, 512] {
        let r = flat_relation(&["K", "L", "X"], n, 8, 101);
        let s = flat_relation(&["K", "L", "Y"], n, 8, 103);
        let gr = to_generalized(&r);
        let gs = to_generalized(&s);
        let iters = if n >= 512 { 2 } else { 10 };
        let (t_flat, _) = time(|| r.natural_join(&s).unwrap(), iters);
        let (t_gen, _) = time(|| gr.natural_join(&gs), iters);
        println!(
            "| {n} | {t_flat:.0} | {t_gen:.0} | {:.1}x |",
            t_gen / t_flat.max(1e-9)
        );
    }
    println!();

    // ---------- E5 ----------
    println!("## E5 — subtype checking cost (µs/check)\n");
    println!("| tower (width×depth) | subtype | equiv (needs both directions) |");
    println!("|---|---|---|");
    let tenv = TypeEnv::new();
    for (w, dep) in [(4usize, 4usize), (8, 8), (16, 16)] {
        let sub = record_tower(w, dep, true);
        let sup = record_tower(w, dep, false);
        let (t_sub, _) = time(|| is_subtype(&sub, &sup, &tenv), 50);
        let (t_eq, _) = time(|| dbpl_types::is_equiv(&sub, &sup, &tenv), 50);
        println!("| {w}×{dep} | {t_sub:.1} | {t_eq:.1} |");
    }
    println!();

    // ---------- E6 ----------
    println!("## E6 — keyed insertion (1000 objects, µs total)\n");
    {
        use dbpl_core::{KeyConstraint, KeyedSet};
        use dbpl_relation::GenRelation;
        let values: Vec<Value> = (0..1000)
            .map(|i| Value::record([("Name", Value::str(format!("p{i}")))]))
            .collect();
        let (t_keyed, klen) = time(
            || {
                let mut s = KeyedSet::new(KeyConstraint::new(["Name"]));
                for v in &values {
                    let _ = s.insert(v.clone());
                }
                s.len()
            },
            3,
        );
        let (t_plain, plen) = time(
            || {
                let mut r = GenRelation::new();
                for v in &values {
                    r.insert(v.clone());
                }
                r.len()
            },
            3,
        );
        println!("| mode | µs | final size |");
        println!("|---|---|---|");
        println!("| keyed (Name) | {t_keyed:.0} | {klen} |");
        println!("| subsumption only | {t_plain:.0} | {plen} |\n");
    }

    // ---------- E7 ----------
    println!("## E7 — FD theory (µs/op)\n");
    println!("| width, #FDs | closure | candidate keys | 3NF synthesis |");
    println!("|---|---|---|---|");
    for (w, f) in [(6usize, 8usize), (10, 16), (12, 24)] {
        let (all, fds) = fd_workload(w, f, 15);
        let seed: dbpl_relation::Attrs = all.iter().take(2).cloned().collect();
        let (t_cl, _) = time(|| fds.closure(&seed), 100);
        let (t_keys, _) = time(|| fds.candidate_keys(&all), 10);
        let (t_syn, _) = time(|| fds.synthesize_3nf(&all), 10);
        println!("| {w}, {f} | {t_cl:.1} | {t_keys:.0} | {t_syn:.0} |");
    }
    println!("\n(regenerate with `cargo run -p dbpl-bench --release --bin report`)");
}
