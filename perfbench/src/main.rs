//! The dbpl benchmark: one seeded workload per run, driven only through
//! the workspace's public API, with every output checked by an oracle.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <get_hier|rw_mix|gen_join|persist_txn> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --blowup
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` records spans
//! around the benchmark's own calls into each layer and reports the
//! per-layer metrics. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See `perfbench/NOTES.md`.

mod common;
mod hier;
mod join;
mod persist;

use common::*;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::process::ExitCode;

type Workload = fn(&Cfg) -> Checked<Outcome>;

const WORKLOADS: [(&str, Workload); 4] = [
    ("get_hier", hier::get_hier),
    ("rw_mix", hier::rw_mix),
    ("gen_join", join::gen_join),
    ("persist_txn", persist::persist_txn),
];

/// The metrics a `--trace 0` run reports, as named in `BENCHMARK.json`:
/// set-up time, median headline latency and throughput scaled to the
/// reference machine speed (see [`normalize`]), and peak memory. The raw
/// figures and the p95 latencies are printed with the rest.
const END_TO_END: [&str; 4] = ["setup_s", "p50_ref_ms", "ops_ref_per_s", "peak_rss_mb"];

/// The metrics a `--trace 1` run reports, as named in `BENCHMARK.json`.
const PER_LAYER: [&str; 27] = [
    "lang.parse_us",
    "lang.check_us",
    "lang.run_self_us",
    "lang.server.queue_wait_us",
    "lang.server.batch_size",
    "core.get_us",
    "core.get_rows_out",
    "core.get_us_per_row",
    "core.put_cow_us",
    "core.store_rows",
    "types.subtype_hit_ratio",
    "relation.join_us",
    "relation.join_self_us",
    "relation.products_per_join",
    "relation.fallback_rows",
    "relation.useful_ratio",
    "values.reduce_us",
    "persist.commit_multi_us",
    "persist.encode_us",
    "persist.fsyncs_per_commit",
    "persist.writes_per_commit",
    "persist.intrinsic_commit_us",
    "persist.reopen_intrinsic_us",
    "persist.reopen_replicating_us",
    "persist.stored_bytes",
    "stats.maintain_us",
    "obs.trace_overhead_pct",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        if flag == "--blowup" {
            return Ok(None);
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad)?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be > 0")?,
        trace: trace.unwrap_or(false),
    }))
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn host() -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown CPU".into());
    format!("{cores} cores, {cpu}")
}

/// Scale the run's times to the reference machine speed: each time is
/// multiplied, and the throughput divided, by `REFERENCE_US` over the
/// median reference-task time measured between the run's ops. On a shared
/// host whose speed drifts by tens of percent within minutes this keeps
/// figures from different runs comparable; the raw figures stay in the
/// report as `setup_raw_s`, `p50_ms` and `ops_per_s`.
fn normalize(out: &mut Outcome) {
    let (Some(cal_us), samples) = calibration_us() else {
        return;
    };
    let scale = REFERENCE_US / cal_us;
    out.metric("reference_task_ms", cal_us / 1e3, "ms");
    out.metrics
        .get_mut("reference_task_ms")
        .expect("just inserted")
        .samples = Some(samples);
    let scaled = [
        ("setup_s", "setup_raw_s", "setup_s", scale, "s"),
        ("p50_ms", "p50_ms", "p50_ref_ms", scale, "ms"),
        (
            "ops_per_s",
            "ops_per_s",
            "ops_ref_per_s",
            1.0 / scale,
            "1/s",
        ),
    ];
    for (from, raw, to, factor, unit) in scaled {
        if let Some(m) = out.metrics.remove(from) {
            out.metric(to, m.value * factor, unit);
            out.metrics.insert(raw.to_string(), m);
        }
    }
}

fn json_result(correct: bool, attempted: u64, failed: u64, metrics: &[(String, Metric)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, m)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Per-layer metrics for layers the workload itself does not call come
/// from small fixed-size traced runs of the other workloads, so every
/// traced run reports every layer. Returns where each metric came from.
fn fill_off_path(name: &str, cfg: &Cfg, out: &mut Outcome) -> Checked<BTreeMap<String, String>> {
    let mut source: BTreeMap<String, String> = out
        .layers
        .keys()
        .map(|k| (k.clone(), name.to_string()))
        .collect();
    for (other, run) in WORKLOADS {
        if other == name || PER_LAYER.iter().all(|m| out.layers.contains_key(*m)) {
            continue;
        }
        let mini = Cfg {
            mini: true,
            seconds: 60.0,
            ..*cfg
        };
        let o = run(&mini)?;
        for (k, v) in o.layers {
            if let Entry::Vacant(slot) = out.layers.entry(k.clone()) {
                slot.insert(v);
                source.insert(k, format!("{other} (small probe run)"));
            }
        }
    }
    Ok(source)
}

fn print_self_times(spans: &[Span]) {
    let table = self_times(spans);
    let total: f64 = table.values().map(|e| e.2).sum();
    println!("\nself time by span ({} spans):", spans.len());
    println!(
        "  {:<28} {:>8} {:>12} {:>12} {:>7}",
        "span", "count", "total_ms", "self_ms", "self%"
    );
    for (name, (count, tot, own)) in &table {
        println!(
            "  {name:<28} {count:>8} {:>12.3} {:>12.3} {:>6.1}%",
            tot / 1e3,
            own / 1e3,
            100.0 * own / total.max(1e-9)
        );
    }
}

fn write_spans(workload: &str, seed: u64, spans: &[Span]) {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("spans-{workload}-{seed}.jsonl"));
    match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, spans_jsonl(spans))) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => println!("spans not written ({e})"),
    }
}

fn blowup() {
    println!(
        "key-partial blow-up: one partitioned join, rows per side x key-partial rows per side"
    );
    println!("| rows/side | key-partial/side | candidate products | output rows | join ms |");
    println!("|---|---|---|---|---|");
    for n in [100usize, 200, 400] {
        for partial in [0, 2, n / 50] {
            let (a, b) = join::pair(n, partial, 1, 0);
            let (us, j) = timed(|| a.natural_join(&b));
            let products = join::products(&a, &b).len();
            println!(
                "| {n} | {partial} | {products} | {} | {:.1} |",
                j.len(),
                us / 1e3
            );
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            blowup();
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(&(name, run)) = WORKLOADS.iter().find(|(n, _)| *n == args.workload) else {
        eprintln!(
            "error: unknown workload {}; one of {:?}",
            args.workload,
            WORKLOADS.map(|w| w.0)
        );
        return ExitCode::from(2);
    };
    let cfg = Cfg {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        mini: false,
    };
    println!(
        "workload {name}, seed {}, {} s, trace {}; host: {}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        host()
    );

    let result = run(&cfg).and_then(|mut out| {
        let source = if cfg.trace {
            fill_off_path(name, &cfg, &mut out)?
        } else {
            BTreeMap::new()
        };
        Ok((out, source))
    });
    let (mut out, source) = match result {
        Ok(r) => r,
        Err(Wrong(msg)) => {
            println!("WRONG OUTPUT: {msg}");
            println!("{}", json_result(false, 1, 0, &[]));
            return ExitCode::FAILURE;
        }
    };
    if let Some(mb) = peak_rss_mb() {
        out.metric("peak_rss_mb", mb, "MB");
    }
    normalize(&mut out);
    for note in &out.notes {
        println!("{note}");
    }

    let failed = out.failed();
    let share = failed as f64 / out.attempted.max(1) as f64;
    println!("\nend-to-end metrics:");
    for (k, m) in &out.metrics {
        let samples = m
            .samples
            .map_or(String::new(), |n| format!("  ({n} samples)"));
        println!("  {k:<16} {:>14.4} {}{samples}", m.value, m.unit);
    }
    println!(
        "  {:<16} {:>14.4} share  ({failed} of {} ops)",
        "ops_failed_share", share, out.attempted
    );
    for (kind, n) in &out.failures {
        println!("    failed {kind:?}: {n}");
    }

    let names: &[&str] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let table = if cfg.trace { &out.layers } else { &out.metrics };
    let mut reported = Vec::new();
    for n in names {
        match table.get(*n) {
            Some(m) if m.value.is_finite() => reported.push((n.to_string(), m.clone())),
            _ => {
                println!("metric {n} was not measured");
                println!("{}", json_result(false, out.attempted.max(1), failed, &[]));
                return ExitCode::FAILURE;
            }
        }
    }
    if cfg.trace {
        println!("\nper-layer metrics (source workload):");
        for (k, m) in &reported {
            let from = source.get(k).map_or("", String::as_str);
            println!("  {k:<30} {:>14.4} {:<6} {from}", m.value, m.unit);
        }
        print_self_times(&out.spans);
        write_spans(name, cfg.seed, &out.spans);
    }
    println!(
        "{}",
        json_result(true, out.attempted.max(1), failed, &reported)
    );
    ExitCode::SUCCESS
}
