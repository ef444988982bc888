//! The timing gates over `dbpl_bench::measure`, at the sizes and with
//! the estimators their bounds were set for. They are `#[ignore]`d: a
//! debug build or a loaded host says nothing about them, so only the
//! release bench job runs them, with
//! `cargo test -p dbpl-bench --release -- --ignored`. Each holds
//! [`exclusive`] for its whole measurement: the registry, the trace
//! ring and the CPU are shared by every test thread of this binary.

use dbpl_bench::exclusive;
use dbpl_bench::measure::{
    cores, group_commit, overload, read_fixture, read_scaling, recorder_overhead, verify_on_read,
};

#[test]
#[ignore = "timing gate: release bench job only"]
fn verify_on_read_costs_at_most_5_percent() {
    let _x = exclusive();
    let v = verify_on_read(2_000, 21);
    assert!(
        v.ratio <= 1.05,
        "verify-on-read costs {:.3}x ({:.1}µs framed vs {:.1}µs legacy, median of 21 pairs)",
        v.ratio,
        v.framed_us,
        v.legacy_us
    );
}

#[test]
#[ignore = "timing gate: release bench job only"]
fn snapshot_reads_scale_with_sessions() {
    let _x = exclusive();
    let fx = read_fixture(500);
    let s = read_scaling(&fx, &[1, 4, 16], 16);
    assert_eq!(s.torn, 0, "a snapshot read saw a torn database");
    // Loose on purpose: it catches a lock held across reads, which pins
    // many sessions at about one session's throughput.
    if cores() >= 2 {
        assert!(
            s.speedup() >= 1.2,
            "snapshot reads do not scale: {:.2}x one session ({:?})",
            s.speedup(),
            s.points
        );
    }
}

#[test]
#[ignore = "timing gate: release bench job only"]
fn recorder_costs_at_most_2_percent_of_reads() {
    let _x = exclusive();
    let fx = read_fixture(500);
    let r = recorder_overhead(&fx, 9);
    assert_eq!(r.torn, 0, "a snapshot read saw a torn database");
    assert!(
        r.ratio >= 0.98,
        "sampling costs {:.1}% of read throughput ({:.0} vs {:.0} reads/s, median of 9 pairs)",
        (1.0 - r.ratio) * 100.0,
        r.on,
        r.off
    );
}

#[test]
#[ignore = "timing gate: release bench job only"]
fn group_commit_doubles_serial_throughput() {
    let _x = exclusive();
    let g = group_commit(64, 2, 300);
    assert!(
        g.speedup() >= 2.0,
        "{:.0} grouped vs {:.0} serial commits/s is {:.2}x",
        g.grouped_cps,
        g.serial_cps,
        g.speedup()
    );
    assert!(
        g.grouped_fpc < 0.5,
        "{:.2} fsyncs per grouped commit: batching does not amortize them",
        g.grouped_fpc
    );
}

#[test]
#[ignore = "timing gate: release bench job only"]
fn overload_latencies_stay_within_budget() {
    let _x = exclusive();
    let o = overload(8, 40, 400);
    // A bounded queue caps an admitted commit's wait at the queue ahead
    // of it over the drain rate, a constant; refusal is probe-first.
    // Both budgets are loose: they catch an order of magnitude.
    let (applied, rejected) = (o.applied_quantile(0.99), o.rejected_quantile(0.99));
    assert!(applied <= 1_000_000.0, "admitted-commit p99 {applied:.0}µs");
    assert!(rejected <= 50_000.0, "refused-commit p99 {rejected:.0}µs");
}
