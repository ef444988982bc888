//! `gen_join`: `GenRelation::natural_join` on seeded Figure-1-style
//! relations that share a `Name` key, a few rows of which lack the key.

use crate::common::*;
use dbpl_relation::{
    figure1_expected, figure1_r1, figure1_r2, GenRelation, JoinStrategy, Reduction,
};
use dbpl_values::{order, Value};
use std::time::Instant;

/// Distinct relation pairs one run cycles through.
const PAIRS: u64 = 3;

/// Rows per side that lack the `Name` key.
pub const KEY_PARTIAL_ROWS: usize = 2;

/// Rows per side (key-partial rows included).
pub fn rows_per_side(mini: bool) -> usize {
    if mini {
        60
    } else {
        180
    }
}

/// One side of a pair. The keyed rows carry each of the names
/// `n0 .. n(n-partial-1)` exactly once, in seeded order, so every keyed
/// row meets exactly one partner; each carries a side-specific payload
/// and, for a seeded half of the rows, an `Addr` record holding a `City`
/// (left) or a `State` (right), as in Figure 1. The `partial` key-partial
/// rows carry everything but `Name`, so they join with every row of the
/// other side. Only values and order depend on the seed: the join's size
/// does not.
pub fn relation(n: usize, partial: usize, left: bool, rng: &mut Rng) -> GenRelation {
    let (payload, addr_field) = if left {
        ("Dept", "City")
    } else {
        ("Phone", "State")
    };
    let keyed = n - partial;
    let names = rng.shuffled(keyed);
    let with_addr = rng.shuffled(n);
    let rows = (0..n).map(|i| {
        let mut fields = vec![(
            payload,
            Value::str(format!("{payload}{}", rng.below(n as u64))),
        )];
        if i >= partial {
            fields.push(("Name", Value::str(format!("n{}", names[i - partial]))));
        }
        if i < partial || with_addr[i].is_multiple_of(2) {
            fields.push((
                "Addr",
                Value::record([(addr_field, Value::str(format!("a{}", rng.below(50))))]),
            ));
        }
        Value::record(fields)
    });
    GenRelation::from_values(rows.collect::<Vec<_>>())
}

pub fn pair(n: usize, partial: usize, seed: u64, p: u64) -> (GenRelation, GenRelation) {
    let mut rng = Rng::new(seed, 100 + p);
    let r1 = relation(n, partial, true, &mut rng);
    let r2 = relation(n, partial, false, &mut rng);
    (r1, r2)
}

/// Every object join that exists between the two sides: the candidate
/// rows a join reduces to its maximal elements.
pub fn products(r1: &GenRelation, r2: &GenRelation) -> Vec<Value> {
    let mut out = Vec::new();
    for x in r1.rows() {
        for y in r2.rows() {
            if let Some(j) = order::join(x, y) {
                out.push(j);
            }
        }
    }
    out
}

/// The published Figure 1, byte for byte.
pub fn check_figure1() -> Checked<()> {
    let got = figure1_r1().natural_join(&figure1_r2());
    let want = figure1_expected();
    if got != want || got.to_string() != want.to_string() {
        return wrong(format!(
            "gen_join: Figure 1 came out as {got}, expected {want}"
        ));
    }
    Ok(())
}

pub fn check_join(got: &GenRelation, want: &GenRelation) -> Checked<()> {
    if got != want {
        return wrong(format!(
            "gen_join: the join has {} rows, the Nested oracle {} (or the rows differ)",
            got.len(),
            want.len()
        ));
    }
    Ok(())
}

pub fn gen_join(cfg: &Cfg) -> Checked<Outcome> {
    let n = rows_per_side(cfg.mini);
    let mut out = Outcome::default();
    let (setup_s, pairs) = setup_median(25, || {
        (0..PAIRS)
            .map(|p| pair(n, KEY_PARTIAL_ROWS, cfg.seed, p))
            .collect::<Vec<_>>()
    });
    out.metric("setup_s", setup_s, "s");
    out.notes.push(format!(
        "{PAIRS} relation pairs, {n} rows per side, {KEY_PARTIAL_ROWS} key-partial rows per \
         side; single thread"
    ));

    check_figure1()?;
    let oracle: Vec<GenRelation> = pairs
        .iter()
        .map(|(a, b)| a.natural_join_strategy(b, Reduction::Maximal, JoinStrategy::Nested))
        .collect();
    let candidates: Vec<Vec<Value>> = if cfg.trace {
        pairs.iter().map(|(a, b)| products(a, b)).collect()
    } else {
        Vec::new()
    };

    let fallback = dbpl_obs::global().counter("join.partitioned.fallback_rows");
    let fallback0 = fallback.get();
    let mut tracer = Tracer::new(Instant::now(), 0);
    let mut plain = Samples::default();
    let mut traced = Samples::default();
    let (mut reduce_us, mut join_self_us, mut useful) = (Vec::new(), Vec::new(), Vec::new());
    let deadline = cfg.deadline();
    let max_ops = if cfg.mini { 32 } else { u64::MAX };
    let started = Instant::now();
    let mut op = 0u64;
    while Instant::now() < deadline && op < max_ops {
        let p = (op % PAIRS) as usize;
        let (r1, r2) = &pairs[p];
        out.attempted += 1;
        let joined = if traced_block(cfg.trace, op) {
            tracer.begin_op();
            let root = tracer.enter("op.join");
            let (us, joined) = tracer.span("relation.join", || r1.natural_join(r2));
            let c = candidates[p].clone();
            let (r_us, reduced) = tracer.span("values.reduce", || order::reduce_maximal(c));
            tracer.exit(root);
            if reduced != joined.rows() {
                return wrong("gen_join: reduce_maximal over the products disagrees with the join");
            }
            traced.push_us(us);
            reduce_us.push(r_us);
            join_self_us.push(us - r_us);
            useful.push(joined.len() as f64 / candidates[p].len().max(1) as f64);
            joined
        } else {
            let (us, joined) = timed(|| r1.natural_join(r2));
            plain.push_us(us);
            joined
        };
        op += 1;
        calibrate_tick();
        check_join(&joined, &oracle[p])?;
    }
    let elapsed = started.elapsed().as_secs_f64();
    let joins = plain.len() + traced.len();

    out.headline("join", if cfg.trace { &traced } else { &plain });
    out.metric("ops_per_s", joins as f64 / elapsed, "1/s");

    out.layer("relation.join_us", traced.p50().map(|ms| ms * 1e3), "us");
    out.layer("relation.join_self_us", median(&join_self_us), "us");
    out.layer("values.reduce_us", median(&reduce_us), "us");
    if cfg.trace {
        let products: Vec<f64> = candidates.iter().map(|c| c.len() as f64).collect();
        out.layer("relation.products_per_join", median(&products), "count");
    }
    out.layer(
        "relation.fallback_rows",
        (joins > 0).then(|| (fallback.get() - fallback0) as f64 / joins as f64),
        "count",
    );
    out.layer("relation.useful_ratio", median(&useful), "ratio");
    out.layer(
        "obs.trace_overhead_pct",
        trace_overhead_pct(&plain, &traced),
        "%",
    );
    out.spans = tracer.spans;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_oracle_rejects_a_result_with_one_row_dropped() {
        let (a, b) = pair(40, 1, 3, 0);
        let want = a.natural_join_strategy(&b, Reduction::Maximal, JoinStrategy::Nested);
        let got = a.natural_join(&b);
        assert!(check_join(&got, &want).is_ok());
        let tampered = GenRelation::from_values(got.rows()[1..].to_vec());
        assert!(check_join(&tampered, &want).is_err());
    }

    #[test]
    fn figure1_passes() {
        assert!(check_figure1().is_ok());
    }

    #[test]
    fn generation_is_seeded() {
        assert_eq!(pair(50, 2, 9, 1), pair(50, 2, 9, 1));
        assert_ne!(pair(50, 2, 9, 1), pair(50, 2, 10, 1));
    }
}
