//! The tree-walking evaluator.
//!
//! Static checking has already happened; the only *type* checks performed
//! at run time are the ones the paper requires to be dynamic — the
//! subtype test inside `coerce` (which raises the paper's "run-time
//! exception" on mismatch) and the per-element test inside `get`.
//!
//! `get` evaluates to an [`RtValue::Extent`]: a view of the snapshot's
//! typed lists, not a list. What stays lazy:
//!
//! * `len` and `isEmpty` answer from the lists' lengths, sealing no row;
//! * `fold`, `map`, `filter` and `sum` iterate the view in place, and
//!   `head` seals one row;
//! * binding the view with `let` or passing it to a user function keeps
//!   it a view.
//!
//! Every other consumer — `print`/`str`, `==`, `distinct`, `append`,
//! `cons`, `reverse`, `tail`, the join builtins, `dynamic`/`put`/`extern`,
//! and a record, list, `with` or tag that stores it as data —
//! materializes it through [`RtValue::materialized`] into a list of
//! unopened [`RtValue::Stored`] packages that share the stored rows. A
//! package is converted to its runtime form only where the evaluator
//! inspects a value's shape: variable lookup, builtin arguments, the
//! `head` result and the elements `sum` adds.

use crate::ast::{BinOp, Expr, ExprKind};
use crate::error::LangError;
use crate::rt::{Builtin, Closure, Env, RtValue};
use crate::session::Session;
use dbpl_types::{is_subtype, Type};
use dbpl_values::DynValue;
use std::rc::Rc;

/// Evaluate an expression in an environment against a session.
pub fn eval(e: &Expr, env: &Env, s: &mut Session) -> Result<RtValue, LangError> {
    let at = e.at;
    match &e.node {
        ExprKind::Int(i) => Ok(RtValue::Int(*i)),
        ExprKind::Float(x) => Ok(RtValue::Float(*x)),
        ExprKind::Str(st) => Ok(RtValue::Str(st.clone())),
        ExprKind::Bool(b) => Ok(RtValue::Bool(*b)),
        ExprKind::Unit => Ok(RtValue::Unit),
        ExprKind::Var(x) => {
            if let Some(v) = env.lookup(x) {
                return Ok(match v {
                    RtValue::Stored(p) => RtValue::from_value(p.open()),
                    v => v.clone(),
                });
            }
            if x == "db" {
                return Ok(RtValue::DbToken);
            }
            if let Some(sig) = crate::builtins::builtin(x) {
                return Ok(RtValue::Builtin(Builtin {
                    name: sig.name,
                    tyargs: Vec::new(),
                    args: Vec::new(),
                    arity: sig.arity,
                }));
            }
            Err(LangError::eval(at, format!("unbound variable `{x}`")))
        }
        ExprKind::Record(fields) => {
            let mut fs = std::collections::BTreeMap::new();
            for (l, fe) in fields {
                fs.insert(l.clone(), eval(fe, env, s)?.materialized());
            }
            Ok(RtValue::Record(fs))
        }
        ExprKind::List(items) => {
            let mut xs = Vec::with_capacity(items.len());
            for it in items {
                xs.push(eval(it, env, s)?.materialized());
            }
            Ok(RtValue::List(xs))
        }
        ExprKind::Field(base, l) => match eval(base, env, s)? {
            RtValue::Record(fs) => fs
                .get(l)
                .cloned()
                .ok_or_else(|| LangError::eval(at, format!("record has no field `{l}`"))),
            other => Err(LangError::eval(at, format!("`{other}` is not a record"))),
        },
        ExprKind::With(base, additions) => match eval(base, env, s)? {
            RtValue::Record(mut fs) => {
                for (l, ae) in additions {
                    let v = eval(ae, env, s)?.materialized();
                    fs.insert(l.clone(), v);
                }
                Ok(RtValue::Record(fs))
            }
            other => Err(LangError::eval(
                at,
                format!("`with` applies to records, not {other}"),
            )),
        },
        ExprKind::If(c, t, f) => match eval(c, env, s)? {
            RtValue::Bool(true) => eval(t, env, s),
            RtValue::Bool(false) => eval(f, env, s),
            other => Err(LangError::eval(
                c.at,
                format!("condition was {other}, not a boolean"),
            )),
        },
        ExprKind::Let(x, _, bound, body) => {
            let v = eval(bound, env, s)?;
            let inner = env.bind(x.as_str(), v);
            eval(body, &inner, s)
        }
        ExprKind::Lambda(x, _, body) => Ok(RtValue::Closure(Rc::new(Closure {
            name: None,
            param: Rc::clone(x),
            body: Rc::clone(body),
            env: env.clone(),
        }))),
        ExprKind::App(f, a) => {
            let fv = eval(f, env, s)?;
            let av = eval(a, env, s)?;
            apply(fv, av, at, s)
        }
        ExprKind::TyApp(f, t) => match eval(f, env, s)? {
            RtValue::Builtin(mut b) => {
                b.tyargs.push(t.clone());
                Ok(RtValue::Builtin(b))
            }
            // Type application on user functions is erased at run time.
            other => Ok(other),
        },
        ExprKind::Bin(op, l, r) => {
            // Short-circuit booleans first.
            match op {
                BinOp::And => {
                    return match eval(l, env, s)? {
                        RtValue::Bool(false) => Ok(RtValue::Bool(false)),
                        RtValue::Bool(true) => eval(r, env, s),
                        other => Err(LangError::eval(l.at, format!("`and` on {other}"))),
                    }
                }
                BinOp::Or => {
                    return match eval(l, env, s)? {
                        RtValue::Bool(true) => Ok(RtValue::Bool(true)),
                        RtValue::Bool(false) => eval(r, env, s),
                        other => Err(LangError::eval(l.at, format!("`or` on {other}"))),
                    }
                }
                _ => {}
            }
            let lv = eval(l, env, s)?;
            let rv = eval(r, env, s)?;
            bin_op(*op, lv, rv, at)
        }
        ExprKind::Not(x) => match eval(x, env, s)? {
            RtValue::Bool(b) => Ok(RtValue::Bool(!b)),
            other => Err(LangError::eval(x.at, format!("`not` on {other}"))),
        },
        ExprKind::Neg(x) => match eval(x, env, s)? {
            RtValue::Int(i) => Ok(RtValue::Int(-i)),
            RtValue::Float(f) => Ok(RtValue::Float(-f)),
            other => Err(LangError::eval(x.at, format!("negation of {other}"))),
        },
        ExprKind::DynamicE(x) => {
            let v = eval(x, env, s)?.materialized();
            let data = v.to_value(at)?;
            // The carried description is the value's principal type.
            let ty = dbpl_values::type_of(&data, s.db.env(), s.db.heap())
                .map_err(|e| LangError::eval(at, e.to_string()))?;
            Ok(RtValue::Dyn(ty, Rc::new(v)))
        }
        ExprKind::CoerceE(x, want) => match eval(x, env, s)? {
            RtValue::Dyn(carried, v) => {
                if is_subtype(&carried, want, s.db.env()) {
                    Ok((*v).clone())
                } else {
                    // The paper's run-time exception.
                    Err(LangError::eval(
                        at,
                        format!("coerce failed: dynamic value carries {carried}, wanted {want}"),
                    ))
                }
            }
            other => Err(LangError::eval(
                x.at,
                format!("coerce of non-dynamic {other}"),
            )),
        },
        ExprKind::TypeofE(x) => match eval(x, env, s)? {
            RtValue::Dyn(t, _) => Ok(RtValue::Str(t.to_string())),
            other => Err(LangError::eval(
                x.at,
                format!("typeof of non-dynamic {other}"),
            )),
        },
        ExprKind::ExternE(h, v) => {
            let handle = match eval(h, env, s)? {
                RtValue::Str(st) => st,
                other => return Err(LangError::eval(h.at, format!("handle was {other}"))),
            };
            match eval(v, env, s)? {
                RtValue::Dyn(t, inner) => {
                    let d = DynValue::new(t, inner.to_value(v.at)?);
                    // Staged in the session's open transaction; durable
                    // only once that transaction commits.
                    s.stage_extern(&handle, &d)
                        .map_err(|e| LangError::eval(at, e.to_string()))?;
                    Ok(RtValue::Unit)
                }
                other => Err(LangError::eval(
                    v.at,
                    format!("extern of non-dynamic {other}"),
                )),
            }
        }
        ExprKind::InternE(h) => {
            let handle = match eval(h, env, s)? {
                RtValue::Str(st) => st,
                other => return Err(LangError::eval(h.at, format!("handle was {other}"))),
            };
            // Reads through the open transaction's staged externs first
            // (read-your-writes), then the store; a corrupt unit is
            // quarantined in the session diagnostics as a side effect.
            let d = s
                .intern_staged(&handle)
                .map_err(|e| LangError::eval(at, e.to_string()))?;
            Ok(RtValue::Dyn(d.ty, Rc::new(RtValue::from_value(&d.value))))
        }
        ExprKind::TagE(label, payload) => {
            let v = eval(payload, env, s)?.materialized();
            Ok(RtValue::Tagged(label.clone(), Box::new(v)))
        }
        ExprKind::CaseE(scrutinee, arms) => match eval(scrutinee, env, s)? {
            RtValue::Tagged(label, payload) => {
                for (arm_label, binder, body) in arms {
                    if arm_label == &label {
                        let inner = env.bind(binder.as_str(), *payload);
                        return eval(body, &inner, s);
                    }
                }
                Err(LangError::eval(
                    at,
                    format!("no case arm for tag `{label}`"),
                ))
            }
            other => Err(LangError::eval(
                scrutinee.at,
                format!("`case` on non-variant {other}"),
            )),
        },
    }
}

/// Apply a function value to an argument.
pub fn apply(f: RtValue, arg: RtValue, at: usize, s: &mut Session) -> Result<RtValue, LangError> {
    match f {
        RtValue::Closure(c) => {
            let mut env = c.env.clone();
            if let Some(name) = &c.name {
                env = env.bind(Rc::clone(name), RtValue::Closure(c.clone()));
            }
            let env = env.bind(Rc::clone(&c.param), arg);
            eval(&c.body, &env, s)
        }
        RtValue::Builtin(mut b) => {
            b.args.push(arg.unpack());
            if b.args.len() >= b.arity {
                exec_builtin(b, at, s)
            } else {
                Ok(RtValue::Builtin(b))
            }
        }
        other => Err(LangError::eval(at, format!("cannot apply `{other}`"))),
    }
}

fn bin_op(op: BinOp, l: RtValue, r: RtValue, at: usize) -> Result<RtValue, LangError> {
    use RtValue::*;
    let num = |v: &RtValue| -> Option<f64> {
        match v {
            Int(i) => Some(*i as f64),
            Float(x) => Some(*x),
            _ => None,
        }
    };
    let both_int = matches!((&l, &r), (Int(_), Int(_)));
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
            let (a, b) = match (num(&l), num(&r)) {
                (Some(a), Some(b)) => (a, b),
                _ => return Err(LangError::eval(at, format!("arithmetic on {l} and {r}"))),
            };
            if both_int {
                let (a, b) = (a as i64, b as i64);
                let v = match op {
                    BinOp::Add => a.wrapping_add(b),
                    BinOp::Sub => a.wrapping_sub(b),
                    BinOp::Mul => a.wrapping_mul(b),
                    BinOp::Div => {
                        if b == 0 {
                            return Err(LangError::eval(at, "division by zero".to_string()));
                        }
                        a / b
                    }
                    _ => unreachable!(),
                };
                Ok(Int(v))
            } else {
                let v = match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => a / b,
                    _ => unreachable!(),
                };
                Ok(Float(v))
            }
        }
        BinOp::Concat => match (l, r) {
            (Str(a), Str(b)) => Ok(Str(a + &b)),
            (l, r) => Err(LangError::eval(at, format!("`++` on {l} and {r}"))),
        },
        BinOp::Eq | BinOp::Ne => {
            let eq = l
                .data_eq(&r)
                .ok_or_else(|| LangError::eval(at, "cannot compare functions".to_string()))?;
            Ok(Bool(if op == BinOp::Eq { eq } else { !eq }))
        }
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let ord = match (&l, &r) {
                (Str(a), Str(b)) => a.cmp(b),
                _ => match (num(&l), num(&r)) {
                    (Some(a), Some(b)) => a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal),
                    _ => return Err(LangError::eval(at, format!("ordering on {l} and {r}"))),
                },
            };
            use std::cmp::Ordering::*;
            Ok(Bool(match op {
                BinOp::Lt => ord == Less,
                BinOp::Le => ord != Greater,
                BinOp::Gt => ord == Greater,
                BinOp::Ge => ord != Less,
                _ => unreachable!(),
            }))
        }
        BinOp::And | BinOp::Or => unreachable!("short-circuited in eval"),
    }
}

fn exec_builtin(b: Builtin, at: usize, s: &mut Session) -> Result<RtValue, LangError> {
    let Builtin {
        name,
        tyargs,
        mut args,
        ..
    } = b;
    // List builtins consume their arguments: moved out, never cloned. A
    // builtin that needs a list materializes a `get` extent; `len`,
    // `isEmpty`, `head`, `fold`, `map`, `filter` and `sum` read one in
    // place first.
    let take = |args: &mut Vec<RtValue>, i: usize| std::mem::replace(&mut args[i], RtValue::Unit);
    let list_arg = |v: RtValue, at: usize| -> Result<Vec<RtValue>, LangError> {
        match v.materialized() {
            RtValue::List(xs) => Ok(xs),
            other => Err(LangError::eval(
                at,
                format!("expected a list, found {other}"),
            )),
        }
    };
    match name {
        "print" => {
            let v = args.remove(0);
            s.out.push(v.to_string());
            Ok(RtValue::Unit)
        }
        "str" => Ok(RtValue::Str(args.remove(0).to_string())),
        "panic" => {
            let msg = match args.remove(0) {
                RtValue::Str(m) => m,
                other => other.to_string(),
            };
            panic!("{msg}");
        }
        "get" => {
            let bound = tyargs
                .first()
                .cloned()
                .ok_or_else(|| LangError::eval(at, "get needs a type argument".to_string()))?;
            match args.remove(0) {
                RtValue::DbToken => Ok(RtValue::Extent(Rc::new(s.db.get_view(&bound)))),
                other => Err(LangError::eval(at, format!("get on non-database {other}"))),
            }
        }
        "put" => {
            let value = args.remove(1);
            let dbtok = args.remove(0);
            if !matches!(dbtok, RtValue::DbToken) {
                return Err(LangError::eval(at, "put needs the database".to_string()));
            }
            match value {
                RtValue::Dyn(t, v) => {
                    let data = v.to_value(at)?;
                    s.db.put(t, data)
                        .map_err(|e| LangError::eval(at, e.to_string()))?;
                    Ok(RtValue::Unit)
                }
                other => Err(LangError::eval(at, format!("put of non-dynamic {other}"))),
            }
        }
        "cons" => {
            let xs = list_arg(take(&mut args, 1), at)?;
            let mut out = Vec::with_capacity(xs.len() + 1);
            out.push(take(&mut args, 0).materialized());
            out.extend(xs);
            Ok(RtValue::List(out))
        }
        "head" => {
            let first = match take(&mut args, 0) {
                RtValue::Extent(view) => view.iter().next().map(RtValue::Stored),
                xs => list_arg(xs, at)?.into_iter().next(),
            };
            first
                .map(RtValue::unpack)
                .ok_or_else(|| LangError::eval(at, "head of empty list"))
        }
        "tail" => {
            let mut xs = list_arg(take(&mut args, 0), at)?;
            if xs.is_empty() {
                return Err(LangError::eval(at, "tail of empty list".to_string()));
            }
            xs.remove(0);
            Ok(RtValue::List(xs))
        }
        "isEmpty" => Ok(RtValue::Bool(match take(&mut args, 0) {
            RtValue::Extent(view) => view.is_empty(),
            xs => list_arg(xs, at)?.is_empty(),
        })),
        "len" => Ok(RtValue::Int(match take(&mut args, 0) {
            RtValue::Extent(view) => view.len(),
            xs => list_arg(xs, at)?.len(),
        } as i64)),
        "append" => {
            let mut xs = list_arg(take(&mut args, 0), at)?;
            xs.extend(list_arg(take(&mut args, 1), at)?);
            Ok(RtValue::List(xs))
        }
        "map" => {
            let f = take(&mut args, 0);
            let mut out = Vec::new();
            for_each_elem(take(&mut args, 1), at, |x| {
                out.push(apply(f.clone(), x, at, s)?);
                Ok(())
            })?;
            Ok(RtValue::List(out))
        }
        "filter" => {
            let f = take(&mut args, 0);
            let mut out = Vec::new();
            for_each_elem(take(&mut args, 1), at, |x| {
                match apply(f.clone(), x.clone(), at, s)? {
                    RtValue::Bool(true) => out.push(x),
                    RtValue::Bool(false) => {}
                    other => {
                        return Err(LangError::eval(
                            at,
                            format!("filter predicate returned {other}"),
                        ))
                    }
                }
                Ok(())
            })?;
            Ok(RtValue::List(out))
        }
        "fold" => {
            let f = take(&mut args, 0);
            let mut acc = take(&mut args, 1);
            for_each_elem(take(&mut args, 2), at, |x| {
                let partial = apply(f.clone(), std::mem::replace(&mut acc, RtValue::Unit), at, s)?;
                acc = apply(partial, x, at, s)?;
                Ok(())
            })?;
            Ok(acc)
        }
        "reverse" => {
            let mut xs = list_arg(take(&mut args, 0), at)?;
            xs.reverse();
            Ok(RtValue::List(xs))
        }
        "distinct" => {
            let xs = list_arg(take(&mut args, 0), at)?;
            let mut out: Vec<RtValue> = Vec::new();
            for x in xs {
                let dup = out.iter().any(|y| y.data_eq(&x) == Some(true));
                if !dup {
                    out.push(x);
                }
            }
            Ok(RtValue::List(out))
        }
        "range" => {
            let (lo, hi) = match (&args[0], &args[1]) {
                (RtValue::Int(a), RtValue::Int(b)) => (*a, *b),
                _ => return Err(LangError::eval(at, "range needs two Ints".to_string())),
            };
            Ok(RtValue::List((lo..hi).map(RtValue::Int).collect()))
        }
        "sum" => {
            let mut total = 0.0;
            for_each_elem(take(&mut args, 0), at, |x| {
                total += match x.unpack() {
                    RtValue::Int(i) => i as f64,
                    RtValue::Float(f) => f,
                    other => return Err(LangError::eval(at, format!("sum of {other}"))),
                };
                Ok(())
            })?;
            Ok(RtValue::Float(total))
        }
        "explain" => {
            let bound = tyargs
                .first()
                .cloned()
                .ok_or_else(|| LangError::eval(at, "explain needs a type argument".to_string()))?;
            match args.remove(0) {
                RtValue::DbToken => {
                    let before = dbpl_obs::global().snapshot();
                    let pkgs = s.db.get(&bound);
                    let delta = dbpl_obs::global().snapshot().delta_since(&before);
                    Ok(RtValue::Str(format!(
                        "get[{bound}]: strategy=typed_lists matches={} rows_scanned={} rows_sealed={} \
                         subtype_cache_hits={} subtype_cache_misses={}",
                        pkgs.len(),
                        delta.counter("get.rows_scanned"),
                        delta.counter("get.rows_sealed"),
                        delta.counter("subtype.cache.hits"),
                        delta.counter("subtype.cache.misses"),
                    )))
                }
                other => Err(LangError::eval(
                    at,
                    format!("explain on non-database {other}"),
                )),
            }
        }
        "explainJoin" => {
            let rhs = list_arg(take(&mut args, 1), at)?;
            let lhs = list_arg(take(&mut args, 0), at)?;
            let mut lvals = Vec::with_capacity(lhs.len());
            for x in &lhs {
                lvals.push(x.to_value(at)?);
            }
            let mut rvals = Vec::with_capacity(rhs.len());
            for x in &rhs {
                rvals.push(x.to_value(at)?);
            }
            let a = dbpl_relation::GenRelation::from_values(lvals);
            let b = dbpl_relation::GenRelation::from_values(rvals);
            let before = dbpl_obs::global().snapshot();
            let joined = a.natural_join(&b);
            let delta = dbpl_obs::global().snapshot().delta_since(&before);
            Ok(RtValue::Str(format!(
                "join: strategy=partitioned left={} right={} out={} buckets={} fallback_rows={} \
                 products_serial={} products_parallel={}",
                a.len(),
                b.len(),
                joined.len(),
                delta.counter("join.partitioned.buckets"),
                delta.counter("join.partitioned.fallback_rows"),
                delta.counter("join.products.serial"),
                delta.counter("join.products.parallel"),
            )))
        }
        "explainAnalyze" => {
            let bound = tyargs.first().cloned().ok_or_else(|| {
                LangError::eval(at, "explainAnalyze needs a type argument".to_string())
            })?;
            match args.remove(0) {
                RtValue::DbToken => {
                    let before = dbpl_obs::global().snapshot();
                    let (pkgs, spans) =
                        dbpl_obs::trace::capture("explain_analyze", || s.db.get(&bound));
                    let delta = dbpl_obs::global().snapshot().delta_since(&before);
                    let hits = delta.counter("subtype.cache.hits");
                    let misses = delta.counter("subtype.cache.misses");
                    let header = format!(
                        "get[{bound}]: strategy=typed_lists matches={} rows_scanned={} \
                         rows_sealed={} cache_hit_ratio={}",
                        pkgs.len(),
                        delta.counter("get.rows_scanned"),
                        delta.counter("get.rows_sealed"),
                        cache_hit_ratio(hits, misses),
                    );
                    Ok(RtValue::Str(format!(
                        "{header}\n{}",
                        dbpl_obs::trace::render_tree(&spans).trim_end()
                    )))
                }
                other => Err(LangError::eval(
                    at,
                    format!("explainAnalyze on non-database {other}"),
                )),
            }
        }
        "scrub" => match args.remove(0) {
            RtValue::DbToken => {
                let (report, spans) = dbpl_obs::trace::capture("scrub_cmd", || s.scrub());
                Ok(RtValue::Str(format!(
                    "{}\n{}",
                    report.summary(),
                    dbpl_obs::trace::render_tree(&spans).trim_end()
                )))
            }
            other => Err(LangError::eval(
                at,
                format!("scrub on non-database {other}"),
            )),
        },
        "timeline" => match args.remove(0) {
            RtValue::DbToken => Ok(RtValue::Str(
                dbpl_obs::timeline::render_active(10)
                    .unwrap_or_else(|| "timeline: no recorder active".to_string()),
            )),
            other => Err(LangError::eval(
                at,
                format!("timeline on non-database {other}"),
            )),
        },
        "analyze" => match args.remove(0) {
            RtValue::DbToken => {
                let catalog = s.db.analyze();
                Ok(RtValue::Str(format!(
                    "analyze: rebuilt statistics for {} carried type(s), {} row(s)",
                    catalog.type_count(),
                    catalog.total_rows()
                )))
            }
            other => Err(LangError::eval(
                at,
                format!("analyze on non-database {other}"),
            )),
        },
        "extentStats" => match args.remove(0) {
            RtValue::DbToken => Ok(RtValue::Str(s.db.stats_catalog().render())),
            other => Err(LangError::eval(
                at,
                format!("extentStats on non-database {other}"),
            )),
        },
        "workload" => match args.remove(0) {
            RtValue::DbToken => {
                let log = dbpl_stats::query_log();
                let records = log.snapshot();
                let mut out = format!(
                    "workload: {} recorded query(ies), {} dropped (capacity {})\n",
                    records.len(),
                    log.dropped(),
                    log.capacity()
                );
                for (i, agg) in log.top_k(5).iter().enumerate() {
                    out.push_str(&format!(
                        "  #{} {} count={} rows_in={} rows_out={} total_dur_us={} max_dur_us={}\n",
                        i + 1,
                        agg.fingerprint,
                        agg.count,
                        agg.rows_in,
                        agg.rows_out,
                        agg.total_dur_us,
                        agg.max_dur_us
                    ));
                }
                Ok(RtValue::Str(out))
            }
            other => Err(LangError::eval(
                at,
                format!("workload on non-database {other}"),
            )),
        },
        "explainAnalyzeJoin" => {
            let rhs = list_arg(take(&mut args, 1), at)?;
            let lhs = list_arg(take(&mut args, 0), at)?;
            let mut lvals = Vec::with_capacity(lhs.len());
            for x in &lhs {
                lvals.push(x.to_value(at)?);
            }
            let mut rvals = Vec::with_capacity(rhs.len());
            for x in &rhs {
                rvals.push(x.to_value(at)?);
            }
            let a = dbpl_relation::GenRelation::from_values(lvals);
            let b = dbpl_relation::GenRelation::from_values(rvals);
            let before = dbpl_obs::global().snapshot();
            let (joined, spans) =
                dbpl_obs::trace::capture("explain_analyze_join", || a.natural_join(&b));
            let delta = dbpl_obs::global().snapshot().delta_since(&before);
            let header = format!(
                "join: strategy=partitioned left={} right={} out={} buckets={} fallback_rows={} \
                 reduce_pairs_compared={}",
                a.len(),
                b.len(),
                joined.len(),
                delta.counter("join.partitioned.buckets"),
                delta.counter("join.partitioned.fallback_rows"),
                delta.counter("join.reduce.pairs_compared"),
            );
            Ok(RtValue::Str(format!(
                "{header}\n{}",
                dbpl_obs::trace::render_tree(&spans).trim_end()
            )))
        }
        other => Err(LangError::eval(at, format!("unknown builtin `{other}`"))),
    }
}

/// Run `body` on each element of a list argument, in order. A `get`
/// extent is iterated in place, one package sealed per element, instead
/// of being materialized first.
fn for_each_elem(
    xs: RtValue,
    at: usize,
    mut body: impl FnMut(RtValue) -> Result<(), LangError>,
) -> Result<(), LangError> {
    match xs {
        RtValue::Extent(view) => view.iter().try_for_each(|p| body(RtValue::Stored(p))),
        RtValue::List(xs) => xs.into_iter().try_for_each(body),
        other => Err(LangError::eval(
            at,
            format!("expected a list, found {other}"),
        )),
    }
}

/// Hits over (hits + misses), rendered with two decimals; `1.00` when the
/// operation never consulted the cache.
fn cache_hit_ratio(hits: u64, misses: u64) -> String {
    if hits + misses == 0 {
        "1.00".to_string()
    } else {
        format!("{:.2}", hits as f64 / (hits + misses) as f64)
    }
}

/// Check that a coerced or interned value is usable at a named type — the
/// subtype relation over the session's environment. Re-exported for tests.
pub fn carried_subtype(carried: &Type, want: &Type, s: &Session) -> bool {
    is_subtype(carried, want, s.db.env())
}
