//! The evaluator: runs the checker's resolved [`Code`] against a session.
//!
//! Static checking has already happened; the only *type* checks performed
//! at run time are the ones the paper requires to be dynamic — the
//! subtype test inside `coerce` (which raises the paper's "run-time
//! exception" on mismatch) and the per-element test inside `get`.
//!
//! The checker also resolved every name (see [`crate::check`]), so nothing
//! is looked up by name here. A [`Machine`] keeps one slot vector for the
//! whole program. A frame is a run of slots: a function's arguments, then
//! its `let` and `case` binders, at fixed offsets from the frame's start.
//! A call pushes its arguments above the caller's frame, and they become
//! the callee's first slots; a function that has every argument it takes
//! runs at once, one given fewer becomes an [`RtValue::Partial`]. `fold`,
//! `map` and `filter` apply their function to each element the same way,
//! so a full-arity function costs no heap allocation per element. A
//! closure holds only the values its body captures.
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
//! unopened [`RtValue::Stored`] rows, shared with the store. A field read
//! on a row converts only that field; the whole row is converted only
//! where the evaluator inspects a value's shape: `with`,
//! `case`, operators, conditions, builtin arguments and the elements `sum`
//! adds.

use crate::ast::{BinOp, Code, Op, Slot};
use crate::builtins::{sig, Bi};
use crate::error::LangError;
use crate::rt::{Closure, Partial, RtValue};
use crate::session::Session;
use dbpl_relation::GenRelation;
use dbpl_types::{is_subtype, Type};
use dbpl_values::DynValue;
use std::collections::BTreeMap;
use std::rc::Rc;

/// What evaluating an expression or applying a function yields.
type Evaluated = Result<RtValue, LangError>;

/// How much of its thread's stack a program's calls may use, counted
/// from where its [`Machine`] was made. The evaluator recurses on the
/// Rust stack once per call, and a stack overflow aborts the process
/// (it is not a panic `catch_unwind` can isolate), so a call that would
/// go deeper fails the program instead. Three quarters of the 2 MiB a
/// spawned thread gets by default leaves the rest for the caller's
/// frames and for the builtin the innermost call runs; it holds about
/// 1,200 nested calls of a small recursive function in a release build.
const CALL_STACK_BUDGET: usize = 3 << 19;

/// An address on the current stack frame.
fn stack_position() -> usize {
    let marker = 0u8;
    std::ptr::addr_of!(marker) as usize
}

/// The evaluator's state while one program runs.
pub struct Machine<'s> {
    /// The session the program runs against.
    pub(crate) s: &'s mut Session,
    /// Every live frame, innermost last, with the arguments of calls
    /// being gathered above the innermost one.
    stack: Vec<RtValue>,
    /// Where the running frame starts.
    bp: usize,
    /// The running closure; `None` at the top level.
    cur: Option<Rc<Closure>>,
    /// Where the stack stood when the machine was made: calls may use
    /// [`CALL_STACK_BUDGET`] bytes past it.
    stack_base: usize,
}

impl<'s> Machine<'s> {
    /// A machine running against `s`, whose top-level frame has `frame`
    /// slots.
    pub fn new(s: &'s mut Session, frame: usize) -> Machine<'s> {
        Machine {
            s,
            stack: vec![RtValue::Unit; frame],
            bp: 0,
            cur: None,
            stack_base: stack_position(),
        }
    }

    /// Fill slot `slot` of the top-level frame: a top-level binding.
    pub fn bind(&mut self, slot: usize, v: RtValue) {
        self.stack[slot] = v;
    }

    fn load(&self, slot: Slot) -> RtValue {
        let closure = || self.cur.as_ref().expect("only a closure captures");
        match slot {
            Slot::Local(i) => self.stack[self.bp + i].clone(),
            Slot::Captured(i) => closure().captured[i].clone(),
            Slot::Rec => RtValue::Closure(Rc::clone(closure())),
        }
    }

    /// Field `l` of `base`'s value. A variable is read in place, and a
    /// stored row converts only the field read.
    fn field(&mut self, base: &Code, l: &str) -> Result<Option<RtValue>, LangError> {
        let field = |v: &RtValue| match v {
            RtValue::Stored(p) => p.value().field(l).map(RtValue::from_value),
            RtValue::Record(fs) => fs.get(l).cloned(),
            _ => None,
        };
        Ok(match base.op {
            Op::Var(Slot::Local(i)) => field(&self.stack[self.bp + i]),
            _ => field(&self.eval(base)?),
        })
    }

    /// Evaluate `c` and open it if it is a stored row. Operands are
    /// mostly variables and literals, read here without a call to `eval`.
    fn open(&mut self, c: &Code) -> Evaluated {
        Ok(match &c.op {
            Op::Var(Slot::Local(i)) => self.stack[self.bp + i].clone(),
            Op::Const(v) => v.clone(),
            _ => self.eval(c)?,
        }
        .unpack())
    }

    fn truth(&mut self, c: &Code) -> Result<bool, LangError> {
        match self.open(c)? {
            RtValue::Bool(b) => Ok(b),
            other => unexpected(c.at, "expected a boolean, found", &other),
        }
    }

    fn handle(&mut self, c: &Code) -> Result<String, LangError> {
        match self.open(c)? {
            RtValue::Str(st) => Ok(st),
            other => unexpected(c.at, "handle was", &other),
        }
    }

    /// Evaluate an expression against a session.
    pub fn eval(&mut self, c: &Code) -> Evaluated {
        let at = c.at;
        match &c.op {
            Op::Const(v) => Ok(v.clone()),
            Op::Var(slot) => Ok(self.load(*slot)),
            Op::Record(fields) => {
                let mut fs = BTreeMap::new();
                for (l, fe) in fields {
                    fs.insert(l.clone(), self.eval(fe)?.materialized());
                }
                Ok(RtValue::Record(fs))
            }
            Op::List(items) => {
                let mut xs = Vec::with_capacity(items.len());
                for it in items {
                    xs.push(self.eval(it)?.materialized());
                }
                Ok(RtValue::List(xs))
            }
            Op::Field(base, l) => self
                .field(base, l)?
                .ok_or_else(|| LangError::eval(at, format!("no field `{l}`"))),
            Op::With(base, additions) => match self.open(base)? {
                RtValue::Record(mut fs) => {
                    for (l, ae) in additions {
                        let v = self.eval(ae)?.materialized();
                        fs.insert(l.clone(), v);
                    }
                    Ok(RtValue::Record(fs))
                }
                other => unexpected(at, "`with` applies to records, not", &other),
            },
            Op::If(c, t, f) => {
                if self.truth(c)? {
                    self.eval(t)
                } else {
                    self.eval(f)
                }
            }
            Op::Let(slot, bound, body) => {
                let v = self.eval(bound)?;
                self.stack[self.bp + slot] = v;
                self.eval(body)
            }
            Op::Lambda(code) => {
                let captured = code.captures.iter().map(|&slot| self.load(slot)).collect();
                Ok(RtValue::Closure(Rc::new(Closure {
                    code: Rc::clone(code),
                    captured,
                })))
            }
            Op::Call(f, args) => {
                let mut fv = self.eval(f)?;
                let base = self.stack.len();
                for a in args {
                    let v = self.eval(a)?;
                    fv = self.push_arg(fv, base, v, at)?;
                }
                Ok(self.partial(fv, base))
            }
            Op::TyApp(f, t) => match self.eval(f)? {
                RtValue::Builtin(id, mut tyargs) => {
                    tyargs.push(t.clone());
                    Ok(RtValue::Builtin(id, tyargs))
                }
                // Type application on user functions is erased at run time.
                other => Ok(other),
            },
            Op::Bin(BinOp::And, l, r) => Ok(RtValue::Bool(self.truth(l)? && self.truth(r)?)),
            Op::Bin(BinOp::Or, l, r) => Ok(RtValue::Bool(self.truth(l)? || self.truth(r)?)),
            Op::Bin(op, l, r) => {
                let lv = self.open(l)?;
                let rv = self.open(r)?;
                bin_op(*op, lv, rv, at)
            }
            Op::Not(x) => Ok(RtValue::Bool(!self.truth(x)?)),
            Op::Neg(x) => match self.open(x)? {
                RtValue::Int(i) => Ok(RtValue::Int(-i)),
                RtValue::Float(f) => Ok(RtValue::Float(-f)),
                other => unexpected(x.at, "negation of", &other),
            },
            Op::Dynamic(x) => {
                let v = self.eval(x)?.materialized();
                let data = v.to_value(at)?;
                // The carried description is the value's principal type.
                let ty = dbpl_values::type_of(&data, self.s.db.env(), self.s.db.heap())
                    .map_err(|e| LangError::eval(at, e.to_string()))?;
                Ok(RtValue::Dyn(ty, Rc::new(v)))
            }
            Op::Coerce(x, want) => match self.open(x)? {
                RtValue::Dyn(carried, v) if is_subtype(&carried, want, self.s.db.env()) => {
                    Ok((*v).clone())
                }
                // The paper's run-time exception.
                RtValue::Dyn(carried, _) => Err(LangError::eval(
                    at,
                    format!("coerce failed: dynamic value carries {carried}, wanted {want}"),
                )),
                other => unexpected(x.at, "coerce of non-dynamic", &other),
            },
            Op::Typeof(x) => match self.open(x)? {
                RtValue::Dyn(t, _) => Ok(RtValue::Str(t.to_string())),
                other => unexpected(x.at, "typeof of non-dynamic", &other),
            },
            Op::Extern(h, v) => {
                let handle = self.handle(h)?;
                match self.open(v)? {
                    RtValue::Dyn(t, inner) => {
                        let d = DynValue::new(t, inner.to_value(v.at)?);
                        // Staged in the session's open transaction; durable
                        // only once that transaction commits.
                        self.s
                            .stage_extern(&handle, &d)
                            .map_err(|e| LangError::eval(at, e.to_string()))?;
                        Ok(RtValue::Unit)
                    }
                    other => unexpected(v.at, "extern of non-dynamic", &other),
                }
            }
            Op::Intern(h) => {
                let handle = self.handle(h)?;
                // Reads through the open transaction's staged externs first
                // (read-your-writes), then the store; a corrupt unit is
                // quarantined in the session diagnostics as a side effect.
                let d = self
                    .s
                    .intern_staged(&handle)
                    .map_err(|e| LangError::eval(at, e.to_string()))?;
                Ok(RtValue::Dyn(d.ty, Rc::new(RtValue::from_value(&d.value))))
            }
            Op::Tag(label, payload) => {
                let v = self.eval(payload)?.materialized();
                Ok(RtValue::Tagged(label.clone(), Box::new(v)))
            }
            Op::Case(scrutinee, arms) => match self.open(scrutinee)? {
                RtValue::Tagged(label, payload) => {
                    let (_, slot, body) =
                        arms.iter().find(|(l, ..)| *l == label).ok_or_else(|| {
                            LangError::eval(at, format!("no case arm for tag `{label}`"))
                        })?;
                    self.stack[self.bp + slot] = *payload;
                    self.eval(body)
                }
                other => unexpected(scrutinee.at, "`case` on non-variant", &other),
            },
        }
    }

    /// Push one argument for `f` above `base`. Once `f` has every argument
    /// it takes, apply it; the result takes any further arguments.
    fn push_arg(&mut self, f: RtValue, base: usize, v: RtValue, at: usize) -> Evaluated {
        self.stack.push(v);
        if self.stack.len() - base < f.arity() {
            return Ok(f);
        }
        self.call(f, base, at)
    }

    /// Apply `f` to `args`, as a call `f(args...)` would.
    fn apply<const N: usize>(&mut self, f: &RtValue, args: [RtValue; N], at: usize) -> Evaluated {
        let base = self.stack.len();
        match f {
            RtValue::Closure(c) if c.code.arity == N => {
                self.stack.extend(args);
                self.enter(c, base)
            }
            f => {
                let mut f = f.clone();
                for v in args {
                    f = self.push_arg(f, base, v, at)?;
                }
                Ok(self.partial(f, base))
            }
        }
    }

    /// Run closure `c` on the arguments above `base`.
    fn enter(&mut self, c: &Rc<Closure>, base: usize) -> Evaluated {
        if stack_position().abs_diff(self.stack_base) > CALL_STACK_BUDGET {
            self.stack.truncate(base);
            return Err(LangError::eval(
                c.code.body.at,
                "calls nested too deeply: the program would overflow the stack".to_string(),
            ));
        }
        let (bp, cur) = (self.bp, self.cur.replace(Rc::clone(c)));
        self.bp = base;
        if c.code.frame > c.code.arity {
            self.stack.resize(base + c.code.frame, RtValue::Unit);
        }
        let result = self.eval(&c.code.body);
        self.stack.truncate(base);
        (self.bp, self.cur) = (bp, cur);
        result
    }

    /// `f`, applied to the arguments left above `base`, if any.
    fn partial(&mut self, f: RtValue, base: usize) -> RtValue {
        if self.stack.len() == base {
            return f;
        }
        let args = self.stack.split_off(base);
        RtValue::Partial(Rc::new(Partial { f, args }))
    }

    /// Apply `f` to the arguments above `base`: exactly as many as it takes.
    fn call(&mut self, f: RtValue, base: usize, at: usize) -> Evaluated {
        match f {
            RtValue::Closure(c) => self.enter(&c, base),
            RtValue::Builtin(id, tyargs) => {
                let args = self.stack.drain(base..).map(RtValue::unpack).collect();
                self.exec_builtin(id, &tyargs, args, at)
            }
            RtValue::Partial(p) => {
                let first = p.args.iter().cloned();
                self.stack.splice(base..base, first).for_each(drop);
                self.call(p.f.clone(), base, at)
            }
            other => Err(LangError::eval(at, format!("cannot apply `{other}`"))),
        }
    }

    #[inline(never)]
    fn exec_builtin(
        &mut self,
        id: Bi,
        tyargs: &[Type],
        args: Vec<RtValue>,
        at: usize,
    ) -> Evaluated {
        // List builtins consume their arguments: moved out, never cloned. A
        // builtin that needs a list materializes a `get` extent; `len`,
        // `isEmpty`, `head`, `fold`, `map`, `filter` and `sum` read one in
        // place first.
        let mut args = args.into_iter();
        let mut arg = move || args.next().expect("a builtin runs with every argument");
        let name = sig(id).name;
        let bound = || {
            tyargs
                .first()
                .cloned()
                .ok_or_else(|| LangError::eval(at, format!("{name} needs a type argument")))
        };
        let db = |v: RtValue| match v {
            RtValue::DbToken => Ok(()),
            other => unexpected(at, &format!("{name} on non-database"), &other),
        };
        match id {
            Bi::Print => {
                self.s.out.push(arg().to_string());
                Ok(RtValue::Unit)
            }
            Bi::Str => Ok(RtValue::Str(arg().to_string())),
            Bi::Panic => match arg() {
                RtValue::Str(m) => panic!("{m}"),
                other => panic!("{other}"),
            },
            Bi::Get => {
                db(arg())?;
                Ok(RtValue::Extent(Rc::new(self.s.db.get_view(&bound()?))))
            }
            Bi::Put => {
                db(arg())?;
                match arg() {
                    RtValue::Dyn(t, v) => {
                        let data = v.to_value(at)?;
                        self.s
                            .db
                            .put(t, data)
                            .map_err(|e| LangError::eval(at, e.to_string()))?;
                        Ok(RtValue::Unit)
                    }
                    other => unexpected(at, "put of non-dynamic", &other),
                }
            }
            Bi::Cons => {
                let x = arg().materialized();
                let xs = list_arg(arg(), at)?;
                let mut out = Vec::with_capacity(xs.len() + 1);
                out.push(x);
                out.extend(xs);
                Ok(RtValue::List(out))
            }
            Bi::Head => match arg() {
                RtValue::Extent(view) => view.rows().next().map(RtValue::Stored),
                xs => list_arg(xs, at)?.into_iter().next(),
            }
            .ok_or_else(|| LangError::eval(at, "head of empty list")),
            Bi::Tail => {
                let mut xs = list_arg(arg(), at)?;
                if xs.is_empty() {
                    return Err(LangError::eval(at, "tail of empty list".to_string()));
                }
                xs.remove(0);
                Ok(RtValue::List(xs))
            }
            Bi::IsEmpty => Ok(RtValue::Bool(match arg() {
                RtValue::Extent(view) => view.is_empty(),
                xs => list_arg(xs, at)?.is_empty(),
            })),
            Bi::Len => Ok(RtValue::Int(match arg() {
                RtValue::Extent(view) => view.len(),
                xs => list_arg(xs, at)?.len(),
            } as i64)),
            Bi::Append => {
                let mut xs = list_arg(arg(), at)?;
                xs.extend(list_arg(arg(), at)?);
                Ok(RtValue::List(xs))
            }
            Bi::Map => {
                let f = arg();
                let mut out = Vec::new();
                for_each_elem(arg(), at, |x| {
                    out.push(self.apply(&f, [x], at)?);
                    Ok(())
                })?;
                Ok(RtValue::List(out))
            }
            Bi::Filter => {
                let f = arg();
                let mut out = Vec::new();
                for_each_elem(arg(), at, |x| {
                    match self.apply(&f, [x.clone()], at)?.unpack() {
                        RtValue::Bool(true) => out.push(x),
                        RtValue::Bool(false) => {}
                        other => return unexpected(at, "filter predicate returned", &other),
                    }
                    Ok(())
                })?;
                Ok(RtValue::List(out))
            }
            Bi::Fold => {
                let f = arg();
                let mut acc = arg();
                for_each_elem(arg(), at, |x| {
                    let prev = std::mem::replace(&mut acc, RtValue::Unit);
                    acc = self.apply(&f, [prev, x], at)?;
                    Ok(())
                })?;
                Ok(acc)
            }
            Bi::Reverse => {
                let mut xs = list_arg(arg(), at)?;
                xs.reverse();
                Ok(RtValue::List(xs))
            }
            Bi::Distinct => {
                let mut out: Vec<RtValue> = Vec::new();
                for x in list_arg(arg(), at)? {
                    if !out.iter().any(|y| y.data_eq(&x) == Some(true)) {
                        out.push(x);
                    }
                }
                Ok(RtValue::List(out))
            }
            Bi::Range => match (arg(), arg()) {
                (RtValue::Int(lo), RtValue::Int(hi)) => {
                    Ok(RtValue::List((lo..hi).map(RtValue::Int).collect()))
                }
                _ => Err(LangError::eval(at, "range needs two Ints".to_string())),
            },
            Bi::Sum => {
                let mut total = 0.0;
                for_each_elem(arg(), at, |x| {
                    total += match x.unpack() {
                        RtValue::Int(i) => i as f64,
                        RtValue::Float(f) => f,
                        other => return unexpected(at, "sum of", &other),
                    };
                    Ok(())
                })?;
                Ok(RtValue::Float(total))
            }
            Bi::Explain | Bi::ExplainAnalyze => {
                db(arg())?;
                let bound = bound()?;
                let analyze = id == Bi::ExplainAnalyze;
                let before = dbpl_obs::global().snapshot();
                let (pkgs, spans) = if analyze {
                    dbpl_obs::trace::capture("explain_analyze", || self.s.db.get(&bound))
                } else {
                    (self.s.db.get(&bound), Vec::new())
                };
                let delta = dbpl_obs::global().snapshot().delta_since(&before);
                let c = |counter| delta.counter(counter);
                let (hits, misses) = (c("subtype.cache.hits"), c("subtype.cache.misses"));
                let head = format!(
                    "get[{bound}]: strategy=typed_lists matches={} rows_scanned={} rows_sealed={}",
                    pkgs.len(),
                    c("get.rows_scanned"),
                    c("get.rows_sealed"),
                );
                Ok(RtValue::Str(if analyze {
                    let ratio = cache_hit_ratio(hits, misses);
                    format!("{head} cache_hit_ratio={ratio}\n{}", tree(&spans))
                } else {
                    format!("{head} subtype_cache_hits={hits} subtype_cache_misses={misses}")
                }))
            }
            Bi::ExplainJoin | Bi::ExplainAnalyzeJoin => {
                let (l, r) = (relation(arg(), at)?, relation(arg(), at)?);
                let analyze = id == Bi::ExplainAnalyzeJoin;
                let before = dbpl_obs::global().snapshot();
                let (joined, spans) = if analyze {
                    dbpl_obs::trace::capture("explain_analyze_join", || l.natural_join(&r))
                } else {
                    (l.natural_join(&r), Vec::new())
                };
                let delta = dbpl_obs::global().snapshot().delta_since(&before);
                let c = |counter| delta.counter(counter);
                let head = format!(
                    "join: strategy=partitioned left={} right={} out={} buckets={} fallback_rows={}",
                    l.len(),
                    r.len(),
                    joined.len(),
                    c("join.partitioned.buckets"),
                    c("join.partitioned.fallback_rows"),
                );
                Ok(RtValue::Str(if analyze {
                    let pairs = c("join.reduce.pairs_compared");
                    format!("{head} reduce_pairs_compared={pairs}\n{}", tree(&spans))
                } else {
                    let (serial, parallel) =
                        (c("join.products.serial"), c("join.products.parallel"));
                    format!("{head} products_serial={serial} products_parallel={parallel}")
                }))
            }
            Bi::Scrub => {
                db(arg())?;
                let (report, spans) = dbpl_obs::trace::capture("scrub_cmd", || self.s.scrub());
                Ok(RtValue::Str(format!(
                    "{}\n{}",
                    report.summary(),
                    tree(&spans)
                )))
            }
            Bi::Timeline => {
                db(arg())?;
                Ok(RtValue::Str(
                    dbpl_obs::timeline::render_active(10)
                        .unwrap_or_else(|| "timeline: no recorder active".to_string()),
                ))
            }
            Bi::Analyze => {
                db(arg())?;
                let catalog = self.s.db.stats_catalog();
                let rows: u64 = catalog.values().map(|s| s.rows).sum();
                Ok(RtValue::Str(format!(
                    "analyze: statistics for {} carried type(s), {rows} row(s)",
                    catalog.len()
                )))
            }
            Bi::ExtentStats => {
                db(arg())?;
                Ok(RtValue::Str(dbpl_stats::render_catalog(
                    &self.s.db.stats_catalog(),
                )))
            }
            Bi::Workload => {
                db(arg())?;
                if !dbpl_obs::trace::is_active() {
                    return Ok(RtValue::Str(
                        "workload: tracing is off, so no queries were recorded".to_string(),
                    ));
                }
                let records = dbpl_stats::queries(&dbpl_obs::trace::buffered());
                let mut out = format!("workload: {} query(ies) in the trace ring\n", records.len());
                for (i, agg) in dbpl_stats::top_k(&records, 5).iter().enumerate() {
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
        }
    }
}

fn list_arg(v: RtValue, at: usize) -> Result<Vec<RtValue>, LangError> {
    match v.materialized() {
        RtValue::List(xs) => Ok(xs),
        other => unexpected(at, "expected a list, found", &other),
    }
}

/// The error for a value of the wrong shape, which checking rules out.
fn unexpected<T>(at: usize, what: &str, v: &RtValue) -> Result<T, LangError> {
    Err(LangError::eval(at, format!("{what} {v}")))
}

/// A list argument of the join builtins, as a generalized relation.
fn relation(v: RtValue, at: usize) -> Result<GenRelation, LangError> {
    let rows: Result<Vec<_>, _> = list_arg(v, at)?.iter().map(|x| x.to_value(at)).collect();
    Ok(GenRelation::from_values(rows?))
}

#[inline]
fn bin_op(op: BinOp, l: RtValue, r: RtValue, at: usize) -> Evaluated {
    use std::cmp::Ordering::{Equal, Greater, Less};
    use BinOp::*;
    use RtValue::{Bool, Float, Int, Str};
    let ordered = |o: std::cmp::Ordering| {
        Ok(Bool(match op {
            Lt => o == Less,
            Le => o != Greater,
            Gt => o == Greater,
            _ => o != Less,
        }))
    };
    let num = |v: &RtValue| match v {
        Int(i) => Some(*i as f64),
        Float(x) => Some(*x),
        _ => None,
    };
    match (op, l, r) {
        (Eq | Ne, l, r) => match l.data_eq(&r) {
            Some(eq) => Ok(Bool(eq == (op == Eq))),
            None => Err(LangError::eval(at, "cannot compare functions")),
        },
        (Concat, Str(a), Str(b)) => Ok(Str(a + &b)),
        (Div, Int(_), Int(0)) => Err(LangError::eval(at, "division by zero")),
        (Add, Int(a), Int(b)) => Ok(Int(a.wrapping_add(b))),
        (Sub, Int(a), Int(b)) => Ok(Int(a.wrapping_sub(b))),
        (Mul, Int(a), Int(b)) => Ok(Int(a.wrapping_mul(b))),
        (Div, Int(a), Int(b)) => Ok(Int(a.wrapping_div(b))),
        (Lt | Le | Gt | Ge, Int(a), Int(b)) => ordered(a.cmp(&b)),
        (Lt | Le | Gt | Ge, Str(a), Str(b)) => ordered(a.cmp(&b)),
        (op, l, r) => match (op, num(&l), num(&r)) {
            (Add, Some(a), Some(b)) => Ok(Float(a + b)),
            (Sub, Some(a), Some(b)) => Ok(Float(a - b)),
            (Mul, Some(a), Some(b)) => Ok(Float(a * b)),
            (Div, Some(a), Some(b)) => Ok(Float(a / b)),
            (Lt | Le | Gt | Ge, Some(a), Some(b)) => ordered(a.partial_cmp(&b).unwrap_or(Equal)),
            _ => Err(LangError::eval(at, format!("{op:?} on {l} and {r}"))),
        },
    }
}

/// Run `body` on each element of a list argument, in order. A `get`
/// extent is iterated in place, one row shared per element, instead
/// of being materialized first.
fn for_each_elem(
    xs: RtValue,
    at: usize,
    mut body: impl FnMut(RtValue) -> Result<(), LangError>,
) -> Result<(), LangError> {
    match xs {
        RtValue::Extent(view) => view.rows().try_for_each(|p| body(RtValue::Stored(p))),
        RtValue::List(xs) => xs.into_iter().try_for_each(body),
        other => unexpected(at, "expected a list, found", &other),
    }
}

/// A captured span tree, rendered.
fn tree(spans: &[dbpl_obs::SpanRecord]) -> String {
    dbpl_obs::trace::render_tree(spans).trim_end().to_string()
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
