//! The evaluator, and the one path both front ends run a program on.
//!
//! [`Ctx::run`] parses, checks and evaluates a program against a [`Ctx`]:
//! the working database, the open transaction [`Frame`] the program
//! records its effects in, the store behind `extern`/`intern`, output and
//! quarantine. A [`crate::Session`] lends its own state and commits the
//! frame through its durability gate; a [`crate::ServerSession`] lends a
//! copy of its snapshot and hands the frame to group commit.
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

use crate::ast::{BinOp, Code, Item, Op, Program, Slot};
use crate::builtins::{sig, Bi};
use crate::check::{check_program, Checked};
use crate::error::LangError;
use crate::parser::parse_program;
use crate::rt::{Closure, Partial, RtValue};
use dbpl_core::Database;
use dbpl_persist::{
    DurabilityGate, IntrinsicStore, PersistError, QuarantineEntry, QuarantineReason,
    ReplicatingStore, ScrubReport,
};
use dbpl_relation::GenRelation;
use dbpl_types::{is_subtype, Type};
use dbpl_values::{DynValue, Label};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// A transaction frame: one transaction's effects, recorded as its
/// programs run. A frame opens on a base database, and programs only
/// append to it, so the rows and heap objects past the base's watermarks
/// — its row count and next oid — are the frame's puts and interned
/// objects.
#[derive(Clone)]
pub(crate) struct Frame {
    /// The database the frame opened on, restored when it aborts.
    pub(crate) base: Database,
    /// Staged extern mutations, applied at commit: `Some(bytes)` is an
    /// encoded unit to install, `None` a removal.
    pub(crate) externs: BTreeMap<String, Option<Vec<u8>>>,
    /// Types the frame's programs newly declared: `(name, definition)`.
    pub(crate) decls: Vec<(String, Type)>,
    /// `include sub in sup` edges the frame's programs newly added.
    pub(crate) includes: Vec<(String, String)>,
    /// Wall-clock point after which the commit refuses to start its
    /// durability step and aborts instead.
    pub(crate) deadline: Option<Instant>,
    /// Opened by `begin`/[`crate::Session::transaction`]: it stays open across
    /// programs until `commit`/`abort`. A program's implicit frame is
    /// not.
    pub(crate) explicit: bool,
}

impl Frame {
    fn open(base: &Database, explicit: bool, deadline: Option<Instant>) -> Frame {
        dbpl_obs::emit(dbpl_obs::Event::TxnBegin { explicit });
        Frame {
            base: base.clone(),
            externs: BTreeMap::new(),
            decls: Vec::new(),
            includes: Vec::new(),
            deadline,
            explicit,
        }
    }

    /// Whether the frame wrote nothing into `db`, the database it
    /// recorded: a pure read.
    pub(crate) fn is_empty(&self, db: &Database) -> bool {
        self.externs.is_empty()
            && self.decls.is_empty()
            && self.includes.is_empty()
            && db.len() == self.base.len()
            && db.heap().next_oid() == self.base.heap().next_oid()
    }
}

/// What a running program reads and writes besides its own variables:
/// the working database, the open frame it records into, the store
/// behind `extern`/`intern`, output and quarantine. A [`crate::Session`] lends
/// its own; a server session lends a copy of its snapshot.
pub(crate) struct Ctx<'s> {
    pub(crate) db: &'s mut Database,
    pub(crate) txn: &'s mut Option<Frame>,
    pub(crate) store: &'s ReplicatingStore,
    /// The intrinsic store a session's frames commit with, which a scrub
    /// also repairs from.
    pub(crate) intrinsic: Option<&'s mut IntrinsicStore>,
    pub(crate) out: &'s mut Vec<String>,
    pub(crate) quarantined: &'s mut Vec<QuarantineEntry>,
    /// A session's durability gate, which commits its frames. `None`
    /// under an engine: the whole program is one frame, which group
    /// commit makes durable, so a program has no commit points.
    pub(crate) gate: Option<&'s DurabilityGate>,
    /// Wall-clock budget of each frame, from when it opens.
    pub(crate) budget: Option<Duration>,
}

/// The statement kind attached to per-statement trace spans.
fn item_kind(item: &Item) -> &'static str {
    match item {
        Item::TypeDecl { .. } => "type_decl",
        Item::Include { .. } => "include",
        Item::Begin { .. } => "begin",
        Item::Commit { .. } => "commit",
        Item::Abort { .. } => "abort",
        Item::Let { .. } => "let",
        Item::FunDecl { .. } => "fun_decl",
        Item::Expr(_) => "expr",
    }
}

/// Render a caught panic payload for an error message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Run `body` with panic isolation: a panic becomes an error naming
/// `what`, and the caller aborts the open frame. A panic must poison
/// nothing: the vendored lock primitives unlock on unwind rather than
/// poison, and the abort restores all state from the frame's base, so
/// resuming past the unwind is sound.
pub(crate) fn contained<T>(
    what: &str,
    body: impl FnOnce() -> Result<T, LangError>,
) -> Result<T, LangError> {
    catch_unwind(AssertUnwindSafe(body)).unwrap_or_else(|payload| {
        Err(LangError::eval(
            0,
            format!(
                "{what} panicked: {}; transaction aborted",
                panic_message(&*payload)
            ),
        ))
    })
}

impl Ctx<'_> {
    /// Parse, type-check and run one program in the open frame, opening
    /// an implicit one if none is open, and — in a session — commit the
    /// implicit frame when the program completes. A check error leaves
    /// everything untouched; a run-time error or a panic aborts the
    /// frame.
    pub(crate) fn run(&mut self, src: &str) -> Result<(), LangError> {
        // The frame's clock starts now: evaluation and, under an engine,
        // admission and queue waiting all spend the same budget.
        let deadline = self.deadline();
        let mut root = dbpl_obs::span!("run");
        let prog = {
            let _sp = dbpl_obs::span!("run.parse");
            parse_program(src)?
        };
        let commit_point = prog.items.iter().find_map(|item| match item {
            Item::Begin { at } | Item::Commit { at } | Item::Abort { at } => Some(*at),
            _ => None,
        });
        if let (None, Some(at)) = (self.gate, commit_point) {
            return Err(LangError::eval(
                at,
                "explicit transaction statements are not supported in server sessions: \
                 each program is one transaction",
            ));
        }
        root.set_attr("statements", prog.items.len());
        let Checked {
            env,
            code,
            frame,
            decls,
            includes,
            ..
        } = {
            let _sp = dbpl_obs::span!("run.check");
            check_program(&prog, self.db.env())?
        };
        let txn = self
            .txn
            .get_or_insert_with(|| Frame::open(self.db, false, deadline));
        txn.decls.extend(decls);
        txn.includes.extend(includes);
        // The program's type declarations become part of the database's
        // schema for subsequent programs (rolled back if the frame
        // aborts).
        *self.db.env_mut() = env;
        contained("program", || self.exec_items(&prog, &code, frame))
            .inspect_err(|_| self.abort())?;
        if self.gate.is_some() && self.txn.as_ref().is_some_and(|t| !t.explicit) {
            self.commit()?;
        }
        Ok(())
    }

    /// Run a checked program's items: `code` holds one entry per `let`,
    /// `fun` and expression item, and the program's top-level frame has
    /// `frame` slots.
    fn exec_items(&mut self, prog: &Program, code: &[Code], frame: usize) -> Result<(), LangError> {
        let mut m = Machine::new(self, frame);
        let mut code = code.iter();
        let mut bound = 0;
        for (index, item) in prog.items.iter().enumerate() {
            let mut stmt = dbpl_obs::span!("stmt");
            stmt.set_attr("index", index);
            stmt.set_attr("kind", item_kind(item));
            match item {
                Item::TypeDecl { .. } | Item::Include { .. } => {}
                Item::Begin { .. } | Item::Commit { .. } | Item::Abort { .. } => {
                    m.cx.commit_point(item)?
                }
                Item::Let { .. } | Item::FunDecl { .. } => {
                    let v = m.eval(code.next().expect("checked"))?;
                    m.bind(bound, v);
                    bound += 1;
                }
                Item::Expr(_) => {
                    let v = m.eval(code.next().expect("checked"))?;
                    if !matches!(v, RtValue::Unit) {
                        m.cx.out.push(v.to_string());
                    }
                }
            }
        }
        Ok(())
    }

    fn deadline(&self) -> Option<Instant> {
        self.budget.map(|budget| Instant::now() + budget)
    }

    pub(crate) fn open(&mut self, explicit: bool) {
        debug_assert!(self.txn.is_none(), "frames do not nest");
        *self.txn = Some(Frame::open(self.db, explicit, self.deadline()));
    }

    /// Discard the open frame: restore its base and drop staged
    /// mutations, including anything staged in the intrinsic store.
    /// Output is kept — printing already happened.
    pub(crate) fn abort(&mut self) {
        if let Some(frame) = self.txn.take() {
            *self.db = frame.base;
            dbpl_obs::emit(dbpl_obs::Event::TxnAbort {
                reason: if frame.explicit {
                    "explicit".to_string()
                } else {
                    "program failure".to_string()
                },
            });
        }
        if let Some(s) = self.intrinsic.as_mut() {
            s.abort();
        }
    }

    /// Stage an extern of `d` under `handle`, or the handle's removal
    /// when `d` is `None`: buffered in the open frame or, outside any
    /// frame, written now behind the same durability gate as a commit.
    pub(crate) fn stage(&mut self, handle: &str, d: Option<&DynValue>) -> Result<(), PersistError> {
        let what = if d.is_some() { "extern" } else { "remove" };
        let unit = d
            .map(|d| ReplicatingStore::encode_unit(d, self.db.heap()))
            .transpose()?;
        if self.store.is_read_only() {
            return Err(PersistError::ReadOnly(what.to_string()));
        }
        if let Some(frame) = self.txn.as_mut() {
            frame.externs.insert(handle.to_string(), unit);
            return Ok(());
        }
        self.gated(|gate, intrinsic, store| gate.write(intrinsic, store, handle, unit))
    }

    /// Intern a handle with read-your-writes over the open frame's
    /// staged externs. A unit that fails to decode (corruption) is
    /// quarantined: the error still surfaces to the calling program, but
    /// the report names the bad package.
    pub(crate) fn intern(&mut self, handle: &str) -> Result<DynValue, PersistError> {
        let staged = self
            .txn
            .as_ref()
            .and_then(|t| t.externs.get(handle).cloned());
        match staged {
            Some(Some(bytes)) => ReplicatingStore::decode_unit(&bytes, self.db.heap_mut()),
            Some(None) => Err(PersistError::UnknownHandle(handle.to_string())),
            None => self
                .store
                .intern(handle, self.db.heap_mut())
                .inspect_err(|e| {
                    if is_corruption(e) {
                        self.quarantine(handle, e.to_string(), QuarantineReason::of(e));
                    }
                }),
        }
    }

    /// Verify every unit of the replicating store and read-repair corrupt
    /// ones from the intrinsic store's copy, if there is one; units that
    /// stay corrupt are quarantined.
    pub(crate) fn scrub(&mut self) -> ScrubReport {
        let report = self.store.scrub(self.intrinsic.as_deref());
        for e in &report.corrupt {
            self.quarantine(&e.handle, e.cause.clone(), e.reason);
        }
        report
    }

    /// Record a corrupt unit and announce it: the quarantine event fires
    /// *at quarantine time*, so an attached [`dbpl_obs::EventSink`] hears
    /// about the corruption when it happens rather than only when someone
    /// pulls a quarantine report.
    pub(crate) fn quarantine(
        &mut self,
        handle: &str,
        cause: impl Into<String>,
        reason: QuarantineReason,
    ) {
        if !self.quarantined.iter().any(|e| e.handle == handle) {
            let entry = QuarantineEntry {
                handle: handle.to_string(),
                cause: cause.into(),
                reason,
            };
            dbpl_obs::emit(dbpl_obs::Event::Quarantine {
                handle: entry.handle.clone(),
                reason: entry.cause.clone(),
            });
            self.quarantined.push(entry);
        }
    }
}

/// Does this error mean "the bytes on disk are bad" (quarantine-worthy),
/// as opposed to a missing handle or an environmental failure?
fn is_corruption(e: &PersistError) -> bool {
    matches!(
        e,
        PersistError::BadMagic
            | PersistError::Malformed(_)
            | PersistError::UnexpectedEof
            | PersistError::UnsupportedVersion(_)
            | PersistError::ChecksumMismatch { .. }
    )
}

/// The evaluator's state while one program runs.
pub(crate) struct Machine<'a, 's> {
    /// What the program runs against.
    pub(crate) cx: &'a mut Ctx<'s>,
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

impl<'a, 's> Machine<'a, 's> {
    /// A machine running against `cx`, whose top-level frame has `frame`
    /// slots.
    pub(crate) fn new(cx: &'a mut Ctx<'s>, frame: usize) -> Machine<'a, 's> {
        Machine {
            cx,
            stack: vec![RtValue::Unit; frame],
            bp: 0,
            cur: None,
            stack_base: stack_position(),
        }
    }

    /// Fill slot `slot` of the top-level frame: a top-level binding.
    pub(crate) fn bind(&mut self, slot: usize, v: RtValue) {
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
    /// stored row converts only the field read, found by comparing label
    /// symbols.
    fn field(&mut self, base: &Code, l: Label) -> Result<Option<RtValue>, LangError> {
        let field = |v: &RtValue| match v {
            RtValue::Stored(p) => p.value().field(l).map(RtValue::from_value),
            RtValue::Record(fs) => fs.get(&l).cloned(),
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
            RtValue::Str(st) => Ok(st.to_string()),
            other => unexpected(c.at, "handle was", &other),
        }
    }

    /// Evaluate an expression.
    pub(crate) fn eval(&mut self, c: &Code) -> Evaluated {
        let at = c.at;
        match &c.op {
            Op::Const(v) => Ok(v.clone()),
            Op::Var(slot) => Ok(self.load(*slot)),
            Op::Record(fields) => {
                let mut fs = BTreeMap::new();
                for (l, fe) in fields {
                    fs.insert(*l, self.eval(fe)?.materialized());
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
                .field(base, *l)?
                .ok_or_else(|| LangError::eval(at, format!("no field `{l}`"))),
            Op::With(base, additions) => match self.open(base)? {
                RtValue::Record(mut fs) => {
                    for (l, ae) in additions {
                        let v = self.eval(ae)?.materialized();
                        fs.insert(*l, v);
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
                let ty = dbpl_values::type_of(&data, self.cx.db.env(), self.cx.db.heap())
                    .map_err(|e| LangError::eval(at, e.to_string()))?;
                Ok(RtValue::Dyn(ty, Rc::new(v)))
            }
            Op::Coerce(x, want) => match self.open(x)? {
                RtValue::Dyn(carried, v) if is_subtype(&carried, want, self.cx.db.env()) => {
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
                RtValue::Dyn(t, _) => Ok(RtValue::Str(t.to_string().into())),
                other => unexpected(x.at, "typeof of non-dynamic", &other),
            },
            Op::Extern(h, v) => {
                let handle = self.handle(h)?;
                match self.open(v)? {
                    RtValue::Dyn(t, inner) => {
                        let d = DynValue::new(t, inner.to_value(v.at)?);
                        // Staged in the open frame; durable only once
                        // that frame commits.
                        self.cx
                            .stage(&handle, Some(&d))
                            .map_err(|e| LangError::eval(at, e.to_string()))?;
                        Ok(RtValue::Unit)
                    }
                    other => unexpected(v.at, "extern of non-dynamic", &other),
                }
            }
            Op::Intern(h) => {
                let handle = self.handle(h)?;
                // Reads through the open frame's staged externs first
                // (read-your-writes), then the store; a corrupt unit is
                // quarantined as a side effect.
                let d = self
                    .cx
                    .intern(&handle)
                    .map_err(|e| LangError::eval(at, e.to_string()))?;
                Ok(RtValue::Dyn(d.ty, Rc::new(RtValue::from_value(&d.value))))
            }
            Op::Tag(label, payload) => {
                let v = self.eval(payload)?.materialized();
                Ok(RtValue::Tagged(*label, Box::new(v)))
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
                self.cx.out.push(arg().to_string());
                Ok(RtValue::Unit)
            }
            Bi::Str => Ok(RtValue::Str(arg().to_string().into())),
            Bi::Panic => match arg() {
                RtValue::Str(m) => panic!("{m}"),
                other => panic!("{other}"),
            },
            Bi::Get => {
                db(arg())?;
                Ok(RtValue::Extent(Rc::new(self.cx.db.get_view(&bound()?))))
            }
            Bi::Put => {
                db(arg())?;
                match arg() {
                    RtValue::Dyn(t, v) => {
                        let data = v.to_value(at)?;
                        self.cx
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
                    dbpl_obs::trace::capture("explain_analyze", || self.cx.db.get(&bound))
                } else {
                    (self.cx.db.get(&bound), Vec::new())
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
                Ok(RtValue::Str(Arc::from(if analyze {
                    let ratio = cache_hit_ratio(hits, misses);
                    format!("{head} cache_hit_ratio={ratio}\n{}", tree(&spans))
                } else {
                    format!("{head} subtype_cache_hits={hits} subtype_cache_misses={misses}")
                })))
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
                Ok(RtValue::Str(Arc::from(if analyze {
                    let pairs = c("join.reduce.pairs_compared");
                    format!("{head} reduce_pairs_compared={pairs}\n{}", tree(&spans))
                } else {
                    let (serial, parallel) =
                        (c("join.products.serial"), c("join.products.parallel"));
                    format!("{head} products_serial={serial} products_parallel={parallel}")
                })))
            }
            Bi::Scrub => {
                db(arg())?;
                let (report, spans) = dbpl_obs::trace::capture("scrub_cmd", || self.cx.scrub());
                Ok(RtValue::Str(
                    format!("{}\n{}", report.summary(), tree(&spans)).into(),
                ))
            }
            Bi::Timeline => {
                db(arg())?;
                Ok(RtValue::Str(
                    dbpl_obs::timeline::render_active(10)
                        .unwrap_or_else(|| "timeline: no recorder active".to_string())
                        .into(),
                ))
            }
            Bi::Analyze => {
                db(arg())?;
                let catalog = self.cx.db.stats_catalog();
                let rows: u64 = catalog.values().map(|s| s.rows).sum();
                Ok(RtValue::Str(
                    format!(
                        "analyze: statistics for {} carried type(s), {rows} row(s)",
                        catalog.len()
                    )
                    .into(),
                ))
            }
            Bi::ExtentStats => {
                db(arg())?;
                Ok(RtValue::Str(
                    dbpl_stats::render_catalog(&self.cx.db.stats_catalog()).into(),
                ))
            }
            Bi::Workload => {
                db(arg())?;
                if !dbpl_obs::trace::is_active() {
                    return Ok(RtValue::Str(
                        "workload: tracing is off, so no queries were recorded".into(),
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
                Ok(RtValue::Str(out.into()))
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
        (Concat, Str(a), Str(b)) => Ok(Str([a, b].concat().into())),
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
