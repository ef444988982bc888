//! The static type checker.
//!
//! "In the belief that, for databases, type-checking is one of the best
//! techniques for ensuring program correctness, our main concern will be
//! with languages whose type system is designed for predominantly *static*
//! type-checking in the tradition of Pascal" — extended, as the paper
//! requires, with subtyping (records by width and depth), explicit bounded
//! polymorphism (`fun f[t <= Person](x: t): t`), and the `Dynamic` escape
//! hatch whose `coerce` is the only dynamically checked operation.
//!
//! The rules are syntax-directed, so checking visits every binder once,
//! in scope order. The checker therefore also *elaborates*: each variable
//! it looks up is resolved to a frame slot, a captured value of the
//! enclosing closure, or a constant (a builtin, `db`), and the program
//! comes out as [`Code`] the evaluator runs without ever looking up a
//! name.

use crate::ast::{BinOp, Code, Expr, ExprKind, Item, Lambda, Op, Program, Slot};
use crate::builtins::{builtin, DATABASE};
use crate::error::LangError;
use crate::rt::RtValue;
use dbpl_types::{is_equiv, is_subtype_with, join, TyVar, Type, TypeEnv, TypeError};
use std::collections::BTreeMap;
use std::rc::Rc;

/// The result of checking a program: the (possibly extended) type
/// environment, the types of the top-level bindings, in order, and the
/// elaborated program.
pub struct Checked {
    /// Type environment after all `type` declarations.
    pub env: TypeEnv,
    /// `(name, type)` for every top-level `let`/`fun`.
    pub bindings: Vec<(String, Type)>,
    /// One [`Code`] per `let`, `fun` and expression item, in order. The
    /// `n`th `let`/`fun` binds slot `n` of the top-level frame.
    pub code: Vec<Code>,
    /// The size of the program's top-level frame.
    pub frame: usize,
    /// `(name, definition)` for every type the program newly declared (a
    /// re-declaration at an equivalent structure declares nothing).
    pub decls: Vec<(String, Type)>,
    /// `(sub, sup)` for every `include` edge the program newly added.
    pub includes: Vec<(String, String)>,
}

/// Declare type `name` as `ty` in `env`, by the one rule the checker and
/// a server applying a frame share. Names abbreviate structures, so
/// re-declaring a name at an equivalent structure is a no-op
/// (`Ok(false)`); at a different one it fails with
/// [`TypeError::Duplicate`].
pub(crate) fn declare_type(env: &mut TypeEnv, name: &str, ty: &Type) -> Result<bool, TypeError> {
    match env.lookup(name) {
        Some(existing) if is_equiv(existing, ty, env) => Ok(false),
        _ => env.declare(name, ty.clone()).map(|()| true),
    }
}

/// Add the edge `include sub in sup` to `env`; `Ok(false)` if it was
/// already there.
pub(crate) fn include(env: &mut TypeEnv, sub: &str, sup: &str) -> Result<bool, TypeError> {
    if env.declared_supertypes(sub).any(|s| s == sup) {
        return Ok(false);
    }
    env.declare_subtype(sub, sup).map(|()| true)
}

/// Check a whole program against a starting environment.
pub fn check_program(prog: &Program, base_env: &TypeEnv) -> Result<Checked, LangError> {
    let mut ck = Checker::new(base_env);
    let mut bindings = Vec::new();
    let mut code = Vec::new();
    let (mut decls, mut includes) = (Vec::new(), Vec::new());
    for item in &prog.items {
        match item {
            Item::TypeDecl { at, name, ty } => {
                // Recursive definitions mention their own name: check
                // well-formedness with the name provisionally in scope
                // (contractivity is enforced by `declare` below).
                let mut prov = Checker::new(&ck.env);
                prov.env.redeclare(name.clone(), ty.clone());
                prov.wf(ty, *at)?;
                match declare_type(&mut ck.env, name, ty) {
                    Ok(true) => decls.push((name.clone(), ty.clone())),
                    Ok(false) => {}
                    Err(TypeError::Duplicate(_)) => {
                        let differs = "already declared with a different structure";
                        return err(*at, format!("type `{name}` {differs}"));
                    }
                    Err(e) => return err(*at, e.to_string()),
                }
            }
            Item::Include { at, sub, sup } => {
                if include(&mut ck.env, sub, sup)
                    .map_err(|e| LangError::check(*at, e.to_string()))?
                {
                    includes.push((sub.clone(), sup.clone()));
                }
            }
            Item::Let {
                at,
                name,
                ann,
                expr,
            } => {
                let (inferred, c) = ck.infer(expr)?;
                let ty = ck.ascribe(ann, inferred, *at, *at)?;
                ck.bind(name, ty.clone());
                bindings.push((name.clone(), ty));
                code.push(c);
            }
            Item::FunDecl {
                at,
                name,
                tparams,
                params,
                result,
                body,
            } => {
                let (ty, c) = ck.check_fun(*at, name, tparams, params, result, body)?;
                ck.bind(name, ty.clone());
                bindings.push((name.clone(), ty));
                code.push(c);
            }
            // Transaction delimiters have no static content; whether a
            // transaction is actually open is a run-time question.
            Item::Begin { .. } | Item::Commit { .. } | Item::Abort { .. } => {}
            Item::Expr(e) => code.push(ck.infer(e)?.1),
        }
    }
    let frame = ck.scopes[0].frame;
    Ok(Checked {
        env: ck.env,
        bindings,
        code,
        frame,
        decls,
        includes,
    })
}

/// Infer the type of a standalone expression (for tests/REPL).
pub fn infer_expr(e: &Expr, env: &TypeEnv) -> Result<Type, LangError> {
    Ok(Checker::new(env).infer(e)?.0)
}

/// The names one function body (or the program's top level) can see.
#[derive(Default)]
struct Scope {
    /// Bound names in slot order; a binder's slot is its index.
    locals: Vec<(String, Type)>,
    /// The most slots live at once: the frame size.
    frame: usize,
    /// Names this function captures: the slot each lives in, one scope out.
    captures: Vec<(String, Type, Slot)>,
    /// A `fun`'s own name, for recursion.
    rec: Option<(String, Type)>,
}

struct Checker {
    env: TypeEnv,
    /// The top level, then each enclosing function body, innermost last.
    scopes: Vec<Scope>,
    tyvars: BTreeMap<TyVar, Option<Type>>,
}

fn err<T>(at: usize, msg: impl Into<String>) -> Result<T, LangError> {
    Err(LangError::check(at, msg))
}

fn code(at: usize, op: Op) -> Code {
    Code { at, op }
}

impl Checker {
    fn new(env: &TypeEnv) -> Checker {
        Checker {
            env: env.clone(),
            scopes: vec![Scope::default()],
            tyvars: BTreeMap::new(),
        }
    }

    // ---------- scopes ----------

    /// Bind `name` in the next slot of the innermost scope; returns it.
    fn bind(&mut self, name: &str, ty: Type) -> usize {
        let sc = self.scopes.last_mut().expect("the top level");
        sc.locals.push((name.to_string(), ty));
        sc.frame = sc.frame.max(sc.locals.len());
        sc.locals.len() - 1
    }

    fn unbind(&mut self) {
        self.scopes.last_mut().expect("the top level").locals.pop();
    }

    /// Resolve `name` as seen from scope `depth`: its own binders first
    /// (innermost wins), then the function's own name, then what it
    /// captures, which a name found further out is added to.
    fn resolve(&mut self, depth: usize, name: &str) -> Option<(Slot, Type)> {
        let sc = &self.scopes[depth];
        if let Some(i) = sc.locals.iter().rposition(|(n, _)| n == name) {
            return Some((Slot::Local(i), sc.locals[i].1.clone()));
        }
        if let Some((_, t)) = sc.rec.as_ref().filter(|(n, _)| n == name) {
            return Some((Slot::Rec, t.clone()));
        }
        if let Some(i) = sc.captures.iter().position(|(n, ..)| n == name) {
            return Some((Slot::Captured(i), sc.captures[i].1.clone()));
        }
        let (outer, ty) = self.resolve(depth.checked_sub(1)?, name)?;
        let captures = &mut self.scopes[depth].captures;
        captures.push((name.to_string(), ty.clone(), outer));
        Some((Slot::Captured(captures.len() - 1), ty))
    }

    /// Check a function body in a scope of its own — the parameters in its
    /// first slots, `rec` naming the function itself — and resolve it.
    fn lambda(
        &mut self,
        params: &[(String, Type)],
        rec: Option<(String, Type)>,
        body: &Expr,
    ) -> Result<(Type, Rc<Lambda>), LangError> {
        self.scopes.push(Scope {
            rec,
            ..Scope::default()
        });
        for (x, t) in params {
            self.bind(x, t.clone());
        }
        let (ty, body) = self.infer(body)?;
        let sc = self.scopes.pop().expect("pushed above");
        let lambda = Lambda {
            arity: params.len(),
            frame: sc.frame,
            captures: sc.captures.into_iter().map(|(.., slot)| slot).collect(),
            body,
        };
        Ok((ty, Rc::new(lambda)))
    }

    // ---------- helpers ----------

    fn require_subtype(&self, got: &Type, want: &Type, at: usize) -> Result<(), LangError> {
        if is_subtype_with(got, want, &self.env, &self.tyvars) {
            Ok(())
        } else {
            err(at, format!("expected {want}, found {got}"))
        }
    }

    /// Well-formedness: named types resolve (or are the abstract
    /// `Database`), variables are in scope.
    fn wf(&self, ty: &Type, at: usize) -> Result<(), LangError> {
        match ty {
            Type::Named(n) if n != DATABASE && self.env.lookup(n).is_none() => {
                err(at, format!("unknown type `{n}`"))
            }
            Type::Var(v) if !self.tyvars.contains_key(v) => {
                err(at, format!("type variable `{v}` not in scope"))
            }
            Type::List(t) | Type::Set(t) => self.wf(t, at),
            Type::Fun(a, r) => self.wf(a, at).and_then(|()| self.wf(r, at)),
            Type::Record(fs) | Type::Variant(fs) => fs.values().try_for_each(|t| self.wf(t, at)),
            Type::Forall(q) | Type::Exists(q) => {
                if let Some(b) = &q.bound {
                    self.wf(b, at)?;
                }
                let mut inner = Checker::new(&self.env);
                inner.tyvars = self.tyvars.clone();
                let bound = q.bound.as_deref().cloned();
                inner.tyvars.insert(q.var.clone(), bound);
                inner.wf(&q.body, at)
            }
            _ => Ok(()),
        }
    }

    /// Repeatedly resolve names and promote variables to their bounds
    /// until a structural head appears.
    fn head(&self, ty: &Type, at: usize) -> Result<Type, LangError> {
        let mut cur = ty.clone();
        for _ in 0..64 {
            match cur {
                Type::Named(ref n) => {
                    if n == DATABASE {
                        return Ok(cur);
                    }
                    cur = self
                        .env
                        .lookup(n)
                        .cloned()
                        .ok_or_else(|| LangError::check(at, format!("unknown type `{n}`")))?;
                }
                Type::Var(ref v) => match self.tyvars.get(v) {
                    Some(Some(b)) => cur = b.clone(),
                    _ => return Ok(cur),
                },
                _ => return Ok(cur),
            }
        }
        err(at, "type resolution did not terminate".to_string())
    }

    fn lookup_var(&mut self, name: &str, at: usize) -> Result<(Type, Code), LangError> {
        if let Some((slot, t)) = self.resolve(self.scopes.len() - 1, name) {
            return Ok((t, code(at, Op::Var(slot))));
        }
        if name == "db" {
            return Ok((Type::named(DATABASE), code(at, Op::Const(RtValue::DbToken))));
        }
        if let Some(sig) = builtin(name) {
            let b = RtValue::Builtin(sig.id, Vec::new());
            return Ok((sig.ty.clone(), code(at, Op::Const(b))));
        }
        err(at, format!("unbound variable `{name}`"))
    }

    fn check_fun(
        &mut self,
        at: usize,
        name: &str,
        tparams: &[(String, Option<Type>)],
        params: &[(String, Type)],
        result: &Type,
        body: &Expr,
    ) -> Result<(Type, Code), LangError> {
        if params.is_empty() {
            return err(at, "functions need at least one parameter");
        }
        // Bring type parameters into scope.
        let saved_tyvars = self.tyvars.clone();
        for (v, b) in tparams {
            if let Some(b) = b {
                self.wf(b, at)?;
            }
            self.tyvars.insert(v.clone(), b.clone());
        }
        for (_, t) in params {
            self.wf(t, at)?;
        }
        self.wf(result, at)?;
        // The function's full type (for recursion and for the caller).
        let mut fun_ty = curried(params, result.clone());
        for (v, b) in tparams.iter().rev() {
            fun_ty = Type::forall(v.clone(), b.clone(), fun_ty);
        }
        // Check the body with the function itself in scope (recursion).
        let (body_ty, lambda) =
            self.lambda(params, Some((name.to_string(), fun_ty.clone())), body)?;
        self.require_subtype(&body_ty, result, body.at)?;
        self.tyvars = saved_tyvars;
        Ok((fun_ty, code(at, Op::Lambda(lambda))))
    }

    /// Solve quantified variables by structural matching of a parameter
    /// *pattern* against a concrete argument type. Within one argument,
    /// repeated occurrences of a variable accumulate via [`join`];
    /// across *curried* arguments a variable is fixed by the first
    /// argument that mentions it (use explicit `f[T]` to widen).
    /// Positions that don't mention a variable contribute nothing — the
    /// final subtype check validates them.
    fn match_shape(
        &self,
        pattern: &Type,
        concrete: &Type,
        vars: &std::collections::BTreeSet<TyVar>,
        solution: &mut BTreeMap<TyVar, Type>,
        at: usize,
    ) -> Result<(), LangError> {
        match pattern {
            Type::Var(v) if vars.contains(v) => {
                let entry = solution.entry(v.clone()).or_insert(Type::Bottom);
                *entry = join(entry, concrete, &self.env);
                Ok(())
            }
            Type::List(pe) | Type::Set(pe) => match (pattern, self.head(concrete, at)?) {
                (Type::List(_), Type::List(ce)) | (Type::Set(_), Type::Set(ce)) => {
                    self.match_shape(pe, &ce, vars, solution, at)
                }
                _ => Ok(()),
            },
            Type::Fun(pa, pr) => {
                if let Type::Fun(ca, cr) = self.head(concrete, at)? {
                    self.match_shape(pa, &ca, vars, solution, at)?;
                    self.match_shape(pr, &cr, vars, solution, at)?;
                }
                Ok(())
            }
            Type::Record(pf) => {
                if let Type::Record(cf) = self.head(concrete, at)? {
                    for (l, pt) in pf {
                        if let Some(ct) = cf.get(l) {
                            self.match_shape(pt, ct, vars, solution, at)?;
                        }
                    }
                }
                Ok(())
            }
            Type::Variant(pf) => {
                if let Type::Variant(cf) = self.head(concrete, at)? {
                    for (l, pt) in pf {
                        if let Some(ct) = cf.get(l) {
                            self.match_shape(pt, ct, vars, solution, at)?;
                        }
                    }
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }

    // ---------- inference ----------

    fn infer(&mut self, e: &Expr) -> Result<(Type, Code), LangError> {
        let at = e.at;
        let (ty, op) = match &e.node {
            ExprKind::Int(i) => (Type::Int, Op::Const(RtValue::Int(*i))),
            ExprKind::Float(x) => (Type::Float, Op::Const(RtValue::Float(*x))),
            ExprKind::Str(st) => (Type::Str, Op::Const(RtValue::Str(st.as_str().into()))),
            ExprKind::Bool(b) => (Type::Bool, Op::Const(RtValue::Bool(*b))),
            ExprKind::Unit => (Type::Unit, Op::Const(RtValue::Unit)),
            ExprKind::Var(x) => return self.lookup_var(x, at),
            ExprKind::Record(fields) => {
                let mut fs = dbpl_types::Fields::new();
                let mut cs = Vec::with_capacity(fields.len());
                for (l, fe) in fields {
                    let (t, c) = self.infer(fe)?;
                    if fs.insert(*l, t).is_some() {
                        return err(at, format!("duplicate field `{l}`"));
                    }
                    cs.push((*l, c));
                }
                (Type::Record(fs), Op::Record(cs))
            }
            ExprKind::List(items) => {
                let mut elem = Type::Bottom;
                let mut cs = Vec::with_capacity(items.len());
                for it in items {
                    let (t, c) = self.infer(it)?;
                    elem = join(&elem, &t, &self.env);
                    cs.push(c);
                }
                (Type::list(elem), Op::List(cs))
            }
            ExprKind::Field(base, l) => {
                let (bt, bc) = self.infer_boxed(base)?;
                let ty = match self.head(&bt, at)? {
                    Type::Record(fs) => fs
                        .get(l)
                        .cloned()
                        .ok_or_else(|| LangError::check(at, format!("no field `{l}` in {bt}")))?,
                    other => return err(at, format!("`{other}` is not a record (field `{l}`)")),
                };
                (ty, Op::Field(bc, *l))
            }
            ExprKind::With(base, additions) => {
                let (bt, bc) = self.infer_boxed(base)?;
                match self.head(&bt, at)? {
                    Type::Record(mut fs) => {
                        let mut cs = Vec::with_capacity(additions.len());
                        for (l, ae) in additions {
                            let (t, c) = self.infer(ae)?;
                            fs.insert(*l, t);
                            cs.push((*l, c));
                        }
                        (Type::Record(fs), Op::With(bc, cs))
                    }
                    other => return err(at, format!("`with` applies to records, not {other}")),
                }
            }
            ExprKind::If(c, t, f) => {
                let cc = self.expect(c, &Type::Bool)?;
                let (tt, tc) = self.infer_boxed(t)?;
                let (ft, fc) = self.infer_boxed(f)?;
                (join(&tt, &ft, &self.env), Op::If(cc, tc, fc))
            }
            ExprKind::Let(x, ann, bound, body) => {
                let (bt, bc) = self.infer_boxed(bound)?;
                let xt = self.ascribe(ann, bt, at, bound.at)?;
                let slot = self.bind(x, xt);
                let (t, c) = self.infer_boxed(body)?;
                self.unbind();
                (t, Op::Let(slot, bc, c))
            }
            ExprKind::Lambda(params, body) => {
                for (_, t) in params {
                    self.wf(t, at)?;
                }
                let (bt, lambda) = self.lambda(params, None, body)?;
                (curried(params, bt), Op::Lambda(lambda))
            }
            ExprKind::App(..) => {
                // `f(a)(b)` and `f(a, b)` are one call: gather the
                // arguments, then type the applications in turn.
                let mut args = Vec::new();
                let mut f = e;
                while let ExprKind::App(g, a) = &f.node {
                    args.push((f.at, &**a));
                    f = g;
                }
                let (mut ty, fc) = self.infer_boxed(f)?;
                let mut cs = Vec::with_capacity(args.len());
                for (at, a) in args.into_iter().rev() {
                    let (r, c) = self.infer_app(&ty, a, at)?;
                    ty = r;
                    cs.push(c);
                }
                (ty, Op::Call(fc, cs))
            }
            ExprKind::TyApp(f, targ) => {
                self.wf(targ, at)?;
                let (ft, fc) = self.infer_boxed(f)?;
                match self.head(&ft, at)? {
                    Type::Forall(q) => {
                        if let Some(b) = &q.bound {
                            self.require_subtype(targ, b, at)?;
                        }
                        (q.body.subst(&q.var, targ), Op::TyApp(fc, targ.clone()))
                    }
                    other => return err(at, format!("`{other}` is not polymorphic")),
                }
            }
            ExprKind::Bin(op, l, r) => self.infer_bin(*op, l, r, at)?,
            ExprKind::Not(x) => (Type::Bool, Op::Not(self.expect(x, &Type::Bool)?)),
            ExprKind::Neg(x) => {
                let (t, c) = self.infer_boxed(x)?;
                self.require_subtype(&t, &Type::Float, x.at)?;
                (self.head(&t, at)?, Op::Neg(c))
            }
            ExprKind::DynamicE(x) => {
                let (t, c) = self.infer_boxed(x)?;
                if !persistable(&t) {
                    return err(
                        x.at,
                        format!("type {t} contains functions and cannot be made dynamic"),
                    );
                }
                (Type::Dynamic, Op::Dynamic(c))
            }
            ExprKind::CoerceE(x, want) => {
                self.wf(want, at)?;
                let c = self.expect(x, &Type::Dynamic)?;
                (want.clone(), Op::Coerce(c, want.clone()))
            }
            ExprKind::TypeofE(x) => (Type::Str, Op::Typeof(self.expect(x, &Type::Dynamic)?)),
            ExprKind::ExternE(h, v) => {
                let hc = self.expect(h, &Type::Str)?;
                (Type::Unit, Op::Extern(hc, self.expect(v, &Type::Dynamic)?))
            }
            ExprKind::InternE(h) => (Type::Dynamic, Op::Intern(self.expect(h, &Type::Str)?)),
            ExprKind::TagE(label, payload) => {
                let (t, c) = self.infer_boxed(payload)?;
                let ty = Type::variant([(*label, t)]);
                (ty, Op::Tag(*label, c))
            }
            ExprKind::CaseE(scrutinee, arms) => {
                let (st, sc) = self.infer_boxed(scrutinee)?;
                let variant_arms = match self.head(&st, scrutinee.at)? {
                    Type::Variant(fs) => fs,
                    other => {
                        return err(
                            scrutinee.at,
                            format!("`case` scrutinee must be a variant, found {other}"),
                        )
                    }
                };
                // Exhaustiveness: every arm of the variant must be
                // handled; handling an arm the variant lacks is an error
                // (it could never fire).
                let mut covered = std::collections::BTreeSet::new();
                let mut result = Type::Bottom;
                let mut cs = Vec::with_capacity(arms.len());
                for (label, binder, body) in arms {
                    let payload_ty = variant_arms.get(label).cloned().ok_or_else(|| {
                        LangError::check(body.at, format!("variant {st} has no arm `{label}`"))
                    })?;
                    if !covered.insert(*label) {
                        return err(body.at, format!("arm `{label}` handled twice"));
                    }
                    let slot = self.bind(binder, payload_ty);
                    let (bt, bc) = self.infer(body)?;
                    self.unbind();
                    result = join(&result, &bt, &self.env);
                    cs.push((*label, slot, bc));
                }
                for missing in variant_arms.keys() {
                    if !covered.contains(missing) {
                        return err(
                            at,
                            format!("non-exhaustive case: arm `{missing}` not handled"),
                        );
                    }
                }
                (result, Op::Case(sc, cs))
            }
        };
        Ok((ty, code(at, op)))
    }

    fn infer_boxed(&mut self, e: &Expr) -> Result<(Type, Box<Code>), LangError> {
        let (t, c) = self.infer(e)?;
        Ok((t, Box::new(c)))
    }

    /// Check `e` against `want`.
    fn expect(&mut self, e: &Expr, want: &Type) -> Result<Box<Code>, LangError> {
        let (t, c) = self.infer_boxed(e)?;
        self.require_subtype(&t, want, e.at)?;
        Ok(c)
    }

    /// The type a `let` binds: its annotation, which the bound type `got`
    /// must fit, or else `got`.
    fn ascribe(
        &self,
        ann: &Option<Type>,
        got: Type,
        at: usize,
        got_at: usize,
    ) -> Result<Type, LangError> {
        let Some(want) = ann else { return Ok(got) };
        self.wf(want, at)?;
        self.require_subtype(&got, want, got_at)?;
        Ok(want.clone())
    }

    /// The type of applying a function of type `ft` to `a`, and `a`'s code.
    fn infer_app(&mut self, ft: &Type, a: &Expr, at: usize) -> Result<(Type, Code), LangError> {
        match self.head(ft, at)? {
            Type::Fun(p, r) => Ok((*r, *self.expect(a, &p)?)),
            hd @ Type::Forall(_) => {
                // Auto-instantiation: peel the quantifier prefix, infer
                // the argument, and solve the type variables by matching
                // the parameter's shape against the argument's type.
                // (Explicit `f[T]` always remains available and is
                // required when the argument does not determine the
                // variables, e.g. `get`.)
                let mut vars: Vec<(TyVar, Option<Type>)> = Vec::new();
                let mut body = hd;
                while let Type::Forall(q) = body {
                    vars.push((q.var.clone(), q.bound.as_deref().cloned()));
                    body = *q.body;
                }
                let Type::Fun(p, r) = body else {
                    return err(
                        at,
                        format!("polymorphic value of type {ft} is not a function"),
                    );
                };
                let (arg_ty, c) = self.infer(a)?;
                let var_set: std::collections::BTreeSet<TyVar> =
                    vars.iter().map(|(v, _)| v.clone()).collect();
                let mut solution: BTreeMap<TyVar, Type> = BTreeMap::new();
                self.match_shape(&p, &arg_ty, &var_set, &mut solution, a.at)?;
                for (v, bound) in &vars {
                    let solved = solution.get(v).ok_or_else(|| {
                        LangError::check(
                            at,
                            format!(
                                "cannot infer type argument `{v}` here; \
                                 apply it explicitly with `[T]`"
                            ),
                        )
                    })?;
                    if let Some(b) = bound {
                        self.require_subtype(solved, b, at)?;
                    }
                }
                let mut pi = *p;
                let mut ri = *r;
                for (v, t) in &solution {
                    pi = pi.subst(v, t);
                    ri = ri.subst(v, t);
                }
                self.require_subtype(&arg_ty, &pi, a.at)?;
                Ok((ri, c))
            }
            other => err(at, format!("cannot apply a {other}")),
        }
    }

    fn infer_bin(
        &mut self,
        op: BinOp,
        l: &Expr,
        r: &Expr,
        at: usize,
    ) -> Result<(Type, Op), LangError> {
        let (lt, lc) = self.infer_boxed(l)?;
        let (rt, rc) = self.infer_boxed(r)?;
        let num = |ck: &Self, t: &Type, at: usize| -> Result<Type, LangError> {
            let h = ck.head(t, at)?;
            match h {
                Type::Int | Type::Float => Ok(h),
                other => err(at, format!("expected a number, found {other}")),
            }
        };
        let ty = match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
                let a = num(self, &lt, l.at)?;
                let b = num(self, &rt, r.at)?;
                if a == Type::Float || b == Type::Float {
                    Type::Float
                } else {
                    Type::Int
                }
            }
            BinOp::Concat => {
                self.require_subtype(&lt, &Type::Str, l.at)?;
                self.require_subtype(&rt, &Type::Str, r.at)?;
                Type::Str
            }
            BinOp::Eq | BinOp::Ne => {
                // Comparable: one side's type must subsume the other's.
                if is_subtype_with(&lt, &rt, &self.env, &self.tyvars)
                    || is_subtype_with(&rt, &lt, &self.env, &self.tyvars)
                {
                    Type::Bool
                } else {
                    return err(at, format!("cannot compare {lt} with {rt}"));
                }
            }
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let both_str =
                    self.head(&lt, l.at)? == Type::Str && self.head(&rt, r.at)? == Type::Str;
                if !both_str {
                    num(self, &lt, l.at)?;
                    num(self, &rt, r.at)?;
                }
                Type::Bool
            }
            BinOp::And | BinOp::Or => {
                self.require_subtype(&lt, &Type::Bool, l.at)?;
                self.require_subtype(&rt, &Type::Bool, r.at)?;
                Type::Bool
            }
        };
        Ok((ty, Op::Bin(op, lc, rc)))
    }
}

/// `T1 -> ... -> Tn -> result`, for parameters of types `T1 ... Tn`.
fn curried(params: &[(String, Type)], result: Type) -> Type {
    params
        .iter()
        .rev()
        .fold(result, |r, (_, t)| Type::fun(t.clone(), r))
}

/// Can values of this type be converted to storable data (no functions)?
fn persistable(ty: &Type) -> bool {
    match ty {
        Type::Fun(_, _) | Type::Forall(_) => false,
        Type::Named(n) if n == DATABASE => false,
        Type::List(t) | Type::Set(t) => persistable(t),
        Type::Record(fs) | Type::Variant(fs) => fs.values().all(persistable),
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expr, parse_program};

    fn env() -> TypeEnv {
        let mut e = TypeEnv::new();
        e.declare("Person", dbpl_types::parse_type("{Name: Str}").unwrap())
            .unwrap();
        e.declare(
            "Employee",
            dbpl_types::parse_type("{Name: Str, Empno: Int}").unwrap(),
        )
        .unwrap();
        e
    }

    fn ty_of(src: &str) -> Result<Type, LangError> {
        infer_expr(&parse_expr(src).unwrap(), &env())
    }

    #[test]
    fn literals_and_arithmetic() {
        assert_eq!(ty_of("1 + 2").unwrap(), Type::Int);
        assert_eq!(ty_of("1 + 2.5").unwrap(), Type::Float);
        assert_eq!(ty_of("'a' ++ 'b'").unwrap(), Type::Str);
        assert!(ty_of("1 + 'a'").is_err());
        assert_eq!(ty_of("-(3)").unwrap(), Type::Int);
        assert_eq!(ty_of("not true").unwrap(), Type::Bool);
    }

    #[test]
    fn records_and_fields() {
        assert_eq!(ty_of("{Name = 'd', Age = 3}.Age").unwrap(), Type::Int);
        assert!(ty_of("{Name = 'd'}.Missing").is_err());
        assert!(ty_of("(3).Name").is_err());
    }

    #[test]
    fn with_extends_the_type() {
        let t = ty_of("{Name = 'd'} with {Empno = 1}").unwrap();
        assert_eq!(
            t,
            dbpl_types::parse_type("{Name: Str, Empno: Int}").unwrap()
        );
    }

    #[test]
    fn subsumption_at_annotations() {
        // An Employee record can be bound at type Person.
        let p = parse_program("let p: Person = {Name = 'd', Empno = 1}").unwrap();
        assert!(check_program(&p, &env()).is_ok());
        let bad = parse_program("let p: Employee = {Name = 'd'}").unwrap();
        assert!(check_program(&bad, &env()).is_err());
    }

    #[test]
    fn if_joins_branches() {
        // Employee-ish and Student-ish join at their common fields.
        let t = ty_of("if true then {Name = 'a', Empno = 1} else {Name = 'b', Gpa = 3.5}").unwrap();
        assert_eq!(t, dbpl_types::parse_type("{Name: Str}").unwrap());
        assert!(ty_of("if 3 then 1 else 2").is_err());
    }

    #[test]
    fn lambdas_and_application() {
        assert_eq!(ty_of("(fn(x: Int) => x + 1)(41)").unwrap(), Type::Int);
        // Contravariance: a Person-accepting function accepts an Employee.
        assert_eq!(
            ty_of("(fn(p: Person) => p.Name)({Name = 'e', Empno = 7})").unwrap(),
            Type::Str
        );
        assert!(ty_of("(fn(p: Employee) => p.Empno)({Name = 'x'})").is_err());
        assert!(ty_of("(3)(4)").is_err());
    }

    #[test]
    fn polymorphic_functions_with_bounds() {
        let p = parse_program(
            "fun name[t <= Person](x: t): Str = x.Name\n\
             let a = name[Employee]({Name = 'e', Empno = 1})\n\
             let b = name[Person]({Name = 'p'})",
        )
        .unwrap();
        let checked = check_program(&p, &env()).unwrap();
        assert_eq!(checked.bindings[1].1, Type::Str);
        // Instantiating beyond the bound is rejected.
        let bad =
            parse_program("fun name[t <= Person](x: t): Str = x.Name\nlet a = name[Int]").unwrap();
        assert!(check_program(&bad, &env()).is_err());
    }

    #[test]
    fn bounded_variable_bodies_promote() {
        // Inside the body, x: t with t ≤ Person supports `.Name` —
        // variable promotion through the bound.
        let p = parse_program("fun f[t <= Employee](x: t): Int = x.Empno").unwrap();
        assert!(check_program(&p, &env()).is_ok());
        let bad = parse_program("fun f[t <= Person](x: t): Int = x.Empno").unwrap();
        assert!(
            check_program(&bad, &env()).is_err(),
            "bound doesn't expose Empno"
        );
    }

    #[test]
    fn recursion_typechecks() {
        let p =
            parse_program("fun fact(n: Int): Int = if n <= 1 then 1 else n * fact(n - 1)").unwrap();
        assert!(check_program(&p, &env()).is_ok());
    }

    #[test]
    fn dynamic_coerce_typeof() {
        assert_eq!(ty_of("dynamic 3").unwrap(), Type::Dynamic);
        assert_eq!(ty_of("coerce (dynamic 3) to Int").unwrap(), Type::Int);
        assert_eq!(ty_of("typeof (dynamic 3)").unwrap(), Type::Str);
        assert!(ty_of("coerce 3 to Int").is_err(), "coerce needs a Dynamic");
        assert!(ty_of("typeof 3").is_err());
        assert!(
            ty_of("dynamic (fn(x: Int) => x)").is_err(),
            "functions not dynamic"
        );
    }

    #[test]
    fn builtins_are_typed() {
        assert_eq!(ty_of("len[Int]([1, 2])").unwrap(), Type::Int);
        assert_eq!(
            ty_of("cons[Int](1, [2, 3])").unwrap(),
            Type::list(Type::Int)
        );
        assert_eq!(
            ty_of("map[Int][Str](fn(x: Int) => 'a', [1])").unwrap(),
            Type::list(Type::Str)
        );
        // Auto-instantiation solves the type argument from the argument.
        assert_eq!(ty_of("len([1])").unwrap(), Type::Int);
    }

    #[test]
    fn auto_instantiation() {
        // One variable, from a list argument.
        assert_eq!(ty_of("len([1, 2])").unwrap(), Type::Int);
        // Within one argument, repeated occurrences join; but calls are
        // curried, so a variable is *fixed* by the first argument that
        // mentions it: cons(1, …) pins a = Int, and a Float list no
        // longer fits — explicit `cons[Float]` handles that case.
        assert_eq!(ty_of("cons(1, [2])").unwrap(), Type::list(Type::Int));
        assert_eq!(ty_of("cons(1.0, [2.5])").unwrap(), Type::list(Type::Float));
        assert!(ty_of("cons(1, [2.5])").is_err());
        assert_eq!(
            ty_of("cons[Float](1, [2.5])").unwrap(),
            Type::list(Type::Float)
        );
        // Two variables, solved from a function argument (curried calls).
        assert_eq!(
            ty_of("map(fn(x: Int) => 'a', [1])").unwrap(),
            Type::list(Type::Str)
        );
        assert_eq!(
            ty_of("filter(fn(x: Int) => x > 1, [1, 2])").unwrap(),
            Type::list(Type::Int)
        );
        // Under-determined variables still demand explicit application.
        let err = ty_of("get(db)").unwrap_err();
        assert!(err.msg.contains("explicitly"), "{err}");
        // User polymorphic functions auto-instantiate too, respecting
        // their bounds.
        let p = crate::parser::parse_program(
            "fun name[t <= Person](x: t): Str = x.Name\nlet a = name({Name = 'e', Empno = 1})",
        )
        .unwrap();
        let checked = check_program(&p, &env()).unwrap();
        assert_eq!(checked.bindings[1].1, Type::Str);
        // ...and reject out-of-bound solutions.
        let bad = crate::parser::parse_program(
            "fun name[t <= Person](x: t): Str = x.Name\nlet a = name(42)",
        )
        .unwrap();
        assert!(check_program(&bad, &env()).is_err());
    }

    #[test]
    fn get_requires_database_and_returns_list() {
        let t = ty_of("get[Employee](db)").unwrap();
        assert_eq!(t, Type::list(Type::named("Employee")));
        assert!(ty_of("get[Employee](3)").is_err());
    }

    #[test]
    fn persistence_forms_are_typed() {
        assert_eq!(ty_of("extern('H', dynamic 3)").unwrap(), Type::Unit);
        assert_eq!(ty_of("intern('H')").unwrap(), Type::Dynamic);
        assert!(ty_of("extern(3, dynamic 3)").is_err());
        assert!(ty_of("extern('H', 3)").is_err());
        assert!(ty_of("intern(42)").is_err());
    }

    #[test]
    fn include_requires_declared_compatibility() {
        let p = parse_program(
            "type Rock = {Mass: Float}\n\
             include Rock in Person",
        )
        .unwrap();
        assert!(check_program(&p, &env()).is_err());
        let ok = parse_program("include Employee in Person").unwrap();
        assert!(check_program(&ok, &env()).is_ok());
    }

    #[test]
    fn unknown_types_and_vars_are_reported() {
        assert!(ty_of("ghost").is_err());
        let p = parse_program("let x: Ghost = 1").unwrap();
        assert!(check_program(&p, &env()).is_err());
        let q = parse_program("fun f(x: t): t = x").unwrap();
        assert!(check_program(&q, &env()).is_err(), "free type variable");
    }

    #[test]
    fn equality_needs_related_types() {
        assert_eq!(ty_of("1 == 2").unwrap(), Type::Bool);
        assert_eq!(
            ty_of("{Name = 'a'} == {Name = 'b', Empno = 1}").unwrap(),
            Type::Bool
        );
        assert!(ty_of("1 == 'a'").is_err());
    }
}
