//! The static type checker.
//!
//! "In the belief that, for databases, type-checking is one of the best
//! techniques for ensuring program correctness, our main concern will be
//! with languages whose type system is designed for predominantly *static*
//! type-checking in the tradition of Pascal" — extended, as the paper
//! requires, with subtyping (records by width and depth), explicit bounded
//! polymorphism (`fun f[t <= Person](x: t): t`), and the `Dynamic` escape
//! hatch whose `coerce` is the only dynamically checked operation.

use crate::ast::{BinOp, Expr, ExprKind, Item, Program};
use crate::builtins::{builtin, DATABASE};
use crate::error::LangError;
use dbpl_types::{is_subtype_with, join, TyVar, Type, TypeEnv};
use std::collections::BTreeMap;

/// The result of checking a program: the (possibly extended) type
/// environment and the types of the top-level bindings, in order.
pub struct Checked {
    /// Type environment after all `type` declarations.
    pub env: TypeEnv,
    /// `(name, type)` for every top-level `let`/`fun`.
    pub bindings: Vec<(String, Type)>,
}

/// Check a whole program against a starting environment.
pub fn check_program(prog: &Program, base_env: &TypeEnv) -> Result<Checked, LangError> {
    let mut ck = Checker {
        env: base_env.clone(),
        vars: Vec::new(),
        tyvars: BTreeMap::new(),
    };
    let mut bindings = Vec::new();
    for item in &prog.items {
        match item {
            Item::TypeDecl { at, name, ty } => {
                // Recursive definitions mention their own name: check
                // well-formedness with the name provisionally in scope
                // (contractivity is enforced by `declare` below).
                let mut prov = Checker {
                    env: ck.env.clone(),
                    vars: Vec::new(),
                    tyvars: ck.tyvars.clone(),
                };
                prov.env.redeclare(name.clone(), ty.clone());
                prov.wf(ty, *at)?;
                // Names abbreviate structures, so re-declaring a name at an
                // equivalent structure (e.g. the same `type` line in a later
                // program of the session) is a no-op; only a *conflicting*
                // redeclaration is an error.
                match ck.env.lookup(name) {
                    Some(existing) if dbpl_types::is_equiv(existing, ty, &ck.env) => {}
                    Some(_) => {
                        return Err(LangError::check(
                            *at,
                            format!("type `{name}` already declared with a different structure"),
                        ))
                    }
                    None => {
                        ck.env
                            .declare(name.clone(), ty.clone())
                            .map_err(|e| LangError::check(*at, e.to_string()))?;
                    }
                }
            }
            Item::Include { at, sub, sup } => {
                ck.env
                    .declare_subtype(sub.clone(), sup.clone())
                    .map_err(|e| LangError::check(*at, e.to_string()))?;
            }
            Item::Let {
                at,
                name,
                ann,
                expr,
            } => {
                let inferred = ck.infer(expr)?;
                let ty = match ann {
                    Some(want) => {
                        ck.wf(want, *at)?;
                        ck.require_subtype(&inferred, want, *at)?;
                        want.clone()
                    }
                    None => inferred,
                };
                ck.vars.push((name.clone(), ty.clone()));
                bindings.push((name.clone(), ty));
            }
            Item::FunDecl {
                at,
                name,
                tparams,
                params,
                result,
                body,
            } => {
                let ty = ck.check_fun(*at, name, tparams, params, result, body)?;
                ck.vars.push((name.clone(), ty.clone()));
                bindings.push((name.clone(), ty));
            }
            // Transaction delimiters have no static content; whether a
            // transaction is actually open is a run-time question.
            Item::Begin { .. } | Item::Commit { .. } | Item::Abort { .. } => {}
            Item::Expr(e) => {
                ck.infer(e)?;
            }
        }
    }
    Ok(Checked {
        env: ck.env,
        bindings,
    })
}

/// Infer the type of a standalone expression (for tests/REPL).
pub fn infer_expr(e: &Expr, env: &TypeEnv) -> Result<Type, LangError> {
    let mut ck = Checker {
        env: env.clone(),
        vars: Vec::new(),
        tyvars: BTreeMap::new(),
    };
    ck.infer(e)
}

struct Checker {
    env: TypeEnv,
    vars: Vec<(String, Type)>,
    tyvars: BTreeMap<TyVar, Option<Type>>,
}

impl Checker {
    // ---------- helpers ----------

    fn require_subtype(&self, got: &Type, want: &Type, at: usize) -> Result<(), LangError> {
        if is_subtype_with(got, want, &self.env, &self.tyvars) {
            Ok(())
        } else {
            Err(LangError::check(
                at,
                format!("expected {want}, found {got}"),
            ))
        }
    }

    /// Well-formedness: named types resolve (or are the abstract
    /// `Database`), variables are in scope.
    fn wf(&self, ty: &Type, at: usize) -> Result<(), LangError> {
        match ty {
            Type::Named(n) => {
                if n != DATABASE && self.env.lookup(n).is_none() {
                    return Err(LangError::check(at, format!("unknown type `{n}`")));
                }
                Ok(())
            }
            Type::Var(v) => {
                if self.tyvars.contains_key(v) {
                    Ok(())
                } else {
                    Err(LangError::check(
                        at,
                        format!("type variable `{v}` not in scope"),
                    ))
                }
            }
            Type::List(t) | Type::Set(t) => self.wf(t, at),
            Type::Fun(a, r) => {
                self.wf(a, at)?;
                self.wf(r, at)
            }
            Type::Record(fs) | Type::Variant(fs) => {
                for t in fs.values() {
                    self.wf(t, at)?;
                }
                Ok(())
            }
            Type::Forall(q) | Type::Exists(q) => {
                if let Some(b) = &q.bound {
                    self.wf(b, at)?;
                }
                let mut inner = Checker {
                    env: self.env.clone(),
                    vars: Vec::new(),
                    tyvars: self.tyvars.clone(),
                };
                inner
                    .tyvars
                    .insert(q.var.clone(), q.bound.as_deref().cloned());
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
        Err(LangError::check(
            at,
            "type resolution did not terminate".to_string(),
        ))
    }

    fn lookup_var(&self, name: &str, at: usize) -> Result<Type, LangError> {
        if let Some((_, t)) = self.vars.iter().rev().find(|(n, _)| n == name) {
            return Ok(t.clone());
        }
        if name == "db" {
            return Ok(Type::named(DATABASE));
        }
        if let Some(sig) = builtin(name) {
            return Ok(sig.ty);
        }
        Err(LangError::check(at, format!("unbound variable `{name}`")))
    }

    fn check_fun(
        &mut self,
        at: usize,
        name: &str,
        tparams: &[(String, Option<Type>)],
        params: &[(String, Type)],
        result: &Type,
        body: &Expr,
    ) -> Result<Type, LangError> {
        if params.is_empty() {
            return Err(LangError::check(
                at,
                "functions need at least one parameter",
            ));
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
        let mut fun_ty = result.clone();
        for (_, t) in params.iter().rev() {
            fun_ty = Type::fun(t.clone(), fun_ty.clone());
        }
        for (v, b) in tparams.iter().rev() {
            fun_ty = Type::forall(v.clone(), b.clone(), fun_ty);
        }
        // Check the body with the function itself in scope (recursion).
        let saved_vars = self.vars.len();
        self.vars.push((name.to_string(), fun_ty.clone()));
        for (x, t) in params {
            self.vars.push((x.clone(), t.clone()));
        }
        let body_ty = self.infer(body)?;
        self.require_subtype(&body_ty, result, body.at)?;
        self.vars.truncate(saved_vars);
        self.tyvars = saved_tyvars;
        Ok(fun_ty)
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

    fn infer(&mut self, e: &Expr) -> Result<Type, LangError> {
        let at = e.at;
        match &e.node {
            ExprKind::Int(_) => Ok(Type::Int),
            ExprKind::Float(_) => Ok(Type::Float),
            ExprKind::Str(_) => Ok(Type::Str),
            ExprKind::Bool(_) => Ok(Type::Bool),
            ExprKind::Unit => Ok(Type::Unit),
            ExprKind::Var(x) => self.lookup_var(x, at),
            ExprKind::Record(fields) => {
                let mut fs = dbpl_types::Fields::new();
                for (l, fe) in fields {
                    let t = self.infer(fe)?;
                    if fs.insert(l.clone(), t).is_some() {
                        return Err(LangError::check(at, format!("duplicate field `{l}`")));
                    }
                }
                Ok(Type::Record(fs))
            }
            ExprKind::List(items) => {
                let mut elem = Type::Bottom;
                for it in items {
                    let t = self.infer(it)?;
                    elem = join(&elem, &t, &self.env);
                }
                Ok(Type::list(elem))
            }
            ExprKind::Field(base, l) => {
                let bt = self.infer(base)?;
                match self.head(&bt, at)? {
                    Type::Record(fs) => fs
                        .get(l)
                        .cloned()
                        .ok_or_else(|| LangError::check(at, format!("no field `{l}` in {bt}"))),
                    other => Err(LangError::check(
                        at,
                        format!("`{other}` is not a record (field `{l}`)"),
                    )),
                }
            }
            ExprKind::With(base, additions) => {
                let bt = self.infer(base)?;
                match self.head(&bt, at)? {
                    Type::Record(mut fs) => {
                        for (l, ae) in additions {
                            let t = self.infer(ae)?;
                            fs.insert(l.clone(), t);
                        }
                        Ok(Type::Record(fs))
                    }
                    other => Err(LangError::check(
                        at,
                        format!("`with` applies to records, not {other}"),
                    )),
                }
            }
            ExprKind::If(c, t, f) => {
                let ct = self.infer(c)?;
                self.require_subtype(&ct, &Type::Bool, c.at)?;
                let tt = self.infer(t)?;
                let ft = self.infer(f)?;
                Ok(join(&tt, &ft, &self.env))
            }
            ExprKind::Let(x, ann, bound, body) => {
                let bt = self.infer(bound)?;
                let xt = match ann {
                    Some(want) => {
                        self.wf(want, at)?;
                        self.require_subtype(&bt, want, bound.at)?;
                        want.clone()
                    }
                    None => bt,
                };
                self.vars.push((x.clone(), xt));
                let r = self.infer(body);
                self.vars.pop();
                r
            }
            ExprKind::Lambda(x, t, body) => {
                self.wf(t, at)?;
                self.vars.push((x.to_string(), t.clone()));
                let bt = self.infer(body)?;
                self.vars.pop();
                Ok(Type::fun(t.clone(), bt))
            }
            ExprKind::App(f, a) => {
                let ft = self.infer(f)?;
                match self.head(&ft, at)? {
                    Type::Fun(p, r) => {
                        let at_arg = self.infer(a)?;
                        self.require_subtype(&at_arg, &p, a.at)?;
                        Ok(*r)
                    }
                    hd @ Type::Forall(_) => {
                        // Auto-instantiation: peel the quantifier prefix,
                        // infer the argument, and solve the type variables
                        // by matching the parameter's shape against the
                        // argument's type. (Explicit `f[T]` always remains
                        // available and is required when the argument does
                        // not determine the variables, e.g. `get`.)
                        let mut vars: Vec<(TyVar, Option<Type>)> = Vec::new();
                        let mut body = hd;
                        while let Type::Forall(q) = body {
                            vars.push((q.var.clone(), q.bound.as_deref().cloned()));
                            body = *q.body;
                        }
                        let Type::Fun(p, r) = body else {
                            return Err(LangError::check(
                                at,
                                format!("polymorphic value of type {ft} is not a function"),
                            ));
                        };
                        let arg_ty = self.infer(a)?;
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
                        Ok(ri)
                    }
                    other => Err(LangError::check(at, format!("cannot apply a {other}"))),
                }
            }
            ExprKind::TyApp(f, targ) => {
                self.wf(targ, at)?;
                let ft = self.infer(f)?;
                match self.head(&ft, at)? {
                    Type::Forall(q) => {
                        if let Some(b) = &q.bound {
                            self.require_subtype(targ, b, at)?;
                        }
                        Ok(q.body.subst(&q.var, targ))
                    }
                    other => Err(LangError::check(
                        at,
                        format!("`{other}` is not polymorphic"),
                    )),
                }
            }
            ExprKind::Bin(op, l, r) => self.infer_bin(*op, l, r, at),
            ExprKind::Not(x) => {
                let t = self.infer(x)?;
                self.require_subtype(&t, &Type::Bool, x.at)?;
                Ok(Type::Bool)
            }
            ExprKind::Neg(x) => {
                let t = self.infer(x)?;
                self.require_subtype(&t, &Type::Float, x.at)?;
                Ok(self.head(&t, at)?)
            }
            ExprKind::DynamicE(x) => {
                let t = self.infer(x)?;
                if !persistable(&t) {
                    return Err(LangError::check(
                        x.at,
                        format!("type {t} contains functions and cannot be made dynamic"),
                    ));
                }
                Ok(Type::Dynamic)
            }
            ExprKind::CoerceE(x, want) => {
                self.wf(want, at)?;
                let t = self.infer(x)?;
                self.require_subtype(&t, &Type::Dynamic, x.at)?;
                Ok(want.clone())
            }
            ExprKind::TypeofE(x) => {
                let t = self.infer(x)?;
                self.require_subtype(&t, &Type::Dynamic, x.at)?;
                Ok(Type::Str)
            }
            ExprKind::ExternE(h, v) => {
                let ht = self.infer(h)?;
                self.require_subtype(&ht, &Type::Str, h.at)?;
                let vt = self.infer(v)?;
                self.require_subtype(&vt, &Type::Dynamic, v.at)?;
                Ok(Type::Unit)
            }
            ExprKind::InternE(h) => {
                let ht = self.infer(h)?;
                self.require_subtype(&ht, &Type::Str, h.at)?;
                Ok(Type::Dynamic)
            }
            ExprKind::TagE(label, payload) => {
                let t = self.infer(payload)?;
                Ok(Type::variant([(label.clone(), t)]))
            }
            ExprKind::CaseE(scrutinee, arms) => {
                let st = self.infer(scrutinee)?;
                let variant_arms = match self.head(&st, scrutinee.at)? {
                    Type::Variant(fs) => fs,
                    other => {
                        return Err(LangError::check(
                            scrutinee.at,
                            format!("`case` scrutinee must be a variant, found {other}"),
                        ))
                    }
                };
                // Exhaustiveness: every arm of the variant must be
                // handled; handling an arm the variant lacks is an error
                // (it could never fire).
                let mut covered = std::collections::BTreeSet::new();
                let mut result = Type::Bottom;
                for (label, binder, body) in arms {
                    let payload_ty = variant_arms.get(label).cloned().ok_or_else(|| {
                        LangError::check(body.at, format!("variant {st} has no arm `{label}`"))
                    })?;
                    if !covered.insert(label.clone()) {
                        return Err(LangError::check(
                            body.at,
                            format!("arm `{label}` handled twice"),
                        ));
                    }
                    self.vars.push((binder.clone(), payload_ty));
                    let bt = self.infer(body)?;
                    self.vars.pop();
                    result = join(&result, &bt, &self.env);
                }
                for missing in variant_arms.keys() {
                    if !covered.contains(missing) {
                        return Err(LangError::check(
                            at,
                            format!("non-exhaustive case: arm `{missing}` not handled"),
                        ));
                    }
                }
                Ok(result)
            }
        }
    }

    fn infer_bin(&mut self, op: BinOp, l: &Expr, r: &Expr, at: usize) -> Result<Type, LangError> {
        let lt = self.infer(l)?;
        let rt = self.infer(r)?;
        let num = |ck: &Self, t: &Type, at: usize| -> Result<Type, LangError> {
            let h = ck.head(t, at)?;
            match h {
                Type::Int | Type::Float => Ok(h),
                other => Err(LangError::check(
                    at,
                    format!("expected a number, found {other}"),
                )),
            }
        };
        match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
                let a = num(self, &lt, l.at)?;
                let b = num(self, &rt, r.at)?;
                Ok(if a == Type::Float || b == Type::Float {
                    Type::Float
                } else {
                    Type::Int
                })
            }
            BinOp::Concat => {
                self.require_subtype(&lt, &Type::Str, l.at)?;
                self.require_subtype(&rt, &Type::Str, r.at)?;
                Ok(Type::Str)
            }
            BinOp::Eq | BinOp::Ne => {
                // Comparable: one side's type must subsume the other's.
                if is_subtype_with(&lt, &rt, &self.env, &self.tyvars)
                    || is_subtype_with(&rt, &lt, &self.env, &self.tyvars)
                {
                    Ok(Type::Bool)
                } else {
                    Err(LangError::check(
                        at,
                        format!("cannot compare {lt} with {rt}"),
                    ))
                }
            }
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let both_str =
                    self.head(&lt, l.at)? == Type::Str && self.head(&rt, r.at)? == Type::Str;
                if !both_str {
                    num(self, &lt, l.at)?;
                    num(self, &rt, r.at)?;
                }
                Ok(Type::Bool)
            }
            BinOp::And | BinOp::Or => {
                self.require_subtype(&lt, &Type::Bool, l.at)?;
                self.require_subtype(&rt, &Type::Bool, r.at)?;
                Ok(Type::Bool)
            }
        }
    }
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
