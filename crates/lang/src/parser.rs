//! Recursive-descent parser for MiniDBPL.
//!
//! Top-level `let` binds a session variable; expression-level
//! `let … in …` is scoped. Multi-parameter functions and calls are
//! curried by the parser, so the checker and evaluator deal only with
//! unary functions.

use crate::ast::{BinOp, Expr, ExprKind, Item, Program};
use crate::error::LangError;
use crate::token::{lex, Spanned, Tok};
use dbpl_types::{Fields, Label, Type};

/// How deeply expressions and types may nest in program text, counting
/// each operator of a chain like `a + b + c` as a level: the chain
/// builds a tree one node deeper per operator. Parsing, checking,
/// running and dropping a program each recurse once per level on the
/// Rust stack, where an overflow aborts the process, so deeper text is
/// a parse error. At this depth a program still parses, checks and runs
/// on a 2 MiB thread stack in a debug build.
pub const MAX_NESTING: usize = 48;

/// Parse a whole program.
pub fn parse_program(src: &str) -> Result<Program, LangError> {
    let mut p = Parser::new(src)?;
    let mut items = Vec::new();
    while p.peek() != &Tok::Eof {
        items.push(p.item()?);
        // optional separators between items
        while p.peek() == &Tok::Semi {
            p.bump();
        }
    }
    Ok(Program { items })
}

/// Parse a single expression (used by tests and the REPL-style driver).
pub fn parse_expr(src: &str) -> Result<Expr, LangError> {
    let mut p = Parser::new(src)?;
    let e = p.expr()?;
    p.expect(Tok::Eof)?;
    Ok(e)
}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    /// How deep in the tree being built the parser is: a level per open
    /// [`Parser::nested`] call and per link of the chains above.
    depth: usize,
    /// The deepest `depth` reached since the innermost open chain began.
    peak: usize,
}

impl Parser {
    fn new(src: &str) -> Result<Parser, LangError> {
        Ok(Parser {
            toks: lex(src)?,
            pos: 0,
            depth: 0,
            peak: 0,
        })
    }

    /// Go one level deeper, refusing to pass [`MAX_NESTING`].
    fn descend(&mut self) -> Result<(), LangError> {
        if self.depth == MAX_NESTING {
            return Err(LangError::parse(
                self.at(),
                format!("expression or type nested more than {MAX_NESTING} levels deep"),
            ));
        }
        self.depth += 1;
        self.peak = self.peak.max(self.depth);
        Ok(())
    }

    /// Parse one nesting level with `f`.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, LangError>,
    ) -> Result<T, LangError> {
        let depth = self.depth;
        self.descend()?;
        let result = f(self);
        self.depth = depth;
        result
    }

    /// Begin a chain of links that each wrap the tree built so far (an
    /// operator and its right operand, a field access, a call). Returns
    /// what [`Parser::close_chain`] restores.
    fn open_chain(&mut self) -> (usize, usize) {
        let outer = (self.depth, self.peak);
        self.peak = self.depth;
        outer
    }

    /// One more link: everything parsed so far in the chain, down to
    /// its deepest point, now sits a level below the new node.
    fn link(&mut self) -> Result<(), LangError> {
        self.depth = self.peak;
        self.descend()
    }

    fn close_chain(&mut self, (depth, peak): (usize, usize)) {
        self.depth = depth;
        self.peak = self.peak.max(peak);
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn at(&self) -> usize {
        self.toks[self.pos].at
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, want: Tok) -> Result<(), LangError> {
        if self.peek() == &want {
            self.bump();
            Ok(())
        } else {
            Err(LangError::parse(
                self.at(),
                format!("expected `{want}`, found `{}`", self.peek()),
            ))
        }
    }

    fn ident(&mut self) -> Result<String, LangError> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => Err(LangError::parse(
                self.at(),
                format!("expected identifier, found `{other}`"),
            )),
        }
    }

    /// A field or variant label: an identifier, interned.
    fn label(&mut self) -> Result<Label, LangError> {
        self.ident().map(Label::from)
    }

    // ---------- items ----------

    fn item(&mut self) -> Result<Item, LangError> {
        let at = self.at();
        match self.peek() {
            Tok::Type => {
                self.bump();
                let name = self.ident()?;
                self.expect(Tok::Eq)?;
                let ty = self.ty()?;
                Ok(Item::TypeDecl { at, name, ty })
            }
            Tok::Include => {
                self.bump();
                let sub = self.ident()?;
                self.expect(Tok::In)?;
                let sup = self.ident()?;
                Ok(Item::Include { at, sub, sup })
            }
            Tok::Let => {
                self.bump();
                let name = self.ident()?;
                let ann = if self.peek() == &Tok::Colon {
                    self.bump();
                    Some(self.ty()?)
                } else {
                    None
                };
                self.expect(Tok::Eq)?;
                let expr = self.expr()?;
                Ok(Item::Let {
                    at,
                    name,
                    ann,
                    expr,
                })
            }
            Tok::Fun => {
                self.bump();
                let name = self.ident()?;
                let mut tparams = Vec::new();
                if self.peek() == &Tok::LBracket {
                    self.bump();
                    loop {
                        let v = self.ident()?;
                        let bound = if self.peek() == &Tok::Le {
                            self.bump();
                            Some(self.ty_atom()?)
                        } else {
                            None
                        };
                        tparams.push((v, bound));
                        if self.peek() == &Tok::Comma {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    self.expect(Tok::RBracket)?;
                }
                self.expect(Tok::LParen)?;
                let mut params = Vec::new();
                if self.peek() != &Tok::RParen {
                    loop {
                        let x = self.ident()?;
                        self.expect(Tok::Colon)?;
                        let t = self.ty()?;
                        params.push((x, t));
                        if self.peek() == &Tok::Comma {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                }
                self.expect(Tok::RParen)?;
                self.expect(Tok::Colon)?;
                let result = self.ty()?;
                self.expect(Tok::Eq)?;
                let body = self.expr()?;
                Ok(Item::FunDecl {
                    at,
                    name,
                    tparams,
                    params,
                    result,
                    body,
                })
            }
            Tok::Begin => {
                self.bump();
                Ok(Item::Begin { at })
            }
            Tok::Commit => {
                self.bump();
                Ok(Item::Commit { at })
            }
            Tok::Abort => {
                self.bump();
                Ok(Item::Abort { at })
            }
            _ => Ok(Item::Expr(self.expr()?)),
        }
    }

    // ---------- types ----------

    fn ty(&mut self) -> Result<Type, LangError> {
        self.nested(Self::ty_level)
    }

    fn ty_level(&mut self) -> Result<Type, LangError> {
        match self.peek() {
            Tok::Forall | Tok::Exists => {
                let is_forall = self.peek() == &Tok::Forall;
                self.bump();
                let v = self.ident()?;
                let bound = if self.peek() == &Tok::Le {
                    self.bump();
                    Some(self.ty_atom()?)
                } else {
                    None
                };
                self.expect(Tok::Dot)?;
                let body = self.ty()?;
                Ok(if is_forall {
                    Type::forall(v, bound, body)
                } else {
                    Type::exists(v, bound, body)
                })
            }
            _ => {
                let lhs = self.ty_atom()?;
                if self.peek() == &Tok::Arrow {
                    self.bump();
                    let rhs = self.ty()?;
                    Ok(Type::fun(lhs, rhs))
                } else {
                    Ok(lhs)
                }
            }
        }
    }

    fn ty_atom(&mut self) -> Result<Type, LangError> {
        let at = self.at();
        match self.bump() {
            Tok::LParen => {
                let t = self.ty()?;
                self.expect(Tok::RParen)?;
                Ok(t)
            }
            Tok::LBrace => {
                let mut fields = Fields::new();
                if self.peek() != &Tok::RBrace {
                    loop {
                        let l = self.label()?;
                        self.expect(Tok::Colon)?;
                        let t = self.ty()?;
                        if fields.insert(l, t).is_some() {
                            return Err(LangError::parse(at, format!("duplicate field `{l}`")));
                        }
                        if self.peek() == &Tok::Comma {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                }
                self.expect(Tok::RBrace)?;
                Ok(Type::Record(fields))
            }
            Tok::Ident(name) => match name.as_str() {
                "Int" => Ok(Type::Int),
                "Float" => Ok(Type::Float),
                "Bool" => Ok(Type::Bool),
                "Str" => Ok(Type::Str),
                "Unit" => Ok(Type::Unit),
                "Top" => Ok(Type::Top),
                "Bottom" => Ok(Type::Bottom),
                "List" | "Set" => {
                    self.expect(Tok::LBracket)?;
                    let t = self.ty()?;
                    self.expect(Tok::RBracket)?;
                    Ok(if name == "List" {
                        Type::list(t)
                    } else {
                        Type::set(t)
                    })
                }
                _ => {
                    if name.as_bytes()[0].is_ascii_uppercase() {
                        Ok(Type::named(name))
                    } else {
                        Ok(Type::var(name))
                    }
                }
            },
            Tok::Dynamic => Ok(Type::Dynamic),
            Tok::Lt => {
                // Variant type: <A: T | B: U>
                let mut arms = Fields::new();
                loop {
                    let l = self.label()?;
                    self.expect(Tok::Colon)?;
                    let t = self.ty()?;
                    if arms.insert(l, t).is_some() {
                        return Err(LangError::parse(at, format!("duplicate arm `{l}`")));
                    }
                    if self.peek() == &Tok::Pipe {
                        self.bump();
                    } else {
                        break;
                    }
                }
                self.expect(Tok::Gt)?;
                Ok(Type::Variant(arms))
            }
            other => Err(LangError::parse(
                at,
                format!("expected a type, found `{other}`"),
            )),
        }
    }

    // ---------- expressions ----------

    fn expr(&mut self) -> Result<Expr, LangError> {
        self.nested(Self::expr_level)
    }

    fn expr_level(&mut self) -> Result<Expr, LangError> {
        let at = self.at();
        match self.peek() {
            Tok::If => {
                self.bump();
                let c = self.expr()?;
                self.expect(Tok::Then)?;
                let t = self.expr()?;
                self.expect(Tok::Else)?;
                let e = self.expr()?;
                Ok(Expr::new(
                    at,
                    ExprKind::If(Box::new(c), Box::new(t), Box::new(e)),
                ))
            }
            Tok::Let => {
                self.bump();
                let x = self.ident()?;
                let ann = if self.peek() == &Tok::Colon {
                    self.bump();
                    Some(self.ty()?)
                } else {
                    None
                };
                self.expect(Tok::Eq)?;
                let bound = self.expr()?;
                self.expect(Tok::In)?;
                let body = self.expr()?;
                Ok(Expr::new(
                    at,
                    ExprKind::Let(x, ann, Box::new(bound), Box::new(body)),
                ))
            }
            Tok::Fn => {
                self.bump();
                self.expect(Tok::LParen)?;
                let mut params = Vec::new();
                loop {
                    let x = self.ident()?;
                    self.expect(Tok::Colon)?;
                    let t = self.ty()?;
                    params.push((x, t));
                    if self.peek() == &Tok::Comma {
                        self.bump();
                    } else {
                        break;
                    }
                }
                self.expect(Tok::RParen)?;
                self.expect(Tok::FatArrow)?;
                let body = self.expr()?;
                Ok(Expr::new(at, ExprKind::Lambda(params, Box::new(body))))
            }
            Tok::Coerce => {
                self.bump();
                let e = self.or_expr()?;
                self.expect(Tok::To)?;
                let t = self.ty()?;
                Ok(Expr::new(at, ExprKind::CoerceE(Box::new(e), t)))
            }
            Tok::Case => {
                self.bump();
                let scrutinee = self.expr()?;
                self.expect(Tok::Of)?;
                let mut arms = Vec::new();
                loop {
                    let label = self.label()?;
                    let binder = self.ident()?;
                    self.expect(Tok::FatArrow)?;
                    let body = self.expr()?;
                    arms.push((label, binder, body));
                    if self.peek() == &Tok::Pipe {
                        self.bump();
                    } else {
                        break;
                    }
                }
                Ok(Expr::new(at, ExprKind::CaseE(Box::new(scrutinee), arms)))
            }
            _ => self.or_expr(),
        }
    }

    fn or_expr(&mut self) -> Result<Expr, LangError> {
        self.chain(Self::and_expr, |t| (t == &Tok::Or).then_some(BinOp::Or))
    }

    fn and_expr(&mut self) -> Result<Expr, LangError> {
        self.chain(Self::cmp_expr, |t| (t == &Tok::And).then_some(BinOp::And))
    }

    fn cmp_expr(&mut self) -> Result<Expr, LangError> {
        let outer = self.open_chain();
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Tok::EqEq => Some(BinOp::Eq),
            Tok::Ne => Some(BinOp::Ne),
            Tok::Lt => Some(BinOp::Lt),
            Tok::Le => Some(BinOp::Le),
            Tok::Gt => Some(BinOp::Gt),
            Tok::Ge => Some(BinOp::Ge),
            _ => None,
        };
        let e = if let Some(op) = op {
            let at = self.at();
            self.link()?;
            self.bump();
            let rhs = self.add_expr()?;
            Expr::new(at, ExprKind::Bin(op, Box::new(lhs), Box::new(rhs)))
        } else {
            lhs
        };
        self.close_chain(outer);
        Ok(e)
    }

    fn add_expr(&mut self) -> Result<Expr, LangError> {
        self.chain(Self::mul_expr, |t| match t {
            Tok::Plus => Some(BinOp::Add),
            Tok::Minus => Some(BinOp::Sub),
            Tok::PlusPlus => Some(BinOp::Concat),
            _ => None,
        })
    }

    fn mul_expr(&mut self) -> Result<Expr, LangError> {
        self.chain(Self::unary_expr, |t| match t {
            Tok::Star => Some(BinOp::Mul),
            Tok::Slash => Some(BinOp::Div),
            _ => None,
        })
    }

    /// A left-associative chain `operand (op operand)*` of the
    /// operators `op_of` recognizes.
    fn chain(
        &mut self,
        operand: fn(&mut Self) -> Result<Expr, LangError>,
        op_of: fn(&Tok) -> Option<BinOp>,
    ) -> Result<Expr, LangError> {
        let outer = self.open_chain();
        let mut lhs = operand(self)?;
        while let Some(op) = op_of(self.peek()) {
            let at = self.at();
            self.link()?;
            self.bump();
            let rhs = operand(self)?;
            lhs = Expr::new(at, ExprKind::Bin(op, Box::new(lhs), Box::new(rhs)));
        }
        self.close_chain(outer);
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, LangError> {
        let at = self.at();
        match self.peek() {
            Tok::Not => {
                self.bump();
                let e = self.nested(Self::unary_expr)?;
                Ok(Expr::new(at, ExprKind::Not(Box::new(e))))
            }
            Tok::Minus => {
                self.bump();
                let e = self.nested(Self::unary_expr)?;
                Ok(Expr::new(at, ExprKind::Neg(Box::new(e))))
            }
            Tok::Dynamic => {
                self.bump();
                let e = self.postfix_expr()?;
                Ok(Expr::new(at, ExprKind::DynamicE(Box::new(e))))
            }
            Tok::Typeof => {
                self.bump();
                let e = self.postfix_expr()?;
                Ok(Expr::new(at, ExprKind::TypeofE(Box::new(e))))
            }
            Tok::Tag => {
                self.bump();
                let label = self.label()?;
                let e = self.postfix_expr()?;
                Ok(Expr::new(at, ExprKind::TagE(label, Box::new(e))))
            }
            _ => self.postfix_expr(),
        }
    }

    fn postfix_expr(&mut self) -> Result<Expr, LangError> {
        let outer = self.open_chain();
        let mut e = self.primary()?;
        loop {
            if matches!(
                self.peek(),
                Tok::Dot | Tok::LParen | Tok::LBracket | Tok::With
            ) {
                self.link()?;
            }
            match self.peek() {
                Tok::Dot => {
                    let at = self.at();
                    self.bump();
                    let field = self.label()?;
                    e = Expr::new(at, ExprKind::Field(Box::new(e), field));
                }
                Tok::LParen => {
                    let at = self.at();
                    self.bump();
                    if self.peek() == &Tok::RParen {
                        self.bump();
                        e = Expr::new(
                            at,
                            ExprKind::App(Box::new(e), Box::new(Expr::new(at, ExprKind::Unit))),
                        );
                    } else {
                        loop {
                            let arg = self.expr()?;
                            e = Expr::new(at, ExprKind::App(Box::new(e), Box::new(arg)));
                            if self.peek() == &Tok::Comma {
                                // Each argument wraps the call one level deeper.
                                self.link()?;
                                self.bump();
                            } else {
                                break;
                            }
                        }
                        self.expect(Tok::RParen)?;
                    }
                }
                Tok::LBracket => {
                    let at = self.at();
                    self.bump();
                    let t = self.ty()?;
                    self.expect(Tok::RBracket)?;
                    e = Expr::new(at, ExprKind::TyApp(Box::new(e), t));
                }
                Tok::With => {
                    let at = self.at();
                    self.bump();
                    self.expect(Tok::LBrace)?;
                    let fields = self.record_fields()?;
                    e = Expr::new(at, ExprKind::With(Box::new(e), fields));
                }
                _ => break,
            }
        }
        self.close_chain(outer);
        Ok(e)
    }

    fn record_fields(&mut self) -> Result<Vec<(Label, Expr)>, LangError> {
        let mut fields = Vec::new();
        if self.peek() != &Tok::RBrace {
            loop {
                let l = self.label()?;
                self.expect(Tok::Eq)?;
                let v = self.expr()?;
                fields.push((l, v));
                if self.peek() == &Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::RBrace)?;
        Ok(fields)
    }

    fn primary(&mut self) -> Result<Expr, LangError> {
        let at = self.at();
        match self.peek().clone() {
            Tok::Int(i) => {
                self.bump();
                Ok(Expr::new(at, ExprKind::Int(i)))
            }
            Tok::Float(x) => {
                self.bump();
                Ok(Expr::new(at, ExprKind::Float(x)))
            }
            Tok::Str(s) => {
                self.bump();
                Ok(Expr::new(at, ExprKind::Str(s)))
            }
            Tok::Bool(b) => {
                self.bump();
                Ok(Expr::new(at, ExprKind::Bool(b)))
            }
            Tok::Ident(x) => {
                self.bump();
                Ok(Expr::new(at, ExprKind::Var(x)))
            }
            Tok::Extern => {
                self.bump();
                self.expect(Tok::LParen)?;
                let h = self.expr()?;
                self.expect(Tok::Comma)?;
                let v = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(Expr::new(at, ExprKind::ExternE(Box::new(h), Box::new(v))))
            }
            Tok::Intern => {
                self.bump();
                self.expect(Tok::LParen)?;
                let h = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(Expr::new(at, ExprKind::InternE(Box::new(h))))
            }
            Tok::LParen => {
                self.bump();
                if self.peek() == &Tok::RParen {
                    self.bump();
                    return Ok(Expr::new(at, ExprKind::Unit));
                }
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Tok::LBrace => {
                self.bump();
                let fields = self.record_fields()?;
                Ok(Expr::new(at, ExprKind::Record(fields)))
            }
            Tok::LBracket => {
                self.bump();
                let mut items = Vec::new();
                if self.peek() != &Tok::RBracket {
                    loop {
                        items.push(self.expr()?);
                        if self.peek() == &Tok::Comma {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                }
                self.expect(Tok::RBracket)?;
                Ok(Expr::new(at, ExprKind::List(items)))
            }
            // Nested keyword expressions (if/let/fn/coerce) may start a
            // primary position through parentheses; direct heads are
            // handled in `expr`.
            other => Err(LangError::parse(at, format!("unexpected `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn items_parse() {
        let p = parse_program(
            "type Person = {Name: Str}\n\
             include Employee in Person\n\
             let x = 1\n\
             fun id[t](x: t): t = x\n\
             x + 1",
        )
        .unwrap();
        assert_eq!(p.items.len(), 5);
        assert!(matches!(p.items[0], Item::TypeDecl { .. }));
        assert!(matches!(p.items[1], Item::Include { .. }));
        assert!(matches!(p.items[2], Item::Let { .. }));
        assert!(matches!(p.items[3], Item::FunDecl { .. }));
        assert!(matches!(p.items[4], Item::Expr(_)));
    }

    #[test]
    fn precedence() {
        let e = parse_expr("1 + 2 * 3 == 7 and true").unwrap();
        // ((1 + (2*3)) == 7) and true
        match e.node {
            ExprKind::Bin(BinOp::And, l, _) => match l.node {
                ExprKind::Bin(BinOp::Eq, ll, _) => {
                    assert!(matches!(ll.node, ExprKind::Bin(BinOp::Add, _, _)));
                }
                other => panic!("expected ==, got {other:?}"),
            },
            other => panic!("expected and, got {other:?}"),
        }
    }

    #[test]
    fn calls_curry() {
        let e = parse_expr("f(1, 2)").unwrap();
        match e.node {
            ExprKind::App(f1, a2) => {
                assert!(matches!(a2.node, ExprKind::Int(2)));
                assert!(matches!(f1.node, ExprKind::App(_, _)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn lambdas_keep_their_parameters_together() {
        let e = parse_expr("fn(x: Int, y: Int) => x + y").unwrap();
        match e.node {
            ExprKind::Lambda(params, body) => {
                let names: Vec<&str> = params.iter().map(|(x, _)| x.as_str()).collect();
                assert_eq!(names, ["x", "y"]);
                assert!(matches!(body.node, ExprKind::Bin(BinOp::Add, _, _)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn postfix_chains() {
        let e = parse_expr("get[Employee](db)").unwrap();
        match e.node {
            ExprKind::App(f, _) => assert!(matches!(f.node, ExprKind::TyApp(_, _))),
            other => panic!("{other:?}"),
        }
        let e2 = parse_expr("p.Address.City").unwrap();
        assert!(matches!(e2.node, ExprKind::Field(_, _)));
        let e3 = parse_expr("p with {Empno = 1}").unwrap();
        assert!(matches!(e3.node, ExprKind::With(_, _)));
    }

    #[test]
    fn dynamic_and_coerce() {
        let e = parse_expr("dynamic 3").unwrap();
        assert!(matches!(e.node, ExprKind::DynamicE(_)));
        let e2 = parse_expr("coerce d to Int").unwrap();
        assert!(matches!(e2.node, ExprKind::CoerceE(_, _)));
        let e3 = parse_expr("typeof d").unwrap();
        assert!(matches!(e3.node, ExprKind::TypeofE(_)));
    }

    #[test]
    fn persistence_forms() {
        let e = parse_expr("extern('DBFile', dynamic d)").unwrap();
        assert!(matches!(e.node, ExprKind::ExternE(_, _)));
        let e2 = parse_expr("intern('DBFile')").unwrap();
        assert!(matches!(e2.node, ExprKind::InternE(_)));
    }

    #[test]
    fn let_in_expression() {
        let e = parse_expr("let x = 1 in x + x").unwrap();
        assert!(matches!(e.node, ExprKind::Let(_, None, _, _)));
        let e2 = parse_expr("let x: Int = 1 in x").unwrap();
        assert!(matches!(e2.node, ExprKind::Let(_, Some(Type::Int), _, _)));
    }

    #[test]
    fn record_and_list_literals() {
        let e = parse_expr("{Name = 'J Doe', Age = 40}").unwrap();
        assert!(matches!(e.node, ExprKind::Record(ref fs) if fs.len() == 2));
        let e2 = parse_expr("[1, 2, 3]").unwrap();
        assert!(matches!(e2.node, ExprKind::List(ref xs) if xs.len() == 3));
        let unit = parse_expr("()").unwrap();
        assert!(matches!(unit.node, ExprKind::Unit));
    }

    #[test]
    fn type_syntax_in_annotations() {
        let p =
            parse_program("let f: {Name: Str} -> List[Int] = fn(x: {Name: Str}) => [1]").unwrap();
        match &p.items[0] {
            Item::Let { ann: Some(t), .. } => {
                assert_eq!(t.to_string(), "{Name: Str} -> List[Int]");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors_have_positions() {
        let err = parse_expr("1 +").unwrap_err();
        assert!(err.at >= 2);
        assert!(parse_program("type = Int").is_err());
    }

    #[test]
    fn nullary_call_passes_unit() {
        let e = parse_expr("f()").unwrap();
        match e.node {
            ExprKind::App(_, arg) => assert!(matches!(arg.node, ExprKind::Unit)),
            other => panic!("{other:?}"),
        }
    }
}
