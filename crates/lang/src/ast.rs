//! The abstract syntax of MiniDBPL, and the elaborated form the checker
//! hands the evaluator.
//!
//! The parser builds [`Expr`]s, whose variables are names. The checker
//! resolves every name while it types the program and emits [`Code`], in
//! which a variable is a frame slot ([`Slot`]) or a constant (a builtin, or
//! `db`), a function literal is a [`Lambda`] that knows its arity, its frame
//! size and what it captures, and a call `f(a, b)` is one [`Op::Call`].

use crate::rt::RtValue;
use dbpl_types::{Label, Type};
use std::rc::Rc;

/// A binary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+` (numeric)
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `++` (string concatenation)
    Concat,
    /// `==`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `and`
    And,
    /// `or`
    Or,
}

/// An expression, annotated with the byte offset of its head token.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// Source offset (for error messages).
    pub at: usize,
    /// The node itself.
    pub node: ExprKind,
}

/// Expression constructors.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// Boolean literal.
    Bool(bool),
    /// Unit literal `()`.
    Unit,
    /// Variable reference.
    Var(String),
    /// Record literal `{l = e, ...}`.
    Record(Vec<(Label, Expr)>),
    /// List literal `[e, ...]`.
    List(Vec<Expr>),
    /// Field access `e.l`.
    Field(Box<Expr>, Label),
    /// Record extension `e with {l = e, ...}` — object-level inheritance.
    With(Box<Expr>, Vec<(Label, Expr)>),
    /// Conditional.
    If(Box<Expr>, Box<Expr>, Box<Expr>),
    /// `let x (: T)? = e1 in e2`.
    Let(String, Option<Type>, Box<Expr>, Box<Expr>),
    /// Lambda `fn(x: T, ...) => e`; its type is curried.
    Lambda(Vec<(String, Type)>, Box<Expr>),
    /// Application `f(e)` (multi-argument calls are curried).
    App(Box<Expr>, Box<Expr>),
    /// Type application `f[T]`.
    TyApp(Box<Expr>, Type),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// `not e`.
    Not(Box<Expr>),
    /// Unary minus.
    Neg(Box<Expr>),
    /// `dynamic e` — inject into `Dynamic`, carrying `e`'s static type.
    DynamicE(Box<Expr>),
    /// `coerce e to T` — checked projection out of `Dynamic`.
    CoerceE(Box<Expr>, Type),
    /// `typeof e` — the description (as a string) of a dynamic's carried
    /// type.
    TypeofE(Box<Expr>),
    /// `extern(handle, e)` — replicating persistence out.
    ExternE(Box<Expr>, Box<Expr>),
    /// `intern(handle)` — replicating persistence in; result `Dynamic`.
    InternE(Box<Expr>),
    /// `tag Label e` — variant construction; infers the singleton variant
    /// `<Label: T>`, a subtype of every wider variant carrying that arm.
    TagE(Label, Box<Expr>),
    /// `case e of A x => e1 | B y => e2 …` — exhaustive variant analysis.
    CaseE(Box<Expr>, Vec<(Label, String, Expr)>),
}

impl Expr {
    /// Construct with a position.
    pub fn new(at: usize, node: ExprKind) -> Expr {
        Expr { at, node }
    }
}

/// A top-level item.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// `type Name = T`.
    TypeDecl {
        /// Offset.
        at: usize,
        /// Declared name.
        name: String,
        /// Definition.
        ty: Type,
    },
    /// `include Sub in Sup` — an Adaplex-style declared subtype edge.
    Include {
        /// Offset.
        at: usize,
        /// Subtype name.
        sub: String,
        /// Supertype name.
        sup: String,
    },
    /// `let x (: T)? = e` at top level.
    Let {
        /// Offset.
        at: usize,
        /// Bound name.
        name: String,
        /// Optional annotation.
        ann: Option<Type>,
        /// Bound expression.
        expr: Expr,
    },
    /// `fun f[t <= B, ...](x: T, ...): R = e` — sugar for a (possibly
    /// type-)polymorphic let.
    FunDecl {
        /// Offset.
        at: usize,
        /// Function name.
        name: String,
        /// Type parameters with optional bounds.
        tparams: Vec<(String, Option<Type>)>,
        /// Value parameters.
        params: Vec<(String, Type)>,
        /// Declared result type.
        result: Type,
        /// Body.
        body: Expr,
    },
    /// `begin` — open an explicit transaction; subsequent database,
    /// extent and store mutations are staged until `commit`.
    Begin {
        /// Offset.
        at: usize,
    },
    /// `commit` — durably apply the open explicit transaction, across
    /// every attached store, atomically.
    Commit {
        /// Offset.
        at: usize,
    },
    /// `abort` — discard every staged mutation of the open explicit
    /// transaction.
    Abort {
        /// Offset.
        at: usize,
    },
    /// A bare expression statement; its value is printed.
    Expr(Expr),
}

/// A parsed program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// The items, in order.
    pub items: Vec<Item>,
}

/// Where a resolved variable lives while the evaluator runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// Slot `i` of the running frame (see [`crate::eval`]).
    Local(usize),
    /// The running closure's `i`th captured value.
    Captured(usize),
    /// The running `fun` itself: its recursive name.
    Rec,
}

/// A function literal (`fn` or `fun`), resolved.
#[derive(Debug)]
pub struct Lambda {
    /// Parameters; a call with this many arguments enters the body.
    pub arity: usize,
    /// Frame size: the parameters plus the most binders live at once.
    pub frame: usize,
    /// The enclosing scope's slots whose values a closure captures.
    pub captures: Vec<Slot>,
    /// The body.
    pub body: Code,
}

/// An elaborated expression, annotated with its source offset.
#[derive(Debug)]
pub struct Code {
    /// Source offset (for run-time error messages).
    pub at: usize,
    /// The operation.
    pub op: Op,
}

/// Elaborated operations; each mirrors an [`ExprKind`] with its names
/// resolved. Binders name the frame slot they fill.
#[allow(missing_docs)]
#[derive(Debug)]
pub enum Op {
    /// A literal, a builtin or the database token.
    Const(RtValue),
    Var(Slot),
    Record(Vec<(Label, Code)>),
    List(Vec<Code>),
    Field(Box<Code>, Label),
    With(Box<Code>, Vec<(Label, Code)>),
    If(Box<Code>, Box<Code>, Box<Code>),
    Let(usize, Box<Code>, Box<Code>),
    Lambda(Rc<Lambda>),
    /// `f(a, b, ...)`, however the source groups its arguments.
    Call(Box<Code>, Vec<Code>),
    TyApp(Box<Code>, Type),
    Bin(BinOp, Box<Code>, Box<Code>),
    Not(Box<Code>),
    Neg(Box<Code>),
    Dynamic(Box<Code>),
    Coerce(Box<Code>, Type),
    Typeof(Box<Code>),
    Extern(Box<Code>, Box<Code>),
    Intern(Box<Code>),
    Tag(Label, Box<Code>),
    /// The scrutinee; per arm its tag, payload slot and body.
    Case(Box<Code>, Vec<(Label, usize, Code)>),
}
