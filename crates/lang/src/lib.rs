//! # dbpl-lang — MiniDBPL
//!
//! A small, statically typed database programming language embodying the
//! design of Buneman & Atkinson (SIGMOD 1986):
//!
//! * structural record subtyping and explicit **bounded polymorphism**
//!   (`fun name[t <= Person](x: t): Str = x.Name`);
//! * **`dynamic` / `coerce` / `typeof`** exactly as in Amber — `coerce` is
//!   the single dynamically checked operation;
//! * the generic **`get[T](db)`** whose result is usable at the bound `T`
//!   (the faithful existential packages live in `dbpl-core`);
//! * record extension **`e with {…}`** — object-level inheritance;
//! * **`extern`/`intern`** replicating persistence across program runs
//!   within a [`Session`], reproducing the paper's cross-program examples
//!   (including the lost-modification behaviour of re-interning);
//! * `type` declarations and Adaplex-style **`include`** directives.
//!
//! ```
//! use dbpl_lang::Session;
//! let mut s = Session::new().unwrap();
//! let out = s.run("
//!     type Person = {Name: Str}
//!     put(db, dynamic {Name = 'J Doe', Empno = 1234})
//!     map[Person][Str](fn(p: Person) => p.Name, get[Person](db))
//! ").unwrap();
//! assert_eq!(out, vec!["['J Doe']"]);
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod builtins;
pub mod check;
pub mod error;
pub mod eval;
pub mod parser;
pub mod rt;
pub mod server;
pub mod session;
pub mod token;

pub use check::{check_program, infer_expr};
pub use dbpl_persist::Health;
pub use error::{ErrorKind, LangError, Phase};
pub use parser::{parse_expr, parse_program, MAX_NESTING};
pub use rt::RtValue;
pub use server::{sanitize_label, EngineState, Server, ServerConfig, ServerSession, MAX_BATCH};
pub use session::Session;
