//! A small parser for type expressions, accepting the same surface syntax
//! that [`crate::display`] produces. Mostly a convenience for tests,
//! examples and the MiniDBPL typechecker:
//!
//! ```
//! use dbpl_types::{parse_type, Type};
//! let t = parse_type("{Name: Str, Address: {City: Str}}").unwrap();
//! assert_eq!(t.to_string(), "{Address: {City: Str}, Name: Str}");
//! ```
//!
//! Grammar (right-associative arrows, quantifiers extend to the right):
//!
//! ```text
//! type  := ("forall" | "exists") ident ("<=" atom)? "." type
//!        | atom ("->" type)?
//! atom  := Int | Float | Bool | Str | Unit | Top | Bottom | Dynamic
//!        | List "[" type "]" | Set "[" type "]"
//!        | "{" (ident ":" type ("," ident ":" type)*)? "}"
//!        | "<" ident ":" type ("|" ident ":" type)* ">"
//!        | ident | "(" type ")"
//! ```
//!
//! Identifiers beginning with an upper-case letter denote *named* types;
//! those beginning with a lower-case letter denote *type variables*.

use crate::ty::{Fields, Label, Type};
use std::fmt;

/// A parse failure, with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "type parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parse a type expression.
pub fn parse_type(input: &str) -> Result<Type, ParseError> {
    let mut p = Parser {
        src: input.as_bytes(),
        pos: 0,
    };
    let t = p.ty()?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(p.err("trailing input"));
    }
    Ok(t)
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            at: self.pos,
            msg: msg.into(),
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.src.get(self.pos).copied()
    }

    fn eat(&mut self, s: &str) -> bool {
        self.skip_ws();
        if self.src[self.pos..].starts_with(s.as_bytes()) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, s: &str) -> Result<(), ParseError> {
        if self.eat(s) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{s}`")))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.src.len()
            && (self.src[self.pos].is_ascii_alphanumeric() || self.src[self.pos] == b'_')
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected identifier"));
        }
        Ok(String::from_utf8_lossy(&self.src[start..self.pos]).into_owned())
    }

    /// Peek the next identifier without consuming it.
    fn peek_ident(&mut self) -> Option<String> {
        let save = self.pos;
        let r = self.ident().ok();
        self.pos = save;
        r
    }

    fn ty(&mut self) -> Result<Type, ParseError> {
        match self.peek_ident().as_deref() {
            Some(kw @ ("forall" | "exists")) => {
                let kw = kw.to_string();
                let _ = self.ident();
                let var = self.ident()?;
                let bound = if self.eat("<=") {
                    Some(self.atom()?)
                } else {
                    None
                };
                self.expect(".")?;
                let body = self.ty()?;
                Ok(if kw == "forall" {
                    Type::forall(var, bound, body)
                } else {
                    Type::exists(var, bound, body)
                })
            }
            _ => {
                let lhs = self.atom()?;
                if self.eat("->") {
                    let rhs = self.ty()?;
                    Ok(Type::fun(lhs, rhs))
                } else {
                    Ok(lhs)
                }
            }
        }
    }

    fn atom(&mut self) -> Result<Type, ParseError> {
        match self.peek() {
            Some(b'(') => {
                self.expect("(")?;
                let t = self.ty()?;
                self.expect(")")?;
                Ok(t)
            }
            Some(b'{') => {
                self.expect("{")?;
                let mut fields = Fields::new();
                if self.peek() != Some(b'}') {
                    loop {
                        let l = Label::from(self.ident()?);
                        self.expect(":")?;
                        let t = self.ty()?;
                        if fields.insert(l, t).is_some() {
                            return Err(self.err(format!("duplicate field `{l}`")));
                        }
                        if !self.eat(",") {
                            break;
                        }
                    }
                }
                self.expect("}")?;
                Ok(Type::Record(fields))
            }
            Some(b'<') => {
                self.expect("<")?;
                let mut arms = Fields::new();
                loop {
                    let l = Label::from(self.ident()?);
                    self.expect(":")?;
                    let t = self.ty()?;
                    if arms.insert(l, t).is_some() {
                        return Err(self.err(format!("duplicate variant arm `{l}`")));
                    }
                    if !self.eat("|") {
                        break;
                    }
                }
                self.expect(">")?;
                Ok(Type::Variant(arms))
            }
            Some(c) if c.is_ascii_alphabetic() || c == b'_' => {
                let id = self.ident()?;
                match id.as_str() {
                    "Int" => Ok(Type::Int),
                    "Float" => Ok(Type::Float),
                    "Bool" => Ok(Type::Bool),
                    "Str" => Ok(Type::Str),
                    "Unit" => Ok(Type::Unit),
                    "Top" => Ok(Type::Top),
                    "Bottom" => Ok(Type::Bottom),
                    "Dynamic" => Ok(Type::Dynamic),
                    "List" | "Set" => {
                        self.expect("[")?;
                        let t = self.ty()?;
                        self.expect("]")?;
                        Ok(if id == "List" {
                            Type::list(t)
                        } else {
                            Type::set(t)
                        })
                    }
                    "forall" | "exists" => {
                        Err(self.err("quantifier not allowed here; parenthesize"))
                    }
                    _ => {
                        if id.as_bytes()[0].is_ascii_uppercase() {
                            Ok(Type::named(id))
                        } else {
                            Ok(Type::var(id))
                        }
                    }
                }
            }
            _ => Err(self.err("expected a type")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(s: &str) {
        let t = parse_type(s).unwrap();
        let printed = t.to_string();
        let t2 = parse_type(&printed).unwrap();
        assert_eq!(
            t, t2,
            "display/parse roundtrip failed for `{s}` -> `{printed}`"
        );
    }

    #[test]
    fn bases() {
        assert_eq!(parse_type("Int").unwrap(), Type::Int);
        assert_eq!(parse_type("  Dynamic ").unwrap(), Type::Dynamic);
    }

    #[test]
    fn records_and_nesting() {
        let t = parse_type("{Name: Str, Address: {City: Str, Zip: Int}}").unwrap();
        assert_eq!(
            t,
            Type::record([
                ("Name", Type::Str),
                (
                    "Address",
                    Type::record([("City", Type::Str), ("Zip", Type::Int)])
                ),
            ])
        );
    }

    #[test]
    fn empty_record_is_top_of_records() {
        assert_eq!(parse_type("{}").unwrap(), Type::Record(Default::default()));
    }

    #[test]
    fn arrows_are_right_associative() {
        assert_eq!(
            parse_type("Int -> Int -> Bool").unwrap(),
            Type::fun(Type::Int, Type::fun(Type::Int, Type::Bool))
        );
        assert_eq!(
            parse_type("(Int -> Int) -> Bool").unwrap(),
            Type::fun(Type::fun(Type::Int, Type::Int), Type::Bool)
        );
    }

    #[test]
    fn quantifiers() {
        let t = parse_type("forall t <= Person. t -> List[exists u <= t. u]").unwrap();
        assert_eq!(
            t,
            Type::forall(
                "t",
                Some(Type::named("Person")),
                Type::fun(
                    Type::var("t"),
                    Type::list(Type::exists("u", Some(Type::var("t")), Type::var("u")))
                )
            )
        );
    }

    #[test]
    fn variants() {
        let t = parse_type("<Nil: Unit | Cons: {Hd: Int, Tl: IntList}>").unwrap();
        assert_eq!(
            t,
            Type::variant([
                ("Nil", Type::Unit),
                (
                    "Cons",
                    Type::record([("Hd", Type::Int), ("Tl", Type::named("IntList"))])
                ),
            ])
        );
    }

    #[test]
    fn case_selects_named_vs_var() {
        assert_eq!(parse_type("Person").unwrap(), Type::named("Person"));
        assert_eq!(parse_type("t").unwrap(), Type::var("t"));
    }

    #[test]
    fn errors_carry_position() {
        let e = parse_type("{Name: }").unwrap_err();
        assert!(e.at > 0);
        assert!(parse_type("Int Bool").is_err(), "trailing input rejected");
        assert!(
            parse_type("{a: Int, a: Str}").is_err(),
            "duplicate field rejected"
        );
    }

    #[test]
    fn display_parse_roundtrips() {
        for s in [
            "Int",
            "{Empno: Int, Name: Str}",
            "List[{A: Int}]",
            "Set[Str]",
            "Int -> Int -> Bool",
            "(Int -> Int) -> Bool",
            "forall t. Database -> List[(exists u <= t. u)]",
            "<Cons: Int | Nil: Unit>",
            "forall t <= {Name: Str}. t -> t",
        ] {
            roundtrip(s);
        }
    }
}
