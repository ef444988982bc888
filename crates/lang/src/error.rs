//! Errors for MiniDBPL, each carrying a byte offset into the source.

use std::fmt;

/// Which phase produced the error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Tokenization.
    Lex,
    /// Parsing.
    Parse,
    /// Static type checking.
    Check,
    /// Evaluation.
    Eval,
}

/// Machine-checkable classification of a runtime error, beyond the
/// phase. Most errors are [`ErrorKind::General`]; the engine's admission
/// and supervision paths tag theirs so callers can branch on *why* a
/// commit failed (retry later vs. give up vs. reconnect) without string
/// matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ErrorKind {
    /// No specific classification.
    #[default]
    General,
    /// The engine shed load: the commit queue (or session table) was at
    /// capacity and the request could not be admitted within its
    /// deadline. Nothing was staged; retrying later is safe.
    Overloaded,
    /// The transaction's wall-clock deadline expired before its
    /// durability step started. Nothing durable happened.
    DeadlineExceeded,
    /// The engine is shut down, or a panic escaped the commit's group
    /// commit batch; the commit was definitively not applied
    /// durably-and-published. Reconnect or restart the server.
    EngineDown,
}

/// A language-processing error.
#[derive(Debug, Clone, PartialEq)]
pub struct LangError {
    /// The phase.
    pub phase: Phase,
    /// Byte offset into the source.
    pub at: usize,
    /// Message.
    pub msg: String,
    /// Machine-checkable classification (admission control, deadlines,
    /// engine lifecycle). [`ErrorKind::General`] for ordinary errors.
    pub kind: ErrorKind,
}

impl LangError {
    /// A lexical error.
    pub fn lex(at: usize, msg: impl Into<String>) -> LangError {
        LangError {
            phase: Phase::Lex,
            at,
            msg: msg.into(),
            kind: ErrorKind::General,
        }
    }

    /// A parse error.
    pub fn parse(at: usize, msg: impl Into<String>) -> LangError {
        LangError {
            phase: Phase::Parse,
            at,
            msg: msg.into(),
            kind: ErrorKind::General,
        }
    }

    /// A type error.
    pub fn check(at: usize, msg: impl Into<String>) -> LangError {
        LangError {
            phase: Phase::Check,
            at,
            msg: msg.into(),
            kind: ErrorKind::General,
        }
    }

    /// A runtime error.
    pub fn eval(at: usize, msg: impl Into<String>) -> LangError {
        LangError {
            phase: Phase::Eval,
            at,
            msg: msg.into(),
            kind: ErrorKind::General,
        }
    }

    /// A runtime error with an explicit [`ErrorKind`].
    pub fn eval_kind(kind: ErrorKind, msg: impl Into<String>) -> LangError {
        LangError {
            phase: Phase::Eval,
            at: 0,
            msg: msg.into(),
            kind,
        }
    }

    /// An [`ErrorKind::Overloaded`] admission rejection.
    pub fn overloaded(msg: impl Into<String>) -> LangError {
        LangError::eval_kind(ErrorKind::Overloaded, msg)
    }

    /// An [`ErrorKind::DeadlineExceeded`] expiry.
    pub fn deadline_exceeded(msg: impl Into<String>) -> LangError {
        LangError::eval_kind(ErrorKind::DeadlineExceeded, msg)
    }

    /// An [`ErrorKind::EngineDown`] lifecycle error.
    pub fn engine_down(msg: impl Into<String>) -> LangError {
        LangError::eval_kind(ErrorKind::EngineDown, msg)
    }

    /// Whether this error is an admission-control rejection.
    pub fn is_overloaded(&self) -> bool {
        self.kind == ErrorKind::Overloaded
    }

    /// Whether this error is a transaction-deadline expiry.
    pub fn is_deadline_exceeded(&self) -> bool {
        self.kind == ErrorKind::DeadlineExceeded
    }

    /// Whether this error means the engine is gone.
    pub fn is_engine_down(&self) -> bool {
        self.kind == ErrorKind::EngineDown
    }

    /// Render with a line/column computed against the source text.
    pub fn render(&self, src: &str) -> String {
        let mut line = 1usize;
        let mut col = 1usize;
        for (i, c) in src.char_indices() {
            if i >= self.at {
                break;
            }
            if c == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        let phase = match self.phase {
            Phase::Lex => "lexical",
            Phase::Parse => "parse",
            Phase::Check => "type",
            Phase::Eval => "runtime",
        };
        format!("{phase} error at {line}:{col}: {}", self.msg)
    }
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let phase = match self.phase {
            Phase::Lex => "lexical",
            Phase::Parse => "parse",
            Phase::Check => "type",
            Phase::Eval => "runtime",
        };
        write!(f, "{phase} error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for LangError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_computes_line_and_column() {
        let src = "line one\nline two";
        let e = LangError::check(9, "boom");
        assert_eq!(e.render(src), "type error at 2:1: boom");
        let e2 = LangError::parse(2, "x");
        assert_eq!(e2.render(src), "parse error at 1:3: x");
    }
}
