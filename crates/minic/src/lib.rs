//! MiniC: the C-subset frontend, semantic analyzer, pretty-printer and
//! interpreter underpinning the SLaDe reproduction.
//!
//! The paper trains on real-world C functions (ExeBench/AnghaBench) compiled
//! by GCC and tests decompiled hypotheses by recompiling and executing them.
//! This crate is the stand-in for "the C language" in that loop: it parses a
//! realistic subset of C (scalars, pointers, arrays, structs, typedefs,
//! control flow, external calls, string literals), checks and annotates types,
//! pretty-prints canonical source, and executes programs on a byte-addressable
//! segment memory so that pointer tricks (`memcpy`, offset casts, aliasing)
//! behave like they do on hardware.
//!
//! # Example
//!
//! ```
//! use slade_minic::{parse_program, Interpreter, Value};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let src = "int add(int a, int b) { return a + b; }";
//! let program = parse_program(src)?;
//! let mut interp = Interpreter::new(&program)?;
//! let out = interp.call("add", &[Value::int(2), Value::int(40)])?;
//! assert_eq!(out.ret.unwrap().as_i64(), 42);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod interp;
pub mod lexer;
pub mod mem;
pub mod parser;
pub mod pretty;
pub mod sema;
pub mod token;
pub mod types;
pub mod value;

pub use ast::{BinOp, Child, Expr, ExprKind, Function, Item, Program, Stmt, StmtKind, UnOp};
pub use interp::{CallOutcome, Interpreter, RunLimits};
pub use lexer::{replace_ident, Lexer};
pub use parser::{parse_program, parse_program_lenient, Parser};
pub use pretty::{pretty_expr, pretty_program, pretty_type};
pub use sema::{Sema, TypeMap};
pub use token::{Token, TokenKind};
pub use types::{IntKind, StructDef, Type};
pub use value::{Pointer, Value};

use std::fmt;

/// Any error produced while lexing, parsing, type-checking or executing
/// MiniC source.
///
/// The `Display` form is a single lowercase sentence with a source location
/// when one is known, suitable for bubbling straight up to evaluation logs.
#[derive(Debug, Clone, PartialEq)]
pub struct MiniCError {
    kind: ErrorKind,
    diag: Diag,
    /// 1-based line, 0 when unknown.
    line: u32,
}

/// Broad classification of a [`MiniCError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorKind {
    /// Malformed token stream (bad literal, stray character).
    Lex,
    /// Syntax error.
    Parse,
    /// Type error or unresolved name found during semantic analysis.
    Type,
    /// Runtime fault: bad memory access, division by zero, missing function.
    Runtime,
    /// Execution exceeded the configured fuel budget (assumed non-termination).
    Timeout,
}

/// What a [`MiniCError`] says: one variant per diagnostic a later stage
/// (program repair) acts on, and the message text for every other one.
#[derive(Debug, Clone, PartialEq)]
pub enum Diag {
    /// Sema: a name with no declaration in scope.
    UnknownIdentifier(String),
    /// Parser: an identifier in type position that names no type.
    UnknownTypeName(String),
    /// Parser: a top-level item that starts with this token.
    ExpectedDeclaration(TokenKind),
    /// Any other diagnostic.
    Other(String),
}

impl fmt::Display for Diag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Diag::UnknownIdentifier(name) => write!(f, "unknown identifier `{name}`"),
            Diag::UnknownTypeName(name) => write!(f, "unknown type name `{name}`"),
            Diag::ExpectedDeclaration(found) => {
                write!(f, "expected declaration, found `{found}`")
            }
            Diag::Other(message) => f.write_str(message),
        }
    }
}

impl<S: Into<String>> From<S> for Diag {
    fn from(message: S) -> Self {
        Diag::Other(message.into())
    }
}

impl MiniCError {
    /// Creates an error of the given kind with a source line (0 = unknown);
    /// `diag` is a [`Diag`] or the message text of a [`Diag::Other`].
    pub fn new(kind: ErrorKind, diag: impl Into<Diag>, line: u32) -> Self {
        MiniCError { kind, diag: diag.into(), line }
    }

    /// The broad classification of this error.
    pub fn kind(&self) -> ErrorKind {
        self.kind
    }

    /// What the error says, for stages that act on it.
    pub fn diag(&self) -> &Diag {
        &self.diag
    }

    /// The human-readable message, without location prefix.
    pub fn message(&self) -> String {
        self.diag.to_string()
    }

    /// 1-based source line, or 0 when not tied to a location.
    pub fn line(&self) -> u32 {
        self.line
    }
}

impl fmt::Display for MiniCError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = match self.kind {
            ErrorKind::Lex => "lex error",
            ErrorKind::Parse => "parse error",
            ErrorKind::Type => "type error",
            ErrorKind::Runtime => "runtime error",
            ErrorKind::Timeout => "timeout",
        };
        if self.line > 0 {
            write!(f, "{tag} at line {}: {}", self.line, self.diag)
        } else {
            write!(f, "{tag}: {}", self.diag)
        }
    }
}

impl std::error::Error for MiniCError {}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, MiniCError>;

#[cfg(test)]
mod tests {
    use super::*;

    /// The typed diagnostics print the text they had as plain messages.
    #[test]
    fn typed_diagnostics_keep_their_text() {
        let cases = [
            (
                "int f(void) { return y; }",
                Diag::UnknownIdentifier("y".into()),
                "type error at line 1: unknown identifier `y`",
            ),
            (
                "int f(my_t x) { return 0; }",
                Diag::UnknownTypeName("my_t".into()),
                "parse error at line 1: unknown type name `my_t`",
            ),
            (
                "my_t f(int x) { return 0; }",
                Diag::ExpectedDeclaration(TokenKind::Ident("my_t".into())),
                "parse error at line 1: expected declaration, found `my_t`",
            ),
            (
                "int f(void) { return 0; }\n3;",
                Diag::ExpectedDeclaration(TokenKind::IntLit {
                    value: 3,
                    unsigned: false,
                    long: false,
                }),
                "parse error at line 2: expected declaration, found `3`",
            ),
        ];
        for (src, diag, text) in cases {
            let err = parse_program(src).and_then(|p| Sema::check(&p).map(|_| ())).unwrap_err();
            assert_eq!(err.diag(), &diag, "{src}");
            assert_eq!(err.to_string(), text, "{src}");
            assert_eq!(text.split_once(": ").unwrap().1, err.message(), "{src}");
        }
    }
}
