//! Token definitions for the MiniC lexer.

use std::fmt;

/// A lexical token with its source line (1-based).
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// What kind of token this is, including any literal payload.
    pub kind: TokenKind,
    /// 1-based source line the token starts on.
    pub line: u32,
}

/// The kinds of tokens MiniC recognizes.
///
/// Keywords are folded into [`TokenKind::Ident`] by the lexer and
/// distinguished by the parser via [`is_keyword`]; this keeps the lexer
/// reusable for the lenient parsing mode used by type inference, where
/// unknown identifiers may act as type names.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Identifier or keyword.
    Ident(String),
    /// Integer literal with an `unsigned`/`long` suffix flag pair.
    IntLit {
        /// The literal's magnitude.
        value: u64,
        /// `u`/`U` suffix present.
        unsigned: bool,
        /// `l`/`L` suffix present.
        long: bool,
    },
    /// Floating literal; `single` is true for an `f`-suffixed literal.
    FloatLit {
        /// The literal value.
        value: f64,
        /// `f`/`F` suffix present (type `float`).
        single: bool,
    },
    /// Character literal, already unescaped.
    CharLit(u8),
    /// String literal's bytes, already unescaped (no surrounding quotes).
    StrLit(Vec<u8>),
    /// Punctuation or operator, e.g. `"+="`, `"->"`, `"("`.
    Punct(&'static str),
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "{s}"),
            TokenKind::IntLit { value, .. } => write!(f, "{value}"),
            TokenKind::FloatLit { value, .. } => write!(f, "{value}"),
            TokenKind::CharLit(c) => write!(f, "'{}'", *c as char),
            TokenKind::StrLit(s) => write!(f, "\"{}\"", String::from_utf8_lossy(s)),
            TokenKind::Punct(p) => write!(f, "{p}"),
            TokenKind::Eof => write!(f, "<eof>"),
        }
    }
}

/// All multi- and single-character punctuation, longest first so the lexer
/// can match greedily.
pub const PUNCTS: &[&str] = &[
    "<<=", ">>=", "...", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "(", ")", "{", "}", "[", "]", ";", ",",
    ".", "+", "-", "*", "/", "%", "<", ">", "=", "&", "|", "^", "!", "~", "?", ":",
];

/// C keywords recognized by the parser.
pub const KEYWORDS: &[&str] = &[
    "void",
    "char",
    "short",
    "int",
    "long",
    "float",
    "double",
    "signed",
    "unsigned",
    "struct",
    "union",
    "enum",
    "typedef",
    "extern",
    "static",
    "const",
    "volatile",
    "restrict",
    "__restrict",
    "inline",
    "if",
    "else",
    "while",
    "do",
    "for",
    "return",
    "break",
    "continue",
    "goto",
    "sizeof",
    "switch",
    "case",
    "default",
];

/// Returns true if `s` is a C keyword (and therefore never a plain
/// identifier in MiniC source).
///
/// ```
/// assert!(slade_minic::token::is_keyword("while"));
/// assert!(!slade_minic::token::is_keyword("whilst"));
/// ```
pub fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}
