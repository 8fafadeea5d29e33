//! Hand-written lexer for MiniC.
//!
//! Handles decimal/hex/octal integer literals with `u`/`l` suffixes, float
//! literals (with optional exponent and `f` suffix), char and string literals
//! with the usual escapes, line and block comments, and the full punctuation
//! set in [`crate::token::PUNCTS`].

use crate::token::{Token, TokenKind, PUNCTS};
use crate::{Diag, ErrorKind, MiniCError, Result};

/// True for the bytes an identifier continues with: `[A-Za-z0-9_]`.
fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Replaces every whole-word occurrence of `from` in `text` with `to`: one
/// whose neighbours are not identifier bytes. Any other text, non-ASCII
/// included, is copied unchanged.
///
/// ```
/// use slade_minic::replace_ident;
/// assert_eq!(replace_ident("int val; val = valid;", "val", "x"), "int x; x = valid;");
/// assert_eq!(replace_ident("f(\"é\", val)", "val", "x"), "f(\"é\", x)");
/// ```
pub fn replace_ident(text: &str, from: &str, to: &str) -> String {
    if from.is_empty() {
        return text.to_string();
    }
    let bytes = text.as_bytes();
    let mut out = String::with_capacity(text.len());
    let (mut copied, mut at) = (0, 0);
    while let Some(found) = text[at..].find(from) {
        let (start, end) = (at + found, at + found + from.len());
        if (start == 0 || !is_ident_byte(bytes[start - 1]))
            && (end == bytes.len() || !is_ident_byte(bytes[end]))
        {
            out.push_str(&text[copied..start]);
            out.push_str(to);
            (copied, at) = (end, end);
        } else {
            // Part of a longer word: search again from the next character.
            at = start + text[start..].chars().next().map_or(1, char::len_utf8);
        }
    }
    out.push_str(&text[copied..]);
    out
}

/// Streaming lexer over MiniC source text.
///
/// # Example
///
/// ```
/// use slade_minic::{Lexer, TokenKind};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let tokens = Lexer::new("int x = 0x1f;").tokenize()?;
/// assert!(matches!(tokens[0].kind, TokenKind::Ident(ref s) if s == "int"));
/// assert!(matches!(tokens[3].kind, TokenKind::IntLit { value: 31, .. }));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
}

impl<'a> Lexer<'a> {
    /// Creates a lexer over `src`.
    pub fn new(src: &'a str) -> Self {
        Lexer { src: src.as_bytes(), pos: 0, line: 1 }
    }

    /// Lexes the entire input, appending a trailing [`TokenKind::Eof`].
    ///
    /// # Errors
    ///
    /// Returns a [`MiniCError`] with kind [`ErrorKind::Lex`] on malformed
    /// literals, unterminated comments/strings, or stray bytes.
    pub fn tokenize(mut self) -> Result<Vec<Token>> {
        let mut out = Vec::new();
        loop {
            self.skip_trivia()?;
            let line = self.line;
            let Some(c) = self.peek() else {
                out.push(Token { kind: TokenKind::Eof, line });
                return Ok(out);
            };
            let kind = if c.is_ascii_alphabetic() || c == b'_' {
                self.lex_ident()
            } else if c.is_ascii_digit()
                || (c == b'.' && self.peek_at(1).is_some_and(|d| d.is_ascii_digit()))
            {
                self.lex_number()?
            } else if c == b'\'' {
                self.lex_char()?
            } else if c == b'"' {
                self.lex_string()?
            } else {
                self.lex_punct()?
            };
            out.push(Token { kind, line });
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek_at(&self, n: usize) -> Option<u8> {
        self.src.get(self.pos + n).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn err(&self, msg: impl Into<Diag>) -> MiniCError {
        MiniCError::new(ErrorKind::Lex, msg, self.line)
    }

    fn skip_trivia(&mut self) -> Result<()> {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'/') if self.peek_at(1) == Some(b'/') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(b'/') if self.peek_at(1) == Some(b'*') => {
                    self.bump();
                    self.bump();
                    loop {
                        match self.peek() {
                            None => return Err(self.err("unterminated block comment")),
                            Some(b'*') if self.peek_at(1) == Some(b'/') => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            _ => {
                                self.bump();
                            }
                        }
                    }
                }
                // Preprocessor lines are not part of MiniC; skip them so that
                // pasted real-world snippets with `#include` still lex.
                Some(b'#') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn lex_ident(&mut self) -> TokenKind {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if is_ident_byte(c) {
                self.bump();
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap().to_string();
        TokenKind::Ident(text)
    }

    fn lex_number(&mut self) -> Result<TokenKind> {
        let start = self.pos;
        let mut is_float = false;
        if self.peek() == Some(b'0') && matches!(self.peek_at(1), Some(b'x') | Some(b'X')) {
            self.bump();
            self.bump();
            let digits_start = self.pos;
            while self.peek().is_some_and(|c| c.is_ascii_hexdigit()) {
                self.bump();
            }
            if self.pos == digits_start {
                return Err(self.err("hex literal requires digits"));
            }
            let text = std::str::from_utf8(&self.src[digits_start..self.pos]).unwrap();
            let value = u64::from_str_radix(text, 16)
                .map_err(|_| self.err("hex literal out of range"))?;
            let (unsigned, long) = self.lex_int_suffix();
            return Ok(TokenKind::IntLit { value, unsigned, long });
        }
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.bump();
        }
        if self.peek() == Some(b'.') && self.peek_at(1) != Some(b'.') {
            is_float = true;
            self.bump();
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.bump();
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            let mut look = 1;
            if matches!(self.peek_at(1), Some(b'+') | Some(b'-')) {
                look = 2;
            }
            if self.peek_at(look).is_some_and(|c| c.is_ascii_digit()) {
                is_float = true;
                for _ in 0..look {
                    self.bump();
                }
                while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    self.bump();
                }
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
        if is_float {
            let single = matches!(self.peek(), Some(b'f') | Some(b'F'));
            if single {
                self.bump();
            }
            let value: f64 = text.parse().map_err(|_| self.err("bad float literal"))?;
            Ok(TokenKind::FloatLit { value, single })
        } else if matches!(self.peek(), Some(b'f') | Some(b'F')) {
            self.bump();
            let value: f64 = text.parse().map_err(|_| self.err("bad float literal"))?;
            Ok(TokenKind::FloatLit { value, single: true })
        } else {
            let value: u64 = if text.len() > 1 && text.starts_with('0') {
                u64::from_str_radix(&text[1..], 8).map_err(|_| self.err("bad octal literal"))?
            } else {
                text.parse().map_err(|_| self.err("integer literal out of range"))?
            };
            let (unsigned, long) = self.lex_int_suffix();
            Ok(TokenKind::IntLit { value, unsigned, long })
        }
    }

    fn lex_int_suffix(&mut self) -> (bool, bool) {
        let mut unsigned = false;
        let mut long = false;
        while let Some(c) = self.peek() {
            match c {
                b'u' | b'U' if !unsigned => {
                    unsigned = true;
                    self.bump();
                }
                b'l' | b'L' => {
                    long = true;
                    self.bump();
                }
                _ => break,
            }
        }
        (unsigned, long)
    }

    fn lex_escape(&mut self) -> Result<u8> {
        let c = self.bump().ok_or_else(|| self.err("unterminated escape"))?;
        Ok(match c {
            b'n' => b'\n',
            b't' => b'\t',
            b'r' => b'\r',
            b'0' => 0,
            b'\\' => b'\\',
            b'\'' => b'\'',
            b'"' => b'"',
            b'a' => 0x07,
            b'b' => 0x08,
            b'f' => 0x0c,
            b'v' => 0x0b,
            b'x' => {
                let mut v: u32 = 0;
                let mut seen = false;
                while let Some(h) = self.peek() {
                    if let Some(d) = (h as char).to_digit(16) {
                        v = v * 16 + d;
                        seen = true;
                        self.bump();
                    } else {
                        break;
                    }
                }
                if !seen {
                    return Err(self.err("\\x escape requires hex digits"));
                }
                (v & 0xff) as u8
            }
            other => return Err(self.err(format!("unknown escape '\\{}'", other as char))),
        })
    }

    fn lex_char(&mut self) -> Result<TokenKind> {
        self.bump(); // opening quote
        let c = self.bump().ok_or_else(|| self.err("unterminated char literal"))?;
        let value = if c == b'\\' { self.lex_escape()? } else { c };
        if self.bump() != Some(b'\'') {
            return Err(self.err("unterminated char literal"));
        }
        Ok(TokenKind::CharLit(value))
    }

    fn lex_string(&mut self) -> Result<TokenKind> {
        self.bump(); // opening quote
        let mut out = Vec::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string literal")),
                Some(b'"') => break,
                Some(b'\\') => out.push(self.lex_escape()?),
                Some(c) => out.push(c),
            }
        }
        Ok(TokenKind::StrLit(out))
    }

    fn lex_punct(&mut self) -> Result<TokenKind> {
        for p in PUNCTS {
            if self.src[self.pos..].starts_with(p.as_bytes()) {
                for _ in 0..p.len() {
                    self.bump();
                }
                return Ok(TokenKind::Punct(p));
            }
        }
        let c = self.peek().unwrap();
        Err(self.err(format!("unexpected character '{}'", c as char)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        Lexer::new(src).tokenize().unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_idents_and_keywords_alike() {
        let ks = kinds("int foo_1 _bar");
        assert_eq!(ks.len(), 4);
        assert!(matches!(&ks[0], TokenKind::Ident(s) if s == "int"));
        assert!(matches!(&ks[1], TokenKind::Ident(s) if s == "foo_1"));
        assert!(matches!(&ks[2], TokenKind::Ident(s) if s == "_bar"));
    }

    #[test]
    fn lexes_integer_literal_forms() {
        assert!(matches!(kinds("42")[0], TokenKind::IntLit { value: 42, unsigned: false, .. }));
        assert!(matches!(kinds("0x2a")[0], TokenKind::IntLit { value: 42, .. }));
        assert!(matches!(kinds("052")[0], TokenKind::IntLit { value: 42, .. }));
        assert!(matches!(kinds("42u")[0], TokenKind::IntLit { value: 42, unsigned: true, .. }));
        assert!(matches!(
            kinds("42ul")[0],
            TokenKind::IntLit { unsigned: true, long: true, .. }
        ));
    }

    #[test]
    fn lexes_float_literal_forms() {
        assert!(matches!(kinds("1.5")[0], TokenKind::FloatLit { single: false, .. }));
        assert!(matches!(kinds("1.5f")[0], TokenKind::FloatLit { single: true, .. }));
        assert!(
            matches!(kinds("1e3")[0], TokenKind::FloatLit { value, .. } if value == 1000.0)
        );
        assert!(matches!(kinds(".25")[0], TokenKind::FloatLit { value, .. } if value == 0.25));
        assert!(
            matches!(kinds("2f")[0], TokenKind::FloatLit { value, single: true } if value == 2.0)
        );
    }

    #[test]
    fn lexes_char_and_string_escapes() {
        assert!(matches!(kinds("'\\n'")[0], TokenKind::CharLit(b'\n')));
        assert!(matches!(kinds("'\\x41'")[0], TokenKind::CharLit(b'A')));
        assert!(matches!(&kinds("\"a\\tb\"")[0], TokenKind::StrLit(s) if s == b"a\tb"));
    }

    #[test]
    fn string_literals_keep_their_bytes() {
        // An escape is one byte, whatever its value; source text keeps its
        // UTF-8 encoding.
        assert!(
            matches!(&kinds("\"\\xe9\\x80\"")[0], TokenKind::StrLit(s) if s == &[0xe9, 0x80])
        );
        assert!(matches!(&kinds("\"é\"")[0], TokenKind::StrLit(s) if s == "é".as_bytes()));
    }

    #[test]
    fn lexes_longest_punct_first() {
        let ks = kinds("a <<= b >> c->d");
        assert!(ks.iter().any(|k| matches!(k, TokenKind::Punct("<<="))));
        assert!(ks.iter().any(|k| matches!(k, TokenKind::Punct(">>"))));
        assert!(ks.iter().any(|k| matches!(k, TokenKind::Punct("->"))));
    }

    #[test]
    fn skips_comments_and_preprocessor_lines() {
        let ks = kinds("#include <stdio.h>\n// line\n/* block\n*/ x");
        assert_eq!(ks.len(), 2);
        assert!(matches!(&ks[0], TokenKind::Ident(s) if s == "x"));
    }

    #[test]
    fn reports_unterminated_string() {
        let err = Lexer::new("\"abc").tokenize().unwrap_err();
        assert_eq!(err.kind(), crate::ErrorKind::Lex);
    }

    #[test]
    fn tracks_line_numbers() {
        let toks = Lexer::new("a\nb\n\nc").tokenize().unwrap();
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[2].line, 4);
    }

    #[test]
    fn replace_ident_replaces_whole_words_in_any_text() {
        let cases = [
            ("val valid _val val_ val2 (val)", "val", "x", "x valid _val val_ val2 (x)"),
            ("valval val", "val", "x", "valval x"),
            // Non-ASCII characters are not identifier bytes, and survive.
            ("\"é\" val éval valé 日val", "val", "ü", "\"é\" ü éü üé 日ü"),
            ("é", "val", "x", "é"),
            ("éa é", "é", "e", "éa e"),
            ("a a", "a", "aa", "aa aa"),
            ("a b", "", "x", "a b"),
        ];
        for (text, from, to, want) in cases {
            assert_eq!(replace_ident(text, from, to), want, "{text:?}: {from:?} -> {to:?}");
        }
    }
}
