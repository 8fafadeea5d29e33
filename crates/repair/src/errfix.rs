//! Error-driven repairs: each fix is keyed off the compiler's diagnostic
//! for the current hypothesis and produces one modified candidate.
//!
//! The repertoire mirrors what a programmer does with a decompiler's
//! almost-right output: declare the identifier the model forgot, give an
//! out-of-context type a plausible definition, or delete the one garbled
//! line that breaks the parse.

use crate::RepairStep;
use slade_minic::token::is_keyword;
use slade_minic::{
    parse_program_lenient, Child, Diag, ErrorKind, Expr, ExprKind, MiniCError, Stmt, TokenKind,
    UnOp,
};

/// True when `hypothesis` indexes or dereferences `name` (`name[i]`,
/// `*name`), which needs storage rather than a scalar. A hypothesis that
/// does not even parse leniently reads as a scalar use.
fn indexed_or_dereferenced(hypothesis: &str, name: &str) -> bool {
    fn in_expr(e: &Expr, name: &str) -> bool {
        let mut found = matches!(
            &e.kind,
            ExprKind::Index { base: a, .. } | ExprKind::Unary(UnOp::Deref, a)
                if matches!(&a.kind, ExprKind::Ident(n) if n == name)
        );
        e.for_each_child(|c| found = found || in_expr(c, name));
        found
    }
    fn in_stmt(s: &Stmt, name: &str) -> bool {
        let mut found = false;
        s.for_each_child(|c| {
            found = found
                || match c {
                    Child::Stmt(s) => in_stmt(s, name),
                    Child::Expr(e) => in_expr(e, name),
                }
        });
        found
    }
    parse_program_lenient(hypothesis)
        .is_ok_and(|p| p.functions().filter_map(|f| f.body.as_ref()).any(|b| in_stmt(b, name)))
}

/// Proposes one repaired hypothesis for `err`, or `None` when the
/// diagnostic matches no known fix. `hyp_first_line` is the 1-based line
/// of the full program where the hypothesis starts (diagnostics point into
/// the concatenated context + hypothesis source).
pub fn fix_for_error(
    hypothesis: &str,
    err: &MiniCError,
    hyp_first_line: u32,
) -> Option<(String, RepairStep)> {
    match err.diag() {
        Diag::UnknownIdentifier(name) => {
            let dims = if indexed_or_dereferenced(hypothesis, name) { "[64]" } else { "" };
            Some((
                format!("long {name}{dims};\n{hypothesis}"),
                RepairStep::DeclaredIdentifier { name: name.clone() },
            ))
        }
        Diag::UnknownTypeName(name) if is_keyword(name) => None,
        // An identifier where a declaration was expected is how the parser
        // reports an unknown *return* type at file scope — the exact
        // out-of-context-typedef shape type inference targets; repair keeps
        // a backstop for when that stage is disabled.
        Diag::UnknownTypeName(name) | Diag::ExpectedDeclaration(TokenKind::Ident(name))
            if !is_keyword(name) =>
        {
            Some((
                format!("typedef long {name};\n{hypothesis}"),
                RepairStep::InjectedTypedef { name: name.clone() },
            ))
        }
        _ if matches!(err.kind(), ErrorKind::Parse | ErrorKind::Lex)
            && err.line() >= hyp_first_line =>
        {
            // Last resort: delete the offending line inside the hypothesis,
            // but never the signature line — that guarantees failure.
            let hyp_line = (err.line() - hyp_first_line) as usize;
            let mut lines: Vec<&str> = hypothesis.lines().collect();
            if hyp_line == 0 || lines.get(hyp_line).is_none_or(|l| l.trim().is_empty()) {
                return None;
            }
            lines.remove(hyp_line);
            Some((lines.join("\n"), RepairStep::DeletedLine { line: err.line() }))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn err(kind: ErrorKind, diag: impl Into<Diag>, line: u32) -> MiniCError {
        MiniCError::new(kind, diag, line)
    }

    fn unknown(name: &str) -> MiniCError {
        err(ErrorKind::Type, Diag::UnknownIdentifier(name.into()), 2)
    }

    #[test]
    fn unknown_identifier_gets_declared() {
        let hyp = "int f(int a) { return a + counter; }";
        let e = unknown("counter");
        let (fixed, step) = fix_for_error(hyp, &e, 2).unwrap();
        assert!(fixed.starts_with("long counter;\n"));
        assert_eq!(step, RepairStep::DeclaredIdentifier { name: "counter".into() });
    }

    #[test]
    fn subscripted_identifier_gets_array_storage() {
        let hyp = "int f(int i) { return table[i]; }";
        let e = unknown("table");
        let (fixed, _) = fix_for_error(hyp, &e, 2).unwrap();
        assert!(fixed.starts_with("long table[64];\n"), "{fixed}");
    }

    #[test]
    fn a_multiplied_identifier_gets_scalar_storage() {
        let hyp = "int f(int a) { return a *total; }";
        let e = unknown("total");
        let (fixed, _) = fix_for_error(hyp, &e, 2).unwrap();
        assert!(fixed.starts_with("long total;\n"), "{fixed}");
        assert!(crate::try_compile(&fixed, "").is_ok(), "{fixed}");
    }

    #[test]
    fn a_suffix_of_an_indexed_name_gets_scalar_storage() {
        let hyp = "int f(int *buf_n) { return buf_n[0] + n; }";
        let e = unknown("n");
        let (fixed, _) = fix_for_error(hyp, &e, 2).unwrap();
        assert!(fixed.starts_with("long n;\n"), "{fixed}");
    }

    #[test]
    fn dereferenced_identifier_gets_array_storage() {
        let hyp = "int f(void) { return *cursor + 1; }";
        let e = unknown("cursor");
        let (fixed, _) = fix_for_error(hyp, &e, 2).unwrap();
        assert!(fixed.starts_with("long cursor[64];\n"), "{fixed}");
        assert!(crate::try_compile(&fixed, "").is_ok(), "{fixed}");
    }

    #[test]
    fn unknown_type_gets_typedef() {
        let hyp = "my_int f(my_int a) { return a; }";
        let e = err(ErrorKind::Parse, Diag::UnknownTypeName("my_int".into()), 2);
        let (fixed, step) = fix_for_error(hyp, &e, 2).unwrap();
        assert!(fixed.starts_with("typedef long my_int;\n"));
        assert_eq!(step, RepairStep::InjectedTypedef { name: "my_int".into() });
    }

    #[test]
    fn garbled_line_is_deleted() {
        let hyp = "int f(int a) {\n%%%garbage%%%\nreturn a;\n}";
        let e = err(ErrorKind::Parse, "expected `;`, found `%`", 3);
        // Hypothesis starts at full-program line 2: error line 3 = hyp line 1.
        let (fixed, step) = fix_for_error(hyp, &e, 2).unwrap();
        assert!(!fixed.contains("garbage"));
        assert_eq!(step, RepairStep::DeletedLine { line: 3 });
    }

    #[test]
    fn signature_line_is_never_deleted() {
        let hyp = "int f(int a( {\nreturn a;\n}";
        let e = err(ErrorKind::Parse, "expected `)`, found `(`", 5);
        assert!(fix_for_error(hyp, &e, 5).is_none());
    }

    #[test]
    fn context_errors_are_not_ours_to_fix() {
        let hyp = "int f(void) { return 1; }";
        let e = err(ErrorKind::Parse, Diag::ExpectedDeclaration(TokenKind::Punct("{")), 1);
        // Error at line 1, hypothesis starts at line 4: context problem.
        assert!(fix_for_error(hyp, &e, 4).is_none());
    }

    #[test]
    fn non_identifier_names_are_rejected() {
        let hyp = "int f(void) { return 1; }";
        // A keyword is never typedef'd, and a declaration that starts with
        // a literal is left to line deletion (which spares the signature).
        let e = err(ErrorKind::Parse, Diag::UnknownTypeName("while".into()), 2);
        assert!(fix_for_error(hyp, &e, 2).is_none());
        let e = err(ErrorKind::Parse, Diag::ExpectedDeclaration(TokenKind::CharLit(b'x')), 2);
        assert!(fix_for_error(hyp, &e, 2).is_none());
    }
}
