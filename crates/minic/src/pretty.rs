//! Pretty-printer: turns MiniC ASTs back into canonical C source.
//!
//! Used everywhere a tool must *emit* C: the dataset generator (ground-truth
//! source), the Ghidra-like lifter, the type-inference engine (injected
//! headers), and for normalizing code before edit-distance comparison.

use crate::ast::*;
use crate::types::Type;
use std::fmt::Write;

/// Renders a whole program as C source.
///
/// Builtin typedefs injected by the parser are skipped so round-tripping
/// `parse → print` is stable.
///
/// # Example
///
/// ```
/// let p = slade_minic::parse_program("int f(int x){return x+1;}").unwrap();
/// let printed = slade_minic::pretty_program(&p);
/// assert!(printed.contains("return x + 1;"));
/// ```
pub fn pretty_program(program: &Program) -> String {
    let mut out = String::new();
    for item in &program.items {
        match item {
            Item::Typedef { name, ty } => {
                if crate::parser::BUILTIN_TYPEDEFS_NAMES.contains(&name.as_str()) {
                    continue;
                }
                let _ = writeln!(out, "typedef {};", declare(ty, name));
            }
            Item::Struct(def) => {
                let _ = writeln!(out, "struct {} {{", def.name);
                for (fname, fty) in &def.fields {
                    let _ = writeln!(out, "  {};", declare(fty, fname));
                }
                let _ = writeln!(out, "}};");
            }
            Item::Global { name, ty, init, is_extern } => {
                let prefix = if *is_extern { "extern " } else { "" };
                match init {
                    Some(e) => {
                        let _ = writeln!(
                            out,
                            "{prefix}{} = {};",
                            declare(ty, name),
                            pretty_expr(e)
                        );
                    }
                    None => {
                        let _ = writeln!(out, "{prefix}{};", declare(ty, name));
                    }
                }
            }
            Item::Function(f) => {
                out.push_str(&pretty_function(f));
            }
        }
    }
    out
}

/// Renders one function (definition or prototype).
pub fn pretty_function(f: &Function) -> String {
    let mut out = String::new();
    let params = if f.params.is_empty() {
        "void".to_string()
    } else {
        f.params.iter().map(|(n, t)| declare(t, n)).collect::<Vec<_>>().join(", ")
    };
    let staticity = if f.is_static { "static " } else { "" };
    let _ = write!(out, "{staticity}{} {}({})", pretty_type(&f.ret), f.name, params);
    match &f.body {
        Some(body) => {
            out.push(' ');
            print_stmt(&mut out, body, 0);
        }
        None => out.push_str(";\n"),
    }
    out
}

/// Renders a type in prefix form (suitable before an identifier).
pub fn pretty_type(ty: &Type) -> String {
    match ty {
        Type::Ptr(inner) => format!("{}*", pretty_type(inner)),
        Type::Array(inner, n) => format!("{}[{n}]", pretty_type(inner)),
        Type::Struct(name) => format!("struct {name}"),
        other => other.to_string(),
    }
}

/// Renders `ty name` as a C declarator (handles array suffixes).
pub fn declare(ty: &Type, name: &str) -> String {
    match ty {
        Type::Array(inner, n) => format!("{}[{n}]", declare(inner, name)),
        Type::Ptr(inner) if matches!(**inner, Type::Array(..)) => {
            // Pointer-to-array is rare; fall back to a cast-style spelling.
            format!("{} {name}", pretty_type(ty))
        }
        Type::Ptr(inner) => format!("{} *{}", pretty_type(inner), strip_ptr(name)),
        other => format!("{} {name}", pretty_type(other)),
    }
}

fn strip_ptr(name: &str) -> String {
    name.to_string()
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn print_stmt(out: &mut String, stmt: &Stmt, level: usize) {
    match &stmt.kind {
        StmtKind::Block(stmts) => {
            out.push_str("{\n");
            for s in stmts {
                indent(out, level + 1);
                print_stmt(out, s, level + 1);
            }
            indent(out, level);
            out.push_str("}\n");
        }
        StmtKind::Decl { name, ty, init } => {
            out.push_str(&declare(ty, name));
            if let Some(e) = init {
                out.push_str(" = ");
                out.push_str(&pretty_init(e));
            }
            out.push_str(";\n");
        }
        StmtKind::Expr(e) => {
            out.push_str(&pretty_expr(e));
            out.push_str(";\n");
        }
        StmtKind::If { cond, then_branch, else_branch } => {
            out.push_str("if (");
            out.push_str(&pretty_expr(cond));
            out.push_str(") ");
            print_stmt_inline(out, then_branch, level);
            if let Some(e) = else_branch {
                indent(out, level);
                out.push_str("else ");
                print_stmt_inline(out, e, level);
            }
        }
        StmtKind::While { cond, body } => {
            out.push_str("while (");
            out.push_str(&pretty_expr(cond));
            out.push_str(") ");
            print_stmt_inline(out, body, level);
        }
        StmtKind::DoWhile { body, cond } => {
            out.push_str("do ");
            print_stmt_inline(out, body, level);
            indent(out, level);
            out.push_str("while (");
            out.push_str(&pretty_expr(cond));
            out.push_str(");\n");
        }
        StmtKind::For { init, cond, step, body } => {
            out.push_str("for (");
            match init {
                Some(s) => match &s.kind {
                    StmtKind::Decl { name, ty, init } => {
                        out.push_str(&declare(ty, name));
                        if let Some(e) = init {
                            out.push_str(" = ");
                            out.push_str(&pretty_expr(e));
                        }
                        out.push_str("; ");
                    }
                    StmtKind::Expr(e) => {
                        out.push_str(&pretty_expr(e));
                        out.push_str("; ");
                    }
                    _ => out.push_str("; "),
                },
                None => out.push_str("; "),
            }
            if let Some(c) = cond {
                out.push_str(&pretty_expr(c));
            }
            out.push_str("; ");
            if let Some(s) = step {
                out.push_str(&pretty_expr(s));
            }
            out.push_str(") ");
            print_stmt_inline(out, body, level);
        }
        StmtKind::Return(value) => {
            match value {
                Some(e) => {
                    out.push_str("return ");
                    out.push_str(&pretty_expr(e));
                    out.push_str(";\n");
                }
                None => out.push_str("return;\n"),
            };
        }
        StmtKind::Switch { scrutinee, arms } => {
            out.push_str("switch (");
            out.push_str(&pretty_expr(scrutinee));
            out.push_str(") {\n");
            for (label, body) in arms {
                indent(out, level);
                match label {
                    Some(v) => {
                        let _ = writeln!(out, "case {v}:");
                    }
                    None => out.push_str("default:\n"),
                }
                for s in body {
                    indent(out, level + 1);
                    print_stmt(out, s, level + 1);
                }
            }
            indent(out, level);
            out.push_str("}\n");
        }
        StmtKind::Break => out.push_str("break;\n"),
        StmtKind::Continue => out.push_str("continue;\n"),
        StmtKind::Goto(l) => {
            let _ = writeln!(out, "goto {l};");
        }
        StmtKind::Labeled { label, stmt } => {
            let _ = write!(out, "{label}: ");
            print_stmt_inline(out, stmt, level);
        }
        StmtKind::Empty => out.push_str(";\n"),
    }
}

fn print_stmt_inline(out: &mut String, stmt: &Stmt, level: usize) {
    if matches!(stmt.kind, StmtKind::Block(_)) {
        print_stmt(out, stmt, level);
    } else {
        out.push_str("{\n");
        indent(out, level + 1);
        print_stmt(out, stmt, level + 1);
        indent(out, level);
        out.push_str("}\n");
    }
}

fn pretty_init(e: &Expr) -> String {
    if let ExprKind::Call { callee, args } = &e.kind {
        if callee == "__init_list" {
            let inner: Vec<String> = args.iter().map(pretty_init).collect();
            return format!("{{{}}}", inner.join(", "));
        }
    }
    pretty_expr(e)
}

/// Renders one expression with minimal-but-safe parenthesization.
pub fn pretty_expr(e: &Expr) -> String {
    pretty_prec(e, 0)
}

fn prec_of(e: &Expr) -> u8 {
    match &e.kind {
        ExprKind::Comma(..) => 1,
        ExprKind::Assign { .. } => 2,
        ExprKind::Ternary { .. } => 3,
        ExprKind::Binary(op, ..) => match op {
            BinOp::LogOr => 4,
            BinOp::LogAnd => 5,
            BinOp::BitOr => 6,
            BinOp::BitXor => 7,
            BinOp::BitAnd => 8,
            BinOp::Eq | BinOp::Ne => 9,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 10,
            BinOp::Shl | BinOp::Shr => 11,
            BinOp::Add | BinOp::Sub => 12,
            BinOp::Mul | BinOp::Div | BinOp::Rem => 13,
        },
        ExprKind::Cast { .. }
        | ExprKind::Unary(..)
        | ExprKind::SizeofType(_)
        | ExprKind::SizeofExpr(_) => 14,
        _ => 15,
    }
}

fn pretty_prec(e: &Expr, min: u8) -> String {
    let p = prec_of(e);
    let body = match &e.kind {
        ExprKind::IntLit(v, k) => {
            if k.signed() {
                format!("{v}")
            } else if k.size() == 8 {
                format!("{}UL", *v as u64)
            } else {
                format!("{}U", (*v as u64) & 0xffff_ffff)
            }
        }
        ExprKind::FloatLit(v, single) => {
            let mut s = format!("{v}");
            if !s.contains('.') && !s.contains('e') && !s.contains("inf") && !s.contains("nan")
            {
                s.push_str(".0");
            }
            if *single {
                s.push('f');
            }
            s
        }
        ExprKind::StrLit(s) => format!("\"{}\"", escape_c(s)),
        ExprKind::Ident(name) => name.clone(),
        ExprKind::Unary(op, inner) => {
            let sym = match op {
                UnOp::Neg => "-",
                UnOp::Plus => "+",
                UnOp::Not => "!",
                UnOp::BitNot => "~",
                UnOp::Deref => "*",
                UnOp::Addr => "&",
                UnOp::PreInc => "++",
                UnOp::PreDec => "--",
            };
            format!("{sym}{}", pretty_prec(inner, 14))
        }
        ExprKind::Postfix(kind, inner) => {
            let sym = if matches!(kind, IncDec::Inc) { "++" } else { "--" };
            format!("{}{sym}", pretty_prec(inner, 15))
        }
        ExprKind::Binary(op, l, r) => {
            format!("{} {} {}", pretty_prec(l, p), op.symbol(), pretty_prec(r, p + 1))
        }
        ExprKind::Assign { op, target, value } => {
            let sym = match op {
                None => "=".to_string(),
                Some(o) => format!("{}=", o.symbol()),
            };
            format!("{} {sym} {}", pretty_prec(target, 3), pretty_prec(value, 2))
        }
        ExprKind::Call { callee, args } => {
            let inner: Vec<String> = args.iter().map(|a| pretty_prec(a, 2)).collect();
            format!("{callee}({})", inner.join(", "))
        }
        ExprKind::Index { base, index } => {
            format!("{}[{}]", pretty_prec(base, 15), pretty_expr(index))
        }
        ExprKind::Member { base, field, arrow } => {
            format!("{}{}{field}", pretty_prec(base, 15), if *arrow { "->" } else { "." })
        }
        ExprKind::Cast { ty, expr } => {
            format!("({}){}", pretty_type(ty), pretty_prec(expr, 14))
        }
        ExprKind::SizeofType(ty) => format!("sizeof({})", pretty_type(ty)),
        ExprKind::SizeofExpr(inner) => format!("sizeof({})", pretty_expr(inner)),
        ExprKind::Ternary { cond, then_expr, else_expr } => {
            format!(
                "{} ? {} : {}",
                pretty_prec(cond, 4),
                pretty_expr(then_expr),
                pretty_prec(else_expr, 3)
            )
        }
        ExprKind::Comma(a, b) => {
            format!("{}, {}", pretty_prec(a, 1), pretty_prec(b, 2))
        }
    };
    if p < min {
        format!("({body})")
    } else {
        body
    }
}

/// `bytes` as the inside of a C string literal: printable ASCII as is,
/// the usual escapes, anything else as `\x` escapes. A `\x` escape is
/// greedy (in C and in MiniC's lexer), so a hex digit right after one is
/// escaped too.
pub fn escape_c(bytes: &[u8]) -> String {
    let mut out = String::new();
    let mut after_hex = false;
    for &b in bytes {
        let digit_after_hex = after_hex && b.is_ascii_hexdigit();
        after_hex = false;
        match b {
            b'\n' => out.push_str("\\n"),
            b'\t' => out.push_str("\\t"),
            b'\r' => out.push_str("\\r"),
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            0x20..=0x7e if !digit_after_hex => out.push(b as char),
            _ => {
                out.push_str(&format!("\\x{b:02x}"));
                after_hex = true;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    /// Parse → print → parse must succeed and print identically (fixpoint).
    fn roundtrip(src: &str) {
        let p1 = parse_program(src).unwrap();
        let s1 = pretty_program(&p1);
        let p2 =
            parse_program(&s1).unwrap_or_else(|e| panic!("reparse failed: {e}\nsource:\n{s1}"));
        let s2 = pretty_program(&p2);
        assert_eq!(s1, s2, "printer not a fixpoint for:\n{src}");
    }

    #[test]
    fn string_literals_print_back_to_their_bytes() {
        // `\x01\x61` is the bytes 1 and `a`: printed `\x01a`, it would lex
        // as the one byte 0x1a.
        let src = "int f(void) { return strlen(\"\\x01\\x61\\xe9\\r\\\\q\\\"\"); }";
        roundtrip(src);
        let printed = pretty_program(&parse_program(src).unwrap());
        assert!(printed.contains(r#""\x01\x61\xe9\r\\q\"""#), "{printed}");
    }

    #[test]
    fn roundtrips_basic_function() {
        roundtrip("int add(int a, int b) { return a + b; }");
    }

    #[test]
    fn roundtrips_control_flow() {
        roundtrip(
            "int f(int n) { int s = 0; for (int i = 0; i < n; i++) { if (i % 2) s += i; else s--; } while (s > 9) s /= 2; do s++; while (s < 0); return s; }",
        );
    }

    #[test]
    fn roundtrips_pointers_structs_arrays() {
        roundtrip(
            "struct p { int x; double d; }; int g[4] = {1,2,3,4}; int f(struct p *q, int *a) { q->x = a[1]; return g[0] + q->x; }",
        );
    }

    #[test]
    fn roundtrips_precedence() {
        let src = "int f(int a, int b, int c) { return (a + b) * c - a / (b - c); }";
        let p = parse_program(src).unwrap();
        let printed = pretty_program(&p);
        assert!(printed.contains("(a + b) * c"), "got: {printed}");
        roundtrip(src);
    }

    #[test]
    fn roundtrips_unary_chains() {
        roundtrip("int f(int *p) { return -*p + ~p[0] + !p[1]; }");
    }

    #[test]
    fn roundtrips_casts_and_sizeof() {
        roundtrip("long f(int x) { return (long)x + sizeof(int) + sizeof(x); }");
    }

    #[test]
    fn roundtrips_strings() {
        roundtrip("int f(char *s) { return strcmp(s, \"a\\nb\\\"c\"); }");
    }

    #[test]
    fn roundtrips_switch() {
        roundtrip(
            "int f(int x) { switch (x) { case 1: return 10; case 2: x += 1; break; default: x = 0; } return x; }",
        );
    }

    #[test]
    fn roundtrips_goto() {
        roundtrip("int f(int x) { top: x--; if (x > 0) goto top; return x; }");
    }

    #[test]
    fn semantic_preservation_via_interpreter() {
        // The printed program must behave identically to the original.
        use crate::{Interpreter, Value};
        let src =
            "int f(int n) { int a[4] = {3,1,4,1}; int s = 0; for (int i = 0; i < 4; i++) { s = s * 10 + a[i] + n; } return s; }";
        let p1 = parse_program(src).unwrap();
        let printed = pretty_program(&p1);
        let p2 = parse_program(&printed).unwrap();
        let mut i1 = Interpreter::new(&p1).unwrap();
        let mut i2 = Interpreter::new(&p2).unwrap();
        for n in [-2i64, 0, 7] {
            let a = i1.call("f", &[Value::int(n)]).unwrap().ret;
            let b = i2.call("f", &[Value::int(n)]).unwrap().ret;
            assert_eq!(a, b);
        }
    }
}
