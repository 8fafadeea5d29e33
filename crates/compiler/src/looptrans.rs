//! Source-level `-O3` loop transforms: unrolling and x86 auto-vectorization.
//!
//! GCC performs these on GIMPLE/RTL; we perform them on the MiniC AST. The
//! new nodes carry no ids, so the lowerer pretty-prints, re-parses and
//! re-checks a program whose loops were rewritten; a function with no
//! rewritten loop is lowered as it came. The observable effect is the
//! same as the paper's Figure 1: a simple array loop at `-O3` becomes a
//! vectorized main loop plus a scalar remainder, and counted loops without
//! vectorizable bodies are unrolled 4×.
//!
//! Vectorized bodies are expressed with the internal intrinsic
//! `__vec_op_i32(ptr, scalar, opcode)` which the lowerer expands into the
//! IR's `VecLoad`/`VecSplat`/`VecBin`/`VecStore` (x86 `movdqu`/`pshufd`/
//! `paddd`/`movups` — the very instructions that defeat literal lifters).

use crate::Isa;
use slade_minic::ast::*;
use slade_minic::types::{IntKind, Type};
use slade_minic::{Program, TypeMap};

/// Applies `-O3` loop transforms to function `name` of `program`, typed by
/// `tm`, its [`slade_minic::Sema::check`] result.
///
/// Returns the rewritten program, or `None` when no loop of `name` was
/// vectorized or unrolled. Functions other than `name` are left untouched.
pub fn transform_program(
    program: &Program,
    tm: &TypeMap,
    name: &str,
    isa: Isa,
) -> Option<Program> {
    let mut out: Option<Program> = None;
    for (i, item) in program.items.iter().enumerate() {
        let Item::Function(Function { name: fname, body: Some(body), .. }) = item else {
            continue;
        };
        if fname != name {
            continue;
        }
        let mut body = body.clone();
        let mut ctx = Transform { tm, isa, rewrote: false };
        ctx.stmt(&mut body);
        if ctx.rewrote {
            let out = out.get_or_insert_with(|| program.clone());
            if let Item::Function(f) = &mut out.items[i] {
                f.body = Some(body);
            }
        }
    }
    out
}

struct Transform<'a> {
    tm: &'a TypeMap,
    isa: Isa,
    /// Set once `try_vectorize` or `try_unroll` rewrites a loop.
    rewrote: bool,
}

impl Transform<'_> {
    fn stmt(&mut self, s: &mut Stmt) {
        // Recurse first so inner loops transform before outer ones.
        match &mut s.kind {
            StmtKind::Block(stmts) => {
                for st in stmts.iter_mut() {
                    self.stmt(st);
                }
            }
            StmtKind::If { then_branch, else_branch, .. } => {
                self.stmt(then_branch);
                if let Some(e) = else_branch {
                    self.stmt(e);
                }
            }
            StmtKind::While { body, .. }
            | StmtKind::DoWhile { body, .. }
            | StmtKind::For { body, .. } => self.stmt(body),
            StmtKind::Labeled { stmt, .. } => self.stmt(stmt),
            _ => {}
        }
        if let StmtKind::For { .. } = &s.kind {
            let vectorized = if self.isa == Isa::X86_64 { self.try_vectorize(s) } else { None };
            if let Some(replacement) = vectorized.or_else(|| self.try_unroll(s)) {
                *s = replacement;
                self.rewrote = true;
            }
        }
    }

    /// Recognizes `for (i = 0; i < bound; i++) arr[i] op= inv;` over 4-byte
    /// integer elements and rewrites it into a vector loop + remainder.
    fn try_vectorize(&self, s: &Stmt) -> Option<Stmt> {
        let StmtKind::For { init, cond, step, body } = &s.kind else { return None };
        let (ivar, init_stmt) = induction_init(init.as_deref())?;
        let bound = simple_upper_bound(cond.as_ref()?, &ivar)?;
        if !is_unit_step(step.as_ref()?, &ivar) {
            return None;
        }
        let (arr, op_code, inv) = vectorizable_body(body, &ivar)?;
        // Element type must be a 4-byte integer.
        let arr_ty = self.tm.value_type(arr.id);
        match arr_ty.pointee() {
            Some(Type::Int(k)) if k.size() == 4 => {}
            _ => return None,
        }
        // The invariant expression must not mention the induction variable
        // or contain calls.
        if mentions(&inv, &ivar)
            || has_call(&inv)
            || mentions(&bound, &ivar)
            || has_call(&bound)
        {
            return None;
        }
        // i must not be modified inside the body beyond the step.
        if modifies(body, &ivar) {
            return None;
        }
        let iv = || ident(&ivar);
        // Vector main loop: for (; i + 3 < bound; i += 4) __vec_op_i32(arr + i, inv, code);
        let vec_cond = binary(BinOp::Lt, binary(BinOp::Add, iv(), int_lit(3)), bound.clone());
        let vec_step = assign_op(BinOp::Add, iv(), int_lit(4));
        let vec_body = expr_stmt(call(
            "__vec_op_i32",
            vec![binary(BinOp::Add, arr.clone(), iv()), inv.clone(), int_lit(op_code)],
        ));
        let vec_loop = Stmt {
            kind: StmtKind::For {
                init: None,
                cond: Some(vec_cond),
                step: Some(vec_step),
                body: Box::new(vec_body),
            },
            line: s.line,
        };
        // Remainder: for (; i < bound; i++) body
        let rem_cond = binary(BinOp::Lt, iv(), bound);
        let rem_step = postfix_inc(&ivar);
        let rem_loop = Stmt {
            kind: StmtKind::For {
                init: None,
                cond: Some(rem_cond),
                step: Some(rem_step),
                body: body.clone(),
            },
            line: s.line,
        };
        let stmts = vec![init_stmt, vec_loop, rem_loop];
        Some(Stmt { kind: StmtKind::Block(stmts), line: s.line })
    }

    /// Unrolls `for (init; i < bound; i++) body` by 4 when the body is
    /// straight-line enough.
    fn try_unroll(&self, s: &Stmt) -> Option<Stmt> {
        let StmtKind::For { init, cond, step, body } = &s.kind else { return None };
        let (ivar, init_stmt) = induction_init(init.as_deref())?;
        let bound = simple_upper_bound(cond.as_ref()?, &ivar)?;
        if !is_unit_step(step.as_ref()?, &ivar) {
            return None;
        }
        if has_control_escape(body) || modifies(body, &ivar) {
            return None;
        }
        if mentions(&bound, &ivar) || has_call(&bound) {
            return None;
        }
        // Bound must be loop-invariant: conservatively require that the body
        // does not write any identifier appearing in the bound.
        let mut bound_written = false;
        for_each_ident(&bound, &mut |name| {
            bound_written = bound_written || modifies(body, name)
        });
        if bound_written {
            return None;
        }
        let iv = || ident(&ivar);
        let mut unrolled = Vec::new();
        for k in 0..4i64 {
            let mut b = (**body).clone();
            if k > 0 {
                substitute(&mut b, &ivar, &binary(BinOp::Add, iv(), int_lit(k)));
            }
            unrolled.push(b);
        }
        let main_cond = binary(BinOp::Lt, binary(BinOp::Add, iv(), int_lit(3)), bound.clone());
        let main_step = assign_op(BinOp::Add, iv(), int_lit(4));
        let main_loop = Stmt {
            kind: StmtKind::For {
                init: None,
                cond: Some(main_cond),
                step: Some(main_step),
                body: Box::new(Stmt { kind: StmtKind::Block(unrolled), line: s.line }),
            },
            line: s.line,
        };
        let rem_cond = binary(BinOp::Lt, iv(), bound);
        let rem_loop = Stmt {
            kind: StmtKind::For {
                init: None,
                cond: Some(rem_cond),
                step: Some(postfix_inc(&ivar)),
                body: body.clone(),
            },
            line: s.line,
        };
        Some(Stmt { kind: StmtKind::Block(vec![init_stmt, main_loop, rem_loop]), line: s.line })
    }
}

// ---- pattern helpers ----

/// Extracts the induction variable and a hoisted initializer statement from
/// a `for` init clause (`int i = e;` or `i = e;`).
fn induction_init(init: Option<&Stmt>) -> Option<(String, Stmt)> {
    let init = init?;
    match &init.kind {
        StmtKind::Decl { name, ty, init: Some(_) } => {
            if !matches!(ty, Type::Int(k) if k.size() == 4) {
                return None;
            }
            Some((name.clone(), init.clone()))
        }
        StmtKind::Expr(e) => {
            if let ExprKind::Assign { op: None, target, .. } = &e.kind {
                if let ExprKind::Ident(name) = &target.kind {
                    return Some((name.clone(), init.clone()));
                }
            }
            None
        }
        _ => None,
    }
}

/// `i < bound` → `bound`.
fn simple_upper_bound(cond: &Expr, ivar: &str) -> Option<Expr> {
    if let ExprKind::Binary(BinOp::Lt, l, r) = &cond.kind {
        if matches!(&l.kind, ExprKind::Ident(n) if n == ivar) {
            return Some((**r).clone());
        }
    }
    None
}

/// `i++`, `++i`, `i += 1` or `i = i + 1`.
fn is_unit_step(step: &Expr, ivar: &str) -> bool {
    match &step.kind {
        ExprKind::Postfix(IncDec::Inc, e) | ExprKind::Unary(UnOp::PreInc, e) => {
            matches!(&e.kind, ExprKind::Ident(n) if n == ivar)
        }
        ExprKind::Assign { op: Some(BinOp::Add), target, value } => {
            matches!(&target.kind, ExprKind::Ident(n) if n == ivar)
                && matches!(&value.kind, ExprKind::IntLit(1, _))
        }
        ExprKind::Assign { op: None, target, value } => {
            if !matches!(&target.kind, ExprKind::Ident(n) if n == ivar) {
                return false;
            }
            if let ExprKind::Binary(BinOp::Add, l, r) = &value.kind {
                return matches!(&l.kind, ExprKind::Ident(n) if n == ivar)
                    && matches!(&r.kind, ExprKind::IntLit(1, _));
            }
            false
        }
        _ => false,
    }
}

/// Matches `arr[i] (+=|-=|*=) inv` or `arr[i] = arr[i] op inv`, returning
/// the array expression, the vector opcode (0=add 1=sub 2=mul) and `inv`.
fn vectorizable_body(body: &Stmt, ivar: &str) -> Option<(Expr, i64, Expr)> {
    let stmt = single_stmt(body)?;
    let StmtKind::Expr(e) = &stmt.kind else { return None };
    let ExprKind::Assign { op, target, value } = &e.kind else { return None };
    let ExprKind::Index { base, index } = &target.kind else { return None };
    if !matches!(&index.kind, ExprKind::Ident(n) if n == ivar) {
        return None;
    }
    if !matches!(&base.kind, ExprKind::Ident(_)) {
        return None;
    }
    match op {
        Some(BinOp::Add) => Some(((**base).clone(), 0, (**value).clone())),
        Some(BinOp::Sub) => Some(((**base).clone(), 1, (**value).clone())),
        Some(BinOp::Mul) => Some(((**base).clone(), 2, (**value).clone())),
        None => {
            // arr[i] = arr[i] op inv
            let ExprKind::Binary(bop, l, r) = &value.kind else { return None };
            let code = match bop {
                BinOp::Add => 0,
                BinOp::Sub => 1,
                BinOp::Mul => 2,
                _ => return None,
            };
            let ExprKind::Index { base: lb, index: li } = &l.kind else { return None };
            if !same_ident(lb, base) || !matches!(&li.kind, ExprKind::Ident(n) if n == ivar) {
                return None;
            }
            Some(((**base).clone(), code, (**r).clone()))
        }
        _ => None,
    }
}

fn same_ident(a: &Expr, b: &Expr) -> bool {
    matches!(
        (&a.kind, &b.kind),
        (ExprKind::Ident(x), ExprKind::Ident(y)) if x == y
    )
}

fn single_stmt(body: &Stmt) -> Option<&Stmt> {
    match &body.kind {
        StmtKind::Block(stmts) if stmts.len() == 1 => single_stmt(&stmts[0]),
        StmtKind::Expr(_) => Some(body),
        _ => None,
    }
}

/// True when the statement tree contains flow that escapes the loop.
fn has_control_escape(s: &Stmt) -> bool {
    match &s.kind {
        StmtKind::Break
        | StmtKind::Continue
        | StmtKind::Return(_)
        | StmtKind::Goto(_)
        | StmtKind::Labeled { .. } => true,
        StmtKind::Block(stmts) => stmts.iter().any(has_control_escape),
        StmtKind::If { then_branch, else_branch, .. } => {
            has_control_escape(then_branch)
                || else_branch.as_deref().is_some_and(has_control_escape)
        }
        // Nested loops contain their own break/continue; treat as opaque but
        // safe only if they have no return/goto. Conservatively escape.
        StmtKind::While { .. } | StmtKind::DoWhile { .. } | StmtKind::For { .. } => true,
        // Switch bodies may return/goto; stay conservative.
        StmtKind::Switch { .. } => true,
        _ => false,
    }
}

/// True when the tree assigns to / increments `name`.
fn modifies(s: &Stmt, name: &str) -> bool {
    fn expr_modifies(e: &Expr, name: &str) -> bool {
        // Written directly, or address-taken (could be written through the
        // pointer).
        let mut found = match &e.kind {
            ExprKind::Assign { target: inner, .. }
            | ExprKind::Postfix(_, inner)
            | ExprKind::Unary(UnOp::PreInc | UnOp::PreDec | UnOp::Addr, inner) => {
                matches!(&inner.kind, ExprKind::Ident(n) if n == name)
            }
            _ => false,
        };
        e.for_each_child(|c| found = found || expr_modifies(c, name));
        found
    }
    let mut found = false;
    s.for_each_child(|c| {
        found = found
            || match c {
                Child::Stmt(s) => modifies(s, name),
                Child::Expr(e) => expr_modifies(e, name),
            }
    });
    found
}

fn mentions(e: &Expr, name: &str) -> bool {
    let mut found = false;
    for_each_ident(e, &mut |n| found = found || n == name);
    found
}

/// Calls `f` on every identifier in `e`, left to right.
fn for_each_ident(e: &Expr, f: &mut impl FnMut(&str)) {
    if let ExprKind::Ident(n) = &e.kind {
        f(n);
    }
    e.for_each_child(|c| for_each_ident(c, f));
}

fn has_call(e: &Expr) -> bool {
    let mut found = matches!(e.kind, ExprKind::Call { .. });
    e.for_each_child(|c| found = found || has_call(c));
    found
}

/// Replaces every read of `Ident(name)` in the tree with `replacement`.
fn substitute(s: &mut Stmt, name: &str, replacement: &Expr) {
    fn in_expr(e: &mut Expr, name: &str, rep: &Expr) {
        if matches!(&e.kind, ExprKind::Ident(n) if n == name) {
            *e = rep.clone();
        } else {
            e.for_each_child_mut(|c| in_expr(c, name, rep));
        }
    }
    s.for_each_child_mut(|c| match c {
        Child::Stmt(s) => substitute(s, name, replacement),
        Child::Expr(e) => in_expr(e, name, replacement),
    });
}

// ---- tiny AST constructors (ids are re-assigned by the reparse) ----

fn ident(name: &str) -> Expr {
    Expr { kind: ExprKind::Ident(name.to_string()), id: 0, line: 0 }
}

fn int_lit(v: i64) -> Expr {
    Expr { kind: ExprKind::IntLit(v, IntKind::Int), id: 0, line: 0 }
}

fn binary(op: BinOp, l: Expr, r: Expr) -> Expr {
    Expr { kind: ExprKind::Binary(op, Box::new(l), Box::new(r)), id: 0, line: 0 }
}

fn assign_op(op: BinOp, target: Expr, value: Expr) -> Expr {
    Expr {
        kind: ExprKind::Assign {
            op: Some(op),
            target: Box::new(target),
            value: Box::new(value),
        },
        id: 0,
        line: 0,
    }
}

fn call(name: &str, args: Vec<Expr>) -> Expr {
    Expr { kind: ExprKind::Call { callee: name.to_string(), args }, id: 0, line: 0 }
}

fn postfix_inc(name: &str) -> Expr {
    Expr { kind: ExprKind::Postfix(IncDec::Inc, Box::new(ident(name))), id: 0, line: 0 }
}

fn expr_stmt(e: Expr) -> Stmt {
    Stmt { kind: StmtKind::Expr(e), line: 0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slade_minic::{parse_program, pretty_program, Sema};

    fn transformed(src: &str, name: &str, isa: Isa) -> String {
        let p = parse_program(src).unwrap();
        let tm = Sema::check(&p).unwrap();
        match transform_program(&p, &tm, name, isa) {
            Some(t) => pretty_program(&t),
            None => pretty_program(&p),
        }
    }

    #[test]
    fn vectorizes_the_papers_motivating_example() {
        let src = r#"
            void add(int *list, int val, int n) {
                int i;
                for (i = 0; i < n; ++i) { list[i] += val; }
            }
        "#;
        let out = transformed(src, "add", Isa::X86_64);
        assert!(out.contains("__vec_op_i32"), "vector loop missing:\n{out}");
        assert!(out.contains("i < n"), "remainder loop missing:\n{out}");
    }

    #[test]
    fn arm_does_not_vectorize_but_unrolls() {
        let src = r#"
            void add(int *list, int val, int n) {
                for (int i = 0; i < n; i++) { list[i] += val; }
            }
        "#;
        let out = transformed(src, "add", Isa::Arm64);
        assert!(!out.contains("__vec_op_i32"), "{out}");
        assert!(out.contains("i + 3 < n"), "unroll missing:\n{out}");
    }

    #[test]
    fn unrolls_reduction_loops() {
        let src = "int sum(int *a, int n) { int s = 0; for (int i = 0; i < n; i++) s += a[i]; return s; }";
        let out = transformed(src, "sum", Isa::X86_64);
        assert!(out.contains("i + 3 < n"), "{out}");
        assert!(out.contains("a[i + 1]") || out.contains("a[i + 1 ]"), "{out}");
    }

    #[test]
    fn leaves_loops_with_breaks_alone() {
        let src = "int find(int *a, int n, int x) { for (int i = 0; i < n; i++) { if (a[i] == x) break; } return 0; }";
        let out = transformed(src, "find", Isa::X86_64);
        assert!(!out.contains("i + 3"), "must not unroll: {out}");
    }

    #[test]
    fn reports_whether_a_loop_was_rewritten() {
        let src = "int find(int *a, int n, int x) { for (int i = 0; i < n; i++) { if (a[i] == x) break; } return 0; } \
                   int sum(int *a, int n) { int s = 0; for (int i = 0; i < n; i++) s += a[i]; return s; }";
        let p = parse_program(src).unwrap();
        let tm = Sema::check(&p).unwrap();
        assert!(transform_program(&p, &tm, "find", Isa::X86_64).is_none());
        let t = transform_program(&p, &tm, "sum", Isa::X86_64).expect("sum unrolls");
        let find = |p: &Program| format!("{:?}", p.function("find"));
        assert_eq!(find(&t), find(&p), "only the named function is rewritten");
    }

    #[test]
    fn leaves_float_arrays_unvectorized() {
        let src = "void f(double *a, int n) { for (int i = 0; i < n; i++) a[i] += 1.5; }";
        let out = transformed(src, "f", Isa::X86_64);
        assert!(!out.contains("__vec_op_i32"), "{out}");
    }

    #[test]
    fn transformed_program_still_parses_and_behaves() {
        use slade_minic::{Interpreter, Value};
        let src = r#"
            void add(int *list, int val, int n) {
                int i;
                for (i = 0; i < n; ++i) list[i] += val;
            }
            int driver(int n) {
                int a[10];
                for (int i = 0; i < 10; i++) a[i] = i;
                add(a, 5, n);
                int s = 0;
                for (int i = 0; i < 10; i++) s = s * 10 + a[i];
                return s;
            }
        "#;
        // The *unrolled* (non-vector) transform must be behavior-preserving;
        // driver is transformed too when named.
        let p = parse_program(src).unwrap();
        let tm = Sema::check(&p).unwrap();
        let t = transform_program(&p, &tm, "driver", Isa::Arm64).expect("driver unrolls");
        let printed = pretty_program(&t);
        let p2 = parse_program(&printed).unwrap();
        let mut i1 = Interpreter::new(&p).unwrap();
        let mut i2 = Interpreter::new(&p2).unwrap();
        for n in [0i64, 3, 7, 10] {
            let a = i1.call("driver", &[Value::int(n)]).unwrap().ret;
            let b = i2.call("driver", &[Value::int(n)]).unwrap().ret;
            assert_eq!(a, b, "mismatch at n={n}");
        }
    }
}
