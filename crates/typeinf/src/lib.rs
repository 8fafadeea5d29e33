//! Type inference for partial C programs — the PsycheC stand-in (§VI-B).
//!
//! SLaDe's model may emit code referencing types it saw in training
//! (`my_int`, `SClock`, …) that the evaluation context does not define. Like
//! PsycheC, this crate (1) parses the partial program leniently, (2)
//! generates constraints from syntax-directed usage rules, (3) solves them
//! and synthesizes the missing `typedef`/`struct` declarations so the
//! program compiles.
//!
//! # Example
//!
//! ```
//! use slade_typeinf::infer_missing_types;
//!
//! let hypothesis = "my_int twice(my_int x) { return x + x; }";
//! let header = infer_missing_types(hypothesis, "").unwrap();
//! assert!(header.contains("typedef"));
//! let full = format!("{header}\n{hypothesis}");
//! assert!(slade_minic::parse_program(&full).is_ok());
//! ```

#![warn(missing_docs)]

use slade_minic::ast::{Child, Expr, ExprKind, Item, Program, Stmt, StmtKind};
use slade_minic::types::Type;
use slade_minic::{parse_program, parse_program_lenient, pretty_type, Sema};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

/// Inference failure: the program does not even parse leniently, or the
/// synthesized header still does not make it compile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InferError(pub String);

impl fmt::Display for InferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "type inference failed: {}", self.0)
    }
}

impl std::error::Error for InferError {}

/// What the solver concluded a type variable must be.
#[derive(Debug, Clone, PartialEq)]
enum Solved {
    /// Scalar typedef to this MiniC type.
    Scalar(Type),
    /// Struct with the given fields.
    Struct(BTreeMap<String, Type>),
}

/// Infers the missing type declarations of `hypothesis` given an evaluation
/// `context` (which may already define some names). Returns a header to
/// prepend; empty when nothing is missing.
///
/// # Errors
///
/// Fails if the hypothesis cannot be parsed leniently, or if the program
/// still does not type-check after injection.
pub fn infer_missing_types(hypothesis: &str, context: &str) -> Result<String, InferError> {
    // Fast path: already compiles in context.
    let combined = format!("{context}\n{hypothesis}");
    if parse_program(&combined).and_then(|p| Sema::check(&p).map(|_| ())).is_ok() {
        return Ok(String::new());
    }
    let program = parse_program_lenient(&combined)
        .map_err(|e| InferError(format!("lenient parse: {e}")))?;
    // Names already defined by the context or the hypothesis itself.
    let defined: BTreeSet<String> = program
        .items
        .iter()
        .filter_map(|i| match i {
            Item::Typedef { name, .. } => Some(name.clone()),
            Item::Struct(def) => Some(def.name.clone()),
            _ => None,
        })
        .collect();
    let mut vars: BTreeMap<String, Solved> = BTreeMap::new();
    for unknown in &program.unknown_types {
        if !defined.contains(unknown) {
            vars.insert(unknown.clone(), Solved::Scalar(Type::int()));
        }
    }
    // Undefined struct tags referenced as `struct S`.
    for tag in struct_tags(&program) {
        if !defined.contains(&tag) {
            vars.insert(format!("struct {tag}"), Solved::Struct(BTreeMap::new()));
        }
    }
    if vars.is_empty() {
        return Err(InferError("program is ill-typed but no unknown types found".into()));
    }
    // Constraint generation: walk every function, tracking variables whose
    // declared type mentions an unknown name, and observe their usage.
    let mut ctx = ConstraintCtx { vars: &mut vars, var_types: HashMap::new() };
    for f in program.functions() {
        ctx.var_types.clear();
        for item in &program.items {
            if let Item::Global { name, ty, .. } = item {
                ctx.bind(name, ty);
            }
        }
        for (name, ty) in &f.params {
            ctx.bind(name, ty);
        }
        if let Some(body) = &f.body {
            ctx.walk_stmt(body);
        }
    }
    // Synthesize the header.
    let mut header = String::new();
    for (name, solved) in &vars {
        match solved {
            Solved::Scalar(ty) => {
                header.push_str(&format!("typedef {} {name};\n", pretty_type(ty)))
            }
            Solved::Struct(fields) => {
                let tag = name.strip_prefix("struct ").unwrap_or(name);
                header.push_str(&format!("struct {tag} {{"));
                if fields.is_empty() {
                    header.push_str(" int __pad;");
                } else {
                    for (fname, fty) in fields {
                        header.push_str(&format!(" {} {fname};", pretty_type(fty)));
                    }
                }
                header.push_str(" };\n");
                if !name.starts_with("struct ") {
                    header.push_str(&format!("typedef struct {tag} {name};\n"));
                }
            }
        }
    }
    // Verify the injection works.
    let full = format!("{header}\n{combined}");
    let p = parse_program(&full).map_err(|e| InferError(format!("after injection: {e}")))?;
    Sema::check(&p).map_err(|e| InferError(format!("after injection: {e}")))?;
    Ok(header)
}

/// Every struct tag `program` names in a type: signatures, globals, local
/// declarations, casts and `sizeof`.
fn struct_tags(program: &Program) -> BTreeSet<String> {
    fn in_type(ty: &Type, out: &mut BTreeSet<String>) {
        match ty {
            Type::Struct(tag) => {
                out.insert(tag.clone());
            }
            Type::Ptr(inner) | Type::Array(inner, _) => in_type(inner, out),
            _ => {}
        }
    }
    fn in_expr(e: &Expr, out: &mut BTreeSet<String>) {
        if let ExprKind::Cast { ty, .. } | ExprKind::SizeofType(ty) = &e.kind {
            in_type(ty, out);
        }
        e.for_each_child(|c| in_expr(c, out));
    }
    fn in_stmt(s: &Stmt, out: &mut BTreeSet<String>) {
        if let StmtKind::Decl { ty, .. } = &s.kind {
            in_type(ty, out);
        }
        s.for_each_child(|c| match c {
            Child::Stmt(s) => in_stmt(s, out),
            Child::Expr(e) => in_expr(e, out),
        });
    }
    let mut out = BTreeSet::new();
    for item in &program.items {
        match item {
            Item::Function(f) => {
                f.params
                    .iter()
                    .map(|(_, t)| t)
                    .chain([&f.ret])
                    .for_each(|t| in_type(t, &mut out));
                f.body.iter().for_each(|body| in_stmt(body, &mut out));
            }
            Item::Global { ty, .. } => in_type(ty, &mut out),
            _ => {}
        }
    }
    out
}

/// Tracks which local variables have unknown-typed declarations and turns
/// their usages into constraints.
struct ConstraintCtx<'a> {
    vars: &'a mut BTreeMap<String, Solved>,
    /// variable name → (type-var name, pointer depth)
    var_types: HashMap<String, (String, usize)>,
}

impl ConstraintCtx<'_> {
    /// The type-var `ty` is built on, with its pointer depth.
    fn type_var(&self, ty: &Type) -> Option<(String, usize)> {
        let mut depth = 0usize;
        let mut t = ty;
        loop {
            match t {
                Type::Ptr(inner) | Type::Array(inner, _) => {
                    depth += 1;
                    t = inner;
                }
                Type::Named(name) if self.vars.contains_key(name) => {
                    return Some((name.clone(), depth));
                }
                Type::Struct(tag) => {
                    let key = format!("struct {tag}");
                    return self.vars.contains_key(&key).then_some((key, depth));
                }
                _ => return None,
            }
        }
    }

    fn bind(&mut self, var: &str, ty: &Type) {
        if let Some(tv) = self.type_var(ty) {
            self.var_types.insert(var.to_string(), tv);
        }
    }

    fn walk_stmt(&mut self, s: &Stmt) {
        if let StmtKind::Decl { name, ty, .. } = &s.kind {
            self.bind(name, ty);
        }
        s.for_each_child(|c| match c {
            Child::Stmt(s) => self.walk_stmt(s),
            Child::Expr(e) => self.walk_expr(e),
        });
    }

    /// The type-var behind an expression, if it traces back to an
    /// unknown-typed variable, with the residual pointer depth.
    fn trace(&self, e: &Expr) -> Option<(String, usize)> {
        match &e.kind {
            ExprKind::Ident(name) => self.var_types.get(name).cloned(),
            ExprKind::Unary(slade_minic::ast::UnOp::Deref, inner) => {
                let (v, d) = self.trace(inner)?;
                (d > 0).then(|| (v, d - 1))
            }
            ExprKind::Index { base, .. } => {
                let (v, d) = self.trace(base)?;
                (d > 0).then(|| (v, d - 1))
            }
            ExprKind::Cast { ty, expr } => self.type_var(ty).or_else(|| self.trace(expr)),
            _ => None,
        }
    }

    fn observe_field(&mut self, tv: &str, field: &str, ty: Type) {
        let entry = self.vars.get_mut(tv);
        if let Some(solved) = entry {
            match solved {
                Solved::Struct(fields) => {
                    fields.entry(field.to_string()).or_insert(ty);
                }
                Solved::Scalar(_) => {
                    let mut fields = BTreeMap::new();
                    fields.insert(field.to_string(), ty);
                    *solved = Solved::Struct(fields);
                }
            }
        }
    }

    /// The type-var of the struct `base.field` (`base->field` when
    /// `arrow`) reads a field of.
    fn member_var(&self, base: &Expr, arrow: bool) -> Option<String> {
        let (v, d) = self.trace(base)?;
        (if arrow { d >= 1 } else { d == 0 }).then_some(v)
    }

    /// Observes `e`'s subexpressions, then `e` itself.
    fn walk_expr(&mut self, e: &Expr) {
        e.for_each_child(|c| self.walk_expr(c));
        match &e.kind {
            ExprKind::Member { base, field, arrow } => {
                if let Some(tv) = self.member_var(base, *arrow) {
                    // Field type guess: int unless used with float literals —
                    // refined by the enclosing assignment below.
                    self.observe_field(&tv, field, Type::int());
                }
            }
            // `x->f += 1.5` → field f is double.
            ExprKind::Assign { target, value, .. } if expr_is_floatish(value) => {
                if let ExprKind::Member { base, field, arrow } = &target.kind {
                    if let Some(tv) = self.member_var(base, *arrow) {
                        if let Some(Solved::Struct(fields)) = self.vars.get_mut(&tv) {
                            fields.insert(field.clone(), Type::Double);
                        }
                    }
                }
            }
            ExprKind::Binary(_, l, r) => {
                // Scalar unknowns used in float arithmetic become double.
                for (side, other) in [(l, r), (r, l)] {
                    if let Some((tv, 0)) = self.trace(side) {
                        if expr_is_floatish(other) {
                            if let Some(s @ Solved::Scalar(_)) = self.vars.get_mut(&tv) {
                                *s = Solved::Scalar(Type::Double);
                            }
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

fn expr_is_floatish(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::FloatLit(..) => true,
        ExprKind::Binary(_, l, r) => expr_is_floatish(l) || expr_is_floatish(r),
        ExprKind::Unary(_, a) => expr_is_floatish(a),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slade_minic::{Interpreter, Value};

    fn check_runs(header: &str, hypothesis: &str, func: &str, args: &[Value]) -> i64 {
        let full = format!("{header}\n{hypothesis}");
        let p = parse_program(&full).unwrap_or_else(|e| panic!("{e}\n{full}"));
        let mut i = Interpreter::new(&p).unwrap_or_else(|e| panic!("{e}\n{full}"));
        i.call(func, args).unwrap().ret.unwrap().as_i64()
    }

    #[test]
    fn infers_scalar_typedef() {
        let hyp = "my_int twice(my_int x) { return x + x; }";
        let header = infer_missing_types(hyp, "").unwrap();
        assert!(header.contains("typedef int my_int;"), "{header}");
        assert_eq!(check_runs(&header, hyp, "twice", &[Value::int(21)]), 42);
    }

    #[test]
    fn infers_float_scalar_from_usage() {
        let hyp = "real scale(real x) { return x * 1.5; }";
        let header = infer_missing_types(hyp, "").unwrap();
        assert!(header.contains("typedef double real;"), "{header}");
    }

    #[test]
    fn infers_struct_fields_from_member_access() {
        // The paper's clock_add failure case shape: unknown struct pointer.
        let hyp = r#"
            void clock_add(struct clock *ev, double d) {
                if (ev) { ev->constev += 1; ev->constsp++; }
            }
        "#;
        let header = infer_missing_types(hyp, "").unwrap();
        assert!(header.contains("struct clock"), "{header}");
        assert!(header.contains("constev"), "{header}");
        assert!(header.contains("constsp"), "{header}");
        let full = format!("{header}\n{hyp}");
        assert!(parse_program(&full).and_then(|p| Sema::check(&p).map(|_| ())).is_ok());
    }

    #[test]
    fn infers_typedeffed_struct() {
        let hyp = "int get_x(SClock *c) { return c->seqno; }";
        let header = infer_missing_types(hyp, "").unwrap();
        assert!(header.contains("typedef struct"), "{header}");
        assert!(header.contains("seqno"), "{header}");
    }

    #[test]
    fn respects_context_definitions() {
        let ctx = "typedef long my_int;";
        let hyp = "my_int id(my_int x) { return x; }";
        let header = infer_missing_types(hyp, ctx).unwrap();
        assert!(header.is_empty(), "context already defines it: {header}");
    }

    #[test]
    fn fails_on_unparseable_garbage() {
        assert!(infer_missing_types("int f( {", "").is_err());
    }

    #[test]
    fn pointer_typedefs_survive_indexing() {
        let hyp = "int first(vec_t *v) { return v[0].len; }";
        let header = infer_missing_types(hyp, "").unwrap();
        let full = format!("{header}\n{hyp}");
        assert!(
            parse_program(&full).and_then(|p| Sema::check(&p).map(|_| ())).is_ok(),
            "{full}"
        );
    }

    fn compiles_with(header: &str, hyp: &str) {
        let full = format!("{header}\n{hyp}");
        if let Err(e) = parse_program(&full).and_then(|p| Sema::check(&p).map(|_| ())) {
            panic!("{e}\n{full}");
        }
    }

    #[test]
    fn struct_tags_declared_in_switch_arms_are_defined() {
        let hyp = "int f(int k, void *p) { switch (k) { case 1: { struct S *s = p; \
                   return s->x; } default: return 0; } }";
        let header = infer_missing_types(hyp, "").unwrap();
        assert!(header.contains("struct S { int x; };"), "{header}");
        compiles_with(&header, hyp);
    }

    #[test]
    fn struct_tags_declared_in_for_initialisers_are_defined() {
        let hyp = "int f(void *p) { int s = 0; for (struct S *q = p; s < 3; s++) s += q->x; \
                   return s; }";
        let header = infer_missing_types(hyp, "").unwrap();
        assert!(header.contains("struct S { int x; };"), "{header}");
        compiles_with(&header, hyp);
    }

    #[test]
    fn struct_tags_in_casts_are_defined_with_their_fields() {
        let hyp = "int f(void *p) { return ((struct S *)p)->x; }";
        let header = infer_missing_types(hyp, "").unwrap();
        assert!(header.contains("struct S { int x; };"), "{header}");
        compiles_with(&header, hyp);
    }

    #[test]
    fn struct_tags_in_sizeof_are_defined() {
        let hyp = "long f(void) { return sizeof(struct S); }";
        let header = infer_missing_types(hyp, "").unwrap();
        assert!(header.contains("struct S {"), "{header}");
        compiles_with(&header, hyp);
    }

    #[test]
    fn globals_of_unknown_struct_type_record_their_fields() {
        let hyp = "struct S *g; int f(void) { return g->x; }";
        let header = infer_missing_types(hyp, "").unwrap();
        assert!(header.contains("struct S { int x; };"), "{header}");
        compiles_with(&header, hyp);
    }
}
