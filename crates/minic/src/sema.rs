//! Semantic analysis: name resolution and type annotation.
//!
//! [`Sema::check`] walks a parsed [`Program`] and produces a [`TypeMap`]
//! giving every expression node its C type, plus the struct/typedef layout
//! context and a function signature table. The interpreter and the compiler
//! both consume this map, so MiniC is typed exactly once.
//!
//! The checker is deliberately permissive in the places GCC merely warns
//! (int↔pointer conversions, pointer type mixing) and strict where GCC
//! errors (unknown identifiers, unknown struct fields, calling a *known*
//! function with the wrong arity, sizeless types). The strict cases are the
//! ones the paper's evaluation depends on: a decompiler that references
//! undefined types or misdeclares an external function must fail to compile.

use crate::ast::*;
use crate::types::{IntKind, LayoutCtx, Type};
use crate::{Diag, ErrorKind, MiniCError, Result};
use std::collections::HashMap;
use std::sync::OnceLock;

/// A function signature: parameter types and return type.
#[derive(Debug, Clone, PartialEq)]
pub struct Signature {
    /// Parameter types, after array decay and typedef resolution.
    pub params: Vec<Type>,
    /// Return type, typedef-resolved.
    pub ret: Type,
    /// True for variadic builtins such as `printf`.
    pub variadic: bool,
}

/// The result of semantic analysis over one program.
#[derive(Debug, Clone)]
pub struct TypeMap {
    types: Vec<Type>,
    /// The operation type of each `op=` assignment, by its node id.
    compound: HashMap<NodeId, Type>,
    /// Layout context with all struct definitions and typedefs resolved.
    pub layout: LayoutCtx,
    /// The program's own definitions and prototypes, plus the implicit
    /// declarations its calls made; the builtins are in one static table.
    signatures: HashMap<String, Signature>,
    /// Types of globals, typedef-resolved (arrays not decayed).
    pub globals: HashMap<String, Type>,
}

impl TypeMap {
    /// The type of expression `id`, as written (arrays not decayed).
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by the parser run that was checked.
    pub fn type_of(&self, id: NodeId) -> &Type {
        &self.types[id as usize]
    }

    /// The value type of expression `id`: arrays decay to pointers.
    pub fn value_type(&self, id: NodeId) -> Type {
        self.types[id as usize].decay()
    }

    /// The type `op=` assignment `id` computes `target op value` in, before
    /// the result converts back to the target's type.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a checked compound assignment.
    pub fn compound_type(&self, id: NodeId) -> &Type {
        &self.compound[&id]
    }

    /// The signature a call to `name` is checked against: the program's own
    /// definition or prototype, else the builtin, else the implicit `int f()`
    /// declaration its first call made.
    pub fn signature(&self, name: &str) -> Option<&Signature> {
        lookup_signature(&self.signatures, name)
    }
}

/// The lookup order of [`TypeMap::signature`], over the program's own table.
fn lookup_signature<'a>(
    own: &'a HashMap<String, Signature>,
    name: &str,
) -> Option<&'a Signature> {
    own.get(name).or_else(|| builtins().get(name))
}

/// The semantic analyzer. See the [module docs](self) for the rules.
#[derive(Debug)]
pub struct Sema<'p> {
    program: &'p Program,
    layout: LayoutCtx,
    signatures: HashMap<String, Signature>,
    globals: HashMap<String, Type>,
    types: Vec<Type>,
    lvalues: Vec<bool>,
    compound: HashMap<NodeId, Type>,
    scopes: Vec<HashMap<String, Type>>,
    current_ret: Type,
}

impl<'p> Sema<'p> {
    /// Runs semantic analysis over `program`.
    ///
    /// # Errors
    ///
    /// Returns the first semantic error (kind [`ErrorKind::Type`]).
    pub fn check(program: &'p Program) -> Result<TypeMap> {
        let mut structs = HashMap::new();
        let mut typedefs = HashMap::new();
        for item in &program.items {
            match item {
                Item::Struct(def) => {
                    structs.insert(def.name.clone(), def.clone());
                }
                Item::Typedef { name, ty } => {
                    typedefs.insert(name.clone(), ty.clone());
                }
                _ => {}
            }
        }
        let layout = LayoutCtx::new(structs, typedefs);
        let mut sema = Sema {
            program,
            layout,
            signatures: HashMap::new(),
            globals: HashMap::new(),
            types: vec![Type::Void; program.node_count as usize],
            lvalues: vec![false; program.node_count as usize],
            compound: HashMap::new(),
            scopes: Vec::new(),
            current_ret: Type::Void,
        };
        sema.collect_items()?;
        for item in &sema.program.items {
            if let Item::Function(f) = item {
                if f.body.is_some() {
                    sema.check_function(f)?;
                }
            }
        }
        // Check global initializers in a plain scope.
        sema.scopes.push(HashMap::new());
        let globals: Vec<_> = sema
            .program
            .items
            .iter()
            .filter_map(|i| match i {
                Item::Global { init: Some(init), ty, .. } => Some((init.clone(), ty.clone())),
                _ => None,
            })
            .collect();
        for (init, ty) in globals {
            sema.check_initializer(&init, &sema.layout.resolve(&ty))?;
        }
        sema.scopes.pop();
        Ok(TypeMap {
            types: sema.types,
            compound: sema.compound,
            layout: sema.layout,
            signatures: sema.signatures,
            globals: sema.globals,
        })
    }

    fn err(&self, line: u32, msg: impl Into<Diag>) -> MiniCError {
        MiniCError::new(ErrorKind::Type, msg, line)
    }

    fn collect_items(&mut self) -> Result<()> {
        for item in &self.program.items {
            match item {
                Item::Global { name, ty, .. } => {
                    let rty = self.layout.resolve(ty);
                    if self.layout.size_of(&rty).is_none() {
                        return Err(self.err(0, format!("global `{name}` has unknown size")));
                    }
                    self.globals.insert(name.clone(), rty);
                }
                Item::Function(f) => {
                    let params: Vec<Type> =
                        f.params.iter().map(|(_, t)| self.layout.resolve(t).decay()).collect();
                    let ret = self.layout.resolve(&f.ret);
                    self.signatures
                        .insert(f.name.clone(), Signature { params, ret, variadic: false });
                }
                _ => {}
            }
        }
        Ok(())
    }

    fn check_function(&mut self, f: &Function) -> Result<()> {
        self.current_ret = self.layout.resolve(&f.ret);
        self.scopes.push(HashMap::new());
        for (name, ty) in &f.params {
            let rty = self.layout.resolve(ty).decay();
            if !rty.is_scalar() && !matches!(rty, Type::Struct(_)) {
                return Err(self.err(0, format!("parameter `{name}` has invalid type {rty}")));
            }
            if let Type::Struct(s) = &rty {
                if self.layout.layout_of(s).is_none() {
                    return Err(self
                        .err(0, format!("parameter `{name}` has incomplete type struct {s}")));
                }
            }
            self.scopes.last_mut().unwrap().insert(name.clone(), rty);
        }
        let body = f.body.as_ref().unwrap();
        self.check_stmt(body)?;
        self.scopes.pop();
        Ok(())
    }

    fn lookup(&self, name: &str) -> Option<Type> {
        for scope in self.scopes.iter().rev() {
            if let Some(t) = scope.get(name) {
                return Some(t.clone());
            }
        }
        self.globals.get(name).cloned()
    }

    fn check_stmt(&mut self, stmt: &Stmt) -> Result<()> {
        match &stmt.kind {
            StmtKind::Block(stmts) => {
                self.scopes.push(HashMap::new());
                for s in stmts {
                    self.check_stmt(s)?;
                }
                self.scopes.pop();
            }
            StmtKind::Decl { name, ty, init } => {
                let rty = self.layout.resolve(ty);
                if self.layout.size_of(&rty).is_none() {
                    return Err(self.err(
                        stmt.line,
                        format!("variable `{name}` has unknown or incomplete type `{ty}`"),
                    ));
                }
                if let Some(init) = init {
                    self.check_initializer(init, &rty)?;
                }
                self.scopes.last_mut().unwrap().insert(name.clone(), rty);
            }
            StmtKind::Expr(e) => {
                self.check_expr(e)?;
            }
            StmtKind::If { cond, then_branch, else_branch } => {
                let t = self.check_expr(cond)?;
                self.require_scalar(&t, cond.line)?;
                self.check_stmt(then_branch)?;
                if let Some(e) = else_branch {
                    self.check_stmt(e)?;
                }
            }
            StmtKind::While { cond, body } | StmtKind::DoWhile { body, cond } => {
                let t = self.check_expr(cond)?;
                self.require_scalar(&t, cond.line)?;
                self.check_stmt(body)?;
            }
            StmtKind::For { init, cond, step, body } => {
                self.scopes.push(HashMap::new());
                if let Some(init) = init {
                    self.check_stmt(init)?;
                }
                if let Some(cond) = cond {
                    let t = self.check_expr(cond)?;
                    self.require_scalar(&t, cond.line)?;
                }
                if let Some(step) = step {
                    self.check_expr(step)?;
                }
                self.check_stmt(body)?;
                self.scopes.pop();
            }
            StmtKind::Return(value) => {
                if let Some(v) = value {
                    let t = self.check_expr(v)?;
                    if self.current_ret == Type::Void {
                        return Err(self.err(stmt.line, "returning a value from void function"));
                    }
                    let ret = self.current_ret.clone();
                    self.require_assignable(&ret, &t, stmt.line)?;
                } else if self.current_ret != Type::Void {
                    return Err(self.err(stmt.line, "missing return value"));
                }
            }
            StmtKind::Switch { scrutinee, arms } => {
                let t = self.check_expr(scrutinee)?;
                if !t.decay().is_integer() {
                    return Err(self.err(stmt.line, "switch on non-integer value"));
                }
                let mut seen = std::collections::HashSet::new();
                for (label, body) in arms {
                    if !seen.insert(*label) {
                        return Err(self.err(stmt.line, "duplicate case label"));
                    }
                    self.scopes.push(HashMap::new());
                    for s in body {
                        self.check_stmt(s)?;
                    }
                    self.scopes.pop();
                }
            }
            StmtKind::Break | StmtKind::Continue | StmtKind::Empty | StmtKind::Goto(_) => {}
            StmtKind::Labeled { stmt, .. } => self.check_stmt(stmt)?,
        }
        Ok(())
    }

    fn check_initializer(&mut self, init: &Expr, target: &Type) -> Result<()> {
        if let ExprKind::Call { callee, args } = &init.kind {
            if callee == "__init_list" {
                let Type::Array(elem, n) = target else {
                    return Err(self.err(init.line, "brace initializer for non-array"));
                };
                if args.len() > *n {
                    return Err(self.err(init.line, "too many initializer elements"));
                }
                for a in args {
                    self.check_initializer(a, elem)?;
                }
                self.set(init.id, target.clone(), false);
                return Ok(());
            }
        }
        let t = self.check_expr(init)?;
        self.require_assignable(target, &t, init.line)
    }

    fn set(&mut self, id: NodeId, ty: Type, lvalue: bool) -> Type {
        self.types[id as usize] = ty.clone();
        self.lvalues[id as usize] = lvalue;
        ty
    }

    fn require_scalar(&self, t: &Type, line: u32) -> Result<()> {
        if t.decay().is_scalar() {
            Ok(())
        } else {
            Err(self.err(line, format!("expected scalar value, found `{t}`")))
        }
    }

    /// Checks C-with-warnings assignability: arithmetic↔arithmetic, any
    /// pointer↔pointer, int↔pointer (GCC warns, we allow), struct↔same struct.
    fn require_assignable(&self, dst: &Type, src: &Type, line: u32) -> Result<()> {
        let d = dst.decay();
        let s = src.decay();
        let ok = (d.is_arithmetic() && s.is_arithmetic())
            || (d.is_pointerish() && s.is_pointerish())
            || (d.is_pointerish() && s.is_integer())
            || (d.is_integer() && s.is_pointerish())
            || matches!((&d, &s), (Type::Struct(a), Type::Struct(b)) if a == b);
        if ok {
            Ok(())
        } else {
            Err(self.err(line, format!("cannot assign `{s}` to `{d}`")))
        }
    }

    fn check_expr(&mut self, e: &Expr) -> Result<Type> {
        let line = e.line;
        let ty = match &e.kind {
            ExprKind::IntLit(_, k) => self.set(e.id, Type::Int(*k), false),
            ExprKind::FloatLit(_, single) => {
                self.set(e.id, if *single { Type::Float } else { Type::Double }, false)
            }
            ExprKind::StrLit(_) => self.set(e.id, Type::ptr(Type::Int(IntKind::Char)), false),
            ExprKind::Ident(name) => {
                let Some(t) = self.lookup(name) else {
                    return Err(self.err(line, Diag::UnknownIdentifier(name.clone())));
                };
                self.set(e.id, t, true)
            }
            ExprKind::Unary(op, inner) => {
                let it = self.check_expr(inner)?;
                let vt = it.decay();
                let result = match op {
                    UnOp::Neg | UnOp::Plus => {
                        if !vt.is_arithmetic() {
                            return Err(self.err(line, "unary +/- on non-arithmetic value"));
                        }
                        match &vt {
                            Type::Int(k) => Type::Int(k.promote()),
                            other => other.clone(),
                        }
                    }
                    UnOp::Not => Type::int(),
                    UnOp::BitNot => {
                        let Type::Int(k) = vt else {
                            return Err(self.err(line, "`~` on non-integer"));
                        };
                        Type::Int(k.promote())
                    }
                    UnOp::Deref => {
                        let Some(p) = vt.pointee() else {
                            return Err(self.err(line, format!("cannot dereference `{vt}`")));
                        };
                        let t = self.layout.resolve(p);
                        return Ok(self.set(e.id, t, true));
                    }
                    UnOp::Addr => {
                        if !self.lvalues[inner.id as usize] {
                            return Err(self.err(line, "cannot take address of rvalue"));
                        }
                        Type::ptr(it.clone())
                    }
                    UnOp::PreInc | UnOp::PreDec => {
                        self.require_lvalue(inner, line)?;
                        vt.clone()
                    }
                };
                self.set(e.id, result, false)
            }
            ExprKind::Postfix(_, inner) => {
                let it = self.check_expr(inner)?;
                self.require_lvalue(inner, line)?;
                self.set(e.id, it.decay(), false)
            }
            ExprKind::Binary(op, l, r) => {
                let lt = self.check_expr(l)?.decay();
                let rt = self.check_expr(r)?.decay();
                let result = self.binary_type(*op, &lt, &rt, line)?;
                self.set(e.id, result, false)
            }
            ExprKind::Assign { op, target, value } => {
                let tt = self.check_expr(target)?;
                self.require_lvalue(target, line)?;
                let vt = self.check_expr(value)?;
                if let Some(op) = op {
                    let ot = self.binary_type(*op, &tt.decay(), &vt.decay(), line)?;
                    self.compound.insert(e.id, ot);
                } else {
                    self.require_assignable(&tt, &vt, line)?;
                }
                self.set(e.id, tt.decay(), false)
            }
            ExprKind::Call { callee, args } => {
                let sig = lookup_signature(&self.signatures, callee).cloned();
                match sig {
                    Some(sig) => {
                        if !sig.variadic && sig.params.len() != args.len() {
                            return Err(self.err(
                                line,
                                format!(
                                    "`{callee}` expects {} argument(s), got {}",
                                    sig.params.len(),
                                    args.len()
                                ),
                            ));
                        }
                        for (i, a) in args.iter().enumerate() {
                            let at = self.check_expr(a)?;
                            if let Some(pt) = sig.params.get(i) {
                                self.require_assignable(pt, &at, a.line)?;
                            }
                        }
                        self.set(e.id, sig.ret.clone(), false)
                    }
                    None => {
                        // Implicit declaration: C89-style `int f()`. The
                        // interpreter errors if the function never appears.
                        for a in args {
                            self.check_expr(a)?;
                        }
                        self.signatures.insert(
                            callee.clone(),
                            Signature {
                                params: args.iter().map(|_| Type::int()).collect(),
                                ret: Type::int(),
                                variadic: true,
                            },
                        );
                        self.set(e.id, Type::int(), false)
                    }
                }
            }
            ExprKind::Index { base, index } => {
                let bt = self.check_expr(base)?.decay();
                let it = self.check_expr(index)?.decay();
                let (ptr, _idx) = if bt.is_pointerish() {
                    (bt.clone(), it)
                } else if it.is_pointerish() {
                    (it, bt.clone()) // `2[arr]` — legal C
                } else {
                    return Err(self.err(line, format!("cannot index `{bt}`")));
                };
                let elem = self.layout.resolve(ptr.pointee().unwrap());
                if self.layout.size_of(&elem).is_none() {
                    return Err(self.err(line, "indexing pointer to incomplete type"));
                }
                self.set(e.id, elem, true)
            }
            ExprKind::Member { base, field, arrow } => {
                let bt = self.check_expr(base)?;
                let sname = if *arrow {
                    let vt = bt.decay();
                    match vt.pointee().map(|p| self.layout.resolve(p)) {
                        Some(Type::Struct(s)) => s,
                        _ => {
                            return Err(
                                self.err(line, format!("`->` on non-struct-pointer `{bt}`"))
                            )
                        }
                    }
                } else {
                    match self.layout.resolve(&bt) {
                        Type::Struct(s) => s,
                        other => {
                            return Err(self.err(line, format!("`.` on non-struct `{other}`")))
                        }
                    }
                };
                let Some((_, fty)) = self.layout.field_of(&sname, field) else {
                    return Err(
                        self.err(line, format!("struct {sname} has no field `{field}`"))
                    );
                };
                self.set(e.id, fty, true)
            }
            ExprKind::Cast { ty, expr } => {
                self.check_expr(expr)?;
                let rty = self.layout.resolve(ty);
                if matches!(rty, Type::Named(_)) {
                    return Err(self.err(line, format!("cast to unknown type `{ty}`")));
                }
                self.set(e.id, rty, false)
            }
            ExprKind::SizeofType(ty) => {
                let rty = self.layout.resolve(ty);
                if self.layout.size_of(&rty).is_none() && !matches!(rty, Type::Ptr(_)) {
                    return Err(self.err(line, format!("sizeof unknown type `{ty}`")));
                }
                self.set(e.id, Type::Int(IntKind::ULong), false)
            }
            ExprKind::SizeofExpr(inner) => {
                self.check_expr(inner)?;
                self.set(e.id, Type::Int(IntKind::ULong), false)
            }
            ExprKind::Ternary { cond, then_expr, else_expr } => {
                let ct = self.check_expr(cond)?;
                self.require_scalar(&ct, line)?;
                let tt = self.check_expr(then_expr)?.decay();
                let et = self.check_expr(else_expr)?.decay();
                let result = if tt.is_arithmetic() && et.is_arithmetic() {
                    tt.common_arith(&et)
                } else if tt.is_pointerish() {
                    tt
                } else {
                    et
                };
                self.set(e.id, result, false)
            }
            ExprKind::Comma(a, b) => {
                self.check_expr(a)?;
                let bt = self.check_expr(b)?.decay();
                self.set(e.id, bt, false)
            }
        };
        Ok(ty)
    }

    fn require_lvalue(&self, e: &Expr, line: u32) -> Result<()> {
        if self.lvalues[e.id as usize] {
            Ok(())
        } else {
            Err(self.err(line, "expression is not assignable"))
        }
    }

    fn binary_type(&self, op: BinOp, lt: &Type, rt: &Type, line: u32) -> Result<Type> {
        if op.is_logical() {
            self.require_scalar(lt, line)?;
            self.require_scalar(rt, line)?;
            return Ok(Type::int());
        }
        if op.is_comparison() {
            let ok = (lt.is_arithmetic() && rt.is_arithmetic())
                || (lt.is_pointerish() && rt.is_pointerish())
                || (lt.is_pointerish() && rt.is_integer())
                || (lt.is_integer() && rt.is_pointerish());
            if !ok {
                return Err(self.err(line, format!("cannot compare `{lt}` and `{rt}`")));
            }
            return Ok(Type::int());
        }
        match op {
            BinOp::Add => {
                if lt.is_pointerish() && rt.is_integer() {
                    self.pointer_arith_ok(lt, line)?;
                    Ok(lt.clone())
                } else if rt.is_pointerish() && lt.is_integer() {
                    self.pointer_arith_ok(rt, line)?;
                    Ok(rt.clone())
                } else if lt.is_arithmetic() && rt.is_arithmetic() {
                    Ok(lt.common_arith(rt))
                } else {
                    Err(self.err(line, format!("invalid operands to `+`: `{lt}`, `{rt}`")))
                }
            }
            BinOp::Sub => {
                if lt.is_pointerish() && rt.is_pointerish() {
                    Ok(Type::Int(IntKind::Long)) // ptrdiff_t
                } else if lt.is_pointerish() && rt.is_integer() {
                    self.pointer_arith_ok(lt, line)?;
                    Ok(lt.clone())
                } else if lt.is_arithmetic() && rt.is_arithmetic() {
                    Ok(lt.common_arith(rt))
                } else {
                    Err(self.err(line, format!("invalid operands to `-`: `{lt}`, `{rt}`")))
                }
            }
            BinOp::Mul | BinOp::Div => {
                if lt.is_arithmetic() && rt.is_arithmetic() {
                    Ok(lt.common_arith(rt))
                } else {
                    Err(self.err(line, "invalid operands to `*`/`/`".to_string()))
                }
            }
            BinOp::Rem
            | BinOp::Shl
            | BinOp::Shr
            | BinOp::BitAnd
            | BinOp::BitOr
            | BinOp::BitXor => {
                if lt.is_integer() && rt.is_integer() {
                    if matches!(op, BinOp::Shl | BinOp::Shr) {
                        // Shift result has the promoted left operand type.
                        let Type::Int(k) = lt else { unreachable!() };
                        Ok(Type::Int(k.promote()))
                    } else {
                        Ok(lt.common_arith(rt))
                    }
                } else {
                    Err(self.err(line, "bitwise/shift/mod on non-integers"))
                }
            }
            _ => unreachable!("comparisons handled above"),
        }
    }

    fn pointer_arith_ok(&self, t: &Type, line: u32) -> Result<()> {
        let elem = self.layout.resolve(t.pointee().unwrap());
        if self.layout.size_of(&elem).is_some() || elem == Type::Void {
            Ok(())
        } else {
            Err(self.err(line, "pointer arithmetic on incomplete type"))
        }
    }
}

/// The signature of libc builtin `name`, if MiniC provides it natively.
pub fn builtin_signature(name: &str) -> Option<&'static Signature> {
    builtins().get(name)
}

/// Signatures for the libc subset MiniC provides natively, built once per
/// process. A program's own definition or prototype of the same name
/// shadows one.
fn builtins() -> &'static HashMap<&'static str, Signature> {
    static BUILTINS: OnceLock<HashMap<&'static str, Signature>> = OnceLock::new();
    BUILTINS.get_or_init(|| {
        use IntKind::*;
        let mut m = HashMap::new();
        let vp = Type::ptr(Type::Void);
        let cp = Type::ptr(Type::Int(Char));
        let ul = Type::Int(ULong);
        let i = Type::int();
        let l = Type::Int(Long);
        let d = Type::Double;
        let f = Type::Float;
        let mut def = |name, params: &[&Type], ret: &Type| {
            let params = params.iter().map(|&t| t.clone()).collect();
            m.insert(name, Signature { params, ret: ret.clone(), variadic: false });
        };
        def("memcpy", &[&vp, &vp, &ul], &vp);
        def("memmove", &[&vp, &vp, &ul], &vp);
        def("memset", &[&vp, &i, &ul], &vp);
        def("memcmp", &[&vp, &vp, &ul], &i);
        def("strlen", &[&cp], &ul);
        def("strcpy", &[&cp, &cp], &cp);
        def("strncpy", &[&cp, &cp, &ul], &cp);
        def("strcmp", &[&cp, &cp], &i);
        def("strncmp", &[&cp, &cp, &ul], &i);
        def("strcat", &[&cp, &cp], &cp);
        def("strchr", &[&cp, &i], &cp);
        def("abs", &[&i], &i);
        def("labs", &[&l], &l);
        def("fabs", &[&d], &d);
        def("fabsf", &[&f], &f);
        for name in ["sqrt", "sin", "cos", "tan", "exp", "log", "floor", "ceil"] {
            def(name, &[&d], &d);
        }
        def("sqrtf", &[&f], &f);
        for name in ["pow", "fmod", "fmin", "fmax"] {
            def(name, &[&d, &d], &d);
        }
        for name in [
            "isdigit", "isalpha", "isspace", "isupper", "islower", "toupper", "tolower",
            "putchar",
        ] {
            def(name, &[&i], &i);
        }
        m.insert("printf", Signature { params: vec![cp], ret: i, variadic: true });
        m
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    fn check(src: &str) -> Result<TypeMap> {
        let p = parse_program(src)?;
        Sema::check(&p)
    }

    #[test]
    fn accepts_well_typed_program() {
        check(
            r#"
            struct pt { int x; int y; };
            int sum(struct pt *p, int n) {
                int s = 0;
                for (int i = 0; i < n; i++) s += p[i].x + p[i].y;
                return s;
            }"#,
        )
        .unwrap();
    }

    #[test]
    fn rejects_unknown_identifier() {
        let err = check("int f(void) { return missing; }").unwrap_err();
        assert_eq!(err.kind(), crate::ErrorKind::Type);
    }

    #[test]
    fn rejects_unknown_field() {
        let err =
            check("struct s { int a; }; int f(struct s *p) { return p->b; }").unwrap_err();
        assert!(err.message().contains("no field"));
    }

    #[test]
    fn rejects_wrong_arity_for_known_function() {
        let err =
            check("int g(int a) { return a; } int f(void) { return g(1, 2); }").unwrap_err();
        assert!(err.message().contains("expects 1 argument"));
    }

    #[test]
    fn allows_implicit_extern_call() {
        // Calling an undeclared function is C89-legal; execution would fail.
        check("int f(int x) { return ext_helper(x); }").unwrap();
    }

    #[test]
    fn pointer_arithmetic_scaling_types() {
        let tm_src = "long f(int *p, int *q) { return q - p; }";
        check(tm_src).unwrap();
    }

    #[test]
    fn usual_arithmetic_conversions() {
        let p = parse_program("unsigned f(unsigned a, int b) { return a + b; }").unwrap();
        let tm = Sema::check(&p).unwrap();
        // Find the Add expression and confirm it's unsigned.
        fn find_add(e: &Expr, tm: &TypeMap, out: &mut Vec<Type>) {
            if let ExprKind::Binary(BinOp::Add, l, r) = &e.kind {
                out.push(tm.value_type(e.id));
                find_add(l, tm, out);
                find_add(r, tm, out);
            }
        }
        let f = p.function("f").unwrap();
        let mut found = Vec::new();
        if let StmtKind::Block(ss) = &f.body.as_ref().unwrap().kind {
            if let StmtKind::Return(Some(e)) = &ss[0].kind {
                find_add(e, &tm, &mut found);
            }
        }
        assert_eq!(found, vec![Type::Int(IntKind::UInt)]);
    }

    /// The type of each expression statement of `f`'s body; for an `op=`
    /// statement, the type its operation is done in.
    fn stmt_types(src: &str) -> Vec<Type> {
        let p = parse_program(src).unwrap();
        let tm = Sema::check(&p).unwrap();
        let Some(StmtKind::Block(body)) =
            p.function("f").and_then(|f| f.body.as_ref()).map(|b| &b.kind)
        else {
            panic!("no body: {src}");
        };
        let ty = |s: &Stmt| match &s.kind {
            StmtKind::Expr(e) if matches!(e.kind, ExprKind::Assign { op: Some(_), .. }) => {
                tm.compound_type(e.id).clone()
            }
            StmtKind::Expr(e) => tm.value_type(e.id),
            other => panic!("not an expression statement: {other:?}"),
        };
        body.iter().map(ty).collect()
    }

    /// C11 §6.3.1.8 on LP64, written out by hand: `x * y` and `x *= y` for
    /// every pair of arithmetic kinds, `x << y` (the promoted left operand)
    /// for every integer pair, and the pointer results of `+` and `-`.
    #[test]
    fn usual_arithmetic_conversions_match_the_c11_table() {
        use IntKind::*;
        let kinds = [
            ("char", Type::Int(Char)),
            ("unsigned char", Type::Int(UChar)),
            ("short", Type::Int(Short)),
            ("unsigned short", Type::Int(UShort)),
            ("int", Type::Int(Int)),
            ("unsigned", Type::Int(UInt)),
            ("long", Type::Int(Long)),
            ("unsigned long", Type::Int(ULong)),
            ("float", Type::Float),
            ("double", Type::Double),
        ];
        // Row: left operand; column: right operand, both in `kinds` order.
        const TABLE: [[&str; 10]; 10] = [
            ["i", "i", "i", "i", "i", "u", "l", "ul", "f", "d"],
            ["i", "i", "i", "i", "i", "u", "l", "ul", "f", "d"],
            ["i", "i", "i", "i", "i", "u", "l", "ul", "f", "d"],
            ["i", "i", "i", "i", "i", "u", "l", "ul", "f", "d"],
            ["i", "i", "i", "i", "i", "u", "l", "ul", "f", "d"],
            ["u", "u", "u", "u", "u", "u", "l", "ul", "f", "d"],
            ["l", "l", "l", "l", "l", "l", "l", "ul", "f", "d"],
            ["ul", "ul", "ul", "ul", "ul", "ul", "ul", "ul", "f", "d"],
            ["f", "f", "f", "f", "f", "f", "f", "f", "f", "d"],
            ["d", "d", "d", "d", "d", "d", "d", "d", "d", "d"],
        ];
        let named = |abbr| match abbr {
            "i" => Type::Int(Int),
            "u" => Type::Int(UInt),
            "l" => Type::Int(Long),
            "ul" => Type::Int(ULong),
            "f" => Type::Float,
            _ => Type::Double,
        };
        for (row, (a, at)) in TABLE.iter().zip(&kinds) {
            for (&abbr, (b, bt)) in row.iter().zip(&kinds) {
                let want = named(abbr);
                let mut src = format!("void f({a} x, {b} y) {{ x * y; x *= y;");
                let mut expect = vec![want.clone(), want.clone()];
                if let (Type::Int(k), true) = (at, bt.is_integer()) {
                    src.push_str(" x << y; x <<= y;");
                    expect.extend([Type::Int(k.promote()), Type::Int(k.promote())]);
                }
                src.push_str(" }");
                assert_eq!(stmt_types(&src), expect, "{a} op {b}");
                assert_eq!(at.common_arith(bt), want, "{a}, {b}");
            }
        }
        let ptr = Type::ptr(Type::int());
        let long = Type::Int(Long);
        assert_eq!(
            stmt_types(
                "void f(int *p, int *q, char c, long n) { p + c; c + p; p - n; p - q; p += c; \
                 p -= n; }"
            ),
            [ptr.clone(), ptr.clone(), ptr.clone(), long, ptr.clone(), ptr]
        );
    }

    #[test]
    fn rejects_incomplete_local() {
        let err = check("int f(void) { struct nope s; return 0; }").unwrap_err();
        assert!(err.message().contains("unknown or incomplete"));
    }

    #[test]
    fn rejects_deref_of_int() {
        assert!(check("int f(int x) { return *x; }").is_err());
    }

    #[test]
    fn rejects_address_of_rvalue() {
        assert!(check("int *f(int x) { return &(x + 1); }").is_err());
    }

    #[test]
    fn builtin_signatures_enforced() {
        assert!(check("void f(char *s) { strlen(s, 3); }").is_err());
        check("unsigned long f(char *s) { return strlen(s); }").unwrap();
    }

    /// The types of the calls in `f`'s `return` expression, left to right.
    fn call_types(p: &Program, tm: &TypeMap) -> Vec<(String, Type)> {
        fn walk(e: &Expr, tm: &TypeMap, out: &mut Vec<(String, Type)>) {
            match &e.kind {
                ExprKind::Call { callee, args } => {
                    out.push((callee.clone(), tm.value_type(e.id)));
                    args.iter().for_each(|a| walk(a, tm, out));
                }
                ExprKind::Binary(_, l, r) => {
                    walk(l, tm, out);
                    walk(r, tm, out);
                }
                ExprKind::Cast { expr, .. } => walk(expr, tm, out),
                _ => {}
            }
        }
        let mut out = Vec::new();
        let f = p.function("f").unwrap();
        if let StmtKind::Block(ss) = &f.body.as_ref().unwrap().kind {
            if let StmtKind::Return(Some(e)) = &ss[0].kind {
                walk(e, tm, &mut out);
            }
        }
        out
    }

    #[test]
    fn own_definitions_shadow_builtins_then_implicit_declarations() {
        let src = "int abs(int a, int b) { return a - b; } double sqrt(double x); \
                   int f(char *s) { return abs(1, 2) + foo(1, 2) + strlen(s) + (int)sqrt(2.0); }";
        let p = parse_program(src).unwrap();
        let tm = Sema::check(&p).unwrap();
        let ulong = Type::Int(IntKind::ULong);
        assert_eq!(
            call_types(&p, &tm),
            [
                ("abs", Type::int()),
                ("foo", Type::int()),
                ("strlen", ulong),
                ("sqrt", Type::Double)
            ]
            .map(|(n, t)| (n.to_string(), t))
        );
        let sig = |name| tm.signature(name).cloned().unwrap();
        let own = |params: Vec<Type>, ret, variadic| Signature { params, ret, variadic };
        assert_eq!(sig("abs"), own(vec![Type::int(), Type::int()], Type::int(), false));
        assert_eq!(sig("sqrt"), own(vec![Type::Double], Type::Double, false));
        assert_eq!(sig("foo"), own(vec![Type::int(), Type::int()], Type::int(), true));
        assert_eq!(sig("strlen").params, vec![Type::ptr(Type::Int(IntKind::Char))]);
        assert!(tm.signature("bar").is_none());
        // The own two-argument `abs` is what a call is checked against.
        let one_arg = src.replace("abs(1, 2) +", "abs(1) +");
        let err = check(&one_arg).unwrap_err();
        assert!(err.message().contains("`abs` expects 2 argument(s), got 1"), "{err}");
    }

    #[test]
    fn implicit_declarations_stay_in_their_program() {
        check("int abs(int a, int b) { return a; } int f(void) { return foo(1, 2); }").unwrap();
        // A later program gets its own implicit `foo`, and the builtin `abs`.
        let p = parse_program("int f(void) { return foo(1, 2, 3) + abs(4); }").unwrap();
        let tm = Sema::check(&p).unwrap();
        assert_eq!(tm.signature("foo").unwrap().params.len(), 3);
        assert_eq!(tm.signature("abs").unwrap().params.len(), 1);
        let err = check("int f(void) { return abs(1, 2); }").unwrap_err();
        assert!(err.message().contains("`abs` expects 1 argument(s), got 2"), "{err}");
        assert_eq!(builtins().len(), 37);
        assert!(!builtins().contains_key("foo"));
    }

    #[test]
    fn struct_assignment_same_tag_ok() {
        check("struct s { int a; }; void f(struct s *p, struct s *q) { *p = *q; }").unwrap();
    }

    #[test]
    fn switch_rules() {
        check("int f(int x) { switch (x) { case 1: return 1; default: return 0; } }").unwrap();
        assert!(check("double g(void); int f(void) { switch (g()) { default: return 0; } }")
            .is_err());
        assert!(
            check(
                "int f(int x) { switch (x) { case 1: return 1; case 1: return 2; } return 0; }"
            )
            .is_err(),
            "duplicate labels"
        );
    }

    #[test]
    fn void_return_rules() {
        assert!(check("void f(void) { return 1; }").is_err());
        assert!(check("int f(void) { return; }").is_err());
    }
}
