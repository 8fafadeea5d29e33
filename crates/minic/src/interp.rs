//! Tree-walking interpreter for MiniC with a byte-addressable memory model.
//!
//! This is the execution engine behind the paper's IO-equivalence check
//! (§III-A): decompiled hypotheses are compiled (parsed + type-checked) and
//! executed against the reference on concrete inputs. Buffers passed through
//! pointers live in [`crate::mem::Memory`] segments so the harness can
//! inspect memory effects after the call, and a fuel budget turns
//! non-termination into a [`crate::ErrorKind::Timeout`] error (the paper
//! "assumes non-equivalence in cases of non-termination").

use crate::ast::*;
use crate::mem::Memory;
use crate::sema::{Sema, TypeMap};
use crate::types::{IntKind, Type};
use crate::value::{Pointer, Value};
use crate::{Diag, ErrorKind, MiniCError, Result};
use std::collections::HashMap;

/// Execution limits for one [`Interpreter::call`].
#[derive(Debug, Clone, Copy)]
pub struct RunLimits {
    /// Maximum number of statement/expression steps before timing out.
    pub fuel: u64,
    /// Maximum call depth.
    pub max_depth: u32,
}

impl Default for RunLimits {
    fn default() -> Self {
        RunLimits { fuel: 4_000_000, max_depth: 200 }
    }
}

/// The result of calling a function: its return value (if non-void).
#[derive(Debug, Clone, PartialEq)]
pub struct CallOutcome {
    /// Return value, `None` for `void` functions.
    pub ret: Option<Value>,
}

/// Control-flow signal threaded through statement execution.
#[derive(Debug, Clone)]
enum Flow {
    Normal,
    Break,
    Continue,
    Return(Option<Value>),
    Goto(String),
}

/// One local variable: its backing segment and declared type.
#[derive(Debug, Clone)]
struct Slot {
    ptr: Pointer,
    ty: Type,
}

/// A MiniC interpreter bound to one type-checked program.
///
/// # Example
///
/// ```
/// use slade_minic::{parse_program, Interpreter, Value};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = parse_program("int sq(int x) { return x * x; }")?;
/// let mut interp = Interpreter::new(&p)?;
/// assert_eq!(interp.call("sq", &[Value::int(7)])?.ret.unwrap().as_i64(), 49);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Interpreter<'p> {
    program: &'p Program,
    tm: TypeMap,
    mem: Memory,
    globals: HashMap<String, Slot>,
    functions: HashMap<&'p str, &'p Function>,
    strings: HashMap<Vec<u8>, Pointer>,
    scopes: Vec<Vec<HashMap<String, Slot>>>,
    limits: RunLimits,
    fuel: u64,
    depth: u32,
}

impl<'p> Interpreter<'p> {
    /// Type-checks `program`, allocates globals and evaluates their
    /// initializers.
    ///
    /// # Errors
    ///
    /// Returns type errors from semantic analysis or runtime errors from
    /// global initializers.
    pub fn new(program: &'p Program) -> Result<Self> {
        Self::with_limits(program, RunLimits::default())
    }

    /// Like [`Interpreter::new`] with explicit execution limits.
    ///
    /// # Errors
    ///
    /// Same as [`Interpreter::new`].
    pub fn with_limits(program: &'p Program, limits: RunLimits) -> Result<Self> {
        let tm = Sema::check(program)?;
        let mut functions = HashMap::new();
        for item in &program.items {
            if let Item::Function(f) = item {
                if f.body.is_some() {
                    functions.insert(f.name.as_str(), f);
                }
            }
        }
        let mut interp = Interpreter {
            program,
            tm,
            mem: Memory::new(),
            globals: HashMap::new(),
            functions,
            strings: HashMap::new(),
            scopes: Vec::new(),
            limits,
            fuel: limits.fuel,
            depth: 0,
        };
        interp.init_globals()?;
        Ok(interp)
    }

    /// Allocates a buffer, copies `bytes` into it, and returns a pointer —
    /// how the evaluation harness passes array/pointer arguments.
    pub fn alloc_buffer(&mut self, bytes: &[u8]) -> Pointer {
        let p = self.mem.alloc(bytes.len());
        self.mem.store_bytes(p, bytes).expect("fresh segment");
        p
    }

    /// Reads `len` bytes from `ptr` — how the harness observes memory
    /// effects after a call.
    ///
    /// # Errors
    ///
    /// Faults if the range is invalid.
    pub fn read_buffer(&self, ptr: Pointer, len: usize) -> Result<Vec<u8>> {
        self.mem.load_bytes(ptr, len)
    }

    /// Calls function `name` with `args` (converted to parameter types).
    ///
    /// Fuel is replenished at the start of every top-level call so one
    /// harness can run many IO examples.
    ///
    /// # Errors
    ///
    /// Returns runtime faults, missing functions, or timeout.
    pub fn call(&mut self, name: &str, args: &[Value]) -> Result<CallOutcome> {
        self.fuel = self.limits.fuel;
        self.depth = 0;
        let ret = self.call_function(name, args, 0)?;
        Ok(CallOutcome { ret })
    }

    // ---- setup ----

    fn init_globals(&mut self) -> Result<()> {
        let items: Vec<_> = self.program.items.iter().collect();
        // First allocate all globals (so initializers may reference others).
        for item in &items {
            if let Item::Global { name, ty, .. } = item {
                let rty = self.tm.layout.resolve(ty);
                let size = self
                    .tm
                    .layout
                    .size_of(&rty)
                    .ok_or_else(|| rt(format!("global `{name}` has unknown size")))?;
                let ptr = self.mem.alloc(size);
                self.globals.insert(name.clone(), Slot { ptr, ty: rty });
            }
        }
        self.scopes.push(vec![HashMap::new()]);
        self.fuel = self.limits.fuel;
        for item in &items {
            if let Item::Global { name, init: Some(init), .. } = item {
                let slot = self.globals.get(name.as_str()).unwrap().clone();
                self.store_initializer(&slot, init)?;
            }
        }
        self.scopes.pop();
        Ok(())
    }

    fn store_initializer(&mut self, slot: &Slot, init: &Expr) -> Result<()> {
        if let ExprKind::Call { callee, args } = &init.kind {
            if callee == "__init_list" {
                let Type::Array(elem, _) = &slot.ty else {
                    return Err(rt("brace initializer for non-array"));
                };
                let esize = self
                    .tm
                    .layout
                    .size_of(elem)
                    .ok_or_else(|| rt("array of unknown element size"))?
                    as i64;
                let elem = (**elem).clone();
                for (i, a) in args.iter().enumerate() {
                    let sub = Slot { ptr: slot.ptr.offset(i as i64 * esize), ty: elem.clone() };
                    self.store_initializer(&sub, a)?;
                }
                return Ok(());
            }
        }
        let v = self.eval(init)?;
        self.store_typed(slot.ptr, &slot.ty, v)
    }

    // ---- typed loads/stores ----

    fn load_typed(&self, ptr: Pointer, ty: &Type) -> Result<Value> {
        Ok(match ty {
            Type::Int(k) => {
                let bytes = self.mem.load_bytes(ptr, k.size())?;
                let mut raw = [0u8; 8];
                raw[..bytes.len()].copy_from_slice(&bytes);
                let unsigned = u64::from_le_bytes(raw);
                let v = if k.signed() {
                    // Sign-extend from width.
                    let shift = 64 - 8 * k.size();
                    ((unsigned << shift) as i64) >> shift
                } else {
                    unsigned as i64
                };
                Value::of_kind(v, *k)
            }
            Type::Float => {
                let b = self.mem.load_bytes(ptr, 4)?;
                Value::F32(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            }
            Type::Double => {
                let b = self.mem.load_bytes(ptr, 8)?;
                Value::F64(f64::from_le_bytes(b.try_into().unwrap()))
            }
            Type::Ptr(_) => {
                let b = self.mem.load_bytes(ptr, 8)?;
                let raw = u64::from_le_bytes(b.try_into().unwrap());
                Value::Ptr(unpack_ptr(raw))
            }
            // Loading an aggregate as a value yields its address (decay).
            Type::Array(..) | Type::Struct(_) => Value::Ptr(ptr),
            other => return Err(rt(format!("cannot load value of type `{other}`"))),
        })
    }

    fn store_typed(&mut self, ptr: Pointer, ty: &Type, v: Value) -> Result<()> {
        let v = v.convert_to(ty);
        match ty {
            Type::Int(k) => {
                let Value::Int(x, _) = v else { return Err(rt("type confusion in store")) };
                let bytes = (x as u64).to_le_bytes();
                self.mem.store_bytes(ptr, &bytes[..k.size()])
            }
            Type::Float => {
                let Value::F32(x) = v else { return Err(rt("type confusion in store")) };
                self.mem.store_bytes(ptr, &x.to_le_bytes())
            }
            Type::Double => {
                let Value::F64(x) = v else { return Err(rt("type confusion in store")) };
                self.mem.store_bytes(ptr, &x.to_le_bytes())
            }
            Type::Ptr(_) => {
                let Value::Ptr(p) = v else { return Err(rt("type confusion in store")) };
                self.mem.store_bytes(ptr, &pack_ptr(p).to_le_bytes())
            }
            other => Err(rt(format!("cannot store value of type `{other}`"))),
        }
    }

    // ---- calls ----

    fn call_function(
        &mut self,
        name: &str,
        args: &[Value],
        line: u32,
    ) -> Result<Option<Value>> {
        if let Some(v) = self.call_builtin(name, args)? {
            return Ok(v);
        }
        let Some(f) = self.functions.get(name).copied() else {
            return Err(MiniCError::new(
                ErrorKind::Runtime,
                format!("call to undefined function `{name}`"),
                line,
            ));
        };
        if args.len() != f.params.len() {
            return Err(rt(format!(
                "`{name}` called with {} args, expects {}",
                args.len(),
                f.params.len()
            )));
        }
        self.depth += 1;
        if self.depth > self.limits.max_depth {
            return Err(MiniCError::new(ErrorKind::Timeout, "call depth exceeded", line));
        }
        let mut frame = HashMap::new();
        for ((pname, pty), arg) in f.params.iter().zip(args) {
            let rty = self.tm.layout.resolve(pty).decay();
            let size = self.tm.layout.size_of(&rty).unwrap_or(8);
            let ptr = self.mem.alloc(size);
            if let Type::Struct(_) = rty {
                // Struct passed by value: copy the bytes behind the pointer.
                let Value::Ptr(src) = arg else {
                    return Err(rt("struct argument must be a pointer to storage"));
                };
                self.mem.copy(ptr, *src, size)?;
            } else {
                self.store_typed(ptr, &rty, *arg)?;
            }
            frame.insert(pname.clone(), Slot { ptr, ty: rty });
        }
        self.scopes.push(vec![frame]);
        let body = f.body.as_ref().unwrap();
        let flow = self.exec(body)?;
        let frame_scopes = self.scopes.pop().unwrap();
        for scope in frame_scopes {
            for slot in scope.values() {
                self.mem.free(slot.ptr);
            }
        }
        self.depth -= 1;
        let ret_ty = self.tm.layout.resolve(&f.ret);
        match flow {
            Flow::Return(Some(v)) => Ok(Some(v.convert_to(&ret_ty))),
            Flow::Return(None) | Flow::Normal => {
                if ret_ty == Type::Void {
                    Ok(None)
                } else {
                    // Falling off a non-void function: indeterminate in C;
                    // we return 0 like most ABIs leave a stale register.
                    Ok(Some(Value::int(0).convert_to(&ret_ty)))
                }
            }
            Flow::Goto(l) => Err(rt(format!("goto to unknown label `{l}`"))),
            _ => Err(rt("break/continue outside loop")),
        }
    }

    // ---- statements ----

    fn burn(&mut self, line: u32) -> Result<()> {
        if self.fuel == 0 {
            return Err(MiniCError::new(ErrorKind::Timeout, "fuel exhausted", line));
        }
        self.fuel -= 1;
        Ok(())
    }

    fn exec(&mut self, stmt: &Stmt) -> Result<Flow> {
        self.burn(stmt.line)?;
        match &stmt.kind {
            StmtKind::Block(stmts) => self.exec_block(stmts),
            StmtKind::Decl { name, ty, init } => {
                let rty = self.tm.layout.resolve(ty);
                let size =
                    self.tm.layout.size_of(&rty).ok_or_else(|| rt("unknown local size"))?;
                let ptr = self.mem.alloc(size);
                let slot = Slot { ptr, ty: rty };
                if let Some(init) = init {
                    self.store_initializer(&slot, init)?;
                }
                self.scopes.last_mut().unwrap().last_mut().unwrap().insert(name.clone(), slot);
                Ok(Flow::Normal)
            }
            StmtKind::Expr(e) => {
                self.eval(e)?;
                Ok(Flow::Normal)
            }
            StmtKind::If { cond, then_branch, else_branch } => {
                if self.eval(cond)?.is_truthy() {
                    self.exec(then_branch)
                } else if let Some(e) = else_branch {
                    self.exec(e)
                } else {
                    Ok(Flow::Normal)
                }
            }
            StmtKind::While { cond, body } => {
                while self.eval(cond)?.is_truthy() {
                    self.burn(stmt.line)?;
                    match self.exec(body)? {
                        Flow::Break => break,
                        Flow::Normal | Flow::Continue => {}
                        other => return Ok(other),
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::DoWhile { body, cond } => {
                loop {
                    self.burn(stmt.line)?;
                    match self.exec(body)? {
                        Flow::Break => break,
                        Flow::Normal | Flow::Continue => {}
                        other => return Ok(other),
                    }
                    if !self.eval(cond)?.is_truthy() {
                        break;
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::For { init, cond, step, body } => {
                self.push_scope();
                let result = (|| {
                    if let Some(init) = init {
                        match self.exec(init)? {
                            Flow::Normal => {}
                            other => return Ok(other),
                        }
                    }
                    loop {
                        if let Some(cond) = cond {
                            if !self.eval(cond)?.is_truthy() {
                                break;
                            }
                        }
                        self.burn(stmt.line)?;
                        match self.exec(body)? {
                            Flow::Break => break,
                            Flow::Normal | Flow::Continue => {}
                            other => return Ok(other),
                        }
                        if let Some(step) = step {
                            self.eval(step)?;
                        }
                    }
                    Ok(Flow::Normal)
                })();
                self.pop_scope();
                result
            }
            StmtKind::Return(value) => {
                let v = match value {
                    Some(e) => Some(self.eval(e)?),
                    None => None,
                };
                Ok(Flow::Return(v))
            }
            StmtKind::Switch { scrutinee, arms } => {
                let v = self.eval(scrutinee)?;
                let Value::Int(x, _) = v else {
                    return Err(rt("switch on non-integer"));
                };
                // Find the matching arm (or default), then fall through.
                let mut start = arms.iter().position(|(l, _)| *l == Some(x));
                if start.is_none() {
                    start = arms.iter().position(|(l, _)| l.is_none());
                }
                let Some(start) = start else { return Ok(Flow::Normal) };
                self.push_scope();
                let mut result = Flow::Normal;
                'arms: for (_, body) in &arms[start..] {
                    for s in body {
                        match self.exec(s)? {
                            Flow::Normal => {}
                            Flow::Break => break 'arms,
                            other => {
                                result = other;
                                break 'arms;
                            }
                        }
                    }
                }
                self.pop_scope();
                Ok(result)
            }
            StmtKind::Break => Ok(Flow::Break),
            StmtKind::Continue => Ok(Flow::Continue),
            StmtKind::Goto(label) => Ok(Flow::Goto(label.clone())),
            StmtKind::Labeled { stmt, .. } => self.exec(stmt),
            StmtKind::Empty => Ok(Flow::Normal),
        }
    }

    fn push_scope(&mut self) {
        self.scopes.last_mut().unwrap().push(HashMap::new());
    }

    fn pop_scope(&mut self) {
        if let Some(scope) = self.scopes.last_mut().unwrap().pop() {
            for slot in scope.values() {
                self.mem.free(slot.ptr);
            }
        }
    }

    fn exec_block(&mut self, stmts: &[Stmt]) -> Result<Flow> {
        self.push_scope();
        let mut i = 0usize;
        let result = loop {
            if i >= stmts.len() {
                break Flow::Normal;
            }
            match self.exec(&stmts[i]) {
                Err(e) => {
                    self.pop_scope();
                    return Err(e);
                }
                Ok(Flow::Normal) => i += 1,
                Ok(Flow::Goto(label)) => {
                    // Backward or forward goto within this block.
                    match find_label(stmts, &label) {
                        Some(idx) => {
                            self.burn(0)?;
                            i = idx;
                        }
                        None => break Flow::Goto(label),
                    }
                }
                Ok(other) => break other,
            }
        };
        self.pop_scope();
        Ok(result)
    }

    // ---- expressions ----

    fn eval(&mut self, e: &Expr) -> Result<Value> {
        self.burn(e.line)?;
        match &e.kind {
            ExprKind::IntLit(v, k) => Ok(Value::of_kind(*v, *k)),
            ExprKind::FloatLit(v, single) => {
                Ok(if *single { Value::F32(*v as f32) } else { Value::F64(*v) })
            }
            ExprKind::StrLit(s) => {
                if let Some(p) = self.strings.get(s) {
                    return Ok(Value::Ptr(*p));
                }
                let mut bytes = s.clone();
                bytes.push(0);
                let p = self.mem.alloc(bytes.len());
                self.mem.store_bytes(p, &bytes)?;
                self.strings.insert(s.clone(), p);
                Ok(Value::Ptr(p))
            }
            ExprKind::Ident(_) => {
                let (ptr, ty) = self.eval_lvalue(e)?;
                self.load_typed(ptr, &ty)
            }
            ExprKind::Unary(op, inner) => self.eval_unary(e, *op, inner),
            ExprKind::Postfix(kind, inner) => {
                let (ptr, ty) = self.eval_lvalue(inner)?;
                let old = self.load_typed(ptr, &ty)?;
                let delta = if matches!(kind, IncDec::Inc) { 1 } else { -1 };
                let new = self.step_value(old, &ty, delta)?;
                self.store_typed(ptr, &ty, new)?;
                Ok(old)
            }
            ExprKind::Binary(op, l, r) => self.eval_binary(e, *op, l, r),
            ExprKind::Assign { op, target, value } => {
                let (ptr, ty) = self.eval_lvalue(target)?;
                if op.is_none() {
                    if let Type::Struct(name) = &ty {
                        // Struct assignment copies bytes.
                        let (src, _) = self.eval_lvalue(value)?;
                        let size = self
                            .tm
                            .layout
                            .layout_of(name)
                            .ok_or_else(|| rt("incomplete struct"))?
                            .size;
                        self.mem.copy(ptr, src, size)?;
                        return Ok(Value::Ptr(ptr));
                    }
                }
                let rhs = self.eval(value)?;
                let result = match op {
                    None => rhs.convert_to(&ty),
                    Some(op) => {
                        let cur = self.load_typed(ptr, &ty)?;
                        let vt = self.tm.value_type(value.id);
                        self.apply_op(*op, cur, rhs, &ty, &vt, e.line)?.convert_to(&ty)
                    }
                };
                self.store_typed(ptr, &ty, result)?;
                Ok(result)
            }
            ExprKind::Call { callee, args } => {
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    let at = self.tm.value_type(a.id);
                    if matches!(
                        self.tm.layout.resolve(&self.tm.type_of(a.id).clone()),
                        Type::Struct(_)
                    ) {
                        // Struct by value: pass the address; callee copies.
                        let (p, _) = self.eval_lvalue(a)?;
                        argv.push(Value::Ptr(p));
                    } else {
                        let v = self.eval(a)?;
                        // Decay/convert according to the checked type.
                        argv.push(v.convert_to(&at));
                    }
                }
                let ret = self.call_function(callee, &argv, e.line)?;
                Ok(ret.unwrap_or(Value::int(0)))
            }
            ExprKind::Index { .. } | ExprKind::Member { .. } => {
                let (ptr, ty) = self.eval_lvalue(e)?;
                self.load_typed(ptr, &ty)
            }
            ExprKind::Cast { ty, expr } => {
                let v = self.eval(expr)?;
                let rty = self.tm.layout.resolve(ty);
                Ok(v.convert_to(&rty))
            }
            ExprKind::SizeofType(ty) => {
                let rty = self.tm.layout.resolve(ty);
                let size = self.tm.layout.size_of(&rty).unwrap_or(8);
                Ok(Value::of_kind(size as i64, IntKind::ULong))
            }
            ExprKind::SizeofExpr(inner) => {
                let ty = self.tm.type_of(inner.id).clone();
                let size = self.tm.layout.size_of(&ty).unwrap_or(8);
                Ok(Value::of_kind(size as i64, IntKind::ULong))
            }
            ExprKind::Ternary { cond, then_expr, else_expr } => {
                if self.eval(cond)?.is_truthy() {
                    let v = self.eval(then_expr)?;
                    Ok(v.convert_to(&self.tm.value_type(e.id)))
                } else {
                    let v = self.eval(else_expr)?;
                    Ok(v.convert_to(&self.tm.value_type(e.id)))
                }
            }
            ExprKind::Comma(a, b) => {
                self.eval(a)?;
                self.eval(b)
            }
        }
    }

    fn eval_unary(&mut self, e: &Expr, op: UnOp, inner: &Expr) -> Result<Value> {
        match op {
            UnOp::Plus => self.eval(inner),
            UnOp::Neg => {
                let v = self.eval(inner)?;
                Ok(match v.convert_to(&self.tm.value_type(e.id)) {
                    Value::Int(x, k) => Value::of_kind(x.wrapping_neg(), k),
                    Value::F32(x) => Value::F32(-x),
                    Value::F64(x) => Value::F64(-x),
                    p => p,
                })
            }
            UnOp::Not => {
                let v = self.eval(inner)?;
                Ok(Value::int(if v.is_truthy() { 0 } else { 1 }))
            }
            UnOp::BitNot => {
                let v = self.eval(inner)?.convert_to(&self.tm.value_type(e.id));
                let Value::Int(x, k) = v else { return Err(rt("~ on non-integer")) };
                Ok(Value::of_kind(!x, k))
            }
            UnOp::Deref => {
                let (ptr, ty) = self.eval_lvalue(e)?;
                self.load_typed(ptr, &ty)
            }
            UnOp::Addr => {
                let (ptr, _) = self.eval_lvalue(inner)?;
                Ok(Value::Ptr(ptr))
            }
            UnOp::PreInc | UnOp::PreDec => {
                let (ptr, ty) = self.eval_lvalue(inner)?;
                let old = self.load_typed(ptr, &ty)?;
                let delta = if matches!(op, UnOp::PreInc) { 1 } else { -1 };
                let new = self.step_value(old, &ty, delta)?;
                self.store_typed(ptr, &ty, new)?;
                Ok(new)
            }
        }
    }

    /// `v + delta` respecting pointer scaling.
    fn step_value(&self, v: Value, ty: &Type, delta: i64) -> Result<Value> {
        Ok(match v {
            Value::Int(x, k) => Value::of_kind(x.wrapping_add(delta), k),
            Value::F32(x) => Value::F32(x + delta as f32),
            Value::F64(x) => Value::F64(x + delta as f64),
            Value::Ptr(p) => {
                let elem = ty.pointee().ok_or_else(|| rt("++ on non-pointer"))?;
                let size = self.tm.layout.size_of(elem).ok_or_else(|| rt("void ptr ++"))?;
                Value::Ptr(p.offset(delta * size as i64))
            }
        })
    }

    fn eval_binary(&mut self, e: &Expr, op: BinOp, l: &Expr, r: &Expr) -> Result<Value> {
        if op.is_logical() {
            let lv = self.eval(l)?;
            return Ok(match op {
                BinOp::LogAnd => {
                    if !lv.is_truthy() {
                        Value::int(0)
                    } else {
                        Value::int(self.eval(r)?.is_truthy() as i64)
                    }
                }
                BinOp::LogOr => {
                    if lv.is_truthy() {
                        Value::int(1)
                    } else {
                        Value::int(self.eval(r)?.is_truthy() as i64)
                    }
                }
                _ => unreachable!(),
            });
        }
        let lv = self.eval(l)?;
        let rv = self.eval(r)?;
        let lt = self.tm.value_type(l.id);
        let rt_ = self.tm.value_type(r.id);
        self.apply_op(op, lv, rv, &lt, &rt_, e.line)
    }

    /// Applies `op` to operand values of types `lt` / `rt_` (used by both
    /// `a op b` and `a op= b`).
    fn apply_op(
        &self,
        op: BinOp,
        lv: Value,
        rv: Value,
        lt: &Type,
        rt_: &Type,
        line: u32,
    ) -> Result<Value> {
        // Pointer arithmetic.
        if matches!(op, BinOp::Add | BinOp::Sub) {
            match (&lv, &rv) {
                (Value::Ptr(p), Value::Int(n, _)) => {
                    let elem = lt.decay();
                    let elem = elem.pointee().cloned().unwrap_or(Type::Int(IntKind::Char));
                    let size = self.tm.layout.size_of(&elem).unwrap_or(1) as i64;
                    let n = if op == BinOp::Sub { -*n } else { *n };
                    return Ok(Value::Ptr(p.offset(n * size)));
                }
                (Value::Int(n, _), Value::Ptr(p)) if op == BinOp::Add => {
                    let elem = rt_.decay();
                    let elem = elem.pointee().cloned().unwrap_or(Type::Int(IntKind::Char));
                    let size = self.tm.layout.size_of(&elem).unwrap_or(1) as i64;
                    return Ok(Value::Ptr(p.offset(*n * size)));
                }
                (Value::Ptr(a), Value::Ptr(b)) if op == BinOp::Sub => {
                    if a.seg != b.seg {
                        return Err(MiniCError::new(
                            ErrorKind::Runtime,
                            "pointer difference across objects",
                            line,
                        ));
                    }
                    let elem = lt.decay();
                    let elem = elem.pointee().cloned().unwrap_or(Type::Int(IntKind::Char));
                    let size = self.tm.layout.size_of(&elem).unwrap_or(1) as i64;
                    return Ok(Value::of_kind((a.off - b.off) / size.max(1), IntKind::Long));
                }
                _ => {}
            }
        }
        // Pointer comparisons.
        if op.is_comparison() && (matches!(lv, Value::Ptr(_)) || matches!(rv, Value::Ptr(_))) {
            let a = pack_val(&lv);
            let b = pack_val(&rv);
            let res = match op {
                BinOp::Eq => a == b,
                BinOp::Ne => a != b,
                BinOp::Lt => a < b,
                BinOp::Le => a <= b,
                BinOp::Gt => a > b,
                BinOp::Ge => a >= b,
                _ => unreachable!(),
            };
            return Ok(Value::int(res as i64));
        }
        // Floating arithmetic when either side is floating.
        if matches!(lv, Value::F32(_) | Value::F64(_))
            || matches!(rv, Value::F32(_) | Value::F64(_))
        {
            let use_f32 = matches!((&lv, &rv), (Value::F32(_), Value::F32(_)))
                || (matches!(lv, Value::F32(_)) && matches!(rv, Value::Int(..)))
                || (matches!(rv, Value::F32(_)) && matches!(lv, Value::Int(..)));
            let a = lv.as_f64();
            let b = rv.as_f64();
            let fres = |x: f64| if use_f32 { Value::F32(x as f32) } else { Value::F64(x) };
            return Ok(match op {
                BinOp::Add => fres(a + b),
                BinOp::Sub => fres(a - b),
                BinOp::Mul => fres(a * b),
                BinOp::Div => fres(a / b),
                BinOp::Lt => Value::int((a < b) as i64),
                BinOp::Le => Value::int((a <= b) as i64),
                BinOp::Gt => Value::int((a > b) as i64),
                BinOp::Ge => Value::int((a >= b) as i64),
                BinOp::Eq => Value::int((a == b) as i64),
                BinOp::Ne => Value::int((a != b) as i64),
                _ => return Err(MiniCError::new(ErrorKind::Runtime, "float bit op", line)),
            });
        }
        // Integer arithmetic in the common kind.
        let (Value::Int(a0, ka), Value::Int(b0, kb)) = (lv, rv) else {
            return Err(MiniCError::new(ErrorKind::Runtime, "type confusion in binop", line));
        };
        let common = ka.common(kb);
        let a = common.wrap(a0);
        let b = common.wrap(b0);
        let unsigned = !common.signed();
        let au = a as u64 & mask_for(common);
        let bu = b as u64 & mask_for(common);
        let result = match op {
            BinOp::Add => Value::of_kind(a.wrapping_add(b), common),
            BinOp::Sub => Value::of_kind(a.wrapping_sub(b), common),
            BinOp::Mul => Value::of_kind(a.wrapping_mul(b), common),
            BinOp::Div => {
                if b == 0 {
                    return Err(MiniCError::new(ErrorKind::Runtime, "division by zero", line));
                }
                if unsigned {
                    Value::of_kind((au / bu.max(1)) as i64, common)
                } else {
                    Value::of_kind(a.wrapping_div(b), common)
                }
            }
            BinOp::Rem => {
                if b == 0 {
                    return Err(MiniCError::new(ErrorKind::Runtime, "modulo by zero", line));
                }
                if unsigned {
                    Value::of_kind((au % bu.max(1)) as i64, common)
                } else {
                    Value::of_kind(a.wrapping_rem(b), common)
                }
            }
            BinOp::Shl => {
                // Result kind follows the (promoted) left operand in C.
                let k = ka.promote();
                let sh = (b as u32) & (k.size() as u32 * 8 - 1);
                Value::of_kind((k.wrap(a0) as u64).wrapping_shl(sh) as i64, k)
            }
            BinOp::Shr => {
                let k = ka.promote();
                let sh = (b as u32) & (k.size() as u32 * 8 - 1);
                if k.signed() {
                    Value::of_kind(k.wrap(a0).wrapping_shr(sh), k)
                } else {
                    let raw = (k.wrap(a0) as u64) & mask_for(k);
                    Value::of_kind(raw.wrapping_shr(sh) as i64, k)
                }
            }
            BinOp::BitAnd => Value::of_kind(a & b, common),
            BinOp::BitOr => Value::of_kind(a | b, common),
            BinOp::BitXor => Value::of_kind(a ^ b, common),
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne => {
                let res = if unsigned {
                    match op {
                        BinOp::Lt => au < bu,
                        BinOp::Le => au <= bu,
                        BinOp::Gt => au > bu,
                        BinOp::Ge => au >= bu,
                        BinOp::Eq => au == bu,
                        _ => au != bu,
                    }
                } else {
                    match op {
                        BinOp::Lt => a < b,
                        BinOp::Le => a <= b,
                        BinOp::Gt => a > b,
                        BinOp::Ge => a >= b,
                        BinOp::Eq => a == b,
                        _ => a != b,
                    }
                };
                Value::int(res as i64)
            }
            BinOp::LogAnd | BinOp::LogOr => unreachable!("handled by caller"),
        };
        Ok(result)
    }

    fn eval_lvalue(&mut self, e: &Expr) -> Result<(Pointer, Type)> {
        self.burn(e.line)?;
        match &e.kind {
            ExprKind::Ident(name) => {
                if let Some(slot) = self.lookup(name) {
                    return Ok((slot.ptr, slot.ty));
                }
                Err(MiniCError::new(
                    ErrorKind::Runtime,
                    format!("unknown variable `{name}`"),
                    e.line,
                ))
            }
            ExprKind::Unary(UnOp::Deref, inner) => {
                let v = self.eval(inner)?;
                let Value::Ptr(p) = v else {
                    return Err(MiniCError::new(
                        ErrorKind::Runtime,
                        "deref of non-pointer",
                        e.line,
                    ));
                };
                let ty = self.tm.type_of(e.id).clone();
                Ok((p, ty))
            }
            ExprKind::Index { base, index } => {
                let bv = self.eval(base)?;
                let iv = self.eval(index)?;
                // `2[arr]` support: pick whichever side is the pointer.
                let (p, n, pt) = match (bv, iv) {
                    (Value::Ptr(p), Value::Int(n, _)) => (p, n, self.tm.value_type(base.id)),
                    (Value::Int(n, _), Value::Ptr(p)) => (p, n, self.tm.value_type(index.id)),
                    _ => {
                        return Err(MiniCError::new(
                            ErrorKind::Runtime,
                            "index on non-pointer",
                            e.line,
                        ))
                    }
                };
                let elem = self.tm.type_of(e.id).clone();
                let size = self
                    .tm
                    .layout
                    .size_of(&elem)
                    .or_else(|| pt.pointee().and_then(|t| self.tm.layout.size_of(t)))
                    .ok_or_else(|| rt("indexing incomplete type"))?;
                Ok((p.offset(n * size as i64), elem))
            }
            ExprKind::Member { base, field, arrow } => {
                let (base_ptr, sname) = if *arrow {
                    let v = self.eval(base)?;
                    let Value::Ptr(p) = v else {
                        return Err(MiniCError::new(
                            ErrorKind::Runtime,
                            "-> on non-pointer",
                            e.line,
                        ));
                    };
                    let bt = self.tm.value_type(base.id);
                    let Some(Type::Struct(s)) = bt.pointee().map(|t| self.tm.layout.resolve(t))
                    else {
                        return Err(MiniCError::new(
                            ErrorKind::Runtime,
                            "-> on non-struct pointer",
                            e.line,
                        ));
                    };
                    (p, s)
                } else {
                    let (p, ty) = self.eval_lvalue(base)?;
                    let Type::Struct(s) = self.tm.layout.resolve(&ty) else {
                        return Err(MiniCError::new(
                            ErrorKind::Runtime,
                            ". on non-struct",
                            e.line,
                        ));
                    };
                    (p, s)
                };
                let (off, fty) = self
                    .tm
                    .layout
                    .field_of(&sname, field)
                    .ok_or_else(|| rt(format!("no field `{field}`")))?;
                Ok((base_ptr.offset(off as i64), fty))
            }
            ExprKind::StrLit(_) => {
                let v = self.eval(e)?;
                Ok((v.as_ptr(), Type::Int(IntKind::Char)))
            }
            _ => {
                Err(MiniCError::new(ErrorKind::Runtime, "expression is not an lvalue", e.line))
            }
        }
    }

    fn lookup(&self, name: &str) -> Option<Slot> {
        if let Some(frame) = self.scopes.last() {
            for scope in frame.iter().rev() {
                if let Some(slot) = scope.get(name) {
                    return Some(slot.clone());
                }
            }
        }
        self.globals.get(name).cloned()
    }

    // ---- builtins ----

    /// Executes a libc builtin; returns `Ok(None)` if `name` is not one.
    fn call_builtin(&mut self, name: &str, args: &[Value]) -> Result<Option<Option<Value>>> {
        // A user-defined function shadows a builtin of the same name.
        if self.functions.contains_key(name) {
            return Ok(None);
        }
        let val = match name {
            "memcpy" | "memmove" => {
                let (d, s, n) = (ptr_arg(args, 0)?, ptr_arg(args, 1)?, args[2].as_i64());
                self.mem.copy(d, s, n as usize)?;
                Some(Value::Ptr(d))
            }
            "memset" => {
                let (d, c, n) = (ptr_arg(args, 0)?, args[1].as_i64(), args[2].as_i64());
                self.mem.fill(d, c as u8, n as usize)?;
                Some(Value::Ptr(d))
            }
            "memcmp" => {
                let a = self.mem.load_bytes(ptr_arg(args, 0)?, args[2].as_i64() as usize)?;
                let b = self.mem.load_bytes(ptr_arg(args, 1)?, args[2].as_i64() as usize)?;
                Some(Value::int(match a.cmp(&b) {
                    std::cmp::Ordering::Less => -1,
                    std::cmp::Ordering::Equal => 0,
                    std::cmp::Ordering::Greater => 1,
                }))
            }
            "strlen" => {
                let s = self.mem.load_cstr(ptr_arg(args, 0)?)?;
                Some(Value::of_kind(s.len() as i64, IntKind::ULong))
            }
            "strcpy" => {
                let s = self.mem.load_cstr(ptr_arg(args, 1)?)?;
                let d = ptr_arg(args, 0)?;
                self.mem.store_bytes(d, &s)?;
                self.mem.store_bytes(d.offset(s.len() as i64), &[0])?;
                Some(Value::Ptr(d))
            }
            "strncpy" => {
                let s = self.mem.load_cstr(ptr_arg(args, 1)?)?;
                let n = args[2].as_i64() as usize;
                let d = ptr_arg(args, 0)?;
                let mut buf = vec![0u8; n];
                let len = s.len().min(n);
                buf[..len].copy_from_slice(&s[..len]);
                self.mem.store_bytes(d, &buf)?;
                Some(Value::Ptr(d))
            }
            "strcmp" => {
                let a = self.mem.load_cstr(ptr_arg(args, 0)?)?;
                let b = self.mem.load_cstr(ptr_arg(args, 1)?)?;
                Some(Value::int(match a.cmp(&b) {
                    std::cmp::Ordering::Less => -1,
                    std::cmp::Ordering::Equal => 0,
                    std::cmp::Ordering::Greater => 1,
                }))
            }
            "strncmp" => {
                let n = args[2].as_i64() as usize;
                let mut a = self.mem.load_cstr(ptr_arg(args, 0)?)?;
                let mut b = self.mem.load_cstr(ptr_arg(args, 1)?)?;
                a.truncate(n);
                b.truncate(n);
                Some(Value::int(match a.cmp(&b) {
                    std::cmp::Ordering::Less => -1,
                    std::cmp::Ordering::Equal => 0,
                    std::cmp::Ordering::Greater => 1,
                }))
            }
            "strcat" => {
                let d = ptr_arg(args, 0)?;
                let dl = self.mem.load_cstr(d)?.len();
                let s = self.mem.load_cstr(ptr_arg(args, 1)?)?;
                self.mem.store_bytes(d.offset(dl as i64), &s)?;
                self.mem.store_bytes(d.offset((dl + s.len()) as i64), &[0])?;
                Some(Value::Ptr(d))
            }
            "strchr" => {
                let s = self.mem.load_cstr(ptr_arg(args, 0)?)?;
                let c = args[1].as_i64() as u8;
                match s.iter().position(|&b| b == c) {
                    Some(i) => Some(Value::Ptr(ptr_arg(args, 0)?.offset(i as i64))),
                    None => Some(Value::Ptr(Pointer::null())),
                }
            }
            "abs" => Some(Value::int((args[0].as_i64() as i32).wrapping_abs() as i64)),
            "labs" => Some(Value::long(args[0].as_i64().wrapping_abs())),
            "fabs" => Some(Value::F64(args[0].as_f64().abs())),
            "fabsf" => Some(Value::F32(args[0].as_f64().abs() as f32)),
            "sqrt" => Some(Value::F64(args[0].as_f64().sqrt())),
            "sqrtf" => Some(Value::F32((args[0].as_f64() as f32).sqrt())),
            "sin" => Some(Value::F64(args[0].as_f64().sin())),
            "cos" => Some(Value::F64(args[0].as_f64().cos())),
            "tan" => Some(Value::F64(args[0].as_f64().tan())),
            "exp" => Some(Value::F64(args[0].as_f64().exp())),
            "log" => Some(Value::F64(args[0].as_f64().ln())),
            "pow" => Some(Value::F64(args[0].as_f64().powf(args[1].as_f64()))),
            "floor" => Some(Value::F64(args[0].as_f64().floor())),
            "ceil" => Some(Value::F64(args[0].as_f64().ceil())),
            "fmod" => Some(Value::F64(args[0].as_f64() % args[1].as_f64())),
            "fmin" => Some(Value::F64(args[0].as_f64().min(args[1].as_f64()))),
            "fmax" => Some(Value::F64(args[0].as_f64().max(args[1].as_f64()))),
            "isdigit" => {
                Some(Value::int((args[0].as_i64() as u8 as char).is_ascii_digit() as i64))
            }
            "isalpha" => {
                Some(Value::int((args[0].as_i64() as u8 as char).is_ascii_alphabetic() as i64))
            }
            "isspace" => {
                Some(Value::int((args[0].as_i64() as u8 as char).is_ascii_whitespace() as i64))
            }
            "isupper" => {
                Some(Value::int((args[0].as_i64() as u8 as char).is_ascii_uppercase() as i64))
            }
            "islower" => {
                Some(Value::int((args[0].as_i64() as u8 as char).is_ascii_lowercase() as i64))
            }
            "toupper" => Some(Value::int((args[0].as_i64() as u8).to_ascii_uppercase() as i64)),
            "tolower" => Some(Value::int((args[0].as_i64() as u8).to_ascii_lowercase() as i64)),
            // Output builtins are no-ops that return plausible values; the
            // IO harness compares memory and return values, not stdout.
            "putchar" => Some(Value::int(args[0].as_i64())),
            "printf" => Some(Value::int(0)),
            _ => return Ok(None),
        };
        Ok(Some(val))
    }
}

/// Argument `i` of a builtin that takes a pointer there; anything but a
/// pointer is a runtime error, never a panic.
fn ptr_arg(args: &[Value], i: usize) -> Result<Pointer> {
    match args.get(i) {
        Some(Value::Ptr(p)) => Ok(*p),
        other => Err(rt(format!("builtin argument {i} is not a pointer: {other:?}"))),
    }
}

fn find_label(stmts: &[Stmt], label: &str) -> Option<usize> {
    stmts
        .iter()
        .position(|s| matches!(&s.kind, StmtKind::Labeled { label: l, .. } if l == label))
}

fn rt(msg: impl Into<Diag>) -> MiniCError {
    MiniCError::new(ErrorKind::Runtime, msg, 0)
}

fn pack_ptr(p: Pointer) -> u64 {
    ((p.seg as u64) << 32) | (p.off as u64 & 0xffff_ffff)
}

fn unpack_ptr(raw: u64) -> Pointer {
    Pointer { seg: (raw >> 32) as u32, off: (raw & 0xffff_ffff) as i64 }
}

fn pack_val(v: &Value) -> u64 {
    match v {
        Value::Ptr(p) => pack_ptr(*p),
        Value::Int(x, _) => *x as u64,
        Value::F32(x) => *x as u64,
        Value::F64(x) => *x as u64,
    }
}

fn mask_for(k: IntKind) -> u64 {
    if k.size() >= 8 {
        u64::MAX
    } else {
        (1u64 << (k.size() * 8)) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    fn run(src: &str, func: &str, args: &[Value]) -> Result<Option<Value>> {
        let p = parse_program(src)?;
        let mut i = Interpreter::new(&p)?;
        Ok(i.call(func, args)?.ret)
    }

    fn run_i64(src: &str, func: &str, args: &[Value]) -> i64 {
        run(src, func, args).unwrap().unwrap().as_i64()
    }

    #[test]
    fn arithmetic_and_control_flow() {
        let src = r#"
            int fact(int n) { int r = 1; while (n > 1) { r *= n; n -= 1; } return r; }
        "#;
        assert_eq!(run_i64(src, "fact", &[Value::int(6)]), 720);
    }

    #[test]
    fn recursion() {
        let src = "int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }";
        assert_eq!(run_i64(src, "fib", &[Value::int(10)]), 55);
    }

    #[test]
    fn pointers_and_arrays() {
        let src = r#"
            int sum(int *a, int n) {
                int s = 0;
                for (int i = 0; i < n; i++) s += a[i];
                return s;
            }
            int driver(void) {
                int buf[5] = {1, 2, 3, 4, 5};
                return sum(buf, 5);
            }
        "#;
        assert_eq!(run_i64(src, "driver", &[]), 15);
    }

    #[test]
    fn pointer_writes_visible_to_caller() {
        let src = r#"
            void add(int *list, int val, int n) {
                int i;
                for (i = 0; i < n; ++i) list[i] += val;
            }
            int driver(void) {
                int a[3] = {1, 2, 3};
                add(a, 10, 3);
                return a[0] + a[1] + a[2];
            }
        "#;
        assert_eq!(run_i64(src, "driver", &[]), 36);
    }

    #[test]
    fn structs_and_member_access() {
        let src = r#"
            struct point { int x; int y; };
            int dot(struct point *a, struct point *b) { return a->x * b->x + a->y * b->y; }
            int driver(void) {
                struct point p; struct point q;
                p.x = 1; p.y = 2; q.x = 3; q.y = 4;
                return dot(&p, &q);
            }
        "#;
        assert_eq!(run_i64(src, "driver", &[]), 11);
    }

    #[test]
    fn struct_assignment_copies() {
        let src = r#"
            struct s { int a; int b; };
            int driver(void) {
                struct s x; struct s y;
                x.a = 7; x.b = 9;
                y = x;
                x.a = 0;
                return y.a + y.b;
            }
        "#;
        assert_eq!(run_i64(src, "driver", &[]), 16);
    }

    #[test]
    fn globals_and_initializers() {
        let src = r#"
            int table[4] = {10, 20, 30, 40};
            int counter = 5;
            int next(void) { counter++; return table[counter - 6]; }
        "#;
        let p = parse_program(src).unwrap();
        let mut i = Interpreter::new(&p).unwrap();
        assert_eq!(i.call("next", &[]).unwrap().ret.unwrap().as_i64(), 10);
        assert_eq!(i.call("next", &[]).unwrap().ret.unwrap().as_i64(), 20);
    }

    #[test]
    fn unsigned_semantics() {
        let src = "unsigned f(unsigned a, unsigned b) { return a / b; }";
        let big = Value::of_kind(-4_i64, IntKind::UInt); // 0xfffffffc
        assert_eq!(
            run(src, "f", &[big, Value::of_kind(2, IntKind::UInt)]).unwrap().unwrap().as_i64(),
            0x7ffffffe
        );
        let src2 = "int f(unsigned a, int b) { return a > b; }";
        // -1 as unsigned is huge, so 0u > -1 is false but 0xffffffffu > 1.
        assert_eq!(run_i64(src2, "f", &[Value::of_kind(-1, IntKind::UInt), Value::int(1)]), 1);
    }

    #[test]
    fn char_wrapping() {
        let src = "int f(void) { char c = 200; return c; }";
        assert_eq!(run_i64(src, "f", &[]), 200u8 as i8 as i64);
    }

    #[test]
    fn shifts_mask_like_hardware() {
        let src = "int f(int a, int b) { return a << b; }";
        assert_eq!(run_i64(src, "f", &[Value::int(1), Value::int(33)]), 2);
    }

    #[test]
    fn division_by_zero_is_runtime_error() {
        let src = "int f(int a) { return 10 / a; }";
        let err = run(src, "f", &[Value::int(0)]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Runtime);
    }

    #[test]
    fn infinite_loop_times_out() {
        let src = "int f(void) { while (1) {} return 0; }";
        let p = parse_program(src).unwrap();
        let mut i =
            Interpreter::with_limits(&p, RunLimits { fuel: 10_000, max_depth: 10 }).unwrap();
        let err = i.call("f", &[]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Timeout);
    }

    #[test]
    fn string_builtins() {
        let src = r#"
            int f(void) {
                char buf[16];
                strcpy(buf, "hello");
                strcat(buf, "!");
                return strlen(buf);
            }
        "#;
        assert_eq!(run_i64(src, "f", &[]), 6);
    }

    #[test]
    fn memcpy_through_void_pointers() {
        let src = r#"
            int f(void) {
                int a[2] = {3, 4};
                int b[2];
                memcpy(b, a, 2 * sizeof(int));
                return b[0] * b[1];
            }
        "#;
        assert_eq!(run_i64(src, "f", &[]), 12);
    }

    #[test]
    fn goto_forward_and_backward() {
        let src = r#"
            int f(int n) {
                int s = 0;
              again:
                s += n;
                n -= 1;
                if (n > 0) goto again;
                if (s > 100) goto big;
                return s;
              big:
                return 100;
            }
        "#;
        assert_eq!(run_i64(src, "f", &[Value::int(4)]), 10);
        assert_eq!(run_i64(src, "f", &[Value::int(50)]), 100);
    }

    #[test]
    fn ternary_and_comma() {
        let src = "int f(int a) { int b = (a > 0) ? a : -a; return (b += 1, b * 2); }";
        assert_eq!(run_i64(src, "f", &[Value::int(-5)]), 12);
    }

    #[test]
    fn float_arithmetic() {
        let src = "double f(double x, double y) { return x * y + 0.5; }";
        let out = run(src, "f", &[Value::F64(2.0), Value::F64(3.0)]).unwrap().unwrap();
        assert_eq!(out.as_f64(), 6.5);
    }

    #[test]
    fn float_int_mixing() {
        let src = "int f(int n) { float x = n; x = x / 2; return (int)x; }";
        assert_eq!(run_i64(src, "f", &[Value::int(7)]), 3);
    }

    #[test]
    fn harness_buffer_roundtrip() {
        let src = "void dbl(int *p, int n) { for (int i = 0; i < n; i++) p[i] *= 2; }";
        let p = parse_program(src).unwrap();
        let mut interp = Interpreter::new(&p).unwrap();
        let mut bytes = Vec::new();
        for v in [1i32, 2, 3] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let buf = interp.alloc_buffer(&bytes);
        interp.call("dbl", &[Value::Ptr(buf), Value::int(3)]).unwrap();
        let out = interp.read_buffer(buf, 12).unwrap();
        let vals: Vec<i32> =
            out.chunks(4).map(|c| i32::from_le_bytes(c.try_into().unwrap())).collect();
        assert_eq!(vals, vec![2, 4, 6]);
    }

    #[test]
    fn out_of_bounds_faults_at_runtime() {
        let src = r#"
            int f(void) { int a[2] = {1, 2}; return a[5]; }
        "#;
        let err = run(src, "f", &[]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Runtime);
    }

    #[test]
    fn undefined_function_call_fails() {
        let src = "int f(int x) { return mystery(x); }";
        let err = run(src, "f", &[Value::int(1)]).unwrap_err();
        assert!(err.message().contains("undefined function"));
    }

    #[test]
    fn locals_freed_on_scope_exit() {
        let src = r#"
            int f(int n) {
                int total = 0;
                for (int i = 0; i < n; i++) { int tmp = i * 2; total += tmp; }
                return total;
            }
        "#;
        assert_eq!(run_i64(src, "f", &[Value::int(4)]), 12);
    }

    #[test]
    fn pointer_difference() {
        let src = "long f(int *a) { int *b = a + 3; return b - a; }";
        let p = parse_program(src).unwrap();
        let mut interp = Interpreter::new(&p).unwrap();
        let buf = interp.alloc_buffer(&[0u8; 16]);
        let out = interp.call("f", &[Value::Ptr(buf)]).unwrap().ret.unwrap();
        assert_eq!(out.as_i64(), 3);
    }

    #[test]
    fn sizeof_expressions() {
        let src = "long f(void) { int a[7]; return sizeof(a) + sizeof(long) + sizeof a[0]; }";
        assert_eq!(run_i64(src, "f", &[]), 28 + 8 + 4);
    }

    #[test]
    fn switch_dispatch_and_fallthrough() {
        let src = r#"
            int f(int x) {
                int r = 0;
                switch (x) {
                    case 1: r = 10; break;
                    case 2: r = 20;
                    case 3: r += 1; break;
                    default: r = -1;
                }
                return r;
            }
        "#;
        assert_eq!(run_i64(src, "f", &[Value::int(1)]), 10);
        assert_eq!(run_i64(src, "f", &[Value::int(2)]), 21, "fallthrough 2 -> 3");
        assert_eq!(run_i64(src, "f", &[Value::int(3)]), 1);
        assert_eq!(run_i64(src, "f", &[Value::int(9)]), -1);
    }

    #[test]
    fn switch_without_default_falls_through_silently() {
        let src = "int f(int x) { int r = 5; switch (x) { case 1: r = 1; break; } return r; }";
        assert_eq!(run_i64(src, "f", &[Value::int(7)]), 5);
    }

    #[test]
    fn postfix_vs_prefix() {
        let src = "int f(int x) { int a = x++; int b = ++x; return a * 100 + b * 10 + x; }";
        // a = 5, x = 7 after ++x, b = 7.
        assert_eq!(run_i64(src, "f", &[Value::int(5)]), 500 + 70 + 7);
    }
}
