//! Lowering from type-checked MiniC to the three-address IR.
//!
//! Every local variable (and every value that merges across control flow —
//! ternaries, `&&`/`||`) is given a stack slot, which keeps the IR phi-free.
//! At `-O0` this is exactly the code GCC emits; at `-O3` the pass pipeline
//! plus register allocation recovers register-resident values.

use crate::ir::*;
use crate::{CompileError, CompileOpts, OptLevel, Result};
use slade_minic::ast::{BinOp, Child, Expr, ExprKind, Function, IncDec, Stmt, StmtKind, UnOp};
use slade_minic::sema::TypeMap;
use slade_minic::types::{IntKind, Type};
use slade_minic::{parse_program, pretty_program, Program, Sema};
use std::collections::HashMap;

/// Lowers the named function of `program`, typed by `tm`, to IR, applying
/// `-O3` source-level loop transforms (unrolling, vectorization) first when
/// requested.
///
/// # Errors
///
/// Fails on unsupported constructs (struct-by-value parameters, unknown
/// locals) — mirroring what a backend would reject.
pub fn lower_function(
    program: &Program,
    tm: &TypeMap,
    name: &str,
    opts: CompileOpts,
) -> Result<Module> {
    if opts.opt == OptLevel::O3 {
        if let Some(transformed) =
            crate::looptrans::transform_program(program, tm, name, opts.isa)
        {
            // The rewritten loops' nodes have no ids yet: print, re-parse and
            // re-check so every node is numbered and typed.
            let reparsed = parse_program(&pretty_program(&transformed))?;
            return lower_checked(&reparsed, &Sema::check(&reparsed)?, name);
        }
    }
    lower_checked(program, tm, name)
}

fn lower_checked(program: &Program, tm: &TypeMap, name: &str) -> Result<Module> {
    let f =
        program.function(name).ok_or_else(|| CompileError::NoSuchFunction(name.to_string()))?;
    Lowerer::new(tm).lower(f)
}

/// Where a named variable lives.
#[derive(Debug, Clone)]
enum Place {
    Slot(SlotId, Type),
    Global(String, Type),
}

struct Lowerer<'a> {
    tm: &'a TypeMap,
    module: Module,
    cur: BlockId,
    terminated: bool,
    vars: Vec<HashMap<String, Place>>,
    break_stack: Vec<BlockId>,
    continue_stack: Vec<BlockId>,
    labels: HashMap<String, BlockId>,
    str_labels: HashMap<Vec<u8>, String>,
}

impl<'a> Lowerer<'a> {
    fn new(tm: &'a TypeMap) -> Self {
        Lowerer {
            tm,
            module: Module {
                name: String::new(),
                params: Vec::new(),
                ret_ty: None,
                blocks: Vec::new(),
                vreg_tys: Vec::new(),
                slots: Vec::new(),
                rodata: Vec::new(),
                extern_globals: Vec::new(),
            },
            cur: 0,
            terminated: false,
            vars: Vec::new(),
            break_stack: Vec::new(),
            continue_stack: Vec::new(),
            labels: HashMap::new(),
            str_labels: HashMap::new(),
        }
    }

    fn lower(mut self, f: &Function) -> Result<Module> {
        self.module.name = f.name.clone();
        self.module.ret_ty = machine_ty(&self.tm.layout.resolve(&f.ret));
        self.new_block();
        self.vars.push(HashMap::new());
        // Parameters arrive in vregs; O0-style, spill each into a slot.
        for (pname, pty) in &f.params {
            let rty = self.tm.layout.resolve(pty).decay();
            let mty = machine_ty(&rty).ok_or_else(|| {
                CompileError::Unsupported(format!("parameter `{pname}` of type `{rty}`"))
            })?;
            if matches!(rty, Type::Struct(_)) {
                return Err(CompileError::Unsupported(format!(
                    "struct-by-value parameter `{pname}`"
                )));
            }
            let vreg = self.module.new_vreg(mty);
            self.module.params.push((vreg, mty));
            let slot = self.new_slot(mty.size().max(1), mty.size().max(1), pname);
            let addr = self.emit_slot_addr(slot);
            self.emit(Inst::Store { addr, src: vreg, ty: mty });
            self.vars.last_mut().unwrap().insert(pname.clone(), Place::Slot(slot, rty));
        }
        let body = f.body.as_ref().expect("definition");
        self.prescan_labels(body);
        self.lower_stmt(body)?;
        if !self.terminated {
            let term = match self.module.ret_ty {
                None => Term::Ret(None),
                Some(ty) => {
                    // Fall-off-the-end of a non-void function returns 0.
                    let z = self.module.new_vreg(ty);
                    let inst = if ty.is_float() {
                        Inst::FConst { dst: z, val: 0.0, ty }
                    } else {
                        Inst::IConst { dst: z, val: 0, ty }
                    };
                    self.emit(inst);
                    Term::Ret(Some(z))
                }
            };
            self.set_term(term);
        }
        Ok(self.module)
    }

    // ---- plumbing ----

    fn new_block(&mut self) -> BlockId {
        self.module.blocks.push(Block { insts: Vec::new(), term: Term::Ret(None) });
        (self.module.blocks.len() - 1) as BlockId
    }

    fn switch_to(&mut self, b: BlockId) {
        self.cur = b;
        self.terminated = false;
    }

    fn emit(&mut self, inst: Inst) {
        if !self.terminated {
            self.module.blocks[self.cur as usize].insts.push(inst);
        }
    }

    fn set_term(&mut self, term: Term) {
        if !self.terminated {
            self.module.blocks[self.cur as usize].term = term;
            self.terminated = true;
        }
    }

    fn new_slot(&mut self, size: usize, align: usize, name: &str) -> SlotId {
        self.module.slots.push(Slot { size, align, name: name.to_string() });
        (self.module.slots.len() - 1) as SlotId
    }

    fn emit_slot_addr(&mut self, slot: SlotId) -> VReg {
        let dst = self.module.new_vreg(Ty::I64);
        self.emit(Inst::SlotAddr { dst, slot });
        dst
    }

    fn iconst(&mut self, val: i64, ty: Ty) -> VReg {
        let dst = self.module.new_vreg(ty);
        self.emit(Inst::IConst { dst, val, ty });
        dst
    }

    fn prescan_labels(&mut self, stmt: &Stmt) {
        if let StmtKind::Labeled { label, .. } = &stmt.kind {
            if !self.labels.contains_key(label) {
                let b = self.new_block();
                self.labels.insert(label.clone(), b);
            }
        }
        stmt.for_each_child(|c| {
            if let Child::Stmt(s) = c {
                self.prescan_labels(s);
            }
        });
    }

    fn lookup(&self, name: &str) -> Option<Place> {
        for scope in self.vars.iter().rev() {
            if let Some(p) = scope.get(name) {
                return Some(p.clone());
            }
        }
        self.tm.globals.get(name).map(|t| Place::Global(name.to_string(), t.clone()))
    }

    // ---- statements ----

    fn lower_stmt(&mut self, stmt: &Stmt) -> Result<()> {
        match &stmt.kind {
            StmtKind::Block(stmts) => {
                self.vars.push(HashMap::new());
                for s in stmts {
                    self.lower_stmt(s)?;
                }
                self.vars.pop();
                Ok(())
            }
            StmtKind::Decl { name, ty, init } => {
                let rty = self.tm.layout.resolve(ty);
                let size = self.tm.layout.size_of(&rty).ok_or_else(|| {
                    CompileError::Unsupported(format!("sizeless local `{name}`"))
                })?;
                let align = self.tm.layout.align_of(&rty).unwrap_or(8);
                let slot = self.new_slot(size, align, name);
                self.vars
                    .last_mut()
                    .unwrap()
                    .insert(name.clone(), Place::Slot(slot, rty.clone()));
                if let Some(init) = init {
                    self.lower_initializer(slot, &rty, init)?;
                }
                Ok(())
            }
            StmtKind::Expr(e) => {
                self.lower_expr(e)?;
                Ok(())
            }
            StmtKind::If { cond, then_branch, else_branch } => {
                let c = self.lower_expr(cond)?;
                let then_bb = self.new_block();
                let end_bb = self.new_block();
                let else_bb = if else_branch.is_some() { self.new_block() } else { end_bb };
                self.set_term(Term::Br { cond: c, then_bb, else_bb });
                self.switch_to(then_bb);
                self.lower_stmt(then_branch)?;
                self.set_term(Term::Jmp(end_bb));
                if let Some(els) = else_branch {
                    self.switch_to(else_bb);
                    self.lower_stmt(els)?;
                    self.set_term(Term::Jmp(end_bb));
                }
                self.switch_to(end_bb);
                Ok(())
            }
            StmtKind::While { cond, body } => {
                let head = self.new_block();
                let body_bb = self.new_block();
                let end = self.new_block();
                self.set_term(Term::Jmp(head));
                self.switch_to(head);
                let c = self.lower_expr(cond)?;
                self.set_term(Term::Br { cond: c, then_bb: body_bb, else_bb: end });
                self.break_stack.push(end);
                self.continue_stack.push(head);
                self.switch_to(body_bb);
                self.lower_stmt(body)?;
                self.set_term(Term::Jmp(head));
                self.break_stack.pop();
                self.continue_stack.pop();
                self.switch_to(end);
                Ok(())
            }
            StmtKind::DoWhile { body, cond } => {
                let body_bb = self.new_block();
                let check = self.new_block();
                let end = self.new_block();
                self.set_term(Term::Jmp(body_bb));
                self.break_stack.push(end);
                self.continue_stack.push(check);
                self.switch_to(body_bb);
                self.lower_stmt(body)?;
                self.set_term(Term::Jmp(check));
                self.switch_to(check);
                let c = self.lower_expr(cond)?;
                self.set_term(Term::Br { cond: c, then_bb: body_bb, else_bb: end });
                self.break_stack.pop();
                self.continue_stack.pop();
                self.switch_to(end);
                Ok(())
            }
            StmtKind::For { init, cond, step, body } => {
                self.vars.push(HashMap::new());
                if let Some(init) = init {
                    self.lower_stmt(init)?;
                }
                let head = self.new_block();
                let body_bb = self.new_block();
                let step_bb = self.new_block();
                let end = self.new_block();
                self.set_term(Term::Jmp(head));
                self.switch_to(head);
                match cond {
                    Some(c) => {
                        let cv = self.lower_expr(c)?;
                        self.set_term(Term::Br { cond: cv, then_bb: body_bb, else_bb: end });
                    }
                    None => self.set_term(Term::Jmp(body_bb)),
                }
                self.break_stack.push(end);
                self.continue_stack.push(step_bb);
                self.switch_to(body_bb);
                self.lower_stmt(body)?;
                self.set_term(Term::Jmp(step_bb));
                self.switch_to(step_bb);
                if let Some(step) = step {
                    self.lower_expr(step)?;
                }
                self.set_term(Term::Jmp(head));
                self.break_stack.pop();
                self.continue_stack.pop();
                self.vars.pop();
                self.switch_to(end);
                Ok(())
            }
            StmtKind::Return(value) => {
                match value {
                    Some(e) => {
                        let v = self.lower_expr(e)?;
                        let want = self.module.ret_ty;
                        let from = self.tm.value_type(e.id);
                        let v = want.map(|ty| self.convert_machine(v, &from, ty));
                        self.set_term(Term::Ret(v));
                    }
                    None => self.set_term(Term::Ret(None)),
                }
                // Subsequent statements in this block are unreachable.
                let dead = self.new_block();
                self.switch_to(dead);
                self.terminated = false;
                Ok(())
            }
            StmtKind::Switch { scrutinee, arms } => {
                let v = self.lower_expr(scrutinee)?;
                let vt = self.tm.value_type(scrutinee.id);
                let v = self.convert(v, &vt, &Type::Int(IntKind::Int));
                let end = self.new_block();
                // One body block per arm (fallthrough = jump to next body).
                let body_blocks: Vec<BlockId> = arms.iter().map(|_| self.new_block()).collect();
                // Dispatch chain.
                let mut default_target = end;
                for ((label, _), bb) in arms.iter().zip(&body_blocks) {
                    match label {
                        Some(val) => {
                            let k = self.iconst(*val, Ty::I32);
                            let c = self.module.new_vreg(Ty::I32);
                            self.emit(Inst::Cmp {
                                pred: Pred::Eq,
                                dst: c,
                                a: v,
                                b: k,
                                ty: Ty::I32,
                            });
                            let next_test = self.new_block();
                            self.set_term(Term::Br {
                                cond: c,
                                then_bb: *bb,
                                else_bb: next_test,
                            });
                            self.switch_to(next_test);
                        }
                        None => default_target = *bb,
                    }
                }
                self.set_term(Term::Jmp(default_target));
                // Arm bodies with fallthrough.
                self.break_stack.push(end);
                for (i, (_, body)) in arms.iter().enumerate() {
                    self.switch_to(body_blocks[i]);
                    self.vars.push(HashMap::new());
                    for st in body {
                        self.lower_stmt(st)?;
                    }
                    self.vars.pop();
                    let next = body_blocks.get(i + 1).copied().unwrap_or(end);
                    self.set_term(Term::Jmp(next));
                }
                self.break_stack.pop();
                self.switch_to(end);
                Ok(())
            }
            StmtKind::Break => {
                let Some(&target) = self.break_stack.last() else {
                    return Err(CompileError::Unsupported("break outside loop".into()));
                };
                self.set_term(Term::Jmp(target));
                let dead = self.new_block();
                self.switch_to(dead);
                Ok(())
            }
            StmtKind::Continue => {
                let Some(&target) = self.continue_stack.last() else {
                    return Err(CompileError::Unsupported("continue outside loop".into()));
                };
                self.set_term(Term::Jmp(target));
                let dead = self.new_block();
                self.switch_to(dead);
                Ok(())
            }
            StmtKind::Goto(label) => {
                let Some(&target) = self.labels.get(label) else {
                    return Err(CompileError::Unsupported(format!(
                        "goto unknown label `{label}`"
                    )));
                };
                self.set_term(Term::Jmp(target));
                let dead = self.new_block();
                self.switch_to(dead);
                Ok(())
            }
            StmtKind::Labeled { label, stmt } => {
                let Some(&target) = self.labels.get(label) else {
                    return Err(CompileError::Unsupported(format!("label `{label}`")));
                };
                self.set_term(Term::Jmp(target));
                self.switch_to(target);
                self.lower_stmt(stmt)
            }
            StmtKind::Empty => Ok(()),
        }
    }

    fn lower_initializer(&mut self, slot: SlotId, ty: &Type, init: &Expr) -> Result<()> {
        if let ExprKind::Call { callee, args } = &init.kind {
            if callee == "__init_list" {
                let Type::Array(elem, n) = ty else {
                    return Err(CompileError::Unsupported("brace init of non-array".into()));
                };
                let esize = self.tm.layout.size_of(elem).unwrap_or(1);
                let base = self.emit_slot_addr(slot);
                for (i, a) in args.iter().enumerate() {
                    let v = self.lower_expr(a)?;
                    let from = self.tm.value_type(a.id);
                    let (mty, v) = self.convert_for_store(v, &from, elem);
                    let off = self.iconst((i * esize) as i64, Ty::I64);
                    let addr = self.bin(IrBinOp::Add, base, off, Ty::I64);
                    self.emit(Inst::Store { addr, src: v, ty: mty });
                }
                // Zero-fill the tail, as C does for partial initializers.
                if args.len() < *n {
                    let zero = self.iconst(0, Ty::I32);
                    for i in args.len()..*n {
                        let mty = machine_ty(elem).unwrap_or(Ty::I32);
                        let off = self.iconst((i * esize) as i64, Ty::I64);
                        let addr = self.bin(IrBinOp::Add, base, off, Ty::I64);
                        let z = if mty.is_float() {
                            let fz = self.module.new_vreg(mty);
                            self.emit(Inst::FConst { dst: fz, val: 0.0, ty: mty });
                            fz
                        } else {
                            zero
                        };
                        self.emit(Inst::Store { addr, src: z, ty: mty });
                    }
                }
                return Ok(());
            }
        }
        let v = self.lower_expr(init)?;
        let from = self.tm.value_type(init.id);
        let (mty, v) = self.convert_for_store(v, &from, ty);
        let addr = self.emit_slot_addr(slot);
        self.emit(Inst::Store { addr, src: v, ty: mty });
        Ok(())
    }

    // ---- expressions ----

    fn bin(&mut self, op: IrBinOp, a: VReg, b: VReg, ty: Ty) -> VReg {
        let dst = self.module.new_vreg(ty);
        self.emit(Inst::Bin { op, dst, a, b, ty });
        dst
    }

    /// Lowers `e` to a vreg holding its value (after decay).
    fn lower_expr(&mut self, e: &Expr) -> Result<VReg> {
        match &e.kind {
            ExprKind::IntLit(v, k) => {
                let ty = machine_ty(&Type::Int(*k)).unwrap_or(Ty::I64);
                Ok(self.iconst(k.wrap(*v), ty))
            }
            ExprKind::FloatLit(v, single) => {
                let ty = if *single { Ty::F32 } else { Ty::F64 };
                let dst = self.module.new_vreg(ty);
                self.emit(Inst::FConst { dst, val: *v, ty });
                Ok(dst)
            }
            ExprKind::StrLit(s) => {
                let label = self.intern_string(s);
                let dst = self.module.new_vreg(Ty::I64);
                self.emit(Inst::GlobalAddr { dst, name: label });
                Ok(dst)
            }
            ExprKind::Ident(_) | ExprKind::Index { .. } | ExprKind::Member { .. } => {
                let (addr, ty) = self.lower_addr(e)?;
                self.load_place(addr, &ty)
            }
            ExprKind::Unary(op, inner) => self.lower_unary(e, *op, inner),
            ExprKind::Postfix(kind, inner) => {
                let (addr, ty) = self.lower_addr(inner)?;
                let old = self.load_place(addr, &ty)?;
                let delta = if matches!(kind, IncDec::Inc) { 1 } else { -1 };
                let new = self.step(old, &ty, delta)?;
                self.emit(Inst::Store { addr, src: new, ty: store_ty(&ty) });
                Ok(old)
            }
            ExprKind::Binary(op, l, r) => self.lower_binary(*op, l, r),
            ExprKind::Assign { op, target, value } => {
                let (addr, tty) = self.lower_addr(target)?;
                if op.is_none() {
                    if let Type::Struct(name) = &tty {
                        // Struct copy through memcpy-style field-free copy.
                        let size = self.tm.layout.layout_of(name).map(|l| l.size).unwrap_or(0);
                        let (src_addr, _) = self.lower_addr(value)?;
                        self.emit_struct_copy(addr, src_addr, size);
                        return Ok(addr);
                    }
                }
                let rhs = self.lower_expr(value)?;
                let vty = self.tm.value_type(value.id);
                let result = match op {
                    None => {
                        let (mty, v) = self.convert_for_store(rhs, &vty, &tty);
                        self.emit(Inst::Store { addr, src: v, ty: mty });
                        v
                    }
                    Some(op) => {
                        let cur = self.load_place(addr, &tty)?;
                        let res = self.lower_binop(*op, cur, &tty, rhs, &vty)?;
                        // The result converts back to the target type.
                        let tm = self.tm;
                        let (mty, v) =
                            self.convert_for_store(res, tm.compound_type(e.id), &tty);
                        self.emit(Inst::Store { addr, src: v, ty: mty });
                        v
                    }
                };
                Ok(result)
            }
            ExprKind::Call { callee, args } => self.lower_call(callee, args),
            ExprKind::Cast { ty, expr } => {
                let v = self.lower_expr(expr)?;
                let from = self.tm.value_type(expr.id);
                let to = self.tm.layout.resolve(ty).decay();
                Ok(self.convert(v, &from, &to))
            }
            ExprKind::SizeofType(ty) => {
                let rty = self.tm.layout.resolve(ty);
                let size = self.tm.layout.size_of(&rty).unwrap_or(8);
                Ok(self.iconst(size as i64, Ty::I64))
            }
            ExprKind::SizeofExpr(inner) => {
                let ty = self.tm.type_of(inner.id).clone();
                let size = self.tm.layout.size_of(&ty).unwrap_or(8);
                Ok(self.iconst(size as i64, Ty::I64))
            }
            ExprKind::Ternary { cond, then_expr, else_expr } => {
                let result_ty = self.tm.value_type(e.id);
                let mty = machine_ty(&result_ty).unwrap_or(Ty::I64);
                let slot = self.new_slot(mty.size(), mty.size(), "$tern");
                let c = self.lower_expr(cond)?;
                let then_bb = self.new_block();
                let else_bb = self.new_block();
                let end = self.new_block();
                self.set_term(Term::Br { cond: c, then_bb, else_bb });
                self.switch_to(then_bb);
                let tv = self.lower_expr(then_expr)?;
                let tvt = self.tm.value_type(then_expr.id);
                let tv = self.convert(tv, &tvt, &result_ty);
                let a1 = self.emit_slot_addr(slot);
                self.emit(Inst::Store { addr: a1, src: tv, ty: mty });
                self.set_term(Term::Jmp(end));
                self.switch_to(else_bb);
                let ev = self.lower_expr(else_expr)?;
                let evt = self.tm.value_type(else_expr.id);
                let ev = self.convert(ev, &evt, &result_ty);
                let a2 = self.emit_slot_addr(slot);
                self.emit(Inst::Store { addr: a2, src: ev, ty: mty });
                self.set_term(Term::Jmp(end));
                self.switch_to(end);
                let a3 = self.emit_slot_addr(slot);
                let dst = self.module.new_vreg(mty);
                self.emit(Inst::Load { dst, addr: a3, ty: mty, sext: true });
                Ok(dst)
            }
            ExprKind::Comma(a, b) => {
                self.lower_expr(a)?;
                self.lower_expr(b)
            }
        }
    }

    fn emit_struct_copy(&mut self, dst: VReg, src: VReg, size: usize) {
        // Copy 8 bytes at a time, then the tail.
        let mut off = 0usize;
        while off + 8 <= size {
            let o = self.iconst(off as i64, Ty::I64);
            let s = self.bin(IrBinOp::Add, src, o, Ty::I64);
            let tmp = self.module.new_vreg(Ty::I64);
            self.emit(Inst::Load { dst: tmp, addr: s, ty: Ty::I64, sext: false });
            let o2 = self.iconst(off as i64, Ty::I64);
            let d = self.bin(IrBinOp::Add, dst, o2, Ty::I64);
            self.emit(Inst::Store { addr: d, src: tmp, ty: Ty::I64 });
            off += 8;
        }
        while off < size {
            let o = self.iconst(off as i64, Ty::I64);
            let s = self.bin(IrBinOp::Add, src, o, Ty::I64);
            let tmp = self.module.new_vreg(Ty::I32);
            self.emit(Inst::Load { dst: tmp, addr: s, ty: Ty::I8, sext: false });
            let o2 = self.iconst(off as i64, Ty::I64);
            let d = self.bin(IrBinOp::Add, dst, o2, Ty::I64);
            self.emit(Inst::Store { addr: d, src: tmp, ty: Ty::I8 });
            off += 1;
        }
    }

    fn lower_unary(&mut self, e: &Expr, op: UnOp, inner: &Expr) -> Result<VReg> {
        match op {
            UnOp::Plus => self.lower_expr(inner),
            UnOp::Neg => {
                let v = self.lower_expr(inner)?;
                let from = self.tm.value_type(inner.id);
                let to = self.tm.value_type(e.id);
                let v = self.convert(v, &from, &to);
                let mty = machine_ty(&to).unwrap_or(Ty::I32);
                if mty.is_float() {
                    let z = self.module.new_vreg(mty);
                    self.emit(Inst::FConst { dst: z, val: 0.0, ty: mty });
                    Ok(self.bin(IrBinOp::FSub, z, v, mty))
                } else {
                    let z = self.iconst(0, mty);
                    Ok(self.bin(IrBinOp::Sub, z, v, mty))
                }
            }
            UnOp::Not => {
                let v = self.lower_expr(inner)?;
                let vty = self.tm.value_type(inner.id);
                let mty = machine_ty(&vty).unwrap_or(Ty::I32);
                if mty.is_float() {
                    let z = self.module.new_vreg(mty);
                    self.emit(Inst::FConst { dst: z, val: 0.0, ty: mty });
                    let dst = self.module.new_vreg(Ty::I32);
                    self.emit(Inst::Cmp { pred: Pred::FEq, dst, a: v, b: z, ty: mty });
                    Ok(dst)
                } else {
                    let z = self.iconst(0, mty);
                    let dst = self.module.new_vreg(Ty::I32);
                    self.emit(Inst::Cmp { pred: Pred::Eq, dst, a: v, b: z, ty: mty });
                    Ok(dst)
                }
            }
            UnOp::BitNot => {
                let v = self.lower_expr(inner)?;
                let from = self.tm.value_type(inner.id);
                let to = self.tm.value_type(e.id);
                let v = self.convert(v, &from, &to);
                let mty = machine_ty(&to).unwrap_or(Ty::I32);
                let m1 = self.iconst(-1, mty);
                Ok(self.bin(IrBinOp::Xor, v, m1, mty))
            }
            UnOp::Deref => {
                let (addr, ty) = self.lower_addr(e)?;
                self.load_place(addr, &ty)
            }
            UnOp::Addr => {
                let (addr, _) = self.lower_addr(inner)?;
                Ok(addr)
            }
            UnOp::PreInc | UnOp::PreDec => {
                let (addr, ty) = self.lower_addr(inner)?;
                let old = self.load_place(addr, &ty)?;
                let delta = if matches!(op, UnOp::PreInc) { 1 } else { -1 };
                let new = self.step(old, &ty, delta)?;
                self.emit(Inst::Store { addr, src: new, ty: store_ty(&ty) });
                Ok(new)
            }
        }
    }

    /// `v ± 1` with pointer scaling, matching the object type `ty`.
    fn step(&mut self, v: VReg, ty: &Type, delta: i64) -> Result<VReg> {
        let decayed = ty.decay();
        let mty = machine_ty(&decayed).unwrap_or(Ty::I32);
        if mty.is_float() {
            let one = self.module.new_vreg(mty);
            self.emit(Inst::FConst { dst: one, val: delta as f64, ty: mty });
            return Ok(self.bin(IrBinOp::FAdd, v, one, mty));
        }
        let scale = match &decayed {
            Type::Ptr(p) => self.tm.layout.size_of(p).unwrap_or(1) as i64,
            _ => 1,
        };
        let d = self.iconst(delta * scale, mty);
        Ok(self.bin(IrBinOp::Add, v, d, mty))
    }

    fn lower_binary(&mut self, op: BinOp, l: &Expr, r: &Expr) -> Result<VReg> {
        if op.is_logical() {
            return self.lower_logical(op, l, r);
        }
        let lv = self.lower_expr(l)?;
        let lt = self.tm.value_type(l.id);
        let rv = self.lower_expr(r)?;
        let rt = self.tm.value_type(r.id);
        self.lower_binop(op, lv, &lt, rv, &rt)
    }

    /// `l op r` on lowered operands of types `lt` / `rt`: pointer arithmetic
    /// scales by the pointee, a shift works in the promoted left type and
    /// anything else in [`Type::common_arith`].
    fn lower_binop(
        &mut self,
        op: BinOp,
        lv: VReg,
        lt: &Type,
        rv: VReg,
        rt: &Type,
    ) -> Result<VReg> {
        let lt = lt.decay();
        let rt = rt.decay();
        // Pointer arithmetic.
        if matches!(op, BinOp::Add | BinOp::Sub) {
            if lt.is_pointerish() && rt.is_integer() {
                let elem = lt.pointee().cloned().unwrap_or(Type::Int(IntKind::Char));
                let size = self.tm.layout.size_of(&elem).unwrap_or(1) as i64;
                let idx = self.convert(rv, &rt, &Type::Int(IntKind::Long));
                let sz = self.iconst(size, Ty::I64);
                let scaled = self.bin(IrBinOp::Mul, idx, sz, Ty::I64);
                let irop = if op == BinOp::Add { IrBinOp::Add } else { IrBinOp::Sub };
                return Ok(self.bin(irop, lv, scaled, Ty::I64));
            }
            if rt.is_pointerish() && lt.is_integer() && op == BinOp::Add {
                let elem = rt.pointee().cloned().unwrap_or(Type::Int(IntKind::Char));
                let size = self.tm.layout.size_of(&elem).unwrap_or(1) as i64;
                let idx = self.convert(lv, &lt, &Type::Int(IntKind::Long));
                let sz = self.iconst(size, Ty::I64);
                let scaled = self.bin(IrBinOp::Mul, idx, sz, Ty::I64);
                return Ok(self.bin(IrBinOp::Add, rv, scaled, Ty::I64));
            }
            if lt.is_pointerish() && rt.is_pointerish() && op == BinOp::Sub {
                let elem = lt.pointee().cloned().unwrap_or(Type::Int(IntKind::Char));
                let size = self.tm.layout.size_of(&elem).unwrap_or(1) as i64;
                let diff = self.bin(IrBinOp::Sub, lv, rv, Ty::I64);
                if size > 1 {
                    let sz = self.iconst(size, Ty::I64);
                    return Ok(self.bin(IrBinOp::DivS, diff, sz, Ty::I64));
                }
                return Ok(diff);
            }
        }
        // Comparisons.
        if op.is_comparison() {
            if lt.is_pointerish() || rt.is_pointerish() {
                let a = self.convert(lv, &lt, &Type::Int(IntKind::ULong));
                let b = self.convert(rv, &rt, &Type::Int(IntKind::ULong));
                let pred = comparison_pred(op, false, true);
                let dst = self.module.new_vreg(Ty::I32);
                self.emit(Inst::Cmp { pred, dst, a, b, ty: Ty::I64 });
                return Ok(dst);
            }
            let common = lt.common_arith(&rt);
            let a = self.convert(lv, &lt, &common);
            let b = self.convert(rv, &rt, &common);
            let mty = machine_ty(&common).unwrap_or(Ty::I32);
            let (is_float, unsigned) = match &common {
                Type::Float | Type::Double => (true, false),
                Type::Int(k) => (false, !k.signed()),
                _ => (false, false),
            };
            let pred = comparison_pred(op, is_float, unsigned);
            let dst = self.module.new_vreg(Ty::I32);
            self.emit(Inst::Cmp { pred, dst, a, b, ty: mty });
            return Ok(dst);
        }
        // Shifts: result has the promoted left type.
        if matches!(op, BinOp::Shl | BinOp::Shr) {
            let Type::Int(lk) = lt else {
                return Err(CompileError::Unsupported("shift of non-integer".into()));
            };
            let k = lk.promote();
            let result_ty = Type::Int(k);
            let a = self.convert(lv, &lt, &result_ty);
            let b = self.convert(rv, &rt, &Type::int());
            let mty = machine_ty(&result_ty).unwrap_or(Ty::I64);
            let irop = match (op, k.signed()) {
                (BinOp::Shl, _) => IrBinOp::Shl,
                (BinOp::Shr, true) => IrBinOp::ShrS,
                (BinOp::Shr, false) => IrBinOp::ShrU,
                _ => unreachable!(),
            };
            return Ok(self.bin(irop, a, b, mty));
        }
        // Plain arithmetic in the common type.
        let common = lt.common_arith(&rt);
        let a = self.convert(lv, &lt, &common);
        let b = self.convert(rv, &rt, &common);
        let mty = machine_ty(&common).unwrap_or(Ty::I32);
        let irop = match (&common, op) {
            (Type::Float | Type::Double, BinOp::Add) => IrBinOp::FAdd,
            (Type::Float | Type::Double, BinOp::Sub) => IrBinOp::FSub,
            (Type::Float | Type::Double, BinOp::Mul) => IrBinOp::FMul,
            (Type::Float | Type::Double, BinOp::Div) => IrBinOp::FDiv,
            (Type::Int(k), BinOp::Div) => {
                if k.signed() {
                    IrBinOp::DivS
                } else {
                    IrBinOp::DivU
                }
            }
            (Type::Int(k), BinOp::Rem) => {
                if k.signed() {
                    IrBinOp::RemS
                } else {
                    IrBinOp::RemU
                }
            }
            (_, BinOp::Add) => IrBinOp::Add,
            (_, BinOp::Sub) => IrBinOp::Sub,
            (_, BinOp::Mul) => IrBinOp::Mul,
            (_, BinOp::BitAnd) => IrBinOp::And,
            (_, BinOp::BitOr) => IrBinOp::Or,
            (_, BinOp::BitXor) => IrBinOp::Xor,
            (t, o) => {
                return Err(CompileError::Unsupported(format!("binop {o:?} on {t}")));
            }
        };
        let res = self.bin(irop, a, b, mty);
        // Narrow integer results re-wrap so register contents match C.
        if let Type::Int(k) = &common {
            if k.size() < 4 {
                return Ok(self.wrap_narrow(res, *k));
            }
        }
        Ok(res)
    }

    fn lower_logical(&mut self, op: BinOp, l: &Expr, r: &Expr) -> Result<VReg> {
        let slot = self.new_slot(4, 4, "$log");
        let lv = self.lower_expr(l)?;
        let rhs_bb = self.new_block();
        let short_bb = self.new_block();
        let end = self.new_block();
        let (then_bb, else_bb, short_val) = match op {
            BinOp::LogAnd => (rhs_bb, short_bb, 0),
            BinOp::LogOr => (short_bb, rhs_bb, 1),
            _ => unreachable!(),
        };
        self.set_term(Term::Br { cond: lv, then_bb, else_bb });
        self.switch_to(rhs_bb);
        let rv = self.lower_expr(r)?;
        let z = self.iconst(0, Ty::I32);
        let rvt = self.tm.value_type(r.id);
        let rv32 = self.convert(rv, &rvt, &Type::Int(IntKind::Long));
        let nb = self.module.new_vreg(Ty::I32);
        let z64 = self.convert(z, &Type::int(), &Type::Int(IntKind::Long));
        self.emit(Inst::Cmp { pred: Pred::Ne, dst: nb, a: rv32, b: z64, ty: Ty::I64 });
        let a1 = self.emit_slot_addr(slot);
        self.emit(Inst::Store { addr: a1, src: nb, ty: Ty::I32 });
        self.set_term(Term::Jmp(end));
        self.switch_to(short_bb);
        let sv = self.iconst(short_val, Ty::I32);
        let a2 = self.emit_slot_addr(slot);
        self.emit(Inst::Store { addr: a2, src: sv, ty: Ty::I32 });
        self.set_term(Term::Jmp(end));
        self.switch_to(end);
        let a3 = self.emit_slot_addr(slot);
        let dst = self.module.new_vreg(Ty::I32);
        self.emit(Inst::Load { dst, addr: a3, ty: Ty::I32, sext: true });
        Ok(dst)
    }

    fn lower_call(&mut self, callee: &str, args: &[Expr]) -> Result<VReg> {
        // Recognize the vectorization intrinsics planted by looptrans.
        if callee == "__vec_op_i32" {
            return self.lower_vec_intrinsic(args);
        }
        let sig = self.tm.signature(callee);
        let mut argv = Vec::new();
        let mut arg_tys = Vec::new();
        for (i, a) in args.iter().enumerate() {
            let v = self.lower_expr(a)?;
            let from = self.tm.value_type(a.id);
            let to = sig.and_then(|s| s.params.get(i)).unwrap_or(&from);
            let v = self.convert(v, &from, to);
            arg_tys.push(machine_ty(to).unwrap_or(Ty::I64));
            argv.push(v);
        }
        // A callee without a signature returns `int`.
        let ret_ty = sig.map_or(Some(Ty::I32), |s| machine_ty(&s.ret));
        let dst = ret_ty.map(|t| self.module.new_vreg(t));
        self.emit(Inst::Call { dst, callee: callee.to_string(), args: argv, arg_tys, ret_ty });
        Ok(dst.unwrap_or_else(|| {
            // Void call in value position: materialize 0.
            let z = self.module.new_vreg(Ty::I32);
            self.module.blocks[self.cur as usize].insts.push(Inst::IConst {
                dst: z,
                val: 0,
                ty: Ty::I32,
            });
            z
        }))
    }

    /// `__vec_op_i32(ptr, scalar, opcode)`: 4-lane op on `ptr[0..4]` with a
    /// broadcast scalar. opcode: 0 = add, 1 = sub, 2 = mul.
    fn lower_vec_intrinsic(&mut self, args: &[Expr]) -> Result<VReg> {
        let addr = self.lower_expr(&args[0])?;
        let scalar = self.lower_expr(&args[1])?;
        let ExprKind::IntLit(code, _) = args[2].kind else {
            return Err(CompileError::Unsupported("vec intrinsic opcode".into()));
        };
        let op = match code {
            0 => IrBinOp::Add,
            1 => IrBinOp::Sub,
            _ => IrBinOp::Mul,
        };
        let vec = self.module.new_vreg(Ty::V4I32);
        self.emit(Inst::VecLoad { dst: vec, addr });
        let splat = self.module.new_vreg(Ty::V4I32);
        self.emit(Inst::VecSplat { dst: splat, src: scalar });
        let res = self.module.new_vreg(Ty::V4I32);
        self.emit(Inst::VecBin { op, dst: res, a: vec, b: splat });
        self.emit(Inst::VecStore { addr, src: res });
        Ok(self.iconst(0, Ty::I32))
    }

    // ---- addresses ----

    /// Lowers an lvalue expression to `(address vreg, object type)`.
    fn lower_addr(&mut self, e: &Expr) -> Result<(VReg, Type)> {
        match &e.kind {
            ExprKind::Ident(name) => {
                let Some(place) = self.lookup(name) else {
                    return Err(CompileError::Unsupported(format!(
                        "unknown variable `{name}`"
                    )));
                };
                match place {
                    Place::Slot(slot, ty) => {
                        let a = self.emit_slot_addr(slot);
                        Ok((a, ty))
                    }
                    Place::Global(gname, ty) => {
                        if !self.module.extern_globals.contains(&gname) {
                            self.module.extern_globals.push(gname.clone());
                        }
                        let dst = self.module.new_vreg(Ty::I64);
                        self.emit(Inst::GlobalAddr { dst, name: gname });
                        Ok((dst, ty))
                    }
                }
            }
            ExprKind::Unary(UnOp::Deref, inner) => {
                let v = self.lower_expr(inner)?;
                let ty = self.tm.type_of(e.id).clone();
                Ok((v, ty))
            }
            ExprKind::Index { base, index } => {
                let bv = self.lower_expr(base)?;
                let bt = self.tm.value_type(base.id);
                let iv = self.lower_expr(index)?;
                let it = self.tm.value_type(index.id);
                let (ptr, ptr_t, idx, idx_t) =
                    if bt.is_pointerish() { (bv, bt, iv, it) } else { (iv, it, bv, bt) };
                let elem = self.tm.type_of(e.id).clone();
                let size = self
                    .tm
                    .layout
                    .size_of(&elem)
                    .or_else(|| ptr_t.pointee().and_then(|t| self.tm.layout.size_of(t)))
                    .unwrap_or(1);
                let idx64 = self.convert(idx, &idx_t, &Type::Int(IntKind::Long));
                let sz = self.iconst(size as i64, Ty::I64);
                let scaled = self.bin(IrBinOp::Mul, idx64, sz, Ty::I64);
                let addr = self.bin(IrBinOp::Add, ptr, scaled, Ty::I64);
                Ok((addr, elem))
            }
            ExprKind::Member { base, field, arrow } => {
                let (base_addr, sname) = if *arrow {
                    let v = self.lower_expr(base)?;
                    let bt = self.tm.value_type(base.id);
                    let Some(Type::Struct(s)) = bt.pointee().map(|t| self.tm.layout.resolve(t))
                    else {
                        return Err(CompileError::Unsupported("-> on non-struct".into()));
                    };
                    (v, s)
                } else {
                    let (a, ty) = self.lower_addr(base)?;
                    let Type::Struct(s) = self.tm.layout.resolve(&ty) else {
                        return Err(CompileError::Unsupported(". on non-struct".into()));
                    };
                    (a, s)
                };
                let Some((off, fty)) = self.tm.layout.field_of(&sname, field) else {
                    return Err(CompileError::Unsupported(format!("unknown field `{field}`")));
                };
                if off == 0 {
                    return Ok((base_addr, fty));
                }
                let o = self.iconst(off as i64, Ty::I64);
                let addr = self.bin(IrBinOp::Add, base_addr, o, Ty::I64);
                Ok((addr, fty))
            }
            ExprKind::StrLit(s) => {
                let label = self.intern_string(s);
                let dst = self.module.new_vreg(Ty::I64);
                self.emit(Inst::GlobalAddr { dst, name: label });
                Ok((dst, Type::Int(IntKind::Char)))
            }
            ExprKind::Cast { expr, .. } => {
                // `(T*)p = …` style lvalue casts are not valid C; but
                // `(*(T*)p)` goes through Deref. Lower the inner address.
                self.lower_addr(expr)
            }
            other => Err(CompileError::Unsupported(format!("address of {other:?}"))),
        }
    }

    /// Loads a value from an object address. Arrays/structs yield the
    /// address itself (decay).
    fn load_place(&mut self, addr: VReg, ty: &Type) -> Result<VReg> {
        match ty {
            Type::Array(..) | Type::Struct(_) => Ok(addr),
            _ => {
                let (mty, sext) = load_ty(ty);
                let dst = self.module.new_vreg(machine_ty(ty).unwrap_or(Ty::I64));
                self.emit(Inst::Load { dst, addr, ty: mty, sext });
                Ok(dst)
            }
        }
    }

    fn intern_string(&mut self, s: &[u8]) -> String {
        if let Some(l) = self.str_labels.get(s) {
            return l.clone();
        }
        let label = format!(".LC{}", self.module.rodata.len());
        let mut bytes = s.to_vec();
        bytes.push(0);
        self.module.rodata.push((label.clone(), bytes));
        self.str_labels.insert(s.to_vec(), label.clone());
        label
    }

    // ---- conversions ----

    /// Converts `v` from MiniC type `from` to `to`, emitting casts.
    fn convert(&mut self, v: VReg, from: &Type, to: &Type) -> VReg {
        let from = from.decay();
        let to = to.decay();
        let f = machine_ty(&from).unwrap_or(Ty::I64);
        let t = machine_ty(&to).unwrap_or(Ty::I64);
        let mut cur = v;
        let mut cur_ty = f;
        // Float → float/int.
        if cur_ty.is_float() {
            match t {
                Ty::F32 => {
                    if cur_ty == Ty::F64 {
                        cur = self.cast(cur, CastKind::F64toF32, Ty::F32);
                    }
                    return cur;
                }
                Ty::F64 => {
                    if cur_ty == Ty::F32 {
                        cur = self.cast(cur, CastKind::F32toF64, Ty::F64);
                    }
                    return cur;
                }
                Ty::I64 => {
                    let k =
                        if cur_ty == Ty::F32 { CastKind::F32toS64 } else { CastKind::F64toS64 };
                    return self.cast(cur, k, Ty::I64);
                }
                _ => {
                    let k =
                        if cur_ty == Ty::F32 { CastKind::F32toS32 } else { CastKind::F64toS32 };
                    cur = self.cast(cur, k, Ty::I32);
                    return self.wrap_to(cur, &to);
                }
            }
        }
        // Int → float.
        if t.is_float() {
            let signed = matches!(&from, Type::Int(k) if k.signed());
            if cur_ty == Ty::I32 && !signed {
                // u32 → f via zero-extension to 64 first.
                cur = self.cast(cur, CastKind::Zext32to64, Ty::I64);
                cur_ty = Ty::I64;
            }
            let kind = match (cur_ty, t) {
                (Ty::I32, Ty::F32) => CastKind::S32toF32,
                (Ty::I32, Ty::F64) => CastKind::S32toF64,
                (_, Ty::F32) => CastKind::S64toF32,
                (_, Ty::F64) => CastKind::S64toF64,
                _ => unreachable!(),
            };
            return self.cast(cur, kind, t);
        }
        // Int/ptr → int/ptr width adjustment.
        match (cur_ty, t) {
            (Ty::I32, Ty::I64) => {
                let signed = matches!(&from, Type::Int(k) if k.signed());
                let kind = if signed { CastKind::Sext32to64 } else { CastKind::Zext32to64 };
                cur = self.cast(cur, kind, Ty::I64);
            }
            (Ty::I64, Ty::I32) => {
                cur = self.cast(cur, CastKind::Trunc64to32, Ty::I32);
            }
            _ => {}
        }
        self.wrap_to(cur, &to)
    }

    /// Re-wraps an I32 register to a narrow integer type's range.
    fn wrap_to(&mut self, v: VReg, to: &Type) -> VReg {
        if let Type::Int(k) = to {
            if k.size() < 4 {
                return self.wrap_narrow(v, *k);
            }
        }
        v
    }

    fn wrap_narrow(&mut self, v: VReg, k: IntKind) -> VReg {
        let kind = match (k.size(), k.signed()) {
            (1, true) => CastKind::Wrap8Sext,
            (1, false) => CastKind::Wrap8Zext,
            (2, true) => CastKind::Wrap16Sext,
            (2, false) => CastKind::Wrap16Zext,
            _ => return v,
        };
        self.cast(v, kind, Ty::I32)
    }

    fn cast(&mut self, src: VReg, kind: CastKind, to: Ty) -> VReg {
        let dst = self.module.new_vreg(to);
        self.emit(Inst::Cast { dst, src, kind });
        dst
    }

    /// Converts `v` (of MiniC type `from`) for storing into an object of
    /// type `to`, returning the store width and the converted vreg.
    fn convert_for_store(&mut self, v: VReg, from: &Type, to: &Type) -> (Ty, VReg) {
        let v = self.convert(v, from, to);
        (store_ty(to), v)
    }

    fn convert_machine(&mut self, v: VReg, from: &Type, want: Ty) -> VReg {
        let to = match want {
            Ty::I8 | Ty::I16 | Ty::I32 => Type::int(),
            Ty::I64 => Type::Int(IntKind::Long),
            Ty::F32 => Type::Float,
            Ty::F64 => Type::Double,
            Ty::V4I32 => Type::Int(IntKind::Long),
        };
        self.convert(v, from, &to)
    }
}

/// Machine width class of a MiniC value type.
pub fn machine_ty(ty: &Type) -> Option<Ty> {
    match ty {
        Type::Int(k) => Some(if k.size() <= 4 { Ty::I32 } else { Ty::I64 }),
        Type::Float => Some(Ty::F32),
        Type::Double => Some(Ty::F64),
        Type::Ptr(_) | Type::Array(..) => Some(Ty::I64),
        Type::Struct(_) => Some(Ty::I64), // handled as addresses
        _ => None,
    }
}

/// Memory width + extension flag used when loading an object of `ty`.
fn load_ty(ty: &Type) -> (Ty, bool) {
    match ty {
        Type::Int(k) => {
            let mty = match k.size() {
                1 => Ty::I8,
                2 => Ty::I16,
                4 => Ty::I32,
                _ => Ty::I64,
            };
            (mty, k.signed())
        }
        Type::Float => (Ty::F32, false),
        Type::Double => (Ty::F64, false),
        _ => (Ty::I64, false),
    }
}

/// Memory width used when storing into an object of `ty`.
fn store_ty(ty: &Type) -> Ty {
    load_ty(&ty.decay()).0
}

fn comparison_pred(op: BinOp, is_float: bool, unsigned: bool) -> Pred {
    match (op, is_float, unsigned) {
        (BinOp::Eq, true, _) => Pred::FEq,
        (BinOp::Ne, true, _) => Pred::FNe,
        (BinOp::Lt, true, _) => Pred::FLt,
        (BinOp::Le, true, _) => Pred::FLe,
        (BinOp::Gt, true, _) => Pred::FGt,
        (BinOp::Ge, true, _) => Pred::FGe,
        (BinOp::Eq, _, _) => Pred::Eq,
        (BinOp::Ne, _, _) => Pred::Ne,
        (BinOp::Lt, _, false) => Pred::LtS,
        (BinOp::Le, _, false) => Pred::LeS,
        (BinOp::Gt, _, false) => Pred::GtS,
        (BinOp::Ge, _, false) => Pred::GeS,
        (BinOp::Lt, _, true) => Pred::LtU,
        (BinOp::Le, _, true) => Pred::LeU,
        (BinOp::Gt, _, true) => Pred::GtU,
        (BinOp::Ge, _, true) => Pred::GeU,
        _ => Pred::Eq,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slade_minic::parse_program;

    fn lower(src: &str, name: &str) -> Module {
        let p = parse_program(src).unwrap();
        let tm = Sema::check(&p).unwrap();
        lower_function(&p, &tm, name, CompileOpts::new(crate::Isa::X86_64, OptLevel::O0))
            .unwrap()
    }

    #[test]
    fn lowers_simple_add() {
        let m = lower("int add(int a, int b) { return a + b; }", "add");
        assert_eq!(m.params.len(), 2);
        assert_eq!(m.ret_ty, Some(Ty::I32));
        // Params are spilled to slots at O0.
        assert!(m.slots.len() >= 2);
        let text = m.display();
        assert!(text.contains("Bin"), "{text}");
    }

    #[test]
    fn lowers_loops_to_cfg() {
        let m =
            lower("int f(int n) { int s = 0; while (n > 0) { s += n; n--; } return s; }", "f");
        assert!(m.blocks.len() >= 4, "expected loop CFG, got {}", m.blocks.len());
    }

    #[test]
    fn lowers_pointer_indexing_with_scaling() {
        let m = lower("int get(int *p, int i) { return p[i]; }", "get");
        let text = m.display();
        assert!(text.contains("Mul"), "index should scale: {text}");
    }

    #[test]
    fn lowers_global_reference() {
        let m = lower("int g; int f(void) { return g; }", "f");
        assert!(m.extern_globals.contains(&"g".to_string()));
    }

    #[test]
    fn lowers_string_literals_to_rodata() {
        let m = lower("int f(char *s) { return strcmp(s, \"hi\"); }", "f");
        assert_eq!(m.rodata.len(), 1);
        assert_eq!(m.rodata[0].1, b"hi\0".to_vec());
    }

    #[test]
    fn rejects_struct_by_value_param() {
        let p =
            parse_program("struct s { int a; }; int f(struct s v) { return v.a; }").unwrap();
        let tm = Sema::check(&p).unwrap();
        let err =
            lower_function(&p, &tm, "f", CompileOpts::new(crate::Isa::X86_64, OptLevel::O0))
                .unwrap_err();
        assert!(matches!(err, CompileError::Unsupported(_)));
    }

    #[test]
    fn float_ops_use_float_ir() {
        let m = lower("double f(double a, double b) { return a * b + 1.0; }", "f");
        let text = m.display();
        assert!(text.contains("FMul") && text.contains("FAdd"), "{text}");
    }

    #[test]
    fn logical_ops_short_circuit_via_cfg() {
        let m = lower("int f(int a, int b) { return a && b; }", "f");
        assert!(m.blocks.len() >= 4);
    }
}
