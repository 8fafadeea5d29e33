//! `-O3` IR pass pipeline: constant folding/propagation, copy propagation,
//! store-to-load forwarding, algebraic identities, dead store and dead code
//! elimination, branch folding and unreachable-block removal.
//!
//! The IR is SSA-like (every vreg has exactly one definition; control-flow
//! merges go through stack slots), so global constant and copy propagation
//! are simple def-table walks — no dataflow fixpoints needed. Vreg, slot and
//! block ids are dense, so every table is a `Vec` indexed by the id.

use crate::ir::*;

/// Runs the full `-O3` pipeline in a fixed order, iterating until the module
/// stops changing (bounded).
pub fn run_o3_pipeline(m: &mut Module) {
    for _ in 0..6 {
        let before = m.blocks.clone();
        constant_fold(m);
        copy_propagate(m);
        forward_stores(m);
        strength_reduce(m);
        eliminate_dead_stores(m);
        eliminate_dead_code(m);
        fold_branches(m);
        remove_unreachable_blocks(m);
        if same_blocks(&before, &m.blocks) {
            break;
        }
    }
}

/// True when `a` and `b` hold the same IR, with float constants compared
/// by bits: `-0.0` differs from `0.0`, and a NaN equals itself.
fn same_blocks(a: &[Block], b: &[Block]) -> bool {
    let same_inst = |x: &Inst, y: &Inst| match (x, y) {
        (Inst::FConst { dst, val, ty }, Inst::FConst { dst: dst_y, val: val_y, ty: ty_y }) => {
            dst == dst_y && ty == ty_y && val.to_bits() == val_y.to_bits()
        }
        _ => x == y,
    };
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.term == y.term
                && x.insts.len() == y.insts.len()
                && x.insts.iter().zip(&y.insts).all(|(i, j)| same_inst(i, j))
        })
}

/// What is known about a vreg's value.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Known {
    Int(i64, Ty),
    Float(f64, Ty),
}

/// The constant each vreg is defined as, if any, indexed by vreg.
fn known_values(m: &Module) -> Vec<Option<Known>> {
    let mut known = vec![None; m.vreg_count()];
    for inst in m.blocks.iter().flat_map(|b| &b.insts) {
        match *inst {
            Inst::IConst { dst, val, ty } => known[dst as usize] = Some(Known::Int(val, ty)),
            Inst::FConst { dst, val, ty } => known[dst as usize] = Some(Known::Float(val, ty)),
            _ => {}
        }
    }
    known
}

/// Folds instructions whose operands are compile-time constants.
///
/// The known-constant map is updated incrementally as instructions are
/// rewritten, so chains like `Copy → IConst → Bin` fold in a single pass
/// (instruction order is a topological order of the SSA def-use graph).
pub fn constant_fold(m: &mut Module) {
    let mut known = known_values(m);
    for b in &mut m.blocks {
        for inst in &mut b.insts {
            let replacement = match inst {
                Inst::Bin { op, dst, a, b, ty } => {
                    match (known[*a as usize], known[*b as usize]) {
                        (Some(Known::Int(x, _)), Some(Known::Int(y, _))) => {
                            fold_int_bin(*op, x, y, *ty).map(|v| Inst::IConst {
                                dst: *dst,
                                val: v,
                                ty: *ty,
                            })
                        }
                        (Some(Known::Float(x, _)), Some(Known::Float(y, _))) => {
                            fold_float_bin(*op, x, y).map(|v| Inst::FConst {
                                dst: *dst,
                                val: v,
                                ty: *ty,
                            })
                        }
                        _ => None,
                    }
                }
                Inst::Cmp { pred, dst, a, b, .. } => {
                    match (known[*a as usize], known[*b as usize]) {
                        (Some(Known::Int(x, _)), Some(Known::Int(y, _))) => {
                            let v = eval_pred_int(*pred, x, y);
                            Some(Inst::IConst { dst: *dst, val: v as i64, ty: Ty::I32 })
                        }
                        _ => None,
                    }
                }
                Inst::Cast { dst, src, kind } => known[*src as usize].and_then(|k| {
                    fold_cast(*kind, k).map(|folded| match folded {
                        Known::Int(v, ty) => Inst::IConst { dst: *dst, val: v, ty },
                        Known::Float(v, ty) => Inst::FConst { dst: *dst, val: v, ty },
                    })
                }),
                Inst::Copy { dst, src, .. } => known[*src as usize].map(|k| match k {
                    Known::Int(v, ty) => Inst::IConst { dst: *dst, val: v, ty },
                    Known::Float(v, ty) => Inst::FConst { dst: *dst, val: v, ty },
                }),
                _ => None,
            };
            if let Some(r) = replacement {
                match r {
                    Inst::IConst { dst, val, ty } => {
                        known[dst as usize] = Some(Known::Int(val, ty));
                    }
                    Inst::FConst { dst, val, ty } => {
                        known[dst as usize] = Some(Known::Float(val, ty));
                    }
                    _ => {}
                }
                *inst = r;
            }
        }
    }
}

/// How a function's stack slots are addressed, indexed by vreg and slot.
struct SlotUses {
    /// The slot each `SlotAddr` result points to, by vreg.
    slot_of_addr: Vec<Option<SlotId>>,
    /// Slots whose address is used other than as a load or store address.
    escaped: Vec<bool>,
    /// Slots some load reads.
    loaded: Vec<bool>,
}

impl SlotUses {
    fn of(m: &Module) -> Self {
        let mut slot_of_addr = vec![None; m.vreg_count()];
        for inst in m.blocks.iter().flat_map(|b| &b.insts) {
            if let Inst::SlotAddr { dst, slot } = *inst {
                slot_of_addr[dst as usize] = Some(slot);
            }
        }
        let n = m.slots.len();
        let mut uses =
            SlotUses { slot_of_addr, escaped: vec![false; n], loaded: vec![false; n] };
        for b in &m.blocks {
            for inst in &b.insts {
                let addr = inst.mem_addr();
                if let (Inst::Load { .. } | Inst::VecLoad { .. }, Some(s)) =
                    (inst, addr.and_then(|a| uses.slot(a)))
                {
                    uses.loaded[s as usize] = true;
                }
                // A slot address stored *as data* escapes, and so does any
                // use outside a load / store address position.
                if let Inst::Store { src, .. } | Inst::VecStore { src, .. } = *inst {
                    uses.escape(src);
                }
                for used in inst.uses().filter(|&u| Some(u) != addr) {
                    uses.escape(used);
                }
            }
            if let Some(v) = b.term.use_reg() {
                uses.escape(v);
            }
        }
        uses
    }

    fn slot(&self, addr: VReg) -> Option<SlotId> {
        self.slot_of_addr[addr as usize]
    }

    fn escape(&mut self, v: VReg) {
        if let Some(s) = self.slot(v) {
            self.escaped[s as usize] = true;
        }
    }
}

/// Removes stores to non-escaping stack slots that are never loaded.
pub fn eliminate_dead_stores(m: &mut Module) {
    let uses = SlotUses::of(m);
    for b in &mut m.blocks {
        b.insts.retain(|inst| match *inst {
            Inst::Store { addr, .. } => uses
                .slot(addr)
                .is_none_or(|s| uses.escaped[s as usize] || uses.loaded[s as usize]),
            _ => true,
        });
    }
}

fn fold_int_bin(op: IrBinOp, x: i64, y: i64, ty: Ty) -> Option<i64> {
    let wrap = |v: i64| if ty == Ty::I32 { v as i32 as i64 } else { v };
    let ux = if ty == Ty::I32 { x as u32 as u64 } else { x as u64 };
    let uy = if ty == Ty::I32 { y as u32 as u64 } else { y as u64 };
    Some(match op {
        IrBinOp::Add => wrap(x.wrapping_add(y)),
        IrBinOp::Sub => wrap(x.wrapping_sub(y)),
        IrBinOp::Mul => wrap(x.wrapping_mul(y)),
        IrBinOp::DivS => {
            if y == 0 {
                return None;
            }
            wrap(x.wrapping_div(y))
        }
        IrBinOp::DivU => {
            if uy == 0 {
                return None;
            }
            wrap((ux / uy) as i64)
        }
        IrBinOp::RemS => {
            if y == 0 {
                return None;
            }
            wrap(x.wrapping_rem(y))
        }
        IrBinOp::RemU => {
            if uy == 0 {
                return None;
            }
            wrap((ux % uy) as i64)
        }
        IrBinOp::And => wrap(x & y),
        IrBinOp::Or => wrap(x | y),
        IrBinOp::Xor => wrap(x ^ y),
        IrBinOp::Shl => {
            let width = if ty == Ty::I32 { 31 } else { 63 };
            wrap(x.wrapping_shl((y as u32) & width))
        }
        IrBinOp::ShrS => {
            let width = if ty == Ty::I32 { 31 } else { 63 };
            wrap((wrap(x)).wrapping_shr((y as u32) & width))
        }
        IrBinOp::ShrU => {
            let width = if ty == Ty::I32 { 31 } else { 63 };
            wrap((ux.wrapping_shr((y as u32) & width)) as i64)
        }
        _ => return None,
    })
}

fn fold_float_bin(op: IrBinOp, x: f64, y: f64) -> Option<f64> {
    Some(match op {
        IrBinOp::FAdd => x + y,
        IrBinOp::FSub => x - y,
        IrBinOp::FMul => x * y,
        IrBinOp::FDiv => x / y,
        _ => return None,
    })
}

fn eval_pred_int(pred: Pred, x: i64, y: i64) -> bool {
    let (ux, uy) = (x as u64, y as u64);
    match pred {
        Pred::Eq => x == y,
        Pred::Ne => x != y,
        Pred::LtS => x < y,
        Pred::LeS => x <= y,
        Pred::GtS => x > y,
        Pred::GeS => x >= y,
        Pred::LtU => ux < uy,
        Pred::LeU => ux <= uy,
        Pred::GtU => ux > uy,
        Pred::GeU => ux >= uy,
        _ => false,
    }
}

fn fold_cast(kind: CastKind, k: Known) -> Option<Known> {
    Some(match (kind, k) {
        (CastKind::Sext32to64, Known::Int(v, _)) => Known::Int(v as i32 as i64, Ty::I64),
        (CastKind::Zext32to64, Known::Int(v, _)) => Known::Int(v as u32 as i64, Ty::I64),
        (CastKind::Trunc64to32, Known::Int(v, _)) => Known::Int(v as i32 as i64, Ty::I32),
        (CastKind::Wrap8Sext, Known::Int(v, _)) => Known::Int(v as i8 as i64, Ty::I32),
        (CastKind::Wrap8Zext, Known::Int(v, _)) => Known::Int(v as u8 as i64, Ty::I32),
        (CastKind::Wrap16Sext, Known::Int(v, _)) => Known::Int(v as i16 as i64, Ty::I32),
        (CastKind::Wrap16Zext, Known::Int(v, _)) => Known::Int(v as u16 as i64, Ty::I32),
        (CastKind::S32toF64, Known::Int(v, _)) => Known::Float(v as i32 as f64, Ty::F64),
        (CastKind::S64toF64, Known::Int(v, _)) => Known::Float(v as f64, Ty::F64),
        (CastKind::S32toF32, Known::Int(v, _)) => Known::Float(v as i32 as f32 as f64, Ty::F32),
        (CastKind::S64toF32, Known::Int(v, _)) => Known::Float(v as f32 as f64, Ty::F32),
        (CastKind::F64toF32, Known::Float(v, _)) => Known::Float(v as f32 as f64, Ty::F32),
        (CastKind::F32toF64, Known::Float(v, _)) => Known::Float(v, Ty::F64),
        (CastKind::F64toS32, Known::Float(v, _)) => Known::Int(v as i32 as i64, Ty::I32),
        (CastKind::F64toS64, Known::Float(v, _)) => Known::Int(v as i64, Ty::I64),
        (CastKind::F32toS32, Known::Float(v, _)) => Known::Int(v as f32 as i32 as i64, Ty::I32),
        (CastKind::F32toS64, Known::Float(v, _)) => Known::Int(v as f32 as i64, Ty::I64),
        _ => return None,
    })
}

/// Replaces uses of `Copy` destinations with their sources (safe: SSA).
pub fn copy_propagate(m: &mut Module) {
    let mut alias: Vec<Option<VReg>> = vec![None; m.vreg_count()];
    let mut any = false;
    for inst in m.blocks.iter().flat_map(|b| &b.insts) {
        if let Inst::Copy { dst, src, .. } = *inst {
            alias[dst as usize] = Some(alias[src as usize].unwrap_or(src));
            any = true;
        }
    }
    if !any {
        return;
    }
    let remap = |r: &mut VReg| {
        if let Some(root) = alias[*r as usize] {
            *r = root;
        }
    };
    for b in &mut m.blocks {
        for inst in &mut b.insts {
            remap_uses(inst, &remap);
        }
        if let Term::Br { cond, .. } = &mut b.term {
            remap(cond);
        }
        if let Term::Ret(Some(v)) = &mut b.term {
            remap(v);
        }
    }
}

fn remap_uses(inst: &mut Inst, remap: &impl Fn(&mut VReg)) {
    match inst {
        Inst::Bin { a, b, .. } | Inst::Cmp { a, b, .. } | Inst::VecBin { a, b, .. } => {
            remap(a);
            remap(b);
        }
        Inst::Load { addr, .. } | Inst::VecLoad { addr, .. } => remap(addr),
        Inst::Store { addr, src, .. } | Inst::VecStore { addr, src } => {
            remap(addr);
            remap(src);
        }
        Inst::Call { args, .. } => args.iter_mut().for_each(remap),
        Inst::Cast { src, .. } | Inst::Copy { src, .. } | Inst::VecSplat { src, .. } => {
            remap(src)
        }
        _ => {}
    }
}

/// Within each block, forwards stored values to subsequent loads of the same
/// (non-escaping) stack slot.
pub fn forward_stores(m: &mut Module) {
    let uses = SlotUses::of(m);
    // slot -> (vreg holding current value, store width), reset per block.
    // Stores through other pointers and calls reach only escaped slots, so
    // they leave it alone.
    let mut current: Vec<Option<(VReg, Ty)>> = vec![None; m.slots.len()];
    for b in &mut m.blocks {
        current.fill(None);
        for inst in &mut b.insts {
            match *inst {
                Inst::Store { addr, src, ty } => {
                    if let Some(s) = uses.slot(addr).filter(|&s| !uses.escaped[s as usize]) {
                        current[s as usize] = Some((src, ty));
                    }
                }
                Inst::Load { dst, addr, ty, .. } => {
                    // Forward only same-width loads; the vreg types must
                    // match (same machine class).
                    if let Some((v, sty)) = uses.slot(addr).and_then(|s| current[s as usize]) {
                        if sty == ty && m.vreg_tys[v as usize] == m.vreg_tys[dst as usize] {
                            *inst = Inst::Copy { dst, src: v, ty: sty };
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

/// Rewrites `x * 1`, `1 * x`, `x + 0` and `x - 0` on integers into copies.
pub fn strength_reduce(m: &mut Module) {
    let known = known_values(m);
    for b in &mut m.blocks {
        for inst in &mut b.insts {
            let Inst::Bin { op, dst, a, b: rhs, ty } = *inst else { continue };
            if !ty.is_int() {
                continue;
            }
            let (kn, other, commuted) = match (known[a as usize], known[rhs as usize]) {
                (_, Some(k)) => (k, a, false),
                (Some(k), _) => (k, rhs, true),
                _ => continue,
            };
            let Known::Int(c, _) = kn else { continue };
            let identity = match op {
                IrBinOp::Mul => c == 1,
                IrBinOp::Add | IrBinOp::Sub => c == 0 && !commuted,
                _ => false,
            };
            if identity {
                *inst = Inst::Copy { dst, src: other, ty };
            }
        }
    }
}

/// Removes instructions whose results are never used and that have no side
/// effects. Iterates to a fixpoint.
pub fn eliminate_dead_code(m: &mut Module) {
    let mut used = vec![false; m.vreg_count()];
    loop {
        used.fill(false);
        for b in &m.blocks {
            for u in b.insts.iter().flat_map(Inst::uses).chain(b.term.use_reg()) {
                used[u as usize] = true;
            }
        }
        let mut removed = 0usize;
        for b in &mut m.blocks {
            let before = b.insts.len();
            b.insts.retain(|inst| {
                inst.has_side_effects() || inst.def().is_none_or(|d| used[d as usize])
            });
            removed += before - b.insts.len();
        }
        if removed == 0 {
            return;
        }
    }
}

/// Turns `Br` on a constant condition into `Jmp`.
pub fn fold_branches(m: &mut Module) {
    let known = known_values(m);
    for b in &mut m.blocks {
        if let Term::Br { cond, then_bb, else_bb } = &b.term {
            if let Some(Known::Int(v, _)) = known[*cond as usize] {
                b.term = Term::Jmp(if v != 0 { *then_bb } else { *else_bb });
            }
        }
    }
}

/// Drops blocks unreachable from the entry and renumbers the rest. Also
/// threads jumps through empty forwarding blocks.
pub fn remove_unreachable_blocks(m: &mut Module) {
    // Thread `Jmp`-only empty blocks.
    let forward: Vec<Option<BlockId>> = m
        .blocks
        .iter()
        .enumerate()
        .map(|(i, b)| match b.term {
            Term::Jmp(t) if b.insts.is_empty() && t != i as BlockId => Some(t),
            _ => None,
        })
        .collect();
    let nblocks = m.blocks.len();
    let resolve = |mut b: BlockId| {
        let mut fuel = nblocks;
        while let Some(t) = forward[b as usize] {
            if fuel == 0 {
                break;
            }
            fuel -= 1;
            b = t;
        }
        b
    };
    for b in &mut m.blocks {
        retarget(&mut b.term, resolve);
    }
    // Reachability from entry.
    let mut reachable = vec![false; m.blocks.len()];
    let mut stack = vec![0 as BlockId];
    while let Some(b) = stack.pop() {
        if reachable[b as usize] {
            continue;
        }
        reachable[b as usize] = true;
        stack.extend(m.blocks[b as usize].term.successors());
    }
    // Renumber.
    let mut remap = vec![0 as BlockId; m.blocks.len()];
    let mut kept = 0;
    for (i, &r) in reachable.iter().enumerate() {
        if r {
            remap[i] = kept;
            kept += 1;
        }
    }
    let mut i = 0;
    m.blocks.retain(|_| {
        i += 1;
        reachable[i - 1]
    });
    for b in &mut m.blocks {
        retarget(&mut b.term, |t| remap[t as usize]);
    }
}

/// Rewrites every successor of `term` through `f`.
fn retarget(term: &mut Term, f: impl Fn(BlockId) -> BlockId) {
    match term {
        Term::Jmp(t) => *t = f(*t),
        Term::Br { then_bb, else_bb, .. } => {
            *then_bb = f(*then_bb);
            *else_bb = f(*else_bb);
        }
        Term::Ret(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_function;
    use crate::{CompileOpts, Isa, OptLevel};
    use slade_minic::{parse_program, Sema};

    fn lowered(src: &str, name: &str) -> Module {
        let p = parse_program(src).unwrap();
        let tm = Sema::check(&p).unwrap();
        lower_function(&p, &tm, name, CompileOpts::new(Isa::X86_64, OptLevel::O0)).unwrap()
    }

    fn inst_count(m: &Module) -> usize {
        m.blocks.iter().map(|b| b.insts.len()).sum()
    }

    #[test]
    fn pipeline_shrinks_constant_expressions() {
        let mut m = lowered("int f(void) { return 2 * 3 + 4; }", "f");
        let before = inst_count(&m);
        run_o3_pipeline(&mut m);
        let after = inst_count(&m);
        assert!(after < before, "no shrink: {before} -> {after}");
        // The function should collapse to a single constant return.
        let text = m.display();
        assert!(text.contains("val: 10"), "{text}");
    }

    #[test]
    fn dce_removes_unused_values() {
        let mut m = lowered("int f(int a) { int unused = a * 99; return a; }", "f");
        run_o3_pipeline(&mut m);
        let text = m.display();
        assert!(!text.contains("val: 99"), "dead multiply survived: {text}");
    }

    #[test]
    fn branch_folding_kills_dead_arm() {
        let mut m = lowered("int f(void) { if (0) { return 1; } return 2; }", "f");
        run_o3_pipeline(&mut m);
        let text = m.display();
        assert!(!text.contains("val: 1,") || !text.contains("Ret(Some"), "{text}");
        // Only reachable blocks remain.
        assert!(m.blocks.len() <= 3, "{}", m.display());
    }

    #[test]
    fn store_forwarding_removes_reload() {
        let mut m = lowered("int f(int a) { int x = a + 1; return x; }", "f");
        let before_loads = m
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Load { .. }))
            .count();
        run_o3_pipeline(&mut m);
        let after_loads = m
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Load { .. }))
            .count();
        assert!(after_loads < before_loads, "{before_loads} -> {after_loads}");
    }

    #[test]
    fn escaped_slots_are_not_forwarded() {
        // `&x` escapes; the load after the call must not be forwarded.
        let src = "void ext(int *p); int f(void) { int x = 1; ext(&x); return x; }";
        let mut m = lowered(src, "f");
        run_o3_pipeline(&mut m);
        let loads = m
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Load { .. }))
            .count();
        assert!(loads >= 1, "escaped slot load removed:\n{}", m.display());
    }

    #[test]
    fn fixpoint_test_compares_float_constants_by_bits() {
        let block = |val: f64| {
            vec![Block {
                insts: vec![Inst::FConst { dst: 0, val, ty: Ty::F64 }],
                term: Term::Ret(Some(0)),
            }]
        };
        assert!(!same_blocks(&block(0.0), &block(-0.0)));
        assert!(same_blocks(&block(f64::NAN), &block(f64::NAN)));
        assert!(same_blocks(&block(1.5), &block(1.5)));
        assert!(!same_blocks(&block(1.5), &[]));
    }

    #[test]
    fn semantics_preserved_under_pipeline() {
        // Compare against the interpreter on the source level after a full
        // pipeline run by checking the IR still returns the right constant.
        let mut m = lowered("int f(void) { int a = 6; int b = 7; return a * b; }", "f");
        run_o3_pipeline(&mut m);
        let text = m.display();
        assert!(text.contains("val: 42"), "{text}");
    }
}
