//! Linear-scan register allocation for the `-O3` backends.
//!
//! The IR's single-definition property plus the lowerer's block-creation
//! order guarantee that every use appears at a linear position at or after
//! its definition (cross-iteration values travel through stack slots), so a
//! single forward scan suffices. Integer vregs compete for a pool of
//! callee-saved registers (the backends save/restore the used ones);
//! floating and vector vregs always stay in stack slots / fixed scratch
//! registers, which keeps both backends simple.

use crate::ir::*;

/// The result of allocation: a physical register index per vreg, or `None`
/// for spilled (stack-resident) values.
#[derive(Debug, Clone)]
pub struct Allocation {
    /// `assignment[vreg]` = pool index or `None` (spill).
    pub assignment: Vec<Option<u8>>,
    /// Pool indices actually used (for prologue save/restore).
    pub used: Vec<u8>,
}

impl Allocation {
    /// An allocation that spills everything (used at `-O0`).
    pub fn all_spilled(vregs: usize) -> Self {
        Allocation { assignment: vec![None; vregs], used: Vec::new() }
    }
}

/// Live interval over linearized instruction indices.
#[derive(Debug, Clone, Copy)]
struct Interval {
    vreg: VReg,
    start: usize,
    end: usize,
}

/// Allocates integer vregs to a pool of `pool_size` registers.
///
/// Returns [`Allocation::all_spilled`] when the module violates the
/// forward-order assumption (defensive; should not happen for IR produced
/// by this crate's lowerer).
pub fn allocate(m: &Module, pool_size: usize) -> Allocation {
    // Linearize: number every instruction and terminator. Both tables are
    // indexed by vreg.
    let mut def: Vec<Option<usize>> = vec![None; m.vreg_count()];
    let mut last_use: Vec<Option<usize>> = vec![None; m.vreg_count()];
    let mut idx = 0usize;
    for (r, _) in &m.params {
        def[*r as usize] = Some(0);
    }
    for b in &m.blocks {
        for inst in &b.insts {
            idx += 1;
            for u in inst.uses() {
                match def[u as usize] {
                    Some(d) if d <= idx => last_use[u as usize] = Some(idx),
                    _ => return Allocation::all_spilled(m.vreg_count()),
                }
            }
            if let Some(d) = inst.def() {
                def[d as usize] = Some(idx);
            }
        }
        idx += 1;
        if let Some(v) = b.term.use_reg() {
            if def[v as usize].is_none() {
                return Allocation::all_spilled(m.vreg_count());
            }
            last_use[v as usize] = Some(idx);
        }
    }
    // Intervals for integer vregs only; ties (parameters all start at 0)
    // break on the vreg.
    let mut intervals: Vec<Interval> = def
        .iter()
        .enumerate()
        .filter(|&(v, _)| m.vreg_tys[v].is_int())
        .filter_map(|(v, &start)| {
            let start = start?;
            Some(Interval { vreg: v as VReg, start, end: last_use[v].unwrap_or(start) })
        })
        .collect();
    intervals.sort_by_key(|iv| (iv.start, iv.end, iv.vreg));
    // Classic linear scan.
    let mut assignment = vec![None; m.vreg_count()];
    let mut active: Vec<(usize, u8)> = Vec::new(); // (end, reg)
    let mut free: Vec<u8> = (0..pool_size as u8).rev().collect();
    let mut used = Vec::new();
    for iv in &intervals {
        active.retain(|(end, reg)| {
            if *end < iv.start {
                free.push(*reg);
                false
            } else {
                true
            }
        });
        if iv.end == iv.start {
            continue; // dead or single-point values stay spilled
        }
        if let Some(reg) = free.pop() {
            assignment[iv.vreg as usize] = Some(reg);
            if !used.contains(&reg) {
                used.push(reg);
            }
            active.push((iv.end, reg));
        }
        // No free register: value stays spilled (backend handles it).
    }
    used.sort_unstable();
    Allocation { assignment, used }
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
        let mut m =
            lower_function(&p, &tm, name, CompileOpts::new(Isa::X86_64, OptLevel::O0)).unwrap();
        crate::passes::run_o3_pipeline(&mut m);
        m
    }

    #[test]
    fn allocates_disjoint_intervals_to_few_registers() {
        let m = lowered("int f(int a, int b, int c) { return a + b + c; }", "f");
        let alloc = allocate(&m, 5);
        assert!(alloc.used.len() <= 5);
        // At least something should land in a register.
        assert!(alloc.assignment.iter().any(|a| a.is_some()));
    }

    #[test]
    fn never_assigns_more_than_pool() {
        let src = "int f(int a) { int b = a+1; int c = b+2; int d = c+3; int e = d+4; int g = e+5; int h = g+6; int i = h+7; return a+b+c+d+e+g+h+i; }";
        let m = lowered(src, "f");
        let alloc = allocate(&m, 3);
        let mut seen = std::collections::HashSet::new();
        for a in alloc.assignment.iter().flatten() {
            seen.insert(*a);
        }
        assert!(seen.len() <= 3, "used {seen:?}");
    }

    #[test]
    fn float_vregs_stay_spilled() {
        let m = lowered("double f(double a, double b) { return a * b; }", "f");
        let alloc = allocate(&m, 5);
        for (i, ty) in m.vreg_tys.iter().enumerate() {
            if ty.is_float() {
                assert!(alloc.assignment[i].is_none(), "float vreg {i} got a register");
            }
        }
    }

    #[test]
    fn all_spilled_fallback_shape() {
        let a = Allocation::all_spilled(7);
        assert_eq!(a.assignment.len(), 7);
        assert!(a.used.is_empty());
    }
}
