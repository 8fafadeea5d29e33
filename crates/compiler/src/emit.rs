//! The one function driver both backends share.
//!
//! An [`Emitter`] owns everything whose shape does not depend on the ISA:
//! the allocation choice, the output text and its rodata, the argument
//! loop (parameters on entry, arguments before a call), the block loop
//! with compare/branch fusion, jumps, branches and returns, copies, loads
//! and stores by type, and every cast. A [`Target`] names registers and
//! mnemonics in tables and keeps what differs in shape: the frame layout,
//! the prologue, immediates, binops and compares, and vector ops.

use crate::ir::*;
use crate::regalloc::{allocate, Allocation};
use crate::{CompileError, OptLevel, Result};
use slade_asm::Isa;
use std::fmt::{self, Display, Write};
use std::marker::PhantomData;

/// Value classes, indexing every per-class table: 32-bit and 64-bit
/// integers, `float`, `double`, and 4×i32 vectors.
pub(crate) const W: usize = 0;
pub(crate) const X: usize = 1;
pub(crate) const S: usize = 2;
pub(crate) const D: usize = 3;
pub(crate) const V: usize = 4;

/// The class a value of type `ty` occupies in registers and the frame.
pub(crate) fn class(ty: Ty) -> usize {
    match ty {
        Ty::I8 | Ty::I16 | Ty::I32 => W,
        Ty::I64 => X,
        Ty::F32 => S,
        Ty::F64 => D,
        Ty::V4I32 => V,
    }
}

/// Where a vreg lives during emission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Loc {
    /// Pool register (index into [`Target::POOL`]).
    Reg(u8),
    /// Frame slot at this offset from the frame pointer.
    Mem(i64),
}

/// A memory operand: a frame slot, or the memory a register points to.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Mem {
    Frame(i64),
    At(&'static str),
}

/// Where every vreg, stack slot and callee-saved register lives.
pub(crate) struct Frame {
    pub locs: Vec<Loc>,
    pub slots: Vec<i64>,
    /// Each callee-saved pool register the allocation uses, and its slot.
    pub saves: Vec<(u8, i64)>,
    /// Bytes the prologue reserves.
    pub size: i64,
}

/// How a cast converts: load the source into its class's scratch register,
/// run this line (none when the store alone narrows or widens), store the
/// result from its class's scratch register; or read the source in place
/// as the first operand of `mnemonic source, 64-bit accumulator`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Cast {
    Scratch(&'static str),
    InPlace(&'static str),
}

/// An ISA's half of the compiler.
pub(crate) trait Target: Sized {
    const ISA: Isa;
    /// The allocator's callee-saved pool, as (32-bit, 64-bit) names.
    const POOL: [[&'static str; 2]; 5];
    /// Argument registers by class (`W`, `X`, `S`, `D`) in ABI order.
    const ARGS: [&'static [&'static str]; 4];
    /// Scratch registers by class: `[0]` holds a value on its way to or
    /// from its vreg (the integer accumulator, fp scratch 0), `[1]` a
    /// second operand.
    const SCRATCH: [[&'static str; 5]; 2];
    /// The integer result register when it is not the accumulator.
    const RET: Option<[&'static str; 2]>;
    /// Register-to-register integer move, by class.
    const MOV: [&'static str; 2];
    /// Frame load and store mnemonics, by class.
    const LD: [&'static str; 5];
    const ST: [&'static str; 5];
    /// The register holding a spilled address while it is dereferenced.
    const ADDR: &'static str;
    /// `Load` mnemonics by scalar `Ty` (sign-extending, zero-extending).
    const LOADS: [[&'static str; 2]; 6];
    /// `Store` mnemonic and register by scalar `Ty`.
    const STORES: [[&'static str; 2]; 6];
    /// Every `CastKind`, in declaration order.
    const CASTS: [Cast; 17];
    /// Moving an integer accumulator's bits to fp scratch 0 (`S`, `D`).
    const BITS_TO_FP: [&'static str; 2];
    /// Condition-code name of every `Pred`, in declaration order.
    const CC: [&'static str; 16];
    /// Unconditional branch, and the prefix of a conditional one.
    const JMP: &'static str;
    const JCC: &'static str;
    /// `.globl` / `.global`, and the `.type` of a function.
    const GLOBAL: &'static str;
    const FUNCTION: &'static str;
    /// Does an instruction name its source before its destination?
    const SRC_FIRST: bool;

    /// Assigns frame offsets to slots, spills and saves.
    fn layout(m: &Module, alloc: &Allocation) -> Frame;
    fn fmt_mem(mem: Mem, f: &mut fmt::Formatter<'_>) -> fmt::Result;
    /// Sets up the frame, after the function's label.
    fn prologue(em: &mut Emitter<'_, Self>);
    /// Tears the frame down and returns.
    fn epilogue(em: &mut Emitter<'_, Self>);
    /// Directives after the last block, before `.size`.
    fn close(_em: &mut Emitter<'_, Self>) {}
    /// Calls `callee`, `fp_args` of whose arguments are in fp registers.
    fn call(em: &mut Emitter<'_, Self>, callee: &str, fp_args: usize);
    /// Puts `val` in the accumulator.
    fn imm(em: &mut Emitter<'_, Self>, val: i64, wide: bool);
    fn iconst(em: &mut Emitter<'_, Self>, dst: VReg, val: i64, wide: bool) {
        Self::imm(em, val, wide);
        em.put(dst);
    }
    /// Puts `&slot` (at frame offset `off`) in 64-bit register `reg`.
    fn slot_addr(em: &mut Emitter<'_, Self>, reg: &str, off: i64);
    fn global_addr(em: &mut Emitter<'_, Self>, dst: VReg, name: &str);
    /// Leaves `a op b` in the class's first scratch register.
    fn int_bin(em: &mut Emitter<'_, Self>, op: IrBinOp, a: VReg, b: VReg, wide: bool);
    fn float_bin(em: &mut Emitter<'_, Self>, op: IrBinOp, a: VReg, b: VReg, ty: Ty);
    /// Compares `a` with `b` and leaves `a pred b` as 0 / 1 in the
    /// accumulator, flags still set.
    fn compare(em: &mut Emitter<'_, Self>, pred: Pred, a: VReg, b: VReg, ty: Ty);
    /// Branches to `then` when the accumulator (class `c`) is non-zero.
    fn branch_nonzero(em: &mut Emitter<'_, Self>, c: usize, then: BlockId);
    fn vector(em: &mut Emitter<'_, Self>, inst: &Inst) -> Result<()>;
}

/// Writes one instruction line: `ins!(em, "movl {src}, {dst}")`.
macro_rules! ins {
    ($em:expr, $($arg:tt)*) => { $em.line(format_args!($($arg)*)) };
}
pub(crate) use ins;

/// Emits `m` for target `T`: all spilled at -O0, the pool allocated at -O3.
pub(crate) fn emit<T: Target>(m: &Module, opt: OptLevel) -> Result<String> {
    let alloc = match opt {
        OptLevel::O0 => Allocation::all_spilled(m.vreg_count()),
        OptLevel::O3 => allocate(m, T::POOL.len()),
    };
    let frame = T::layout(m, &alloc);
    let mut em = Emitter::<T> { m, frame, out: String::new(), target: PhantomData };
    em.function()?;
    Ok(em.out)
}

/// One function's emission state.
pub(crate) struct Emitter<'m, T> {
    m: &'m Module,
    pub frame: Frame,
    out: String,
    target: PhantomData<T>,
}

impl<T: Target> Emitter<'_, T> {
    /// Writes one instruction line (what `ins!` expands to).
    pub fn line(&mut self, args: fmt::Arguments<'_>) {
        self.out.push('\t');
        let _ = self.out.write_fmt(args);
        self.out.push('\n');
    }

    fn label(&mut self, args: fmt::Arguments<'_>) {
        let _ = self.out.write_fmt(args);
        self.out.push_str(":\n");
    }

    /// `mn dst, src` in the target's operand order.
    pub fn op(&mut self, mn: &str, dst: impl Display, src: impl Display) {
        if T::SRC_FIRST {
            ins!(self, "{mn} {src}, {dst}");
        } else {
            ins!(self, "{mn} {dst}, {src}");
        }
    }

    /// A store: register first on both ISAs.
    fn store(&mut self, mn: &str, reg: &str, mem: Mem) {
        ins!(self, "{mn} {reg}, {}", Self::mem(mem));
    }

    fn mem(mem: Mem) -> impl Display {
        fmt::from_fn(move |f| T::fmt_mem(mem, f))
    }

    fn vreg_ty(&self, v: VReg) -> Ty {
        self.m.vreg_tys[v as usize]
    }

    /// Vreg `v` as an operand of class `c`: its pool register or its slot.
    pub fn at(&self, v: VReg, c: usize) -> impl Display {
        let loc = self.frame.locs[v as usize];
        fmt::from_fn(move |f| match loc {
            Loc::Reg(p) => f.write_str(T::POOL[p as usize][c]),
            Loc::Mem(off) => T::fmt_mem(Mem::Frame(off), f),
        })
    }

    /// Loads `v` (class `c`) into `reg`.
    fn load_into(&mut self, c: usize, reg: &str, v: VReg) {
        match self.frame.locs[v as usize] {
            Loc::Reg(p) => self.op(T::MOV[c], reg, T::POOL[p as usize][c]),
            Loc::Mem(off) => self.op(T::LD[c], reg, Self::mem(Mem::Frame(off))),
        }
    }

    /// Stores `reg` (class `c`) into `v`.
    fn store_from(&mut self, c: usize, reg: &str, v: VReg) {
        match self.frame.locs[v as usize] {
            Loc::Reg(p) => self.op(T::MOV[c], T::POOL[p as usize][c], reg),
            Loc::Mem(off) => self.store(T::ST[c], reg, Mem::Frame(off)),
        }
    }

    /// Loads `v` into scratch register `n` of its class.
    pub fn get(&mut self, v: VReg, n: usize) {
        let c = class(self.vreg_ty(v));
        self.load_into(c, T::SCRATCH[n][c], v);
    }

    /// Stores the first scratch register of `v`'s class into `v`.
    pub fn put(&mut self, v: VReg) {
        let c = class(self.vreg_ty(v));
        self.store_from(c, T::SCRATCH[0][c], v);
    }

    /// The memory `v` points to; a spilled `v` is loaded into `T::ADDR`.
    pub fn addr(&mut self, v: VReg) -> impl Display {
        let reg = match self.frame.locs[v as usize] {
            Loc::Reg(p) => T::POOL[p as usize][X],
            Loc::Mem(off) => {
                self.op(T::LD[X], T::ADDR, Self::mem(Mem::Frame(off)));
                T::ADDR
            }
        };
        Self::mem(Mem::At(reg))
    }

    /// Computes an address into `dst`: straight into its pool register,
    /// or through the accumulator into its slot.
    pub fn address(&mut self, dst: VReg, compute: impl FnOnce(&mut Self, &'static str)) {
        match self.frame.locs[dst as usize] {
            Loc::Reg(p) => compute(self, T::POOL[p as usize][X]),
            Loc::Mem(_) => {
                compute(self, T::SCRATCH[0][X]);
                self.put(dst);
            }
        }
    }

    fn function(&mut self) -> Result<()> {
        let m = self.m;
        if !m.rodata.is_empty() {
            ins!(self, ".section .rodata");
            for (label, bytes) in &m.rodata {
                self.label(format_args!("{label}"));
                self.out.push_str("\t.string \"");
                for &b in &bytes[..bytes.len().saturating_sub(1)] {
                    escape_byte(&mut self.out, b);
                }
                self.out.push_str("\"\n");
            }
        }
        let name = &m.name;
        ins!(self, ".text");
        ins!(self, "{} {name}", T::GLOBAL);
        ins!(self, ".type {name}, {}", T::FUNCTION);
        self.label(format_args!("{name}"));
        T::prologue(self);
        for i in 0..self.frame.saves.len() {
            let (p, off) = self.frame.saves[i];
            self.store(T::ST[X], T::POOL[p as usize][X], Mem::Frame(off));
        }
        self.pass_args(m.params.iter().copied(), true)?;
        for (i, block) in m.blocks.iter().enumerate() {
            self.label(format_args!(".L{i}"));
            for inst in &block.insts {
                self.inst(inst)?;
            }
            self.term(block, i as BlockId + 1);
        }
        T::close(self);
        ins!(self, ".size {name}, .-{name}");
        Ok(())
    }

    /// Moves `args` between their vregs and the ABI's argument registers,
    /// one counter per register class: into the vregs on entry
    /// (`incoming`), out of them before a call. Returns how many went in
    /// fp registers.
    ///
    /// # Errors
    ///
    /// An argument past the registers of its class: the ABI passes it on
    /// the stack, which this compiler does not.
    fn pass_args(
        &mut self,
        args: impl Iterator<Item = (VReg, Ty)>,
        incoming: bool,
    ) -> Result<usize> {
        let (ints, fps) = T::ISA.arg_regs();
        let mut next = [0, 0];
        for (v, ty) in args {
            let fp = ty.is_float() as usize;
            let (n, cap) = (next[fp], [ints, fps][fp]);
            if n == cap {
                let (kind, isa) = (["int", "floating-point"][fp], T::ISA);
                return Err(CompileError::Unsupported(format!(
                    "more than {cap} {kind} arguments (the {isa} ABI passes the rest on the stack)"
                )));
            }
            next[fp] += 1;
            let c = class(ty);
            let reg = T::ARGS[c][n];
            if incoming {
                self.store_from(c, reg, v);
            } else {
                self.load_into(c, reg, v);
            }
        }
        Ok(next[1])
    }

    fn inst(&mut self, inst: &Inst) -> Result<()> {
        match *inst {
            Inst::IConst { dst, val, ty } => T::iconst(self, dst, val, ty == Ty::I64),
            Inst::FConst { dst, val, ty } => {
                let wide = ty == Ty::F64;
                let bits =
                    if wide { val.to_bits() as i64 } else { (val as f32).to_bits() as i64 };
                T::imm(self, bits, wide);
                ins!(self, "{}", T::BITS_TO_FP[wide as usize]);
                self.put(dst);
            }
            Inst::Bin { op, dst, a, b, ty } => {
                if ty.is_float() {
                    T::float_bin(self, op, a, b, ty);
                } else {
                    T::int_bin(self, op, a, b, ty == Ty::I64);
                }
                self.put(dst);
            }
            Inst::Cmp { pred, dst, a, b, ty } => {
                T::compare(self, pred, a, b, ty);
                self.put(dst);
            }
            Inst::Load { ty: Ty::V4I32, .. }
            | Inst::Store { ty: Ty::V4I32, .. }
            | Inst::VecLoad { .. }
            | Inst::VecSplat { .. }
            | Inst::VecBin { .. }
            | Inst::VecStore { .. } => T::vector(self, inst)?,
            Inst::Load { dst, addr, ty, sext } => {
                let mem = self.addr(addr);
                let mn = T::LOADS[ty as usize][!sext as usize];
                self.op(mn, T::SCRATCH[0][class(ty)], mem);
                self.put(dst);
            }
            Inst::Store { addr, src, ty } => {
                self.get(src, 0);
                let mem = self.addr(addr);
                let [mn, reg] = T::STORES[ty as usize];
                ins!(self, "{mn} {reg}, {mem}");
            }
            Inst::SlotAddr { dst, slot } => {
                let off = self.frame.slots[slot as usize];
                self.address(dst, |em, reg| T::slot_addr(em, reg, off));
            }
            Inst::GlobalAddr { dst, ref name } => T::global_addr(self, dst, name),
            Inst::Call { dst, ref callee, ref args, ref arg_tys, ret_ty } => {
                let fp_args =
                    self.pass_args(args.iter().copied().zip(arg_tys.iter().copied()), false)?;
                T::call(self, callee, fp_args);
                if let (Some(d), Some(rt)) = (dst, ret_ty) {
                    let c = class(rt);
                    if let (Some(ret), W | X) = (T::RET, c) {
                        self.op(T::MOV[c], T::SCRATCH[0][c], ret[c]);
                    }
                    self.put(d);
                }
            }
            Inst::Cast { dst, src, kind } => {
                match T::CASTS[kind as usize] {
                    Cast::Scratch(line) => {
                        self.get(src, 0);
                        if !line.is_empty() {
                            ins!(self, "{line}");
                        }
                    }
                    Cast::InPlace(mn) => {
                        let at = self.at(src, W);
                        self.op(mn, T::SCRATCH[0][X], at);
                    }
                }
                self.put(dst);
            }
            Inst::Copy { dst, src, .. } => {
                self.get(src, 0);
                self.put(dst);
            }
        }
        Ok(())
    }

    fn jump(&mut self, target: BlockId, next: BlockId) {
        if target != next {
            ins!(self, "{} .L{target}", T::JMP);
        }
    }

    /// A block's terminator; `next` is the block laid out after it. A
    /// branch on the compare that ends its block reuses the flags.
    fn term(&mut self, block: &Block, next: BlockId) {
        match block.term {
            Term::Jmp(target) => self.jump(target, next),
            Term::Br { cond, then_bb, else_bb } => {
                match block.insts.last() {
                    Some(&Inst::Cmp { dst, pred, .. }) if dst == cond => {
                        ins!(self, "{}{} .L{then_bb}", T::JCC, T::CC[pred as usize]);
                    }
                    _ => {
                        self.get(cond, 0);
                        T::branch_nonzero(self, class(self.vreg_ty(cond)), then_bb);
                    }
                }
                self.jump(else_bb, next);
            }
            Term::Ret(v) => {
                if let Some(v) = v {
                    self.get(v, 0);
                    let c = class(self.vreg_ty(v));
                    if let (Some(ret), W | X) = (T::RET, c) {
                        self.op(T::MOV[c], ret[c], T::SCRATCH[0][c]);
                    }
                }
                for i in 0..self.frame.saves.len() {
                    let (p, off) = self.frame.saves[i];
                    self.op(T::LD[X], T::POOL[p as usize][X], Self::mem(Mem::Frame(off)));
                }
                T::epilogue(self);
            }
        }
    }
}

/// Writes byte `b` of a `.string` directive.
fn escape_byte(out: &mut String, b: u8) {
    match b {
        b'\n' => out.push_str("\\n"),
        b'\t' => out.push_str("\\t"),
        b'\r' => out.push_str("\\r"),
        b'"' => out.push_str("\\\""),
        b'\\' => out.push_str("\\\\"),
        0x20..=0x7e => out.push(b as char),
        other => {
            let _ = write!(out, "\\{other:03o}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Target;
    use crate::arm::Arm;
    use crate::x86::X86;
    use crate::{compile_function, CompileError, CompileOpts, Isa, OptLevel};
    use slade_minic::parse_program;

    fn covers_the_abi<T: Target>() {
        let (ints, fps) = T::ISA.arg_regs();
        assert_eq!(T::ARGS.map(<[_]>::len), [ints, ints, fps, fps], "{}", T::ISA);
    }

    #[test]
    fn argument_registers_cover_the_abi() {
        covers_the_abi::<X86>();
        covers_the_abi::<Arm>();
    }

    /// A function taking `n` parameters of type `ty`, and one making a
    /// call with `n` such arguments.
    fn sources(ty: &str, n: usize) -> [String; 2] {
        let params: Vec<String> = (0..n).map(|i| format!("{ty} p{i}")).collect();
        let args: Vec<String> = (0..n).map(|i| i.to_string()).collect();
        let params = params.join(", ");
        [
            format!("{ty} f({params}) {{ return p{}; }}", n - 1),
            format!("{ty} g({params}); {ty} f(void) {{ return g({}); }}", args.join(", ")),
        ]
    }

    #[test]
    fn an_argument_past_the_abi_registers_is_unsupported() {
        for isa in [Isa::X86_64, Isa::Arm64] {
            let (ints, fps) = isa.arg_regs();
            for opt in [OptLevel::O0, OptLevel::O3] {
                for (ty, cap) in [("int", ints), ("double", fps)] {
                    for (n, fits) in [(cap, true), (cap + 1, false)] {
                        for src in sources(ty, n) {
                            let program = parse_program(&src).unwrap();
                            let got =
                                compile_function(&program, "f", CompileOpts::new(isa, opt));
                            match got {
                                Ok(_) => assert!(fits, "{isa} {opt}: {src}"),
                                Err(CompileError::Unsupported(why)) if !fits => {
                                    assert!(
                                        why.starts_with(&format!("more than {cap}")),
                                        "{why}"
                                    )
                                }
                                Err(e) => panic!("{isa} {opt}: {src}: {e}"),
                            }
                        }
                    }
                }
            }
        }
    }
}
