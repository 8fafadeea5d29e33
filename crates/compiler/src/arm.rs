//! AArch64 target (GCC flavour).
//!
//! `-O0` keeps every value in the frame, `-O3` allocates the callee-saved
//! pool (`x19`–`x23`). There is no ARM auto-vectorization (the source-level
//! vectorizer only fires for x86, as the paper's motivating example does);
//! `-O3` still unrolls.

use crate::emit::{class, ins, Cast, Emitter, Frame, Loc, Mem, Target};
use crate::ir::*;
use crate::regalloc::Allocation;
use crate::{CompileError, Result};
use slade_asm::Isa;
use std::fmt;

/// The AArch64 target.
pub(crate) struct Arm;

impl Target for Arm {
    const ISA: Isa = Isa::Arm64;
    const POOL: [[&'static str; 2]; 5] =
        [["w19", "x19"], ["w20", "x20"], ["w21", "x21"], ["w22", "x22"], ["w23", "x23"]];
    const ARGS: [&'static [&'static str]; 4] = [
        &["w0", "w1", "w2", "w3", "w4", "w5", "w6", "w7"],
        &["x0", "x1", "x2", "x3", "x4", "x5", "x6", "x7"],
        &["s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7"],
        &["d0", "d1", "d2", "d3", "d4", "d5", "d6", "d7"],
    ];
    const SCRATCH: [[&'static str; 5]; 2] =
        [["w8", "x8", "s0", "d0", ""], ["w9", "x9", "s1", "d1", ""]];
    const RET: Option<[&'static str; 2]> = Some(["w0", "x0"]);
    const MOV: [&'static str; 2] = ["mov", "mov"];
    const LD: [&'static str; 5] = ["ldr"; 5];
    const ST: [&'static str; 5] = ["str"; 5];
    const ADDR: &'static str = "x10";
    const LOADS: [[&'static str; 2]; 6] = [
        ["ldrsb", "ldrb"],
        ["ldrsh", "ldrh"],
        ["ldr", "ldr"],
        ["ldr", "ldr"],
        ["ldr", "ldr"],
        ["ldr", "ldr"],
    ];
    const STORES: [[&'static str; 2]; 6] = [
        ["strb", "w8"],
        ["strh", "w8"],
        ["str", "w8"],
        ["str", "x8"],
        ["str", "s0"],
        ["str", "d0"],
    ];
    const CASTS: [Cast; 17] = [
        Cast::Scratch("sxtw x8, w8"),
        Cast::Scratch("mov w8, w8"),
        Cast::Scratch(""),
        Cast::Scratch("sxtb w8, w8"),
        Cast::Scratch("uxtb w8, w8"),
        Cast::Scratch("sxth w8, w8"),
        Cast::Scratch("uxth w8, w8"),
        Cast::Scratch("scvtf s0, w8"),
        Cast::Scratch("scvtf d0, w8"),
        Cast::Scratch("scvtf s0, x8"),
        Cast::Scratch("scvtf d0, x8"),
        Cast::Scratch("fcvtzs w8, s0"),
        Cast::Scratch("fcvtzs w8, d0"),
        Cast::Scratch("fcvtzs x8, s0"),
        Cast::Scratch("fcvtzs x8, d0"),
        Cast::Scratch("fcvt d0, s0"),
        Cast::Scratch("fcvt s0, d0"),
    ];
    const BITS_TO_FP: [&'static str; 2] = ["fmov s0, w8", "fmov d0, x8"];
    const CC: [&'static str; 16] = [
        "eq", "ne", "lt", "le", "gt", "ge", "lo", "ls", "hi", "hs", "eq", "ne", "mi", "ls",
        "gt", "ge",
    ];
    const JMP: &'static str = "b";
    const JCC: &'static str = "b.";
    const GLOBAL: &'static str = ".global";
    const FUNCTION: &'static str = "%function";
    const SRC_FIRST: bool = false;

    /// Up from `x29 + 16` (`[sp, sp + 16)` holds `x29` / `x30`): saves, IR
    /// slots, then spilled vregs, every one aligned.
    fn layout(m: &Module, alloc: &Allocation) -> Frame {
        let saves: Vec<(u8, i64)> =
            alloc.used.iter().zip(0..).map(|(&r, i)| (r, 16 + 8 * i)).collect();
        let mut off = 16 + 8 * alloc.used.len() as i64;
        let mut slots = Vec::with_capacity(m.slots.len());
        for s in &m.slots {
            let align = s.align.max(1) as i64;
            off = (off + align - 1) / align * align;
            slots.push(off);
            off += s.size.max(1) as i64;
        }
        let mut locs = Vec::with_capacity(m.vreg_count());
        for (i, ty) in m.vreg_tys.iter().enumerate() {
            match alloc.assignment[i] {
                Some(r) if ty.is_int() => locs.push(Loc::Reg(r)),
                _ => {
                    let size = if *ty == Ty::V4I32 { 16 } else { 8 };
                    off = (off + size - 1) / size * size;
                    locs.push(Loc::Mem(off));
                    off += size;
                }
            }
        }
        Frame { locs, slots, saves, size: (off + 15) / 16 * 16 }
    }

    fn fmt_mem(mem: Mem, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match mem {
            Mem::Frame(off) => write!(f, "[x29, #{off}]"),
            Mem::At(reg) => write!(f, "[{reg}]"),
        }
    }

    fn prologue(em: &mut Emitter<'_, Self>) {
        let size = em.frame.size;
        ins!(em, "stp x29, x30, [sp, #-{size}]!");
        ins!(em, "mov x29, sp");
    }

    fn epilogue(em: &mut Emitter<'_, Self>) {
        let size = em.frame.size;
        ins!(em, "ldp x29, x30, [sp], #{size}");
        ins!(em, "ret");
    }

    fn call(em: &mut Emitter<'_, Self>, callee: &str, _fp_args: usize) {
        ins!(em, "bl {callee}");
    }

    /// `movz` the low half-word, `movk` every other non-zero one.
    fn imm(em: &mut Emitter<'_, Self>, val: i64, wide: bool) {
        let (reg, bits, halves) =
            if wide { ("x8", val as u64, 4) } else { ("w8", val as u32 as u64, 2) };
        ins!(em, "movz {reg}, #{}", bits & 0xffff);
        for i in 1..halves {
            let half = (bits >> (16 * i)) & 0xffff;
            if half != 0 {
                ins!(em, "movk {reg}, #{half}, lsl #{}", 16 * i);
            }
        }
    }

    fn slot_addr(em: &mut Emitter<'_, Self>, reg: &str, off: i64) {
        ins!(em, "add {reg}, x29, #{off}");
    }

    fn global_addr(em: &mut Emitter<'_, Self>, dst: VReg, name: &str) {
        ins!(em, "adrp x8, {name}");
        ins!(em, "add x8, x8, :lo12:{name}");
        em.put(dst);
    }

    /// Three-address over `x8` / `x9`; a remainder is `a - (a / b) * b`.
    fn int_bin(em: &mut Emitter<'_, Self>, op: IrBinOp, a: VReg, b: VReg, wide: bool) {
        let c = wide as usize;
        let (r8, r9, r10) = (["w8", "x8"][c], ["w9", "x9"][c], ["w10", "x10"][c]);
        em.get(a, 0);
        em.get(b, 1);
        let mn = match op {
            IrBinOp::Add => "add",
            IrBinOp::Sub => "sub",
            IrBinOp::Mul => "mul",
            IrBinOp::DivS | IrBinOp::RemS => "sdiv",
            IrBinOp::DivU | IrBinOp::RemU => "udiv",
            IrBinOp::And => "and",
            IrBinOp::Or => "orr",
            IrBinOp::Xor => "eor",
            IrBinOp::Shl => "lsl",
            IrBinOp::ShrS => "asr",
            IrBinOp::ShrU => "lsr",
            _ => unreachable!("float op in int path"),
        };
        if matches!(op, IrBinOp::RemS | IrBinOp::RemU) {
            ins!(em, "{mn} {r10}, {r8}, {r9}");
            ins!(em, "msub {r8}, {r10}, {r9}, {r8}");
        } else {
            ins!(em, "{mn} {r8}, {r8}, {r9}");
        }
    }

    fn float_bin(em: &mut Emitter<'_, Self>, op: IrBinOp, a: VReg, b: VReg, ty: Ty) {
        let c = class(ty);
        let (r0, r1) = (Self::SCRATCH[0][c], Self::SCRATCH[1][c]);
        em.get(a, 0);
        em.get(b, 1);
        let mn = match op {
            IrBinOp::FAdd => "fadd",
            IrBinOp::FSub => "fsub",
            IrBinOp::FMul => "fmul",
            _ => "fdiv",
        };
        ins!(em, "{mn} {r0}, {r0}, {r1}");
    }

    fn compare(em: &mut Emitter<'_, Self>, pred: Pred, a: VReg, b: VReg, ty: Ty) {
        let c = class(ty);
        em.get(a, 0);
        em.get(b, 1);
        let mn = if ty.is_float() { "fcmp" } else { "cmp" };
        ins!(em, "{mn} {}, {}", Self::SCRATCH[0][c], Self::SCRATCH[1][c]);
        ins!(em, "cset w8, {}", Self::CC[pred as usize]);
    }

    fn branch_nonzero(em: &mut Emitter<'_, Self>, c: usize, then: BlockId) {
        ins!(em, "cbnz {}, .L{then}", Self::SCRATCH[0][c]);
    }

    fn vector(_em: &mut Emitter<'_, Self>, _inst: &Inst) -> Result<()> {
        Err(CompileError::Unsupported("vector ops on ARM backend".into()))
    }
}

#[cfg(test)]
mod tests {
    use crate::{compile_function, CompileOpts, Isa, OptLevel};
    use slade_minic::parse_program;

    fn asm(src: &str, name: &str, opt: OptLevel) -> String {
        let p = parse_program(src).unwrap();
        compile_function(&p, name, CompileOpts::new(Isa::Arm64, opt)).unwrap()
    }

    #[test]
    fn emits_aarch64_frame() {
        let a = asm("int add(int a, int b) { return a + b; }", "add", OptLevel::O0);
        assert!(a.contains("stp x29, x30"), "{a}");
        assert!(a.contains("ldp x29, x30"), "{a}");
        assert!(a.contains("add w8, w8, w9"), "{a}");
        assert!(a.contains("ret"), "{a}");
    }

    #[test]
    fn remainders_use_msub() {
        let a = asm("int f(int a, int b) { return a % b; }", "f", OptLevel::O0);
        assert!(a.contains("sdiv"), "{a}");
        assert!(a.contains("msub"), "{a}");
    }

    #[test]
    fn branches_fuse_on_arm() {
        let a = asm("int f(int a) { if (a < 10) return 1; return 2; }", "f", OptLevel::O3);
        assert!(a.contains("b.lt") || a.contains("b.ge"), "{a}");
    }

    #[test]
    fn arm_o3_never_vectorizes() {
        let src = r#"
            void add(int *list, int val, int n) {
                for (int i = 0; i < n; i++) list[i] += val;
            }
        "#;
        let a = asm(src, "add", OptLevel::O3);
        assert!(!a.contains("paddd"), "{a}");
        // But it does unroll: the add body appears several times.
        let adds = a.matches("ldr").count();
        assert!(adds > 6, "unroll missing?\n{a}");
    }

    #[test]
    fn float_code_uses_fp_registers() {
        let a = asm("double f(double x, double y) { return x * y; }", "f", OptLevel::O0);
        assert!(a.contains("fmul d0, d0, d1"), "{a}");
    }

    #[test]
    fn calls_use_wx_argument_registers() {
        let src = "long g(int a, long b); long f(int x) { return g(x, 5); }";
        let a = asm(src, "f", OptLevel::O0);
        assert!(a.contains("bl g"), "{a}");
        assert!(a.contains("w0"), "{a}");
        assert!(a.contains("x1"), "{a}");
    }

    #[test]
    fn globals_use_adrp() {
        let a = asm("int g; int f(void) { return g; }", "f", OptLevel::O0);
        assert!(a.contains("adrp x8, g"), "{a}");
        assert!(a.contains(":lo12:g"), "{a}");
    }

    #[test]
    fn unsigned_compare_uses_unsigned_conditions() {
        let a = asm("int f(unsigned a, unsigned b) { return a < b; }", "f", OptLevel::O0);
        assert!(a.contains("cset w8, lo"), "{a}");
    }
}
