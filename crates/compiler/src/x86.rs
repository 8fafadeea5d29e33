//! x86-64 target (AT&T syntax, GCC flavour).
//!
//! `-O0` spills every value to the stack exactly like GCC; `-O3` runs the
//! linear-scan allocator over the callee-saved pool (`rbx`, `r12`–`r15`)
//! and emits vector instructions (`movdqu`/`pshufd`/`paddd`/`movups`) for
//! the loops the source-level vectorizer transformed.

use crate::emit::{class, ins, Cast, Emitter, Frame, Loc, Mem, Target, W};
use crate::ir::*;
use crate::regalloc::Allocation;
use crate::Result;
use slade_asm::Isa;
use std::fmt;

/// The x86-64 target.
pub(crate) struct X86;

const XMM: [&str; 8] = ["%xmm0", "%xmm1", "%xmm2", "%xmm3", "%xmm4", "%xmm5", "%xmm6", "%xmm7"];

impl Target for X86 {
    const ISA: Isa = Isa::X86_64;
    const POOL: [[&'static str; 2]; 5] = [
        ["%ebx", "%rbx"],
        ["%r12d", "%r12"],
        ["%r13d", "%r13"],
        ["%r14d", "%r14"],
        ["%r15d", "%r15"],
    ];
    const ARGS: [&'static [&'static str]; 4] = [
        &["%edi", "%esi", "%edx", "%ecx", "%r8d", "%r9d"],
        &["%rdi", "%rsi", "%rdx", "%rcx", "%r8", "%r9"],
        &XMM,
        &XMM,
    ];
    const SCRATCH: [[&'static str; 5]; 2] = [
        ["%eax", "%rax", "%xmm0", "%xmm0", "%xmm0"],
        ["%ecx", "%rcx", "%xmm1", "%xmm1", "%xmm1"],
    ];
    const RET: Option<[&'static str; 2]> = None;
    const MOV: [&'static str; 2] = ["movl", "movq"];
    const LD: [&'static str; 5] = ["movl", "movq", "movss", "movsd", "movdqu"];
    const ST: [&'static str; 5] = Self::LD;
    const ADDR: &'static str = "%r10";
    const LOADS: [[&'static str; 2]; 6] = [
        ["movsbl", "movzbl"],
        ["movswl", "movzwl"],
        ["movl", "movl"],
        ["movq", "movq"],
        ["movss", "movss"],
        ["movsd", "movsd"],
    ];
    const STORES: [[&'static str; 2]; 6] = [
        ["movb", "%al"],
        ["movw", "%ax"],
        ["movl", "%eax"],
        ["movq", "%rax"],
        ["movss", "%xmm0"],
        ["movsd", "%xmm0"],
    ];
    const CASTS: [Cast; 17] = [
        Cast::InPlace("movslq"),
        Cast::Scratch(""),
        Cast::Scratch(""),
        Cast::Scratch("movsbl %al, %eax"),
        Cast::Scratch("movzbl %al, %eax"),
        Cast::Scratch("movswl %ax, %eax"),
        Cast::Scratch("movzwl %ax, %eax"),
        Cast::Scratch("cvtsi2ss %eax, %xmm0"),
        Cast::Scratch("cvtsi2sd %eax, %xmm0"),
        Cast::Scratch("cvtsi2ssq %rax, %xmm0"),
        Cast::Scratch("cvtsi2sdq %rax, %xmm0"),
        Cast::Scratch("cvttss2si %xmm0, %eax"),
        Cast::Scratch("cvttsd2si %xmm0, %eax"),
        Cast::Scratch("cvttss2siq %xmm0, %rax"),
        Cast::Scratch("cvttsd2siq %xmm0, %rax"),
        Cast::Scratch("cvtss2sd %xmm0, %xmm0"),
        Cast::Scratch("cvtsd2ss %xmm0, %xmm0"),
    ];
    const BITS_TO_FP: [&'static str; 2] = ["movd %eax, %xmm0", "movq %rax, %xmm0"];
    const CC: [&'static str; 16] = [
        "e", "ne", "l", "le", "g", "ge", "b", "be", "a", "ae", "e", "ne", "b", "be", "a", "ae",
    ];
    const JMP: &'static str = "jmp";
    const JCC: &'static str = "j";
    const GLOBAL: &'static str = ".globl";
    const FUNCTION: &'static str = "@function";
    const SRC_FIRST: bool = true;

    /// Down from `%rbp`: the callee-saved save area, IR slots, then spilled
    /// vregs; only vector spills are aligned.
    fn layout(m: &Module, alloc: &Allocation) -> Frame {
        let saves: Vec<(u8, i64)> =
            alloc.used.iter().zip(1..).map(|(&r, i)| (r, -8 * i)).collect();
        let mut off = -8 * alloc.used.len() as i64;
        let mut slots = Vec::with_capacity(m.slots.len());
        for s in &m.slots {
            let size = s.size.max(1) as i64;
            let align = s.align.max(1) as i64;
            off -= size;
            off = -((-off + align - 1) / align * align);
            slots.push(off);
        }
        let mut locs = Vec::with_capacity(m.vreg_count());
        for (i, ty) in m.vreg_tys.iter().enumerate() {
            match alloc.assignment[i] {
                Some(r) if ty.is_int() => locs.push(Loc::Reg(r)),
                _ => {
                    let size = if *ty == Ty::V4I32 { 16 } else { 8 };
                    off -= size;
                    if size == 16 {
                        off = -((-off + 15) / 16 * 16);
                    }
                    locs.push(Loc::Mem(off));
                }
            }
        }
        Frame { locs, slots, saves, size: (-off + 15) / 16 * 16 }
    }

    fn fmt_mem(mem: Mem, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match mem {
            Mem::Frame(off) => write!(f, "{off}(%rbp)"),
            Mem::At(reg) => write!(f, "({reg})"),
        }
    }

    fn prologue(em: &mut Emitter<'_, Self>) {
        ins!(em, ".cfi_startproc");
        ins!(em, "endbr64");
        ins!(em, "pushq %rbp");
        ins!(em, "movq %rsp, %rbp");
        let size = em.frame.size;
        if size > 0 {
            ins!(em, "subq ${size}, %rsp");
        }
    }

    fn epilogue(em: &mut Emitter<'_, Self>) {
        ins!(em, "leave");
        ins!(em, "ret");
    }

    fn close(em: &mut Emitter<'_, Self>) {
        ins!(em, ".cfi_endproc");
    }

    /// `%al` counts the vector registers a variadic callee may read.
    fn call(em: &mut Emitter<'_, Self>, callee: &str, fp_args: usize) {
        if fp_args > 0 {
            ins!(em, "movl ${fp_args}, %eax");
        }
        ins!(em, "call {callee}");
    }

    fn imm(em: &mut Emitter<'_, Self>, val: i64, wide: bool) {
        if wide {
            ins!(em, "movabsq ${val}, %rax");
        } else {
            ins!(em, "movl ${val}, %eax");
        }
    }

    /// An immediate that fits 32 bits is written to its vreg directly.
    fn iconst(em: &mut Emitter<'_, Self>, dst: VReg, val: i64, wide: bool) {
        if wide && i32::try_from(val).is_err() {
            Self::imm(em, val, true);
            em.put(dst);
        } else {
            let at = em.at(dst, wide as usize);
            em.op(Self::MOV[wide as usize], at, format_args!("${val}"));
        }
    }

    fn slot_addr(em: &mut Emitter<'_, Self>, reg: &str, off: i64) {
        ins!(em, "leaq {off}(%rbp), {reg}");
    }

    fn global_addr(em: &mut Emitter<'_, Self>, dst: VReg, name: &str) {
        em.address(dst, |em, reg| ins!(em, "leaq {name}(%rip), {reg}"));
    }

    /// Two-address: `a` in the accumulator, `b` read in place. Division
    /// goes through `%r11` and `%rdx`, a shift count through `%cl`.
    fn int_bin(em: &mut Emitter<'_, Self>, op: IrBinOp, a: VReg, b: VReg, wide: bool) {
        let c = wide as usize;
        let (sfx, acc) = (["l", "q"][c], Self::SCRATCH[0][c]);
        let (r11, rdx) = (["%r11d", "%r11"][c], ["%edx", "%rdx"][c]);
        match op {
            IrBinOp::DivS | IrBinOp::RemS | IrBinOp::DivU | IrBinOp::RemU => {
                let signed = matches!(op, IrBinOp::DivS | IrBinOp::RemS);
                em.get(a, 0);
                let rhs = em.at(b, c);
                ins!(em, "mov{sfx} {rhs}, {r11}");
                if signed {
                    ins!(em, "{}", ["cltd", "cqto"][c]);
                } else {
                    ins!(em, "xor{sfx} {rdx}, {rdx}");
                }
                ins!(em, "{}{sfx} {r11}", if signed { "idiv" } else { "div" });
                if matches!(op, IrBinOp::RemS | IrBinOp::RemU) {
                    ins!(em, "mov{sfx} {rdx}, {acc}");
                }
            }
            IrBinOp::Shl | IrBinOp::ShrS | IrBinOp::ShrU => {
                let count = em.at(b, W);
                ins!(em, "movl {count}, %ecx");
                em.get(a, 0);
                let mn = match op {
                    IrBinOp::Shl => "sal",
                    IrBinOp::ShrS => "sar",
                    _ => "shr",
                };
                ins!(em, "{mn}{sfx} %cl, {acc}");
            }
            _ => {
                let mn = match op {
                    IrBinOp::Add => "add",
                    IrBinOp::Sub => "sub",
                    IrBinOp::Mul => "imul",
                    IrBinOp::And => "and",
                    IrBinOp::Or => "or",
                    _ => "xor",
                };
                em.get(a, 0);
                let rhs = em.at(b, c);
                ins!(em, "{mn}{sfx} {rhs}, {acc}");
            }
        }
    }

    fn float_bin(em: &mut Emitter<'_, Self>, op: IrBinOp, a: VReg, b: VReg, ty: Ty) {
        em.get(a, 0);
        let mn = match op {
            IrBinOp::FAdd => "add",
            IrBinOp::FSub => "sub",
            IrBinOp::FMul => "mul",
            _ => "div",
        };
        let rhs = em.at(b, class(ty));
        ins!(em, "{mn}{} {rhs}, %xmm0", sse_suffix(ty));
    }

    fn compare(em: &mut Emitter<'_, Self>, pred: Pred, a: VReg, b: VReg, ty: Ty) {
        em.get(a, 0);
        let c = class(ty);
        let rhs = em.at(b, c);
        if ty.is_float() {
            ins!(em, "ucomi{} {rhs}, %xmm0", sse_suffix(ty));
        } else {
            ins!(em, "cmp{} {rhs}, {}", ["l", "q"][c], Self::SCRATCH[0][c]);
        }
        ins!(em, "set{} %al", Self::CC[pred as usize]);
        ins!(em, "movzbl %al, %eax");
    }

    fn branch_nonzero(em: &mut Emitter<'_, Self>, c: usize, then: BlockId) {
        let acc = Self::SCRATCH[0][c];
        ins!(em, "test{} {acc}, {acc}", ["l", "q"][c]);
        ins!(em, "jne .L{then}");
    }

    fn vector(em: &mut Emitter<'_, Self>, inst: &Inst) -> Result<()> {
        match *inst {
            Inst::VecLoad { dst, addr } | Inst::Load { dst, addr, .. } => {
                let mem = em.addr(addr);
                ins!(em, "movdqu {mem}, %xmm0");
                em.put(dst);
            }
            Inst::VecStore { addr, src } | Inst::Store { addr, src, .. } => {
                em.get(src, 0);
                let mem = em.addr(addr);
                ins!(em, "movups %xmm0, {mem}");
            }
            Inst::VecSplat { dst, src } => {
                em.get(src, 0);
                ins!(em, "movd %eax, %xmm0");
                ins!(em, "pshufd $0, %xmm0, %xmm0");
                em.put(dst);
            }
            Inst::VecBin { op, dst, a, b } => {
                em.get(a, 0);
                em.get(b, 1);
                let mn = match op {
                    IrBinOp::Add => "paddd",
                    IrBinOp::Sub => "psubd",
                    _ => "pmulld",
                };
                ins!(em, "{mn} %xmm1, %xmm0");
                em.put(dst);
            }
            _ => unreachable!("not a vector instruction: {inst:?}"),
        }
        Ok(())
    }
}

fn sse_suffix(ty: Ty) -> &'static str {
    if ty == Ty::F32 {
        "ss"
    } else {
        "sd"
    }
}

#[cfg(test)]
mod tests {
    use crate::{compile_function, CompileOpts, Isa, OptLevel};
    use slade_minic::parse_program;

    fn asm(src: &str, name: &str, opt: OptLevel) -> String {
        let p = parse_program(src).unwrap();
        compile_function(&p, name, CompileOpts::new(Isa::X86_64, opt)).unwrap()
    }

    #[test]
    fn o0_is_stack_heavy() {
        let a = asm("int add(int a, int b) { return a + b; }", "add", OptLevel::O0);
        assert!(a.contains("pushq %rbp"), "{a}");
        assert!(a.contains("(%rbp)"), "{a}");
        assert!(a.contains("addl"), "{a}");
        assert!(a.contains("leave"), "{a}");
    }

    #[test]
    fn o3_is_shorter_than_o0() {
        let src = "int f(int a, int b, int c) { int x = a + b; int y = x * c; return y - a; }";
        let o0 = asm(src, "f", OptLevel::O0);
        let o3 = asm(src, "f", OptLevel::O3);
        assert!(o3.lines().count() < o0.lines().count(), "O3 not smaller:\n{o3}\n\nvs\n\n{o0}");
    }

    #[test]
    fn o3_vectorizes_the_motivating_loop() {
        let src = r#"
            void add(int *list, int val, int n) {
                int i;
                for (i = 0; i < n; ++i) { list[i] += val; }
            }
        "#;
        let o3 = asm(src, "add", OptLevel::O3);
        assert!(o3.contains("paddd"), "no vector add:\n{o3}");
        assert!(o3.contains("pshufd"), "no splat:\n{o3}");
        assert!(o3.contains("movdqu"), "no vector load:\n{o3}");
    }

    #[test]
    fn division_uses_idiv_protocol() {
        let a = asm("int f(int a, int b) { return a / b; }", "f", OptLevel::O0);
        assert!(a.contains("cltd"), "{a}");
        assert!(a.contains("idivl"), "{a}");
        let m = asm("int f(int a, int b) { return a % b; }", "f", OptLevel::O0);
        assert!(m.contains("%edx"), "{m}");
    }

    #[test]
    fn unsigned_division_zeroes_edx() {
        let a = asm("unsigned f(unsigned a, unsigned b) { return a / b; }", "f", OptLevel::O0);
        assert!(a.contains("divl"), "{a}");
        assert!(!a.contains("cltd"), "{a}");
    }

    #[test]
    fn calls_use_sysv_argument_registers() {
        let src = "int g(int a, int b, int c); int f(int x) { return g(x, 2, 3); }";
        let a = asm(src, "f", OptLevel::O0);
        assert!(a.contains("%edi"), "{a}");
        assert!(a.contains("%esi"), "{a}");
        assert!(a.contains("call g"), "{a}");
    }

    #[test]
    fn branches_fuse_compare_and_jump() {
        let a = asm("int f(int a) { if (a < 10) return 1; return 2; }", "f", OptLevel::O3);
        assert!(a.contains("jl .L") || a.contains("jge .L"), "no fused branch:\n{a}");
    }

    #[test]
    fn float_code_uses_sse_scalar_ops() {
        let a = asm("double f(double x, double y) { return x * y + 1.0; }", "f", OptLevel::O0);
        assert!(a.contains("mulsd"), "{a}");
        assert!(a.contains("addsd"), "{a}");
        assert!(a.contains("movsd"), "{a}");
    }

    #[test]
    fn strings_emit_rodata() {
        let a = asm("int f(char *s) { return strcmp(s, \"hi\"); }", "f", OptLevel::O0);
        assert!(a.contains(".section .rodata"), "{a}");
        assert!(a.contains(".string \"hi\""), "{a}");
    }

    #[test]
    fn switch_lowers_to_compare_chain() {
        let a = asm(
            "int f(int x) { switch (x) { case 1: return 10; case 2: return 20; default: return 0; } }",
            "f",
            OptLevel::O0,
        );
        let cmps = a.matches("cmpl").count();
        assert!(cmps >= 2, "dispatch chain missing:\n{a}");
    }

    #[test]
    fn globals_use_rip_relative_addressing() {
        let a = asm("int g; int f(void) { return g; }", "f", OptLevel::O0);
        assert!(a.contains("g(%rip)"), "{a}");
    }
}
