//! One meaning per instruction. Each ISA's mnemonics and operands decode
//! here, once, into a short list of ISA-independent [`Op`]s over canonical
//! [`Reg`]isters: the emulators (`slade_emu`'s `Machine`) execute the ops
//! and the lifter (`slade_baselines`) prints them as C, so the two cannot
//! read one instruction two ways. This is Ghidra's P-code design: a decode
//! table per ISA, one interpreter, one printer.
//!
//! Flags are one canonical set for both ISAs ([`Flags`]), and a condition
//! suffix of either ISA is one [`Cond`] over it.
//!
//! # Example
//!
//! ```
//! use slade_asm::sem::{decode, BinOp, Op};
//! use slade_asm::{parse_asm, Isa, Line};
//!
//! let f = &parse_asm("f:\n\taddl %esi, %edi\n", Isa::X86_64).functions[0];
//! let Line::Inst(inst) = &f.lines[0] else { unreachable!() };
//! let mut ops = Vec::new();
//! decode(Isa::X86_64, inst, &mut ops).unwrap();
//! assert!(matches!(ops[..], [Op::Bin { op: BinOp::Add, w: 4, flags: true, .. }]));
//! ```

use crate::{Inst, Isa, Operand};

/// What a register holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// General-purpose (integer and pointer) registers.
    Int,
    /// Floating-point / vector registers (`xmm`, `d` / `s`).
    Float,
}

/// A register access: class, number within the class and width in bytes.
/// Integer numbers follow [`X86_GPRS`] on x86-64 and `x0`…`x30` on AArch64,
/// whose `sp` is [`ARM_SP`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reg {
    /// Register class.
    pub class: Class,
    /// Number within the class.
    pub num: u8,
    /// Bytes accessed: 1, 2, 4 or 8 (16 for a whole vector register).
    pub width: u8,
}

/// x86-64 general registers by number, 64-bit names.
pub const X86_GPRS: [&str; 16] = [
    "rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp", "rsp", "r8", "r9", "r10", "r11", "r12",
    "r13", "r14", "r15",
];

/// The 32-, 16- and 8-bit names of x86-64 registers 0–7; `r8`–`r15` take
/// the suffixes `d`, `w` and `b`.
const X86_LOW: [[&str; 3]; 8] = [
    ["eax", "ax", "al"],
    ["ebx", "bx", "bl"],
    ["ecx", "cx", "cl"],
    ["edx", "dx", "dl"],
    ["esi", "si", "sil"],
    ["edi", "di", "dil"],
    ["ebp", "bp", "bpl"],
    ["esp", "sp", "spl"],
];

/// The AArch64 stack pointer's integer register number.
pub const ARM_SP: u8 = 31;

/// The integer registers that carry a call's arguments, in order (SysV
/// `rdi rsi rdx rcx r8 r9`, AAPCS64 `x0`…`x7`). Floating-point arguments
/// go in float registers 0…7 on both ISAs; results come back in integer
/// register 0 or float register 0.
pub const fn int_args(isa: Isa) -> &'static [u8] {
    match isa {
        Isa::X86_64 => &[5, 4, 3, 2, 8, 9],
        Isa::Arm64 => &[0, 1, 2, 3, 4, 5, 6, 7],
    }
}

/// The stack pointer's integer register number.
pub const fn sp(isa: Isa) -> u8 {
    match isa {
        Isa::X86_64 => 7,
        Isa::Arm64 => ARM_SP,
    }
}

/// Which argument of its class `r` carries, if any.
pub fn arg_index(isa: Isa, r: Reg) -> Option<usize> {
    match r.class {
        Class::Int => int_args(isa).iter().position(|&n| n == r.num),
        Class::Float => Some(r.num as usize).filter(|&n| n < 8),
    }
}

/// A memory address.
#[derive(Debug, Clone, PartialEq)]
pub enum Addr {
    /// `base + index * scale + disp`.
    Regs {
        /// Base register.
        base: Option<Reg>,
        /// Index register and its scale.
        index: Option<(Reg, i64)>,
        /// Constant displacement.
        disp: i64,
    },
    /// A symbol's address (`sym(%rip)`, `:lo12:sym`).
    Sym(String),
}

/// An operand: a register, an immediate or the memory at an address.
#[derive(Debug, Clone, PartialEq)]
pub enum Val {
    /// A register, read or written at its width.
    Reg(Reg),
    /// An immediate.
    Imm(i64),
    /// Memory, accessed at the op's width.
    Mem(Addr),
}

/// An integer operation, named after C's: signed and unsigned division and
/// remainder, and shifts whose count is taken modulo the width in bits.
/// `Add`, `Sub`, `Mul` and `DivS` also name the floating-point ones of
/// [`Op::FBin`] and the lane ones of [`Op::Lanes`].
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    DivS,
    DivU,
    RemS,
    RemU,
    And,
    Or,
    Xor,
    Shl,
    ShrS,
    ShrU,
}

impl BinOp {
    /// The C operator.
    pub fn c(self) -> &'static str {
        use BinOp::*;
        match self {
            Add => "+",
            Sub => "-",
            Mul => "*",
            DivS | DivU => "/",
            RemS | RemU => "%",
            And => "&",
            Or => "|",
            Xor => "^",
            Shl => "<<",
            ShrS | ShrU => ">>",
        }
    }

    /// `a op b` on `w`-byte (4 or 8) operands; bits above the width are
    /// the writer's to drop. `None` is a division by zero.
    pub fn eval(self, w: u8, a: u64, b: u64) -> Option<u64> {
        use BinOp::*;
        let wide = w == 8;
        let (sa, sb) =
            if wide { (a as i64, b as i64) } else { (a as i32 as i64, b as i32 as i64) };
        let (ua, ub) = if wide { (a, b) } else { (a as u32 as u64, b as u32 as u64) };
        let count = (b as u32) & if wide { 63 } else { 31 };
        Some(match self {
            Add => a.wrapping_add(b),
            Sub => a.wrapping_sub(b),
            Mul => a.wrapping_mul(b),
            DivS | RemS if sb == 0 => return None,
            DivU | RemU if ub == 0 => return None,
            // At 32 bits `i32::MIN / -1` wraps like the hardware's result.
            DivS if wide => sa.wrapping_div(sb) as u64,
            RemS if wide => sa.wrapping_rem(sb) as u64,
            DivS => (sa as i32).wrapping_div(sb as i32) as u32 as u64,
            RemS => (sa as i32).wrapping_rem(sb as i32) as u32 as u64,
            DivU => ua / ub,
            RemU => ua % ub,
            And => a & b,
            Or => a | b,
            Xor => a ^ b,
            Shl => a.wrapping_shl(count),
            ShrS => (sa >> count) as u64,
            ShrU => ua >> count,
        })
    }
}

/// The canonical flag set both ISAs' compares write and conditions read.
/// `below` is the unsigned borrow: x86's CF, AArch64's inverted C.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Flags {
    /// Zero.
    pub z: bool,
    /// Negative.
    pub n: bool,
    /// Signed overflow.
    pub v: bool,
    /// Unsigned borrow.
    pub below: bool,
}

impl Flags {
    /// The flags of `a - b` on `w`-byte operands.
    pub fn sub(a: u64, b: u64, w: u8) -> Flags {
        let (a, b) = (mask(a, w), mask(b, w));
        let shift = 64 - 8 * w as u32;
        let (sa, sb) = (((a << shift) as i64) >> shift, ((b << shift) as i64) >> shift);
        let r = sa.wrapping_sub(sb);
        let r = (r << shift) >> shift;
        Flags { z: r == 0, n: r < 0, v: sa as i128 - sb as i128 != r as i128, below: a < b }
    }

    /// Sets Z and N from the `w`-byte result `r`, leaving the rest.
    pub fn set_zn(&mut self, r: u64, w: u8) {
        let r = mask(r, w);
        self.z = r == 0;
        self.n = (r >> (8 * w as u32 - 1)) & 1 == 1;
    }
}

/// `v`'s low `w` bytes.
pub fn mask(v: u64, w: u8) -> u64 {
    if w >= 8 {
        v
    } else {
        v & ((1 << (8 * w as u32)) - 1)
    }
}

/// A condition over [`Flags`], whichever ISA spelled it: equality, signed
/// and unsigned (`Below`, `Above`) order, and the sign of the result
/// (`Neg`, a float compare's less).
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cond {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Below,
    BelowEq,
    Above,
    AboveEq,
    Neg,
    NotNeg,
}

/// Each condition's x86 and AArch64 suffix.
const CONDS: ([Cond; 12], [&str; 12], [&str; 12]) = {
    use Cond::*;
    (
        [Eq, Ne, Lt, Le, Gt, Ge, Below, BelowEq, Above, AboveEq, Neg, NotNeg],
        ["e", "ne", "l", "le", "g", "ge", "b", "be", "a", "ae", "s", "ns"],
        ["eq", "ne", "lt", "le", "gt", "ge", "lo", "ls", "hi", "hs", "mi", "pl"],
    )
};

impl Cond {
    fn parse(isa: Isa, cc: &str) -> Result<Cond, String> {
        let names = if isa == Isa::X86_64 { &CONDS.1 } else { &CONDS.2 };
        pick(names, &CONDS.0, cc).ok_or_else(|| format!("unknown condition `{cc}`"))
    }

    /// Whether the condition holds.
    pub fn holds(self, f: Flags) -> bool {
        use Cond::*;
        match self {
            Eq => f.z,
            Ne => !f.z,
            Lt => f.n != f.v,
            Le => f.z || f.n != f.v,
            Gt => !f.z && f.n == f.v,
            Ge => f.n == f.v,
            Below => f.below,
            BelowEq => f.below || f.z,
            Above => !f.below && !f.z,
            AboveEq => !f.below,
            Neg => f.n,
            NotNeg => !f.n,
        }
    }
}

/// One ISA-independent operation. Widths are in bytes; a register operand
/// is read and written at its own width, memory at the op's.
#[allow(missing_docs)] // each variant's doc names its fields
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Marks prologue / epilogue bookkeeping (push, pop, leave, stp, ldp),
    /// whose ops follow: the lifter skips the instruction.
    Frame,
    /// Copy, load or store `w` bytes, zero-extended into a wider register.
    /// A 16-byte move is a vector op.
    Mov { w: u8, dst: Val, src: Val },
    /// Sign- or zero-extend the low `from` bytes of `src` into `dst`.
    Ext { from: u8, signed: bool, dst: Reg, src: Val },
    /// `dst = &addr`.
    AddrOf { dst: Reg, addr: Addr },
    /// `dst = a op b` at width `w`; `flags` sets Z and N from the result.
    Bin { op: BinOp, w: u8, dst: Val, a: Val, b: Val, flags: bool },
    /// `dst = c - a * b`.
    MulSub { dst: Reg, a: Val, b: Val, c: Val },
    /// Flags of `a - b` at width `w`.
    Cmp { w: u8, a: Val, b: Val },
    /// Z and N of `a & b` at width `w`; the borrow and overflow cleared.
    Test { w: u8, a: Val, b: Val },
    /// `dst = a op b` in floating point (`Add`, `Sub`, `Mul`, `DivS`).
    FBin { op: BinOp, w: u8, dst: Reg, a: Val, b: Val },
    /// Flags of a floating-point compare: Z for equal, N and the borrow for
    /// less, or `unordered` (the ISA's rule) when an operand is a NaN.
    FCmp { w: u8, a: Val, b: Val, unordered: Flags },
    /// `dst = (floating) src`, `src` a signed `w`-byte integer.
    IntToFloat { w: u8, dst: Reg, src: Val },
    /// `dst = (integer) src`, truncating, `src` a `w`-byte float.
    FloatToInt { w: u8, dst: Reg, src: Val },
    /// `dst = src` converted between float widths, `src` `w` bytes wide.
    FConv { w: u8, dst: Reg, src: Val },
    /// Move `w` bytes between register classes bit for bit; a float
    /// register written this way is zeroed above them.
    Bits { w: u8, dst: Reg, src: Reg },
    /// `dst = cond ? 1 : 0`.
    Set { cond: Cond, dst: Val },
    /// Go to `target`, always or when `cond` holds.
    Jump { cond: Option<Cond>, target: String },
    /// Go to `target` when `a` is not zero.
    Cbnz { a: Val, target: String },
    /// Call a function or libc builtin.
    Call(String),
    /// Return.
    Ret,
    /// Vector: lane `i` of `dst` is lane `sel >> 2i & 3` of `src` (32-bit
    /// lanes).
    Shuf { sel: u8, dst: Reg, src: Val },
    /// Vector: `dst = a op b` per 32-bit lane, wrapping.
    Lanes { op: BinOp, dst: Reg, a: Val, b: Val },
}

impl Op {
    /// Whether the op works on whole vector registers.
    pub fn is_vector(&self) -> bool {
        matches!(self, Op::Mov { w: 16, .. } | Op::Shuf { .. } | Op::Lanes { .. })
    }

    /// The register the op writes, if any.
    pub fn def(&self) -> Option<Reg> {
        match *self {
            Op::Mov { dst: Val::Reg(r), .. }
            | Op::Bin { dst: Val::Reg(r), .. }
            | Op::Set { dst: Val::Reg(r), .. } => Some(r),
            Op::Ext { dst, .. }
            | Op::AddrOf { dst, .. }
            | Op::MulSub { dst, .. }
            | Op::FBin { dst, .. }
            | Op::IntToFloat { dst, .. }
            | Op::FloatToInt { dst, .. }
            | Op::FConv { dst, .. }
            | Op::Bits { dst, .. }
            | Op::Shuf { dst, .. }
            | Op::Lanes { dst, .. } => Some(dst),
            _ => None,
        }
    }

    /// Calls `f` on every register the op reads, address registers
    /// included. `xor r, r` reads nothing: it zeroes `r` whatever it held.
    pub fn uses(&self, mut f: impl FnMut(Reg)) {
        let f = &mut f;
        let dst = match self {
            Op::Mov { dst, .. } | Op::Bin { dst, .. } | Op::Set { dst, .. } => dst,
            _ => &Val::Imm(0),
        };
        if let Val::Mem(a) = dst {
            addr_regs(a, f);
        }
        match self {
            Op::Bin { op: BinOp::Xor, a, b, .. } if a == b => {}
            Op::Mov { src, .. }
            | Op::Ext { src, .. }
            | Op::IntToFloat { src, .. }
            | Op::FloatToInt { src, .. }
            | Op::FConv { src, .. }
            | Op::Shuf { src, .. }
            | Op::Cbnz { a: src, .. } => val_regs(src, f),
            Op::AddrOf { addr, .. } => addr_regs(addr, f),
            Op::MulSub { a, b, c, .. } => [a, b, c].into_iter().for_each(|v| val_regs(v, f)),
            Op::Bin { a, b, .. }
            | Op::Cmp { a, b, .. }
            | Op::Test { a, b, .. }
            | Op::FBin { a, b, .. }
            | Op::FCmp { a, b, .. }
            | Op::Lanes { a, b, .. } => [a, b].into_iter().for_each(|v| val_regs(v, f)),
            Op::Bits { src, .. } => f(*src),
            Op::Frame | Op::Set { .. } | Op::Jump { .. } | Op::Call(_) | Op::Ret => {}
        }
    }
}

fn val_regs(v: &Val, f: &mut impl FnMut(Reg)) {
    match v {
        Val::Reg(r) => f(*r),
        Val::Mem(a) => addr_regs(a, f),
        Val::Imm(_) => {}
    }
}

fn addr_regs(a: &Addr, f: &mut impl FnMut(Reg)) {
    if let Addr::Regs { base, index, .. } = a {
        base.iter().chain(index.iter().map(|(r, _)| r)).for_each(|&r| f(r));
    }
}

/// Appends the ops of `inst` to `out` (nothing on failure).
///
/// # Errors
///
/// Unknown mnemonics, registers, conditions and operand shapes — hostile
/// assembly fails to decode rather than panicking.
pub fn decode(isa: Isa, inst: &Inst, out: &mut Vec<Op>) -> Result<(), String> {
    let start = out.len();
    let m = inst.mnemonic.as_str();
    let done = match isa {
        Isa::X86_64 => x86(m, &inst.operands, out),
        Isa::Arm64 => arm(m, &inst.operands, out),
    };
    if done.is_err() {
        out.truncate(start);
    }
    done
}

fn arg(ops: &[Operand], i: usize) -> Result<&Operand, String> {
    ops.get(i).ok_or_else(|| format!("missing operand {i}"))
}

fn sym(op: &Operand) -> Result<String, String> {
    match op {
        Operand::Sym(s) => Ok(s.clone()),
        other => Err(format!("indirect target {other:?}")),
    }
}

/// The value `vals` gives the name `key` has in `names`.
fn pick<T: Copy>(names: &[&str], vals: &[T], key: &str) -> Option<T> {
    names.iter().position(|&n| n == key).map(|i| vals[i])
}

fn bin(op: BinOp, w: u8, dst: Val, a: Val, b: Val, flags: bool) -> Op {
    Op::Bin { op, w, dst, a, b, flags }
}

fn int(num: u8, width: u8) -> Reg {
    Reg { class: Class::Int, num, width }
}

fn float(num: u8, width: u8) -> Reg {
    Reg { class: Class::Float, num, width }
}

fn reg(v: Val) -> Result<Reg, String> {
    match v {
        Val::Reg(r) => Ok(r),
        other => Err(format!("expected a register, got {other:?}")),
    }
}

fn based(base: Reg, disp: i64) -> Val {
    Val::Mem(Addr::Regs { base: Some(base), index: None, disp })
}

// ===================== x86-64 =====================

/// An x86 register name; an `xmm` register is accessed `fw` bytes wide.
fn x86_reg(name: &str, fw: u8) -> Result<Reg, String> {
    let bad = || format!("unknown register `{name}`");
    if let Some(n) = name.strip_prefix("xmm") {
        return n.parse().ok().filter(|&n| n < 16).map(|n| float(n, fw)).ok_or_else(bad);
    }
    if let Some(n) = X86_GPRS.iter().position(|&g| g == name) {
        return Ok(int(n as u8, 8));
    }
    for (n, names) in X86_LOW.iter().enumerate() {
        if let Some(i) = names.iter().position(|&g| g == name) {
            return Ok(int(n as u8, [4, 2, 1][i]));
        }
    }
    let rest = name.strip_prefix('r').ok_or_else(bad)?;
    let (digits, width) = match rest.as_bytes().last() {
        Some(b'd') => (&rest[..rest.len() - 1], 4),
        Some(b'w') => (&rest[..rest.len() - 1], 2),
        Some(b'b') => (&rest[..rest.len() - 1], 1),
        _ => (rest, 8),
    };
    digits.parse().ok().filter(|n| (8..16).contains(n)).map(|n| int(n, width)).ok_or_else(bad)
}

fn x86_val(op: &Operand, fw: u8) -> Result<Val, String> {
    Ok(match op {
        Operand::Reg(r) => Val::Reg(x86_reg(r, fw)?),
        Operand::Imm(v) => Val::Imm(*v),
        Operand::Mem { disp, base, index, scale } => Val::Mem(Addr::Regs {
            base: base.as_deref().map(|r| x86_reg(r, 8)).transpose()?,
            index: index
                .as_deref()
                .map(|r| Ok::<_, String>((x86_reg(r, 8)?, *scale)))
                .transpose()?,
            disp: *disp,
        }),
        Operand::RipSym(s) => Val::Mem(Addr::Sym(s.clone())),
        other => return Err(format!("operand {other:?}")),
    })
}

fn x86_addr(op: &Operand) -> Result<Addr, String> {
    match x86_val(op, 8)? {
        Val::Mem(a) => Ok(a),
        other => Err(format!("not an address: {other:?}")),
    }
}

/// The unordered rule of `ucomis*`: ZF, PF and CF set (PF is not modelled).
const X86_UNORDERED: Flags = Flags { z: true, n: false, v: false, below: true };

/// The mnemonic stems of x86's two-address integer operations.
const X86_ALU: ([&str; 9], [BinOp; 9]) = {
    use BinOp::*;
    (
        ["add", "sub", "imul", "and", "or", "xor", "sal", "sar", "shr"],
        [Add, Sub, Mul, And, Or, Xor, Shl, ShrS, ShrU],
    )
};

/// The mnemonic stems of floating-point and lane operations.
const FLOAT_OPS: ([&str; 7], [BinOp; 7]) = {
    use BinOp::*;
    (
        ["add", "sub", "mul", "div", "padd", "psub", "pmull"],
        [Add, Sub, Mul, DivS, Add, Sub, Mul],
    )
};

fn x86(m: &str, ops: &[Operand], out: &mut Vec<Op>) -> Result<(), String> {
    use BinOp::*;
    let v = |i: usize, fw: u8| x86_val(arg(ops, i)?, fw);
    let r = |i: usize, fw: u8| reg(v(i, fw)?);
    let stem = m.strip_suffix(['l', 'q']);
    // The width an `l` / `q` suffix names, and that of an `ss` / `sd` one.
    let w = if m.ends_with('q') { 8 } else { 4 };
    let fw = if m.contains("ss") { 4 } else { 8 };
    let (rax, rdx) = (Val::Reg(int(0, w)), Val::Reg(int(3, w)));
    let (rsp, rbp, top) = (Val::Reg(int(7, 8)), Val::Reg(int(6, 8)), based(int(7, 8), 0));
    let stack = |op| bin(op, 8, rsp.clone(), rsp.clone(), Val::Imm(8), false);
    let xmm = ops.iter().any(|o| matches!(o, Operand::Reg(r) if r.starts_with("xmm")));
    if let Some(op) = stem.and_then(|stem| pick(&X86_ALU.0, &X86_ALU.1, stem)) {
        out.push(bin(op, w, v(1, 8)?, v(1, 8)?, v(0, 8)?, true));
        return Ok(());
    }
    match m {
        "endbr64" | "nop" => {}
        "pushq" => {
            out.extend([Op::Frame, stack(Sub), Op::Mov { w: 8, dst: top, src: v(0, 8)? }])
        }
        "popq" => {
            out.extend([Op::Frame, Op::Mov { w: 8, dst: v(0, 8)?, src: top }, stack(Add)])
        }
        "leave" => out.extend([
            Op::Frame,
            Op::Mov { w: 8, dst: rsp.clone(), src: rbp.clone() },
            Op::Mov { w: 8, dst: rbp, src: top },
            stack(Add),
        ]),
        "ret" => out.push(Op::Ret),
        "movq" | "movd" if xmm => {
            let w = if m == "movd" { 4 } else { 8 };
            out.push(Op::Bits { w, dst: r(1, w)?, src: r(0, w)? });
        }
        "movb" | "movw" | "movl" | "movq" | "movabsq" => {
            let w = pick(&["movb", "movw", "movl"], &[1, 2, 4], m).unwrap_or(8);
            out.push(Op::Mov { w, dst: v(1, w)?, src: v(0, w)? });
        }
        "movslq" | "movsbl" | "movzbl" | "movswl" | "movzwl" => {
            let from = pick(&["l", "b"], &[4, 1], &m[4..5]).unwrap_or(2);
            let signed = &m[3..4] == "s";
            out.push(Op::Ext { from, signed, dst: r(1, 8)?, src: v(0, 8)? });
        }
        "leaq" => out.push(Op::AddrOf { dst: r(1, 8)?, addr: x86_addr(arg(ops, 0)?)? }),
        // Sign-extend `rax` into `rdx`.
        "cltd" => out.push(bin(
            ShrS,
            4,
            Val::Reg(int(3, 4)),
            Val::Reg(int(0, 4)),
            Val::Imm(31),
            false,
        )),
        "cqto" => out.push(bin(ShrS, 8, rdx, rax, Val::Imm(63), false)),
        "idivl" | "idivq" | "divl" | "divq" => {
            let (rem, div) = if m.starts_with('i') { (RemS, DivS) } else { (RemU, DivU) };
            out.push(bin(rem, w, rdx, rax.clone(), v(0, 8)?, false));
            out.push(bin(div, w, rax.clone(), rax, v(0, 8)?, false));
        }
        "cmpl" | "cmpq" => out.push(Op::Cmp { w, a: v(1, 8)?, b: v(0, 8)? }),
        "testl" | "testq" => out.push(Op::Test { w, a: v(0, 8)?, b: v(1, 8)? }),
        "jmp" => out.push(Op::Jump { cond: None, target: sym(arg(ops, 0)?)? }),
        "call" => out.push(Op::Call(sym(arg(ops, 0)?)?)),
        "movss" | "movsd" | "movdqu" | "movups" => {
            let w = pick(&["movss", "movsd"], &[4, 8], m).unwrap_or(16);
            out.push(Op::Mov { w, dst: v(1, w)?, src: v(0, w)? });
        }
        "addss" | "addsd" | "subss" | "subsd" | "mulss" | "mulsd" | "divss" | "divsd" => {
            let op = pick(&FLOAT_OPS.0, &FLOAT_OPS.1, &m[..3]).unwrap_or(DivS);
            out.push(Op::FBin { op, w: fw, dst: r(1, fw)?, a: v(1, fw)?, b: v(0, fw)? });
        }
        "ucomiss" | "ucomisd" => {
            out.push(Op::FCmp { w: fw, a: v(1, fw)?, b: v(0, fw)?, unordered: X86_UNORDERED })
        }
        "cvtsi2ss" | "cvtsi2sd" | "cvtsi2ssq" | "cvtsi2sdq" => {
            out.push(Op::IntToFloat { w, dst: r(1, fw)?, src: v(0, fw)? })
        }
        "cvttss2si" | "cvttsd2si" | "cvttss2siq" | "cvttsd2siq" => {
            out.push(Op::FloatToInt { w: fw, dst: r(1, fw)?, src: v(0, fw)? })
        }
        "cvtss2sd" => out.push(Op::FConv { w: 4, dst: r(1, 8)?, src: v(0, 4)? }),
        "cvtsd2ss" => out.push(Op::FConv { w: 8, dst: r(1, 4)?, src: v(0, 8)? }),
        "pshufd" => {
            let &Operand::Imm(sel) = arg(ops, 0)? else { return Err("pshufd selector".into()) };
            out.push(Op::Shuf { sel: sel as u8, dst: r(2, 16)?, src: v(1, 16)? });
        }
        "paddd" | "psubd" | "pmulld" => {
            let op = pick(&FLOAT_OPS.0, &FLOAT_OPS.1, &m[..m.len() - 1]).unwrap_or(Mul);
            out.push(Op::Lanes { op, dst: r(1, 16)?, a: v(1, 16)?, b: v(0, 16)? });
        }
        _ if m.starts_with("set") => {
            out.push(Op::Set { cond: Cond::parse(Isa::X86_64, &m[3..])?, dst: v(0, 8)? })
        }
        _ if m.starts_with('j') => {
            let cond = Some(Cond::parse(Isa::X86_64, &m[1..])?);
            out.push(Op::Jump { cond, target: sym(arg(ops, 0)?)? });
        }
        other => return Err(format!("unsupported instruction `{other}`")),
    }
    Ok(())
}

// ===================== AArch64 =====================

fn arm_reg(name: &str) -> Result<Reg, String> {
    if name == "sp" {
        return Ok(int(ARM_SP, 8));
    }
    let bad = || format!("unknown register `{name}`");
    let (kind, n) = name.split_at_checked(1).ok_or_else(bad)?;
    let n: u8 = n.parse().map_err(|_| bad())?;
    match kind {
        "x" | "w" if n < 31 => Ok(int(n, if kind == "x" { 8 } else { 4 })),
        "d" | "s" if n < 32 => Ok(float(n, if kind == "d" { 8 } else { 4 })),
        _ => Err(bad()),
    }
}

/// The zero registers read as an immediate 0.
fn arm_val(op: &Operand) -> Result<Val, String> {
    Ok(match op {
        Operand::Reg(r) if r == "xzr" || r == "wzr" => Val::Imm(0),
        Operand::Reg(r) => Val::Reg(arm_reg(r)?),
        Operand::Imm(v) => Val::Imm(*v),
        Operand::MemArm { base, off, .. } => based(arm_reg(base)?, *off),
        other => return Err(format!("operand {other:?}")),
    })
}

/// The unordered rule of `fcmp`: NZCV = 0011.
const ARM_UNORDERED: Flags = Flags { z: false, n: false, v: true, below: false };

/// AArch64's three-address integer operations.
const ARM_ALU: ([&str; 11], [BinOp; 11]) = {
    use BinOp::*;
    (
        ["add", "sub", "mul", "sdiv", "udiv", "and", "orr", "eor", "lsl", "asr", "lsr"],
        [Add, Sub, Mul, DivS, DivU, And, Or, Xor, Shl, ShrS, ShrU],
    )
};

fn arm(m: &str, ops: &[Operand], out: &mut Vec<Op>) -> Result<(), String> {
    use BinOp::*;
    let v = |i: usize| arm_val(arg(ops, i)?);
    let r = |i: usize| reg(v(i)?);
    // The bytes a `b` / `h` suffix names.
    let narrow = m.strip_suffix('b').map(|_| 1).or(m.strip_suffix('h').map(|_| 2));
    match m {
        "nop" => {}
        // The page half of an address: the `:lo12:` add defines it whole.
        "adrp" => {}
        "ret" => out.push(Op::Ret),
        "stp" | "ldp" => {
            let Operand::MemArm { base, off, pre_writeback } = arg(ops, 2)? else {
                return Err(format!("{m} operand"));
            };
            let base = arm_reg(base)?;
            out.push(Op::Frame);
            for i in 0..2 {
                let (reg, mem) = (Val::Reg(r(i)?), based(base, off + 8 * i as i64));
                let (dst, src) = if m == "stp" { (mem, reg) } else { (reg, mem) };
                out.push(Op::Mov { w: 8, dst, src });
            }
            // `[base, #off]!` writes the address back, `[base], #post` adds
            // the post-increment afterwards.
            let step = match ops.get(3) {
                Some(&Operand::Imm(post)) => Some(post),
                _ => Some(*off).filter(|_| *pre_writeback),
            };
            if let Some(step) = step {
                out.push(bin(Add, 8, Val::Reg(base), Val::Reg(base), Val::Imm(step), false));
            }
        }
        "mov" | "movz" => out.push(Op::Mov { w: r(0)?.width, dst: v(0)?, src: v(1)? }),
        // Replace one half-word.
        "movk" => {
            let &Operand::Imm(half) = arg(ops, 1)? else { return Err("movk immediate".into()) };
            let shift = match ops.get(2) {
                Some(&Operand::Lsl(s @ 0..=48)) => s,
                Some(Operand::Lsl(_)) => return Err("movk shift".into()),
                _ => 0,
            };
            let (w, dst) = (r(0)?.width, v(0)?);
            for (op, b) in [(And, !(0xffff << shift)), (Or, half << shift)] {
                out.push(bin(op, w, dst.clone(), dst.clone(), Val::Imm(b), false));
            }
        }
        "fmov" => out.push(Op::Bits { w: r(0)?.width, dst: r(0)?, src: r(1)? }),
        "ldr" | "ldrb" | "ldrh" => {
            out.push(Op::Mov { w: narrow.unwrap_or(r(0)?.width), dst: v(0)?, src: v(1)? })
        }
        "str" | "strb" | "strh" => {
            out.push(Op::Mov { w: narrow.unwrap_or(r(0)?.width), dst: v(1)?, src: v(0)? })
        }
        "ldrsb" | "ldrsh" | "sxtw" | "sxtb" | "uxtb" | "sxth" | "uxth" => {
            let (from, signed) = (narrow.unwrap_or(4), m.contains('s'));
            out.push(Op::Ext { from, signed, dst: r(0)?, src: v(1)? });
        }
        "add" if matches!(ops.get(2), Some(Operand::Lo12(_))) => {
            let Some(Operand::Lo12(s)) = ops.get(2) else { unreachable!() };
            out.push(Op::AddrOf { dst: r(0)?, addr: Addr::Sym(s.clone()) });
        }
        "msub" => out.push(Op::MulSub { dst: r(0)?, a: v(1)?, b: v(2)?, c: v(3)? }),
        "cmp" => {
            let w = if let Val::Reg(r) = v(0)? { r.width } else { 4 };
            out.push(Op::Cmp { w, a: v(0)?, b: v(1)? });
        }
        "fcmp" => {
            out.push(Op::FCmp { w: r(0)?.width, a: v(0)?, b: v(1)?, unordered: ARM_UNORDERED })
        }
        "cset" => {
            let Operand::Cond(cc) = arg(ops, 1)? else { return Err("cset condition".into()) };
            out.push(Op::Set { cond: Cond::parse(Isa::Arm64, cc)?, dst: v(0)? });
        }
        "cbnz" => out.push(Op::Cbnz { a: v(0)?, target: sym(arg(ops, 1)?)? }),
        "b" => out.push(Op::Jump { cond: None, target: sym(arg(ops, 0)?)? }),
        "bl" => out.push(Op::Call(sym(arg(ops, 0)?)?)),
        "fadd" | "fsub" | "fmul" | "fdiv" => {
            let op = pick(&FLOAT_OPS.0, &FLOAT_OPS.1, &m[1..]).unwrap_or(DivS);
            out.push(Op::FBin { op, w: r(0)?.width, dst: r(0)?, a: v(1)?, b: v(2)? });
        }
        "scvtf" => out.push(Op::IntToFloat { w: r(1)?.width, dst: r(0)?, src: v(1)? }),
        "fcvtzs" => out.push(Op::FloatToInt { w: r(1)?.width, dst: r(0)?, src: v(1)? }),
        "fcvt" => out.push(Op::FConv { w: r(1)?.width, dst: r(0)?, src: v(1)? }),
        _ if m.starts_with("b.") => {
            let cond = Some(Cond::parse(Isa::Arm64, &m[2..])?);
            out.push(Op::Jump { cond, target: sym(arg(ops, 0)?)? });
        }
        _ => match pick(&ARM_ALU.0, &ARM_ALU.1, m) {
            Some(op) => out.push(bin(op, r(0)?.width, v(0)?, v(1)?, v(2)?, false)),
            None => return Err(format!("unsupported instruction `{m}`")),
        },
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_asm;

    fn ops(isa: Isa, line: &str) -> Result<Vec<Op>, String> {
        let file = parse_asm(&format!("f:\n\t{line}\n"), isa);
        let crate::Line::Inst(inst) = &file.functions[0].lines[0] else { unreachable!() };
        let mut out = Vec::new();
        decode(isa, inst, &mut out).map(|()| out)
    }

    #[test]
    fn conditions_read_the_flags_of_a_compare_like_c() {
        let values = [0u64, 1, 7, 0x7fff_ffff, 0x8000_0000, 0xffff_ffff, u64::MAX, 1 << 63];
        for (x86, arm) in CONDS.1.iter().zip(CONDS.2).take(10) {
            let cond = Cond::parse(Isa::X86_64, x86).unwrap();
            assert_eq!(Cond::parse(Isa::Arm64, arm), Ok(cond));
            for w in [4, 8] {
                for a in values {
                    for b in values {
                        let (ua, ub) = (mask(a, w), mask(b, w));
                        let shift = 64 - 8 * w as u32;
                        let (sa, sb) =
                            (((ua << shift) as i64) >> shift, ((ub << shift) as i64) >> shift);
                        let want = match cond {
                            Cond::Eq => ua == ub,
                            Cond::Ne => ua != ub,
                            Cond::Lt => sa < sb,
                            Cond::Le => sa <= sb,
                            Cond::Gt => sa > sb,
                            Cond::Ge => sa >= sb,
                            Cond::Below => ua < ub,
                            Cond::BelowEq => ua <= ub,
                            Cond::Above => ua > ub,
                            _ => ua >= ub,
                        };
                        assert_eq!(
                            cond.holds(Flags::sub(a, b, w)),
                            want,
                            "{x86} {a:#x} {b:#x} {w}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn implicit_operands_are_written_out() {
        let rdx = |w| int(3, w);
        let cltd = ops(Isa::X86_64, "cltd").unwrap();
        assert_eq!(cltd[0].def(), Some(rdx(4)));
        let div = ops(Isa::X86_64, "idivl %r11d").unwrap();
        let defs: Vec<_> = div.iter().map(Op::def).collect();
        assert_eq!(defs, [Some(rdx(4)), Some(int(0, 4))]);
        let mut read = Vec::new();
        ops(Isa::X86_64, "xorl %edx, %edx").unwrap()[0].uses(|r| read.push(r));
        assert_eq!(read, [], "xor r, r reads nothing");
    }

    #[test]
    fn frame_bookkeeping_is_marked_and_hostile_text_fails() {
        for (isa, line) in [
            (Isa::X86_64, "pushq %rbp"),
            (Isa::X86_64, "leave"),
            (Isa::Arm64, "stp x29, x30, [sp, #-32]!"),
            (Isa::Arm64, "ldp x29, x30, [sp], #32"),
        ] {
            assert_eq!(ops(isa, line).unwrap()[0], Op::Frame, "{line}");
        }
        for (isa, line) in [
            (Isa::X86_64, "addl %eax"),
            (Isa::X86_64, "movl %foo, %eax"),
            (Isa::X86_64, "jz .L1"),
            (Isa::Arm64, "add w8, w99, w9"),
            (Isa::Arm64, "frobnicate x0"),
            (Isa::Arm64, "mové x0"),
        ] {
            assert!(ops(isa, line).is_err(), "{line}");
        }
    }
}
