//! x86-64 emulator for the assembly subset `slade-compiler` emits.
//!
//! The paper's IO harness executes the *original assembly* and compares it
//! with the recompiled decompilation hypothesis. This crate provides that
//! fidelity: it runs the parsed AT&T text against the same byte-addressable
//! segment memory the MiniC interpreter uses (pointers are packed
//! `(segment << 32) | offset` values), so a buffer written by emulated
//! assembly can be read back and compared bit-for-bit with the interpreter's
//! result.
//!
//! Supported: the integer/float/SSE subset the backend generates, including
//! `movdqu`/`pshufd`/`paddd`/`psubd`/`pmulld` vector code, the SysV call
//! protocol (`rdi`…`r9`, `xmm0`…`xmm7`), and libc builtins (`memcpy`,
//! `strlen`, `sqrt`, …) dispatched by name on `call`.
//!
//! # Example
//!
//! ```
//! use slade_asm::{parse_asm, Isa};
//! use slade_compiler::{compile_function, CompileOpts, OptLevel};
//! use slade_emu::{Emulator, Arg};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let p = slade_minic::parse_program("int sq(int x) { return x * x; }")?;
//! let asm = compile_function(&p, "sq", CompileOpts::new(slade_compiler::Isa::X86_64, OptLevel::O0))?;
//! let mut emu = Emulator::new(parse_asm(&asm, Isa::X86_64));
//! let ret = emu.call("sq", &[Arg::Int(9)])?;
//! assert_eq!(ret as i32, 81);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod arm;
mod machine;

pub use arm::ArmEmulator;
pub use machine::{Cpu, Machine, Step};

use machine::{op, target};
use slade_asm::{Inst, Isa, Operand};
use std::collections::HashMap;
use std::fmt;

/// Emulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmuError {
    message: String,
}

impl EmuError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        EmuError { message: msg.into() }
    }

    /// Human-readable reason.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for EmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "emulation error: {}", self.message)
    }
}

impl std::error::Error for EmuError {}

/// Result alias.
pub type Result<T> = std::result::Result<T, EmuError>;

/// An argument for [`Machine::call`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arg {
    /// Integer or packed-pointer argument (goes to `rdi`… / `x0`…).
    Int(u64),
    /// Double argument (goes to `xmm0`… / `d0`…).
    F64(f64),
    /// Float argument.
    F32(f32),
}

const GPRS: [&str; 16] = [
    "rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp", "rsp", "r8", "r9", "r10", "r11", "r12",
    "r13", "r14", "r15",
];

fn gpr_index(name: &str) -> Option<(usize, u8)> {
    // Returns (index, width-in-bytes).
    let full = GPRS.iter().position(|&g| g == name);
    if let Some(i) = full {
        return Some((i, 8));
    }
    let map32: [(&str, usize); 16] = [
        ("eax", 0),
        ("ebx", 1),
        ("ecx", 2),
        ("edx", 3),
        ("esi", 4),
        ("edi", 5),
        ("ebp", 6),
        ("esp", 7),
        ("r8d", 8),
        ("r9d", 9),
        ("r10d", 10),
        ("r11d", 11),
        ("r12d", 12),
        ("r13d", 13),
        ("r14d", 14),
        ("r15d", 15),
    ];
    for (n, i) in map32 {
        if n == name {
            return Some((i, 4));
        }
    }
    match name {
        "ax" => Some((0, 2)),
        "cx" => Some((2, 2)),
        "dx" => Some((3, 2)),
        "al" => Some((0, 1)),
        "bl" => Some((1, 1)),
        "cl" => Some((2, 1)),
        "dl" => Some((3, 1)),
        _ => None,
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Flags {
    zf: bool,
    sf: bool,
    cf: bool,
    of: bool,
}

/// The x86-64 register file: general registers, flags, vector registers.
#[derive(Debug, Default)]
pub struct X86 {
    gpr: [u64; 16],
    xmm: [[u8; 16]; 16],
    flags: Flags,
}

/// The x86-64 machine: [`X86`] registers over the shared segment memory.
pub type Emulator = Machine<X86>;

/// SysV integer argument registers: `rdi rsi rdx rcx r8 r9`.
const INT_ARGS: [usize; Isa::X86_64.arg_regs().0] = [5, 4, 3, 2, 8, 9];

impl Cpu for X86 {
    const ARG_REGS: (usize, usize) = Isa::X86_64.arg_regs();

    fn int_arg(&mut self, n: usize) -> &mut u64 {
        &mut self.gpr[INT_ARGS[n]]
    }

    fn int_ret(&mut self) -> &mut u64 {
        &mut self.gpr[0] // rax
    }

    fn f64_reg(&self, n: usize) -> f64 {
        f64::from_le_bytes(self.xmm[n][..8].try_into().expect("8 of 16 bytes"))
    }

    fn set_f64_reg(&mut self, n: usize, v: f64) {
        self.xmm[n][..8].copy_from_slice(&v.to_le_bytes());
    }

    fn set_f32_reg(&mut self, n: usize, v: f32) {
        self.xmm[n][..4].copy_from_slice(&v.to_le_bytes());
    }

    fn set_sp(&mut self, sp: u64) {
        self.gpr[7] = sp; // rsp
    }

    fn step(
        m: &mut Emulator,
        inst: &Inst,
        labels: &HashMap<String, usize>,
        ip: &mut usize,
    ) -> Result<Step> {
        m.exec(inst, labels, ip)
    }
}

impl Emulator {
    /// Return value of the last call as a float.
    pub fn ret_f32(&self) -> f32 {
        f32::from_le_bytes(self.cpu.xmm[0][..4].try_into().expect("4 of 16 bytes"))
    }

    fn exec(
        &mut self,
        inst: &Inst,
        labels: &HashMap<String, usize>,
        ip: &mut usize,
    ) -> Result<Step> {
        let m = inst.mnemonic.as_str();
        let ops = &inst.operands;
        match m {
            "endbr64" | "nop" => {}
            "pushq" => {
                self.cpu.gpr[7] = self.cpu.gpr[7].wrapping_sub(8);
                let v = self.read_op(op(ops, 0)?, 8)?;
                self.write_buffer(self.cpu.gpr[7], &v.to_le_bytes())?;
            }
            "popq" => {
                let bytes = self.read_buffer(self.cpu.gpr[7], 8)?;
                self.cpu.gpr[7] = self.cpu.gpr[7].wrapping_add(8);
                self.write_op(op(ops, 0)?, u64::from_le_bytes(bytes.try_into().unwrap()), 8)?;
            }
            "leave" => {
                self.cpu.gpr[7] = self.cpu.gpr[6]; // rsp = rbp
                let bytes = self.read_buffer(self.cpu.gpr[7], 8)?;
                self.cpu.gpr[7] = self.cpu.gpr[7].wrapping_add(8);
                self.cpu.gpr[6] = u64::from_le_bytes(bytes.try_into().unwrap());
            }
            "ret" => return Ok(Step::Return),
            "movq" | "movl" | "movw" | "movb" | "movabsq" => {
                let width = match m {
                    "movb" => 1,
                    "movw" => 2,
                    "movl" => 4,
                    _ => 8,
                };
                // movq between GPR and XMM is a different beast.
                if m == "movq" && ops.iter().any(is_xmm) {
                    self.mov_gpr_xmm(op(ops, 0)?, op(ops, 1)?, 8)?;
                } else {
                    let v = self.read_op(op(ops, 0)?, width)?;
                    self.write_op(op(ops, 1)?, v, width)?;
                }
            }
            "movd" => self.mov_gpr_xmm(op(ops, 0)?, op(ops, 1)?, 4)?,
            "movslq" | "movsbl" | "movzbl" | "movswl" | "movzwl" => {
                let from = match m {
                    "movslq" => 4,
                    "movsbl" | "movzbl" => 1,
                    _ => 2,
                };
                // `read_op` zero-extends; the `movs*` forms sign-extend.
                let v = self.read_op(op(ops, 0)?, from)?;
                let v = match m {
                    "movslq" => v as u32 as i32 as i64 as u64,
                    "movsbl" => v as u8 as i8 as i32 as u32 as u64,
                    "movswl" => v as u16 as i16 as i32 as u32 as u64,
                    _ => v,
                };
                self.write_op(op(ops, 1)?, v, if m == "movslq" { 8 } else { 4 })?;
            }
            "leaq" => {
                let addr = self.effective_address(op(ops, 0)?)?;
                self.write_op(op(ops, 1)?, addr, 8)?;
            }
            "addl" | "addq" | "subl" | "subq" | "imull" | "imulq" | "andl" | "andq" | "orl"
            | "orq" | "xorl" | "xorq" => {
                let width = if m.ends_with('q') { 8 } else { 4 };
                let src = self.read_op(op(ops, 0)?, width)?;
                let dst = self.read_op(op(ops, 1)?, width)?;
                let result = match &m[..m.len() - 1] {
                    "add" => dst.wrapping_add(src),
                    "sub" => dst.wrapping_sub(src),
                    "imul" => dst.wrapping_mul(src),
                    "and" => dst & src,
                    "or" => dst | src,
                    _ => dst ^ src,
                };
                self.set_zf_sf(result, width);
                self.write_op(op(ops, 1)?, result, width)?;
            }
            "cltd" => {
                // Sign-extend eax into edx.
                let eax = self.cpu.gpr[0] as u32 as i32;
                self.cpu.gpr[3] = if eax < 0 { 0xffff_ffff } else { 0 };
            }
            "cqto" => {
                let rax = self.cpu.gpr[0] as i64;
                self.cpu.gpr[3] = if rax < 0 { u64::MAX } else { 0 };
            }
            "idivl" | "idivq" | "divl" | "divq" => {
                let wide = m.ends_with('q');
                let width = if wide { 8 } else { 4 };
                let divisor = self.read_op(op(ops, 0)?, width)?;
                if wide {
                    let d = divisor as i64;
                    if m == "idivq" {
                        if d == 0 {
                            return Err(EmuError::new("integer division by zero"));
                        }
                        let a = self.cpu.gpr[0] as i64;
                        self.cpu.gpr[0] = a.wrapping_div(d) as u64;
                        self.cpu.gpr[3] = a.wrapping_rem(d) as u64;
                    } else {
                        if divisor == 0 {
                            return Err(EmuError::new("integer division by zero"));
                        }
                        let a = self.cpu.gpr[0];
                        self.cpu.gpr[0] = a / divisor;
                        self.cpu.gpr[3] = a % divisor;
                    }
                } else {
                    let d32 = divisor as u32;
                    if m == "idivl" {
                        let d = d32 as i32;
                        if d == 0 {
                            return Err(EmuError::new("integer division by zero"));
                        }
                        let a = self.cpu.gpr[0] as u32 as i32;
                        self.cpu.gpr[0] = (a.wrapping_div(d) as u32) as u64;
                        self.cpu.gpr[3] = (a.wrapping_rem(d) as u32) as u64;
                    } else {
                        if d32 == 0 {
                            return Err(EmuError::new("integer division by zero"));
                        }
                        let a = self.cpu.gpr[0] as u32;
                        self.cpu.gpr[0] = (a / d32) as u64;
                        self.cpu.gpr[3] = (a % d32) as u64;
                    }
                }
            }
            "sall" | "salq" | "sarl" | "sarq" | "shrl" | "shrq" => {
                let wide = m.ends_with('q');
                let width = if wide { 8u8 } else { 4 };
                let amount =
                    (self.read_op(op(ops, 0)?, 1)? as u32) & if wide { 63 } else { 31 };
                let v = self.read_op(op(ops, 1)?, width)?;
                let result = match &m[..3] {
                    "sal" => v.wrapping_shl(amount),
                    "sar" => {
                        if wide {
                            ((v as i64) >> amount) as u64
                        } else {
                            (((v as u32 as i32) >> amount) as u32) as u64
                        }
                    }
                    _ => {
                        if wide {
                            v >> amount
                        } else {
                            ((v as u32) >> amount) as u64
                        }
                    }
                };
                self.set_zf_sf(result, width);
                self.write_op(op(ops, 1)?, result, width)?;
            }
            "cmpl" | "cmpq" => {
                let width = if m == "cmpq" { 8 } else { 4 };
                let src = self.read_op(op(ops, 0)?, width)?;
                let dst = self.read_op(op(ops, 1)?, width)?;
                self.compare(dst, src, width);
            }
            "testl" | "testq" => {
                let width = if m == "testq" { 8 } else { 4 };
                let a = self.read_op(op(ops, 0)?, width)?;
                let b = self.read_op(op(ops, 1)?, width)?;
                let r = a & b;
                self.set_zf_sf(r, width);
                self.cpu.flags.cf = false;
                self.cpu.flags.of = false;
            }
            _ if m.starts_with("set") => {
                let v = self.eval_cond(&m[3..])? as u64;
                self.write_op(op(ops, 0)?, v, 1)?;
            }
            "jmp" => {
                *ip = target(labels, op(ops, 0)?)?;
            }
            _ if m.starts_with('j') => {
                if self.eval_cond(&m[1..])? {
                    *ip = target(labels, op(ops, 0)?)?;
                }
            }
            "call" => {
                let Operand::Sym(target) = op(ops, 0)? else {
                    return Err(EmuError::new("indirect call"));
                };
                // No return address is pushed: the machine keeps the call
                // stack, and every caller has reserved its frame (`subq`).
                return Ok(Step::Call(target.clone()));
            }
            "movss" | "movsd" | "movdqu" | "movups" => {
                let width = match m {
                    "movss" => 4,
                    "movsd" => 8,
                    _ => 16,
                };
                let bytes = self.load_xmm(op(ops, 0)?, width)?;
                self.store_xmm(op(ops, 1)?, &bytes)?;
            }
            "addss" | "addsd" | "subss" | "subsd" | "mulss" | "mulsd" | "divss" | "divsd" => {
                let single = m.ends_with("ss");
                let a = self.read_float(op(ops, 1)?, single)?;
                let b = self.read_float(op(ops, 0)?, single)?;
                let r = match &m[..3] {
                    "add" => a + b,
                    "sub" => a - b,
                    "mul" => a * b,
                    _ => a / b,
                };
                self.write_float(op(ops, 1)?, r, single)?;
            }
            "ucomiss" | "ucomisd" => {
                let single = m == "ucomiss";
                let a = self.read_float(op(ops, 1)?, single)?;
                let b = self.read_float(op(ops, 0)?, single)?;
                // Unordered (a NaN operand) sets ZF, PF and CF; PF is not modelled.
                let unordered = a.is_nan() || b.is_nan();
                self.cpu.flags.zf = a == b || unordered;
                self.cpu.flags.cf = a < b || unordered;
                self.cpu.flags.sf = false;
                self.cpu.flags.of = false;
            }
            "cvtsi2ss" | "cvtsi2sd" | "cvtsi2ssq" | "cvtsi2sdq" => {
                let wide = m.ends_with('q');
                let v = self.read_op(op(ops, 0)?, if wide { 8 } else { 4 })?;
                let f = if wide { v as i64 as f64 } else { v as u32 as i32 as f64 };
                let single = m.contains("ss");
                self.write_float(op(ops, 1)?, f, single)?;
            }
            "cvttss2si" | "cvttsd2si" | "cvttss2siq" | "cvttsd2siq" => {
                let single = m.contains("ss");
                let f = self.read_float(op(ops, 0)?, single)?;
                let wide = m.ends_with('q');
                let v = if wide { f as i64 as u64 } else { (f as i32 as u32) as u64 };
                self.write_op(op(ops, 1)?, v, if wide { 8 } else { 4 })?;
            }
            "cvtss2sd" => {
                let f = self.read_float(op(ops, 0)?, true)?;
                self.write_float(op(ops, 1)?, f, false)?;
            }
            "cvtsd2ss" => {
                let f = self.read_float(op(ops, 0)?, false)?;
                self.write_float(op(ops, 1)?, f, true)?;
            }
            "pshufd" => {
                // Only the broadcast form `pshufd $0, src, dst` is emitted.
                let &Operand::Imm(sel) = op(ops, 0)? else {
                    return Err(EmuError::new("pshufd selector"));
                };
                let src = self.load_xmm(op(ops, 1)?, 16)?;
                let mut out = [0u8; 16];
                for lane in 0..4 {
                    let pick = ((sel >> (lane * 2)) & 3) as usize;
                    out[lane * 4..lane * 4 + 4].copy_from_slice(&src[pick * 4..pick * 4 + 4]);
                }
                self.store_xmm(op(ops, 2)?, &out)?;
            }
            "paddd" | "psubd" | "pmulld" => {
                let a = self.load_xmm(op(ops, 1)?, 16)?;
                let b = self.load_xmm(op(ops, 0)?, 16)?;
                let mut out = [0u8; 16];
                for lane in 0..4 {
                    let x = i32::from_le_bytes(a[lane * 4..lane * 4 + 4].try_into().unwrap());
                    let y = i32::from_le_bytes(b[lane * 4..lane * 4 + 4].try_into().unwrap());
                    let r = match m {
                        "paddd" => x.wrapping_add(y),
                        "psubd" => x.wrapping_sub(y),
                        _ => x.wrapping_mul(y),
                    };
                    out[lane * 4..lane * 4 + 4].copy_from_slice(&r.to_le_bytes());
                }
                self.store_xmm(op(ops, 1)?, &out)?;
            }
            other => return Err(EmuError::new(format!("unsupported instruction `{other}`"))),
        }
        Ok(Step::Continue)
    }

    // ---- operand plumbing ----

    fn effective_address(&self, op: &Operand) -> Result<u64> {
        match op {
            Operand::Mem { disp, base, index, scale } => {
                let mut addr = *disp as u64;
                if let Some(b) = base {
                    let (i, _) = gpr_index(b).ok_or_else(|| EmuError::new("bad base reg"))?;
                    addr = addr.wrapping_add(self.cpu.gpr[i]);
                }
                if let Some(ix) = index {
                    let (i, _) = gpr_index(ix).ok_or_else(|| EmuError::new("bad index reg"))?;
                    addr = addr.wrapping_add(self.cpu.gpr[i].wrapping_mul(*scale as u64));
                }
                Ok(addr)
            }
            Operand::RipSym(sym) => self.symbol(sym),
            _ => Err(EmuError::new("not a memory operand")),
        }
    }

    fn read_op(&self, op: &Operand, width: u8) -> Result<u64> {
        match op {
            Operand::Imm(v) => Ok(*v as u64),
            Operand::Reg(name) => {
                let (i, _) = gpr_index(name)
                    .ok_or_else(|| EmuError::new(format!("unknown register `{name}`")))?;
                Ok(mask_width(self.cpu.gpr[i], width))
            }
            Operand::Mem { .. } | Operand::RipSym(_) => {
                let addr = self.effective_address(op)?;
                let bytes = self.read_buffer(addr, width as usize)?;
                let mut raw = [0u8; 8];
                raw[..bytes.len()].copy_from_slice(&bytes);
                Ok(u64::from_le_bytes(raw))
            }
            other => Err(EmuError::new(format!("cannot read operand {other:?}"))),
        }
    }

    fn write_op(&mut self, op: &Operand, v: u64, width: u8) -> Result<()> {
        match op {
            Operand::Reg(name) => {
                let (i, w) = gpr_index(name)
                    .ok_or_else(|| EmuError::new(format!("unknown register `{name}`")))?;
                let w = w.min(width);
                self.cpu.gpr[i] = match w {
                    8 => v,
                    4 => v & 0xffff_ffff, // 32-bit writes zero the top half
                    2 => (self.cpu.gpr[i] & !0xffff) | (v & 0xffff),
                    _ => (self.cpu.gpr[i] & !0xff) | (v & 0xff),
                };
                Ok(())
            }
            Operand::Mem { .. } | Operand::RipSym(_) => {
                let addr = self.effective_address(op)?;
                let bytes = v.to_le_bytes();
                self.write_buffer(addr, &bytes[..width as usize])
            }
            other => Err(EmuError::new(format!("cannot write operand {other:?}"))),
        }
    }

    /// The register number of `%xmm0`…`%xmm15`; anything else is `None`.
    fn xmm_index(op: &Operand) -> Option<usize> {
        let Operand::Reg(name) = op else { return None };
        name.strip_prefix("xmm")?.parse().ok().filter(|&n| n < 16)
    }

    fn mov_gpr_xmm(&mut self, src: &Operand, dst: &Operand, width: u8) -> Result<()> {
        match (Self::xmm_index(src), Self::xmm_index(dst)) {
            (None, Some(x)) => {
                let v = self.read_op(src, width)?;
                self.cpu.xmm[x] = [0; 16];
                self.cpu.xmm[x][..width as usize]
                    .copy_from_slice(&v.to_le_bytes()[..width as usize]);
                Ok(())
            }
            (Some(x), None) => {
                let mut raw = [0u8; 8];
                raw[..width as usize].copy_from_slice(&self.cpu.xmm[x][..width as usize]);
                self.write_op(dst, u64::from_le_bytes(raw), width)
            }
            _ => Err(EmuError::new("movd/movq between unsupported operands")),
        }
    }

    /// The low `len` bytes of an xmm register, or `len` bytes of memory.
    fn load_xmm(&self, op: &Operand, len: usize) -> Result<Vec<u8>> {
        match Self::xmm_index(op) {
            Some(x) => Ok(self.cpu.xmm[x][..len].to_vec()),
            None => self.read_buffer(self.effective_address(op)?, len),
        }
    }

    /// Stores `bytes` into the low bytes of an xmm register, or memory.
    fn store_xmm(&mut self, op: &Operand, bytes: &[u8]) -> Result<()> {
        match Self::xmm_index(op) {
            Some(x) => {
                self.cpu.xmm[x][..bytes.len()].copy_from_slice(bytes);
                Ok(())
            }
            None => {
                let addr = self.effective_address(op)?;
                self.write_buffer(addr, bytes)
            }
        }
    }

    fn read_float(&self, op: &Operand, single: bool) -> Result<f64> {
        Ok(if single {
            f32::from_le_bytes(self.load_xmm(op, 4)?.try_into().expect("4 bytes")) as f64
        } else {
            f64::from_le_bytes(self.load_xmm(op, 8)?.try_into().expect("8 bytes"))
        })
    }

    fn write_float(&mut self, op: &Operand, v: f64, single: bool) -> Result<()> {
        if single {
            self.store_xmm(op, &(v as f32).to_le_bytes())
        } else {
            self.store_xmm(op, &v.to_le_bytes())
        }
    }

    fn set_zf_sf(&mut self, v: u64, width: u8) {
        let masked = mask_width(v, width);
        self.cpu.flags.zf = masked == 0;
        self.cpu.flags.sf = match width {
            4 => (masked as u32 as i32) < 0,
            _ => (masked as i64) < 0,
        };
    }

    fn compare(&mut self, dst: u64, src: u64, width: u8) {
        if width == 4 {
            let a = dst as u32;
            let b = src as u32;
            let r = a.wrapping_sub(b);
            self.cpu.flags.zf = r == 0;
            self.cpu.flags.sf = (r as i32) < 0;
            self.cpu.flags.cf = a < b;
            self.cpu.flags.of = ((a as i32).wrapping_sub(b as i32) as i64)
                != (a as i32 as i64) - (b as i32 as i64);
        } else {
            let a = dst;
            let b = src;
            let r = a.wrapping_sub(b);
            self.cpu.flags.zf = r == 0;
            self.cpu.flags.sf = (r as i64) < 0;
            self.cpu.flags.cf = a < b;
            self.cpu.flags.of = ((a as i64).wrapping_sub(b as i64) as i128)
                != (a as i64 as i128) - (b as i64 as i128);
        }
    }

    fn eval_cond(&self, cond: &str) -> Result<bool> {
        let f = &self.cpu.flags;
        Ok(match cond {
            "e" => f.zf,
            "ne" => !f.zf,
            "l" => f.sf != f.of,
            "le" => f.zf || f.sf != f.of,
            "g" => !f.zf && f.sf == f.of,
            "ge" => f.sf == f.of,
            "b" => f.cf,
            "be" => f.cf || f.zf,
            "a" => !f.cf && !f.zf,
            "ae" => !f.cf,
            "s" => f.sf,
            "ns" => !f.sf,
            other => return Err(EmuError::new(format!("unknown condition `{other}`"))),
        })
    }
}

fn is_xmm(op: &Operand) -> bool {
    matches!(op, Operand::Reg(name) if name.starts_with("xmm"))
}

fn mask_width(v: u64, width: u8) -> u64 {
    match width {
        8 => v,
        4 => v & 0xffff_ffff,
        2 => v & 0xffff,
        _ => v & 0xff,
    }
}

#[cfg(test)]
mod tests {
    use crate::machine::cases::{case, emu_cases, Case, Want};
    use crate::{Arg, Emulator};
    use slade_asm::{parse_asm, Isa};

    #[test]
    fn ucomis_sets_zf_and_cf_when_unordered() {
        // Condition, its value for `1 < 2`, its value with a NaN operand.
        let rows =
            [("e", 0, 1), ("ne", 1, 0), ("b", 1, 1), ("be", 1, 1), ("a", 0, 0), ("ae", 0, 0)];
        for (ins, arg) in
            [("ucomisd", Arg::F64 as fn(f64) -> Arg), ("ucomiss", |v| Arg::F32(v as f32))]
        {
            for (cc, less, unordered) in rows {
                let text = format!(
                    "f:\n\tmovl $0, %eax\n\t{ins} %xmm1, %xmm0\n\tset{cc} %al\n\tret\n"
                );
                let mut emu = Emulator::new(parse_asm(&text, Isa::X86_64));
                for (a, b, want) in
                    [(1.0, 2.0, less), (f64::NAN, 2.0, unordered), (1.0, f64::NAN, unordered)]
                {
                    assert_eq!(
                        emu.call("f", &[arg(a), arg(b)]),
                        Ok(want),
                        "{ins} set{cc} on {a}, {b}"
                    );
                }
            }
        }
    }

    emu_cases! {
        runs_arithmetic_at_both_levels: case(
            "int f(int a, int b) { return a * 3 - b / 2; }",
            "f",
            &[(&[Arg::Int(10), Arg::Int(7)], Want::Int(27))],
        );
        runs_loops: case(
            "int fact(int n) { int r = 1; while (n > 1) { r *= n; n--; } return r; }",
            "fact",
            &[(&[Arg::Int(6)], Want::Int(720))],
        );
        pointer_buffers_roundtrip: Case {
            buf: &[1, 2, 3, 4, 5, 6, 7],
            ..case(
                "void add(int *list, int val, int n) { int i; for (i = 0; i < n; ++i) list[i] += val; }",
                "add",
                &[(&[Arg::Int(10), Arg::Int(7)], Want::Buf(&[11, 12, 13, 14, 15, 16, 17]))],
            )
        };
        float_math_matches: case(
            "double f(double x, double y) { return x * y + 0.5; }",
            "f",
            &[(&[Arg::F64(2.5), Arg::F64(4.0)], Want::F64(10.5))],
        );
        unsigned_division: case(
            "unsigned f(unsigned a, unsigned b) { return a / b; }",
            "f",
            &[(&[Arg::Int(0xffff_fffc), Arg::Int(2)], Want::Int(0x7fff_fffe))],
        );
        division_by_zero_errors: case(
            "int f(int a, int b) { return a / b; }",
            "f",
            &[(&[Arg::Int(1), Arg::Int(0)], Want::Fails("division by zero"))],
        );
        calls_between_functions_and_builtins: case(
            "int square(int x) { return x * x; } int f(int a) { return square(a) + abs(-3); }",
            "f",
            &[(&[Arg::Int(5)], Want::Int(28))],
        );
        globals_resolve_via_symbols: Case {
            global: Some(10),
            ..case(
                "int g; int f(void) { g = g + 7; return g; }",
                "f",
                &[(&[], Want::Int(17)), (&[], Want::Int(24))],
            )
        };
        infinite_loops_run_out_of_fuel: case(
            "int f(void) { for (;;) {} return 0; }",
            "f",
            &[(&[], Want::Fails("fuel"))],
        );
        strings_in_rodata_work: case(
            "int f(void) { return strlen(\"hello\"); }",
            "f",
            &[(&[], Want::Int(5))],
        );
    }
}
