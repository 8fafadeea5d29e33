//! AArch64 emulator for the assembly subset the ARM backend emits.
//!
//! Mirrors the x86 emulator: same packed-pointer segment memory, same
//! builtin dispatch, so ARM assembly can be cross-validated against the
//! MiniC interpreter exactly like x86 (see `tests/pipeline.rs`).

use crate::machine::{Machine, Ret};
use crate::{Arg, EmuError, Result};
use slade_asm::{AsmFunction, Inst, Line, Operand};
use std::collections::HashMap;

#[derive(Debug, Clone, Copy, Default)]
struct Nzcv {
    n: bool,
    z: bool,
    c: bool,
    v: bool,
}

/// The AArch64 register file: 31 general registers plus `sp`, 32 FP
/// registers and the NZCV flags.
#[derive(Debug, Default)]
pub struct Arm64 {
    x: [u64; 32],
    d: [f64; 32],
    sp: u64,
    flags: Nzcv,
    /// adrp-pending symbol per register.
    adrp: HashMap<usize, String>,
}

/// The AArch64 machine: [`Arm64`] registers over the shared segment memory.
pub type ArmEmulator = Machine<Arm64>;

impl ArmEmulator {
    /// The `d0` return value of the last call.
    pub fn ret_f64(&self) -> f64 {
        self.cpu.d[0]
    }

    /// Calls a function with AAPCS64 argument passing; returns `x0`.
    ///
    /// # Errors
    ///
    /// Fails on unknown functions, faults, unsupported instructions or fuel
    /// exhaustion.
    pub fn call(&mut self, name: &str, args: &[Arg]) -> Result<u64> {
        self.fuel = 10_000_000;
        self.cpu.sp = self.stack_base;
        let mut int_idx = 0;
        let mut f_idx = 0;
        for a in args {
            match a {
                Arg::Int(v) => {
                    if int_idx < 8 {
                        self.cpu.x[int_idx] = *v;
                    }
                    int_idx += 1;
                }
                Arg::F64(v) => {
                    self.cpu.d[f_idx] = *v;
                    f_idx += 1;
                }
                Arg::F32(v) => {
                    self.cpu.d[f_idx] = *v as f64;
                    f_idx += 1;
                }
            }
        }
        self.exec_function(name)?;
        Ok(self.cpu.x[0])
    }

    fn exec_function(&mut self, name: &str) -> Result<()> {
        let Some(func) = self.file.function(name).cloned() else {
            return self.call_builtin(name);
        };
        let labels = func.label_positions();
        let mut ip = 0usize;
        while ip < func.lines.len() {
            if self.fuel == 0 {
                return Err(EmuError::new("fuel exhausted"));
            }
            self.fuel -= 1;
            let line = &func.lines[ip];
            ip += 1;
            let inst = match line {
                Line::Label(_) => continue,
                Line::Inst(i) => i,
            };
            if inst.mnemonic == "ret" {
                return Ok(());
            }
            self.step(inst, &func, &labels, &mut ip)?;
        }
        Ok(())
    }

    // ---- register plumbing ----

    fn reg_read(&self, name: &str) -> Result<u64> {
        if name == "sp" {
            return Ok(self.cpu.sp);
        }
        if name == "xzr" || name == "wzr" {
            return Ok(0);
        }
        let (k, n) = split_reg(name)?;
        Ok(match k {
            'x' => self.cpu.x[n],
            'w' => self.cpu.x[n] & 0xffff_ffff,
            'd' => self.cpu.d[n].to_bits(),
            's' => (self.cpu.d[n] as f32).to_bits() as u64,
            _ => return Err(EmuError::new(format!("register `{name}`"))),
        })
    }

    fn reg_write(&mut self, name: &str, v: u64) -> Result<()> {
        if name == "sp" {
            self.cpu.sp = v;
            return Ok(());
        }
        if name == "xzr" || name == "wzr" {
            return Ok(());
        }
        let (k, n) = split_reg(name)?;
        match k {
            'x' => self.cpu.x[n] = v,
            'w' => self.cpu.x[n] = v & 0xffff_ffff,
            'd' => self.cpu.d[n] = f64::from_bits(v),
            's' => self.cpu.d[n] = f32::from_bits(v as u32) as f64,
            _ => return Err(EmuError::new(format!("register `{name}`"))),
        }
        Ok(())
    }

    fn fp_read(&self, name: &str) -> Result<f64> {
        let (k, n) = split_reg(name)?;
        match k {
            'd' | 's' => Ok(self.cpu.d[n]),
            _ => Err(EmuError::new(format!("fp register `{name}`"))),
        }
    }

    fn fp_write(&mut self, name: &str, v: f64) -> Result<()> {
        let (k, n) = split_reg(name)?;
        match k {
            's' => {
                self.cpu.d[n] = v as f32 as f64;
                Ok(())
            }
            'd' => {
                self.cpu.d[n] = v;
                Ok(())
            }
            _ => Err(EmuError::new(format!("fp register `{name}`"))),
        }
    }

    fn op_u64(&self, op: &Operand) -> Result<u64> {
        match op {
            Operand::Imm(v) => Ok(*v as u64),
            Operand::Reg(r) => self.reg_read(r),
            other => Err(EmuError::new(format!("operand {other:?}"))),
        }
    }

    fn mem_addr(&self, op: &Operand) -> Result<u64> {
        let Operand::MemArm { base, off, .. } = op else {
            return Err(EmuError::new("not a memory operand"));
        };
        let b = if base == "sp" { self.cpu.sp } else { self.reg_read(base)? };
        Ok(b.wrapping_add(*off as u64))
    }

    fn load(&self, addr: u64, len: usize) -> Result<u64> {
        let bytes = self.read_buffer(addr, len)?;
        let mut raw = [0u8; 8];
        raw[..len].copy_from_slice(&bytes);
        Ok(u64::from_le_bytes(raw))
    }

    fn store(&mut self, addr: u64, v: u64, len: usize) -> Result<()> {
        self.write_buffer(addr, &v.to_le_bytes()[..len])
    }

    fn cond(&self, cc: &str) -> Result<bool> {
        let f = self.cpu.flags;
        Ok(match cc {
            "eq" => f.z,
            "ne" => !f.z,
            "lt" => f.n != f.v,
            "le" => f.z || f.n != f.v,
            "gt" => !f.z && f.n == f.v,
            "ge" => f.n == f.v,
            "lo" => !f.c,
            "ls" => !f.c || f.z,
            "hi" => f.c && !f.z,
            "hs" => f.c,
            "mi" => f.n,
            "pl" => !f.n,
            other => return Err(EmuError::new(format!("condition `{other}`"))),
        })
    }

    #[allow(clippy::too_many_lines)]
    fn step(
        &mut self,
        inst: &Inst,
        _func: &AsmFunction,
        labels: &HashMap<String, usize>,
        ip: &mut usize,
    ) -> Result<()> {
        let m = inst.mnemonic.as_str();
        let ops = &inst.operands;
        let reg_name = |op: &Operand| -> Result<String> {
            match op {
                Operand::Reg(r) => Ok(r.clone()),
                other => Err(EmuError::new(format!("expected register, got {other:?}"))),
            }
        };
        match m {
            "nop" => {}
            "stp" => {
                // stp xA, xB, [sp, #-F]!  (pre-index) or plain [base, #off].
                let ra = reg_name(&ops[0])?;
                let rb = reg_name(&ops[1])?;
                let Operand::MemArm { base, off, pre_writeback } = &ops[2] else {
                    return Err(EmuError::new("stp operand"));
                };
                let baseval = if base == "sp" { self.cpu.sp } else { self.reg_read(base)? };
                let addr = baseval.wrapping_add(*off as u64);
                let va = self.reg_read(&ra)?;
                let vb = self.reg_read(&rb)?;
                self.store(addr, va, 8)?;
                self.store(addr.wrapping_add(8), vb, 8)?;
                if *pre_writeback {
                    if base == "sp" {
                        self.cpu.sp = addr;
                    } else {
                        self.reg_write(base, addr)?;
                    }
                }
            }
            "ldp" => {
                // ldp xA, xB, [sp], #F (post-index: off parsed as 0; the
                // post-increment arrives as a trailing Imm operand).
                let ra = reg_name(&ops[0])?;
                let rb = reg_name(&ops[1])?;
                let Operand::MemArm { base, off, .. } = &ops[2] else {
                    return Err(EmuError::new("ldp operand"));
                };
                let baseval = if base == "sp" { self.cpu.sp } else { self.reg_read(base)? };
                let addr = baseval.wrapping_add(*off as u64);
                let va = self.load(addr, 8)?;
                let vb = self.load(addr.wrapping_add(8), 8)?;
                self.reg_write(&ra, va)?;
                self.reg_write(&rb, vb)?;
                if let Some(Operand::Imm(post)) = ops.get(3) {
                    let nb = baseval.wrapping_add(*post as u64);
                    if base == "sp" {
                        self.cpu.sp = nb;
                    } else {
                        self.reg_write(base, nb)?;
                    }
                }
            }
            "mov" => {
                let dst = reg_name(&ops[0])?;
                let v = self.op_u64(&ops[1])?;
                self.reg_write(&dst, v)?;
            }
            "movz" => {
                let dst = reg_name(&ops[0])?;
                let v = self.op_u64(&ops[1])?;
                self.reg_write(&dst, v)?;
            }
            "movk" => {
                let dst = reg_name(&ops[0])?;
                let v = self.op_u64(&ops[1])?;
                let shift = match ops.get(2) {
                    Some(Operand::Lsl(s)) => *s as u32,
                    _ => 0,
                };
                let cur = self.reg_read(&dst)?;
                let mask = !(0xffffu64 << shift);
                self.reg_write(&dst, (cur & mask) | (v << shift))?;
            }
            "fmov" => {
                // fmov d0, x8 (bit move) or fmov s0, w8.
                let dst = reg_name(&ops[0])?;
                let src = reg_name(&ops[1])?;
                let (dk, dn) = split_reg(&dst)?;
                let bits = self.reg_read(&src)?;
                match dk {
                    'd' => self.cpu.d[dn] = f64::from_bits(bits),
                    's' => self.cpu.d[dn] = f32::from_bits(bits as u32) as f64,
                    'x' | 'w' => {
                        let (_, sn) = split_reg(&src)?;
                        let v = if dk == 'w' {
                            ((self.cpu.d[sn] as f32).to_bits()) as u64
                        } else {
                            self.cpu.d[sn].to_bits()
                        };
                        self.reg_write(&dst, v)?;
                    }
                    _ => return Err(EmuError::new("fmov form")),
                }
            }
            "ldr" | "ldrb" | "ldrsb" | "ldrh" | "ldrsh" => {
                let dst = reg_name(&ops[0])?;
                let addr = self.mem_addr(&ops[1])?;
                let (dk, dn) = split_reg(&dst)?;
                match (m, dk) {
                    ("ldrb", _) => {
                        let v = self.load(addr, 1)?;
                        self.reg_write(&dst, v)?;
                    }
                    ("ldrsb", _) => {
                        let v = self.load(addr, 1)? as u8 as i8 as i32 as u32 as u64;
                        self.reg_write(&dst, v)?;
                    }
                    ("ldrh", _) => {
                        let v = self.load(addr, 2)?;
                        self.reg_write(&dst, v)?;
                    }
                    ("ldrsh", _) => {
                        let v = self.load(addr, 2)? as u16 as i16 as i32 as u32 as u64;
                        self.reg_write(&dst, v)?;
                    }
                    (_, 'w') => {
                        let v = self.load(addr, 4)?;
                        self.reg_write(&dst, v)?;
                    }
                    (_, 'x') => {
                        let v = self.load(addr, 8)?;
                        self.reg_write(&dst, v)?;
                    }
                    (_, 's') => {
                        let v = self.load(addr, 4)?;
                        self.cpu.d[dn] = f32::from_bits(v as u32) as f64;
                    }
                    (_, 'd') => {
                        let v = self.load(addr, 8)?;
                        self.cpu.d[dn] = f64::from_bits(v);
                    }
                    _ => return Err(EmuError::new("ldr form")),
                }
            }
            "str" | "strb" | "strh" => {
                let src = reg_name(&ops[0])?;
                let addr = self.mem_addr(&ops[1])?;
                let (sk, sn) = split_reg(&src)?;
                match (m, sk) {
                    ("strb", _) => {
                        let v = self.reg_read(&src)?;
                        self.store(addr, v, 1)?;
                    }
                    ("strh", _) => {
                        let v = self.reg_read(&src)?;
                        self.store(addr, v, 2)?;
                    }
                    (_, 'w') => {
                        let v = self.reg_read(&src)?;
                        self.store(addr, v, 4)?;
                    }
                    (_, 'x') => {
                        let v = self.reg_read(&src)?;
                        self.store(addr, v, 8)?;
                    }
                    (_, 's') => {
                        self.store(addr, (self.cpu.d[sn] as f32).to_bits() as u64, 4)?;
                    }
                    (_, 'd') => {
                        self.store(addr, self.cpu.d[sn].to_bits(), 8)?;
                    }
                    _ => return Err(EmuError::new("str form")),
                }
            }
            "adrp" => {
                let dst = reg_name(&ops[0])?;
                let Operand::Sym(sym) = &ops[1] else { return Err(EmuError::new("adrp")) };
                let (_, n) = split_reg(&dst)?;
                self.cpu.adrp.insert(n, sym.clone());
                // Page-address semantics are folded into the :lo12: add.
                self.reg_write(&dst, 0)?;
            }
            "add" if ops.len() == 3 && matches!(ops[2], Operand::Lo12(_)) => {
                let dst = reg_name(&ops[0])?;
                let Operand::Lo12(sym) = &ops[2] else { unreachable!() };
                let addr = self
                    .symbols
                    .get(sym)
                    .copied()
                    .ok_or_else(|| EmuError::new(format!("undefined symbol `{sym}`")))?;
                self.reg_write(&dst, addr)?;
            }
            "add" | "sub" | "mul" | "sdiv" | "udiv" | "and" | "orr" | "eor" | "lsl" | "asr"
            | "lsr" => {
                let dst = reg_name(&ops[0])?;
                let wide = dst.starts_with('x') || dst == "sp";
                let a = self.op_u64(&ops[1])?;
                let b = self.op_u64(&ops[2])?;
                let v = match m {
                    "add" => a.wrapping_add(b),
                    "sub" => a.wrapping_sub(b),
                    "mul" => a.wrapping_mul(b),
                    "sdiv" => {
                        if wide {
                            let (a, b) = (a as i64, b as i64);
                            if b == 0 {
                                return Err(EmuError::new("integer division by zero"));
                            }
                            a.wrapping_div(b) as u64
                        } else {
                            let (a, b) = (a as u32 as i32, b as u32 as i32);
                            if b == 0 {
                                return Err(EmuError::new("integer division by zero"));
                            }
                            (a.wrapping_div(b) as u32) as u64
                        }
                    }
                    "udiv" => {
                        if b == 0 {
                            return Err(EmuError::new("integer division by zero"));
                        }
                        if wide {
                            a / b
                        } else {
                            ((a as u32) / (b as u32)) as u64
                        }
                    }
                    "and" => a & b,
                    "orr" => a | b,
                    "eor" => a ^ b,
                    "lsl" => a.wrapping_shl((b as u32) & 63),
                    "asr" => {
                        if wide {
                            ((a as i64) >> ((b as u32) & 63)) as u64
                        } else {
                            (((a as u32 as i32) >> ((b as u32) & 31)) as u32) as u64
                        }
                    }
                    _ => {
                        if wide {
                            a >> ((b as u32) & 63)
                        } else {
                            ((a as u32) >> ((b as u32) & 31)) as u64
                        }
                    }
                };
                self.reg_write(&dst, v)?;
            }
            "msub" => {
                // msub d, a, b, c = c - a*b
                let dst = reg_name(&ops[0])?;
                let a = self.op_u64(&ops[1])?;
                let b = self.op_u64(&ops[2])?;
                let c = self.op_u64(&ops[3])?;
                self.reg_write(&dst, c.wrapping_sub(a.wrapping_mul(b)))?;
            }
            "sxtw" => {
                let dst = reg_name(&ops[0])?;
                let v = self.op_u64(&ops[1])? as u32 as i32 as i64 as u64;
                self.reg_write(&dst, v)?;
            }
            "sxtb" => {
                let dst = reg_name(&ops[0])?;
                let v = self.op_u64(&ops[1])? as u8 as i8 as i32 as u32 as u64;
                self.reg_write(&dst, v)?;
            }
            "uxtb" => {
                let dst = reg_name(&ops[0])?;
                let v = self.op_u64(&ops[1])? as u8 as u64;
                self.reg_write(&dst, v)?;
            }
            "sxth" => {
                let dst = reg_name(&ops[0])?;
                let v = self.op_u64(&ops[1])? as u16 as i16 as i32 as u32 as u64;
                self.reg_write(&dst, v)?;
            }
            "uxth" => {
                let dst = reg_name(&ops[0])?;
                let v = self.op_u64(&ops[1])? as u16 as u64;
                self.reg_write(&dst, v)?;
            }
            "cmp" => {
                let a = self.op_u64(&ops[0])?;
                let b = self.op_u64(&ops[1])?;
                let wide = matches!(&ops[0], Operand::Reg(r) if r.starts_with('x'));
                if wide {
                    let (sa, sb) = (a as i64, b as i64);
                    let r = sa.wrapping_sub(sb);
                    self.cpu.flags = Nzcv {
                        n: r < 0,
                        z: r == 0,
                        c: a >= b,
                        v: (sa as i128 - sb as i128) != (r as i128),
                    };
                } else {
                    let (ua, ub) = (a as u32, b as u32);
                    let (sa, sb) = (ua as i32, ub as i32);
                    let r = sa.wrapping_sub(sb);
                    self.cpu.flags = Nzcv {
                        n: r < 0,
                        z: r == 0,
                        c: ua >= ub,
                        v: (sa as i64 - sb as i64) != (r as i64),
                    };
                }
            }
            "fcmp" => {
                let a = self.fp_read(&reg_name(&ops[0])?)?;
                let b = self.fp_read(&reg_name(&ops[1])?)?;
                self.cpu.flags = Nzcv { n: a < b, z: a == b, c: a >= b, v: false };
            }
            "cset" => {
                let dst = reg_name(&ops[0])?;
                let Operand::Cond(cc) = &ops[1] else { return Err(EmuError::new("cset cc")) };
                let v = self.cond(cc)? as u64;
                self.reg_write(&dst, v)?;
            }
            "cbnz" => {
                let v = self.op_u64(&ops[0])?;
                let Operand::Sym(l) = &ops[1] else { return Err(EmuError::new("cbnz")) };
                let narrow = matches!(&ops[0], Operand::Reg(r) if r.starts_with('w'));
                let v = if narrow { v & 0xffff_ffff } else { v };
                if v != 0 {
                    *ip =
                        *labels.get(l).ok_or_else(|| EmuError::new(format!("label `{l}`")))?;
                }
            }
            "b" => {
                let Operand::Sym(l) = &ops[0] else { return Err(EmuError::new("b")) };
                *ip = *labels.get(l).ok_or_else(|| EmuError::new(format!("label `{l}`")))?;
            }
            _ if m.starts_with("b.") => {
                if self.cond(&m[2..])? {
                    let Operand::Sym(l) = &ops[0] else { return Err(EmuError::new("b.cc")) };
                    *ip =
                        *labels.get(l).ok_or_else(|| EmuError::new(format!("label `{l}`")))?;
                }
            }
            "bl" => {
                let Operand::Sym(callee) = &ops[0] else { return Err(EmuError::new("bl")) };
                let callee = callee.clone();
                self.exec_function(&callee)?;
            }
            "fadd" | "fsub" | "fmul" | "fdiv" => {
                let dst = reg_name(&ops[0])?;
                let a = self.fp_read(&reg_name(&ops[1])?)?;
                let b = self.fp_read(&reg_name(&ops[2])?)?;
                let v = match m {
                    "fadd" => a + b,
                    "fsub" => a - b,
                    "fmul" => a * b,
                    _ => a / b,
                };
                self.fp_write(&dst, v)?;
            }
            "scvtf" => {
                let dst = reg_name(&ops[0])?;
                let src = reg_name(&ops[1])?;
                let v = self.reg_read(&src)?;
                let f =
                    if src.starts_with('w') { v as u32 as i32 as f64 } else { v as i64 as f64 };
                self.fp_write(&dst, f)?;
            }
            "fcvtzs" => {
                let dst = reg_name(&ops[0])?;
                let src = reg_name(&ops[1])?;
                let f = self.fp_read(&src)?;
                let v = if dst.starts_with('w') {
                    (f as i32 as u32) as u64
                } else {
                    f as i64 as u64
                };
                self.reg_write(&dst, v)?;
            }
            "fcvt" => {
                let dst = reg_name(&ops[0])?;
                let src = reg_name(&ops[1])?;
                let f = self.fp_read(&src)?;
                self.fp_write(&dst, f)?;
            }
            other => return Err(EmuError::new(format!("unsupported instruction `{other}`"))),
        }
        Ok(())
    }

    fn call_builtin(&mut self, name: &str) -> Result<()> {
        let (ints, floats) = ([0, 1, 2].map(|r| self.cpu.x[r]), [0, 1].map(|r| self.cpu.d[r]));
        match self.libc(name, ints, floats)? {
            Ret::Int(v) => self.cpu.x[0] = v,
            Ret::F64(v) => self.cpu.d[0] = v,
        }
        Ok(())
    }
}

fn split_reg(name: &str) -> Result<(char, usize)> {
    let mut chars = name.chars();
    let k = chars.next().ok_or_else(|| EmuError::new("empty register"))?;
    let n: usize =
        chars.as_str().parse().map_err(|_| EmuError::new(format!("register `{name}`")))?;
    if n >= 32 {
        return Err(EmuError::new(format!("register `{name}` out of range")));
    }
    Ok((k, n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use slade_asm::{parse_asm, Isa};
    use slade_compiler::{compile_function, CompileOpts, OptLevel};

    fn emu_for(src: &str, name: &str, opt: OptLevel) -> ArmEmulator {
        let p = slade_minic::parse_program(src).unwrap();
        let asm = compile_function(&p, name, CompileOpts::new(slade_compiler::Isa::Arm64, opt))
            .unwrap();
        ArmEmulator::new(parse_asm(&asm, Isa::Arm64))
    }

    #[test]
    fn arm_arithmetic_both_levels() {
        for opt in [OptLevel::O0, OptLevel::O3] {
            let mut e = emu_for("int f(int a, int b) { return a * 3 - b / 2; }", "f", opt);
            let r = e.call("f", &[Arg::Int(10), Arg::Int(7)]).unwrap();
            assert_eq!(r as i32, 27, "{opt:?}");
        }
    }

    #[test]
    fn arm_loops_and_unrolling() {
        for opt in [OptLevel::O0, OptLevel::O3] {
            let mut e = emu_for(
                "int total(int *a, int n) { int s = 0; for (int i = 0; i < n; i++) s += a[i]; return s; }",
                "total",
                opt,
            );
            let bytes: Vec<u8> = (1i32..=9).flat_map(|v| v.to_le_bytes()).collect();
            let buf = e.alloc_buffer(&bytes);
            let r = e.call("total", &[Arg::Int(buf), Arg::Int(9)]).unwrap();
            assert_eq!(r as i32, 45, "{opt:?}");
        }
    }

    #[test]
    fn arm_pointer_writes() {
        let mut e = emu_for(
            "void bump(int *a, int v, int n) { for (int i = 0; i < n; i++) a[i] += v; }",
            "bump",
            OptLevel::O0,
        );
        let bytes: Vec<u8> = [5i32, 6, 7].iter().flat_map(|v| v.to_le_bytes()).collect();
        let buf = e.alloc_buffer(&bytes);
        e.call("bump", &[Arg::Int(buf), Arg::Int(10), Arg::Int(3)]).unwrap();
        let out = e.read_buffer(buf, 12).unwrap();
        let vals: Vec<i32> =
            out.chunks(4).map(|c| i32::from_le_bytes(c.try_into().unwrap())).collect();
        assert_eq!(vals, vec![15, 16, 17]);
    }

    #[test]
    fn arm_float_math() {
        let mut e =
            emu_for("double f(double x, double y) { return x * y + 0.5; }", "f", OptLevel::O0);
        e.call("f", &[Arg::F64(2.5), Arg::F64(4.0)]).unwrap();
        assert_eq!(e.ret_f64(), 10.5);
    }

    #[test]
    fn arm_unsigned_division_and_compare() {
        let mut e = emu_for(
            "unsigned f(unsigned a, unsigned b) { if (a < b) return 0; return a / b; }",
            "f",
            OptLevel::O0,
        );
        assert_eq!(
            e.call("f", &[Arg::Int(0xffff_fffc), Arg::Int(2)]).unwrap() as u32,
            0x7fff_fffe
        );
        assert_eq!(e.call("f", &[Arg::Int(1), Arg::Int(2)]).unwrap() as u32, 0);
    }

    #[test]
    fn arm_globals_and_calls() {
        let src = "int g; int helper(int v) { return v + 1; } int f(void) { g = helper(g); return g; }";
        let p = slade_minic::parse_program(src).unwrap();
        let mut text = String::new();
        for name in ["helper", "f"] {
            text.push_str(
                &compile_function(
                    &p,
                    name,
                    CompileOpts::new(slade_compiler::Isa::Arm64, OptLevel::O0),
                )
                .unwrap(),
            );
        }
        let mut e = ArmEmulator::new(parse_asm(&text, Isa::Arm64));
        e.define_global("g", &5i32.to_le_bytes());
        assert_eq!(e.call("f", &[]).unwrap() as i32, 6);
        assert_eq!(e.call("f", &[]).unwrap() as i32, 7);
    }

    #[test]
    fn arm_division_by_zero_errors() {
        let mut e = emu_for("int f(int a, int b) { return a / b; }", "f", OptLevel::O0);
        assert!(e.call("f", &[Arg::Int(1), Arg::Int(0)]).is_err());
    }

    #[test]
    fn arm_strings() {
        let mut e = emu_for("int f(void) { return strlen(\"hello arm\"); }", "f", OptLevel::O0);
        assert_eq!(e.call("f", &[]).unwrap(), 9);
    }
}
