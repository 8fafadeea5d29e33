//! AArch64 emulator for the assembly subset the ARM backend emits.
//!
//! Only the register file and the mnemonic table are ARM's: memory, the
//! call and fetch loop and the libc builtins are the shared [`Machine`]'s,
//! so ARM assembly is cross-validated against the MiniC interpreter exactly
//! like x86 (see `tests/pipeline.rs`).

use crate::machine::{op, target, Cpu, Machine, Step};
use crate::{EmuError, Result};
use slade_asm::{Inst, Isa, Operand};
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
}

/// The AArch64 machine: [`Arm64`] registers over the shared segment memory.
pub type ArmEmulator = Machine<Arm64>;

impl Cpu for Arm64 {
    const ARG_REGS: (usize, usize) = Isa::Arm64.arg_regs();

    fn int_arg(&mut self, n: usize) -> &mut u64 {
        &mut self.x[n]
    }

    fn int_ret(&mut self) -> &mut u64 {
        &mut self.x[0]
    }

    fn f64_reg(&self, n: usize) -> f64 {
        self.d[n]
    }

    fn set_f64_reg(&mut self, n: usize, v: f64) {
        self.d[n] = v;
    }

    fn set_f32_reg(&mut self, n: usize, v: f32) {
        self.d[n] = v as f64;
    }

    fn set_sp(&mut self, sp: u64) {
        self.sp = sp;
    }

    fn step(
        m: &mut ArmEmulator,
        inst: &Inst,
        labels: &HashMap<String, usize>,
        ip: &mut usize,
    ) -> Result<Step> {
        m.exec(inst, labels, ip)
    }
}

impl ArmEmulator {
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
        Ok(self.reg_read(base)?.wrapping_add(*off as u64))
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

    fn exec(
        &mut self,
        inst: &Inst,
        labels: &HashMap<String, usize>,
        ip: &mut usize,
    ) -> Result<Step> {
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
            "ret" => return Ok(Step::Return),
            "stp" => {
                // stp xA, xB, [sp, #-F]!  (pre-index) or plain [base, #off].
                let ra = reg_name(op(ops, 0)?)?;
                let rb = reg_name(op(ops, 1)?)?;
                let Operand::MemArm { base, off, pre_writeback } = op(ops, 2)? else {
                    return Err(EmuError::new("stp operand"));
                };
                let addr = self.reg_read(base)?.wrapping_add(*off as u64);
                let va = self.reg_read(&ra)?;
                let vb = self.reg_read(&rb)?;
                self.store(addr, va, 8)?;
                self.store(addr.wrapping_add(8), vb, 8)?;
                if *pre_writeback {
                    self.reg_write(base, addr)?;
                }
            }
            "ldp" => {
                // ldp xA, xB, [sp], #F (post-index: off parsed as 0; the
                // post-increment arrives as a trailing Imm operand).
                let ra = reg_name(op(ops, 0)?)?;
                let rb = reg_name(op(ops, 1)?)?;
                let Operand::MemArm { base, off, .. } = op(ops, 2)? else {
                    return Err(EmuError::new("ldp operand"));
                };
                let baseval = self.reg_read(base)?;
                let addr = baseval.wrapping_add(*off as u64);
                let va = self.load(addr, 8)?;
                let vb = self.load(addr.wrapping_add(8), 8)?;
                self.reg_write(&ra, va)?;
                self.reg_write(&rb, vb)?;
                if let Some(Operand::Imm(post)) = ops.get(3) {
                    self.reg_write(base, baseval.wrapping_add(*post as u64))?;
                }
            }
            "mov" | "movz" => {
                let dst = reg_name(op(ops, 0)?)?;
                let v = self.op_u64(op(ops, 1)?)?;
                self.reg_write(&dst, v)?;
            }
            "movk" => {
                let dst = reg_name(op(ops, 0)?)?;
                let v = self.op_u64(op(ops, 1)?)?;
                let shift = match ops.get(2) {
                    Some(&Operand::Lsl(s @ 0..=48)) => s as u32,
                    Some(Operand::Lsl(_)) => return Err(EmuError::new("movk shift")),
                    _ => 0,
                };
                let cur = self.reg_read(&dst)?;
                let mask = !(0xffffu64 << shift);
                self.reg_write(&dst, (cur & mask) | (v << shift))?;
            }
            "fmov" => {
                // fmov d0, x8 (bit move) or fmov s0, w8.
                let dst = reg_name(op(ops, 0)?)?;
                let src = reg_name(op(ops, 1)?)?;
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
                let dst = reg_name(op(ops, 0)?)?;
                let addr = self.mem_addr(op(ops, 1)?)?;
                let v = match (m, split_reg(&dst)?.0) {
                    ("ldrb", _) => self.load(addr, 1)?,
                    ("ldrsb", _) => self.load(addr, 1)? as u8 as i8 as i32 as u32 as u64,
                    ("ldrh", _) => self.load(addr, 2)?,
                    ("ldrsh", _) => self.load(addr, 2)? as u16 as i16 as i32 as u32 as u64,
                    (_, 'w' | 's') => self.load(addr, 4)?,
                    (_, 'x' | 'd') => self.load(addr, 8)?,
                    _ => return Err(EmuError::new("ldr form")),
                };
                self.reg_write(&dst, v)?;
            }
            "str" | "strb" | "strh" => {
                let src = reg_name(op(ops, 0)?)?;
                let addr = self.mem_addr(op(ops, 1)?)?;
                let len = match (m, split_reg(&src)?.0) {
                    ("strb", _) => 1,
                    ("strh", _) => 2,
                    (_, 'w' | 's') => 4,
                    (_, 'x' | 'd') => 8,
                    _ => return Err(EmuError::new("str form")),
                };
                let v = self.reg_read(&src)?;
                self.store(addr, v, len)?;
            }
            "adrp" => {
                let dst = reg_name(op(ops, 0)?)?;
                let Operand::Sym(_) = op(ops, 1)? else { return Err(EmuError::new("adrp")) };
                // Page-address semantics are folded into the :lo12: add.
                self.reg_write(&dst, 0)?;
            }
            "add" if ops.len() == 3 && matches!(ops[2], Operand::Lo12(_)) => {
                let dst = reg_name(op(ops, 0)?)?;
                let Operand::Lo12(sym) = op(ops, 2)? else { unreachable!() };
                let addr = self.symbol(sym)?;
                self.reg_write(&dst, addr)?;
            }
            "add" | "sub" | "mul" | "sdiv" | "udiv" | "and" | "orr" | "eor" | "lsl" | "asr"
            | "lsr" => {
                let dst = reg_name(op(ops, 0)?)?;
                let wide = dst.starts_with('x') || dst == "sp";
                let a = self.op_u64(op(ops, 1)?)?;
                let b = self.op_u64(op(ops, 2)?)?;
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
                let dst = reg_name(op(ops, 0)?)?;
                let a = self.op_u64(op(ops, 1)?)?;
                let b = self.op_u64(op(ops, 2)?)?;
                let c = self.op_u64(op(ops, 3)?)?;
                self.reg_write(&dst, c.wrapping_sub(a.wrapping_mul(b)))?;
            }
            "sxtw" | "sxtb" | "uxtb" | "sxth" | "uxth" => {
                let dst = reg_name(op(ops, 0)?)?;
                let v = self.op_u64(op(ops, 1)?)?;
                let v = match m {
                    "sxtw" => v as u32 as i32 as i64 as u64,
                    "sxtb" => v as u8 as i8 as i32 as u32 as u64,
                    "uxtb" => v as u8 as u64,
                    "sxth" => v as u16 as i16 as i32 as u32 as u64,
                    _ => v as u16 as u64,
                };
                self.reg_write(&dst, v)?;
            }
            "cmp" => {
                let a = self.op_u64(op(ops, 0)?)?;
                let b = self.op_u64(op(ops, 1)?)?;
                let wide = matches!(op(ops, 0)?, Operand::Reg(r) if r.starts_with('x'));
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
                let a = self.fp_read(&reg_name(op(ops, 0)?)?)?;
                let b = self.fp_read(&reg_name(op(ops, 1)?)?)?;
                // Unordered (a NaN operand) is NZCV = 0011.
                let unordered = a.is_nan() || b.is_nan();
                self.cpu.flags =
                    Nzcv { n: a < b, z: a == b, c: a >= b || unordered, v: unordered };
            }
            "cset" => {
                let dst = reg_name(op(ops, 0)?)?;
                let Operand::Cond(cc) = op(ops, 1)? else {
                    return Err(EmuError::new("cset cc"));
                };
                let v = self.cond(cc)? as u64;
                self.reg_write(&dst, v)?;
            }
            "cbnz" => {
                // A `w` register reads as its low 32 bits.
                if self.op_u64(op(ops, 0)?)? != 0 {
                    *ip = target(labels, op(ops, 1)?)?;
                }
            }
            "b" => *ip = target(labels, op(ops, 0)?)?,
            _ if m.starts_with("b.") => {
                if self.cond(&m[2..])? {
                    *ip = target(labels, op(ops, 0)?)?;
                }
            }
            "bl" => {
                let Operand::Sym(callee) = op(ops, 0)? else { return Err(EmuError::new("bl")) };
                return Ok(Step::Call(callee.clone()));
            }
            "fadd" | "fsub" | "fmul" | "fdiv" => {
                let dst = reg_name(op(ops, 0)?)?;
                let a = self.fp_read(&reg_name(op(ops, 1)?)?)?;
                let b = self.fp_read(&reg_name(op(ops, 2)?)?)?;
                let v = match m {
                    "fadd" => a + b,
                    "fsub" => a - b,
                    "fmul" => a * b,
                    _ => a / b,
                };
                self.fp_write(&dst, v)?;
            }
            "scvtf" => {
                let dst = reg_name(op(ops, 0)?)?;
                let src = reg_name(op(ops, 1)?)?;
                let v = self.reg_read(&src)?;
                let f =
                    if src.starts_with('w') { v as u32 as i32 as f64 } else { v as i64 as f64 };
                self.fp_write(&dst, f)?;
            }
            "fcvtzs" => {
                let dst = reg_name(op(ops, 0)?)?;
                let src = reg_name(op(ops, 1)?)?;
                let f = self.fp_read(&src)?;
                let v = if dst.starts_with('w') {
                    (f as i32 as u32) as u64
                } else {
                    f as i64 as u64
                };
                self.reg_write(&dst, v)?;
            }
            "fcvt" => {
                let dst = reg_name(op(ops, 0)?)?;
                let src = reg_name(op(ops, 1)?)?;
                let f = self.fp_read(&src)?;
                self.fp_write(&dst, f)?;
            }
            other => return Err(EmuError::new(format!("unsupported instruction `{other}`"))),
        }
        Ok(Step::Continue)
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
    use crate::machine::cases::{case, emu_cases, Case, Want};
    use crate::Arg;

    emu_cases! {
        arm_arithmetic_both_levels: case(
            "int f(int a, int b) { return a * 3 - b / 2; }",
            "f",
            &[(&[Arg::Int(10), Arg::Int(7)], Want::Int(27))],
        );
        arm_loops_and_unrolling: Case {
            buf: &[1, 2, 3, 4, 5, 6, 7, 8, 9],
            ..case(
                "int total(int *a, int n) { int s = 0; for (int i = 0; i < n; i++) s += a[i]; return s; }",
                "total",
                &[(&[Arg::Int(9)], Want::Int(45))],
            )
        };
        arm_pointer_writes: Case {
            buf: &[5, 6, 7],
            ..case(
                "void bump(int *a, int v, int n) { for (int i = 0; i < n; i++) a[i] += v; }",
                "bump",
                &[(&[Arg::Int(10), Arg::Int(3)], Want::Buf(&[15, 16, 17]))],
            )
        };
        arm_float_math: case(
            "double f(double x, double y) { return x * y + 0.5; }",
            "f",
            &[(&[Arg::F64(2.5), Arg::F64(4.0)], Want::F64(10.5))],
        );
        arm_unsigned_division_and_compare: case(
            "unsigned f(unsigned a, unsigned b) { if (a < b) return 0; return a / b; }",
            "f",
            &[
                (&[Arg::Int(0xffff_fffc), Arg::Int(2)], Want::Int(0x7fff_fffe)),
                (&[Arg::Int(1), Arg::Int(2)], Want::Int(0)),
            ],
        );
        arm_globals_and_calls: Case {
            global: Some(5),
            ..case(
                "int g; int helper(int v) { return v + 1; } int f(void) { g = helper(g); return g; }",
                "f",
                &[(&[], Want::Int(6)), (&[], Want::Int(7))],
            )
        };
        arm_division_by_zero_errors: case(
            "int f(int a, int b) { return a / b; }",
            "f",
            &[(&[Arg::Int(1), Arg::Int(0)], Want::Fails("division by zero"))],
        );
        arm_strings: case(
            "int f(void) { return strlen(\"hello arm\"); }",
            "f",
            &[(&[], Want::Int(9))],
        );
    }
}
