//! Rule-based lifter: the Ghidra stand-in.
//!
//! Translates parsed assembly into compilable-but-unreadable C, the way
//! industrial decompilers do: machine registers become `unsigned long`
//! locals, the stack becomes a byte array, control flow becomes labels and
//! `goto`s, and memory accesses stay as literal casts. Like Ghidra (paper
//! §VII-D), it does **not** invent external types or signatures — extern
//! call arities are guessed from argument-register writes, floating-point
//! constants are recovered only from recognizable bit patterns, and vector
//! instructions are *not supported* (`-O3` x86 loops fail to lift, which is
//! exactly the collapse the paper measures for Ghidra on optimized code).

use slade_asm::{AsmFunction, Inst, Isa, Line, Operand};
use std::collections::HashMap;
use std::fmt;

/// Why a function could not be lifted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiftError(pub String);

/// Operand accessor that converts malformed (truncated) operand lists into
/// lift errors instead of index panics — hostile assembly must lift-fail.
fn arg(ops: &[Operand], i: usize) -> Result<&Operand, LiftError> {
    ops.get(i).ok_or_else(|| LiftError(format!("missing operand {i}")))
}

impl fmt::Display for LiftError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lift error: {}", self.0)
    }
}

impl std::error::Error for LiftError {}

/// Lifts one function to C text.
///
/// # Errors
///
/// Fails on instructions outside the supported subset (vector ops, unknown
/// mnemonics) — the Ghidra-like failure mode on optimized code.
pub fn lift(
    func: &AsmFunction,
    isa: Isa,
    rodata: &HashMap<String, Vec<u8>>,
) -> Result<String, LiftError> {
    match isa {
        Isa::X86_64 => X86Lifter::new(func, rodata).lift(),
        Isa::Arm64 => ArmLifter::new(func, rodata).lift(),
    }
}

const X86_ARGS: [&str; 6] = ["rdi", "rsi", "rdx", "rcx", "r8", "r9"];

struct X86Lifter<'a> {
    f: &'a AsmFunction,
    rodata: &'a HashMap<String, Vec<u8>>,
    body: Vec<String>,
    used_regs: Vec<String>,
    used_xmm: Vec<usize>,
    pending_cmp: Option<(String, String, char)>, // (lhs, rhs, width: 'l'|'q'|'f')
    const_in_reg: HashMap<String, i64>,
    armed_int: Vec<usize>,
    armed_f: Vec<usize>,
    strings: Vec<(String, String)>,
    uses_cmp_tmps: bool,
}

impl<'a> X86Lifter<'a> {
    fn new(f: &'a AsmFunction, rodata: &'a HashMap<String, Vec<u8>>) -> Self {
        X86Lifter {
            f,
            rodata,
            body: Vec::new(),
            used_regs: Vec::new(),
            used_xmm: Vec::new(),
            pending_cmp: None,
            const_in_reg: HashMap::new(),
            armed_int: Vec::new(),
            armed_f: Vec::new(),
            strings: Vec::new(),
            uses_cmp_tmps: false,
        }
    }

    fn reg64(&mut self, name: &str) -> String {
        let base = canonical_x86(name);
        if !self.used_regs.contains(&base) {
            self.used_regs.push(base.clone());
        }
        format!("r_{base}")
    }

    fn xmm(&mut self, n: usize) -> String {
        if !self.used_xmm.contains(&n) {
            self.used_xmm.push(n);
        }
        format!("f_{n}")
    }

    /// Reads an operand as a C expression of the given width suffix.
    fn read(&mut self, op: &Operand, width: char) -> Result<String, LiftError> {
        Ok(match op {
            Operand::Imm(v) => format!("{v}"),
            Operand::Reg(r) if r.starts_with("xmm") => {
                let n: usize = r[3..].parse().unwrap_or(0);
                self.xmm(n)
            }
            Operand::Reg(r) => {
                let v = self.reg64(r);
                match width {
                    'b' => format!("(unsigned char){v}"),
                    'w' => format!("(unsigned short){v}"),
                    'l' => format!("(unsigned int){v}"),
                    _ => v,
                }
            }
            Operand::Mem { .. } | Operand::RipSym(_) => {
                let addr = self.address_of(op)?;
                let ty = match width {
                    'b' => "unsigned char",
                    'w' => "unsigned short",
                    'l' => "unsigned int",
                    _ => "unsigned long",
                };
                format!("*({ty}*)({addr})")
            }
            other => return Err(LiftError(format!("operand {other:?}"))),
        })
    }

    fn address_of(&mut self, op: &Operand) -> Result<String, LiftError> {
        match op {
            Operand::Mem { disp, base, index, scale } => {
                let mut parts = Vec::new();
                if let Some(b) = base {
                    parts.push(self.reg64(b));
                }
                if let Some(ix) = index {
                    let r = self.reg64(ix);
                    parts.push(format!("{r} * {scale}"));
                }
                if *disp != 0 || parts.is_empty() {
                    parts.push(format!("{disp}"));
                }
                Ok(parts.join(" + "))
            }
            Operand::RipSym(sym) => {
                if let Some(bytes) = self.rodata.get(sym) {
                    let var = format!("lc_{}", self.strings.len());
                    let text: String = bytes[..bytes.len().saturating_sub(1)]
                        .iter()
                        .map(|&b| escape_c_byte(b))
                        .collect();
                    // Reuse existing entry for the same label.
                    if let Some((v, _)) = self.strings.iter().find(|(_, t)| *t == text) {
                        return Ok(format!("(unsigned long){}", v.clone()));
                    }
                    self.strings.push((var.clone(), text));
                    Ok(format!("(unsigned long){var}"))
                } else {
                    Ok(format!("(unsigned long)&{sym}"))
                }
            }
            _ => Err(LiftError("not an address".into())),
        }
    }

    fn write(&mut self, op: &Operand, value: String, width: char) -> Result<(), LiftError> {
        match op {
            Operand::Reg(r) if r.starts_with("xmm") => {
                let n: usize = r[3..].parse().unwrap_or(0);
                let v = self.xmm(n);
                self.body.push(format!("{v} = {value};"));
            }
            Operand::Reg(r) => {
                let v = self.reg64(r);
                let expr = match width {
                    'l' => format!("(unsigned int)({value})"),
                    'b' => format!("({v} & ~255UL) | (unsigned char)({value})"),
                    'w' => format!("({v} & ~65535UL) | (unsigned short)({value})"),
                    _ => format!("({value})"),
                };
                self.body.push(format!("{v} = {expr};"));
            }
            Operand::Mem { .. } | Operand::RipSym(_) => {
                let addr = self.address_of(op)?;
                let ty = match width {
                    'b' => "unsigned char",
                    'w' => "unsigned short",
                    'l' => "unsigned int",
                    _ => "unsigned long",
                };
                self.body.push(format!("*({ty}*)({addr}) = {value};"));
            }
            other => return Err(LiftError(format!("write operand {other:?}"))),
        }
        Ok(())
    }

    fn cond_expr(&self, cc: &str) -> Result<String, LiftError> {
        let Some((a, b, width)) = &self.pending_cmp else {
            return Err(LiftError(format!("condition `{cc}` without compare")));
        };
        let (sa, sb, ua, ub) = match width {
            'l' => (
                format!("(int)({a})"),
                format!("(int)({b})"),
                format!("(unsigned int)({a})"),
                format!("(unsigned int)({b})"),
            ),
            'f' => (a.clone(), b.clone(), a.clone(), b.clone()),
            _ => (
                format!("(long)({a})"),
                format!("(long)({b})"),
                format!("({a})"),
                format!("({b})"),
            ),
        };
        Ok(match cc {
            "e" => format!("{sa} == {sb}"),
            "ne" => format!("{sa} != {sb}"),
            "l" => format!("{sa} < {sb}"),
            "le" => format!("{sa} <= {sb}"),
            "g" => format!("{sa} > {sb}"),
            "ge" => format!("{sa} >= {sb}"),
            "b" => format!("{ua} < {ub}"),
            "be" => format!("{ua} <= {ub}"),
            "a" => format!("{ua} > {ub}"),
            "ae" => format!("{ua} >= {ub}"),
            other => return Err(LiftError(format!("condition `{other}`"))),
        })
    }

    fn lift(mut self) -> Result<String, LiftError> {
        // Determine parameters: argument registers read before written.
        let (params, uses_xmm_args) = x86_params(self.f);
        let lines: Vec<Line> = self.f.lines.clone();
        let mut i = 0usize;
        while i < lines.len() {
            let line = &lines[i];
            i += 1;
            match line {
                Line::Label(l) => {
                    self.body.push(format!("{}: ;", label_c(l)));
                    self.pending_cmp = None;
                    self.const_in_reg.clear();
                    self.armed_int.clear();
                    self.armed_f.clear();
                }
                Line::Inst(inst) => {
                    // Pattern: movl $bits, %eax ; movd %eax, %xmm0 (float const)
                    if inst.mnemonic == "movd" || (inst.mnemonic == "movq" && is_xmm_dst(inst))
                    {
                        if let (Operand::Reg(src), Operand::Reg(dst)) =
                            (&inst.operands[0], &inst.operands[1])
                        {
                            if dst.starts_with("xmm") {
                                let base = canonical_x86(src);
                                if let Some(&bits) = self.const_in_reg.get(&base) {
                                    let n: usize =
                                        dst.strip_prefix("xmm").unwrap().parse().unwrap_or(0);
                                    let var = self.xmm(n);
                                    let lit = if inst.mnemonic == "movd" {
                                        format!("{:?}", f32::from_bits(bits as u32) as f64)
                                    } else {
                                        format!("{:?}", f64::from_bits(bits as u64))
                                    };
                                    let lit = ensure_float_lit(&lit);
                                    self.body.push(format!("{var} = {lit};"));
                                    continue;
                                }
                                return Err(LiftError("bit-level float move".into()));
                            }
                        }
                    }
                    self.lift_inst(inst)?;
                }
            }
        }
        // Assemble the function text.
        let mut out = String::new();
        let plist: Vec<String> =
            params.iter().map(|p| format!("unsigned long r_{p}")).collect();
        let fplist: Vec<String> = (0..uses_xmm_args).map(|n| format!("double f_{n}")).collect();
        let all: Vec<String> = plist.into_iter().chain(fplist).collect();
        out.push_str(&format!(
            "long {}({}) {{\n",
            self.f.name,
            if all.is_empty() { "void".to_string() } else { all.join(", ") }
        ));
        out.push_str("unsigned char stk[4096];\n");
        out.push_str("unsigned long r_rbp = (unsigned long)(stk + 4000);\n");
        out.push_str("unsigned long r_rsp = r_rbp;\n");
        if self.uses_cmp_tmps {
            out.push_str("unsigned long cmp_a = 0;\nunsigned long cmp_b = 0;\n");
            out.push_str("double fcmp_a = 0.0;\ndouble fcmp_b = 0.0;\n");
        }
        for (var, text) in &self.strings {
            out.push_str(&format!("char *{var} = \"{text}\";\n"));
        }
        let mut declared: Vec<String> = params.iter().map(|p| format!("r_{p}")).collect();
        declared.push("r_rbp".into());
        declared.push("r_rsp".into());
        for r in &self.used_regs {
            let v = format!("r_{r}");
            if !declared.contains(&v) {
                out.push_str(&format!("unsigned long {v} = 0;\n"));
                declared.push(v);
            }
        }
        for n in &self.used_xmm {
            if *n >= uses_xmm_args {
                out.push_str(&format!("double f_{n} = 0.0;\n"));
            }
        }
        for stmt in &self.body {
            out.push_str(stmt);
            out.push('\n');
        }
        out.push_str("return r_rax;\n}\n");
        // `r_rax` must exist even for void-ish functions.
        if !out.contains("unsigned long r_rax") && !params.contains(&"rax".to_string()) {
            out = out.replacen(
                "unsigned long r_rsp = r_rbp;\n",
                "unsigned long r_rsp = r_rbp;\nunsigned long r_rax = 0;\n",
                1,
            );
        }
        Ok(out)
    }

    fn lift_inst(&mut self, inst: &Inst) -> Result<(), LiftError> {
        let m = inst.mnemonic.as_str();
        let ops = &inst.operands;
        // Track constants for float-literal recovery.
        let mut new_const: Option<(String, i64)> = None;
        if matches!(m, "movl" | "movabsq" | "movq") {
            if let (Operand::Imm(v), Operand::Reg(r)) = (arg(ops, 0)?, arg(ops, 1)?) {
                if !r.starts_with("xmm") {
                    new_const = Some((canonical_x86(r), *v));
                }
            }
        }
        match m {
            "endbr64" | "nop" | "leave" | "pushq" | "popq" => {}
            "ret" => self.body.push("return r_rax;".to_string()),
            "movb" | "movw" | "movl" | "movq" | "movabsq" => {
                let width = match m {
                    "movb" => 'b',
                    "movw" => 'w',
                    "movl" => 'l',
                    _ => 'q',
                };
                if ops.iter().any(|o| matches!(o, Operand::Reg(r) if r.starts_with("xmm"))) {
                    return Err(LiftError("untracked xmm bit move".into()));
                }
                let v = self.read(arg(ops, 0)?, width)?;
                self.write(arg(ops, 1)?, v, width)?;
                self.arm(arg(ops, 1)?);
            }
            "movslq" => {
                let v = self.read(arg(ops, 0)?, 'l')?;
                self.write(arg(ops, 1)?, format!("(long)(int)({v})"), 'q')?;
                self.arm(arg(ops, 1)?);
            }
            "movsbl" => {
                let v = self.read(arg(ops, 0)?, 'b')?;
                self.write(arg(ops, 1)?, format!("(int)(char)({v})"), 'l')?;
                self.arm(arg(ops, 1)?);
            }
            "movzbl" => {
                let v = self.read(arg(ops, 0)?, 'b')?;
                self.write(arg(ops, 1)?, format!("(unsigned char)({v})"), 'l')?;
                self.arm(arg(ops, 1)?);
            }
            "movswl" => {
                let v = self.read(arg(ops, 0)?, 'w')?;
                self.write(arg(ops, 1)?, format!("(int)(short)({v})"), 'l')?;
                self.arm(arg(ops, 1)?);
            }
            "movzwl" => {
                let v = self.read(arg(ops, 0)?, 'w')?;
                self.write(arg(ops, 1)?, format!("(unsigned short)({v})"), 'l')?;
                self.arm(arg(ops, 1)?);
            }
            "leaq" => {
                let addr = self.address_of(arg(ops, 0)?)?;
                self.write(arg(ops, 1)?, addr, 'q')?;
                self.arm(arg(ops, 1)?);
            }
            "addl" | "addq" | "subl" | "subq" | "imull" | "imulq" | "andl" | "andq" | "orl"
            | "orq" | "xorl" | "xorq" => {
                let width = if m.ends_with('q') { 'q' } else { 'l' };
                let op = match &m[..m.len() - 1] {
                    "add" => "+",
                    "sub" => "-",
                    "imul" => "*",
                    "and" => "&",
                    "or" => "|",
                    _ => "^",
                };
                let a = self.read(arg(ops, 1)?, width)?;
                let b = self.read(arg(ops, 0)?, width)?;
                self.write(arg(ops, 1)?, format!("{a} {op} {b}"), width)?;
                self.arm(arg(ops, 1)?);
            }
            "cltd" | "cqto" => {}
            "idivl" | "divl" | "idivq" | "divq" => {
                let width = if m.ends_with('q') { 'q' } else { 'l' };
                let d = self.read(arg(ops, 0)?, width)?;
                let rax = self.reg64("rax");
                let rdx = self.reg64("rdx");
                let (cast_s, cast_u) = if width == 'l' {
                    ("(int)", "(unsigned int)")
                } else {
                    ("(long)", "(unsigned long)")
                };
                let (q, r) = if m.starts_with('i') {
                    (
                        format!("{cast_s}{rax} / {cast_s}({d})"),
                        format!("{cast_s}{rax} % {cast_s}({d})"),
                    )
                } else {
                    (
                        format!("{cast_u}{rax} / {cast_u}({d})"),
                        format!("{cast_u}{rax} % {cast_u}({d})"),
                    )
                };
                self.body.push(format!("{rdx} = (unsigned int)({r});"));
                self.body.push(format!("{rax} = (unsigned int)({q});"));
            }
            "sall" | "salq" | "sarl" | "sarq" | "shrl" | "shrq" => {
                let width = if m.ends_with('q') { 'q' } else { 'l' };
                let amt = self.read(arg(ops, 0)?, 'b')?;
                let a = self.read(arg(ops, 1)?, width)?;
                let expr = match &m[..3] {
                    "sal" => format!("({a}) << ({amt} & 31)"),
                    "sar" => {
                        if width == 'l' {
                            format!("(int)({a}) >> ({amt} & 31)")
                        } else {
                            format!("(long)({a}) >> ({amt} & 63)")
                        }
                    }
                    _ => format!("({a}) >> ({amt} & 31)"),
                };
                self.write(arg(ops, 1)?, expr, width)?;
            }
            "cmpl" | "cmpq" => {
                let width = if m == "cmpq" { 'q' } else { 'l' };
                let b = self.read(arg(ops, 0)?, width)?;
                let a = self.read(arg(ops, 1)?, width)?;
                // Snapshot operands: the setcc sequence between a compare
                // and its branch clobbers registers.
                self.body.push(format!("cmp_a = {a};"));
                self.body.push(format!("cmp_b = {b};"));
                self.uses_cmp_tmps = true;
                self.pending_cmp = Some(("cmp_a".into(), "cmp_b".into(), width));
            }
            "testl" | "testq" => {
                let width = if m == "testq" { 'q' } else { 'l' };
                let a = self.read(arg(ops, 0)?, width)?;
                self.body.push(format!("cmp_a = {a};"));
                self.body.push("cmp_b = 0;".to_string());
                self.uses_cmp_tmps = true;
                self.pending_cmp = Some(("cmp_a".into(), "cmp_b".into(), width));
            }
            "ucomiss" | "ucomisd" => {
                let a = self.read_float(arg(ops, 1)?, m == "ucomiss")?;
                let b = self.read_float(arg(ops, 0)?, m == "ucomiss")?;
                self.body.push(format!("fcmp_a = {a};"));
                self.body.push(format!("fcmp_b = {b};"));
                self.uses_cmp_tmps = true;
                self.pending_cmp = Some(("fcmp_a".into(), "fcmp_b".into(), 'f'));
            }
            _ if m.starts_with("set") => {
                let cond = self.cond_expr(&m[3..])?;
                self.write(arg(ops, 0)?, format!("({cond}) ? 1 : 0"), 'b')?;
            }
            "jmp" => {
                let Operand::Sym(l) = arg(ops, 0)? else { return Err(LiftError("jmp".into())) };
                self.body.push(format!("goto {};", label_c(l)));
            }
            _ if m.starts_with('j') => {
                let cond = self.cond_expr(&m[1..])?;
                let Operand::Sym(l) = arg(ops, 0)? else { return Err(LiftError("jcc".into())) };
                self.body.push(format!("if ({cond}) goto {};", label_c(l)));
            }
            "call" => {
                let Operand::Sym(callee) = arg(ops, 0)? else {
                    return Err(LiftError("indirect call".into()));
                };
                // Arity heuristic: contiguous prefix of armed arg registers.
                let mut args = Vec::new();
                for (idx, reg) in X86_ARGS.iter().enumerate() {
                    if self.armed_int.contains(&idx) {
                        args.push(self.reg64(reg));
                    } else {
                        break;
                    }
                }
                let mut fi = 0usize;
                while self.armed_f.contains(&fi) {
                    args.push(self.xmm(fi));
                    fi += 1;
                }
                let rax = self.reg64("rax");
                self.body
                    .push(format!("{rax} = (unsigned long){callee}({});", args.join(", ")));
                self.armed_int.clear();
                self.armed_f.clear();
            }
            "movss" | "movsd" => {
                let single = m == "movss";
                match (arg(ops, 0)?, arg(ops, 1)?) {
                    (src, Operand::Reg(d)) if d.starts_with("xmm") => {
                        let v = self.read_float(src, single)?;
                        let n: usize = d[3..].parse().unwrap_or(0);
                        let var = self.xmm(n);
                        self.body.push(format!("{var} = {v};"));
                        if n < 8 && !self.armed_f.contains(&n) {
                            self.armed_f.push(n);
                        }
                    }
                    (Operand::Reg(s), dst) if s.starts_with("xmm") => {
                        let n: usize = s[3..].parse().unwrap_or(0);
                        let var = self.xmm(n);
                        let addr = self.address_of(dst)?;
                        let ty = if single { "float" } else { "double" };
                        let cast = if single { "(float)" } else { "" };
                        self.body.push(format!("*({ty}*)({addr}) = {cast}{var};"));
                    }
                    _ => return Err(LiftError("movss form".into())),
                }
            }
            "addss" | "addsd" | "subss" | "subsd" | "mulss" | "mulsd" | "divss" | "divsd" => {
                let single = m.ends_with("ss");
                let op = match &m[..3] {
                    "add" => "+",
                    "sub" => "-",
                    "mul" => "*",
                    _ => "/",
                };
                let b = self.read_float(arg(ops, 0)?, single)?;
                let Operand::Reg(d) = arg(ops, 1)? else {
                    return Err(LiftError("fp dst".into()));
                };
                let n: usize = d[3..].parse().unwrap_or(0);
                let var = self.xmm(n);
                self.body.push(format!("{var} = {var} {op} {b};"));
            }
            "cvtsi2ss" | "cvtsi2sd" => {
                let v = self.read(arg(ops, 0)?, 'l')?;
                let Operand::Reg(d) = arg(ops, 1)? else {
                    return Err(LiftError("cvt dst".into()));
                };
                let n: usize = d[3..].parse().unwrap_or(0);
                let var = self.xmm(n);
                self.body.push(format!("{var} = (double)(int)({v});"));
            }
            "cvtsi2ssq" | "cvtsi2sdq" => {
                let v = self.read(arg(ops, 0)?, 'q')?;
                let Operand::Reg(d) = arg(ops, 1)? else {
                    return Err(LiftError("cvt dst".into()));
                };
                let n: usize = d[3..].parse().unwrap_or(0);
                let var = self.xmm(n);
                self.body.push(format!("{var} = (double)(long)({v});"));
            }
            "cvttss2si" | "cvttsd2si" | "cvttss2siq" | "cvttsd2siq" => {
                let Operand::Reg(s) = arg(ops, 0)? else {
                    return Err(LiftError("cvt src".into()));
                };
                let n: usize = s[3..].parse().unwrap_or(0);
                let var = self.xmm(n);
                let wide = m.ends_with('q');
                let cast = if wide { "(long)" } else { "(int)" };
                let v = format!("{cast}{var}");
                self.write(arg(ops, 1)?, v, if wide { 'q' } else { 'l' })?;
            }
            "cvtss2sd" | "cvtsd2ss" => {
                // Same C variable (doubles throughout); conversion is free.
                let Operand::Reg(s) = arg(ops, 0)? else { return Err(LiftError("cvt".into())) };
                let Operand::Reg(d) = arg(ops, 1)? else { return Err(LiftError("cvt".into())) };
                if s != d {
                    let ns: usize = s[3..].parse().unwrap_or(0);
                    let nd: usize = d[3..].parse().unwrap_or(0);
                    let vs = self.xmm(ns);
                    let vd = self.xmm(nd);
                    self.body.push(format!("{vd} = {vs};"));
                }
                if m == "cvtsd2ss" {
                    let Operand::Reg(d) = arg(ops, 1)? else { unreachable!() };
                    let nd: usize = d[3..].parse().unwrap_or(0);
                    let vd = self.xmm(nd);
                    self.body.push(format!("{vd} = (double)(float){vd};"));
                }
            }
            "movdqu" | "movups" | "paddd" | "psubd" | "pmulld" | "pshufd" => {
                return Err(LiftError(format!("unsupported vector instruction `{m}`")));
            }
            other => return Err(LiftError(format!("unsupported instruction `{other}`"))),
        }
        if let Some((r, v)) = new_const {
            self.const_in_reg.insert(r, v);
        } else if let Some(Operand::Reg(r)) = inst.operands.last() {
            self.const_in_reg.remove(&canonical_x86(r));
        }
        Ok(())
    }

    fn read_float(&mut self, op: &Operand, single: bool) -> Result<String, LiftError> {
        Ok(match op {
            Operand::Reg(r) if r.starts_with("xmm") => {
                let n: usize = r[3..].parse().unwrap_or(0);
                self.xmm(n)
            }
            Operand::Mem { .. } | Operand::RipSym(_) => {
                let addr = self.address_of(op)?;
                if single {
                    format!("(double)*(float*)({addr})")
                } else {
                    format!("*(double*)({addr})")
                }
            }
            other => return Err(LiftError(format!("float operand {other:?}"))),
        })
    }

    fn arm(&mut self, dst: &Operand) {
        if let Operand::Reg(r) = dst {
            let base = canonical_x86(r);
            if let Some(idx) = X86_ARGS.iter().position(|&a| a == base) {
                if !self.armed_int.contains(&idx) {
                    self.armed_int.push(idx);
                }
            }
        }
    }
}

/// Which integer argument registers are read before written (arity
/// recovery) and how many xmm argument registers are read.
fn x86_params(f: &AsmFunction) -> (Vec<String>, usize) {
    let mut written: Vec<String> = Vec::new();
    let mut params: Vec<usize> = Vec::new();
    let mut fmax = 0usize;
    let mut fwritten: Vec<usize> = Vec::new();
    for inst in f.instructions() {
        // Reads: all operands except the last (AT&T dst-last), plus memory bases.
        let n = inst.operands.len();
        for (i, op) in inst.operands.iter().enumerate() {
            let is_dst = i + 1 == n && writes_dst_x86(&inst.mnemonic);
            match op {
                Operand::Reg(r) if r.starts_with("xmm") => {
                    let x: usize = r[3..].parse().unwrap_or(0);
                    if !is_dst && !fwritten.contains(&x) && x < 8 {
                        fmax = fmax.max(x + 1);
                    }
                    if is_dst {
                        fwritten.push(x);
                    }
                }
                Operand::Reg(r) => {
                    let base = canonical_x86(r);
                    if let Some(idx) = X86_ARGS.iter().position(|&a| a == base) {
                        if !is_dst && !written.contains(&base) && !params.contains(&idx) {
                            params.push(idx);
                        }
                    }
                    if is_dst {
                        written.push(base);
                    }
                }
                Operand::Mem { base, index, .. } => {
                    for r in [base, index].into_iter().flatten() {
                        let b = canonical_x86(r);
                        if let Some(idx) = X86_ARGS.iter().position(|&a| a == b) {
                            if !written.contains(&b) && !params.contains(&idx) {
                                params.push(idx);
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }
    // Parameters form a contiguous ABI prefix.
    let count = (0..X86_ARGS.len()).take_while(|i| params.contains(i)).count();
    ((0..count).map(|i| X86_ARGS[i].to_string()).collect(), fmax)
}

fn writes_dst_x86(m: &str) -> bool {
    !matches!(m, "cmpl" | "cmpq" | "testl" | "testq" | "ucomiss" | "ucomisd" | "pushq")
        && !m.starts_with('j')
}

fn canonical_x86(name: &str) -> String {
    match name {
        "eax" | "ax" | "al" => "rax",
        "ebx" | "bl" => "rbx",
        "ecx" | "cx" | "cl" => "rcx",
        "edx" | "dx" | "dl" => "rdx",
        "esi" | "sil" => "rsi",
        "edi" | "dil" => "rdi",
        "ebp" => "rbp",
        "esp" => "rsp",
        "r8d" => "r8",
        "r9d" => "r9",
        "r10d" => "r10",
        "r11d" => "r11",
        "r12d" => "r12",
        "r13d" => "r13",
        "r14d" => "r14",
        "r15d" => "r15",
        other => other,
    }
    .to_string()
}

fn label_c(label: &str) -> String {
    format!("L{}", label.trim_start_matches(".L").replace('.', "_"))
}

fn escape_c_byte(b: u8) -> String {
    match b {
        b'\n' => "\\n".into(),
        b'\t' => "\\t".into(),
        b'"' => "\\\"".into(),
        b'\\' => "\\\\".into(),
        0x20..=0x7e => (b as char).to_string(),
        other => format!("\\x{other:02x}"),
    }
}

fn ensure_float_lit(s: &str) -> String {
    if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
        s.to_string()
    } else {
        format!("{s}.0")
    }
}

fn is_xmm_dst(inst: &Inst) -> bool {
    matches!(inst.operands.last(), Some(Operand::Reg(r)) if r.starts_with("xmm"))
}

// ===================== AArch64 =====================

const ARM_ARGS: usize = 8;

struct ArmLifter<'a> {
    f: &'a AsmFunction,
    rodata: &'a HashMap<String, Vec<u8>>,
    body: Vec<String>,
    used_x: Vec<usize>,
    used_d: Vec<usize>,
    pending_cmp: Option<(String, String, char)>,
    const_in_reg: HashMap<usize, i64>,
    armed_int: Vec<usize>,
    armed_f: Vec<usize>,
    strings: Vec<(String, String)>,
    pending_adrp: HashMap<usize, String>,
    uses_cmp_tmps: bool,
}

impl<'a> ArmLifter<'a> {
    fn new(f: &'a AsmFunction, rodata: &'a HashMap<String, Vec<u8>>) -> Self {
        ArmLifter {
            f,
            rodata,
            body: Vec::new(),
            used_x: Vec::new(),
            used_d: Vec::new(),
            pending_cmp: None,
            const_in_reg: HashMap::new(),
            armed_int: Vec::new(),
            armed_f: Vec::new(),
            strings: Vec::new(),
            pending_adrp: HashMap::new(),
            uses_cmp_tmps: false,
        }
    }

    fn xvar(&mut self, n: usize) -> String {
        if !self.used_x.contains(&n) {
            self.used_x.push(n);
        }
        format!("x_{n}")
    }

    fn dvar(&mut self, n: usize) -> String {
        if !self.used_d.contains(&n) {
            self.used_d.push(n);
        }
        format!("d_{n}")
    }

    fn reg_expr(&mut self, name: &str) -> Result<(String, bool), LiftError> {
        // Returns (expr, wide).
        if name == "sp" {
            return Ok(("x_sp".to_string(), true));
        }
        if name == "wzr" || name == "xzr" {
            return Ok(("0".to_string(), name == "xzr"));
        }
        let (kind, n): (char, usize) = (
            name.chars().next().ok_or_else(|| LiftError("empty reg".into()))?,
            name[1..].parse().map_err(|_| LiftError(format!("register `{name}`")))?,
        );
        Ok(match kind {
            'x' => (self.xvar(n), true),
            'w' => {
                let v = self.xvar(n);
                (format!("(unsigned int){v}"), false)
            }
            's' | 'd' => (self.dvar(n), true),
            _ => return Err(LiftError(format!("register `{name}`"))),
        })
    }

    fn write_reg(&mut self, name: &str, value: String) -> Result<(), LiftError> {
        if name == "sp" {
            self.body.push(format!("x_sp = {value};"));
            return Ok(());
        }
        let kind = name.chars().next().unwrap_or('x');
        let n: usize = name[1..].parse().unwrap_or(0);
        match kind {
            'x' => {
                let v = self.xvar(n);
                self.body.push(format!("{v} = ({value});"));
                if n < ARM_ARGS && !self.armed_int.contains(&n) {
                    self.armed_int.push(n);
                }
            }
            'w' => {
                let v = self.xvar(n);
                self.body.push(format!("{v} = (unsigned int)({value});"));
                if n < ARM_ARGS && !self.armed_int.contains(&n) {
                    self.armed_int.push(n);
                }
            }
            's' | 'd' => {
                let v = self.dvar(n);
                self.body.push(format!("{v} = {value};"));
                if n < ARM_ARGS && !self.armed_f.contains(&n) {
                    self.armed_f.push(n);
                }
            }
            _ => return Err(LiftError(format!("register `{name}`"))),
        }
        Ok(())
    }

    fn mem_addr(&mut self, op: &Operand) -> Result<String, LiftError> {
        let Operand::MemArm { base, off, .. } = op else {
            return Err(LiftError("not a memory operand".into()));
        };
        let (b, _) = self.reg_expr(base)?;
        if *off == 0 {
            Ok(b)
        } else {
            Ok(format!("{b} + {off}"))
        }
    }

    fn lift(mut self) -> Result<String, LiftError> {
        let (nparams, nf) = arm_params(self.f);
        let lines = self.f.lines.clone();
        for line in &lines {
            match line {
                Line::Label(l) => {
                    self.body.push(format!("{}: ;", label_c(l)));
                    self.pending_cmp = None;
                    self.const_in_reg.clear();
                    self.armed_int.clear();
                    self.armed_f.clear();
                }
                Line::Inst(inst) => self.lift_inst(inst)?,
            }
        }
        let mut out = String::new();
        let mut plist: Vec<String> =
            (0..nparams).map(|n| format!("unsigned long x_{n}")).collect();
        plist.extend((0..nf).map(|n| format!("double d_{n}")));
        out.push_str(&format!(
            "long {}({}) {{\n",
            self.f.name,
            if plist.is_empty() { "void".to_string() } else { plist.join(", ") }
        ));
        out.push_str("unsigned char stk[4096];\n");
        out.push_str("unsigned long x_sp = (unsigned long)stk;\nunsigned long x_29 = (unsigned long)stk;\n");
        if self.uses_cmp_tmps {
            out.push_str("unsigned long cmp_a = 0;\nunsigned long cmp_b = 0;\n");
            out.push_str("double fcmp_a = 0.0;\ndouble fcmp_b = 0.0;\n");
        }
        for (var, text) in &self.strings {
            out.push_str(&format!("char *{var} = \"{text}\";\n"));
        }
        for n in &self.used_x {
            if *n >= nparams && *n != 29 && *n != 30 {
                out.push_str(&format!("unsigned long x_{n} = 0;\n"));
            }
        }
        if !self.used_x.contains(&0) && nparams == 0 {
            out.push_str("unsigned long x_0 = 0;\n");
        }
        for n in &self.used_d {
            if *n >= nf {
                out.push_str(&format!("double d_{n} = 0.0;\n"));
            }
        }
        for stmt in &self.body {
            out.push_str(stmt);
            out.push('\n');
        }
        out.push_str("return x_0;\n}\n");
        Ok(out)
    }

    fn lift_inst(&mut self, inst: &Inst) -> Result<(), LiftError> {
        let m = inst.mnemonic.as_str();
        let ops = &inst.operands;
        match m {
            "stp" | "ldp" | "nop" => {} // prologue/epilogue bookkeeping
            "ret" => self.body.push("return x_0;".to_string()),
            "mov" => {
                let Operand::Reg(dst) = arg(ops, 0)? else {
                    return Err(LiftError("mov dst".into()));
                };
                let v = match arg(ops, 1)? {
                    Operand::Imm(v) => format!("{v}"),
                    Operand::Reg(r) => self.reg_expr(r)?.0,
                    other => return Err(LiftError(format!("mov src {other:?}"))),
                };
                self.write_reg(dst, v)?;
                self.const_in_reg.remove(&reg_num(dst));
            }
            "movz" => {
                let Operand::Reg(dst) = arg(ops, 0)? else {
                    return Err(LiftError("movz".into()));
                };
                let &Operand::Imm(v) = arg(ops, 1)? else {
                    return Err(LiftError("movz imm".into()));
                };
                self.write_reg(dst, format!("{v}"))?;
                self.const_in_reg.insert(reg_num(dst), v);
            }
            "movk" => {
                let Operand::Reg(dst) = arg(ops, 0)? else {
                    return Err(LiftError("movk".into()));
                };
                let &Operand::Imm(v) = arg(ops, 1)? else {
                    return Err(LiftError("movk imm".into()));
                };
                let shift = match ops.get(2) {
                    Some(Operand::Lsl(s)) => *s,
                    _ => 0,
                };
                let (cur, _) = self.reg_expr(dst)?;
                self.write_reg(dst, format!("{cur} | ((unsigned long){v} << {shift})"))?;
                let n = reg_num(dst);
                if let Some(c) = self.const_in_reg.get(&n).copied() {
                    self.const_in_reg.insert(n, c | (v << shift));
                }
            }
            "fmov" => {
                // Bit move x→d: recover the literal from tracked constants.
                let Operand::Reg(dst) = arg(ops, 0)? else {
                    return Err(LiftError("fmov".into()));
                };
                let Operand::Reg(src) = arg(ops, 1)? else {
                    return Err(LiftError("fmov".into()));
                };
                let bits = self
                    .const_in_reg
                    .get(&reg_num(src))
                    .copied()
                    .ok_or_else(|| LiftError("bit-level float move".into()))?;
                let lit = if src.starts_with('w') {
                    ensure_float_lit(&format!("{:?}", f32::from_bits(bits as u32) as f64))
                } else {
                    ensure_float_lit(&format!("{:?}", f64::from_bits(bits as u64)))
                };
                self.write_reg(dst, lit)?;
            }
            "ldr" | "ldrb" | "ldrsb" | "ldrh" | "ldrsh" | "ldrsw" => {
                let Operand::Reg(dst) = arg(ops, 0)? else {
                    return Err(LiftError("ldr dst".into()));
                };
                let addr = self.mem_addr(arg(ops, 1)?)?;
                let expr = match (m, dst.chars().next().unwrap_or('x')) {
                    ("ldrb", _) => format!("*(unsigned char*)({addr})"),
                    ("ldrsb", _) => format!("(int)*(char*)({addr})"),
                    ("ldrh", _) => format!("*(unsigned short*)({addr})"),
                    ("ldrsh", _) => format!("(int)*(short*)({addr})"),
                    (_, 'w') => format!("*(unsigned int*)({addr})"),
                    (_, 'x') => format!("*(unsigned long*)({addr})"),
                    (_, 's') => format!("(double)*(float*)({addr})"),
                    (_, 'd') => format!("*(double*)({addr})"),
                    _ => return Err(LiftError("ldr form".into())),
                };
                self.write_reg(dst, expr)?;
                self.const_in_reg.remove(&reg_num(dst));
            }
            "str" | "strb" | "strh" => {
                let Operand::Reg(src) = arg(ops, 0)? else {
                    return Err(LiftError("str src".into()));
                };
                let addr = self.mem_addr(arg(ops, 1)?)?;
                let (v, _) = self.reg_expr(src)?;
                let stmt = match (m, src.chars().next().unwrap_or('x')) {
                    ("strb", _) => format!("*(unsigned char*)({addr}) = (unsigned char)({v});"),
                    ("strh", _) => {
                        format!("*(unsigned short*)({addr}) = (unsigned short)({v});")
                    }
                    (_, 'w') => format!("*(unsigned int*)({addr}) = (unsigned int)({v});"),
                    (_, 'x') => format!("*(unsigned long*)({addr}) = {v};"),
                    (_, 's') => format!("*(float*)({addr}) = (float){v};"),
                    (_, 'd') => format!("*(double*)({addr}) = {v};"),
                    _ => return Err(LiftError("str form".into())),
                };
                self.body.push(stmt);
            }
            "adrp" => {
                let Operand::Reg(dst) = arg(ops, 0)? else {
                    return Err(LiftError("adrp".into()));
                };
                let Operand::Sym(sym) = arg(ops, 1)? else {
                    return Err(LiftError("adrp sym".into()));
                };
                self.pending_adrp.insert(reg_num(dst), sym.clone());
            }
            "add" if ops.len() == 3 && matches!(ops[2], Operand::Lo12(_)) => {
                let Operand::Reg(dst) = arg(ops, 0)? else {
                    return Err(LiftError("add lo12".into()));
                };
                let Operand::Lo12(sym) = arg(ops, 2)? else { unreachable!() };
                let expr = if let Some(bytes) = self.rodata.get(sym) {
                    let text: String = bytes[..bytes.len().saturating_sub(1)]
                        .iter()
                        .map(|&b| escape_c_byte(b))
                        .collect();
                    let var = format!("lc_{}", self.strings.len());
                    if let Some((v, _)) = self.strings.iter().find(|(_, t)| *t == text) {
                        format!("(unsigned long){}", v.clone())
                    } else {
                        self.strings.push((var.clone(), text));
                        format!("(unsigned long){var}")
                    }
                } else {
                    format!("(unsigned long)&{sym}")
                };
                self.write_reg(dst, expr)?;
                self.pending_adrp.remove(&reg_num(dst));
            }
            "add" | "sub" | "mul" | "sdiv" | "udiv" | "and" | "orr" | "eor" | "lsl" | "asr"
            | "lsr" => {
                let Operand::Reg(dst) = arg(ops, 0)? else {
                    return Err(LiftError("alu dst".into()));
                };
                let (a, wide) = match arg(ops, 1)? {
                    Operand::Reg(r) => self.reg_expr(r)?,
                    Operand::Imm(v) => (format!("{v}"), true),
                    other => return Err(LiftError(format!("alu a {other:?}"))),
                };
                let b = match arg(ops, 2)? {
                    Operand::Reg(r) => self.reg_expr(r)?.0,
                    Operand::Imm(v) => format!("{v}"),
                    other => return Err(LiftError(format!("alu b {other:?}"))),
                };
                let signed_cast = if wide && dst.starts_with('x') { "(long)" } else { "(int)" };
                let expr = match m {
                    "add" => format!("{a} + {b}"),
                    "sub" => format!("{a} - {b}"),
                    "mul" => format!("{a} * {b}"),
                    "sdiv" => format!("{signed_cast}({a}) / {signed_cast}({b})"),
                    "udiv" => format!("({a}) / ({b})"),
                    "and" => format!("{a} & {b}"),
                    "orr" => format!("{a} | {b}"),
                    "eor" => format!("{a} ^ {b}"),
                    "lsl" => format!("({a}) << ({b} & 63)"),
                    "asr" => format!("{signed_cast}({a}) >> ({b} & 63)"),
                    _ => format!("({a}) >> ({b} & 63)"),
                };
                self.write_reg(dst, expr)?;
                self.const_in_reg.remove(&reg_num(dst));
            }
            "msub" => {
                // msub d, a, b, c  =>  d = c - a*b
                let Operand::Reg(dst) = arg(ops, 0)? else {
                    return Err(LiftError("msub".into()));
                };
                let a = self.op_expr(arg(ops, 1)?)?;
                let b = self.op_expr(arg(ops, 2)?)?;
                let c = self.op_expr(arg(ops, 3)?)?;
                self.write_reg(dst, format!("{c} - ({a}) * ({b})"))?;
            }
            "sxtw" => {
                let Operand::Reg(dst) = arg(ops, 0)? else {
                    return Err(LiftError("sxtw".into()));
                };
                let v = self.op_expr(arg(ops, 1)?)?;
                self.write_reg(dst, format!("(long)(int)({v})"))?;
            }
            "sxtb" | "uxtb" | "sxth" | "uxth" => {
                let Operand::Reg(dst) = arg(ops, 0)? else {
                    return Err(LiftError("ext".into()));
                };
                let v = self.op_expr(arg(ops, 1)?)?;
                let cast = match m {
                    "sxtb" => "(int)(char)",
                    "uxtb" => "(unsigned char)",
                    "sxth" => "(int)(short)",
                    _ => "(unsigned short)",
                };
                self.write_reg(dst, format!("{cast}({v})"))?;
            }
            "cmp" => {
                let a = self.op_expr(arg(ops, 0)?)?;
                let b = self.op_expr(arg(ops, 1)?)?;
                let wide = matches!(arg(ops, 0)?, Operand::Reg(r) if r.starts_with('x'));
                self.body.push(format!("cmp_a = {a};"));
                self.body.push(format!("cmp_b = {b};"));
                self.uses_cmp_tmps = true;
                self.pending_cmp =
                    Some(("cmp_a".into(), "cmp_b".into(), if wide { 'q' } else { 'l' }));
            }
            "fcmp" => {
                let a = self.op_expr(arg(ops, 0)?)?;
                let b = self.op_expr(arg(ops, 1)?)?;
                self.body.push(format!("fcmp_a = {a};"));
                self.body.push(format!("fcmp_b = {b};"));
                self.uses_cmp_tmps = true;
                self.pending_cmp = Some(("fcmp_a".into(), "fcmp_b".into(), 'f'));
            }
            "cset" => {
                let Operand::Reg(dst) = arg(ops, 0)? else {
                    return Err(LiftError("cset".into()));
                };
                let Operand::Cond(cc) = arg(ops, 1)? else {
                    return Err(LiftError("cset cc".into()));
                };
                let cond = self.cond_expr(cc)?;
                self.write_reg(dst, format!("({cond}) ? 1 : 0"))?;
            }
            "cbnz" => {
                let v = self.op_expr(arg(ops, 0)?)?;
                let Operand::Sym(l) = arg(ops, 1)? else {
                    return Err(LiftError("cbnz".into()));
                };
                self.body.push(format!("if (({v}) != 0) goto {};", label_c(l)));
            }
            "b" => {
                let Operand::Sym(l) = arg(ops, 0)? else { return Err(LiftError("b".into())) };
                self.body.push(format!("goto {};", label_c(l)));
            }
            _ if m.starts_with("b.") => {
                let cond = self.cond_expr(&m[2..])?;
                let Operand::Sym(l) = arg(ops, 0)? else {
                    return Err(LiftError("b.cc".into()));
                };
                self.body.push(format!("if ({cond}) goto {};", label_c(l)));
            }
            "bl" => {
                let Operand::Sym(callee) = arg(ops, 0)? else {
                    return Err(LiftError("bl".into()));
                };
                let mut args = Vec::new();
                let mut i = 0;
                while self.armed_int.contains(&i) {
                    args.push(self.xvar(i));
                    i += 1;
                }
                let mut fi = 0;
                while self.armed_f.contains(&fi) {
                    args.push(self.dvar(fi));
                    fi += 1;
                }
                let x0 = self.xvar(0);
                self.body.push(format!("{x0} = (unsigned long){callee}({});", args.join(", ")));
                self.armed_int.clear();
                self.armed_f.clear();
            }
            "fadd" | "fsub" | "fmul" | "fdiv" => {
                let Operand::Reg(dst) = arg(ops, 0)? else {
                    return Err(LiftError("fp dst".into()));
                };
                let a = self.op_expr(arg(ops, 1)?)?;
                let b = self.op_expr(arg(ops, 2)?)?;
                let op = match m {
                    "fadd" => "+",
                    "fsub" => "-",
                    "fmul" => "*",
                    _ => "/",
                };
                self.write_reg(dst, format!("{a} {op} {b}"))?;
            }
            "scvtf" => {
                let Operand::Reg(dst) = arg(ops, 0)? else {
                    return Err(LiftError("scvtf".into()));
                };
                let Operand::Reg(src) = arg(ops, 1)? else {
                    return Err(LiftError("scvtf".into()));
                };
                let (v, _) = self.reg_expr(src)?;
                let cast = if src.starts_with('w') { "(int)" } else { "(long)" };
                self.write_reg(dst, format!("(double){cast}({v})"))?;
            }
            "fcvtzs" => {
                let Operand::Reg(dst) = arg(ops, 0)? else {
                    return Err(LiftError("fcvtzs".into()));
                };
                let Operand::Reg(src) = arg(ops, 1)? else {
                    return Err(LiftError("fcvtzs".into()));
                };
                let (v, _) = self.reg_expr(src)?;
                let cast = if dst.starts_with('w') { "(int)" } else { "(long)" };
                self.write_reg(dst, format!("{cast}({v})"))?;
            }
            "fcvt" => {
                let Operand::Reg(dst) = arg(ops, 0)? else {
                    return Err(LiftError("fcvt".into()));
                };
                let Operand::Reg(src) = arg(ops, 1)? else {
                    return Err(LiftError("fcvt".into()));
                };
                let (v, _) = self.reg_expr(src)?;
                let expr =
                    if dst.starts_with('s') { format!("(double)(float)({v})") } else { v };
                self.write_reg(dst, expr)?;
            }
            other => return Err(LiftError(format!("unsupported instruction `{other}`"))),
        }
        Ok(())
    }

    fn op_expr(&mut self, op: &Operand) -> Result<String, LiftError> {
        match op {
            Operand::Reg(r) => Ok(self.reg_expr(r)?.0),
            Operand::Imm(v) => Ok(format!("{v}")),
            other => Err(LiftError(format!("operand {other:?}"))),
        }
    }

    fn cond_expr(&self, cc: &str) -> Result<String, LiftError> {
        let Some((a, b, width)) = &self.pending_cmp else {
            return Err(LiftError(format!("condition `{cc}` without compare")));
        };
        let (sa, sb) = match width {
            'l' => (format!("(int)({a})"), format!("(int)({b})")),
            'f' => (a.clone(), b.clone()),
            _ => (format!("(long)({a})"), format!("(long)({b})")),
        };
        Ok(match cc {
            "eq" => format!("{sa} == {sb}"),
            "ne" => format!("{sa} != {sb}"),
            "lt" | "mi" => format!("{sa} < {sb}"),
            "le" | "ls" => format!("{sa} <= {sb}"),
            "gt" | "hi" => format!("{sa} > {sb}"),
            "ge" | "hs" => format!("{sa} >= {sb}"),
            "lo" => format!("({a}) < ({b})"),
            other => return Err(LiftError(format!("condition `{other}`"))),
        })
    }
}

fn reg_num(name: &str) -> usize {
    name[1..].parse().unwrap_or(99)
}

/// Integer and float argument registers read before written (ARM arity
/// recovery, same heuristic as [`x86_params`]).
fn arm_params(f: &AsmFunction) -> (usize, usize) {
    let mut written_x: Vec<usize> = Vec::new();
    let mut written_d: Vec<usize> = Vec::new();
    let mut read_x: Vec<usize> = Vec::new();
    let mut read_d: Vec<usize> = Vec::new();
    for inst in f.instructions() {
        let dst_first = matches!(
            inst.mnemonic.as_str(),
            "mov"
                | "movz"
                | "movk"
                | "fmov"
                | "ldr"
                | "ldrb"
                | "ldrsb"
                | "ldrh"
                | "ldrsh"
                | "add"
                | "sub"
                | "mul"
                | "sdiv"
                | "udiv"
                | "and"
                | "orr"
                | "eor"
                | "lsl"
                | "asr"
                | "lsr"
                | "msub"
                | "sxtw"
                | "sxtb"
                | "uxtb"
                | "sxth"
                | "uxth"
                | "cset"
                | "scvtf"
                | "fcvtzs"
                | "fcvt"
                | "fadd"
                | "fsub"
                | "fmul"
                | "fdiv"
                | "adrp"
        );
        for (i, op) in inst.operands.iter().enumerate() {
            let is_dst = i == 0 && dst_first;
            let regs: Vec<&str> = match op {
                Operand::Reg(r) => vec![r.as_str()],
                Operand::MemArm { base, .. } => vec![base.as_str()],
                _ => vec![],
            };
            for r in regs {
                let c = r.chars().next().unwrap_or(' ');
                let n: usize = r.get(1..).and_then(|s| s.parse().ok()).unwrap_or(99);
                if n >= ARM_ARGS {
                    continue;
                }
                match c {
                    'x' | 'w' => {
                        if is_dst && matches!(op, Operand::Reg(_)) {
                            written_x.push(n);
                        } else if !written_x.contains(&n) && !read_x.contains(&n) {
                            read_x.push(n);
                        }
                    }
                    's' | 'd' => {
                        if is_dst && matches!(op, Operand::Reg(_)) {
                            written_d.push(n);
                        } else if !written_d.contains(&n) && !read_d.contains(&n) {
                            read_d.push(n);
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    let nint = (0..ARM_ARGS).take_while(|i| read_x.contains(i)).count();
    let nf = (0..ARM_ARGS).take_while(|i| read_d.contains(i)).count();
    (nint, nf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slade_asm::parse_asm;
    use slade_compiler::{compile_function, CompileOpts, OptLevel};
    use slade_minic::{parse_program, Interpreter, Value};

    fn lift_src(src: &str, name: &str, isa: Isa, opt: OptLevel) -> Result<String, LiftError> {
        let p = parse_program(src).unwrap();
        let asm = compile_function(&p, name, CompileOpts::new(isa, opt)).unwrap();
        let file = parse_asm(&asm, isa);
        lift(file.function(name).unwrap(), isa, &file.rodata)
    }

    #[test]
    fn lifted_x86_o0_add_is_behaviorally_correct() {
        let src = "int add3(int a, int b) { return a + b * 3; }";
        let c = lift_src(src, "add3", Isa::X86_64, OptLevel::O0).unwrap();
        let p = parse_program(&c).unwrap_or_else(|e| panic!("{e}\n{c}"));
        let mut i = Interpreter::new(&p).unwrap_or_else(|e| panic!("{e}\n{c}"));
        let out = i.call("add3", &[Value::long(5), Value::long(4)]).unwrap();
        assert_eq!(out.ret.unwrap().as_i64() as i32, 17, "\n{c}");
    }

    #[test]
    fn lifted_x86_loop_matches_ground_truth() {
        let src =
            "int total(int n) { int s = 0; for (int i = 1; i <= n; i++) s += i; return s; }";
        let c = lift_src(src, "total", Isa::X86_64, OptLevel::O0).unwrap();
        let p = parse_program(&c).unwrap_or_else(|e| panic!("{e}\n{c}"));
        let mut i = Interpreter::new(&p).unwrap();
        for n in [0i64, 1, 5, 10] {
            let out = i.call("total", &[Value::long(n)]).unwrap().ret.unwrap();
            assert_eq!(out.as_i64() as i32, (n * (n + 1) / 2) as i32, "n={n}\n{c}");
        }
    }

    #[test]
    fn lifted_pointer_function_writes_through() {
        let src = "void bump(int *a, int v, int n) { for (int i = 0; i < n; i++) a[i] += v; }";
        let c = lift_src(src, "bump", Isa::X86_64, OptLevel::O0).unwrap();
        let p = parse_program(&c).unwrap_or_else(|e| panic!("{e}\n{c}"));
        let mut interp = Interpreter::new(&p).unwrap();
        let mut bytes = Vec::new();
        for v in [1i32, 2, 3] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let buf = interp.alloc_buffer(&bytes);
        interp.call("bump", &[Value::Ptr(buf), Value::long(10), Value::long(3)]).unwrap();
        let out = interp.read_buffer(buf, 12).unwrap();
        let vals: Vec<i32> =
            out.chunks(4).map(|c| i32::from_le_bytes(c.try_into().unwrap())).collect();
        assert_eq!(vals, vec![11, 12, 13], "\n{c}");
    }

    #[test]
    fn vectorized_o3_fails_to_lift_like_ghidra() {
        let src = "void addv(int *list, int val, int n) { int i; for (i = 0; i < n; ++i) list[i] += val; }";
        let err = lift_src(src, "addv", Isa::X86_64, OptLevel::O3).unwrap_err();
        assert!(err.0.contains("vector"), "{err}");
    }

    #[test]
    fn lifted_arm_o0_add_is_behaviorally_correct() {
        let src = "int add3(int a, int b) { return a + b * 3; }";
        let c = lift_src(src, "add3", Isa::Arm64, OptLevel::O0).unwrap();
        let p = parse_program(&c).unwrap_or_else(|e| panic!("{e}\n{c}"));
        let mut i = Interpreter::new(&p).unwrap();
        let out = i.call("add3", &[Value::long(5), Value::long(4)]).unwrap();
        assert_eq!(out.ret.unwrap().as_i64() as i32, 17, "\n{c}");
    }

    #[test]
    fn lifted_code_is_verbose_and_unreadable() {
        // The whole point: correct but far from the original source.
        let src = "int add(int a, int b) { return a + b; }";
        let c = lift_src(src, "add", Isa::X86_64, OptLevel::O0).unwrap();
        assert!(c.contains("unsigned long"), "{c}");
        assert!(c.len() > src.len() * 4, "lifted code suspiciously compact:\n{c}");
    }

    #[test]
    fn extern_calls_guess_arity_from_armed_registers() {
        let src =
            "int helper(int a, int b) { return a + b; } int f(int x) { return helper(x, 3); }";
        let c = lift_src(src, "f", Isa::X86_64, OptLevel::O0).unwrap();
        assert!(c.contains("helper(r_rdi, r_rsi)") || c.contains("helper(r_rdi,"), "{c}");
    }
}
