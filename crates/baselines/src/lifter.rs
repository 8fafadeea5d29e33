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
//!
//! One `Frame` holds what every ISA's output shares — the statements,
//! string literals, compare snapshots, armed argument registers — and emits
//! the C function; an ISA (a `Target`) adds its register names and its
//! mnemonic table.

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
        Isa::X86_64 => lift_with(X86Lifter { fr: Frame::new(rodata) }, func),
        Isa::Arm64 => lift_with(ArmLifter { fr: Frame::new(rodata) }, func),
    }
}

/// An ISA's half of the lifter: its register names, the frame its code
/// assumes, and its mnemonic table.
trait Target<'a> {
    /// Prefix of a floating-point register's C variable.
    const FLOAT: &'static str;
    /// The C variable of the integer result register.
    const RET: &'static str;
    /// Stack-frame variables and their initial values, declared first.
    const FRAME: &'static [(&'static str, &'static str)];
    /// The C variable of integer argument register `n`.
    fn int_arg(n: usize) -> String;
    /// The argument registers `inst` touches, in operand order: class
    /// (0 integer, 1 floating point), number within the class, and whether
    /// it is written.
    fn arg_accesses(inst: &Inst) -> Vec<(usize, usize, bool)>;
    /// The shared frame this lifter fills.
    fn frame(&mut self) -> &mut Frame<'a>;
    /// Lifts one instruction.
    fn lift_inst(&mut self, inst: &Inst) -> Result<(), LiftError>;
}

fn lift_with<'a, T: Target<'a>>(mut t: T, f: &AsmFunction) -> Result<String, LiftError> {
    for line in &f.lines {
        match line {
            Line::Label(l) => t.frame().label(l),
            Line::Inst(inst) => t.lift_inst(inst)?,
        }
    }
    Ok(t.frame().emit::<T>(&f.name, arity::<T>(f)))
}

/// How many integer and floating-point arguments `f` takes: the ABI prefix
/// of argument registers it reads before it writes them (no ABI passes
/// more than 8 of a class in registers).
fn arity<'a, T: Target<'a>>(f: &AsmFunction) -> [usize; 2] {
    let (mut written, mut read) = ([vec![], vec![]], [vec![], vec![]]);
    let accesses = f.instructions().flat_map(T::arg_accesses).filter(|&(_, n, _)| n < 8);
    for (class, n, write) in accesses {
        if write {
            written[class].push(n);
        } else if !written[class].contains(&n) {
            read[class].push(n);
        }
    }
    read.map(|r| (0..).take_while(|i| r.contains(i)).count())
}

/// What every ISA's lifted function shares: its statements, the registers
/// it names, its string literals and the lifting state that labels reset.
struct Frame<'a> {
    rodata: &'a HashMap<String, Vec<u8>>,
    body: Vec<String>,
    /// Integer register variables, in order of first use.
    ints: Vec<String>,
    /// Floating-point register numbers, in order of first use.
    floats: Vec<usize>,
    /// `(variable, escaped text)` per distinct rodata string.
    strings: Vec<(String, String)>,
    /// The last compare's snapshot variables and width (`l`, `q` or `f`).
    pending_cmp: Option<(String, String, char)>,
    /// Known constant per register, for float-literal recovery.
    consts: HashMap<String, i64>,
    /// Argument registers written since the last call or label, per class.
    armed: [Vec<usize>; 2],
    uses_cmp_tmps: bool,
}

impl<'a> Frame<'a> {
    fn new(rodata: &'a HashMap<String, Vec<u8>>) -> Self {
        Frame {
            rodata,
            body: Vec::new(),
            ints: Vec::new(),
            floats: Vec::new(),
            strings: Vec::new(),
            pending_cmp: None,
            consts: HashMap::new(),
            armed: [Vec::new(), Vec::new()],
            uses_cmp_tmps: false,
        }
    }

    /// Names integer register variable `var`, declaring it on first use.
    fn int(&mut self, var: String) -> String {
        if !self.ints.contains(&var) {
            self.ints.push(var.clone());
        }
        var
    }

    /// Names floating-point register `n`, declaring it on first use.
    fn float(&mut self, prefix: &str, n: usize) -> String {
        if !self.floats.contains(&n) {
            self.floats.push(n);
        }
        format!("{prefix}{n}")
    }

    /// Notes a write to argument register `n` of `class`.
    fn arm(&mut self, class: usize, n: usize) {
        if n < 8 && !self.armed[class].contains(&n) {
            self.armed[class].push(n);
        }
    }

    /// A label: control can arrive from elsewhere, so nothing tracked
    /// across the previous instruction holds.
    fn label(&mut self, l: &str) {
        self.body.push(format!("{}: ;", label_c(l)));
        self.pending_cmp = None;
        self.consts.clear();
        self.armed = [Vec::new(), Vec::new()];
    }

    /// Snapshots a compare's operands: the setcc sequence between a compare
    /// and its branch clobbers registers.
    fn compare(&mut self, a: String, b: String, width: char) {
        let (va, vb) = if width == 'f' { ("fcmp_a", "fcmp_b") } else { ("cmp_a", "cmp_b") };
        self.body.push(format!("{va} = {a};"));
        self.body.push(format!("{vb} = {b};"));
        self.uses_cmp_tmps = true;
        self.pending_cmp = Some((va.into(), vb.into(), width));
    }

    /// Condition `cc` (x86 spelling) of the pending compare, as C.
    fn cond(&self, cc: &str) -> Result<String, LiftError> {
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

    /// The address of symbol `sym`: a rodata string becomes a `char *`
    /// local (one per distinct text), anything else a global's address.
    fn symbol(&mut self, sym: &str) -> String {
        let Some(bytes) = self.rodata.get(sym) else {
            return format!("(unsigned long)&{sym}");
        };
        let text = c_string(&bytes[..bytes.len().saturating_sub(1)]);
        let var = match self.strings.iter().find(|(_, t)| *t == text) {
            Some((v, _)) => v.clone(),
            None => {
                let v = format!("lc_{}", self.strings.len());
                self.strings.push((v.clone(), text));
                v
            }
        };
        format!("(unsigned long){var}")
    }

    /// A call to `callee`: its arity is the contiguous prefix of argument
    /// registers written since the last call or label, per class.
    fn call<'t, T: Target<'t>>(&mut self, callee: &str) {
        let ints = (0..).take_while(|i| self.armed[0].contains(i)).count();
        let floats = (0..).take_while(|i| self.armed[1].contains(i)).count();
        let mut args: Vec<String> = (0..ints).map(|i| self.int(T::int_arg(i))).collect();
        args.extend((0..floats).map(|n| self.float(T::FLOAT, n)));
        let ret = self.int(T::RET.to_string());
        self.body.push(format!("{ret} = (unsigned long){callee}({});", args.join(", ")));
        self.armed = [Vec::new(), Vec::new()];
    }

    /// The C function: signature, stack, compare temporaries, string
    /// literals, register locals, body, return.
    fn emit<'t, T: Target<'t>>(&self, name: &str, [nint, nf]: [usize; 2]) -> String {
        let params: Vec<String> = (0..nint).map(T::int_arg).collect();
        let mut sig: Vec<String> =
            params.iter().map(|p| format!("unsigned long {p}")).collect();
        sig.extend((0..nf).map(|n| format!("double {}{n}", T::FLOAT)));
        let sig = if sig.is_empty() { "void".to_string() } else { sig.join(", ") };
        let mut out = format!("long {name}({sig}) {{\nunsigned char stk[4096];\n");
        for (var, init) in T::FRAME {
            out.push_str(&format!("unsigned long {var} = {init};\n"));
        }
        if self.uses_cmp_tmps {
            out.push_str("unsigned long cmp_a = 0;\nunsigned long cmp_b = 0;\n");
            out.push_str("double fcmp_a = 0.0;\ndouble fcmp_b = 0.0;\n");
        }
        for (var, text) in &self.strings {
            out.push_str(&format!("char *{var} = \"{text}\";\n"));
        }
        let mut declared: Vec<&str> = params.iter().map(String::as_str).collect();
        declared.extend(T::FRAME.iter().map(|(var, _)| *var));
        for var in self.ints.iter().map(String::as_str).chain([T::RET]) {
            if !declared.contains(&var) {
                out.push_str(&format!("unsigned long {var} = 0;\n"));
                declared.push(var);
            }
        }
        for n in self.floats.iter().filter(|&&n| n >= nf) {
            out.push_str(&format!("double {}{n} = 0.0;\n", T::FLOAT));
        }
        for stmt in &self.body {
            out.push_str(stmt);
            out.push('\n');
        }
        out.push_str(&format!("return {};\n}}\n", T::RET));
        out
    }
}

fn label_c(label: &str) -> String {
    format!("L{}", label.trim_start_matches(".L").replace('.', "_"))
}

/// `bytes` as the inside of a C string literal. A `\x` escape is greedy
/// (in C and in MiniC's lexer), so a hex digit right after one is escaped
/// too.
fn c_string(bytes: &[u8]) -> String {
    let mut out = String::new();
    let mut after_hex = false;
    for &b in bytes {
        let digit_after_hex = after_hex && b.is_ascii_hexdigit();
        after_hex = false;
        match b {
            b'\n' => out.push_str("\\n"),
            b'\t' => out.push_str("\\t"),
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            0x20..=0x7e if !digit_after_hex => out.push(b as char),
            _ => {
                out.push_str(&format!("\\x{b:02x}"));
                after_hex = true;
            }
        }
    }
    out
}

fn ensure_float_lit(s: &str) -> String {
    if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
        s.to_string()
    } else {
        format!("{s}.0")
    }
}

/// A float literal for a constant moved bit for bit into an FP register.
fn float_lit(bits: i64, single: bool) -> String {
    let v =
        if single { f32::from_bits(bits as u32) as f64 } else { f64::from_bits(bits as u64) };
    ensure_float_lit(&format!("{v:?}"))
}

// ===================== x86-64 =====================

const X86_ARGS: [&str; 6] = ["rdi", "rsi", "rdx", "rcx", "r8", "r9"];

struct X86Lifter<'a> {
    fr: Frame<'a>,
}

impl<'a> Target<'a> for X86Lifter<'a> {
    const FLOAT: &'static str = "f_";
    const RET: &'static str = "r_rax";
    const FRAME: &'static [(&'static str, &'static str)] =
        &[("r_rbp", "(unsigned long)(stk + 4000)"), ("r_rsp", "r_rbp")];

    fn int_arg(n: usize) -> String {
        format!("r_{}", X86_ARGS[n])
    }

    fn arg_accesses(inst: &Inst) -> Vec<(usize, usize, bool)> {
        // AT&T order: the destination is the last operand.
        let m = inst.mnemonic.as_str();
        let writes =
            !matches!(m, "cmpl" | "cmpq" | "testl" | "testq" | "ucomiss" | "ucomisd" | "pushq")
                && !m.starts_with('j');
        let mut out = Vec::new();
        for (i, op) in inst.operands.iter().enumerate() {
            let write = writes && i + 1 == inst.operands.len();
            match op {
                Operand::Reg(r) => match xmm_num(r) {
                    Some(n) => out.push((1, n, write)),
                    None => out.extend(x86_arg(r).map(|n| (0, n, write))),
                },
                Operand::Mem { base, index, .. } => {
                    let regs = [base, index].into_iter().flatten();
                    out.extend(regs.filter_map(|r| x86_arg(r)).map(|n| (0, n, false)));
                }
                _ => {}
            }
        }
        out
    }

    fn frame(&mut self) -> &mut Frame<'a> {
        &mut self.fr
    }

    fn lift_inst(&mut self, inst: &Inst) -> Result<(), LiftError> {
        let m = inst.mnemonic.as_str();
        let ops = &inst.operands;
        // Pattern: movl $bits, %eax ; movd %eax, %xmm0 (float const)
        if m == "movd" || (m == "movq" && is_xmm_dst(inst)) {
            if let (Operand::Reg(src), Operand::Reg(dst)) = (arg(ops, 0)?, arg(ops, 1)?) {
                if dst.starts_with("xmm") {
                    let Some(&bits) = self.fr.consts.get(&canonical_x86(src)) else {
                        return Err(LiftError("bit-level float move".into()));
                    };
                    let var = self.xmm(dst)?;
                    self.fr.body.push(format!("{var} = {};", float_lit(bits, m == "movd")));
                    return Ok(());
                }
            }
        }
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
            "endbr64" | "nop" | "leave" | "pushq" | "popq" | "cltd" | "cqto" => {}
            "ret" => self.fr.body.push("return r_rax;".to_string()),
            "movb" | "movw" | "movl" | "movq" | "movabsq" => {
                if ops.iter().any(|o| matches!(o, Operand::Reg(r) if r.starts_with("xmm"))) {
                    return Err(LiftError("untracked xmm bit move".into()));
                }
                let width = match m {
                    "movb" => 'b',
                    "movw" => 'w',
                    "movl" => 'l',
                    _ => 'q',
                };
                let v = self.read(arg(ops, 0)?, width)?;
                self.write(arg(ops, 1)?, v, width)?;
                self.arm(arg(ops, 1)?);
            }
            "movslq" | "movsbl" | "movzbl" | "movswl" | "movzwl" | "leaq" => {
                let (v, width) = match m {
                    "movslq" => {
                        (format!("(long)(int)({})", self.read(arg(ops, 0)?, 'l')?), 'q')
                    }
                    "movsbl" => {
                        (format!("(int)(char)({})", self.read(arg(ops, 0)?, 'b')?), 'l')
                    }
                    "movzbl" => {
                        (format!("(unsigned char)({})", self.read(arg(ops, 0)?, 'b')?), 'l')
                    }
                    "movswl" => {
                        (format!("(int)(short)({})", self.read(arg(ops, 0)?, 'w')?), 'l')
                    }
                    "movzwl" => {
                        (format!("(unsigned short)({})", self.read(arg(ops, 0)?, 'w')?), 'l')
                    }
                    _ => (self.address_of(arg(ops, 0)?)?, 'q'),
                };
                self.write(arg(ops, 1)?, v, width)?;
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
            "idivl" | "divl" | "idivq" | "divq" => {
                let d = self.read(arg(ops, 0)?, if m.ends_with('q') { 'q' } else { 'l' })?;
                let rax = self.reg64("rax");
                let rdx = self.reg64("rdx");
                let cast = match (m.starts_with('i'), m.ends_with('q')) {
                    (true, false) => "(int)",
                    (false, false) => "(unsigned int)",
                    (true, true) => "(long)",
                    (false, true) => "(unsigned long)",
                };
                self.fr
                    .body
                    .push(format!("{rdx} = (unsigned int)({cast}{rax} % {cast}({d}));"));
                self.fr
                    .body
                    .push(format!("{rax} = (unsigned int)({cast}{rax} / {cast}({d}));"));
            }
            "sall" | "salq" | "sarl" | "sarq" | "shrl" | "shrq" => {
                let width = if m.ends_with('q') { 'q' } else { 'l' };
                let amt = self.read(arg(ops, 0)?, 'b')?;
                let a = self.read(arg(ops, 1)?, width)?;
                let expr = match (&m[..3], width) {
                    ("sal", _) => format!("({a}) << ({amt} & 31)"),
                    ("sar", 'l') => format!("(int)({a}) >> ({amt} & 31)"),
                    ("sar", _) => format!("(long)({a}) >> ({amt} & 63)"),
                    _ => format!("({a}) >> ({amt} & 31)"),
                };
                self.write(arg(ops, 1)?, expr, width)?;
            }
            "cmpl" | "cmpq" | "testl" | "testq" => {
                let width = if m.ends_with('q') { 'q' } else { 'l' };
                let (a, b) = if m.starts_with("cmp") {
                    let b = self.read(arg(ops, 0)?, width)?;
                    (self.read(arg(ops, 1)?, width)?, b)
                } else {
                    (self.read(arg(ops, 0)?, width)?, "0".to_string())
                };
                self.fr.compare(a, b, width);
            }
            "ucomiss" | "ucomisd" => {
                let a = self.read_float(arg(ops, 1)?, m == "ucomiss")?;
                let b = self.read_float(arg(ops, 0)?, m == "ucomiss")?;
                self.fr.compare(a, b, 'f');
            }
            _ if m.starts_with("set") => {
                let cond = self.fr.cond(&m[3..])?;
                self.write(arg(ops, 0)?, format!("({cond}) ? 1 : 0"), 'b')?;
            }
            "jmp" => {
                let Operand::Sym(l) = arg(ops, 0)? else { return Err(LiftError("jmp".into())) };
                self.fr.body.push(format!("goto {};", label_c(l)));
            }
            _ if m.starts_with('j') => {
                let cond = self.fr.cond(&m[1..])?;
                let Operand::Sym(l) = arg(ops, 0)? else { return Err(LiftError("jcc".into())) };
                self.fr.body.push(format!("if ({cond}) goto {};", label_c(l)));
            }
            "call" => {
                let Operand::Sym(callee) = arg(ops, 0)? else {
                    return Err(LiftError("indirect call".into()));
                };
                self.fr.call::<Self>(callee);
            }
            "movss" | "movsd" => {
                let single = m == "movss";
                match (arg(ops, 0)?, arg(ops, 1)?) {
                    (src, Operand::Reg(d)) if d.starts_with("xmm") => {
                        let v = self.read_float(src, single)?;
                        let n =
                            xmm_num(d).ok_or_else(|| LiftError(format!("register `{d}`")))?;
                        let var = self.fr.float(Self::FLOAT, n);
                        self.fr.body.push(format!("{var} = {v};"));
                        self.fr.arm(1, n);
                    }
                    (Operand::Reg(s), dst) if s.starts_with("xmm") => {
                        let var = self.xmm(s)?;
                        let addr = self.address_of(dst)?;
                        let (ty, cast) =
                            if single { ("float", "(float)") } else { ("double", "") };
                        self.fr.body.push(format!("*({ty}*)({addr}) = {cast}{var};"));
                    }
                    _ => return Err(LiftError("movss form".into())),
                }
            }
            "addss" | "addsd" | "subss" | "subsd" | "mulss" | "mulsd" | "divss" | "divsd" => {
                let op = match &m[..3] {
                    "add" => "+",
                    "sub" => "-",
                    "mul" => "*",
                    _ => "/",
                };
                let b = self.read_float(arg(ops, 0)?, m.ends_with("ss"))?;
                let var = self.xmm_dst(arg(ops, 1)?)?;
                self.fr.body.push(format!("{var} = {var} {op} {b};"));
            }
            "cvtsi2ss" | "cvtsi2sd" | "cvtsi2ssq" | "cvtsi2sdq" => {
                let (width, cast) = if m.ends_with('q') { ('q', "long") } else { ('l', "int") };
                let v = self.read(arg(ops, 0)?, width)?;
                let var = self.xmm_dst(arg(ops, 1)?)?;
                self.fr.body.push(format!("{var} = (double)({cast})({v});"));
            }
            "cvttss2si" | "cvttsd2si" | "cvttss2siq" | "cvttsd2siq" => {
                let Operand::Reg(s) = arg(ops, 0)? else {
                    return Err(LiftError("cvt src".into()));
                };
                let var = self.xmm(s)?;
                let (width, cast) =
                    if m.ends_with('q') { ('q', "(long)") } else { ('l', "(int)") };
                self.write(arg(ops, 1)?, format!("{cast}{var}"), width)?;
            }
            "cvtss2sd" | "cvtsd2ss" => {
                // Same C variable (doubles throughout); conversion is free.
                let Operand::Reg(s) = arg(ops, 0)? else { return Err(LiftError("cvt".into())) };
                let Operand::Reg(d) = arg(ops, 1)? else { return Err(LiftError("cvt".into())) };
                if s != d {
                    let vs = self.xmm(s)?;
                    let vd = self.xmm(d)?;
                    self.fr.body.push(format!("{vd} = {vs};"));
                }
                if m == "cvtsd2ss" {
                    let vd = self.xmm(d)?;
                    self.fr.body.push(format!("{vd} = (double)(float){vd};"));
                }
            }
            "movdqu" | "movups" | "paddd" | "psubd" | "pmulld" | "pshufd" => {
                return Err(LiftError(format!("unsupported vector instruction `{m}`")));
            }
            other => return Err(LiftError(format!("unsupported instruction `{other}`"))),
        }
        if let Some((r, v)) = new_const {
            self.fr.consts.insert(r, v);
        } else if let Some(Operand::Reg(r)) = ops.last() {
            self.fr.consts.remove(&canonical_x86(r));
        }
        Ok(())
    }
}

impl X86Lifter<'_> {
    fn reg64(&mut self, name: &str) -> String {
        self.fr.int(format!("r_{}", canonical_x86(name)))
    }

    fn xmm(&mut self, name: &str) -> Result<String, LiftError> {
        let n = xmm_num(name).ok_or_else(|| LiftError(format!("register `{name}`")))?;
        Ok(self.fr.float(Self::FLOAT, n))
    }

    fn xmm_dst(&mut self, op: &Operand) -> Result<String, LiftError> {
        let Operand::Reg(d) = op else { return Err(LiftError("fp dst".into())) };
        self.xmm(d)
    }

    /// Reads an operand as a C expression of the given width suffix.
    fn read(&mut self, op: &Operand, width: char) -> Result<String, LiftError> {
        Ok(match op {
            Operand::Imm(v) => format!("{v}"),
            Operand::Reg(r) if r.starts_with("xmm") => self.xmm(r)?,
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
                format!("*({}*)({addr})", int_type(width))
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
            Operand::RipSym(sym) => Ok(self.fr.symbol(sym)),
            _ => Err(LiftError("not an address".into())),
        }
    }

    fn write(&mut self, op: &Operand, value: String, width: char) -> Result<(), LiftError> {
        let stmt = match op {
            Operand::Reg(r) if r.starts_with("xmm") => format!("{} = {value};", self.xmm(r)?),
            Operand::Reg(r) => {
                let v = self.reg64(r);
                match width {
                    'l' => format!("{v} = (unsigned int)({value});"),
                    'b' => format!("{v} = ({v} & ~255UL) | (unsigned char)({value});"),
                    'w' => format!("{v} = ({v} & ~65535UL) | (unsigned short)({value});"),
                    _ => format!("{v} = ({value});"),
                }
            }
            Operand::Mem { .. } | Operand::RipSym(_) => {
                let addr = self.address_of(op)?;
                format!("*({}*)({addr}) = {value};", int_type(width))
            }
            other => return Err(LiftError(format!("write operand {other:?}"))),
        };
        self.fr.body.push(stmt);
        Ok(())
    }

    fn read_float(&mut self, op: &Operand, single: bool) -> Result<String, LiftError> {
        Ok(match op {
            Operand::Reg(r) if r.starts_with("xmm") => self.xmm(r)?,
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

    /// Notes a write to an integer argument register.
    fn arm(&mut self, dst: &Operand) {
        if let Operand::Reg(r) = dst {
            if let Some(n) = x86_arg(r) {
                self.fr.arm(0, n);
            }
        }
    }
}

/// The C type of an integer access of the given width suffix.
fn int_type(width: char) -> &'static str {
    match width {
        'b' => "unsigned char",
        'w' => "unsigned short",
        'l' => "unsigned int",
        _ => "unsigned long",
    }
}

fn xmm_num(name: &str) -> Option<usize> {
    name.strip_prefix("xmm")?.parse().ok()
}

/// Which SysV integer argument register `name` (any width) is.
fn x86_arg(name: &str) -> Option<usize> {
    let base = canonical_x86(name);
    X86_ARGS.iter().position(|&a| a == base)
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

fn is_xmm_dst(inst: &Inst) -> bool {
    matches!(inst.operands.last(), Some(Operand::Reg(r)) if r.starts_with("xmm"))
}

// ===================== AArch64 =====================

struct ArmLifter<'a> {
    fr: Frame<'a>,
}

/// Mnemonics whose first operand is the register they write.
const ARM_DST_FIRST: [&str; 35] = [
    "mov", "movz", "movk", "fmov", "ldr", "ldrb", "ldrsb", "ldrh", "ldrsh", "add", "sub",
    "mul", "sdiv", "udiv", "and", "orr", "eor", "lsl", "asr", "lsr", "msub", "sxtw", "sxtb",
    "uxtb", "sxth", "uxth", "cset", "scvtf", "fcvtzs", "fcvt", "fadd", "fsub", "fmul", "fdiv",
    "adrp",
];

impl<'a> Target<'a> for ArmLifter<'a> {
    const FLOAT: &'static str = "d_";
    const RET: &'static str = "x_0";
    const FRAME: &'static [(&'static str, &'static str)] =
        &[("x_sp", "(unsigned long)stk"), ("x_29", "(unsigned long)stk")];

    fn int_arg(n: usize) -> String {
        format!("x_{n}")
    }

    fn arg_accesses(inst: &Inst) -> Vec<(usize, usize, bool)> {
        let dst_first = ARM_DST_FIRST.contains(&inst.mnemonic.as_str());
        let mut out = Vec::new();
        for (i, op) in inst.operands.iter().enumerate() {
            let (r, write) = match op {
                Operand::Reg(r) => (r, dst_first && i == 0),
                Operand::MemArm { base, .. } => (base, false),
                _ => continue,
            };
            match arm_reg(r) {
                Ok(('x' | 'w', n)) => out.push((0, n, write)),
                Ok(('s' | 'd', n)) => out.push((1, n, write)),
                _ => {}
            }
        }
        out
    }

    fn frame(&mut self) -> &mut Frame<'a> {
        &mut self.fr
    }

    fn lift_inst(&mut self, inst: &Inst) -> Result<(), LiftError> {
        let m = inst.mnemonic.as_str();
        let ops = &inst.operands;
        let reg = |i: usize| match arg(ops, i)? {
            Operand::Reg(r) => Ok(r.as_str()),
            other => Err(LiftError(format!("{m} operand {i}: {other:?}"))),
        };
        match m {
            "stp" | "ldp" | "nop" => {} // prologue/epilogue bookkeeping
            "ret" => self.fr.body.push("return x_0;".to_string()),
            "mov" => {
                let dst = reg(0)?;
                let v = self.op_expr(arg(ops, 1)?)?;
                self.write_reg(dst, v)?;
                self.fr.consts.remove(&const_key(dst));
            }
            "movz" => {
                let dst = reg(0)?;
                let &Operand::Imm(v) = arg(ops, 1)? else {
                    return Err(LiftError("movz imm".into()));
                };
                self.write_reg(dst, format!("{v}"))?;
                self.fr.consts.insert(const_key(dst), v);
            }
            "movk" => {
                let dst = reg(0)?;
                let &Operand::Imm(v) = arg(ops, 1)? else {
                    return Err(LiftError("movk imm".into()));
                };
                let shift = match ops.get(2) {
                    Some(Operand::Lsl(s)) => *s,
                    _ => 0,
                };
                let cur = self.reg_expr(dst)?.0;
                self.write_reg(dst, format!("{cur} | ((unsigned long){v} << {shift})"))?;
                if let Some(c) = self.fr.consts.get_mut(&const_key(dst)) {
                    *c |= v.wrapping_shl(shift as u32);
                }
            }
            "fmov" => {
                // Bit move x→d: recover the literal from tracked constants.
                let (dst, src) = (reg(0)?, reg(1)?);
                let Some(&bits) = self.fr.consts.get(&const_key(src)) else {
                    return Err(LiftError("bit-level float move".into()));
                };
                self.write_reg(dst, float_lit(bits, src.starts_with('w')))?;
            }
            "ldr" | "ldrb" | "ldrsb" | "ldrh" | "ldrsh" | "ldrsw" => {
                let dst = reg(0)?;
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
                self.fr.consts.remove(&const_key(dst));
            }
            "str" | "strb" | "strh" => {
                let src = reg(0)?;
                let addr = self.mem_addr(arg(ops, 1)?)?;
                let v = self.reg_expr(src)?.0;
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
                self.fr.body.push(stmt);
            }
            "adrp" => {
                // The page half of an address; the `:lo12:` add names it whole.
                reg(0)?;
                let Operand::Sym(_) = arg(ops, 1)? else {
                    return Err(LiftError("adrp sym".into()));
                };
            }
            "add" if matches!(ops.get(2), Some(Operand::Lo12(_))) => {
                let dst = reg(0)?;
                let Some(Operand::Lo12(sym)) = ops.get(2) else { unreachable!() };
                let expr = self.fr.symbol(sym);
                self.write_reg(dst, expr)?;
            }
            "add" | "sub" | "mul" | "sdiv" | "udiv" | "and" | "orr" | "eor" | "lsl" | "asr"
            | "lsr" => {
                let dst = reg(0)?;
                let (a, wide) = match arg(ops, 1)? {
                    Operand::Reg(r) => self.reg_expr(r)?,
                    Operand::Imm(v) => (format!("{v}"), true),
                    other => return Err(LiftError(format!("alu a {other:?}"))),
                };
                let b = self.op_expr(arg(ops, 2)?)?;
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
                self.fr.consts.remove(&const_key(dst));
            }
            "msub" => {
                // msub d, a, b, c  =>  d = c - a*b
                let dst = reg(0)?;
                let a = self.op_expr(arg(ops, 1)?)?;
                let b = self.op_expr(arg(ops, 2)?)?;
                let c = self.op_expr(arg(ops, 3)?)?;
                self.write_reg(dst, format!("{c} - ({a}) * ({b})"))?;
            }
            "sxtw" | "sxtb" | "uxtb" | "sxth" | "uxth" => {
                let dst = reg(0)?;
                let v = self.op_expr(arg(ops, 1)?)?;
                let cast = match m {
                    "sxtw" => "(long)(int)",
                    "sxtb" => "(int)(char)",
                    "uxtb" => "(unsigned char)",
                    "sxth" => "(int)(short)",
                    _ => "(unsigned short)",
                };
                self.write_reg(dst, format!("{cast}({v})"))?;
            }
            "cmp" | "fcmp" => {
                let a = self.op_expr(arg(ops, 0)?)?;
                let b = self.op_expr(arg(ops, 1)?)?;
                let width = match arg(ops, 0)? {
                    _ if m == "fcmp" => 'f',
                    Operand::Reg(r) if r.starts_with('x') => 'q',
                    _ => 'l',
                };
                self.fr.compare(a, b, width);
            }
            "cset" => {
                let dst = reg(0)?;
                let Operand::Cond(cc) = arg(ops, 1)? else {
                    return Err(LiftError("cset cc".into()));
                };
                let cond = self.cond(cc)?;
                self.write_reg(dst, format!("({cond}) ? 1 : 0"))?;
            }
            "cbnz" => {
                let v = self.op_expr(arg(ops, 0)?)?;
                let Operand::Sym(l) = arg(ops, 1)? else {
                    return Err(LiftError("cbnz".into()));
                };
                self.fr.body.push(format!("if (({v}) != 0) goto {};", label_c(l)));
            }
            "b" => {
                let Operand::Sym(l) = arg(ops, 0)? else { return Err(LiftError("b".into())) };
                self.fr.body.push(format!("goto {};", label_c(l)));
            }
            _ if m.starts_with("b.") => {
                let cond = self.cond(&m[2..])?;
                let Operand::Sym(l) = arg(ops, 0)? else {
                    return Err(LiftError("b.cc".into()));
                };
                self.fr.body.push(format!("if ({cond}) goto {};", label_c(l)));
            }
            "bl" => {
                let Operand::Sym(callee) = arg(ops, 0)? else {
                    return Err(LiftError("bl".into()));
                };
                self.fr.call::<Self>(callee);
            }
            "fadd" | "fsub" | "fmul" | "fdiv" => {
                let dst = reg(0)?;
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
            "scvtf" | "fcvtzs" | "fcvt" => {
                let (dst, src) = (reg(0)?, reg(1)?);
                let v = self.reg_expr(src)?.0;
                let expr = match m {
                    "scvtf" if src.starts_with('w') => format!("(double)(int)({v})"),
                    "scvtf" => format!("(double)(long)({v})"),
                    "fcvtzs" if dst.starts_with('w') => format!("(int)({v})"),
                    "fcvtzs" => format!("(long)({v})"),
                    _ if dst.starts_with('s') => format!("(double)(float)({v})"),
                    _ => v,
                };
                self.write_reg(dst, expr)?;
            }
            other => return Err(LiftError(format!("unsupported instruction `{other}`"))),
        }
        Ok(())
    }
}

impl ArmLifter<'_> {
    /// A register read as a C expression, and whether it is 64 bits wide.
    fn reg_expr(&mut self, name: &str) -> Result<(String, bool), LiftError> {
        match name {
            "sp" => return Ok(("x_sp".to_string(), true)),
            "wzr" | "xzr" => return Ok(("0".to_string(), name == "xzr")),
            _ => {}
        }
        Ok(match arm_reg(name)? {
            ('x', n) => (self.fr.int(format!("x_{n}")), true),
            ('w', n) => (format!("(unsigned int){}", self.fr.int(format!("x_{n}"))), false),
            ('s' | 'd', n) => (self.fr.float(Self::FLOAT, n), true),
            _ => return Err(LiftError(format!("register `{name}`"))),
        })
    }

    fn write_reg(&mut self, name: &str, value: String) -> Result<(), LiftError> {
        let stmt = match (name, arm_reg(name)) {
            ("sp", _) => format!("x_sp = {value};"),
            (_, Ok(('x', n))) => {
                self.fr.arm(0, n);
                format!("{} = ({value});", self.fr.int(format!("x_{n}")))
            }
            (_, Ok(('w', n))) => {
                self.fr.arm(0, n);
                format!("{} = (unsigned int)({value});", self.fr.int(format!("x_{n}")))
            }
            (_, Ok(('s' | 'd', n))) => {
                self.fr.arm(1, n);
                format!("{} = {value};", self.fr.float(Self::FLOAT, n))
            }
            _ => return Err(LiftError(format!("register `{name}`"))),
        };
        self.fr.body.push(stmt);
        Ok(())
    }

    fn op_expr(&mut self, op: &Operand) -> Result<String, LiftError> {
        match op {
            Operand::Reg(r) => Ok(self.reg_expr(r)?.0),
            Operand::Imm(v) => Ok(format!("{v}")),
            other => Err(LiftError(format!("operand {other:?}"))),
        }
    }

    fn mem_addr(&mut self, op: &Operand) -> Result<String, LiftError> {
        let Operand::MemArm { base, off, .. } = op else {
            return Err(LiftError("not a memory operand".into()));
        };
        let b = self.reg_expr(base)?.0;
        Ok(if *off == 0 { b } else { format!("{b} + {off}") })
    }

    /// Condition `cc` in AArch64 spelling, mapped onto the shared table.
    fn cond(&self, cc: &str) -> Result<String, LiftError> {
        self.fr.cond(match cc {
            "eq" => "e",
            "ne" => "ne",
            "lt" | "mi" => "l",
            "le" | "ls" => "le",
            "gt" | "hi" => "g",
            "ge" | "hs" => "ge",
            "lo" => "b",
            other => return Err(LiftError(format!("condition `{other}`"))),
        })
    }
}

/// A register's kind letter and number (`w3` → `('w', 3)`).
fn arm_reg(name: &str) -> Result<(char, usize), LiftError> {
    let mut chars = name.chars();
    let kind = chars.next().ok_or_else(|| LiftError("empty register".into()))?;
    let n = chars.as_str().parse().map_err(|_| LiftError(format!("register `{name}`")))?;
    Ok((kind, n))
}

/// The constant-tracking key of a register: its number, whatever its
/// width or bank.
fn const_key(name: &str) -> String {
    arm_reg(name).map_or(99, |(_, n)| n).to_string()
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

    #[test]
    fn string_literals_lex_back_to_their_rodata_bytes() {
        // A hex escape is greedy: `\x01a` would lex as the one byte 0x1a.
        let asm = "\t.section .rodata\n.LC0:\n\t.string \"\\001a\\177F9\"\n\t.text\n\
                   f:\n\tleaq .LC0(%rip), %rdi\n\tcall strlen\n\tret\n";
        let file = parse_asm(asm, Isa::X86_64);
        let c = lift(file.function("f").unwrap(), Isa::X86_64, &file.rodata).unwrap();
        let decl = c.lines().find(|l| l.starts_with("char *lc_0")).expect("literal declared");
        let tokens = slade_minic::Lexer::new(decl).tokenize().unwrap();
        let lexed = tokens.iter().find_map(|t| match &t.kind {
            slade_minic::TokenKind::StrLit(s) => Some(s.as_bytes().to_vec()),
            _ => None,
        });
        assert_eq!(lexed.as_deref(), Some(&b"\x01a\x7fF9"[..]), "{decl}");
    }
}
