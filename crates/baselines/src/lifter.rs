//! Rule-based lifter: the Ghidra stand-in.
//!
//! Translates parsed assembly into compilable-but-unreadable C, the way
//! industrial decompilers do: machine registers become `unsigned long`
//! locals, the stack becomes a byte array, control flow becomes labels and
//! `goto`s, and memory accesses stay as literal casts. Like Ghidra (paper
//! §VII-D), it does **not** invent external types or signatures — extern
//! call arities are guessed from argument-register writes (libc builtins
//! take their prototypes, as Ghidra applies libc's), floating-point
//! constants are recovered only from recognizable bit patterns, and vector
//! instructions are *not supported* (`-O3` x86 loops fail to lift, which is
//! exactly the collapse the paper measures for Ghidra on optimized code).
//!
//! Each instruction is decoded by `slade_asm::sem` — the table the
//! emulators execute — and one `Frame` prints its ops: the statements,
//! string literals, compare snapshots, armed argument registers and the C
//! function around them. An ISA adds only how its registers are spelled.

use slade_asm::sem::{self, Addr, BinOp, Class, Cond, Op, Reg, Val};
use slade_asm::{AsmFunction, Isa, Line};
use slade_minic::pretty::escape_c;
use std::collections::HashMap;
use std::fmt;

/// Why a function could not be lifted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiftError(pub String);

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
    let names = match isa {
        Isa::X86_64 => &X86,
        Isa::Arm64 => &ARM,
    };
    let mut fr = Frame::new(names, rodata);
    let mut ops = Vec::new();
    for line in &func.lines {
        let inst = match line {
            Line::Label(l) => {
                fr.label(l);
                continue;
            }
            Line::Inst(inst) => inst,
        };
        ops.clear();
        sem::decode(isa, inst, &mut ops).map_err(LiftError)?;
        if ops.iter().any(Op::is_vector) {
            let m = &inst.mnemonic;
            return Err(LiftError(format!("unsupported vector instruction `{m}`")));
        }
        if ops.first() != Some(&Op::Frame) {
            for op in &ops {
                fr.op(op)?;
            }
        }
    }
    Ok(fr.emit(&func.name))
}

/// How an ISA's registers are spelled in C.
struct Names {
    isa: Isa,
    /// Prefix of a floating-point register's variable.
    float: &'static str,
    /// Stack-frame variables and their initial values, declared first.
    frame: &'static [(&'static str, &'static str)],
    /// The variable of integer register `n`.
    int: fn(u8) -> String,
}

const X86: Names = Names {
    isa: Isa::X86_64,
    float: "f_",
    frame: &[("r_rbp", "(unsigned long)(stk + 4000)"), ("r_rsp", "r_rbp")],
    int: x86_int,
};

const ARM: Names = Names {
    isa: Isa::Arm64,
    float: "d_",
    frame: &[("x_sp", "(unsigned long)stk"), ("x_29", "(unsigned long)stk")],
    int: arm_int,
};

fn x86_int(n: u8) -> String {
    format!("r_{}", sem::X86_GPRS[n as usize])
}

fn arm_int(n: u8) -> String {
    if n == sem::ARM_SP {
        "x_sp".to_string()
    } else {
        format!("x_{n}")
    }
}

/// What every ISA's lifted function shares: its statements, the registers
/// it names, its string literals and the lifting state that labels reset.
struct Frame<'a> {
    names: &'static Names,
    rodata: &'a HashMap<String, Vec<u8>>,
    body: Vec<String>,
    /// Integer register variables, in order of first use.
    ints: Vec<String>,
    /// Floating-point register numbers, in order of first use.
    floats: Vec<u8>,
    /// `(variable, escaped text)` per distinct rodata string.
    strings: Vec<(String, String)>,
    /// The last compare's snapshot variables and width (`l`, `q` or `f`).
    pending_cmp: Option<(String, String, char)>,
    /// Known constant per integer register, for float-literal recovery.
    consts: HashMap<u8, i64>,
    /// Argument registers written since the last call or label, per class.
    armed: [Vec<usize>; 2],
    /// Argument registers written, and read before written: the arity
    /// scan, per class.
    written: [Vec<usize>; 2],
    read: [Vec<usize>; 2],
    uses_cmp_tmps: bool,
}

impl<'a> Frame<'a> {
    fn new(names: &'static Names, rodata: &'a HashMap<String, Vec<u8>>) -> Self {
        Frame {
            names,
            rodata,
            body: Vec::new(),
            ints: Vec::new(),
            floats: Vec::new(),
            strings: Vec::new(),
            pending_cmp: None,
            consts: HashMap::new(),
            armed: Default::default(),
            written: Default::default(),
            read: Default::default(),
            uses_cmp_tmps: false,
        }
    }

    /// Prints one op.
    fn op(&mut self, op: &Op) -> Result<(), LiftError> {
        let isa = self.names.isa;
        let (written, read) = (&self.written, &mut self.read);
        op.uses(|r| {
            let c = r.class as usize;
            if let Some(n) = sem::arg_index(isa, r).filter(|n| !written[c].contains(n)) {
                read[c].push(n);
            }
        });
        match op {
            Op::Frame => {}
            Op::Mov { w, dst: Val::Mem(a), src: Val::Reg(r) } if r.class == Class::Float => {
                let (ty, cast) = if *w == 4 { ("float", "(float)") } else { ("double", "") };
                let (var, addr) = (self.reg(*r), self.addr(a));
                self.body.push(format!("*({ty}*)({addr}) = {cast}{var};"));
            }
            Op::Mov { w, dst: Val::Reg(r), src } if r.class == Class::Float => {
                let v = self.fread(src, *w)?;
                self.write_reg(*r, v);
            }
            Op::Mov { w, dst, src } => {
                let v = self.read(src, *w);
                self.write(dst, v, *w)?;
            }
            Op::Ext { from, signed, dst, src } => {
                let cast = match (from, signed) {
                    (4, _) => "(long)(int)",
                    (1, true) => "(int)(char)",
                    (1, false) => "(unsigned char)",
                    (_, true) => "(int)(short)",
                    _ => "(unsigned short)",
                };
                let v = self.read(src, *from);
                self.write_reg(*dst, format!("{cast}({v})"));
            }
            Op::AddrOf { dst, addr } => {
                let a = self.addr(addr);
                self.write_reg(*dst, a);
            }
            Op::Bin { op, w, dst, a, b, .. } => {
                let (a, b) = (self.read(a, *w), self.read(b, *w));
                let (signed, c, mask) =
                    (if *w == 8 { "(long)" } else { "(int)" }, op.c(), 8 * w - 1);
                let e = match op {
                    BinOp::DivS | BinOp::RemS => format!("{signed}({a}) {c} {signed}({b})"),
                    BinOp::DivU | BinOp::RemU => format!("({a}) {c} ({b})"),
                    BinOp::Shl | BinOp::ShrU => format!("({a}) {c} ({b} & {mask})"),
                    BinOp::ShrS => format!("{signed}({a}) >> ({b} & {mask})"),
                    _ => format!("{a} {c} {b}"),
                };
                self.write(dst, e, *w)?;
            }
            Op::MulSub { dst, a, b, c } => {
                let w = dst.width;
                let (a, b, c) = (self.read(a, w), self.read(b, w), self.read(c, w));
                self.write_reg(*dst, format!("{c} - ({a}) * ({b})"));
            }
            Op::Cmp { w, a, b } => {
                let (a, b) = (self.read(a, *w), self.read(b, *w));
                self.compare(a, b, if *w == 8 { 'q' } else { 'l' });
            }
            // Only `test r, r` is emitted: a compare with zero.
            Op::Test { w, a, .. } => {
                let a = self.read(a, *w);
                self.compare(a, "0".to_string(), if *w == 8 { 'q' } else { 'l' });
            }
            Op::FBin { op, w, dst, a, b } => {
                let (a, b) = (self.fread(a, *w)?, self.fread(b, *w)?);
                self.write_reg(*dst, format!("{a} {} {b}", op.c()));
            }
            Op::FCmp { w, a, b, .. } => {
                let (a, b) = (self.fread(a, *w)?, self.fread(b, *w)?);
                self.compare(a, b, 'f');
            }
            Op::IntToFloat { w, dst, src } => {
                let (v, cast) = (self.read(src, *w), if *w == 8 { "long" } else { "int" });
                self.write_reg(*dst, format!("(double)({cast})({v})"));
            }
            Op::FloatToInt { w, dst, src } => {
                let v = self.fread(src, *w)?;
                let cast = if dst.width == 8 { "(long)" } else { "(int)" };
                self.write_reg(*dst, format!("{cast}{v}"));
            }
            // Floats are doubles throughout: a widening is a copy, a
            // narrowing rounds.
            Op::FConv { w, dst, src } => {
                if !matches!(src, Val::Reg(s) if s.num == dst.num) {
                    let v = self.fread(src, *w)?;
                    self.write_reg(*dst, v);
                }
                if dst.width == 4 {
                    let var = self.reg(*dst);
                    self.write_reg(*dst, format!("(double)(float){var}"));
                }
            }
            Op::Bits { w, dst, src } => {
                let bits = match (dst.class, src.class) {
                    (Class::Float, Class::Int) => self.consts.get(&src.num).copied(),
                    _ => None,
                };
                let Some(bits) = bits else {
                    return Err(LiftError("bit-level float move".into()));
                };
                self.write_reg(*dst, float_lit(bits, *w == 4));
            }
            Op::Set { cond, dst } => {
                let c = self.cond(*cond)?;
                self.write(dst, format!("({c}) ? 1 : 0"), 1)?;
            }
            Op::Jump { cond: None, target } => {
                self.body.push(format!("goto {};", label_c(target)))
            }
            Op::Jump { cond: Some(c), target } => {
                let c = self.cond(*c)?;
                self.body.push(format!("if ({c}) goto {};", label_c(target)));
            }
            Op::Cbnz { a, target } => {
                let v = self.read(a, 8);
                self.body.push(format!("if (({v}) != 0) goto {};", label_c(target)));
            }
            Op::Call(callee) => self.call(callee),
            Op::Ret => self.body.push(format!("return {};", (self.names.int)(0))),
            Op::Shuf { .. } | Op::Lanes { .. } => unreachable!("vector ops do not lift"),
        }
        self.track(op);
        Ok(())
    }

    /// What `op` defines: an argument register written (arity scan,
    /// extern-call arming) and an integer register's constant, if known.
    fn track(&mut self, op: &Op) {
        let Some(r) = op.def() else { return };
        if let Some(n) = sem::arg_index(self.names.isa, r) {
            let c = r.class as usize;
            self.written[c].push(n);
            if !self.armed[c].contains(&n) {
                self.armed[c].push(n);
            }
        }
        if r.class == Class::Float {
            return;
        }
        let known = |v: &Val| match v {
            Val::Imm(i) => Some(*i),
            Val::Reg(r) if r.class == Class::Int => self.consts.get(&r.num).copied(),
            _ => None,
        };
        let value = match op {
            Op::Mov { src, .. } => known(src),
            Op::Bin { op, w, a, b, .. } => known(a)
                .zip(known(b))
                .and_then(|(a, b)| op.eval(*w, a as u64, b as u64))
                .map(|v| v as i64),
            _ => None,
        };
        match value {
            Some(v) => self.consts.insert(r.num, v),
            None => self.consts.remove(&r.num),
        };
    }

    /// A register's variable, declared on first use.
    fn reg(&mut self, r: Reg) -> String {
        if r.class == Class::Float {
            if !self.floats.contains(&r.num) {
                self.floats.push(r.num);
            }
            return format!("{}{}", self.names.float, r.num);
        }
        let var = (self.names.int)(r.num);
        if !self.ints.contains(&var) {
            self.ints.push(var.clone());
        }
        var
    }

    /// An operand read as an integer C expression; memory is `w` bytes.
    fn read(&mut self, v: &Val, w: u8) -> String {
        match v {
            Val::Imm(i) => format!("{i}"),
            Val::Reg(r) if r.class == Class::Float || r.width == 8 => self.reg(*r),
            Val::Reg(r) => format!("({}){}", int_type(r.width), self.reg(*r)),
            Val::Mem(a) => format!("*({}*)({})", int_type(w), self.addr(a)),
        }
    }

    /// An operand read as a double; memory is a `w`-byte float.
    fn fread(&mut self, v: &Val, w: u8) -> Result<String, LiftError> {
        Ok(match v {
            Val::Reg(r) => self.reg(*r),
            Val::Mem(a) if w == 4 => format!("(double)*(float*)({})", self.addr(a)),
            Val::Mem(a) => format!("*(double*)({})", self.addr(a)),
            Val::Imm(i) => return Err(LiftError(format!("float immediate {i}"))),
        })
    }

    fn write(&mut self, v: &Val, value: String, w: u8) -> Result<(), LiftError> {
        match v {
            Val::Reg(r) => self.write_reg(*r, value),
            Val::Mem(a) => {
                let addr = self.addr(a);
                self.body.push(format!("*({}*)({addr}) = {value};", int_type(w)));
            }
            Val::Imm(i) => return Err(LiftError(format!("write to immediate {i}"))),
        }
        Ok(())
    }

    /// A register write at its width: a 32-bit write zero-extends, a
    /// narrower one merges.
    fn write_reg(&mut self, r: Reg, value: String) {
        let var = self.reg(r);
        self.body.push(match (r.class, r.width) {
            (Class::Float, _) => format!("{var} = {value};"),
            (_, 8) => format!("{var} = ({value});"),
            (_, 4) => format!("{var} = (unsigned int)({value});"),
            (_, w) => {
                let (ty, keep) = (int_type(w), if w == 2 { 65535 } else { 255 });
                format!("{var} = ({var} & ~{keep}UL) | ({ty})({value});")
            }
        });
    }

    fn addr(&mut self, a: &Addr) -> String {
        let Addr::Regs { base, index, disp } = a else {
            let Addr::Sym(sym) = a else { unreachable!() };
            return self.symbol(sym);
        };
        let mut parts: Vec<String> = base.iter().map(|&b| self.reg(b)).collect();
        if let Some((ix, scale)) = index {
            let r = self.reg(*ix);
            parts.push(format!("{r} * {scale}"));
        }
        if *disp != 0 || parts.is_empty() {
            parts.push(format!("{disp}"));
        }
        parts.join(" + ")
    }

    /// A label: control can arrive from elsewhere, so nothing tracked
    /// across the previous instruction holds.
    fn label(&mut self, l: &str) {
        self.body.push(format!("{}: ;", label_c(l)));
        self.pending_cmp = None;
        self.consts.clear();
        self.armed = Default::default();
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

    /// Condition `c` of the pending compare, as C.
    fn cond(&self, c: Cond) -> Result<String, LiftError> {
        let Some((a, b, width)) = &self.pending_cmp else {
            return Err(LiftError(format!("condition {c:?} without compare")));
        };
        let (s, u) = match width {
            'l' => ("(int)", "(unsigned int)"),
            'f' => ("", ""),
            _ => ("(long)", ""),
        };
        let (op, cast) = match c {
            Cond::Eq => ("==", s),
            Cond::Ne => ("!=", s),
            Cond::Lt | Cond::Neg => ("<", s),
            Cond::Le => ("<=", s),
            Cond::Gt => (">", s),
            Cond::Ge | Cond::NotNeg => (">=", s),
            Cond::Below => ("<", u),
            Cond::BelowEq => ("<=", u),
            Cond::Above => (">", u),
            Cond::AboveEq => (">=", u),
        };
        Ok(if *width == 'f' {
            format!("{a} {op} {b}")
        } else {
            format!("{cast}({a}) {op} {cast}({b})")
        })
    }

    /// The address of symbol `sym`: a rodata string becomes a `char *`
    /// local (one per distinct text), anything else a global's address.
    fn symbol(&mut self, sym: &str) -> String {
        let Some(bytes) = self.rodata.get(sym) else {
            return format!("(unsigned long)&{sym}");
        };
        let text = escape_c(&bytes[..bytes.len().saturating_sub(1)]);
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

    /// A call to `callee`. A MiniC builtin takes its signature: argument
    /// classes in order and, for a floating-point result, the first
    /// floating-point register. Any other callee's arity is the contiguous
    /// prefix of argument registers written since the last call or label,
    /// per class.
    fn call(&mut self, callee: &str) {
        let sig = slade_minic::sema::builtin_signature(callee).filter(|s| !s.variadic);
        let mut args = Vec::new();
        match sig {
            Some(sig) => {
                let mut next = [0, 0];
                for ty in &sig.params {
                    let class = ty.is_floating() as usize;
                    args.push(self.arg_var(class, next[class]));
                    next[class] += 1;
                }
            }
            None => {
                for class in 0..2 {
                    let n = (0..).take_while(|i| self.armed[class].contains(i)).count();
                    args.extend((0..n).map(|i| self.arg_var(class, i)));
                }
            }
        }
        let args = args.join(", ");
        let stmt = match sig {
            Some(sig) if sig.ret.is_floating() => {
                format!("{} = {callee}({args});", self.arg_var(1, 0))
            }
            _ => {
                let ret = self.reg(Reg { class: Class::Int, num: 0, width: 8 });
                format!("{ret} = (unsigned long){callee}({args});")
            }
        };
        self.body.push(stmt);
        self.armed = Default::default();
    }

    /// The variable of argument register `n` of `class` (0 integer, 1
    /// floating point).
    fn arg_var(&mut self, class: usize, n: usize) -> String {
        let r = match class {
            0 => Reg { class: Class::Int, num: sem::int_args(self.names.isa)[n], width: 8 },
            _ => Reg { class: Class::Float, num: n as u8, width: 8 },
        };
        self.reg(r)
    }

    /// The C function: signature, stack, compare temporaries, string
    /// literals, register locals, body, return.
    fn emit(&self, name: &str) -> String {
        let [nint, nf] =
            self.read.each_ref().map(|r| (0..).take_while(|i| r.contains(i)).count());
        let n = self.names;
        let params: Vec<String> =
            sem::int_args(n.isa)[..nint].iter().map(|&r| (n.int)(r)).collect();
        let mut sig: Vec<String> =
            params.iter().map(|p| format!("unsigned long {p}")).collect();
        sig.extend((0..nf).map(|i| format!("double {}{i}", n.float)));
        let sig = if sig.is_empty() { "void".to_string() } else { sig.join(", ") };
        let mut out = format!("long {name}({sig}) {{\nunsigned char stk[4096];\n");
        for (var, init) in n.frame {
            out.push_str(&format!("unsigned long {var} = {init};\n"));
        }
        if self.uses_cmp_tmps {
            out.push_str("unsigned long cmp_a = 0;\nunsigned long cmp_b = 0;\n");
            out.push_str("double fcmp_a = 0.0;\ndouble fcmp_b = 0.0;\n");
        }
        for (var, text) in &self.strings {
            out.push_str(&format!("char *{var} = \"{text}\";\n"));
        }
        let ret = (n.int)(0);
        let mut declared: Vec<&str> = params.iter().map(String::as_str).collect();
        declared.extend(n.frame.iter().map(|(var, _)| *var));
        for var in self.ints.iter().map(String::as_str).chain([ret.as_str()]) {
            if !declared.contains(&var) {
                out.push_str(&format!("unsigned long {var} = 0;\n"));
                declared.push(var);
            }
        }
        for i in self.floats.iter().filter(|&&i| i as usize >= nf) {
            out.push_str(&format!("double {}{i} = 0.0;\n", n.float));
        }
        for stmt in &self.body {
            out.push_str(stmt);
            out.push('\n');
        }
        out.push_str(&format!("return {ret};\n}}\n"));
        out
    }
}

fn label_c(label: &str) -> String {
    format!("L{}", label.trim_start_matches(".L").replace('.', "_"))
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

/// The C type of a `w`-byte integer access.
fn int_type(w: u8) -> &'static str {
    match w {
        1 => "unsigned char",
        2 => "unsigned short",
        4 => "unsigned int",
        _ => "unsigned long",
    }
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
    fn builtin_calls_take_the_builtin_signature() {
        let src = "double f(double x, double y) { return sqrt(x * x + y * y); }";
        for (isa, call) in [(Isa::X86_64, "f_0 = sqrt(f_0);"), (Isa::Arm64, "d_0 = sqrt(d_0);")]
        {
            let c = lift_src(src, "f", isa, OptLevel::O0).unwrap();
            assert!(c.contains(call), "{c}");
            parse_program(&c).and_then(|p| Interpreter::new(&p).map(drop)).expect(&c);
        }
    }

    #[test]
    fn string_literals_lex_back_to_their_rodata_bytes() {
        // A hex escape is greedy: `\x01a` would lex as the one byte 0x1a.
        let asm = "\t.section .rodata\n.LC0:\n\t.string \"\\001a\\177F9\\351\"\n\t.text\n\
                   f:\n\tleaq .LC0(%rip), %rdi\n\tcall strlen\n\tret\n";
        let file = parse_asm(asm, Isa::X86_64);
        let c = lift(file.function("f").unwrap(), Isa::X86_64, &file.rodata).unwrap();
        let decl = c.lines().find(|l| l.starts_with("char *lc_0")).expect("literal declared");
        let tokens = slade_minic::Lexer::new(decl).tokenize().unwrap();
        let lexed = tokens.iter().find_map(|t| match &t.kind {
            slade_minic::TokenKind::StrLit(s) => Some(s.clone()),
            _ => None,
        });
        assert_eq!(lexed.as_deref(), Some(&b"\x01a\x7fF9\xe9"[..]), "{decl}");
    }
}
