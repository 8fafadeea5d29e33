//! What the x86-64 and AArch64 emulators share — everything but the ISA:
//! segment memory holding the file's rodata and a stack, the symbol table,
//! the instruction budget, one register file and flag set, the one `call`
//! / fetch loop, and the libc builtins dispatched by name on a call. Each
//! function is decoded once, by `slade_asm::sem`, into the ops that
//! [`Machine`] executes.

use crate::{Arg, EmuError, Result};
use slade_asm::sem::{self, Addr, BinOp, Class, Flags, Op, Reg, Val};
use slade_asm::{AsmFile, Isa, Line};
use slade_minic::mem::Memory;
use slade_minic::value::Pointer;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::ops::Range;
use std::rc::Rc;

/// Instructions one [`Machine::call`] may execute.
const FUEL: u64 = 10_000_000;

/// Nested calls one [`Machine::call`] may make (the interpreter's default
/// `max_depth`); deeper recursion is an error, not a host stack overflow.
const MAX_DEPTH: u32 = 200;

fn pack(p: Pointer) -> u64 {
    ((p.seg as u64) << 32) | (p.off as u64 & 0xffff_ffff)
}

fn unpack(v: u64) -> Pointer {
    Pointer { seg: (v >> 32) as u32, off: (v & 0xffff_ffff) as i64 }
}

fn fault(e: impl ToString) -> EmuError {
    EmuError::new(e.to_string())
}

/// An ISA a [`Machine`] runs: its decode table and ABI registers are
/// `slade_asm::sem`'s for [`Cpu::ISA`].
pub trait Cpu {
    /// The ISA.
    const ISA: Isa;
}

/// One function decoded: its ops, and per line the range of them it runs
/// (none for a label) or why it did not decode.
#[derive(Debug)]
struct Code {
    ops: Vec<Op>,
    lines: Vec<std::result::Result<Range<usize>, String>>,
    labels: HashMap<String, usize>,
}

/// What the fetch loop does after an op.
enum Flow<'a> {
    Next,
    Jump(&'a str),
    Call(&'a str),
    Return,
}

/// An emulated machine for ISA `C` ([`crate::Emulator`],
/// [`crate::ArmEmulator`]): integer registers, float / vector registers
/// (their low bytes hold a scalar) and [`Flags`] over segment memory.
#[derive(Debug)]
pub struct Machine<C> {
    code: HashMap<String, Rc<Code>>,
    int: [u64; 32],
    pub(crate) float: [u128; 32],
    flags: Flags,
    mem: Memory,
    symbols: HashMap<String, u64>,
    stack_base: u64,
    fuel: u64,
    depth: u32,
    isa: PhantomData<C>,
}

/// What a libc builtin returns, for the integer or floating-point return
/// register.
enum Ret {
    Int(u64),
    F64(f64),
}

/// The low `w` bytes of a register.
fn low(w: u8) -> u128 {
    if w >= 16 {
        u128::MAX
    } else {
        (1 << (8 * w as u32)) - 1
    }
}

fn float_reg(num: usize, width: u8) -> Reg {
    Reg { class: Class::Float, num: num as u8, width }
}

impl<C: Cpu> Machine<C> {
    /// Builds an emulator for `file`, decoding its functions and
    /// allocating its rodata and a 1 MiB stack.
    pub fn new(file: AsmFile) -> Self {
        let mut mem = Memory::new();
        let mut symbols = HashMap::new();
        for (label, bytes) in &file.rodata {
            let p = mem.alloc(bytes.len());
            mem.store_bytes(p, bytes).expect("fresh rodata segment");
            symbols.insert(label.clone(), pack(p));
        }
        let mut code = HashMap::new();
        for f in &file.functions {
            let mut c =
                Code { ops: Vec::new(), lines: Vec::new(), labels: f.label_positions() };
            for line in &f.lines {
                let start = c.ops.len();
                c.lines.push(match line {
                    Line::Label(_) => Ok(start..start),
                    Line::Inst(inst) => {
                        sem::decode(C::ISA, inst, &mut c.ops).map(|()| start..c.ops.len())
                    }
                });
            }
            code.entry(f.name.clone()).or_insert_with(|| Rc::new(c));
        }
        let stack_base = pack(mem.alloc(1 << 20)) + (1 << 20) - 64;
        Machine {
            code,
            int: [0; 32],
            float: [0; 32],
            flags: Flags::default(),
            mem,
            symbols,
            stack_base,
            fuel: 0,
            depth: 0,
            isa: PhantomData,
        }
    }

    /// Calls function `name`, passing `args` in the ISA's argument
    /// registers; returns the integer result register.
    ///
    /// # Errors
    ///
    /// Fails on more arguments of a class than the ISA passes in
    /// registers, unknown functions, memory faults, unsupported
    /// instructions, runaway recursion or fuel exhaustion (10M
    /// instructions).
    pub fn call(&mut self, name: &str, args: &[Arg]) -> Result<u64> {
        let (cap_int, cap_float) = C::ISA.arg_regs();
        let (mut ints, mut floats) = (0, 0);
        for &a in args {
            let (n, cap) = match a {
                Arg::Int(_) => (&mut ints, cap_int),
                Arg::F64(_) | Arg::F32(_) => (&mut floats, cap_float),
            };
            if *n == cap {
                return Err(EmuError::new(format!("more than {cap} arguments of a class")));
            }
            match a {
                Arg::Int(v) => self.int[sem::int_args(C::ISA)[*n] as usize] = v,
                Arg::F64(v) => self.set_reg(float_reg(*n, 8), v.to_bits()),
                Arg::F32(v) => self.set_reg(float_reg(*n, 4), v.to_bits() as u64),
            }
            *n += 1;
        }
        self.fuel = FUEL;
        self.depth = 0;
        self.int[sem::sp(C::ISA) as usize] = self.stack_base;
        self.run(name)?;
        Ok(self.int[0])
    }

    /// Return value of the last call as a double.
    pub fn ret_f64(&self) -> f64 {
        f64::from_bits(self.float[0] as u64)
    }

    /// Runs function `name` to its return, or the libc builtin of that
    /// name when the file does not define it.
    fn run(&mut self, name: &str) -> Result<()> {
        let Some(code) = self.code.get(name).cloned() else {
            return self.call_builtin(name);
        };
        if self.depth == MAX_DEPTH {
            return Err(EmuError::new("call depth exceeded"));
        }
        self.depth += 1;
        let mut ip = 0usize;
        'fetch: while let Some(line) = code.lines.get(ip) {
            if self.fuel == 0 {
                return Err(EmuError::new("fuel exhausted"));
            }
            self.fuel -= 1;
            ip += 1;
            let ops = line.clone().map_err(EmuError::new)?;
            for op in &code.ops[ops] {
                match self.exec(op)? {
                    Flow::Next => {}
                    Flow::Jump(label) => {
                        ip = *code
                            .labels
                            .get(label)
                            .ok_or_else(|| EmuError::new(format!("unknown label `{label}`")))?;
                    }
                    Flow::Call(callee) => self.run(callee)?,
                    Flow::Return => break 'fetch,
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    fn exec<'a>(&mut self, op: &'a Op) -> Result<Flow<'a>> {
        match op {
            Op::Frame => {}
            Op::Mov { w, dst, src } => {
                let v = self.load(src, *w)?;
                self.set(dst, v, *w)?;
            }
            Op::Ext { from, signed, dst, src } => {
                let (v, shift) =
                    (sem::mask(self.get(src, *from)?, *from), 64 - 8 * *from as u32);
                let v = if *signed { (((v << shift) as i64) >> shift) as u64 } else { v };
                self.set_reg(*dst, v);
            }
            Op::AddrOf { dst, addr } => {
                let a = self.addr(addr)?;
                self.set_reg(*dst, a);
            }
            Op::Bin { op, w, dst, a, b, flags } => {
                let r = op
                    .eval(*w, self.get(a, *w)?, self.get(b, *w)?)
                    .ok_or_else(|| EmuError::new("integer division by zero"))?;
                if *flags {
                    self.flags.set_zn(r, *w);
                }
                self.set(dst, r.into(), *w)?;
            }
            Op::MulSub { dst, a, b, c } => {
                let w = dst.width;
                let v =
                    self.get(c, w)?.wrapping_sub(self.get(a, w)?.wrapping_mul(self.get(b, w)?));
                self.set_reg(*dst, v);
            }
            Op::Cmp { w, a, b } => {
                self.flags = Flags::sub(self.get(a, *w)?, self.get(b, *w)?, *w)
            }
            Op::Test { w, a, b } => {
                self.flags = Flags::default();
                self.flags.set_zn(self.get(a, *w)? & self.get(b, *w)?, *w);
            }
            Op::FBin { op, w, dst, a, b } => {
                let (x, y) = (self.fget(a, *w)?, self.fget(b, *w)?);
                let r = match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
                    _ => x / y,
                };
                self.fset(*dst, r);
            }
            Op::FCmp { w, a, b, unordered } => {
                let (x, y) = (self.fget(a, *w)?, self.fget(b, *w)?);
                self.flags = if x.is_nan() || y.is_nan() {
                    *unordered
                } else {
                    Flags { z: x == y, n: x < y, v: false, below: x < y }
                };
            }
            Op::IntToFloat { w, dst, src } => {
                let v = self.get(src, *w)?;
                self.fset(*dst, if *w == 8 { v as i64 as f64 } else { v as i32 as f64 });
            }
            Op::FloatToInt { w, dst, src } => {
                let f = self.fget(src, *w)?;
                let v = if dst.width == 8 { f as i64 as u64 } else { f as i32 as u32 as u64 };
                self.set_reg(*dst, v);
            }
            Op::FConv { w, dst, src } => {
                let f = self.fget(src, *w)?;
                self.fset(*dst, f);
            }
            Op::Bits { dst, src, .. } => {
                if dst.class == Class::Float {
                    self.float[dst.num as usize] = 0;
                }
                self.set_reg(*dst, self.reg(*src));
            }
            Op::Set { cond, dst } => self.set(dst, cond.holds(self.flags).into(), 1)?,
            Op::Jump { cond, target } => {
                if cond.is_none_or(|c| c.holds(self.flags)) {
                    return Ok(Flow::Jump(target));
                }
            }
            Op::Cbnz { a, target } => {
                if self.get(a, 8)? != 0 {
                    return Ok(Flow::Jump(target));
                }
            }
            Op::Call(callee) => return Ok(Flow::Call(callee)),
            Op::Ret => return Ok(Flow::Return),
            Op::Shuf { sel, dst, src } => {
                let v = self.load(src, 16)?;
                let lane = |i: u8| (v >> (32 * ((sel >> (2 * i)) & 3))) as u32 as u128;
                self.set_reg(*dst, (0..4).map(|i| lane(i) << (32 * i)).sum::<u128>());
            }
            Op::Lanes { op, dst, a, b } => {
                let (x, y) = (self.load(a, 16)?, self.load(b, 16)?);
                let lane = |i: u32| {
                    let r = op.eval(4, (x >> (32 * i)) as u64, (y >> (32 * i)) as u64);
                    (r.unwrap_or(0) as u32 as u128) << (32 * i)
                };
                self.set_reg(*dst, (0..4).map(lane).sum::<u128>());
            }
        }
        Ok(Flow::Next)
    }

    // ---- operand plumbing ----

    fn addr(&self, a: &Addr) -> Result<u64> {
        match a {
            Addr::Regs { base, index, disp } => {
                let base = base.map_or(0, |r| self.int[r.num as usize]);
                let index =
                    index.map_or(0, |(r, s)| self.int[r.num as usize].wrapping_mul(s as u64));
                Ok((*disp as u64).wrapping_add(base).wrapping_add(index))
            }
            Addr::Sym(sym) => self.symbol(sym),
        }
    }

    /// A register's low `width` bytes.
    fn reg(&self, r: Reg) -> u128 {
        let n = r.num as usize;
        low(r.width)
            & match r.class {
                Class::Int => self.int[n].into(),
                Class::Float => self.float[n],
            }
    }

    /// Writes a register's low `width` bytes: a 32-bit integer write zeroes
    /// the rest, any other keeps it.
    fn set_reg(&mut self, r: Reg, v: impl Into<u128>) {
        let (n, v, m) = (r.num as usize, v.into(), low(r.width));
        match (r.class, r.width) {
            (Class::Int, 4) => self.int[n] = v as u32 as u64,
            (Class::Int, _) => self.int[n] = ((u128::from(self.int[n]) & !m) | (v & m)) as u64,
            (Class::Float, _) => self.float[n] = (self.float[n] & !m) | (v & m),
        }
    }

    /// An operand's value: a register at its width, `w` bytes of memory.
    fn load(&self, v: &Val, w: u8) -> Result<u128> {
        Ok(match v {
            Val::Imm(i) => *i as u64 as u128,
            Val::Reg(r) => self.reg(*r),
            Val::Mem(a) => {
                let mut raw = [0u8; 16];
                self.mem
                    .load_into(unpack(self.addr(a)?), &mut raw[..w as usize])
                    .map_err(fault)?;
                u128::from_le_bytes(raw)
            }
        })
    }

    fn get(&self, v: &Val, w: u8) -> Result<u64> {
        Ok(self.load(v, w)? as u64)
    }

    fn set(&mut self, v: &Val, x: u128, w: u8) -> Result<()> {
        match v {
            Val::Reg(r) => {
                self.set_reg(*r, x);
                Ok(())
            }
            Val::Mem(a) => {
                let addr = self.addr(a)?;
                self.write_buffer(addr, &x.to_le_bytes()[..w as usize])
            }
            Val::Imm(_) => Err(EmuError::new("write to an immediate")),
        }
    }

    fn fget(&self, v: &Val, w: u8) -> Result<f64> {
        let bits = self.get(v, w)?;
        Ok(if w == 4 { f32::from_bits(bits as u32) as f64 } else { f64::from_bits(bits) })
    }

    fn fset(&mut self, r: Reg, f: f64) {
        self.set_reg(r, if r.width == 4 { (f as f32).to_bits() as u64 } else { f.to_bits() });
    }

    /// Allocates a buffer with the given contents; returns its packed
    /// address (pass it as an [`crate::Arg::Int`]).
    pub fn alloc_buffer(&mut self, bytes: &[u8]) -> u64 {
        let p = self.mem.alloc(bytes.len());
        self.mem.store_bytes(p, bytes).expect("fresh segment");
        pack(p)
    }

    /// Defines global symbol `name` backed by `bytes`.
    pub fn define_global(&mut self, name: &str, bytes: &[u8]) -> u64 {
        let addr = self.alloc_buffer(bytes);
        self.symbols.insert(name.to_string(), addr);
        addr
    }

    /// Reads memory at a packed address.
    ///
    /// # Errors
    ///
    /// Faults on invalid ranges.
    pub fn read_buffer(&self, addr: u64, len: usize) -> Result<Vec<u8>> {
        self.mem.load_bytes(unpack(addr), len).map_err(fault)
    }

    fn write_buffer(&mut self, addr: u64, bytes: &[u8]) -> Result<()> {
        self.mem.store_bytes(unpack(addr), bytes).map_err(fault)
    }

    /// The address of symbol `sym`.
    fn symbol(&self, sym: &str) -> Result<u64> {
        self.symbols
            .get(sym)
            .copied()
            .ok_or_else(|| EmuError::new(format!("undefined symbol `{sym}`")))
    }

    /// Runs libc builtin `name` on the ISA's first three integer (or
    /// pointer) and first two floating-point argument registers, one table
    /// for both ISAs.
    fn call_builtin(&mut self, name: &str) -> Result<()> {
        let [a, b, c] = [0, 1, 2].map(|n| self.int[sem::int_args(C::ISA)[n] as usize]);
        let [x, y] = [0, 1].map(|n| f64::from_bits(self.float[n] as u64));
        let cstr = |mem: &Memory, s: u64| mem.load_cstr(unpack(s)).map_err(fault);
        let ret = match name {
            "memcpy" | "memmove" => {
                self.mem.copy(unpack(a), unpack(b), c as usize).map_err(fault)?;
                Ret::Int(a)
            }
            "memset" => {
                self.mem.fill(unpack(a), b as u8, c as usize).map_err(fault)?;
                Ret::Int(a)
            }
            "strlen" => Ret::Int(cstr(&self.mem, a)?.len() as u64),
            "strcmp" => Ret::Int(cstr(&self.mem, a)?.cmp(&cstr(&self.mem, b)?) as i64 as u64),
            "abs" => Ret::Int((a as i32).wrapping_abs() as u32 as u64),
            "labs" => Ret::Int((a as i64).wrapping_abs() as u64),
            // Output goes nowhere; the IO harness compares memory and
            // return values, not stdout.
            "putchar" => Ret::Int(a as u32 as u64),
            "printf" => Ret::Int(0),
            "sqrt" => Ret::F64(x.sqrt()),
            "fabs" => Ret::F64(x.abs()),
            "sin" => Ret::F64(x.sin()),
            "cos" => Ret::F64(x.cos()),
            "tan" => Ret::F64(x.tan()),
            "exp" => Ret::F64(x.exp()),
            "log" => Ret::F64(x.ln()),
            "floor" => Ret::F64(x.floor()),
            "ceil" => Ret::F64(x.ceil()),
            "pow" => Ret::F64(x.powf(y)),
            "fmod" => Ret::F64(x % y),
            "fmin" => Ret::F64(x.min(y)),
            "fmax" => Ret::F64(x.max(y)),
            other => return Err(fault(format!("call to undefined function `{other}`"))),
        };
        match ret {
            Ret::Int(v) => self.int[0] = v,
            Ret::F64(v) => self.set_reg(float_reg(0, 8), v.to_bits()),
        }
        Ok(())
    }
}

/// The shape of the emulators' unit tests: one table row per program, each
/// run on both machines at -O0 and -O3 (`emu_cases!` names each row).
#[cfg(test)]
pub(crate) mod cases {
    use super::{Cpu, Machine};
    use crate::arm::Arm64;
    use crate::{Arg, X86};
    use slade_asm::{parse_asm, Isa};
    use slade_compiler::{compile_function, CompileOpts, OptLevel};

    /// What one call must produce.
    pub(crate) enum Want {
        /// The whole integer return register.
        Int(u64),
        F64(f64),
        /// The `int` buffer passed as the first argument, afterwards.
        Buf(&'static [i32]),
        /// An error whose message contains this.
        Fails(&'static str),
    }

    /// One program: every function in `src` is compiled, `g` (when given)
    /// is an `int` global, and `entry` is called once per row of `calls`,
    /// with `buf` (when non-empty) prepended to the row's arguments.
    pub(crate) struct Case {
        pub src: &'static str,
        pub entry: &'static str,
        pub global: Option<i32>,
        pub buf: &'static [i32],
        pub calls: &'static [(&'static [Arg], Want)],
    }

    pub(crate) const fn case(
        src: &'static str,
        entry: &'static str,
        calls: &'static [(&'static [Arg], Want)],
    ) -> Case {
        Case { src, entry, global: None, buf: &[], calls }
    }

    pub(crate) fn on_both_machines(case: &Case) {
        for opt in [OptLevel::O0, OptLevel::O3] {
            check::<X86>(Isa::X86_64, case, opt);
            check::<Arm64>(Isa::Arm64, case, opt);
        }
    }

    fn check<C: Cpu>(isa: Isa, case: &Case, opt: OptLevel) {
        let ctx = format!("{isa:?} {opt}: {}", case.src);
        let p = slade_minic::parse_program(case.src).unwrap();
        let opts = CompileOpts::new(isa, opt);
        let text: String =
            p.functions().map(|f| compile_function(&p, &f.name, opts).unwrap()).collect();
        let mut m = Machine::<C>::new(parse_asm(&text, isa));
        if let Some(g) = case.global {
            m.define_global("g", &g.to_le_bytes());
        }
        let bytes: Vec<u8> = case.buf.iter().flat_map(|v| v.to_le_bytes()).collect();
        let buf = m.alloc_buffer(&bytes);
        for (args, want) in case.calls {
            let mut args = args.to_vec();
            if !case.buf.is_empty() {
                args.insert(0, Arg::Int(buf));
            }
            let got = m.call(case.entry, &args);
            match *want {
                Want::Int(v) => assert_eq!(got.expect(&ctx), v, "{ctx}"),
                Want::F64(v) => {
                    got.expect(&ctx);
                    assert_eq!(m.ret_f64(), v, "{ctx}");
                }
                Want::Buf(v) => {
                    got.expect(&ctx);
                    let out = m.read_buffer(buf, bytes.len()).unwrap();
                    let vals: Vec<i32> = out
                        .chunks(4)
                        .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
                        .collect();
                    assert_eq!(vals, v, "{ctx}");
                }
                Want::Fails(msg) => {
                    let err = got.expect_err(&ctx);
                    assert!(err.message().contains(msg), "{ctx}: {err}");
                }
            }
        }
    }

    /// `name: case;` rows, each a test running its case on both machines.
    macro_rules! emu_cases {
        ($($name:ident: $case:expr;)*) => {$(
            #[test]
            fn $name() {
                $crate::machine::cases::on_both_machines(&$case);
            }
        )*};
    }
    pub(crate) use emu_cases;
}
