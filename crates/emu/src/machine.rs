//! What the x86-64 and AArch64 emulators share: segment memory holding the
//! file's rodata and a stack, the symbol table, the instruction budget, the
//! one `call` / fetch loop, and the libc builtins dispatched by name on a
//! call. An ISA adds its register file — a [`Cpu`]: which registers carry a
//! call's arguments and result, and how one instruction steps.

use crate::{Arg, EmuError, Result};
use slade_asm::{AsmFile, Inst, Line, Operand};
use slade_minic::mem::Memory;
use slade_minic::value::Pointer;
use std::collections::HashMap;

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

/// Operand `i` of an instruction; a truncated operand list is an error, not
/// an index panic — hostile assembly must fail to emulate.
pub(crate) fn op(ops: &[Operand], i: usize) -> Result<&Operand> {
    ops.get(i).ok_or_else(|| EmuError::new(format!("missing operand {i}")))
}

/// The line a direct branch to `op` lands on.
pub(crate) fn target(labels: &HashMap<String, usize>, op: &Operand) -> Result<usize> {
    let Operand::Sym(label) = op else {
        return Err(EmuError::new("indirect branch"));
    };
    labels.get(label).copied().ok_or_else(|| EmuError::new(format!("unknown label `{label}`")))
}

/// What the fetch loop does after an instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Go on at the line `ip` now names (the next one, or a branch target).
    Continue,
    /// Run this function (or libc builtin) to its return, then go on.
    Call(String),
    /// Leave the function.
    Return,
}

/// An ISA's register file and instruction semantics: everything a
/// [`Machine`] needs to run that ISA's assembly.
pub trait Cpu: Default {
    /// How many integer and floating-point arguments the calling convention
    /// passes in registers: the ISA's [`slade_asm::Isa::arg_regs`].
    const ARG_REGS: (usize, usize);

    /// The register holding integer argument `n` (also a libc argument).
    fn int_arg(&mut self, n: usize) -> &mut u64;

    /// The integer result register.
    fn int_ret(&mut self) -> &mut u64;

    /// Floating-point register `n` as a double: argument `n`, and the
    /// result when `n` is 0.
    fn f64_reg(&self, n: usize) -> f64;

    /// Writes a double to floating-point register `n`.
    fn set_f64_reg(&mut self, n: usize, v: f64);

    /// Writes a float to floating-point register `n`.
    fn set_f32_reg(&mut self, n: usize, v: f32);

    /// Points the stack pointer at `sp`.
    fn set_sp(&mut self, sp: u64);

    /// Executes `inst`; a branch moves `ip`.
    ///
    /// # Errors
    ///
    /// Fails on malformed or unsupported instructions and memory faults.
    fn step(
        m: &mut Machine<Self>,
        inst: &Inst,
        labels: &HashMap<String, usize>,
        ip: &mut usize,
    ) -> Result<Step>;
}

/// An emulated machine with register file `C` ([`crate::Emulator`],
/// [`crate::ArmEmulator`]).
#[derive(Debug)]
pub struct Machine<C> {
    file: AsmFile,
    pub(crate) cpu: C,
    mem: Memory,
    symbols: HashMap<String, u64>,
    stack_base: u64,
    fuel: u64,
    depth: u32,
}

/// What a libc builtin returns, for the ISA's integer or floating-point
/// return register.
enum Ret {
    Int(u64),
    F64(f64),
}

impl<C: Cpu> Machine<C> {
    /// Builds an emulator for `file`, allocating its rodata and a 1 MiB
    /// stack.
    pub fn new(file: AsmFile) -> Self {
        let mut mem = Memory::new();
        let mut symbols = HashMap::new();
        for (label, bytes) in &file.rodata {
            let p = mem.alloc(bytes.len());
            mem.store_bytes(p, bytes).expect("fresh rodata segment");
            symbols.insert(label.clone(), pack(p));
        }
        let stack_base = pack(mem.alloc(1 << 20)) + (1 << 20) - 64;
        Machine { file, cpu: C::default(), mem, symbols, stack_base, fuel: 0, depth: 0 }
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
        let (mut ints, mut floats) = (0, 0);
        for &a in args {
            let (n, cap) = match a {
                Arg::Int(_) => (&mut ints, C::ARG_REGS.0),
                Arg::F64(_) | Arg::F32(_) => (&mut floats, C::ARG_REGS.1),
            };
            if *n == cap {
                return Err(EmuError::new(format!("more than {cap} arguments of a class")));
            }
            match a {
                Arg::Int(v) => *self.cpu.int_arg(*n) = v,
                Arg::F64(v) => self.cpu.set_f64_reg(*n, v),
                Arg::F32(v) => self.cpu.set_f32_reg(*n, v),
            }
            *n += 1;
        }
        self.fuel = FUEL;
        self.depth = 0;
        self.cpu.set_sp(self.stack_base);
        self.run(name)?;
        Ok(*self.cpu.int_ret())
    }

    /// Return value of the last call as a double.
    pub fn ret_f64(&self) -> f64 {
        self.cpu.f64_reg(0)
    }

    /// Runs function `name` to its return, or the libc builtin of that
    /// name when the file does not define it.
    fn run(&mut self, name: &str) -> Result<()> {
        let Some(func) = self.file.function(name).cloned() else {
            return self.call_builtin(name);
        };
        if self.depth == MAX_DEPTH {
            return Err(EmuError::new("call depth exceeded"));
        }
        self.depth += 1;
        let labels = func.label_positions();
        let mut ip = 0usize;
        while let Some(line) = func.lines.get(ip) {
            if self.fuel == 0 {
                return Err(EmuError::new("fuel exhausted"));
            }
            self.fuel -= 1;
            ip += 1;
            if let Line::Inst(inst) = line {
                match C::step(self, inst, &labels, &mut ip)? {
                    Step::Continue => {}
                    Step::Call(callee) => self.run(&callee)?,
                    Step::Return => break,
                }
            }
        }
        self.depth -= 1;
        Ok(())
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

    pub(crate) fn write_buffer(&mut self, addr: u64, bytes: &[u8]) -> Result<()> {
        self.mem.store_bytes(unpack(addr), bytes).map_err(fault)
    }

    /// The address of symbol `sym`.
    pub(crate) fn symbol(&self, sym: &str) -> Result<u64> {
        self.symbols
            .get(sym)
            .copied()
            .ok_or_else(|| EmuError::new(format!("undefined symbol `{sym}`")))
    }

    /// Runs libc builtin `name` on the ISA's first three integer (or
    /// pointer) and first two floating-point argument registers, one table
    /// for both ISAs.
    fn call_builtin(&mut self, name: &str) -> Result<()> {
        let [a, b, c] = [0, 1, 2].map(|n| *self.cpu.int_arg(n));
        let [x, y] = [0, 1].map(|n| self.cpu.f64_reg(n));
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
            Ret::Int(v) => *self.cpu.int_ret() = v,
            Ret::F64(v) => self.cpu.set_f64_reg(0, v),
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
