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
pub use machine::{Cpu, Machine};

use slade_asm::Isa;
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

/// x86-64: its decode table and SysV registers are `slade_asm::sem`'s.
#[derive(Debug)]
pub struct X86;

impl Cpu for X86 {
    const ISA: Isa = Isa::X86_64;
}

/// The x86-64 machine.
pub type Emulator = Machine<X86>;

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
