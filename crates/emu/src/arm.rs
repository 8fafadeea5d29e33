//! AArch64 emulator for the assembly subset the ARM backend emits.
//!
//! Only the ISA is ARM's: its decode table and AAPCS64 registers are
//! `slade_asm::sem`'s, and memory, registers, the fetch loop and the libc
//! builtins are the shared [`Machine`]'s, so ARM assembly is
//! cross-validated against the MiniC interpreter exactly like x86 (see
//! `tests/pipeline.rs`).

use crate::machine::{Cpu, Machine};
use slade_asm::Isa;

/// AArch64.
#[derive(Debug)]
pub struct Arm64;

impl Cpu for Arm64 {
    const ISA: Isa = Isa::Arm64;
}

/// The AArch64 machine.
pub type ArmEmulator = Machine<Arm64>;

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
