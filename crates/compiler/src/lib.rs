//! MiniC optimizing compiler: the GCC stand-in for the SLaDe reproduction.
//!
//! The paper trains and evaluates on GCC-produced assembly for x86-64 and
//! ARM (AArch64) at `-O0` and `-O3`. This crate reproduces that substrate:
//! it lowers type-checked MiniC to a small three-address IR, optionally runs
//! the `-O3` pipeline (loop unrolling and x86 auto-vectorization, constant
//! folding/propagation, copy propagation, store forwarding, algebraic
//! identities, dead store and dead code elimination, register allocation),
//! and emits GCC-flavoured textual assembly for both ISAs.
//!
//! The *shape* of the output matters more than cycle counts: `-O0` code is
//! stack-slot verbose (as GCC's is), `-O3` code is register-allocated,
//! unrolled and (on x86) vectorized — which is precisely what makes it hard
//! for decompilers, per the paper's Figure 1.
//!
//! # Example
//!
//! ```
//! use slade_compiler::{compile_function, CompileOpts, Isa, OptLevel};
//! use slade_minic::parse_program;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = parse_program("int add(int a, int b) { return a + b; }")?;
//! let asm = compile_function(&program, "add", CompileOpts::new(Isa::X86_64, OptLevel::O0))?;
//! assert!(asm.contains("add:"));
//! assert!(asm.contains("ret"));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod arm;
mod emit;
pub mod ir;
pub mod looptrans;
pub mod lower;
pub mod passes;
pub mod regalloc;
mod x86;

use serde::{Deserialize, Serialize};
use slade_minic::{MiniCError, Program, Sema};
use std::fmt;
use std::str::FromStr;

pub use slade_asm::Isa;

/// Optimization level (the paper evaluates the two extremes GCC users ship).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OptLevel {
    /// No optimization: every value lives on the stack.
    O0,
    /// Full pipeline: folding, propagation, DCE, unrolling, vectorization
    /// (x86), register allocation.
    O3,
}

impl fmt::Display for OptLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptLevel::O0 => write!(f, "O0"),
            OptLevel::O3 => write!(f, "O3"),
        }
    }
}

/// The inverse of `Display`. Also reads `0` and `3`; every spelling
/// matches in any case.
impl FromStr for OptLevel {
    type Err = ParseOptLevelError;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        const NAMES: [(&str, OptLevel); 4] = [
            ("O0", OptLevel::O0),
            ("0", OptLevel::O0),
            ("O3", OptLevel::O3),
            ("3", OptLevel::O3),
        ];
        NAMES
            .iter()
            .find(|(name, _)| name.eq_ignore_ascii_case(s))
            .map(|&(_, opt)| opt)
            .ok_or(ParseOptLevelError)
    }
}

/// The error [`OptLevel::from_str`] returns for a name it does not know.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseOptLevelError;

impl fmt::Display for ParseOptLevelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("unknown optimization level (O0 or O3)")
    }
}

impl std::error::Error for ParseOptLevelError {}

/// `O0` — the unoptimized baseline, and the configuration assumed for
/// artifacts serialized before the target was recorded on them.
impl Default for OptLevel {
    fn default() -> Self {
        OptLevel::O0
    }
}

/// Compilation options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CompileOpts {
    /// Target ISA.
    pub isa: Isa,
    /// Optimization level.
    pub opt: OptLevel,
}

impl CompileOpts {
    /// Creates options for the given target and level.
    pub fn new(isa: Isa, opt: OptLevel) -> Self {
        CompileOpts { isa, opt }
    }
}

/// Errors produced by compilation.
///
/// Wraps MiniC front-end errors and adds codegen-specific failures
/// (unsupported constructs).
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// Front-end (parse/type) error.
    Frontend(MiniCError),
    /// The requested function does not exist in the program.
    NoSuchFunction(String),
    /// A construct this backend does not support.
    Unsupported(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Frontend(e) => write!(f, "{e}"),
            CompileError::NoSuchFunction(name) => write!(f, "no function named `{name}`"),
            CompileError::Unsupported(what) => write!(f, "unsupported construct: {what}"),
        }
    }
}

impl std::error::Error for CompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompileError::Frontend(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MiniCError> for CompileError {
    fn from(e: MiniCError) -> Self {
        CompileError::Frontend(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, CompileError>;

/// Compiles one function of `program` to assembly text, exactly the way the
/// paper's pipeline feeds single functions (not whole programs) to the model.
///
/// The emitted text contains the function label, GCC-style local labels
/// (`.L2`, …) and directives, plus `.section .rodata` entries for any string
/// literals the function references.
///
/// # Errors
///
/// Fails on front-end errors, a missing function, or constructs the chosen
/// backend cannot express (e.g. struct-by-value parameters).
pub fn compile_function(program: &Program, name: &str, opts: CompileOpts) -> Result<String> {
    let tm = Sema::check(program)?;
    if program.function(name).and_then(|f| f.body.as_ref()).is_none() {
        return Err(CompileError::NoSuchFunction(name.to_string()));
    }
    let mut module = lower::lower_function(program, &tm, name, opts)?;
    if opts.opt == OptLevel::O3 {
        passes::run_o3_pipeline(&mut module);
    }
    match opts.isa {
        Isa::X86_64 => emit::emit::<x86::X86>(&module, opts.opt),
        Isa::Arm64 => emit::emit::<arm::Arm>(&module, opts.opt),
    }
}

/// Compiles every function defined in `program`, returning `(name, asm)`
/// pairs in source order. Convenience for the dataset generator.
///
/// # Errors
///
/// Fails on the first function that does not compile.
pub fn compile_all(program: &Program, opts: CompileOpts) -> Result<Vec<(String, String)>> {
    let mut out = Vec::new();
    for f in program.functions() {
        out.push((f.name.clone(), compile_function(program, &f.name, opts)?));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opt_level_names_round_trip_and_parse_in_any_case() {
        for opt in [OptLevel::O0, OptLevel::O3] {
            assert_eq!(opt.to_string().parse(), Ok(opt));
        }
        for (name, want) in [
            ("O0", Ok(OptLevel::O0)),
            ("o0", Ok(OptLevel::O0)),
            ("0", Ok(OptLevel::O0)),
            ("O3", Ok(OptLevel::O3)),
            ("o3", Ok(OptLevel::O3)),
            ("3", Ok(OptLevel::O3)),
            ("", Err(ParseOptLevelError)),
            ("O2", Err(ParseOptLevelError)),
            ("-O3", Err(ParseOptLevelError)),
            ("O0 ", Err(ParseOptLevelError)),
        ] {
            assert_eq!(name.parse::<OptLevel>(), want, "{name:?}");
        }
    }

    #[test]
    fn roundtrips_compiler_output() {
        let p = slade_minic::parse_program(
            "int f(int *a, int n) { int s = 0; for (int i = 0; i < n; i++) s += a[i]; return s; }",
        )
        .unwrap();
        for isa in [Isa::X86_64, Isa::Arm64] {
            for opt in [OptLevel::O0, OptLevel::O3] {
                let asm = compile_function(&p, "f", CompileOpts::new(isa, opt)).unwrap();
                let file = slade_asm::parse_asm(&asm, isa);
                let f = file.function("f").expect("function parsed");
                assert!(f.instructions().count() > 5, "{isa:?} {opt:?}:\n{asm}");
            }
        }
    }
}
