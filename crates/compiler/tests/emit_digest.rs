//! Pins what the compiler emits, byte for byte, on a fixed corpus compiled
//! for both ISAs at -O0 and -O3: the tiny training sets of seeds 1-3, a
//! tiny synth set, the emulators' agreement table, and three programs for
//! what the dataset never produces (a string literal, a global, an extern
//! call). A change that moves any output — an `Ok` text or an `Err` message
//! — moves the digest; slade-bench's inputs are this compiler's x86 output,
//! so it moves every benchmark digest too. The corpus value is what the two
//! per-ISA emitters produced before they shared one driver, with string
//! literals lexed to their bytes.

#[allow(dead_code)]
#[path = "../../emu/tests/agreement/mod.rs"]
mod agreement;

use slade_compiler::{compile_function, CompileOpts, Isa, OptLevel};
use slade_dataset::{generate_synth, generate_train, DatasetProfile};
use slade_minic::parse_program;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

const EXTRA: &[&str] = &[
    "int f(char *s) { return strcmp(s, \"tab\\there \\\"q\\\" back\\\\slash\\r\\n\") \
     + strlen(\"\\a\\xe9\"); }",
    "int g; long h[4]; int f(int x) { g = g + x; h[x & 3] = g; return g * 2; }",
    "double ext(int a, double x); int f(int a) { return ext(a, 2.5) > 1.0; }",
];

/// Every function of `sources` compiled twice for both ISAs at -O0 and -O3:
/// the FNV-1a digest of the outputs (an `Ok` text or an `Err` message) and
/// the `(ok, err)` counts.
fn digest(sources: &[String]) -> (u64, usize, usize) {
    let mut text = String::new();
    let (mut ok, mut err) = (0, 0);
    for src in sources {
        let program = parse_program(src).expect("corpus program parses");
        for func in program.functions() {
            for isa in [Isa::X86_64, Isa::Arm64] {
                for opt in [OptLevel::O0, OptLevel::O3] {
                    let compile =
                        || compile_function(&program, &func.name, CompileOpts::new(isa, opt));
                    let out = compile();
                    assert_eq!(out, compile(), "compiling twice: {} {isa:?} {opt}", func.name);
                    let out = match out {
                        Ok(asm) => {
                            ok += 1;
                            asm
                        }
                        Err(e) => {
                            err += 1;
                            e.to_string()
                        }
                    };
                    text.push_str(&format!("== {} {isa:?} {opt}\n{out}\n", func.name));
                }
            }
        }
    }
    (fnv1a64(text.as_bytes()), ok, err)
}

#[test]
fn compiler_output_is_pinned_on_the_corpus() {
    let tiny = DatasetProfile::tiny();
    let items =
        (1..=3).flat_map(|seed| generate_train(tiny, seed)).chain(generate_synth(tiny, 1, &[]));
    let sources: Vec<String> = items
        .map(|item| item.full_src())
        .chain(agreement::ROWS.iter().map(|&(src, _)| src.to_string()))
        .chain(EXTRA.iter().map(|src| src.to_string()))
        .collect();
    let (digest, ok, err) = digest(&sources);
    assert!(ok >= 800, "corpus compiles: {ok} ok, {err} err");
    assert_eq!(digest, 0xe45b_d780_59d5_3a32, "{ok} ok, {err} err");
}

/// The compound-assignment table, pinned apart from the corpus so that
/// `ROWS` and the digest above stay as they were. The value is what the
/// compiler emitted while it still re-derived an `op=` type in the lowerer.
#[test]
fn compound_assignment_output_is_pinned() {
    let sources: Vec<String> =
        agreement::COMPOUND.iter().map(|&(src, _)| src.to_string()).collect();
    let (digest, ok, err) = digest(&sources);
    assert_eq!((ok, err), (4 * sources.len(), 0));
    assert_eq!(digest, 0xf354_a7af_1052_907b, "{ok} ok, {err} err");
}

/// The wide-shift table, pinned apart from the two above. The value is
/// what the compiler emitted when the table was added.
#[test]
fn wide_shift_output_is_pinned() {
    let sources: Vec<String> =
        agreement::WIDE_SHIFTS.iter().map(|&(src, _)| src.to_string()).collect();
    let (digest, ok, err) = digest(&sources);
    assert_eq!((ok, err), (4 * sources.len(), 0));
    assert_eq!(digest, 0x901e_768c_f1f0_7a15, "{ok} ok, {err} err");
}
