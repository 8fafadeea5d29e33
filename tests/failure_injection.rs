//! Failure-injection tests: every substrate must degrade with an error —
//! never a panic, never an infinite loop — when handed the malformed
//! inputs the pipeline actually produces (truncated decodes, unknown
//! instructions, runaway hypotheses, hostile pointers).

use slade::{SladeBuilder, TrainProfile};
use slade_asm::parse_asm;
use slade_baselines::ghidra_decompile;
use slade_compiler::{Isa, OptLevel};
use slade_dataset::{generate_train, DatasetProfile};
use slade_emu::{Arg, ArmEmulator, Emulator};
use slade_minic::{parse_program, ErrorKind, Interpreter, RunLimits, Value};
use slade_tokenizer::{special, UnigramTokenizer, WordTokenizer};

/// Assembly no tool may panic on: empty or binary text, truncated operand
/// lists, unknown mnemonics and branches to nowhere.
const GARBAGE: [&str; 9] = [
    "",
    "not assembly at all",
    "f:\n\tmovl", // truncated operand lists
    "f:\n\tpushq",
    "f:\n\tadd",
    "f:\n\tmov w0",
    "f:\n\tfrobnicate %eax, %ebx\n\tret",
    "\0\0\0\0",
    "f:\n\tjmp .Lnowhere\n\tret",
];

const ISAS: [slade_asm::Isa; 2] = [slade_asm::Isa::X86_64, slade_asm::Isa::Arm64];

/// Calls `f` in `asm` on the emulator for `isa`.
fn emulate(asm: &str, isa: slade_asm::Isa, args: &[Arg]) -> slade_emu::Result<u64> {
    let file = parse_asm(asm, isa);
    match isa {
        slade_asm::Isa::X86_64 => Emulator::new(file).call("f", args),
        slade_asm::Isa::Arm64 => ArmEmulator::new(file).call("f", args),
    }
}

// ---------------------------------------------------------------- lifter

#[test]
fn lifter_rejects_garbage_without_panicking() {
    for garbage in GARBAGE {
        for isa in ISAS {
            // Any Ok must at least be printable C-ish text; Err is fine.
            if let Ok(out) = ghidra_decompile(garbage, isa, "f") {
                assert!(out.len() < 1_000_000);
            }
        }
    }
}

#[test]
fn lifter_reports_unsupported_vector_instructions() {
    // The exact failure mode the paper attributes to O3 (§VII, Fig. 7):
    // SSE code the pattern tables don't cover.
    let asm = "f:\n\tmovdqu (%rdi), %xmm0\n\tpaddd %xmm1, %xmm0\n\tret\n";
    let err = ghidra_decompile(asm, slade_asm::Isa::X86_64, "f")
        .expect_err("vector code must not lift");
    let msg = err.to_string().to_lowercase();
    assert!(msg.contains("vector") || msg.contains("unsupported"), "{msg}");
}

// ------------------------------------------------------------- emulator

#[test]
fn emulators_reject_garbage_without_panicking() {
    for garbage in GARBAGE {
        for isa in ISAS {
            assert!(emulate(garbage, isa, &[]).is_err(), "{isa:?} must reject {garbage:?}");
        }
    }
}

#[test]
fn emulator_rejects_an_xmm_register_past_15() {
    for asm in ["f:\n\tmovsd %xmm99, %xmm0\n\tret", "f:\n\tmovq %rax, %xmm16\n\tret"] {
        assert!(emulate(asm, slade_asm::Isa::X86_64, &[]).is_err(), "{asm:?}");
    }
}

#[test]
fn emulators_reject_more_arguments_than_registers() {
    // SysV passes 6 integer and 8 floating-point arguments in registers,
    // AAPCS64 8 of each.
    let ints = |n| vec![Arg::Int(1); n];
    let floats = |n| vec![Arg::F64(1.0); n];
    for (isa, int_regs) in [(slade_asm::Isa::X86_64, 6), (slade_asm::Isa::Arm64, 8)] {
        assert!(emulate("f:\n\tret", isa, &ints(int_regs)).is_ok(), "{isa:?}");
        assert!(emulate("f:\n\tret", isa, &floats(8)).is_ok(), "{isa:?}");
        assert!(emulate("f:\n\tret", isa, &ints(int_regs + 1)).is_err(), "{isa:?}");
        assert!(emulate("f:\n\tret", isa, &floats(9)).is_err(), "{isa:?}");
        assert!(emulate("f:\n\tret", isa, &floats(33)).is_err(), "{isa:?}");
    }
}

#[test]
fn emulators_bound_runaway_recursion() {
    for (asm, isa) in [("f:\n\tcall f\n\tret", ISAS[0]), ("f:\n\tbl f\n\tret", ISAS[1])] {
        let err = emulate(asm, isa, &[]).expect_err("unbounded recursion must fail");
        assert!(err.message().contains("depth"), "{isa:?}: {err}");
    }
}

#[test]
fn emulator_traps_on_unknown_function() {
    let file = parse_asm("f:\n\tret\n", slade_asm::Isa::X86_64);
    let mut emu = Emulator::new(file);
    assert!(emu.call("missing", &[]).is_err());
}

#[test]
fn emulator_traps_on_wild_pointer_store() {
    let asm = "f:\n\tmovq $12345, %rax\n\tmovl %edi, (%rax)\n\tret\n";
    let file = parse_asm(asm, slade_asm::Isa::X86_64);
    let mut emu = Emulator::new(file);
    assert!(emu.call("f", &[Arg::Int(7)]).is_err(), "unmapped store must trap");
}

#[test]
fn emulator_bounds_runaway_loops() {
    let asm = "f:\n.L1:\n\tjmp .L1\n\tret\n";
    let file = parse_asm(asm, slade_asm::Isa::X86_64);
    let mut emu = Emulator::new(file);
    assert!(emu.call("f", &[]).is_err(), "infinite loop must exhaust fuel");
}

#[test]
fn emulator_read_buffer_rejects_out_of_range() {
    let file = parse_asm("f:\n\tret\n", slade_asm::Isa::X86_64);
    let emu = Emulator::new(file);
    assert!(emu.read_buffer(0xdead_beef, 16).is_err());
}

// ---------------------------------------------------------- interpreter

#[test]
fn interpreter_faults_on_division_by_zero() {
    let p = parse_program("int f(int a) { return 10 / a; }").unwrap();
    let mut i = Interpreter::new(&p).unwrap();
    assert!(i.call("f", &[Value::int(0)]).is_err());
    assert_eq!(i.call("f", &[Value::int(2)]).map(|o| o.ret.unwrap().as_i64()), Ok(5));
}

#[test]
fn interpreter_fuel_bounds_nontermination() {
    let p = parse_program("int f(void) { while (1) { } return 0; }").unwrap();
    let mut i =
        Interpreter::with_limits(&p, RunLimits { fuel: 10_000, max_depth: 16 }).unwrap();
    assert!(i.call("f", &[]).is_err(), "fuel must expire");
}

#[test]
fn interpreter_depth_bounds_runaway_recursion() {
    let p = parse_program("int f(int n) { return f(n + 1); }").unwrap();
    let mut i =
        Interpreter::with_limits(&p, RunLimits { fuel: 10_000_000, max_depth: 64 }).unwrap();
    assert!(i.call("f", &[Value::int(0)]).is_err(), "recursion depth must be bounded");
}

#[test]
fn interpreter_faults_on_null_deref() {
    let p = parse_program("int f(int *p) { return *p; }").unwrap();
    let mut i = Interpreter::new(&p).unwrap();
    assert!(i.call("f", &[Value::long(0)]).is_err());
}

#[test]
fn interpreter_builtins_reject_an_integer_that_is_no_pointer() {
    // Sema accepts both calls (C converts the integer); running them must
    // fault like a wild pointer does, not panic.
    for src in
        ["int f(int a) { return strlen(a); }", "int f(int a) { memset(a, 0, 4); return 0; }"]
    {
        let p = parse_program(src).unwrap();
        let mut i = Interpreter::new(&p).unwrap();
        let err = i.call("f", &[Value::int(7)]).expect_err(src);
        assert_eq!(err.kind(), ErrorKind::Runtime, "{src}: {err}");
    }
}

#[test]
fn parser_errors_on_truncated_and_binary_input() {
    for bad in [
        "int f(",
        "int f(int a) { return",
        "struct {",
        "int f(int a) { return a; } garbage trailing tokens",
        "\u{1F980}\u{1F980}", // non-ASCII
    ] {
        assert!(parse_program(bad).is_err(), "must reject: {bad:?}");
    }
}

// ------------------------------------------------------------ tokenizer

#[test]
fn tokenizer_encodes_arbitrary_unicode_without_panicking() {
    let corpus = vec!["int f(int a) { return a; }".to_string()];
    let tok = UnigramTokenizer::train(&corpus, 100);
    for text in ["", "\u{2581}\u{2581}", "日本語のテキスト", "a\0b", "\t\r\n"] {
        let ids = tok.encode(text);
        let _ = tok.decode(&ids); // must not panic
    }
}

#[test]
fn tokenizer_decode_ignores_out_of_range_ids() {
    let corpus = vec!["abc def".to_string()];
    let tok = UnigramTokenizer::train(&corpus, 50);
    let junk: Vec<u32> = vec![0, 1, 2, 3, special::MASK, 9_999_999, u32::MAX];
    let text = tok.decode(&junk);
    assert!(text.len() < 100);
}

#[test]
fn word_tokenizer_handles_empty_and_oov_gracefully() {
    let tok = WordTokenizer::train(&["alpha beta".to_string()], 10);
    assert!(tok.encode("").is_empty());
    assert_eq!(tok.oov_rate(""), 0.0);
    let ids = tok.encode("gamma delta");
    assert!(ids.iter().all(|&i| i == special::UNK));
}

// --------------------------------------------------------- type inference

#[test]
fn type_inference_survives_garbage_hypotheses() {
    for bad in ["%%%", "", "int f( {", "typedef typedef;", "my_t f(my_t x) {"] {
        // Must not panic; any Ok header must be bounded.
        if let Ok(header) = slade_typeinf::infer_missing_types(bad, "") {
            assert!(header.len() < 10_000);
        }
    }
}

// ------------------------------------------------------------- pipeline

#[test]
fn decompiler_tolerates_degenerate_inputs() {
    let items = generate_train(DatasetProfile::tiny(), 13);
    let slade = SladeBuilder::new(Isa::X86_64, OptLevel::O0)
        .profile(TrainProfile::tiny())
        .beam(2)
        .train(&items[..10.min(items.len())], 13);
    for asm in ["", "\n\n\n", "ret", &"x".repeat(100_000)] {
        let out = slade.decompile(asm);
        assert!(out.len() <= 2, "beam width respected on {:?}...", &asm[..asm.len().min(8)]);
    }
}

#[test]
fn beam_width_zero_is_clamped_not_panicking() {
    let items = generate_train(DatasetProfile::tiny(), 14);
    let mut slade = SladeBuilder::new(Isa::X86_64, OptLevel::O0)
        .profile(TrainProfile::tiny())
        .train(&items[..6.min(items.len())], 14);
    slade.set_beam(0);
    assert_eq!(slade.beam(), 1, "zero beam must clamp to one");
    assert!(slade.decompile("f:\n\tret\n").len() <= 1);
}
