//! Property-based tests over the core substrates, using proptest.

use proptest::prelude::*;
use slade_eval::{edit_distance, edit_similarity};
use slade_minic::{parse_program, pretty_program, Interpreter, Value};
use slade_tokenizer::UnigramTokenizer;

fn training_corpus() -> Vec<String> {
    vec![
        "int add(int a, int b) { return a + b; }".to_string(),
        "void scale(int *arr, int n, int k) { for (int i = 0; i < n; i++) arr[i] *= k; }"
            .to_string(),
        "movl %edi, %eax\naddl %esi, %eax\nret".to_string(),
    ]
}

/// Assembly-flavoured text: instructions, labels and data mixed with the
/// directives `normalize_asm` drops, joined by LF, CRLF and blank lines,
/// indented by tabs and spaces, with whitespace-only runs in between.
fn asm_soup() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop_oneof![
            3 => prop::sample::select(vec![
                ".cfi_startproc", ".cfi_def_cfa_offset 16", ".p2align 4,,10", ".align 2",
                ".text", ".globl f", ".global f", ".type f, @function", ".size f, .-f",
                ".ident \"cc\"", "f:", ".L3:", "movl %edi, %eax", "ret", ".string \"a  b\"",
                ".long .L3-.L2", "add w0, w0, #3",
            ])
            .prop_map(str::to_string),
            2 => "[ \t]{0,4}",
            2 => prop::sample::select(vec!["\n", "\r\n", "\n\n", "\r"]).prop_map(str::to_string),
            1 => "[a-z.:%$, 0-9]{0,12}",
        ],
        0..40,
    )
    .prop_map(|parts| parts.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `normalize_asm` maps its own output to itself, so text that was
    /// normalised by a caller decodes, hashes and caches like the raw text.
    #[test]
    fn normalize_asm_is_idempotent(asm in asm_soup()) {
        let once = slade::normalize_asm(&asm);
        prop_assert_eq!(&slade::normalize_asm(&once), &once);
        for line in once.lines() {
            prop_assert!(!line.is_empty() && line == line.trim(), "{line:?}");
        }
    }

    /// Tokenizer round-trip: encode→decode is lossless modulo whitespace
    /// normalization, for arbitrary C-flavoured ASCII.
    #[test]
    fn tokenizer_roundtrip(s in "[a-z_()+*;{}= 0-9<>-]{0,60}") {
        let tok = UnigramTokenizer::train(&training_corpus(), 200);
        let decoded = tok.decode(&tok.encode(&s));
        let norm = |t: &str| t.split_whitespace().collect::<Vec<_>>().join(" ");
        prop_assert_eq!(norm(&decoded), norm(&s));
    }

    /// Edit distance is a metric: symmetry, identity, triangle inequality.
    #[test]
    fn edit_distance_is_a_metric(a in "[ab]{0,12}", b in "[ab]{0,12}", c in "[ab]{0,12}") {
        prop_assert_eq!(edit_distance(&a, &b), edit_distance(&b, &a));
        prop_assert_eq!(edit_distance(&a, &a), 0);
        prop_assert!(edit_distance(&a, &c) <= edit_distance(&a, &b) + edit_distance(&b, &c));
    }

    /// Edit similarity is bounded in [0, 1].
    #[test]
    fn edit_similarity_bounded(a in ".{0,40}", b in ".{1,40}") {
        let s = edit_similarity(&a, &b);
        prop_assert!((0.0..=1.0).contains(&s));
    }

    /// Pretty-print → reparse → execute preserves semantics for a family
    /// of arithmetic functions.
    #[test]
    fn printer_preserves_arithmetic_semantics(k1 in -20i64..20, k2 in 1i64..10, x in -50i64..50) {
        let src = format!("int f(int x) {{ int t = x * {k1} + {k2}; if (t > 0) t /= {k2}; return t; }}");
        let p1 = parse_program(&src).unwrap();
        let printed = pretty_program(&p1);
        let p2 = parse_program(&printed).unwrap();
        let mut i1 = Interpreter::new(&p1).unwrap();
        let mut i2 = Interpreter::new(&p2).unwrap();
        let a = i1.call("f", &[Value::int(x)]).unwrap().ret;
        let b = i2.call("f", &[Value::int(x)]).unwrap().ret;
        prop_assert_eq!(a, b);
    }

    /// The interpreter is deterministic: two fresh instances agree.
    #[test]
    fn interpreter_is_deterministic(x in -100i64..100, y in -100i64..100) {
        let src = "int f(int a, int b) { int s = 0; for (int i = 0; i < 8; i++) s += (a ^ i) & (b | i); return s; }";
        let p = parse_program(src).unwrap();
        let mut i1 = Interpreter::new(&p).unwrap();
        let mut i2 = Interpreter::new(&p).unwrap();
        let a = i1.call("f", &[Value::int(x), Value::int(y)]).unwrap().ret;
        let b = i2.call("f", &[Value::int(x), Value::int(y)]).unwrap().ret;
        prop_assert_eq!(a, b);
    }

    /// -O3 compilation preserves semantics versus -O0, checked through the
    /// x86 emulator on random inputs (the pass-pipeline soundness property).
    #[test]
    fn o3_preserves_semantics_vs_o0(x in -40i64..40, n in 1i64..8) {
        use slade_compiler::{compile_function, CompileOpts, Isa, OptLevel};
        use slade_emu::{Arg, Emulator};
        let src = "int f(int x, int n) { int s = 0; for (int i = 0; i < n; i++) { s += x * i; if (s > 100) s -= 7; } return s; }";
        let p = parse_program(src).unwrap();
        let mut results = Vec::new();
        for opt in [OptLevel::O0, OptLevel::O3] {
            let asm = compile_function(&p, "f", CompileOpts::new(Isa::X86_64, opt)).unwrap();
            let file = slade_asm::parse_asm(&asm, slade_asm::Isa::X86_64);
            let mut emu = Emulator::new(file);
            let r = emu.call("f", &[Arg::Int(x as u64), Arg::Int(n as u64)]).unwrap();
            results.push(r as i32);
        }
        prop_assert_eq!(results[0], results[1]);
    }

    /// The same soundness property on the AArch64 backend and emulator —
    /// the portability claim rests on both backends being trustworthy.
    #[test]
    fn arm_o3_preserves_semantics_vs_o0(x in -40i64..40, n in 1i64..8) {
        use slade_compiler::{compile_function, CompileOpts, Isa, OptLevel};
        use slade_emu::{Arg, ArmEmulator};
        let src = "int f(int x, int n) { int s = 0; for (int i = 0; i < n; i++) { s += x * i; if (s > 100) s -= 7; } return s; }";
        let p = parse_program(src).unwrap();
        let mut results = Vec::new();
        for opt in [OptLevel::O0, OptLevel::O3] {
            let asm = compile_function(&p, "f", CompileOpts::new(Isa::Arm64, opt)).unwrap();
            let file = slade_asm::parse_asm(&asm, slade_asm::Isa::Arm64);
            let mut emu = ArmEmulator::new(file);
            let r = emu.call("f", &[Arg::Int(x as u64), Arg::Int(n as u64)]).unwrap();
            results.push(r as i32);
        }
        prop_assert_eq!(results[0], results[1]);
    }

    /// Cross-ISA agreement: x86 and ARM builds of the same function agree
    /// with each other on every input (both via their emulators).
    #[test]
    fn isas_agree_on_integer_functions(a in -30i64..30, b in -30i64..30) {
        use slade_compiler::{compile_function, CompileOpts, Isa, OptLevel};
        use slade_emu::{Arg, ArmEmulator, Emulator};
        let src = "int f(int a, int b) { int m = a > b ? a : b; return m * 3 - (a ^ b); }";
        let p = parse_program(src).unwrap();
        let x86 = compile_function(&p, "f", CompileOpts::new(Isa::X86_64, OptLevel::O3)).unwrap();
        let arm = compile_function(&p, "f", CompileOpts::new(Isa::Arm64, OptLevel::O3)).unwrap();
        let rx = Emulator::new(slade_asm::parse_asm(&x86, slade_asm::Isa::X86_64))
            .call("f", &[Arg::Int(a as u64), Arg::Int(b as u64)]).unwrap() as i32;
        let ra = ArmEmulator::new(slade_asm::parse_asm(&arm, slade_asm::Isa::Arm64))
            .call("f", &[Arg::Int(a as u64), Arg::Int(b as u64)]).unwrap() as i32;
        prop_assert_eq!(rx, ra);
    }

    /// Pearson correlation is bounded in [-1, 1], symmetric, and exactly
    /// ±1 for perfectly linearly related series.
    #[test]
    fn pearson_properties(xs in prop::collection::vec(-100.0f64..100.0, 3..20), k in 1.0f64..5.0) {
        use slade_eval::pearson;
        let ys: Vec<f64> = xs.iter().map(|v| v * k + 1.0).collect();
        let neg: Vec<f64> = xs.iter().map(|v| -v * k).collect();
        let r = pearson(&xs, &ys);
        // Degenerate (constant) series yield 0 by convention.
        let constant = xs.iter().all(|v| (v - xs[0]).abs() < 1e-12);
        if !constant {
            prop_assert!((r - 1.0).abs() < 1e-6, "r = {r}");
            prop_assert!((pearson(&xs, &neg) + 1.0).abs() < 1e-6);
        }
        prop_assert!((-1.0001..=1.0001).contains(&pearson(&ys, &neg)));
        prop_assert_eq!(pearson(&xs, &ys), pearson(&ys, &xs));
    }

    /// Dataset generation is deterministic in the seed, and different seeds
    /// give different corpora (no accidental global state).
    #[test]
    fn dataset_generation_is_seed_deterministic(seed in 0u64..500) {
        use slade_dataset::{generate_train, DatasetProfile};
        let a = generate_train(DatasetProfile::tiny(), seed);
        let b = generate_train(DatasetProfile::tiny(), seed);
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(&x.func_src, &y.func_src);
            prop_assert_eq!(&x.context_src, &y.context_src);
        }
    }

    /// Tokenizer round-trip through string literals: quoted spaces survive
    /// exactly (the metaspace rule), for arbitrary quoted words.
    #[test]
    fn tokenizer_roundtrip_string_literals(w1 in "[a-z]{1,6}", w2 in "[a-z]{1,6}") {
        let src = format!("char *s = \"{w1} {w2}\";");
        let mut corpus = training_corpus();
        corpus.push(src.clone());
        let tok = UnigramTokenizer::train(&corpus, 200);
        let decoded = tok.decode(&tok.encode(&src));
        prop_assert!(decoded.contains(&format!("\"{w1} {w2}\"")), "{decoded}");
    }

    /// Repairing ground-truth functions from the dataset never modifies
    /// them (repair is conservative on valid code).
    #[test]
    fn repair_never_touches_valid_dataset_items(seed in 0u64..50) {
        use slade_dataset::{generate_train, DatasetProfile};
        use slade_repair::repair;
        let items = generate_train(DatasetProfile { train: 3, exebench_eval: 0, synth_per_category: 0 }, seed);
        for item in &items {
            let report = repair(&item.func_src, &item.context_src);
            prop_assert!(report.was_already_valid(), "item {} was altered", item.name);
        }
    }
}
