//! Pins what the lifter emits, byte for byte, on a fixed corpus: every item
//! of three tiny training sets, compiled for both ISAs at -O0 and -O3. A
//! change to the lifter that moves any output — an `Ok` text or an `Err`
//! message — moves the digest. The value is what the lifter printed once
//! both ISAs' instructions decoded to `slade_asm::sem` ops with one
//! printer.

use slade_asm::parse_asm;
use slade_baselines::lift;
use slade_compiler::{compile_function, CompileOpts, Isa, OptLevel};
use slade_dataset::{generate_train, DatasetProfile};

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

#[test]
fn lifter_output_is_pinned_on_the_tiny_corpus() {
    let mut text = String::new();
    let (mut lifted, mut failed) = (0, 0);
    for seed in [1, 2, 3] {
        for item in generate_train(DatasetProfile::tiny(), seed) {
            let program = slade_minic::parse_program(&item.full_src()).expect("item parses");
            for isa in [Isa::X86_64, Isa::Arm64] {
                for opt in [OptLevel::O0, OptLevel::O3] {
                    let opts = CompileOpts::new(isa, opt);
                    let Ok(asm) = compile_function(&program, &item.name, opts) else {
                        continue;
                    };
                    let file = parse_asm(&asm, isa);
                    let func = file.function(&item.name).expect("compiled function is present");
                    let out = match lift(func, isa, &file.rodata) {
                        Ok(c) => {
                            lifted += 1;
                            c
                        }
                        Err(e) => {
                            failed += 1;
                            e.to_string()
                        }
                    };
                    text.push_str(&format!("== {} {isa:?} {opt}\n{out}\n", item.name));
                }
            }
        }
    }
    assert!(
        lifted >= 400 && failed >= 1,
        "corpus covers both outcomes: {lifted} ok, {failed} err"
    );
    assert_eq!(fnv1a64(text.as_bytes()), 0xdde1_3284_c8dc_0ff8, "{lifted} ok, {failed} err");
}
