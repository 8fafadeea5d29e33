//! The -O3 front end against its oracle. `lower_function` prints, re-parses
//! and re-checks only a program whose loops `looptrans` rewrote; a function
//! it leaves alone is lowered from the program and types it came with. The
//! oracle is the route every function used to take: the transformed
//! program (the original when nothing was rewritten) printed, re-parsed,
//! re-checked and lowered plainly. Both must give the same IR for every
//! function of 300 seed-1 training programs and the emulators' agreement
//! table, on both ISAs. The rewrite counts are those of the loop transforms
//! before they took the caller's types, so a rewrite reported as "nothing
//! changed" fails here too.

#[allow(dead_code)]
#[path = "../../emu/tests/agreement/mod.rs"]
mod agreement;

use slade_compiler::lower::lower_function;
use slade_compiler::{looptrans, CompileError, CompileOpts, Isa, OptLevel};
use slade_dataset::{generate_train, DatasetProfile};
use slade_minic::{parse_program, pretty_program, Program, Sema};

/// The IR of `name` through print → re-parse → re-check → plain lowering.
fn reparsed_route(program: &Program, name: &str, isa: Isa) -> Result<String, CompileError> {
    let reparsed = parse_program(&pretty_program(program))?;
    let tm = Sema::check(&reparsed)?;
    let plain = CompileOpts::new(isa, OptLevel::O0);
    Ok(lower_function(&reparsed, &tm, name, plain)?.display())
}

#[test]
fn o3_lowering_matches_the_reparsed_route() {
    let profile = DatasetProfile { train: 300, ..DatasetProfile::tiny() };
    let sources: Vec<String> = generate_train(profile, 1)
        .iter()
        .map(|item| item.full_src())
        .chain(agreement::ROWS.iter().map(|&(src, _)| src.to_string()))
        .collect();
    // (rewritten, of which vectorized, untouched) per ISA.
    for (isa, counts) in [(Isa::X86_64, (104, 20, 288)), (Isa::Arm64, (104, 0, 288))] {
        let (mut rewritten, mut vectorized, mut untouched) = (0, 0, 0);
        for src in &sources {
            let program = parse_program(src).expect("corpus program parses");
            let tm = Sema::check(&program).expect("corpus program type-checks");
            for f in program.functions() {
                let transformed = looptrans::transform_program(&program, &tm, &f.name, isa);
                match &transformed {
                    Some(t) => {
                        rewritten += 1;
                        vectorized += pretty_program(t).contains("__vec_op_i32") as usize;
                    }
                    None => untouched += 1,
                }
                let oracle =
                    reparsed_route(transformed.as_ref().unwrap_or(&program), &f.name, isa);
                let o3 = CompileOpts::new(isa, OptLevel::O3);
                let direct = lower_function(&program, &tm, &f.name, o3).map(|m| m.display());
                assert_eq!(direct, oracle, "{} {isa:?} in\n{src}", f.name);
            }
        }
        assert_eq!((rewritten, vectorized, untouched), counts, "{isa:?}");
    }
}
