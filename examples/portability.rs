//! Portability: the paper's headline property is that one neural recipe
//! retargets to a new ISA with *zero* engineering effort — "the first
//! neural decompiler to be applied across ISAs and optimization levels".
//!
//! This example trains the identical pipeline twice, once on x86-64 and
//! once on AArch64 assembly of the same functions, then decompiles the
//! same held-out function from both ISAs' assembly.
//!
//! Run with: `cargo run --example portability --release`

use slade::{SladeBuilder, TrainProfile};
use slade_compiler::{compile_function, CompileOpts, Isa, OptLevel};
use slade_dataset::{generate_exebench_eval, generate_train, DatasetProfile};
use slade_eval::{judge, reference_observations};
use slade_minic::parse_program;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data = DatasetProfile { train: 250, exebench_eval: 12, synth_per_category: 2 };
    let train_items = generate_train(data, 21);
    let eval_items = generate_exebench_eval(data, 21, &train_items);
    let item = &eval_items[0];
    let program = parse_program(&item.full_src())?;
    println!("--- ground truth ---\n{}", item.func_src);

    for isa in [Isa::X86_64, Isa::Arm64] {
        // Same recipe, same hyperparameters, different ISA — the only
        // change is which backend produced the training assembly.
        println!("\n================ {isa} ================");
        let slade = SladeBuilder::new(isa, OptLevel::O0)
            .profile(TrainProfile::demo())
            .train(&train_items, 21);
        let asm = compile_function(&program, &item.name, CompileOpts::new(isa, OptLevel::O0))?;
        println!(
            "assembly: {} lines, first line: {:?}",
            asm.lines().count(),
            asm.lines().next().unwrap_or("")
        );
        let reference = reference_observations(item).map_err(std::io::Error::other)?;
        let candidates = slade.decompile_with_types(&asm, &item.context_src);
        let mut selected = false;
        for (rank, (hypothesis, header)) in candidates.iter().enumerate() {
            let verdict = judge(item, &reference, hypothesis, header);
            if verdict.correct {
                println!("candidate {rank} passes the IO tests:\n{hypothesis}");
                selected = true;
                break;
            }
        }
        if !selected {
            println!(
                "no candidate passed IO at this tiny scale; top beam:\n{}",
                candidates.first().map(|(h, _)| h.as_str()).unwrap_or("<none>")
            );
        }
    }
    println!(
        "\nThe point: retargeting required no new rules, no new lifter — only \
         assembly from a different backend. (Compare Ghidra's per-ISA effort.)"
    );
    Ok(())
}
