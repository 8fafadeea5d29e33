//! Evaluation harness for the SLaDe reproduction: metrics, IO-equivalence
//! testing, tool dispatch, and regenerators for every figure and table in
//! the paper's evaluation (Figures 4–11 and Table I).
//!
//! Entry points:
//! - [`harness::judge`] — IO-equivalence verdict for one hypothesis;
//! - [`tools::evaluate`] — run a set of decompilers over a dataset;
//! - [`figures::Reproduction::build`] — evaluate each suite × ISA × opt
//!   cell once; [`figures::run_all`] renders every figure and table from
//!   those records;
//! - [`ablations::run_all_ablations`] — the recipe ablations and §X
//!   extensions around one base model.
//!
//! The `figures` binary runs both (`figures [tiny] [ablations]`).
//!
//! # Example
//!
//! ```no_run
//! use slade_eval::figures::{run_all, Reproduction};
//! use slade::TrainProfile;
//! use slade_dataset::DatasetProfile;
//!
//! let repro = Reproduction::build(DatasetProfile::tiny(), TrainProfile::demo(), 0);
//! println!("{}", run_all(&repro));
//! ```

#![warn(missing_docs)]

pub mod ablations;
pub mod figures;
pub mod harness;
pub mod metrics;
pub mod tools;

pub use ablations::{run_all_ablations, AblationSetup};
pub use harness::{judge, observe, reference_observations, CallObservation, Verdict};
pub use metrics::{edit_distance, edit_similarity, pearson};
pub use tools::{evaluate, summarize, EvalRecord, Tool, ToolContext};

#[cfg(test)]
mod tests {
    use super::*;
    use slade::TrainProfile;
    use slade_compiler::{Isa, OptLevel};
    use slade_dataset::{generate_exebench_eval, generate_train, DatasetProfile};

    /// End-to-end smoke test: train a tiny SLaDe, evaluate all tools on a
    /// tiny held-out set, and sanity-check the structural expectations that
    /// do not depend on model quality.
    #[test]
    fn tiny_end_to_end_evaluation() {
        let data = DatasetProfile::tiny();
        let train = generate_train(data, 42);
        let eval_items = generate_exebench_eval(data, 42, &train);
        let ctx = tools::ToolContext::train(
            &train,
            Isa::X86_64,
            OptLevel::O0,
            TrainProfile::tiny(),
            42,
        );
        let records =
            evaluate(&ctx, &eval_items, &[Tool::Slade, Tool::Ghidra, Tool::ChatGpt, Tool::Btc]);
        assert!(!records.is_empty());
        // Ghidra at O0 on simple items should mostly lift & compile.
        let ghidra: Vec<&EvalRecord> =
            records.iter().filter(|r| r.tool == Tool::Ghidra).collect();
        let compiled = ghidra.iter().filter(|r| r.compiles).count();
        assert!(
            compiled * 2 >= ghidra.len(),
            "lifter compiled only {compiled}/{}",
            ghidra.len()
        );
        // Every record carries features for Table I.
        assert!(records.iter().all(|r| r.asm_chars > 0 && r.c_chars > 0));
    }

    #[test]
    fn summarize_is_percentage_bounded() {
        let data = DatasetProfile::tiny();
        let train = generate_train(data, 7);
        let ctx = tools::ToolContext::train(
            &train,
            Isa::X86_64,
            OptLevel::O0,
            TrainProfile::tiny(),
            7,
        );
        let eval_items = generate_exebench_eval(data, 7, &train);
        let records = evaluate(&ctx, &eval_items, &[Tool::Ghidra]);
        let (acc, sim) = summarize(&records, Tool::Ghidra);
        assert!((0.0..=100.0).contains(&acc));
        assert!((0.0..=100.0).contains(&sim));
    }
}
