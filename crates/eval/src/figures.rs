//! Regenerators for every table and figure in the paper's evaluation.
//!
//! Each `figN_*` function returns the printed report as a `String` (also
//! suitable for EXPERIMENTS.md) so the bench harness, the `figures` binary
//! and the tests share one implementation. Paper values are embedded for
//! side-by-side comparison; at reproduction scale the *shape* (orderings,
//! collapse points) is the claim, not the absolute numbers.

use crate::metrics::pearson;
use crate::tools::{evaluate, summarize, EvalRecord, Tool, ToolContext};
use slade::TrainProfile;
use slade_compiler::{Isa, OptLevel};
use slade_dataset::{
    generate_exebench_eval, generate_synth, generate_train, DatasetItem, DatasetProfile,
    SYNTH_CATEGORIES,
};
use std::fmt::Write;

/// Everything needed to reproduce the evaluation: trained tool contexts for
/// all four ISA × opt configurations plus the eval sets.
pub struct Reproduction {
    /// Tool contexts in the order (x86 O0, x86 O3, ARM O0, ARM O3).
    pub contexts: Vec<ToolContext>,
    /// Held-out ExeBench-like items.
    pub exebench: Vec<DatasetItem>,
    /// Synth suite items.
    pub synth: Vec<DatasetItem>,
}

/// The four evaluated configurations, in paper order.
pub const CONFIGS: [(Isa, OptLevel); 4] = [
    (Isa::X86_64, OptLevel::O0),
    (Isa::X86_64, OptLevel::O3),
    (Isa::Arm64, OptLevel::O0),
    (Isa::Arm64, OptLevel::O3),
];

impl Reproduction {
    /// Generates datasets and trains the four configurations. This is the
    /// expensive step (minutes at the default profile on one core); reuse
    /// the value across figures.
    pub fn build(data: DatasetProfile, train_profile: TrainProfile, seed: u64) -> Self {
        let train = generate_train(data, seed);
        let exebench = generate_exebench_eval(data, seed, &train);
        let synth = generate_synth(data, seed, &train);
        let contexts = CONFIGS
            .iter()
            .map(|&(isa, opt)| ToolContext::train(&train, isa, opt, train_profile, seed))
            .collect();
        Reproduction { contexts, exebench, synth }
    }

    /// The context for a configuration.
    pub fn context(&self, isa: Isa, opt: OptLevel) -> &ToolContext {
        self.contexts
            .iter()
            .find(|c| c.isa == isa && c.opt == opt)
            .expect("all four configs built")
    }
}

fn tools_for(isa: Isa, opt: OptLevel, include_ablation: bool) -> Vec<Tool> {
    let mut tools = Vec::new();
    if isa == Isa::X86_64 && opt == OptLevel::O0 {
        tools.push(Tool::Btc);
    }
    tools.push(Tool::ChatGpt);
    tools.push(Tool::Ghidra);
    tools.push(Tool::Slade);
    if include_ablation {
        tools.push(Tool::SladeNoTypes);
    }
    tools
}

fn bars(
    out: &mut String,
    title: &str,
    records: &[EvalRecord],
    tools: &[Tool],
    paper: &[(&str, f64, f64)],
) {
    let _ = writeln!(out, "== {title} ==");
    let _ = writeln!(
        out,
        "{:<18} {:>12} {:>12} {:>14} {:>14}",
        "tool", "IO acc %", "edit sim %", "paper IO %", "paper sim %"
    );
    for &tool in tools {
        let (acc, sim) = summarize(records, tool);
        let (pacc, psim) = paper
            .iter()
            .find(|(name, ..)| *name == tool.label())
            .map(|(_, a, s)| (*a, *s))
            .unwrap_or((f64::NAN, f64::NAN));
        let _ = writeln!(
            out,
            "{:<18} {:>12.1} {:>12.1} {:>14.1} {:>14.1}",
            tool.label(),
            acc,
            sim,
            pacc,
            psim
        );
    }
}

/// Figure 4: ExeBench x86, `-O0` and `-O3`.
pub fn fig4(repro: &Reproduction) -> String {
    let mut out = String::new();
    let paper_o0: &[(&str, f64, f64)] = &[
        ("BTC", 0.0, 40.0),
        ("ChatGPT", 22.2, 44.0),
        ("Ghidra", 50.8, 43.0),
        ("SLaDe", 59.5, 71.0),
    ];
    let paper_o3: &[(&str, f64, f64)] =
        &[("ChatGPT", 13.6, 34.0), ("Ghidra", 17.6, 32.0), ("SLaDe", 52.2, 60.0)];
    for (opt, paper) in [(OptLevel::O0, paper_o0), (OptLevel::O3, paper_o3)] {
        let ctx = repro.context(Isa::X86_64, opt);
        let tools = tools_for(Isa::X86_64, opt, false);
        let records = evaluate(ctx, &repro.exebench, &tools);
        bars(&mut out, &format!("Fig 4: ExeBench x86 {opt}"), &records, &tools, paper);
    }
    out
}

/// Figure 5: ExeBench ARM, `-O0` and `-O3`.
pub fn fig5(repro: &Reproduction) -> String {
    let mut out = String::new();
    let paper_o0: &[(&str, f64, f64)] =
        &[("ChatGPT", 17.4, 40.0), ("Ghidra", 23.4, 37.0), ("SLaDe", 52.7, 61.0)];
    let paper_o3: &[(&str, f64, f64)] =
        &[("ChatGPT", 15.7, 31.0), ("Ghidra", 7.3, 27.0), ("SLaDe", 46.2, 55.0)];
    for (opt, paper) in [(OptLevel::O0, paper_o0), (OptLevel::O3, paper_o3)] {
        let ctx = repro.context(Isa::Arm64, opt);
        let tools = tools_for(Isa::Arm64, opt, false);
        let records = evaluate(ctx, &repro.exebench, &tools);
        bars(&mut out, &format!("Fig 5: ExeBench ARM {opt}"), &records, &tools, paper);
    }
    out
}

/// Figure 6: Synth `-O0`, x86 and ARM.
pub fn fig6(repro: &Reproduction) -> String {
    let mut out = String::new();
    let paper_x86: &[(&str, f64, f64)] = &[
        ("BTC", 0.0, 44.0),
        ("ChatGPT", 46.4, 66.0),
        ("Ghidra", 88.4, 32.0),
        ("SLaDe", 83.9, 74.0),
    ];
    let paper_arm: &[(&str, f64, f64)] =
        &[("ChatGPT", 39.3, 63.0), ("Ghidra", 91.1, 32.0), ("SLaDe", 77.7, 69.0)];
    for (isa, paper) in [(Isa::X86_64, paper_x86), (Isa::Arm64, paper_arm)] {
        let ctx = repro.context(isa, OptLevel::O0);
        let tools = tools_for(isa, OptLevel::O0, false);
        let records = evaluate(ctx, &repro.synth, &tools);
        bars(&mut out, &format!("Fig 6: Synth O0 {isa}"), &records, &tools, paper);
    }
    out
}

/// Figure 7: Synth `-O3`, x86 and ARM.
pub fn fig7(repro: &Reproduction) -> String {
    let mut out = String::new();
    let paper_x86: &[(&str, f64, f64)] =
        &[("ChatGPT", 12.5, 33.0), ("Ghidra", 44.6, 19.0), ("SLaDe", 52.7, 55.0)];
    let paper_arm: &[(&str, f64, f64)] =
        &[("ChatGPT", 12.5, 30.0), ("Ghidra", 24.1, 16.0), ("SLaDe", 53.6, 59.0)];
    for (isa, paper) in [(Isa::X86_64, paper_x86), (Isa::Arm64, paper_arm)] {
        let ctx = repro.context(isa, OptLevel::O3);
        let tools = tools_for(isa, OptLevel::O3, false);
        let records = evaluate(ctx, &repro.synth, &tools);
        bars(&mut out, &format!("Fig 7: Synth O3 {isa}"), &records, &tools, paper);
    }
    out
}

/// Figure 8: IO accuracy vs assembly length (ExeBench x86 -O0), bucketed.
pub fn fig8(repro: &Reproduction) -> String {
    let ctx = repro.context(Isa::X86_64, OptLevel::O0);
    let tools = [Tool::ChatGpt, Tool::Ghidra, Tool::Slade];
    let records = evaluate(ctx, &repro.exebench, &tools);
    let mut out = String::new();
    let _ = writeln!(out, "== Fig 8: IO accuracy vs assembly length (x86 O0) ==");
    let max_len = records.iter().map(|r| r.asm_chars).max().unwrap_or(1);
    let buckets = 4usize;
    let _ = writeln!(out, "{:<18} accuracy per length quartile (short → long)", "tool");
    for tool in tools {
        let mut row = format!("{:<18}", tool.label());
        for b in 0..buckets {
            let lo = max_len * b / buckets;
            let hi = max_len * (b + 1) / buckets;
            let in_bucket: Vec<&EvalRecord> = records
                .iter()
                .filter(|r| r.tool == tool && r.asm_chars > lo && r.asm_chars <= hi)
                .collect();
            if in_bucket.is_empty() {
                row.push_str("     -  ");
            } else {
                let acc = 100.0 * in_bucket.iter().filter(|r| r.correct).count() as f64
                    / in_bucket.len() as f64;
                row.push_str(&format!(" {acc:>6.1} "));
            }
        }
        let _ = writeln!(out, "{row}");
    }
    let _ =
        writeln!(out, "paper shape: all tools decline with length; neural decline steeper.");
    out
}

/// Figure 9: distribution of assembly lengths (character counts).
pub fn fig9(repro: &Reproduction) -> String {
    let ctx = repro.context(Isa::X86_64, OptLevel::O0);
    let opts = slade_compiler::CompileOpts::new(ctx.isa, ctx.opt);
    let mut lens: Vec<usize> = repro
        .exebench
        .iter()
        .filter_map(|item| {
            let p = slade_minic::parse_program(&item.full_src()).ok()?;
            slade_compiler::compile_function(&p, &item.name, opts).ok().map(|a| a.len())
        })
        .collect();
    lens.sort_unstable();
    let mut out = String::new();
    let _ = writeln!(out, "== Fig 9: assembly length distribution (chars, x86 O0) ==");
    if lens.is_empty() {
        return out;
    }
    let max = *lens.last().unwrap();
    let buckets = 8usize;
    for b in 0..buckets {
        let lo = max * b / buckets;
        let hi = max * (b + 1) / buckets;
        let n = lens.iter().filter(|&&l| l > lo && l <= hi).count();
        let _ = writeln!(out, "{:>6}-{:<6} {:>4} {}", lo, hi, n, "#".repeat(n.min(60)));
    }
    let median = lens[lens.len() / 2];
    let _ =
        writeln!(out, "median {median} chars — paper shape: strong bias to short functions.");
    out
}

/// Figure 10: type-inference ablation across all eight suite × config cells.
pub fn fig10(repro: &Reproduction) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Fig 10: SLaDe with vs without type inference ==");
    let _ = writeln!(out, "{:<22} {:>12} {:>16}", "configuration", "SLaDe %", "w/out types %");
    for (suite_name, items) in [("Synth", &repro.synth), ("Exe", &repro.exebench)] {
        for &(isa, opt) in &CONFIGS {
            let ctx = repro.context(isa, opt);
            let records = evaluate(ctx, items, &[Tool::Slade, Tool::SladeNoTypes]);
            let (with, _) = summarize(&records, Tool::Slade);
            let (without, _) = summarize(&records, Tool::SladeNoTypes);
            let _ = writeln!(
                out,
                "{:<22} {:>12.1} {:>16.1}",
                format!("{suite_name}-{opt}-{isa}"),
                with,
                without
            );
        }
    }
    let _ = writeln!(out, "paper shape: type inference adds ~14% on average (never hurts).");
    out
}

/// Figure 11: per-category IO accuracy on Synth `-O3` for both ISAs.
pub fn fig11(repro: &Reproduction) -> String {
    let mut out = String::new();
    for isa in [Isa::X86_64, Isa::Arm64] {
        let ctx = repro.context(isa, OptLevel::O3);
        let tools = [Tool::ChatGpt, Tool::Ghidra, Tool::Slade];
        let records = evaluate(ctx, &repro.synth, &tools);
        let _ = writeln!(out, "== Fig 11: Synth O3 {isa} per-category IO accuracy ==");
        let _ = write!(out, "{:<14}", "category");
        for t in tools {
            let _ = write!(out, "{:>12}", t.label());
        }
        let _ = writeln!(out);
        for cat in SYNTH_CATEGORIES {
            let _ = write!(out, "{:<14}", format!("{cat:?}"));
            for tool in tools {
                let cat_recs: Vec<&EvalRecord> =
                    records.iter().filter(|r| r.tool == tool && r.category == cat).collect();
                if cat_recs.is_empty() {
                    let _ = write!(out, "{:>12}", "-");
                } else {
                    let acc = 100.0 * cat_recs.iter().filter(|r| r.correct).count() as f64
                        / cat_recs.len() as f64;
                    let _ = write!(out, "{acc:>12.1}");
                }
            }
            let _ = writeln!(out);
        }
    }
    let _ = writeln!(out, "paper shape: simpl_int easiest, Sketchadapt hardest for SLaDe.");
    out
}

/// Table I: Pearson correlation of features vs IO accuracy.
pub fn table1(repro: &Reproduction) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Table I: Pearson correlation of features vs IO accuracy ==");
    for &(isa, opt) in &CONFIGS {
        let ctx = repro.context(isa, opt);
        let tools = [Tool::ChatGpt, Tool::Ghidra, Tool::Slade];
        let records = evaluate(ctx, &repro.exebench, &tools);
        let _ = writeln!(out, "-- {isa} {opt} --");
        let _ = writeln!(
            out,
            "{:<16} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "tool", "compiles", "edit sim", "asm len", "C len", "#args", "#ptrs"
        );
        for tool in tools {
            let recs: Vec<&EvalRecord> = records.iter().filter(|r| r.tool == tool).collect();
            let correct: Vec<f64> = recs.iter().map(|r| r.correct as u8 as f64).collect();
            let series = [
                recs.iter().map(|r| r.compiles as u8 as f64).collect::<Vec<f64>>(),
                recs.iter().map(|r| r.edit_sim.unwrap_or(0.0)).collect(),
                recs.iter().map(|r| r.asm_chars as f64).collect(),
                recs.iter().map(|r| r.c_chars as f64).collect(),
                recs.iter().map(|r| r.num_args as f64).collect(),
                recs.iter().map(|r| r.num_pointers as f64).collect(),
            ];
            let _ = write!(out, "{:<16}", tool.label());
            for s in &series {
                let _ = write!(out, " {:>10.2}", pearson(s, &correct));
            }
            let _ = writeln!(out);
        }
    }
    let _ = writeln!(
        out,
        "paper shape: compiles correlates strongly (weakest for ChatGPT); edit sim correlates for neural tools; lengths correlate negatively."
    );
    out
}

/// Runs every figure and table, returning the combined report.
pub fn run_all(repro: &Reproduction) -> String {
    let mut out = String::new();
    for (name, text) in [
        ("fig4", fig4(repro)),
        ("fig5", fig5(repro)),
        ("fig6", fig6(repro)),
        ("fig7", fig7(repro)),
        ("fig8", fig8(repro)),
        ("fig9", fig9(repro)),
        ("fig10", fig10(repro)),
        ("fig11", fig11(repro)),
        ("table1", table1(repro)),
    ] {
        let _ = writeln!(out, "\n#### {name} ####");
        out.push_str(&text);
    }
    out
}
