//! Regenerators for every table and figure in the paper's evaluation.
//!
//! [`Reproduction::build`] evaluates each of the eight suite × ISA × opt
//! cells once, with every tool a figure reads; each `figN` renders from
//! those records (Fig. 9 compiles the suite itself: its population is the
//! items that compile). Paper values are embedded for side-by-side
//! comparison; at reproduction scale the *shape* (orderings, collapse
//! points) is the claim, not the absolute numbers.

use crate::metrics::pearson;
use crate::tools::{evaluate, summarize, EvalRecord, Tool, ToolContext};
use slade::TrainProfile;
use slade_compiler::{Isa, OptLevel};
use slade_dataset::{
    generate_exebench_eval, generate_synth, generate_train, DatasetItem, DatasetProfile,
    SYNTH_CATEGORIES,
};
use std::fmt::Write;

/// One suite's records under one ISA × opt configuration.
pub struct Cell {
    /// Target ISA.
    pub isa: Isa,
    /// Optimization level.
    pub opt: OptLevel,
    /// One record per tool per evaluable item (BTC at x86 `-O0` only).
    pub records: Vec<EvalRecord>,
}

/// The evaluation's record table.
pub struct Reproduction {
    /// ExeBench-like cells, in [`CONFIGS`] order.
    pub exebench: Vec<Cell>,
    /// Synth cells, in [`CONFIGS`] order.
    pub synth: Vec<Cell>,
    /// Held-out ExeBench-like items (Fig. 9 compiles them).
    pub exebench_items: Vec<DatasetItem>,
}

/// The four evaluated configurations, in paper order.
pub const CONFIGS: [(Isa, OptLevel); 4] = [
    (Isa::X86_64, OptLevel::O0),
    (Isa::X86_64, OptLevel::O3),
    (Isa::Arm64, OptLevel::O0),
    (Isa::Arm64, OptLevel::O3),
];

impl Reproduction {
    /// Generates datasets, trains each configuration and evaluates its two
    /// cells. This is the expensive step (minutes at the default profile).
    pub fn build(data: DatasetProfile, train_profile: TrainProfile, seed: u64) -> Self {
        let train = generate_train(data, seed);
        let exebench_items = generate_exebench_eval(data, seed, &train);
        let synth_items = generate_synth(data, seed, &train);
        // Every tool a figure reads; `evaluate` skips BTC where it is not
        // trained.
        let tools = [Tool::Btc, Tool::ChatGpt, Tool::Ghidra, Tool::Slade, Tool::SladeNoTypes];
        let (mut exebench, mut synth) = (Vec::new(), Vec::new());
        for &(isa, opt) in &CONFIGS {
            let ctx = ToolContext::train(&train, isa, opt, train_profile, seed);
            let suites = [(&mut exebench, &exebench_items), (&mut synth, &synth_items)];
            for (cells, items) in suites {
                cells.push(Cell { isa, opt, records: evaluate(&ctx, items, &tools) });
            }
        }
        Reproduction { exebench, synth, exebench_items }
    }
}

/// The records of a configuration's cell.
fn records_of(cells: &[Cell], isa: Isa, opt: OptLevel) -> &[EvalRecord] {
    let cell = cells.iter().find(|c| c.isa == isa && c.opt == opt);
    &cell.expect("every configuration evaluated").records
}

/// IO accuracy and edit similarity of each tool the paper reports for
/// the cell, against the paper's values.
fn bars(out: &mut String, title: &str, records: &[EvalRecord], paper: &[(Tool, f64, f64)]) {
    let _ = writeln!(out, "== {title} ==");
    let _ = writeln!(
        out,
        "{:<18} {:>12} {:>12} {:>14} {:>14}",
        "tool", "IO acc %", "edit sim %", "paper IO %", "paper sim %"
    );
    for &(tool, pacc, psim) in paper {
        let (acc, sim) = summarize(records, tool);
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
    let paper_o0: &[(Tool, f64, f64)] = &[
        (Tool::Btc, 0.0, 40.0),
        (Tool::ChatGpt, 22.2, 44.0),
        (Tool::Ghidra, 50.8, 43.0),
        (Tool::Slade, 59.5, 71.0),
    ];
    let paper_o3: &[(Tool, f64, f64)] =
        &[(Tool::ChatGpt, 13.6, 34.0), (Tool::Ghidra, 17.6, 32.0), (Tool::Slade, 52.2, 60.0)];
    for (opt, paper) in [(OptLevel::O0, paper_o0), (OptLevel::O3, paper_o3)] {
        let records = records_of(&repro.exebench, Isa::X86_64, opt);
        bars(&mut out, &format!("Fig 4: ExeBench x86 {opt}"), records, paper);
    }
    out
}

/// Figure 5: ExeBench ARM, `-O0` and `-O3`.
pub fn fig5(repro: &Reproduction) -> String {
    let mut out = String::new();
    let paper_o0: &[(Tool, f64, f64)] =
        &[(Tool::ChatGpt, 17.4, 40.0), (Tool::Ghidra, 23.4, 37.0), (Tool::Slade, 52.7, 61.0)];
    let paper_o3: &[(Tool, f64, f64)] =
        &[(Tool::ChatGpt, 15.7, 31.0), (Tool::Ghidra, 7.3, 27.0), (Tool::Slade, 46.2, 55.0)];
    for (opt, paper) in [(OptLevel::O0, paper_o0), (OptLevel::O3, paper_o3)] {
        let records = records_of(&repro.exebench, Isa::Arm64, opt);
        bars(&mut out, &format!("Fig 5: ExeBench ARM {opt}"), records, paper);
    }
    out
}

/// Figure 6: Synth `-O0`, x86 and ARM.
pub fn fig6(repro: &Reproduction) -> String {
    let mut out = String::new();
    let paper_x86: &[(Tool, f64, f64)] = &[
        (Tool::Btc, 0.0, 44.0),
        (Tool::ChatGpt, 46.4, 66.0),
        (Tool::Ghidra, 88.4, 32.0),
        (Tool::Slade, 83.9, 74.0),
    ];
    let paper_arm: &[(Tool, f64, f64)] =
        &[(Tool::ChatGpt, 39.3, 63.0), (Tool::Ghidra, 91.1, 32.0), (Tool::Slade, 77.7, 69.0)];
    for (isa, paper) in [(Isa::X86_64, paper_x86), (Isa::Arm64, paper_arm)] {
        let records = records_of(&repro.synth, isa, OptLevel::O0);
        bars(&mut out, &format!("Fig 6: Synth O0 {isa}"), records, paper);
    }
    out
}

/// Figure 7: Synth `-O3`, x86 and ARM.
pub fn fig7(repro: &Reproduction) -> String {
    let mut out = String::new();
    let paper_x86: &[(Tool, f64, f64)] =
        &[(Tool::ChatGpt, 12.5, 33.0), (Tool::Ghidra, 44.6, 19.0), (Tool::Slade, 52.7, 55.0)];
    let paper_arm: &[(Tool, f64, f64)] =
        &[(Tool::ChatGpt, 12.5, 30.0), (Tool::Ghidra, 24.1, 16.0), (Tool::Slade, 53.6, 59.0)];
    for (isa, paper) in [(Isa::X86_64, paper_x86), (Isa::Arm64, paper_arm)] {
        let records = records_of(&repro.synth, isa, OptLevel::O3);
        bars(&mut out, &format!("Fig 7: Synth O3 {isa}"), records, paper);
    }
    out
}

/// Figure 8: IO accuracy vs assembly length (ExeBench x86 -O0), bucketed.
pub fn fig8(repro: &Reproduction) -> String {
    let records = records_of(&repro.exebench, Isa::X86_64, OptLevel::O0);
    let mut out = String::new();
    let _ = writeln!(out, "== Fig 8: IO accuracy vs assembly length (x86 O0) ==");
    let max_len = records.iter().map(|r| r.asm_chars).max().unwrap_or(1);
    let buckets = 4usize;
    let _ = writeln!(out, "{:<18} accuracy per length quartile (short → long)", "tool");
    for tool in [Tool::ChatGpt, Tool::Ghidra, Tool::Slade] {
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
    let opts = slade_compiler::CompileOpts::new(Isa::X86_64, OptLevel::O0);
    let mut lens: Vec<usize> = repro
        .exebench_items
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
    for (suite_name, cells) in [("Synth", &repro.synth), ("Exe", &repro.exebench)] {
        for &(isa, opt) in &CONFIGS {
            let records = records_of(cells, isa, opt);
            let (with, _) = summarize(records, Tool::Slade);
            let (without, _) = summarize(records, Tool::SladeNoTypes);
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
        let records = records_of(&repro.synth, isa, OptLevel::O3);
        let tools = [Tool::ChatGpt, Tool::Ghidra, Tool::Slade];
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
        let records = records_of(&repro.exebench, isa, opt);
        let _ = writeln!(out, "-- {isa} {opt} --");
        let _ = writeln!(
            out,
            "{:<16} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "tool", "compiles", "edit sim", "asm len", "C len", "#args", "#ptrs"
        );
        for tool in [Tool::ChatGpt, Tool::Ghidra, Tool::Slade] {
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

#[cfg(test)]
mod tests {
    use super::*;
    use slade_dataset::Category;

    fn record(tool: Tool, asm_chars: usize, correct: bool) -> EvalRecord {
        EvalRecord {
            tool,
            item: String::new(),
            category: Category::SimplInt,
            compiles: correct,
            correct,
            edit_sim: Some(if correct { 1.0 } else { 0.5 }),
            asm_chars,
            c_chars: 10,
            num_args: 1,
            num_pointers: 0,
        }
    }

    fn exebench(cells: Vec<(OptLevel, Vec<EvalRecord>)>) -> Reproduction {
        let exebench =
            cells.into_iter().map(|(opt, records)| Cell { isa: Isa::X86_64, opt, records });
        Reproduction {
            exebench: exebench.collect(),
            synth: Vec::new(),
            exebench_items: Vec::new(),
        }
    }

    #[test]
    fn fig8_buckets_accuracy_by_assembly_length() {
        // Quartiles of the longest assembly (100 chars): (0, 25], (25, 50],
        // (50, 75], (75, 100].
        let slade = [(10, true), (40, false), (60, true), (90, false), (100, true)];
        let records = slade.map(|(len, ok)| record(Tool::Slade, len, ok)).to_vec();
        let report = fig8(&exebench(vec![(OptLevel::O0, records)]));
        let cols = |tool: Tool| -> Vec<String> {
            let row = report.lines().find(|l| l.starts_with(tool.label())).expect("row");
            row.split_whitespace().skip(1).map(String::from).collect()
        };
        assert_eq!(cols(Tool::Slade), ["100.0", "0.0", "100.0", "50.0"], "{report}");
        assert_eq!(cols(Tool::ChatGpt), ["-", "-", "-", "-"], "{report}");
    }

    #[test]
    fn fig4_reads_each_cell_and_shows_btc_at_o0_only() {
        let o0 = [Tool::Btc, Tool::Slade, Tool::SladeNoTypes]
            .map(|tool| record(tool, 50, tool == Tool::Slade))
            .to_vec();
        let o3 = vec![record(Tool::Slade, 50, false), record(Tool::Slade, 60, true)];
        let report = fig4(&exebench(vec![(OptLevel::O0, o0), (OptLevel::O3, o3)]));
        let (o0, o3) = report.split_once("== Fig 4: ExeBench x86 O3 ==").expect("two panels");
        let row = |panel: &str, tool: Tool| -> Vec<String> {
            let row = panel.lines().find(|l| l.starts_with(&format!("{} ", tool.label())));
            row.expect("row").split_whitespace().skip(1).map(String::from).collect()
        };
        // IO accuracy, edit similarity, then the paper's two values.
        assert_eq!(row(o0, Tool::Btc)[..2], ["0.0", "50.0"], "{report}");
        assert_eq!(row(o0, Tool::Slade)[..2], ["100.0", "100.0"], "{report}");
        assert_eq!(row(o3, Tool::Slade)[..2], ["50.0", "75.0"], "{report}");
        assert!(!o3.contains("BTC") && !report.contains("w/out"), "{report}");
    }
}
