//! Ablations of the paper's design choices and implementations of its §X
//! future-work directions, measured end to end.
//!
//! The paper motivates, but does not tabulate, several recipe decisions:
//! dropout-free regularization (§I, §V-C), the code tokenizer's
//! digit-by-digit and punctuation-splitting rules (§IV), the 8k "small"
//! vocabulary (§IV), and beam width k = 5 (§VI-A). Section X additionally
//! names pre-training, program repair and neural/analytic integration as
//! future work. Each experiment here isolates one of those choices on one
//! configuration (ExeBench-like, x86, the cheapest cell) and reports the
//! same metrics as the main figures plus the held-out teacher-forced loss
//! and token accuracy, which are more sensitive at reproduction scale.
//!
//! The base model (x86 `-O0`, the setup's profile and seed) is trained,
//! evaluated and scored once per [`AblationSetup`]; every row of the same
//! [`TrainProfile`] reads that run, and the beam ablation re-decodes it.
//! Each runner returns its report as a `String` (the `figures ablations`
//! binary prints them all).

use crate::metrics::edit_similarity;
use crate::tools::{evaluate, summarize, EvalRecord, Tool, ToolContext};
use slade::{make_pairs, Slade, SladeBuilder, TrainProfile};
use slade_compiler::{Isa, OptLevel};
use slade_dataset::{generate_exebench_eval, generate_train, DatasetItem, DatasetProfile};
use slade_tokenizer::{special, TokenizerOptions, WordTokenizer};
use std::fmt::Write;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Shared inputs for the ablation suite: one train set, one held-out
/// ExeBench-like eval set, and the base training profile to perturb.
pub struct AblationSetup {
    /// Training items.
    pub train: Vec<DatasetItem>,
    /// Held-out items (token-hash deduplicated against `train`).
    pub eval: Vec<DatasetItem>,
    /// The unperturbed (paper-recipe) profile.
    pub profile: TrainProfile,
    /// Seed for training and evaluation.
    pub seed: u64,
    /// The base model and its run, made on first use from the fields
    /// above.
    base: OnceLock<Base>,
}

/// The x86 `-O0` model trained under the setup's own profile, and its run
/// with every tool a report reads from it.
struct Base {
    slade: Arc<Slade>,
    run: Run,
}

/// One trained variant's held-out statistics, vocabulary and records.
struct Run {
    loss: f64,
    tok_acc: f64,
    vocab: usize,
    records: Vec<EvalRecord>,
}

impl AblationSetup {
    /// Generates datasets for the suite.
    pub fn build(data: DatasetProfile, profile: TrainProfile, seed: u64) -> Self {
        let train = generate_train(data, seed);
        let eval = generate_exebench_eval(data, seed, &train);
        AblationSetup { train, eval, profile, seed, base: OnceLock::new() }
    }

    fn base(&self) -> &Base {
        self.base.get_or_init(|| {
            let slade = Arc::new(self.train_slade(OptLevel::O0, self.profile));
            let tools = [Tool::Slade, Tool::SladeRepair, Tool::Ghidra, Tool::Hybrid];
            let run = self.run(&slade, &tools);
            Base { slade, run }
        })
    }

    fn train_slade(&self, opt: OptLevel, profile: TrainProfile) -> Slade {
        SladeBuilder::new(Isa::X86_64, opt).profile(profile).train(&self.train, self.seed)
    }

    /// Evaluates `slade` on the held-out items; no baseline is trained.
    fn evaluate(&self, slade: &Arc<Slade>, tools: &[Tool]) -> Vec<EvalRecord> {
        let ctx = ToolContext {
            isa: slade.isa(),
            opt: slade.opt(),
            slade: Arc::clone(slade),
            chatgpt: None,
            btc: None,
        };
        evaluate(&ctx, &self.eval, tools)
    }

    fn run(&self, slade: &Arc<Slade>, tools: &[Tool]) -> Run {
        let (loss, tok_acc) = heldout_stats(slade, self);
        let vocab = slade.tokenizer.vocab_size();
        Run { loss, tok_acc, vocab, records: self.evaluate(slade, tools) }
    }
}

/// Held-out teacher-forced statistics of a trained model over the eval
/// pairs: `(mean_loss, token_accuracy)`.
fn heldout_stats(slade: &Slade, setup: &AblationSetup) -> (f64, f64) {
    let pairs = make_pairs(&setup.eval, slade.isa(), slade.opt());
    let mut loss_sum = 0.0f64;
    let mut acc_sum = 0.0f64;
    let mut n = 0usize;
    for (asm, c) in &pairs {
        let src = slade.tokenizer.encode(asm);
        let tgt = slade.tokenizer.encode(c);
        let max_len = slade.model.cfg.max_len.saturating_sub(2);
        if src.is_empty() || tgt.is_empty() || tgt.len() + 1 > max_len {
            continue;
        }
        let mut dec_input = vec![special::BOS];
        dec_input.extend_from_slice(&tgt);
        let mut labels = tgt.clone();
        labels.push(special::EOS);
        let (loss, acc) = slade.model.eval_pair(&src, &dec_input, &labels);
        loss_sum += f64::from(loss);
        acc_sum += acc;
        n += 1;
    }
    if n == 0 {
        return (f64::NAN, f64::NAN);
    }
    (loss_sum / n as f64, acc_sum / n as f64)
}

/// One x86 `-O0` model per `(label, profile)` row, reported as held-out
/// loss, token accuracy, IO accuracy and edit similarity, plus the actual
/// vocabulary size when `vocab_column` names that column.
fn sweep(
    setup: &AblationSetup,
    title: &str,
    vocab_column: Option<&str>,
    rows: &[(String, TrainProfile)],
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {title} (x86 O0) ==");
    let extra = vocab_column.unwrap_or("");
    let _ = writeln!(
        out,
        "{:<26} {:>10} {:>10} {:>10} {:>10} {extra}",
        "variant", "val loss", "tok acc", "IO acc %", "edit %"
    );
    for (label, profile) in rows {
        let trained;
        let run = if *profile == setup.profile {
            &setup.base().run
        } else {
            let slade = Arc::new(setup.train_slade(OptLevel::O0, *profile));
            trained = setup.run(&slade, &[Tool::Slade]);
            &trained
        };
        let (acc, sim) = summarize(&run.records, Tool::Slade);
        let vocab = vocab_column.map(|_| run.vocab.to_string()).unwrap_or_default();
        let _ = writeln!(
            out,
            "{label:<26} {:>10.3} {:>10.3} {acc:>10.1} {sim:>10.1} {vocab}",
            run.loss, run.tok_acc
        );
    }
    out
}

/// Dropout ablation (paper §V-C: "we do not use dropout ... weight decay
/// regularization alone yielded better results"). Trains the same model at
/// several dropout probabilities; the paper's claim reproduces when the
/// p = 0 row has the lowest held-out loss.
pub fn ablation_dropout(setup: &AblationSetup) -> String {
    let rows = [0.0f32, 0.1, 0.3]
        .map(|p| (format!("dropout={p}"), TrainProfile { dropout: p, ..setup.profile }));
    let mut out = sweep(setup, "Ablation: dropout vs weight-decay-only", None, &rows);
    let _ = writeln!(
        out,
        "paper claim: the dropout-free row should win on held-out loss/accuracy."
    );
    out
}

/// Tokenizer ablation (§IV): the paper's recipe against variants with
/// digit-by-digit splitting disabled and punctuation splitting disabled,
/// plus the word-level (BTC-style) tokenizer's OOV rate for reference.
pub fn ablation_tokenizer(setup: &AblationSetup) -> String {
    let rows = [
        ("paper (digit+punct split)", TokenizerOptions::default()),
        ("no digit split", TokenizerOptions { digit_split: false, punct_split: true }),
        ("no punct split", TokenizerOptions { digit_split: true, punct_split: false }),
    ]
    .map(|(label, tokenizer)| (label.to_string(), TrainProfile { tokenizer, ..setup.profile }));
    let mut out = sweep(setup, "Ablation: tokenizer rules", Some("vocab"), &rows);
    // Word-level reference: the failure mode subword tokenization removes.
    let (isa, opt) = (Isa::X86_64, OptLevel::O0);
    let pairs = make_pairs(&setup.train, isa, opt);
    let mut corpus = Vec::new();
    for (a, c) in &pairs {
        corpus.push(a.clone());
        corpus.push(c.clone());
    }
    let word = WordTokenizer::train(&corpus, setup.profile.vocab);
    let eval_pairs = make_pairs(&setup.eval, isa, opt);
    let oov: f64 = if eval_pairs.is_empty() {
        0.0
    } else {
        eval_pairs.iter().map(|(a, c)| (word.oov_rate(a) + word.oov_rate(c)) / 2.0).sum::<f64>()
            / eval_pairs.len() as f64
    };
    let _ = writeln!(
        out,
        "word-level (BTC) reference: held-out OOV rate {:.1}% — every OOV token is \
         unrecoverable at decode time; subword variants have 0% by construction.",
        100.0 * oov
    );
    let _ = writeln!(
        out,
        "note: digit/punct splitting trades *longer sequences* for *consistent \
         segmentation*; at tiny scale the shorter no-split sequences can score \
         better on loss, while the consistency payoff (exact numeric copying, \
         §IV) binds at paper scale where IO correctness hinges on literals."
    );
    out
}

/// Vocabulary-size ablation (§IV: "a small vocabulary size of 8k" against
/// NLP-typical >30k). At reproduction scale the sweep brackets the profile
/// default from both sides.
pub fn ablation_vocab(setup: &AblationSetup) -> String {
    let base = setup.profile.vocab;
    let rows = [base / 4, base, base * 4].map(|target| {
        let vocab = target.max(64);
        (format!("target={vocab}"), TrainProfile { vocab, ..setup.profile })
    });
    let mut out =
        sweep(setup, "Ablation: tokenizer vocabulary size", Some("actual vocab"), &rows);
    let _ = writeln!(
        out,
        "paper shape: a small code vocabulary suffices; growing it inflates \
         the embedding table without helping."
    );
    out
}

/// Beam-width ablation (§VI-A: k = 5, first IO-passing candidate wins).
/// The base model is re-decoded at several widths; wall-clock decode time
/// is reported per item.
pub fn ablation_beam(setup: &AblationSetup) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Ablation: beam width (x86 O0) ==");
    let _ = writeln!(
        out,
        "{:<10} {:>10} {:>10} {:>14}",
        "beam k", "IO acc %", "edit %", "ms per item"
    );
    let base = setup.base();
    for k in [1usize, 2, 5, 8] {
        let mut variant = (*base.slade).clone();
        variant.set_beam(k);
        let variant = Arc::new(variant);
        let start = Instant::now();
        let records = setup.evaluate(&variant, &[Tool::Slade]);
        let elapsed = start.elapsed().as_secs_f64();
        let per_item =
            if records.is_empty() { f64::NAN } else { 1e3 * elapsed / records.len() as f64 };
        let (acc, sim) = summarize(&records, Tool::Slade);
        let _ = writeln!(out, "{k:<10} {acc:>10.1} {sim:>10.1} {per_item:>14.1}");
    }
    let _ = writeln!(
        out,
        "paper shape: accuracy is monotone in k (IO selection can only gain \
         from more candidates). Wall-clock can *drop* as k grows: decoding \
         stops once k hypotheses reach EOS, while a k = 1 greedy path that \
         never emits EOS pays the full length budget."
    );
    out
}

/// Pre-training ablation (§X future work): BART-style denoising epochs
/// over the raw corpus before seq2seq fine-tuning, at equal fine-tuning
/// budget.
pub fn ablation_pretrain(setup: &AblationSetup) -> String {
    let rows = [0usize, 2].map(|pre| {
        (
            format!("pretrain epochs={pre}"),
            TrainProfile { pretrain_epochs: pre, ..setup.profile },
        )
    });
    let mut out = sweep(setup, "Extension: denoising pre-training", None, &rows);
    let _ = writeln!(
        out,
        "expected: denoising exposure to the corpus lowers held-out loss at \
         equal fine-tuning budget (the paper's §X hypothesis)."
    );
    out
}

/// Program-repair extension (§X future work): the standard pipeline
/// against one where non-compiling beam candidates are mechanically
/// repaired before IO selection.
pub fn ablation_repair(setup: &AblationSetup) -> String {
    let records = &setup.base().run.records;
    let mut out = String::new();
    let _ = writeln!(out, "== Extension: program repair on beam candidates (x86 O0) ==");
    let _ = writeln!(
        out,
        "{:<16} {:>12} {:>12} {:>12}",
        "variant", "compiles %", "IO acc %", "edit %"
    );
    for tool in [Tool::Slade, Tool::SladeRepair] {
        let recs: Vec<_> = records.iter().filter(|r| r.tool == tool).collect();
        let compiles = if recs.is_empty() {
            0.0
        } else {
            100.0 * recs.iter().filter(|r| r.compiles).count() as f64 / recs.len() as f64
        };
        let (acc, sim) = summarize(records, tool);
        let _ = writeln!(out, "{:<16} {compiles:>12.1} {acc:>12.1} {sim:>12.1}", tool.label());
    }
    let _ = writeln!(
        out,
        "repair can only add candidates, so compile rate and IO accuracy are \
         monotone; IO selection still rejects semantically wrong repairs."
    );
    out
}

/// Neural/analytic integration (§X: "how learnable and analytic approaches
/// could be best integrated"): the hybrid tries the rule-based lift first
/// and falls back to the neural beam, so it inherits the lifter's near-
/// perfect simple-`-O0` behaviour *and* the neural model's tolerance of
/// configurations where the lifter collapses.
pub fn ablation_hybrid(setup: &AblationSetup) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Extension: analytic-first hybrid (x86 O0 and O3) ==");
    let tools = [Tool::Ghidra, Tool::Slade, Tool::Hybrid];
    let o3 = setup.evaluate(&Arc::new(setup.train_slade(OptLevel::O3, setup.profile)), &tools);
    for (opt, records) in [(OptLevel::O0, &setup.base().run.records), (OptLevel::O3, &o3)] {
        let _ = writeln!(out, "-- x86 {opt} --");
        let _ = writeln!(out, "{:<16} {:>12} {:>12}", "tool", "IO acc %", "edit %");
        for tool in tools {
            let (acc, sim) = summarize(records, tool);
            let _ = writeln!(out, "{:<16} {acc:>12.1} {sim:>12.1}", tool.label());
        }
    }
    let _ = writeln!(
        out,
        "expected: hybrid IO accuracy ≥ max(Ghidra, SLaDe) per configuration \
         (first-passing selection can only gain from the extra candidate)."
    );
    out
}

/// Edit-similarity sanity panel printed alongside the ablations: the
/// metric itself on known pairs, so report readers can calibrate what a
/// given percentage means.
pub fn edit_similarity_panel() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Edit-similarity calibration ==");
    let cases = [
        ("identical", "int f(int a) { return a; }", "int f(int a) { return a; }"),
        ("renamed args", "int f(int a) { return a; }", "int f(int x) { return x; }"),
        ("different body", "int f(int a) { return a; }", "int f(int a) { return 2 * a + 7; }"),
        ("unrelated", "int f(int a) { return a; }", "void g(char *p) { *p = 0; }"),
    ];
    for (label, a, b) in cases {
        let _ = writeln!(out, "{:<16} {:>6.1}%", label, 100.0 * edit_similarity(a, b));
    }
    out
}

/// Runs the whole ablation suite, returning the combined report.
pub fn run_all_ablations(setup: &AblationSetup) -> String {
    let mut out = String::new();
    for (name, text) in [
        ("dropout", ablation_dropout(setup)),
        ("tokenizer", ablation_tokenizer(setup)),
        ("vocab", ablation_vocab(setup)),
        ("beam", ablation_beam(setup)),
        ("pretrain", ablation_pretrain(setup)),
        ("repair", ablation_repair(setup)),
        ("hybrid", ablation_hybrid(setup)),
        ("edit-sim panel", edit_similarity_panel()),
    ] {
        let _ = writeln!(out, "\n#### ablation: {name} ####");
        out.push_str(&text);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal setup: enough items to train and evaluate, small enough that
    /// each test stays in the seconds range (beam decoding dominates).
    fn tiny_setup() -> AblationSetup {
        let data = DatasetProfile { train: 24, exebench_eval: 6, synth_per_category: 1 };
        let mut profile = TrainProfile::tiny();
        profile.epochs = 1;
        AblationSetup::build(data, profile, 11)
    }

    #[test]
    fn beam_ablation_runs_and_reports_all_widths() {
        let setup = tiny_setup();
        let report = ablation_beam(&setup);
        for k in ["1", "2", "5", "8"] {
            assert!(report.lines().any(|l| l.starts_with(k)), "missing k={k}:\n{report}");
        }
    }

    #[test]
    fn repair_ablation_is_monotone_in_compile_rate() {
        let setup = tiny_setup();
        let records = &setup.base().run.records;
        let rate = |tool: Tool| {
            let recs: Vec<_> = records.iter().filter(|r| r.tool == tool).collect();
            recs.iter().filter(|r| r.compiles).count() as f64 / recs.len().max(1) as f64
        };
        assert!(
            rate(Tool::SladeRepair) >= rate(Tool::Slade),
            "repair lowered the compile rate"
        );
    }

    #[test]
    fn hybrid_is_at_least_as_accurate_as_parts() {
        let setup = tiny_setup();
        let records = &setup.base().run.records;
        let (ghidra, _) = summarize(records, Tool::Ghidra);
        let (slade_acc, _) = summarize(records, Tool::Slade);
        let (hybrid, _) = summarize(records, Tool::Hybrid);
        assert!(
            hybrid + 1e-9 >= ghidra.max(slade_acc),
            "hybrid {hybrid} < max({ghidra}, {slade_acc})"
        );
    }

    #[test]
    fn heldout_stats_are_finite_for_trained_model() {
        let setup = tiny_setup();
        let Run { loss, tok_acc: tok, .. } = setup.base().run;
        assert!(loss.is_finite() && loss > 0.0, "loss {loss}");
        assert!((0.0..=1.0).contains(&tok), "token accuracy {tok}");
    }

    #[test]
    fn edit_similarity_panel_is_ordered() {
        let report = edit_similarity_panel();
        // identical must be 100%, unrelated must be the lowest row.
        assert!(report.contains("identical"));
        let grab = |label: &str| {
            report
                .lines()
                .find(|l| l.starts_with(label))
                .and_then(|l| l.split_whitespace().last())
                .and_then(|v| v.trim_end_matches('%').parse::<f64>().ok())
                .unwrap()
        };
        assert_eq!(grab("identical"), 100.0);
        assert!(grab("renamed") > grab("unrelated"));
    }
}
