//! The fixed set-up every workload shares: a seeded `slade_dataset` corpus
//! compiled for x86-64, a tokenizer trained on it, an untrained model at
//! the default reproduction dimensions, and inputs picked from the corpus
//! by source length.
//!
//! The model is untrained on purpose: its decode cost equals a trained
//! model's and every beam lane runs to `max_tgt`, so the work per request
//! is fixed by the input alone.

use slade::{normalize_asm, Slade};
use slade_compiler::{compile_function, CompileOpts, Isa, OptLevel};
use slade_dataset::{generate_train, ArgSpec, DatasetItem, DatasetProfile};
use slade_minic::parse_program;
use slade_nn::{Backend, Seq2Seq, TransformerConfig};
use slade_tokenizer::UnigramTokenizer;
use std::sync::Arc;

/// Beam width of every workload (the paper's).
pub const BEAM: usize = 5;
/// Tokenizer vocabulary target (the default reproduction profile's).
pub const VOCAB: usize = 700;
/// Functions (and their C) the tokenizer is trained on.
pub const TOKENIZER_FUNCS: usize = 600;
/// Seed of the untrained model's weights.
pub const MODEL_SEED: u64 = 7;
/// Rungs of the source-length ladder inputs are picked by.
pub const LADDER_RUNGS: usize = 16;

/// How much work a run does: `Full` is what `BENCHMARK.json` measures,
/// `Tiny` lets `tests/smoke.rs` walk every code path in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The published benchmark.
    Full,
    /// A few short inputs, one set-up, minimal probe repetitions.
    Tiny,
}

impl Scale {
    /// Dataset items generated per set-up.
    pub fn corpus_items(self) -> usize {
        match self {
            Scale::Full => 2000,
            Scale::Tiny => 160,
        }
    }

    /// Set-ups per run; `setup_s` is their median.
    pub fn setups(self) -> usize {
        match self {
            Scale::Full => 5,
            Scale::Tiny => 1,
        }
    }

    /// Inputs per `decompile_batch` call of the offline workloads, and
    /// ladder rungs used.
    pub fn chunk(self) -> usize {
        match self {
            Scale::Full => 16,
            Scale::Tiny => 3,
        }
    }

    /// Caps a decode budget so tiny runs stay tiny.
    pub fn max_tgt(self, full: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Tiny => full.min(6),
        }
    }
}

/// What a workload asks of the set-up.
#[derive(Debug, Clone, Copy)]
pub struct FixtureSpec {
    /// Optimisation level the corpus is compiled at.
    pub opt: OptLevel,
    /// Decode budget per beam lane.
    pub max_tgt: usize,
    /// Longest source, in tokens, an input may have. Sixteen lengths spaced
    /// evenly from the shortest to the longest function of the class are
    /// the ladder: input `i` is the unused function whose length is nearest
    /// `ladder[i % chunk]`, so every group of `chunk` consecutive inputs
    /// holds one full ladder and costs the same whatever the seed. The
    /// generator's templates fix the lengths a corpus holds, the seed fixes
    /// the bodies and how many of each there are; a ladder of quantiles
    /// follows the counts, and one rung hopping between two templates (512
    /// or 672 tokens) moved the mean length 9 % between seeds and the
    /// quadratic encode cost with it.
    pub max_src: usize,
    /// Inputs to pick.
    pub inputs: usize,
}

/// True when `slade_compiler` gives the same assembly for `item` every
/// time it is asked. At `-O3` its linear-scan register allocator collects
/// live intervals by iterating a `HashMap` and sorts them by (start, end)
/// only, so intervals that tie are served in hash order and callee-saved
/// registers swap from one compilation to the next (199 of 2000 functions
/// on seed 1). Only parameters can tie — they all start at 0, every other
/// value starts at its own instruction — and only integer-class ones are
/// allocated, so a function with at most one integer or pointer parameter
/// is safe; no such function differed over 16 compilations on fresh
/// threads, every function that did has two or more. Sampling compilations
/// instead misses skewed cases about one run in twenty. `-O0` does not run
/// the allocator.
pub fn compiles_reproducibly(item: &DatasetItem, opt: OptLevel) -> bool {
    let integer_class =
        |args: &Vec<ArgSpec>| args.iter().filter(|a| !matches!(a, ArgSpec::F64(_))).count();
    opt == OptLevel::O0 || item.inputs.first().is_some_and(|args| integer_class(args) <= 1)
}

/// One corpus function as a workload input.
#[derive(Debug, Clone)]
pub struct Func {
    /// Raw compiler output, as a client would send it.
    pub asm: String,
    /// Tokens of its normalized form.
    pub src_tokens: usize,
}

/// The built set-up.
pub struct Fixture {
    /// The decompiler under test.
    pub slade: Arc<Slade>,
    /// The picked inputs, in workload order.
    pub inputs: Vec<Func>,
}

impl Fixture {
    /// Mean source length of the inputs, in tokens.
    pub fn mean_src_tokens(&self) -> f64 {
        self.inputs.iter().map(|f| f.src_tokens as f64).sum::<f64>()
            / self.inputs.len().max(1) as f64
    }
}

/// Generates `n` dataset items for `seed`.
pub fn generate(n: usize, seed: u64) -> Vec<DatasetItem> {
    generate_train(DatasetProfile { train: n, exebench_eval: 0, synth_per_category: 0 }, seed)
}

/// Compiles one item for x86-64 at `opt`; `None` when it does not compile.
pub fn compile(item: &DatasetItem, opt: OptLevel) -> Option<String> {
    let program = parse_program(&item.full_src()).ok()?;
    compile_function(&program, &item.name, CompileOpts::new(Isa::X86_64, opt)).ok()
}

/// Builds corpus, tokenizer, model and inputs. Deterministic in `seed`.
///
/// # Panics
///
/// Panics when the corpus holds fewer reproducibly compiling functions
/// than `spec.inputs`.
pub fn build(seed: u64, spec: &FixtureSpec, scale: Scale) -> Fixture {
    let items = generate(scale.corpus_items(), seed);
    let compiled: Vec<(String, &DatasetItem)> =
        items.iter().filter_map(|item| Some((compile(item, spec.opt)?, item))).collect();
    let normalized: Vec<String> = compiled.iter().map(|(asm, _)| normalize_asm(asm)).collect();
    let mut text: Vec<String> = Vec::with_capacity(2 * TOKENIZER_FUNCS);
    for (norm, (_, item)) in normalized.iter().zip(&compiled).take(TOKENIZER_FUNCS) {
        text.push(norm.clone());
        text.push(item.func_src.clone());
    }
    let tokenizer = UnigramTokenizer::train(&text, VOCAB);
    let lengths: Vec<usize> = normalized.iter().map(|n| tokenizer.encode(n).len()).collect();

    let chunk = scale.chunk();
    let mut free: Vec<bool> = compiled
        .iter()
        .zip(&lengths)
        .map(|((_, item), &len)| len <= spec.max_src && compiles_reproducibly(item, spec.opt))
        .collect();
    let mut eligible: Vec<usize> =
        lengths.iter().zip(&free).filter(|(_, &f)| f).map(|(&len, _)| len).collect();
    eligible.sort_unstable();
    assert!(eligible.len() >= spec.inputs, "corpus too small for the inputs asked for");
    let (shortest, longest) = (eligible[0], eligible[eligible.len() - 1]);
    let ladder: Vec<usize> = (0..LADDER_RUNGS)
        .map(|i| shortest + (longest - shortest) * (2 * i + 1) / (2 * LADDER_RUNGS))
        .collect();
    let mut inputs = Vec::with_capacity(spec.inputs);
    for i in 0..spec.inputs {
        let target = ladder[i % chunk];
        let pick = (0..compiled.len())
            .filter(|&c| free[c])
            .min_by_key(|&c| (lengths[c].abs_diff(target), c))
            .expect("at least `spec.inputs` functions are eligible");
        free[pick] = false;
        inputs.push(Func { asm: compiled[pick].0.clone(), src_tokens: lengths[pick] });
    }

    // The default reproduction profile's dimensions (`TrainProfile::default_profile`).
    let cfg = TransformerConfig {
        vocab: tokenizer.vocab_size(),
        d_model: 64,
        n_heads: 4,
        d_ff: 128,
        enc_layers: 2,
        dec_layers: 2,
        max_len: 1026,
        backend: Backend::F32,
    };
    let model = Seq2Seq::new(cfg, MODEL_SEED);
    let slade = Slade::from_parts(
        model,
        tokenizer,
        Isa::X86_64,
        spec.opt,
        BEAM,
        scale.max_tgt(spec.max_tgt),
    );
    Fixture { slade: Arc::new(slade), inputs }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let spec = FixtureSpec { opt: OptLevel::O3, max_tgt: 8, max_src: 256, inputs: 6 };
        let a = build(3, &spec, Scale::Tiny);
        let b = build(3, &spec, Scale::Tiny);
        let c = build(4, &spec, Scale::Tiny);
        let asm = |f: &Fixture| f.inputs.iter().map(|i| i.asm.clone()).collect::<Vec<_>>();
        assert_eq!(asm(&a), asm(&b));
        assert_ne!(asm(&a), asm(&c));
        // Distinct inputs, each group of `chunk` following the ladder upward.
        let mut sorted = asm(&a);
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 6);
        assert!(a.inputs[0].src_tokens <= a.inputs[2].src_tokens);
    }
}
