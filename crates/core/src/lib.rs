//! SLaDe: the Small Language model Decompiler (CGO 2024) — core pipeline.
//!
//! This crate implements the paper's contribution proper: a
//! sequence-to-sequence Transformer trained on (assembly, C) function pairs
//! with the UnigramLM code tokenizer, decoded with beam search (k = 5), and
//! augmented with PsycheC-style type inference so hypotheses referencing
//! out-of-context types still compile. Candidate selection ("the first
//! hypothesis passing the IO tests") lives in `slade-eval`, which owns the
//! execution harness.
//!
//! # Example
//!
//! ```no_run
//! use slade::{SladeBuilder, TrainProfile};
//! use slade_compiler::{Isa, OptLevel};
//! use slade_dataset::{generate_train, DatasetProfile};
//!
//! let items = generate_train(DatasetProfile::tiny(), 0);
//! let slade = SladeBuilder::new(Isa::X86_64, OptLevel::O0)
//!     .profile(TrainProfile::tiny())
//!     .train(&items, 0);
//! let candidates = slade.decompile("f:\n\tret\n");
//! assert!(candidates.len() <= 5);
//! ```

#![warn(missing_docs)]

use serde::{Deserialize, Serialize};
use slade_compiler::{compile_function, CompileOpts, Isa, OptLevel};
use slade_dataset::DatasetItem;
use slade_minic::parse_program;
use slade_nn::{DecodeRequest, InferenceEngine, Seq2Seq, TransformerConfig};
use slade_tokenizer::{special, TokenizerOptions, UnigramTokenizer};

/// Training-scale knobs (see DESIGN.md §6 for the scaling argument).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainProfile {
    /// Transformer width.
    pub d_model: usize,
    /// Attention heads.
    pub n_heads: usize,
    /// FFN width.
    pub d_ff: usize,
    /// Encoder/decoder layers (each).
    pub layers: usize,
    /// Tokenizer vocabulary target.
    pub vocab: usize,
    /// Maximum source (assembly) length in tokens; longer pairs are skipped
    /// during training — matching ExeBench's short-function bias (Fig. 9).
    pub max_src_len: usize,
    /// Maximum target (C) length in tokens.
    pub max_tgt_len: usize,
    /// Passes over the training pairs.
    pub epochs: usize,
    /// AdamW learning rate.
    pub lr: f32,
    /// Decoupled weight decay (the paper's only regularizer — no dropout).
    pub weight_decay: f32,
    /// Gradient-accumulation batch size.
    pub batch: usize,
    /// Train-time dropout probability. The paper's recipe is `0.0`
    /// ("dropout-free regularization", §I/§V-C); nonzero values exist for
    /// the ablation reproducing that preliminary experiment.
    #[serde(default)]
    pub dropout: f32,
    /// Epochs of BART-style denoising pre-training over the raw corpus
    /// before seq2seq fine-tuning (`0` = the paper's recipe; §X lists
    /// pre-training as future work).
    #[serde(default)]
    pub pretrain_epochs: usize,
    /// Pre-tokenization rules (§IV); defaults to the paper's recipe.
    #[serde(default)]
    pub tokenizer: TokenizerOptions,
}

impl TrainProfile {
    /// Unit-test scale (seconds).
    pub fn tiny() -> Self {
        TrainProfile {
            d_model: 32,
            n_heads: 2,
            d_ff: 64,
            layers: 1,
            vocab: 300,
            max_src_len: 96,
            max_tgt_len: 64,
            epochs: 2,
            lr: 3e-3,
            weight_decay: 0.01,
            batch: 4,
            dropout: 0.0,
            pretrain_epochs: 0,
            tokenizer: TokenizerOptions::default(),
        }
    }

    /// [`TrainProfile::tiny`]'s model with the paper's 1024-token source
    /// cap and three epochs (seconds per configuration). `tiny` caps
    /// sources at 96 tokens, under every generated `-O0` function, so it
    /// trains on nothing; this is the smallest profile that learns.
    pub fn demo() -> Self {
        TrainProfile { max_src_len: 1024, epochs: 3, ..TrainProfile::tiny() }
    }

    /// Default reproduction scale (tens of minutes per ISA×opt
    /// configuration on one core). The 1024-token source cap is the
    /// paper's own sequence limit (§III); `corpus_stats` shows the
    /// generated `-O0` assembly distribution fitting under it.
    pub fn default_profile() -> Self {
        TrainProfile {
            d_model: 64,
            n_heads: 4,
            d_ff: 128,
            layers: 2,
            vocab: 700,
            max_src_len: 1024,
            max_tgt_len: 128,
            epochs: 3,
            lr: 2e-3,
            weight_decay: 0.01,
            batch: 8,
            dropout: 0.0,
            pretrain_epochs: 0,
            tokenizer: TokenizerOptions::default(),
        }
    }

    /// The model this profile trains, over a `vocab`-token tokenizer.
    pub fn transformer_config(&self, vocab: usize) -> TransformerConfig {
        TransformerConfig {
            vocab,
            d_model: self.d_model,
            n_heads: self.n_heads,
            d_ff: self.d_ff,
            enc_layers: self.layers,
            dec_layers: self.layers,
            max_len: self.max_src_len.max(self.max_tgt_len) + 2,
            backend: slade_nn::Backend::F32,
        }
    }

    /// Whether a tokenized pair is trained on: neither side empty, the
    /// source within `max_src_len`, the target plus its EOS within
    /// `max_tgt_len`.
    pub fn admits(&self, src: &[u32], tgt: &[u32]) -> bool {
        !src.is_empty()
            && !tgt.is_empty()
            && src.len() <= self.max_src_len
            && tgt.len() < self.max_tgt_len
    }
}

/// One teacher-forced pass over `examples` — `(source, target)` token
/// sequences, pulled one at a time in order — accumulating gradients over
/// `profile.batch` examples per AdamW step (the last batch of the pass may
/// be short). The one training loop: fine-tuning, denoising pre-training
/// and the BTC baseline differ only in the examples they feed it.
pub fn train_epoch<'a, S: AsRef<[u32]>>(
    model: &mut Seq2Seq,
    profile: &TrainProfile,
    examples: impl IntoIterator<Item = (S, &'a [u32])>,
) {
    let step = |model: &mut Seq2Seq, in_batch: usize| {
        model.adam_step(profile.lr, profile.weight_decay, 1.0 / in_batch as f32);
        model.zero_grads();
    };
    let mut in_batch = 0usize;
    model.zero_grads();
    for (src, tgt) in examples {
        let mut dec_input = vec![special::BOS];
        dec_input.extend_from_slice(tgt);
        let mut labels = tgt.to_vec();
        labels.push(special::EOS);
        let _ = model.train_pair(src.as_ref(), &dec_input, &labels);
        in_batch += 1;
        if in_batch == profile.batch {
            step(model, in_batch);
            in_batch = 0;
        }
    }
    if in_batch > 0 {
        step(model, in_batch);
    }
}

/// Builder configuring a SLaDe training run for one ISA × optimization
/// level (the paper trains one model per configuration, §V-C).
#[derive(Debug, Clone)]
pub struct SladeBuilder {
    isa: Isa,
    opt: OptLevel,
    profile: TrainProfile,
    beam: usize,
    max_batch_lanes: usize,
}

impl SladeBuilder {
    /// Starts a builder for the given target configuration.
    pub fn new(isa: Isa, opt: OptLevel) -> Self {
        SladeBuilder {
            isa,
            opt,
            profile: TrainProfile::default_profile(),
            beam: 5,
            max_batch_lanes: Slade::MAX_BATCH_LANES,
        }
    }

    /// Sets the scale profile.
    pub fn profile(mut self, profile: TrainProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Sets the beam width (paper: 5).
    pub fn beam(mut self, beam: usize) -> Self {
        self.beam = beam;
        self
    }

    /// Sets the concurrent-lane budget of the decode session one
    /// [`Slade::decompile_batch`] call opens (clamped to ≥ 1; default
    /// [`Slade::MAX_BATCH_LANES`], two beam-5 requests, because a step's
    /// per-lane cost is flat in the lane count at this model size). The
    /// budget bounds the lanes one decode step runs, and with them the
    /// cross memories the session holds and the largest KV block pool it
    /// can grow to; serving layers divide it across their shards. A
    /// model wide enough for its projections to gain from more lanes
    /// per step is the reason to raise it.
    pub fn max_batch_lanes(mut self, lanes: usize) -> Self {
        self.max_batch_lanes = lanes.max(1);
        self
    }

    /// Compiles the items, trains the tokenizer and the model, and returns
    /// the ready decompiler, whose model keeps its weights and no
    /// optimizer state. Items that fail to compile or exceed the length
    /// caps are skipped.
    pub fn train(self, items: &[DatasetItem], seed: u64) -> Slade {
        let pairs = make_pairs(items, self.isa, self.opt);
        let mut corpus: Vec<String> = Vec::new();
        for (asm, c) in &pairs {
            corpus.push(normalize_asm(asm));
            corpus.push(c.clone());
        }
        let tokenizer =
            UnigramTokenizer::train_with(&corpus, self.profile.vocab, self.profile.tokenizer);
        let cfg = self.profile.transformer_config(tokenizer.vocab_size());
        let mut model = Seq2Seq::new(cfg, seed);
        if self.profile.dropout > 0.0 {
            model.set_dropout(self.profile.dropout, seed ^ 0xd50);
        }
        if self.profile.pretrain_epochs > 0 {
            pretrain_denoising(&mut model, &tokenizer, &corpus, &self.profile, seed ^ 0xba51);
        }
        // Tokenize and filter by length.
        let mut encoded: Vec<(Vec<u32>, Vec<u32>)> = Vec::new();
        for (asm, c) in &pairs {
            let src = tokenizer.encode(&normalize_asm(asm));
            let tgt = tokenizer.encode(c);
            if self.profile.admits(&src, &tgt) {
                encoded.push((src, tgt));
            }
        }
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0x51ade);
        let mut order: Vec<usize> = (0..encoded.len()).collect();
        for _epoch in 0..self.profile.epochs {
            order.shuffle(&mut rng);
            let shuffled = order.iter().map(|&i| (&encoded[i].0, encoded[i].1.as_slice()));
            train_epoch(&mut model, &self.profile, shuffled);
        }
        model.release_optimizer_state();
        Slade {
            model,
            tokenizer,
            beam: self.beam,
            max_tgt_len: self.profile.max_tgt_len,
            isa: self.isa,
            opt: self.opt,
            max_batch_lanes: Some(self.max_batch_lanes),
        }
    }
}

/// Compiles every item for `(isa, opt)` into `(assembly, c_source)` pairs.
pub fn make_pairs(items: &[DatasetItem], isa: Isa, opt: OptLevel) -> Vec<(String, String)> {
    let opts = CompileOpts::new(isa, opt);
    items
        .iter()
        .filter_map(|item| {
            let program = parse_program(&item.full_src()).ok()?;
            let asm = compile_function(&program, &item.name, opts).ok()?;
            Some((asm, item.func_src.clone()))
        })
        .collect()
}

/// Strips assembler lines that carry no decompilation signal before
/// tokenization: CFI bookkeeping, alignment hints, section/linkage
/// directives. Labels, instructions and data definitions (jump-table and
/// rodata contents) are kept. The digit-by-digit tokenizer makes such
/// boilerplate expensive (a single `.cfi_def_cfa_offset 16` is ~10
/// tokens), and at reproduction scale the sequence budget is the binding
/// constraint — this is the model-input normalization half of the paper's
/// "assembly without its surrounding context" setup. Applied identically
/// at training and inference ([`Slade::decompile`]); the rule-based tools
/// and emulators always see the raw text.
pub fn normalize_asm(asm: &str) -> String {
    const DROP_PREFIXES: [&str; 9] = [
        ".cfi_", ".p2align", ".align", ".text", ".globl", ".global", ".type", ".size", ".ident",
    ];
    let mut out = String::with_capacity(asm.len());
    for line in asm.lines() {
        let t = line.trim();
        if t.is_empty() || DROP_PREFIXES.iter().any(|p| t.starts_with(p)) {
            continue;
        }
        out.push_str(t);
        out.push('\n');
    }
    out
}

/// BART-style span corruption for denoising pre-training: each position
/// starts a masked span with probability ~0.15; a span covers one to four
/// original tokens and is replaced by a single [`special::MASK`]. Roughly
/// 30% of tokens end up hidden, matching BART's text-infilling noise rate.
///
/// Never returns an empty sequence (a fully-masked input degenerates to a
/// single mask token).
pub fn corrupt_spans(ids: &[u32], rng: &mut rand_chacha::ChaCha8Rng) -> Vec<u32> {
    use rand::Rng;
    let mut out = Vec::with_capacity(ids.len());
    let mut i = 0usize;
    while i < ids.len() {
        if rng.gen::<f32>() < 0.15 {
            let span = rng.gen_range(1..=4usize);
            out.push(special::MASK);
            i += span;
        } else {
            out.push(ids[i]);
            i += 1;
        }
    }
    if out.is_empty() {
        out.push(special::MASK);
    }
    out
}

/// Denoising pre-training over the raw (assembly + C) corpus: the model
/// reconstructs the original token sequence from a span-corrupted copy.
/// This is the paper's §X "pre-training" future-work direction; the
/// ablation suite measures its effect at reproduction scale.
fn pretrain_denoising(
    model: &mut Seq2Seq,
    tokenizer: &UnigramTokenizer,
    corpus: &[String],
    profile: &TrainProfile,
    seed: u64,
) {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let cap = profile.max_src_len.min(profile.max_tgt_len).saturating_sub(1).max(8);
    let texts: Vec<Vec<u32>> = corpus
        .iter()
        .map(|t| {
            let mut ids = tokenizer.encode(t);
            ids.truncate(cap);
            ids
        })
        .filter(|ids| !ids.is_empty())
        .collect();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..texts.len()).collect();
    for _epoch in 0..profile.pretrain_epochs {
        order.shuffle(&mut rng);
        // Fresh corruption every epoch, as in BART.
        let corrupted =
            order.iter().map(|&i| (corrupt_spans(&texts[i], &mut rng), texts[i].as_slice()));
        train_epoch(model, profile, corrupted);
    }
}

/// A trained SLaDe decompiler for one ISA × optimization level.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Slade {
    /// The seq2seq model.
    pub model: Seq2Seq,
    /// The subword tokenizer.
    pub tokenizer: UnigramTokenizer,
    beam: usize,
    max_tgt_len: usize,
    /// Target ISA this model was trained for. Artifacts saved before the
    /// target was recorded deserialize to the x86-64 default.
    #[serde(default)]
    isa: Isa,
    /// Optimization level this model was trained for (`O0` default for
    /// pre-recording artifacts).
    #[serde(default)]
    opt: OptLevel,
    /// Configured lane budget; `None` (pre-knob artifacts) means
    /// [`Slade::MAX_BATCH_LANES`].
    #[serde(default)]
    max_batch_lanes: Option<usize>,
}

impl Slade {
    /// Default bound on concurrent beam lanes in the one decode session of
    /// [`Slade::decompile_batch`], regardless of corpus size: ten, two
    /// beam-5 requests. It bounds the lanes one decode step runs, the
    /// cross memories the session holds and the worst-case KV block pool
    /// (which grows with the blocks lanes take, up to a full
    /// `max_tgt_len` table per lane). At this model size a decode step
    /// costs no less per lane at 80 lanes than at 5 — each lane's
    /// attention over its own source dominates — so wider batches buy no
    /// throughput and only hold more requests' cross K/V (DESIGN §9.1).
    pub const MAX_BATCH_LANES: usize = 10;

    /// Assembles a decompiler from pre-built parts — the entry point for
    /// benchmarks and serving tests that need a `Slade` around a model
    /// that was not produced by [`SladeBuilder::train`] (e.g. an untrained
    /// model whose decode cost is still representative). The model's
    /// optimizer state, if any, is released: a `Slade` only decodes.
    pub fn from_parts(
        mut model: Seq2Seq,
        tokenizer: UnigramTokenizer,
        isa: Isa,
        opt: OptLevel,
        beam: usize,
        max_tgt_len: usize,
    ) -> Self {
        model.release_optimizer_state();
        Slade {
            model,
            tokenizer,
            beam: beam.max(1),
            max_tgt_len: max_tgt_len.max(1),
            isa,
            opt,
            max_batch_lanes: None,
        }
    }

    /// The configured beam width.
    pub fn beam(&self) -> usize {
        self.beam
    }

    /// The maximum hypothesis length in tokens (decode budget per lane).
    pub fn max_tgt_len(&self) -> usize {
        self.max_tgt_len
    }

    /// The ISA this model was trained for.
    pub fn isa(&self) -> Isa {
        self.isa
    }

    /// The optimization level this model was trained for.
    pub fn opt(&self) -> OptLevel {
        self.opt
    }

    /// The effective concurrent-lane budget per engine batch
    /// ([`SladeBuilder::max_batch_lanes`], default
    /// [`Slade::MAX_BATCH_LANES`]).
    pub fn max_batch_lanes(&self) -> usize {
        self.max_batch_lanes.unwrap_or(Self::MAX_BATCH_LANES).max(1)
    }

    /// Reconfigures the lane budget after training (serving layers size it
    /// to shard capacity).
    pub fn set_max_batch_lanes(&mut self, lanes: usize) {
        self.max_batch_lanes = Some(lanes.max(1));
    }

    /// Changes the beam width after training (the beam-width ablation
    /// re-decodes one trained model at several `k`).
    pub fn set_beam(&mut self, beam: usize) {
        self.beam = beam.max(1);
    }

    /// Decompiles assembly text into up to `beam` C hypotheses, best first
    /// (§VI-A). Candidate selection by IO testing is the harness's job.
    pub fn decompile(&self, asm_text: &str) -> Vec<String> {
        self.decompile_batch(&[asm_text]).pop().unwrap_or_default()
    }

    /// Decompiles a batch of functions through the inference engine:
    /// every live beam hypothesis of every function in flight shares each
    /// decode step's projection matmuls
    /// ([`slade_nn::InferenceEngine::decode_batch`]). This is the serving
    /// entry point — corpus evaluation and the beam ablation route
    /// through it — and returns, per input, up to `beam` hypotheses, best
    /// first.
    ///
    /// One call opens one decode session of [`Slade::max_batch_lanes`]
    /// lanes and feeds the inputs through it in order: an input is
    /// normalized, tokenized and admitted when its beam fits the free
    /// lanes, so one that finishes early hands its lanes to the next at
    /// the next step. Every input in flight holds its tokens and a cross
    /// memory and every lane can grow its KV blocks to the token budget,
    /// so the lane budget, not the batch size, bounds a call's memory.
    pub fn decompile_batch(&self, asm_texts: &[&str]) -> Vec<Vec<String>> {
        // Each input is normalized and tokenized when the session pulls
        // it, so only the inputs in flight hold their tokens.
        let requests = asm_texts.iter().map(|asm| {
            let normalized = normalize_asm(asm);
            let _tok = slade_obs::StageTimer::start(slade_obs::StageHist::Tokenize);
            DecodeRequest {
                src: self.tokenizer.encode(&normalized),
                bos: special::BOS,
                eos: special::EOS,
                max_len: self.max_tgt_len,
                beam: self.beam,
            }
        });
        InferenceEngine::new(&self.model)
            .decode_batch(requests, self.max_batch_lanes())
            .into_iter()
            .map(|beams| beams.into_iter().map(|ids| self.tokenizer.decode(&ids)).collect())
            .collect()
    }

    /// Decompiles and appends the type-inference header when the raw
    /// hypothesis does not compile in `context` (§VI-B). Returns
    /// `(hypothesis, header)` pairs.
    pub fn decompile_with_types(&self, asm_text: &str, context: &str) -> Vec<(String, String)> {
        self.decompile_batch_with_types(&[asm_text], &[context]).pop().unwrap_or_default()
    }

    /// Batched [`Slade::decompile_with_types`]: one engine pass over all
    /// functions, then per-hypothesis type inference against each
    /// function's own context. `contexts` must be parallel to `asm_texts`.
    ///
    /// # Panics
    ///
    /// Panics when `asm_texts` and `contexts` lengths differ.
    pub fn decompile_batch_with_types(
        &self,
        asm_texts: &[&str],
        contexts: &[&str],
    ) -> Vec<Vec<(String, String)>> {
        assert_eq!(asm_texts.len(), contexts.len(), "one context per function");
        self.decompile_batch(asm_texts)
            .into_iter()
            .zip(contexts)
            .map(|(hyps, context)| {
                hyps.into_iter()
                    .map(|hyp| {
                        let header = slade_typeinf::infer_missing_types(&hyp, context)
                            .unwrap_or_default();
                        (hyp, header)
                    })
                    .collect()
            })
            .collect()
    }

    /// Serializes the trained decompiler (model + tokenizer) to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("slade serialization")
    }

    /// Loads a decompiler saved with [`Slade::to_json`].
    ///
    /// # Errors
    ///
    /// Returns the underlying serde error text.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slade_dataset::{generate_train, DatasetProfile};

    #[test]
    fn make_pairs_compiles_items() {
        let items = generate_train(DatasetProfile::tiny(), 3);
        let pairs = make_pairs(&items, Isa::X86_64, OptLevel::O0);
        assert!(!pairs.is_empty());
        assert!(pairs[0].0.contains("ret"));
        assert!(pairs[0].1.contains("("));
    }

    /// `tiny` for one epoch with a source cap that admits the shorter
    /// generated `-O0` pairs: `tiny`'s 96 tokens admit none, so a `tiny`
    /// build never takes a step.
    fn one_epoch() -> TrainProfile {
        TrainProfile { epochs: 1, max_src_len: 512, ..TrainProfile::tiny() }
    }

    /// Whether training moved the weights: a model that took no step
    /// serializes as `Seq2Seq::new` of its config and seed does.
    fn took_a_step(slade: &Slade, seed: u64) -> bool {
        let fresh = Seq2Seq::new(slade.model.cfg, seed);
        serde_json::to_string(&slade.model).unwrap() != serde_json::to_string(&fresh).unwrap()
    }

    #[test]
    fn tiny_training_runs_and_decodes() {
        let items = generate_train(DatasetProfile::tiny(), 5);
        let slade = SladeBuilder::new(Isa::X86_64, OptLevel::O0)
            .profile(one_epoch())
            .beam(2)
            .train(&items[..8], 1);
        assert!(took_a_step(&slade, 1));
        let pairs = make_pairs(&items[..4.min(items.len())], Isa::X86_64, OptLevel::O0);
        let out = slade.decompile(&pairs[0].0);
        assert!(!out.is_empty());
        // Output is text; we don't require correctness at tiny scale.
        assert!(out[0].len() < 4000);
    }

    #[test]
    fn decompile_batch_matches_per_item_decompile() {
        let items = generate_train(DatasetProfile::tiny(), 6);
        let slade = SladeBuilder::new(Isa::X86_64, OptLevel::O0)
            .profile(one_epoch())
            .beam(3)
            .train(&items[..8], 7);
        assert!(took_a_step(&slade, 7));
        let pairs = make_pairs(&items[..6.min(items.len())], Isa::X86_64, OptLevel::O0);
        let asms: Vec<&str> = pairs.iter().take(4).map(|(a, _)| a.as_str()).collect();
        let batched = slade.decompile_batch(&asms);
        assert_eq!(batched.len(), asms.len());
        for (asm, got) in asms.iter().zip(&batched) {
            assert_eq!(got, &slade.decompile(asm), "batch/TPI divergence");
        }
        // The typed variant stays parallel to its inputs.
        let contexts: Vec<&str> = asms.iter().map(|_| "").collect();
        let typed = slade.decompile_batch_with_types(&asms, &contexts);
        assert_eq!(typed.len(), asms.len());
        for (raw, with_types) in batched.iter().zip(&typed) {
            assert_eq!(raw.len(), with_types.len());
            for (h, (h2, _header)) in raw.iter().zip(with_types) {
                assert_eq!(h, h2);
            }
        }
    }

    #[test]
    fn lane_budget_knob_changes_chunking_not_results() {
        let items = generate_train(DatasetProfile::tiny(), 11);
        let slade = SladeBuilder::new(Isa::Arm64, OptLevel::O0)
            .profile(TrainProfile::tiny())
            .beam(3)
            .max_batch_lanes(3) // one request in flight at a time
            .train(&items, 5);
        assert_eq!(slade.max_batch_lanes(), 3);
        assert_eq!(slade.isa(), Isa::Arm64);
        assert_eq!(slade.opt(), OptLevel::O0);
        let pairs = make_pairs(&items[..5.min(items.len())], Isa::Arm64, OptLevel::O0);
        let asms: Vec<&str> = pairs.iter().take(4).map(|(a, _)| a.as_str()).collect();
        let tight = slade.decompile_batch(&asms);
        let mut wide = slade.clone();
        wide.set_max_batch_lanes(Slade::MAX_BATCH_LANES);
        assert_eq!(tight, wide.decompile_batch(&asms), "the lane budget changed results");
        // Normalised text is a fixed point, so it decodes like its raw form.
        let normed: Vec<String> = asms.iter().map(|a| normalize_asm(a)).collect();
        let normed_refs: Vec<&str> = normed.iter().map(String::as_str).collect();
        assert_eq!(tight, slade.decompile_batch(&normed_refs));
    }

    #[test]
    fn pre_knob_artifacts_deserialize_with_defaults() {
        let items = generate_train(DatasetProfile::tiny(), 9);
        let slade = SladeBuilder::new(Isa::X86_64, OptLevel::O0)
            .profile(TrainProfile::tiny())
            .beam(1)
            .train(&items[..6.min(items.len())], 8);
        // Strip the fields a pre-knob artifact would not carry.
        let json = slade
            .to_json()
            .replace("\"isa\":\"X86_64\",", "")
            .replace("\"opt\":\"O0\",", "")
            .replace(&format!("\"max_batch_lanes\":{},", Slade::MAX_BATCH_LANES), "")
            .replace(&format!(",\"max_batch_lanes\":{}", Slade::MAX_BATCH_LANES), "");
        assert!(!json.contains("max_batch_lanes"), "field not stripped: {json:.120}");
        let back = Slade::from_json(&json).unwrap();
        assert_eq!(back.isa(), Isa::X86_64);
        assert_eq!(back.opt(), OptLevel::O0);
        assert_eq!(back.max_batch_lanes(), Slade::MAX_BATCH_LANES);
        let asm = "f:\n\tret\n";
        assert_eq!(slade.decompile(asm), back.decompile(asm));
    }

    #[test]
    fn serde_roundtrip() {
        let items = generate_train(DatasetProfile::tiny(), 9);
        let slade = SladeBuilder::new(Isa::X86_64, OptLevel::O0)
            .profile(TrainProfile::tiny())
            .beam(1)
            .train(&items[..10.min(items.len())], 2);
        let json = slade.to_json();
        // A saved model nests far below the depth the JSON parser refuses.
        fn depth(v: &serde_json::Value) -> usize {
            use serde_json::Value;
            match v {
                Value::Array(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
                Value::Object(m) => 1 + m.iter().map(|(_, v)| depth(v)).max().unwrap_or(0),
                _ => 0,
            }
        }
        let nesting = depth(&serde_json::Value::parse(&json).unwrap());
        assert!(nesting <= serde_json::MAX_DEPTH / 8, "{nesting}");
        let back = Slade::from_json(&json).unwrap();
        let asm = "f:\n\tmovl %edi, %eax\n\tret\n";
        assert_eq!(slade.decompile(asm), back.decompile(asm));
    }

    #[test]
    fn corrupt_spans_masks_some_tokens_and_never_empties() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let ids: Vec<u32> = (10..200).collect();
        let corrupted = corrupt_spans(&ids, &mut rng);
        assert!(corrupted.len() < ids.len(), "spans must shorten the sequence");
        assert!(corrupted.contains(&special::MASK));
        // Unmasked tokens keep their relative order.
        let kept: Vec<u32> =
            corrupted.iter().copied().filter(|&t| t != special::MASK).collect();
        let mut last = 0u32;
        for t in kept {
            assert!(t > last, "order violated");
            last = t;
        }
        // Degenerate input.
        let tiny = corrupt_spans(&[], &mut rng);
        assert_eq!(tiny, vec![special::MASK]);
    }

    #[test]
    fn from_parts_releases_optimizer_state() {
        let tokenizer = UnigramTokenizer::train(&["mov ret int".to_string()], 40);
        let mut model = Seq2Seq::new(TrainProfile::tiny().transformer_config(40), 1);
        model.train_pair(&[4, 5], &[1, 6], &[6, 2]);
        model.adam_step(1e-3, 0.01, 1.0);
        assert!(model.optimizer_floats() > 0);
        let slade = Slade::from_parts(model, tokenizer, Isa::X86_64, OptLevel::O0, 1, 4);
        assert_eq!(slade.model.optimizer_floats(), 0);
    }

    #[test]
    fn training_with_pretraining_and_dropout_runs() {
        let items = generate_train(DatasetProfile::tiny(), 5);
        let mut profile = TrainProfile::tiny();
        profile.epochs = 1;
        profile.pretrain_epochs = 1;
        profile.dropout = 0.1;
        let slade = SladeBuilder::new(Isa::X86_64, OptLevel::O0)
            .profile(profile)
            .beam(1)
            .train(&items[..8.min(items.len())], 3);
        // `tiny`'s source cap admits no pair, so pre-training is what
        // trains here and creates the optimizer state the build releases.
        assert_eq!(slade.model.optimizer_floats(), 0, "a built Slade holds weights only");
        let out = slade.decompile("f:\n\tret\n");
        assert!(!out.is_empty());
    }

    #[test]
    fn tokenizer_options_flow_through_training() {
        let items = generate_train(DatasetProfile::tiny(), 5);
        let profile = TrainProfile {
            tokenizer: TokenizerOptions { digit_split: false, punct_split: true },
            ..one_epoch()
        };
        let slade = SladeBuilder::new(Isa::X86_64, OptLevel::O0)
            .profile(profile)
            .beam(1)
            .train(&items[..8], 4);
        assert!(took_a_step(&slade, 4));
        assert_eq!(slade.tokenizer.options(), profile.tokenizer);
    }

    #[test]
    fn old_profiles_deserialize_with_paper_defaults() {
        // A profile serialized before the ablation knobs existed.
        let json = r#"{"d_model":32,"n_heads":2,"d_ff":64,"layers":1,"vocab":300,
            "max_src_len":96,"max_tgt_len":64,"epochs":2,"lr":0.003,
            "weight_decay":0.01,"batch":4}"#;
        let p: TrainProfile = serde_json::from_str(json).unwrap();
        assert_eq!(p.dropout, 0.0);
        assert_eq!(p.pretrain_epochs, 0);
        assert_eq!(p.tokenizer, TokenizerOptions::default());
    }
}
