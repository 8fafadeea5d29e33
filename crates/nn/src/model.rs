//! The sequence-to-sequence Transformer (BART-style, pre-LayerNorm),
//! with hand-written forward and backward passes.
//!
//! Architecture per the paper §V-B/§V-C: token + learned positional
//! embeddings shared between encoder, decoder and the output projection;
//! encoder blocks `h̄ = h + MHA(LN(h)); h = h̄ + FFN(LN(h̄))`; decoder blocks
//! with an extra encoder-decoder attention; causal masking in the decoder;
//! cross-entropy with teacher forcing; **no dropout** (weight decay only).
//!
//! Backward passes are written out per layer instead of via an autograd
//! tape — the architecture is fixed, so this is less machinery, and every
//! layer is finite-difference checked in the tests.

use crate::kernels::ATTN_TILE;
use crate::math::*;
use crate::store::{PId, ParamStore};
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Inference weight format. There is one: full-precision f32, packed
/// for the inference kernels below the engine seam. The enum and
/// [`TransformerConfig::backend`] remain because saved models and the
/// benchmark fixture spell `backend: Backend::F32`; a saved model naming
/// any other variant fails to load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Backend {
    /// Full-precision f32 weights (pre-transposed), the only format.
    #[default]
    F32,
}

/// Hyperparameters of the seq2seq model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransformerConfig {
    /// Vocabulary size (shared between source and target).
    pub vocab: usize,
    /// Model width.
    pub d_model: usize,
    /// Attention heads (must divide `d_model`).
    pub n_heads: usize,
    /// Feed-forward inner width.
    pub d_ff: usize,
    /// Encoder layers.
    pub enc_layers: usize,
    /// Decoder layers.
    pub dec_layers: usize,
    /// Maximum sequence length (positional table size).
    pub max_len: usize,
    /// Inference weight format (see [`Backend`]; absent in models saved
    /// before it existed).
    #[serde(default)]
    pub backend: Backend,
}

impl TransformerConfig {
    /// A deliberately small configuration that trains in minutes on one CPU
    /// core — the reproduction-scale stand-in for the paper's 200M model.
    pub fn small(vocab: usize) -> Self {
        TransformerConfig {
            vocab,
            d_model: 64,
            n_heads: 4,
            d_ff: 128,
            enc_layers: 2,
            dec_layers: 2,
            max_len: 160,
            backend: Backend::F32,
        }
    }

    /// A unit-test sized configuration.
    pub fn tiny(vocab: usize) -> Self {
        TransformerConfig {
            vocab,
            d_model: 16,
            n_heads: 2,
            d_ff: 32,
            enc_layers: 1,
            dec_layers: 1,
            max_len: 24,
            backend: Backend::F32,
        }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Attn {
    wq: PId,
    bq: PId,
    wk: PId,
    bk: PId,
    wv: PId,
    bv: PId,
    wo: PId,
    bo: PId,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Ln {
    gamma: PId,
    beta: PId,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Ffn {
    w1: PId,
    b1: PId,
    w2: PId,
    b2: PId,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct EncLayer {
    ln1: Ln,
    attn: Attn,
    ln2: Ln,
    ffn: Ffn,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct DecLayer {
    ln1: Ln,
    self_attn: Attn,
    ln2: Ln,
    cross_attn: Attn,
    ln3: Ln,
    ffn: Ffn,
}

/// The model: configuration, parameter store, and parameter handles.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Seq2Seq {
    /// Hyperparameters.
    pub cfg: TransformerConfig,
    store: ParamStore,
    embed: PId,
    pos: PId,
    enc: Vec<EncLayer>,
    dec: Vec<DecLayer>,
    ln_enc_out: Ln,
    ln_dec_out: Ln,
    /// Train-time dropout probability on every residual branch. The paper
    /// trains with **no dropout** (weight decay only, §V); this knob exists
    /// so that choice can be ablated. `0.0` (the default) is a strict
    /// no-op: no masks are sampled and the arithmetic is bit-identical.
    #[serde(default)]
    dropout: f32,
    #[serde(default)]
    drop_seed: u64,
    #[serde(default)]
    drop_step: u64,
}

impl Seq2Seq {
    /// Initializes a model with N(0, 0.02) weights from `seed`.
    pub fn new(cfg: TransformerConfig, seed: u64) -> Self {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut s = ParamStore::new();
        let d = cfg.d_model;
        let std = 0.02f32;
        fn make_attn(
            s: &mut ParamStore,
            rng: &mut rand_chacha::ChaCha8Rng,
            d: usize,
            std: f32,
        ) -> Attn {
            Attn {
                wq: s.alloc(d * d, std, rng),
                bq: s.alloc_zeros(d),
                wk: s.alloc(d * d, std, rng),
                bk: s.alloc_zeros(d),
                wv: s.alloc(d * d, std, rng),
                bv: s.alloc_zeros(d),
                wo: s.alloc(d * d, std, rng),
                bo: s.alloc_zeros(d),
            }
        }
        let mut enc = Vec::new();
        let mut dec = Vec::new();
        let embed = {
            let mut rng2 = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0x9e37_79b9);
            s.alloc(cfg.vocab * d, std, &mut rng2)
        };
        let pos = {
            let mut rng2 = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0x85eb_ca6b);
            s.alloc(cfg.max_len * d, std, &mut rng2)
        };
        for _ in 0..cfg.enc_layers {
            enc.push(EncLayer {
                ln1: Ln { gamma: s.alloc_ones(d), beta: s.alloc_zeros(d) },
                attn: make_attn(&mut s, &mut rng, d, std),
                ln2: Ln { gamma: s.alloc_ones(d), beta: s.alloc_zeros(d) },
                ffn: Ffn {
                    w1: s.alloc(cfg.d_ff * d, std, &mut rng),
                    b1: s.alloc_zeros(cfg.d_ff),
                    w2: s.alloc(d * cfg.d_ff, std, &mut rng),
                    b2: s.alloc_zeros(d),
                },
            });
        }
        for _ in 0..cfg.dec_layers {
            dec.push(DecLayer {
                ln1: Ln { gamma: s.alloc_ones(d), beta: s.alloc_zeros(d) },
                self_attn: make_attn(&mut s, &mut rng, d, std),
                ln2: Ln { gamma: s.alloc_ones(d), beta: s.alloc_zeros(d) },
                cross_attn: make_attn(&mut s, &mut rng, d, std),
                ln3: Ln { gamma: s.alloc_ones(d), beta: s.alloc_zeros(d) },
                ffn: Ffn {
                    w1: s.alloc(cfg.d_ff * d, std, &mut rng),
                    b1: s.alloc_zeros(cfg.d_ff),
                    w2: s.alloc(d * cfg.d_ff, std, &mut rng),
                    b2: s.alloc_zeros(d),
                },
            });
        }
        let ln_enc_out = Ln { gamma: s.alloc_ones(d), beta: s.alloc_zeros(d) };
        let ln_dec_out = Ln { gamma: s.alloc_ones(d), beta: s.alloc_zeros(d) };
        Seq2Seq {
            cfg,
            store: s,
            embed,
            pos,
            enc,
            dec,
            ln_enc_out,
            ln_dec_out,
            dropout: 0.0,
            drop_seed: 0,
            drop_step: 0,
        }
    }

    /// Enables inverted dropout with probability `p` on every residual
    /// branch during training (ablation of the paper's dropout-free recipe).
    /// Masks are sampled deterministically from `seed`, so runs reproduce.
    /// Inference paths ([`Seq2Seq::encode`], decoding) never apply dropout.
    pub fn set_dropout(&mut self, p: f32, seed: u64) {
        self.dropout = p.clamp(0.0, 0.95);
        self.drop_seed = seed;
        self.drop_step = 0;
    }

    /// The configured train-time dropout probability.
    pub fn dropout(&self) -> f32 {
        self.dropout
    }

    /// Samples the next inverted-dropout mask (entries `0` or `1/(1-p)`),
    /// or `None` when dropout is disabled.
    fn next_mask(&mut self, len: usize) -> Option<Vec<f32>> {
        if self.dropout <= 0.0 {
            return None;
        }
        use rand::Rng;
        let keep = 1.0 - self.dropout;
        let scale = 1.0 / keep;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(
            self.drop_seed ^ self.drop_step.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        self.drop_step = self.drop_step.wrapping_add(1);
        Some((0..len).map(|_| if rng.gen::<f32>() < keep { scale } else { 0.0 }).collect())
    }

    /// Total number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.store.num_params()
    }

    /// Zeroes accumulated gradients.
    pub fn zero_grads(&mut self) {
        self.store.zero_grads();
    }

    /// One AdamW update; `scale` divides accumulated gradients (1/batch).
    pub fn adam_step(&mut self, lr: f32, weight_decay: f32, scale: f32) {
        // Clip to unit norm for stability on tiny batches.
        let norm = self.store.grad_norm() * scale;
        if norm > 1.0 {
            self.store.scale_grads(1.0 / norm);
        }
        self.store.adam_step(lr, weight_decay, scale);
    }

    /// Floats held by gradients and Adam moments: none until the first
    /// gradient, three per parameter once AdamW has stepped.
    pub fn optimizer_floats(&self) -> usize {
        self.store.optimizer_floats()
    }

    /// Frees the gradients and Adam moments, keeping the weights: a model
    /// built for inference holds only its parameters.
    pub fn release_optimizer_state(&mut self) {
        self.store.release_optimizer_state();
    }

    // ---- forward primitives (shared by train and inference) ----

    /// Token + position embeddings of `ids` (positions from 0) into the
    /// `ids.len() × d_model` rows of `out`.
    fn embed_into(&self, ids: &[u32], out: &mut [f32]) {
        let d = self.cfg.d_model;
        let e = self.store.data(self.embed);
        let p = self.store.data(self.pos);
        for (t, &id) in ids.iter().enumerate() {
            let row = (id as usize).min(self.cfg.vocab - 1) * d;
            let prow = t.min(self.cfg.max_len - 1) * d;
            for j in 0..d {
                out[t * d + j] = e[row + j] + p[prow + j];
            }
        }
    }

    fn embed_seq(&self, ids: &[u32]) -> Vec<f32> {
        let mut out = vec![0.0f32; ids.len() * self.cfg.d_model];
        self.embed_into(ids, &mut out);
        out
    }

    fn linear(&self, w: PId, b: PId, x: &[f32], t: usize, din: usize, dout: usize) -> Vec<f32> {
        let mut y = vec![0.0f32; t * dout];
        self.proj_weight(w, dout, din).apply(x, Some(self.store.data(b)), &mut y, t, din, dout);
        y
    }

    /// The tied output projection of `t` decoder hidden rows: their
    /// `t × vocab` logits against the token embeddings.
    fn tied_logits(&self, hn: &[f32], t: usize) -> Vec<f32> {
        let (d, v) = (self.cfg.d_model, self.cfg.vocab);
        let mut logits = vec![0.0f32; t * v];
        self.proj_weight(self.embed, v, d).apply(hn, None, &mut logits, t, d, v);
        logits
    }

    fn layer_norm(&self, ln: &Ln, x: &[f32], t: usize) -> LnCache {
        let d = self.cfg.d_model;
        let gamma = self.store.data(ln.gamma);
        let beta = self.store.data(ln.beta);
        let mut y = vec![0.0f32; x.len()];
        let mut means = vec![0.0f32; t];
        let mut rstds = vec![0.0f32; t];
        crate::kernels::layer_norm_stats_into(
            x, gamma, beta, t, d, &mut y, &mut means, &mut rstds,
        );
        LnCache { x: x.to_vec(), y, means, rstds }
    }

    /// Multi-head attention forward; returns `(output, cache)`.
    fn attention(
        &self,
        a: &Attn,
        x: &[f32],
        kv: &[f32],
        t: usize,
        s: usize,
        causal: bool,
    ) -> (Vec<f32>, AttnCache) {
        let d = self.cfg.d_model;
        let h = self.cfg.n_heads;
        let dh = d / h;
        let scale = 1.0 / (dh as f32).sqrt();
        let q = self.linear(a.wq, a.bq, x, t, d, d);
        let k = self.linear(a.wk, a.bk, kv, s, d, d);
        let v = self.linear(a.wv, a.bv, kv, s, d, d);
        let mut probs = vec![0.0f32; h * t * s];
        let mut ctx = vec![0.0f32; t * d];
        for head in 0..h {
            let off = head * dh;
            let p = &mut probs[head * t * s..(head + 1) * t * s];
            for ti in 0..t {
                // Causal rows softmax the prefix only; the masked tail
                // stays exactly 0.0 in the cached probs (same values the
                // old `-inf`-then-softmax pass produced, since
                // `exp(-inf) = +0.0` neither moves the row max nor the
                // non-negative lane sums).
                let limit = if causal { (ti + 1).min(s) } else { s };
                let prow = &mut p[ti * s..(ti + 1) * s];
                if limit == 0 {
                    continue;
                }
                crate::kernels::attn_scores_into(
                    &q[ti * d + off..ti * d + off + dh],
                    &k[off..],
                    d,
                    scale,
                    &mut prow[..limit],
                );
                crate::kernels::softmax_into(&mut prow[..limit]);
                prow[limit..].fill(0.0);
                crate::kernels::attn_weighted_sum_into(
                    &prow[..limit],
                    &v[off..],
                    d,
                    &mut ctx[ti * d + off..ti * d + off + dh],
                );
            }
        }
        let out = self.linear(a.wo, a.bo, &ctx, t, d, d);
        (out, AttnCache { q, k, v, probs, ctx })
    }

    /// Attention backward: accumulates parameter grads, returns
    /// `(dx, dkv)`.
    #[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
    fn attention_bwd(
        &mut self,
        a: &Attn,
        cache: &AttnCache,
        x: &[f32],
        kv: &[f32],
        t: usize,
        s: usize,
        dout: &[f32],
    ) -> (Vec<f32>, Vec<f32>) {
        let d = self.cfg.d_model;
        let h = self.cfg.n_heads;
        let dh = d / h;
        let scale = 1.0 / (dh as f32).sqrt();
        // Output projection backward.
        let mut dctx = vec![0.0f32; t * d];
        matmul_into(dout, self.store.data(a.wo), &mut dctx, t, d, d);
        let mut dwo = vec![0.0f32; d * d];
        matmul_transa_into(dout, &cache.ctx, &mut dwo, t, d, d);
        self.store.add_grad(a.wo, &dwo);
        self.store.add_grad(a.bo, &col_sums(dout, t, d));
        let mut dq = vec![0.0f32; t * d];
        let mut dk = vec![0.0f32; s * d];
        let mut dv = vec![0.0f32; s * d];
        for head in 0..h {
            let off = head * dh;
            let p = &cache.probs[head * t * s..(head + 1) * t * s];
            for ti in 0..t {
                // dA and softmax backward for this row.
                let mut da = vec![0.0f32; s];
                for si in 0..s {
                    let mut acc = 0.0f32;
                    for j in 0..dh {
                        acc += dctx[ti * d + off + j] * cache.v[si * d + off + j];
                    }
                    da[si] = acc;
                }
                let row = &p[ti * s..(ti + 1) * s];
                let dot: f32 = row.iter().zip(&da).map(|(a, b)| a * b).sum();
                for si in 0..s {
                    let dscore = row[si] * (da[si] - dot);
                    if dscore == 0.0 {
                        continue;
                    }
                    for j in 0..dh {
                        dq[ti * d + off + j] += dscore * cache.k[si * d + off + j] * scale;
                        dk[si * d + off + j] += dscore * cache.q[ti * d + off + j] * scale;
                    }
                }
                // dV.
                for si in 0..s {
                    let w = row[si];
                    if w == 0.0 {
                        continue;
                    }
                    for j in 0..dh {
                        dv[si * d + off + j] += w * dctx[ti * d + off + j];
                    }
                }
            }
        }
        // Project back through the three input linears (scratch buffers
        // reused for the weight grads).
        let mut dw = vec![0.0f32; d * d];
        let mut dx = vec![0.0f32; t * d];
        matmul_into(&dq, self.store.data(a.wq), &mut dx, t, d, d);
        matmul_transa_into(&dq, x, &mut dw, t, d, d);
        self.store.add_grad(a.wq, &dw);
        self.store.add_grad(a.bq, &col_sums(&dq, t, d));
        let mut dkv = vec![0.0f32; s * d];
        matmul_into(&dk, self.store.data(a.wk), &mut dkv, s, d, d);
        matmul_transa_into(&dk, kv, &mut dw, s, d, d);
        self.store.add_grad(a.wk, &dw);
        self.store.add_grad(a.bk, &col_sums(&dk, s, d));
        let mut dkv2 = vec![0.0f32; s * d];
        matmul_into(&dv, self.store.data(a.wv), &mut dkv2, s, d, d);
        matmul_transa_into(&dv, kv, &mut dw, s, d, d);
        self.store.add_grad(a.wv, &dw);
        self.store.add_grad(a.bv, &col_sums(&dv, s, d));
        for (a_, b_) in dkv.iter_mut().zip(&dkv2) {
            *a_ += b_;
        }
        // Self-attention: x and kv are the same tensor; caller merges.
        if std::ptr::eq(x.as_ptr(), kv.as_ptr()) {
            for (a_, b_) in dx.iter_mut().zip(&dkv) {
                *a_ += b_;
            }
            dkv.iter_mut().for_each(|v| *v = 0.0);
        }
        (dx, dkv)
    }

    fn layer_norm_bwd(&mut self, ln: &Ln, cache: &LnCache, dy: &[f32], t: usize) -> Vec<f32> {
        let LnCache { x, means, rstds, .. } = cache;
        let d = self.cfg.d_model;
        let gamma = self.store.data(ln.gamma).to_vec();
        let mut dgamma = vec![0.0f32; d];
        let mut dbeta = vec![0.0f32; d];
        let mut dx = vec![0.0f32; x.len()];
        for r in 0..t {
            let mean = means[r];
            let rstd = rstds[r];
            let xr = &x[r * d..(r + 1) * d];
            let dyr = &dy[r * d..(r + 1) * d];
            let mut sum_dxhat = 0.0f32;
            let mut sum_dxhat_xhat = 0.0f32;
            let mut xhat = vec![0.0f32; d];
            let mut dxhat = vec![0.0f32; d];
            for j in 0..d {
                xhat[j] = (xr[j] - mean) * rstd;
                dgamma[j] += dyr[j] * xhat[j];
                dbeta[j] += dyr[j];
                dxhat[j] = dyr[j] * gamma[j];
                sum_dxhat += dxhat[j];
                sum_dxhat_xhat += dxhat[j] * xhat[j];
            }
            let n = d as f32;
            for j in 0..d {
                dx[r * d + j] =
                    rstd / n * (n * dxhat[j] - sum_dxhat - xhat[j] * sum_dxhat_xhat);
            }
        }
        self.store.add_grad(ln.gamma, &dgamma);
        self.store.add_grad(ln.beta, &dbeta);
        dx
    }

    fn ffn_fwd(&self, f: &Ffn, x: &[f32], t: usize) -> (Vec<f32>, Vec<f32>) {
        let d = self.cfg.d_model;
        let dff = self.cfg.d_ff;
        let hidden = self.linear(f.w1, f.b1, x, t, d, dff);
        let mut act = hidden.clone();
        crate::kernels::gelu_into(&mut act);
        let out = self.linear(f.w2, f.b2, &act, t, dff, d);
        (out, hidden)
    }

    fn ffn_bwd(
        &mut self,
        f: &Ffn,
        x: &[f32],
        hidden: &[f32],
        dy: &[f32],
        t: usize,
    ) -> Vec<f32> {
        let d = self.cfg.d_model;
        let dff = self.cfg.d_ff;
        let mut act = hidden.to_vec();
        crate::kernels::gelu_into(&mut act);
        let mut dact = vec![0.0f32; t * dff];
        matmul_into(dy, self.store.data(f.w2), &mut dact, t, d, dff);
        let mut dw = vec![0.0f32; d * dff];
        matmul_transa_into(dy, &act, &mut dw, t, d, dff);
        self.store.add_grad(f.w2, &dw);
        self.store.add_grad(f.b2, &col_sums(dy, t, d));
        let mut dhidden = dact;
        for (dh, h) in dhidden.iter_mut().zip(hidden) {
            *dh *= gelu_grad(*h);
        }
        let mut dx = vec![0.0f32; t * d];
        matmul_into(&dhidden, self.store.data(f.w1), &mut dx, t, dff, d);
        matmul_transa_into(&dhidden, x, &mut dw, t, dff, d);
        self.store.add_grad(f.w1, &dw);
        self.store.add_grad(f.b1, &col_sums(&dhidden, t, dff));
        dx
    }

    /// The encoder stack over `src`, keeping what the backward pass needs.
    /// `masks` holds one `[attention, ffn]` pair of residual-branch dropout
    /// masks per layer, or is empty (inference: no dropout).
    fn enc_forward(&self, src: &[u32], masks: &[[Mask; 2]]) -> EncForward {
        let s = src.len();
        let mut h = self.embed_seq(src);
        let mut layers = Vec::with_capacity(self.enc.len());
        for (l, layer) in self.enc.iter().enumerate() {
            let mask = |branch: usize| masks.get(l).and_then(|m| m[branch].as_deref());
            let ln1 = self.layer_norm(&layer.ln1, &h, s);
            let (mut att, attn) = self.attention(&layer.attn, &ln1.y, &ln1.y, s, s, false);
            apply_mask(&mut att, mask(0));
            add_into(&mut h, &att);
            let ln2 = self.layer_norm(&layer.ln2, &h, s);
            let (mut ff, hidden) = self.ffn_fwd(&layer.ffn, &ln2.y, s);
            apply_mask(&mut ff, mask(1));
            add_into(&mut h, &ff);
            layers.push(EncLayerCache { ln1, attn, ln2, hidden });
        }
        EncForward { layers, out: self.layer_norm(&self.ln_enc_out, &h, s) }
    }

    /// The decoder stack over a full prefix against `s` rows of encoder
    /// memory, keeping what the backward pass needs. `masks` holds one
    /// `[self-attention, cross-attention, ffn]` triple per layer, or is
    /// empty (inference: no dropout).
    fn dec_forward(
        &self,
        mem: &[f32],
        s: usize,
        tgt: &[u32],
        masks: &[[Mask; 3]],
    ) -> DecForward {
        let t = tgt.len();
        let mut h = self.embed_seq(tgt);
        let mut layers = Vec::with_capacity(self.dec.len());
        for (l, layer) in self.dec.iter().enumerate() {
            let mask = |branch: usize| masks.get(l).and_then(|m| m[branch].as_deref());
            let ln1 = self.layer_norm(&layer.ln1, &h, t);
            let (mut att, self_attn) =
                self.attention(&layer.self_attn, &ln1.y, &ln1.y, t, t, true);
            apply_mask(&mut att, mask(0));
            add_into(&mut h, &att);
            let ln2 = self.layer_norm(&layer.ln2, &h, t);
            let (mut catt, cross_attn) =
                self.attention(&layer.cross_attn, &ln2.y, mem, t, s, false);
            apply_mask(&mut catt, mask(1));
            add_into(&mut h, &catt);
            let ln3 = self.layer_norm(&layer.ln3, &h, t);
            let (mut ff, hidden) = self.ffn_fwd(&layer.ffn, &ln3.y, t);
            apply_mask(&mut ff, mask(2));
            add_into(&mut h, &ff);
            layers.push(DecLayerCache { ln1, self_attn, ln2, cross_attn, ln3, hidden });
        }
        DecForward { layers, out: self.layer_norm(&self.ln_dec_out, &h, t) }
    }

    /// Encoder forward (inference path: no dropout, caches dropped).
    pub fn encode(&self, src: &[u32]) -> Vec<f32> {
        self.enc_forward(src, &[]).out.y
    }

    /// Decoder hidden states for a full prefix (inference path: no
    /// dropout, caches dropped).
    fn decoder_hidden(&self, mem: &[f32], s: usize, tgt_prefix: &[u32]) -> Vec<f32> {
        self.dec_forward(mem, s, tgt_prefix, &[]).out.y
    }

    /// Decoder forward over a full prefix; returns logits of the **last**
    /// position only — the training forward's arithmetic, and the
    /// reference [`Seq2Seq::decode_step_batch`] is tested against bit for
    /// bit.
    ///
    /// # Panics
    ///
    /// Panics on an empty `tgt_prefix`: there is no last position.
    pub fn decode_last_logits(&self, mem: &[f32], s: usize, tgt_prefix: &[u32]) -> Vec<f32> {
        let t = tgt_prefix.len();
        assert!(t > 0, "decode_last_logits needs at least one prefix token");
        let hn = self.decoder_hidden(mem, s, tgt_prefix);
        let d = self.cfg.d_model;
        self.tied_logits(&hn[(t - 1) * d..t * d], 1)
    }

    /// Decoder forward over a full prefix; returns the `t × vocab` logits of
    /// **every** position (teacher-forced evaluation).
    pub fn decode_all_logits(&self, mem: &[f32], s: usize, tgt_prefix: &[u32]) -> Vec<f32> {
        let hn = self.decoder_hidden(mem, s, tgt_prefix);
        self.tied_logits(&hn, tgt_prefix.len())
    }

    /// Forward-only teacher-forced statistics of one pair — the held-out
    /// `(mean cross-entropy, next-token accuracy)` the ablation harness
    /// reports, from one encode and one decoder forward. Accuracy is the
    /// fraction of positions whose argmax logit is the label; an empty
    /// pair scores `(NaN, 0.0)`. Never applies dropout and never touches
    /// gradients.
    pub fn eval_pair(&self, src: &[u32], dec_input: &[u32], labels: &[u32]) -> (f32, f64) {
        assert_eq!(dec_input.len(), labels.len(), "teacher forcing alignment");
        let t = labels.len();
        if t == 0 {
            return (f32::NAN, 0.0);
        }
        let src: Vec<u32> = src.iter().take(self.cfg.max_len).copied().collect();
        let mem = self.encode(&src);
        let v = self.cfg.vocab;
        let mut logits = self.decode_all_logits(&mem, src.len(), dec_input);
        let mut loss = 0.0f32;
        let mut hits = 0usize;
        for (row, &label) in logits.chunks_exact_mut(v).zip(labels) {
            let argmax =
                row.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i);
            hits += usize::from(argmax == Some(label as usize));
            softmax_rows(row, 1, v);
            loss -= row[label as usize].max(1e-9).ln();
        }
        (loss / t as f32, hits as f64 / t as f64)
    }

    /// One teacher-forced training example: forward, loss, backward
    /// (gradients accumulate). `src` is the tokenized assembly, `tgt` the
    /// tokenized C; BOS/EOS handling is the caller's job via
    /// `decoder_input = [BOS] ++ tgt`, `labels = tgt ++ [EOS]`.
    pub fn train_pair(&mut self, src: &[u32], dec_input: &[u32], labels: &[u32]) -> f32 {
        assert_eq!(dec_input.len(), labels.len(), "teacher forcing alignment");
        let d = self.cfg.d_model;
        let s = src.len();
        let t = dec_input.len();
        // Residual-branch dropout masks, sampled before the forward borrows
        // `self`. `None` everywhere at p = 0.
        let enc_masks: Vec<[Mask; 2]> = (0..self.cfg.enc_layers)
            .map(|_| [self.next_mask(s * d), self.next_mask(s * d)])
            .collect();
        let dec_masks: Vec<[Mask; 3]> = (0..self.cfg.dec_layers)
            .map(|_| [self.next_mask(t * d), self.next_mask(t * d), self.next_mask(t * d)])
            .collect();
        let enc = self.enc_forward(src, &enc_masks);
        let mem = &enc.out.y;
        let dec = self.dec_forward(mem, s, dec_input, &dec_masks);
        let hn = &dec.out.y;
        // ---- loss: tied-output softmax cross-entropy ----
        let v = self.cfg.vocab;
        let mut logits = self.tied_logits(hn, t);
        softmax_rows(&mut logits, t, v);
        let mut loss = 0.0f32;
        let mut dlogits = logits; // becomes (p - onehot)/t
        for (ti, &label) in labels.iter().enumerate() {
            let p = dlogits[ti * v + label as usize].max(1e-9);
            loss -= p.ln();
            dlogits[ti * v + label as usize] -= 1.0;
        }
        let inv_t = 1.0 / t as f32;
        dlogits.iter_mut().for_each(|g| *g *= inv_t);
        loss *= inv_t;
        // ---- backward ----
        // Tied output: dhn = dlogits @ E; dE += dlogits^T @ hn.
        let mut dhn = vec![0.0f32; t * d];
        matmul_into(&dlogits, self.store.data(self.embed), &mut dhn, t, v, d);
        let mut de_out = vec![0.0f32; v * d];
        matmul_transa_into(&dlogits, hn, &mut de_out, t, v, d);
        self.store.add_grad(self.embed, &de_out);
        let ln_dec_out = self.ln_dec_out.clone();
        let mut dh = self.layer_norm_bwd(&ln_dec_out, &dec.out, &dhn, t);
        let mut dmem_total = vec![0.0f32; mem.len()];
        for ((layer, c), masks) in
            self.dec.clone().iter().zip(&dec.layers).zip(&dec_masks).rev()
        {
            // FFN residual.
            let dff_out = masked(&dh, masks[2].as_deref());
            let dln3 = self.ffn_bwd(&layer.ffn, &c.ln3.y, &c.hidden, &dff_out, t);
            let dx2 = self.layer_norm_bwd(&layer.ln3, &c.ln3, &dln3, t);
            add_into(&mut dh, &dx2);
            // Cross-attention residual.
            let dcatt = masked(&dh, masks[1].as_deref());
            let (dln2, dmem) = self.attention_bwd(
                &layer.cross_attn,
                &c.cross_attn,
                &c.ln2.y,
                mem,
                t,
                s,
                &dcatt,
            );
            add_into(&mut dmem_total, &dmem);
            let dx1 = self.layer_norm_bwd(&layer.ln2, &c.ln2, &dln2, t);
            add_into(&mut dh, &dx1);
            // Self-attention residual.
            let datt = masked(&dh, masks[0].as_deref());
            let (dln1, _) = self.attention_bwd(
                &layer.self_attn,
                &c.self_attn,
                &c.ln1.y,
                &c.ln1.y,
                t,
                t,
                &datt,
            );
            let dx0 = self.layer_norm_bwd(&layer.ln1, &c.ln1, &dln1, t);
            add_into(&mut dh, &dx0);
        }
        // Decoder input embedding grads.
        self.accumulate_embed_grads(dec_input, &dh);
        // Through the encoder output LN into the encoder stack.
        let ln_enc_out = self.ln_enc_out.clone();
        let mut dhe = self.layer_norm_bwd(&ln_enc_out, &enc.out, &dmem_total, s);
        for ((layer, c), masks) in
            self.enc.clone().iter().zip(&enc.layers).zip(&enc_masks).rev()
        {
            let dff_out = masked(&dhe, masks[1].as_deref());
            let dln2 = self.ffn_bwd(&layer.ffn, &c.ln2.y, &c.hidden, &dff_out, s);
            let dx1 = self.layer_norm_bwd(&layer.ln2, &c.ln2, &dln2, s);
            add_into(&mut dhe, &dx1);
            let datt = masked(&dhe, masks[0].as_deref());
            let (dln1, _) =
                self.attention_bwd(&layer.attn, &c.attn, &c.ln1.y, &c.ln1.y, s, s, &datt);
            let dx0 = self.layer_norm_bwd(&layer.ln1, &c.ln1, &dln1, s);
            add_into(&mut dhe, &dx0);
        }
        self.accumulate_embed_grads(src, &dhe);
        loss
    }

    fn accumulate_embed_grads(&mut self, ids: &[u32], dh: &[f32]) {
        let d = self.cfg.d_model;
        for (ti, &id) in ids.iter().enumerate() {
            let g = &dh[ti * d..(ti + 1) * d];
            self.store.add_grad_slice(self.embed, (id as usize).min(self.cfg.vocab - 1) * d, g);
            self.store.add_grad_slice(self.pos, ti.min(self.cfg.max_len - 1) * d, g);
        }
    }

    /// Writes `linear(x)` into a caller-provided buffer through an
    /// inference weight materialized by [`Seq2Seq::proj_weight`]. The
    /// batched paths reuse scratch across steps instead of allocating.
    #[allow(clippy::too_many_arguments)]
    fn project_into(
        &self,
        w: &ProjWeight,
        b: PId,
        x: &[f32],
        out: &mut [f32],
        t: usize,
        din: usize,
        dout: usize,
    ) {
        let o = slade_obs::obs();
        o.count(slade_obs::KernelCtr::ProjCalls, 1);
        o.count(slade_obs::KernelCtr::ProjRows, t as u64);
        w.apply(x, Some(self.store.data(b)), out, t, din, dout);
    }

    /// Allocation-free [`Seq2Seq::layer_norm`] for inference (no
    /// mean/rstd caches). Arithmetic is identical to the caching version.
    fn layer_norm_into(&self, ln: &Ln, x: &[f32], t: usize, out: &mut [f32]) {
        let d = self.cfg.d_model;
        let gamma = self.store.data(ln.gamma);
        let beta = self.store.data(ln.beta);
        crate::kernels::layer_norm_into(&x[..t * d], gamma, beta, t, d, &mut out[..t * d]);
    }

    /// Encoder forward of every sequence of `srcs` through the inference
    /// weights: one encoder memory per input, bit-identical to
    /// [`Seq2Seq::encode`] on each sequence. Sequences run one at a time
    /// (see [`Seq2Seq::encode_batch_in`], which this is with the weights
    /// packed for the call).
    pub fn encode_batch(&self, srcs: &[&[u32]]) -> Vec<Vec<f32>> {
        self.encode_seqs(&self.encoder_weights(), srcs)
    }

    /// [`Seq2Seq::encode_batch`] through the encoder weights `state`
    /// materialized at [`Seq2Seq::begin_decode_batch`] — what a decode
    /// session admits through. One sequence at a time: every projection
    /// is a matmul over that sequence's rows, and attention takes a tile
    /// of [`ATTN_TILE`] consecutive query rows (`attend_tile`) against
    /// the layer's keys and values, laid out per head once per layer
    /// (`KvRows`) and read by every tile. Ragged lengths are exact
    /// without padding or masking. The activations live in a scratch of
    /// the call's own, sized once to its longest source and dropped on
    /// return: the session keeps no source-length buffer between
    /// admissions.
    pub fn encode_batch_in(
        &self,
        state: &mut BatchedDecoderState,
        srcs: &[&[u32]],
    ) -> Vec<Vec<f32>> {
        self.encode_seqs(&state.enc_xposed, srcs)
    }

    fn encode_seqs(&self, weights: &[XposedEncLayer], srcs: &[&[u32]]) -> Vec<Vec<f32>> {
        let _timer = slade_obs::StageTimer::start(slade_obs::StageHist::Encode);
        let total: usize = srcs.iter().map(|s| s.len()).sum();
        slade_obs::obs().count(slade_obs::KernelCtr::EncodeRows, total as u64);
        let mut scratch = Scratch::default();
        let longest = srcs.iter().map(|s| s.len()).max().unwrap_or(0);
        scratch.ensure(longest, self.cfg.d_model, self.cfg.d_ff);
        srcs.iter().map(|src| self.encode_seq(weights, &mut scratch, src)).collect()
    }

    /// One sequence of [`Seq2Seq::encode_batch_in`], in a scratch with
    /// room for its rows. Every buffer is cut to this sequence's rows
    /// before use, so nothing a longer sequence left in the scratch is
    /// read.
    fn encode_seq(
        &self,
        weights: &[XposedEncLayer],
        sc: &mut Scratch,
        src: &[u32],
    ) -> Vec<f32> {
        let d = self.cfg.d_model;
        let h = self.cfg.n_heads;
        let dh = d / h;
        let dff = self.cfg.d_ff;
        let t = src.len();
        let rows = t * d;
        self.embed_into(src, &mut sc.x[..rows]);
        for (layer, xw) in self.enc.iter().zip(weights) {
            self.layer_norm_into(&layer.ln1, &sc.x[..rows], t, &mut sc.ln[..rows]);
            let a = &layer.attn;
            let ln = &sc.ln[..rows];
            self.project_into(&xw.wq, a.bq, ln, &mut sc.q[..rows], t, d, d);
            self.project_into(&xw.wk, a.bk, ln, &mut sc.k[..rows], t, d, d);
            self.project_into(&xw.wv, a.bv, ln, &mut sc.v[..rows], t, d, d);
            pack_heads(&sc.k[..rows], t, h, dh, &mut sc.kp);
            split_heads(&sc.v[..rows], t, h, dh, &mut sc.vp);
            let kv = KvRows::contiguous(&sc.kp, &sc.vp, t);
            for (qt, ct) in
                sc.q[..rows].chunks(ATTN_TILE * d).zip(sc.ctx[..rows].chunks_mut(ATTN_TILE * d))
            {
                attend_tile(qt, &kv, h, dh, &mut sc.scores, ct);
            }
            let proj = &mut sc.proj[..rows];
            self.project_into(&xw.wo, a.bo, &sc.ctx[..rows], proj, t, d, d);
            add_into(&mut sc.x[..rows], proj);
            self.layer_norm_into(&layer.ln2, &sc.x[..rows], t, &mut sc.ln[..rows]);
            let hidden = &mut sc.hidden[..t * dff];
            let f = &layer.ffn;
            self.project_into(&xw.ffn_w1, f.b1, &sc.ln[..rows], hidden, t, d, dff);
            crate::kernels::gelu_into(hidden);
            self.project_into(&xw.ffn_w2, f.b2, hidden, proj, t, dff, d);
            add_into(&mut sc.x[..rows], proj);
        }
        let mut out = vec![0.0f32; rows];
        self.layer_norm_into(&self.ln_enc_out, &sc.x[..rows], t, &mut out);
        out
    }

    /// The encoder's weights in their inference format (see
    /// [`Seq2Seq::proj_weight`]).
    fn encoder_weights(&self) -> Vec<XposedEncLayer> {
        let d = self.cfg.d_model;
        let dff = self.cfg.d_ff;
        self.enc
            .iter()
            .map(|layer| XposedEncLayer {
                wq: self.proj_weight(layer.attn.wq, d, d),
                wk: self.proj_weight(layer.attn.wk, d, d),
                wv: self.proj_weight(layer.attn.wv, d, d),
                wo: self.proj_weight(layer.attn.wo, d, d),
                ffn_w1: self.proj_weight(layer.ffn.w1, dff, d),
                ffn_w2: self.proj_weight(layer.ffn.w2, d, dff),
            })
            .collect()
    }

    /// Transposes one `[dout, din]` weight tensor into `[din, dout]`.
    fn xposed(&self, w: PId, dout: usize, din: usize) -> Vec<f32> {
        let mut t = vec![0.0f32; dout * din];
        transpose_into(self.store.data(w), &mut t, dout, din);
        t
    }

    /// Materializes one weight tensor in the one layout every forward
    /// projects through: transposed and packed into j-block slabs. The
    /// training forward packs per call (its weights change every step);
    /// the inference paths pack once per session.
    fn proj_weight(&self, w: PId, dout: usize, din: usize) -> ProjWeight {
        ProjWeight(crate::kernels::pack_xposed_blocks(&self.xposed(w, dout, din), din, dout))
    }

    /// Creates an empty [`BatchedDecoderState`] with room for `cap_lanes`
    /// concurrent hypotheses of up to `cap_pos` decoded tokens each. The
    /// self-attention block pool starts empty and grows as lanes take
    /// blocks, up to a full table per lane. The inference weights — the
    /// decoder's for the batched step, the encoder's for
    /// [`Seq2Seq::encode_batch_in`] — are materialized once here
    /// (transposed and packed); the per-step decode path allocates nothing
    /// once its scratch has grown to the most live lanes, the only rows it
    /// holds. The state snapshots the weights, so it must not outlive
    /// parameter updates.
    pub fn begin_decode_batch(&self, cap_lanes: usize, cap_pos: usize) -> BatchedDecoderState {
        let layers = self.dec.len();
        let d = self.cfg.d_model;
        let dff = self.cfg.d_ff;
        let (cap_lanes, cap_pos) = (cap_lanes.max(1), cap_pos.max(1));
        let table_stride = cap_pos.div_ceil(KV_BLOCK);
        let tables = cap_lanes * table_stride;
        let xposed = self
            .dec
            .iter()
            .map(|layer| XposedDecLayer {
                self_wq: self.proj_weight(layer.self_attn.wq, d, d),
                self_wk: self.proj_weight(layer.self_attn.wk, d, d),
                self_wv: self.proj_weight(layer.self_attn.wv, d, d),
                self_wo: self.proj_weight(layer.self_attn.wo, d, d),
                cross_wq: self.proj_weight(layer.cross_attn.wq, d, d),
                cross_wk: self.proj_weight(layer.cross_attn.wk, d, d),
                cross_wv: self.proj_weight(layer.cross_attn.wv, d, d),
                cross_wo: self.proj_weight(layer.cross_attn.wo, d, d),
                ffn_w1: self.proj_weight(layer.ffn.w1, dff, d),
                ffn_w2: self.proj_weight(layer.ffn.w2, d, dff),
            })
            .collect();
        let embed_t = self.proj_weight(self.embed, self.cfg.vocab, d);
        BatchedDecoderState {
            d,
            heads: self.cfg.n_heads,
            cap_pos,
            self_k: vec![Vec::new(); layers],
            self_v: vec![Vec::new(); layers],
            block_refs: Vec::new(),
            free_blocks: Vec::new(),
            table_stride,
            lane_blocks: vec![0; tables],
            next_blocks: vec![0; tables],
            cross: Vec::new(),
            cross_free: Vec::new(),
            lane_pos: Vec::new(),
            lane_cross: Vec::new(),
            cap_lanes,
            xposed,
            enc_xposed: self.encoder_weights(),
            embed_t,
            scratch: Scratch::default(),
        }
    }

    /// Consumes one decoder token **per live lane** and returns the
    /// `[lanes, vocab]` next-token logits, bit-identical to
    /// [`Seq2Seq::decode_last_logits`] over each lane's whole
    /// prefix (decoder layers are causal and LayerNorm is per-position,
    /// so cached keys/values are exact). Every projection (Q/K/V/out,
    /// both FFN layers, and the vocabulary logits) runs as **one** matmul
    /// over all live lanes.
    /// Both attentions take a beam — the adjacent lanes of one request,
    /// all at one position (`beams`) — as one query tile
    /// (`attend_tile`): its lanes read the same cross memory, and the
    /// blocks of self-attention history they still share.
    ///
    /// # Panics
    ///
    /// Panics when `tokens.len()` differs from the live lane count, or
    /// when any lane has already consumed `cap_pos` tokens (the capacity
    /// chosen at [`Seq2Seq::begin_decode_batch`]).
    pub fn decode_step_batch<'a>(
        &self,
        state: &'a mut BatchedDecoderState,
        tokens: &[u32],
    ) -> &'a [f32] {
        let _timer = slade_obs::StageTimer::start(slade_obs::StageHist::DecodeStep);
        let n = tokens.len();
        assert_eq!(n, state.lane_pos.len(), "one token per live lane");
        slade_obs::obs().count(slade_obs::KernelCtr::DecodeLaneTokens, n as u64);
        // Checked in release too: an overflowing lane would otherwise run
        // past its block table into the *next lane's* entries. A lane
        // whose tail block is full (or that has none yet) takes a fresh
        // one for the row this step writes.
        for lane in 0..n {
            let p = state.lane_pos[lane];
            assert!(
                p < state.cap_pos,
                "lane {lane} overflowed its block table (pos {p}, cap_pos {})",
                state.cap_pos
            );
            if p.is_multiple_of(KV_BLOCK) {
                let fresh = state.take_block();
                state.lane_blocks[lane * state.table_stride + p / KV_BLOCK] = fresh;
            }
        }
        let d = self.cfg.d_model;
        let h = self.cfg.n_heads;
        let dh = d / h;
        let dff = self.cfg.d_ff;
        let vocab = self.cfg.vocab;
        let st = &mut *state;
        st.scratch.ensure(n, d, dff);
        grow(&mut st.scratch.logits, n * vocab);
        // Embed each lane's token at the lane's own position.
        let e = self.store.data(self.embed);
        let pe = self.store.data(self.pos);
        for (lane, &tok) in tokens.iter().enumerate() {
            let row = (tok as usize).min(vocab - 1) * d;
            let prow = st.lane_pos[lane].min(self.cfg.max_len - 1) * d;
            for j in 0..d {
                st.scratch.x[lane * d + j] = e[row + j] + pe[prow + j];
            }
        }
        for (l, layer) in self.dec.iter().enumerate() {
            // Self-attention against each lane's blocks of the KV pool.
            self.layer_norm_into(
                &layer.ln1,
                &st.scratch.x[..n * d],
                n,
                &mut st.scratch.ln[..n * d],
            );
            let a = &layer.self_attn;
            let xw = &st.xposed[l];
            self.project_into(
                &xw.self_wq,
                a.bq,
                &st.scratch.ln[..n * d],
                &mut st.scratch.q[..n * d],
                n,
                d,
                d,
            );
            self.project_into(
                &xw.self_wk,
                a.bk,
                &st.scratch.ln[..n * d],
                &mut st.scratch.k[..n * d],
                n,
                d,
                d,
            );
            self.project_into(
                &xw.self_wv,
                a.bv,
                &st.scratch.ln[..n * d],
                &mut st.scratch.v[..n * d],
                n,
                d,
                d,
            );
            // One attention per lane, here and in the cross-attention below.
            slade_obs::obs().count(slade_obs::KernelCtr::AttendCalls, 2 * n as u64);
            for lane in 0..n {
                let p = st.lane_pos[lane];
                let tail = st.lane_blocks[lane * st.table_stride + p / KV_BLOCK] as usize;
                debug_assert_eq!(st.block_refs[tail], 1, "lane {lane} writes a shared block");
                write_kv_row(
                    &mut st.self_k[l],
                    &mut st.self_v[l],
                    (h, dh),
                    (tail, p % KV_BLOCK),
                    &st.scratch.k[lane * d..(lane + 1) * d],
                    &st.scratch.v[lane * d..(lane + 1) * d],
                );
            }
            for beam in beams(&st.lane_cross, &st.lane_pos) {
                let kv = KvRows {
                    keys: &st.self_k[l],
                    values: &st.self_v[l],
                    tables: &st.lane_blocks[beam.start * st.table_stride..],
                    tstride: st.table_stride,
                    block: KV_BLOCK,
                    n: st.lane_pos[beam.start] + 1,
                };
                let rows = beam.start * d..beam.end * d;
                attend_tile(
                    &st.scratch.q[rows.clone()],
                    &kv,
                    h,
                    dh,
                    &mut st.scratch.scores,
                    &mut st.scratch.ctx[rows],
                );
            }
            self.project_into(
                &xw.self_wo,
                a.bo,
                &st.scratch.ctx[..n * d],
                &mut st.scratch.proj[..n * d],
                n,
                d,
                d,
            );
            add_into(&mut st.scratch.x[..n * d], &st.scratch.proj[..n * d]);
            // Cross-attention against each lane's request memory.
            self.layer_norm_into(
                &layer.ln2,
                &st.scratch.x[..n * d],
                n,
                &mut st.scratch.ln[..n * d],
            );
            let c = &layer.cross_attn;
            self.project_into(
                &xw.cross_wq,
                c.bq,
                &st.scratch.ln[..n * d],
                &mut st.scratch.q[..n * d],
                n,
                d,
                d,
            );
            for beam in beams(&st.lane_cross, &st.lane_pos) {
                let mem = &st.cross[st.lane_cross[beam.start]];
                let rows = beam.start * d..beam.end * d;
                attend_tile(
                    &st.scratch.q[rows.clone()],
                    &KvRows::contiguous(&mem.k[l], &mem.v[l], mem.s),
                    h,
                    dh,
                    &mut st.scratch.scores,
                    &mut st.scratch.ctx[rows],
                );
            }
            self.project_into(
                &xw.cross_wo,
                c.bo,
                &st.scratch.ctx[..n * d],
                &mut st.scratch.proj[..n * d],
                n,
                d,
                d,
            );
            add_into(&mut st.scratch.x[..n * d], &st.scratch.proj[..n * d]);
            // FFN.
            self.layer_norm_into(
                &layer.ln3,
                &st.scratch.x[..n * d],
                n,
                &mut st.scratch.ln[..n * d],
            );
            self.project_into(
                &xw.ffn_w1,
                layer.ffn.b1,
                &st.scratch.ln[..n * d],
                &mut st.scratch.hidden[..n * dff],
                n,
                d,
                dff,
            );
            crate::kernels::gelu_into(&mut st.scratch.hidden[..n * dff]);
            self.project_into(
                &xw.ffn_w2,
                layer.ffn.b2,
                &st.scratch.hidden[..n * dff],
                &mut st.scratch.proj[..n * d],
                n,
                dff,
                d,
            );
            add_into(&mut st.scratch.x[..n * d], &st.scratch.proj[..n * d]);
        }
        for p in st.lane_pos.iter_mut() {
            *p += 1;
        }
        self.layer_norm_into(
            &self.ln_dec_out,
            &st.scratch.x[..n * d],
            n,
            &mut st.scratch.ln[..n * d],
        );
        // Tied output head through the same materialized weight (no
        // bias).
        st.embed_t.apply(
            &st.scratch.ln[..n * d],
            None,
            &mut st.scratch.logits[..n * vocab],
            n,
            d,
            vocab,
        );
        &st.scratch.logits[..n * vocab]
    }

    /// Projects one request's encoder memory into per-layer cross K/V and
    /// registers it with the batched state, returning its handle for
    /// [`BatchedDecoderState::add_lane`]. Done once per request; lanes
    /// (beam hypotheses) of the same request share the projections. Both
    /// are stored per head (`KvRows`): every lane of every step reads
    /// them. Slots freed by
    /// [`BatchedDecoderState::release_cross_memory`] are reused, so a
    /// long-running continuous-batching session does not grow its
    /// cross-memory table beyond its peak concurrency.
    pub fn register_cross_memory(
        &self,
        state: &mut BatchedDecoderState,
        mem: &[f32],
        s: usize,
    ) -> usize {
        let d = self.cfg.d_model;
        let h = self.cfg.n_heads;
        let st = &mut *state;
        // The call's own staging rows: the state's scratch holds step rows
        // only.
        let mut rows = vec![0.0f32; s * d];
        let mut slot = CrossMemory { s, ..Default::default() };
        for (layer, xw) in self.dec.iter().zip(&st.xposed) {
            // `apply`, not `project_into`: these rows were never in
            // `ProjRows`, a count the benchmark holds exact.
            let a = &layer.cross_attn;
            xw.cross_wk.apply(mem, Some(self.store.data(a.bk)), &mut rows, s, d, d);
            let mut k = Vec::new();
            pack_heads(&rows, s, h, d / h, &mut k);
            slot.k.push(k);
            xw.cross_wv.apply(mem, Some(self.store.data(a.bv)), &mut rows, s, d, d);
            let mut v = Vec::new();
            split_heads(&rows, s, h, d / h, &mut v);
            slot.v.push(v);
        }
        if let Some(id) = st.cross_free.pop() {
            st.cross[id] = slot;
            id
        } else {
            st.cross.push(slot);
            st.cross.len() - 1
        }
    }

    /// Test hook: nudges one parameter scalar by `delta`.
    #[cfg(test)]
    fn perturb_param(&mut self, tensor: usize, index: usize, delta: f32) {
        let data = self.store.data_mut(tensor);
        if index < data.len() {
            data[index] += delta;
        }
    }

    /// Test hook: the accumulated gradient of one parameter scalar.
    #[cfg(test)]
    fn grad_of(&self, tensor: usize, index: usize) -> f32 {
        self.store.grad_at(tensor, index)
    }
}

fn add_into(dst: &mut [f32], src: &[f32]) {
    for (a, b) in dst.iter_mut().zip(src) {
        *a += b;
    }
}

/// Grows a scratch buffer to at least `len` elements; never shrinks it.
fn grow(buf: &mut Vec<f32>, len: usize) {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
}

/// Packs the `n × d_model` key rows `k` head by head
/// ([`crate::kernels::pack_keys`]) into `out`, resized to exactly the `h`
/// packed heads — the keys of a one-block [`KvRows`].
fn pack_heads(k: &[f32], n: usize, h: usize, dh: usize, out: &mut Vec<f32>) {
    let per_head = crate::kernels::packed_keys_len(n, dh);
    out.resize(h * per_head, 0.0);
    if n == 0 {
        return;
    }
    for (head, kp) in out.chunks_exact_mut(per_head).enumerate() {
        crate::kernels::pack_keys(&k[head * dh..], h * dh, n, dh, kp);
    }
}

/// Copies the `n × d_model` value rows `v` into `out` head by head —
/// `[h][n][dh]`, a head's rows contiguous — resized to exactly that: the
/// values of a one-block [`KvRows`].
fn split_heads(v: &[f32], n: usize, h: usize, dh: usize, out: &mut Vec<f32>) {
    out.resize(n * h * dh, 0.0);
    for (head, rows) in out.chunks_exact_mut((n * dh).max(1)).enumerate() {
        for (row, src) in rows.chunks_exact_mut(dh).zip(v[head * dh..].chunks(h * dh)) {
            row.copy_from_slice(&src[..dh]);
        }
    }
}

/// Writes the key and value rows of one position — `(block, row)` of the
/// self-attention pools `keys` / `values` — in [`KvRows`]' layout for
/// `(h, dh)` heads of [`KV_BLOCK`]-row blocks.
fn write_kv_row(
    keys: &mut [f32],
    values: &mut [f32],
    (h, dh): (usize, usize),
    (block, row): (usize, usize),
    k: &[f32],
    v: &[f32],
) {
    let per_head = KV_BLOCK * dh;
    for head in 0..h {
        let at = (block * h + head) * per_head;
        let span = head * dh..(head + 1) * dh;
        crate::kernels::pack_key_into(&k[span.clone()], row, &mut keys[at..at + per_head]);
        values[at + row * dh..][..dh].copy_from_slice(&v[span]);
    }
}

/// The beams of a step: each maximal run of adjacent lanes that attend as
/// one query tile — lanes of one request (`cross`) at one position (`pos`),
/// which is every live lane of a request, since the engine keeps them
/// adjacent and steps them together.
fn beams<'a>(
    cross: &'a [usize],
    pos: &'a [usize],
) -> impl Iterator<Item = std::ops::Range<usize>> + 'a {
    let mut start = 0usize;
    std::iter::from_fn(move || {
        let first = (*cross.get(start)?, pos[start]);
        let len = cross[start..]
            .iter()
            .zip(&pos[start..])
            .take_while(|&(&c, &p)| (c, p) == first)
            .count();
        start += len;
        Some(start - len..start)
    })
}

/// One residual branch's inverted-dropout mask; `None` when dropout is off.
type Mask = Option<Vec<f32>>;

/// Applies an inverted-dropout mask in place; no-op when `mask` is `None`.
fn apply_mask(x: &mut [f32], mask: Option<&[f32]>) {
    if let Some(m) = mask {
        for (a, b) in x.iter_mut().zip(m) {
            *a *= b;
        }
    }
}

/// The gradient flowing into a dropped residual branch: `dh ⊙ mask`.
fn masked(dh: &[f32], mask: Option<&[f32]>) -> Vec<f32> {
    match mask {
        Some(m) => dh.iter().zip(m).map(|(a, b)| a * b).collect(),
        None => dh.to_vec(),
    }
}

fn col_sums(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; cols];
    for r in 0..rows {
        for c in 0..cols {
            out[c] += x[r * cols + c];
        }
    }
    out
}

/// Attention activations cached for the backward pass.
#[derive(Debug, Clone)]
struct AttnCache {
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    probs: Vec<f32>,
    ctx: Vec<f32>,
}

/// A layer norm's input, output and row statistics, cached for the
/// backward pass.
struct LnCache {
    x: Vec<f32>,
    y: Vec<f32>,
    means: Vec<f32>,
    rstds: Vec<f32>,
}

/// What one encoder layer's backward pass reads from its forward.
struct EncLayerCache {
    ln1: LnCache,
    attn: AttnCache,
    ln2: LnCache,
    hidden: Vec<f32>,
}

/// What one decoder layer's backward pass reads from its forward.
struct DecLayerCache {
    ln1: LnCache,
    self_attn: AttnCache,
    ln2: LnCache,
    cross_attn: AttnCache,
    ln3: LnCache,
    hidden: Vec<f32>,
}

/// [`Seq2Seq::enc_forward`]'s result: `out.y` is the encoder memory.
struct EncForward {
    layers: Vec<EncLayerCache>,
    out: LnCache,
}

/// [`Seq2Seq::dec_forward`]'s result: `out.y` holds the hidden states the
/// tied output projection reads.
struct DecForward {
    layers: Vec<DecLayerCache>,
    out: LnCache,
}

/// One projection's weights, materialized by
/// [`Seq2Seq::proj_weight`]: pre-transposed f32 weights packed into
/// j-block slabs ([`crate::kernels::pack_xposed_blocks`]) — the layout
/// [`crate::kernels::matmul_xpacked_into`] streams through sequentially.
#[derive(Debug, Clone)]
struct ProjWeight(Vec<f32>);

impl ProjWeight {
    /// Projects `x` (`t × din`) into `out` (`t × dout`), adding `bias`
    /// when given.
    fn apply(
        &self,
        x: &[f32],
        bias: Option<&[f32]>,
        out: &mut [f32],
        t: usize,
        din: usize,
        dout: usize,
    ) {
        crate::kernels::matmul_xpacked_into(x, &self.0, &mut out[..t * dout], t, din, dout);
        if let Some(b) = bias {
            for row in 0..t {
                for (o, &bv) in out[row * dout..(row + 1) * dout].iter_mut().zip(b) {
                    *o += bv;
                }
            }
        }
    }
}

/// Materialized decoder weights for one layer (see [`ProjWeight`]).
#[derive(Debug, Clone)]
struct XposedDecLayer {
    self_wq: ProjWeight,
    self_wk: ProjWeight,
    self_wv: ProjWeight,
    self_wo: ProjWeight,
    cross_wq: ProjWeight,
    cross_wk: ProjWeight,
    cross_wv: ProjWeight,
    cross_wo: ProjWeight,
    ffn_w1: ProjWeight,
    ffn_w2: ProjWeight,
}

/// Materialized encoder weights for one layer.
#[derive(Debug, Clone)]
struct XposedEncLayer {
    wq: ProjWeight,
    wk: ProjWeight,
    wv: ProjWeight,
    wo: ProjWeight,
    ffn_w1: ProjWeight,
    ffn_w2: ProjWeight,
}

/// Per-layer cross-attention projections of one request's encoder memory,
/// shared by all of that request's beam lanes.
#[derive(Debug, Clone, Default)]
struct CrossMemory {
    /// Per layer: the `s` key projections, packed per head (see
    /// [`pack_heads`]).
    k: Vec<Vec<f32>>,
    /// Per layer: the `s` value projections, head-major (see
    /// [`split_heads`]).
    v: Vec<Vec<f32>>,
    /// Encoder memory length.
    s: usize,
}

/// Activation buffers of one forward pass over `n` rows, grown to the
/// largest `n` asked for and reused. A decode session's scratch holds
/// step rows, one per live lane, and so stops allocating once the lanes
/// have peaked; an encoder call sizes a scratch of its own to its
/// longest source and drops it on return ([`Seq2Seq::encode_batch_in`]).
#[derive(Debug, Clone, Default)]
struct Scratch {
    x: Vec<f32>,
    ln: Vec<f32>,
    q: Vec<f32>,
    k: Vec<f32>,
    /// The encoder's keys of the current layer, packed per head.
    kp: Vec<f32>,
    v: Vec<f32>,
    /// The encoder's values of the current layer, head-major.
    vp: Vec<f32>,
    ctx: Vec<f32>,
    proj: Vec<f32>,
    hidden: Vec<f32>,
    logits: Vec<f32>,
    scores: Vec<f32>,
}

impl Scratch {
    /// Room for `n` rows in every row buffer (`logits`, `scores`, `kp`
    /// and `vp` are sized where they are used).
    fn ensure(&mut self, n: usize, d: usize, dff: usize) {
        for buf in [
            &mut self.x,
            &mut self.ln,
            &mut self.q,
            &mut self.k,
            &mut self.v,
            &mut self.ctx,
            &mut self.proj,
        ] {
            grow(buf, n * d);
        }
        grow(&mut self.hidden, n * dff);
    }
}

/// Positions per self-attention KV block: two key groups of
/// [`crate::kernels::LANES`]. Small enough that the tail block a forking
/// beam copies whole is cheap and that lanes which fork mid-block go on
/// sharing most of their history, large enough that a table walk is short
/// (8 / 16 / 32 measured under this layout; see CHANGES.md, PR 22).
pub(crate) const KV_BLOCK: usize = 16;

/// Decoder state for **all** live beam lanes of one decode batch, possibly
/// spanning several independent requests (continuous-batching style).
/// Per layer, self-attention keys/values live in one pool of
/// `KV_BLOCK`-row blocks, each laid out per head (`KvRows`); a lane
/// is a table of block ids, one per `KV_BLOCK` positions of its history.
/// Beam survivors that continue the same parent share its blocks by
/// reference, so reordering after a beam step moves block ids, not
/// history, and a beam attends a block its lanes share as one tile (see
/// DESIGN.md §7.2 for the invariants).
///
/// Built by [`Seq2Seq::begin_decode_batch`]; stepped by
/// [`Seq2Seq::decode_step_batch`]; lanes are reshuffled with
/// [`BatchedDecoderState::reorder`].
#[derive(Debug, Clone)]
pub struct BatchedDecoderState {
    d: usize,
    heads: usize,
    cap_pos: usize,
    cap_lanes: usize,
    /// Per layer: self-attention key blocks, `KV_BLOCK × d_model` floats
    /// per block id, packed per head. Empty until a lane takes a block;
    /// `take_block` appends one whenever none is free, up to
    /// `cap_lanes × table_stride` blocks.
    self_k: Vec<Vec<f32>>,
    /// Per layer: self-attention value blocks, same ids, head-major.
    self_v: Vec<Vec<f32>>,
    /// Per block id allocated so far (one id names that block in every
    /// layer and both tensors): how many lane-table entries hold it.
    block_refs: Vec<u32>,
    /// Allocated block ids no table holds, popped from the back: a block
    /// just freed (still in cache) is the next one taken.
    free_blocks: Vec<u32>,
    /// Table entries per lane: `⌈cap_pos / KV_BLOCK⌉`.
    table_stride: usize,
    /// Lane tables, `table_stride` entries each: entry `i` of a lane is
    /// the block holding its positions `i·KV_BLOCK..`, valid for the
    /// `⌈lane_pos / KV_BLOCK⌉` blocks the lane has reached.
    lane_blocks: Vec<u32>,
    /// Where [`BatchedDecoderState::reorder`] builds the survivors'
    /// tables before swapping them in.
    next_blocks: Vec<u32>,
    /// Registered per-request cross projections.
    cross: Vec<CrossMemory>,
    /// Slots in `cross` released by finished requests, reused by the next
    /// [`Seq2Seq::register_cross_memory`].
    cross_free: Vec<usize>,
    /// Tokens consumed so far, per lane.
    lane_pos: Vec<usize>,
    /// Cross-memory handle, per lane.
    lane_cross: Vec<usize>,
    /// Materialized decoder weights (snapshot at construction).
    xposed: Vec<XposedDecLayer>,
    /// Materialized encoder weights, same snapshot
    /// ([`Seq2Seq::encode_batch_in`]).
    enc_xposed: Vec<XposedEncLayer>,
    /// Tied output embedding, transposed to `[d_model, vocab]` and packed.
    embed_t: ProjWeight,
    /// The decode step's buffers: rows for the most lanes stepped at once
    /// (its attention scores span a beam's keys). No encoder activation
    /// passes through it.
    scratch: Scratch,
}

impl BatchedDecoderState {
    /// Number of live lanes.
    pub fn num_lanes(&self) -> usize {
        self.lane_pos.len()
    }

    /// True when no lanes are live.
    pub fn is_empty(&self) -> bool {
        self.lane_pos.is_empty()
    }

    /// Tokens consumed by `lane` so far.
    pub fn lane_len(&self, lane: usize) -> usize {
        self.lane_pos[lane]
    }

    /// Adds a fresh lane (position 0) attached to the cross memory
    /// returned by [`Seq2Seq::register_cross_memory`]; returns the lane
    /// index.
    ///
    /// # Panics
    ///
    /// Panics when lane capacity is exhausted or the handle is unknown.
    pub fn add_lane(&mut self, cross_id: usize) -> usize {
        assert!(self.lane_pos.len() < self.cap_lanes, "lane capacity exhausted");
        assert!(cross_id < self.cross.len(), "unknown cross-memory handle");
        self.lane_pos.push(0);
        self.lane_cross.push(cross_id);
        self.lane_pos.len() - 1
    }

    /// Where in `lane_blocks` the table entries `lane` has reached sit.
    fn table_at(&self, lane: usize) -> std::ops::Range<usize> {
        let first = lane * self.table_stride;
        first..first + self.lane_pos[lane].div_ceil(KV_BLOCK)
    }

    /// Takes a block off the free list for one table entry. When none is
    /// free the pool grows by one zeroed block, which gets the next id —
    /// the order a pool allocated whole would hand ids out in — so the
    /// pool is as large as the most blocks ever held at once.
    fn take_block(&mut self) -> u32 {
        let b = self.free_blocks.pop().unwrap_or_else(|| {
            // Cannot fail while lanes ≤ cap_lanes and positions ≤ cap_pos:
            // that is a full table for every lane.
            let b = self.block_refs.len();
            assert!(b < self.cap_lanes * self.table_stride, "block pool exhausted");
            let floats = (b + 1) * KV_BLOCK * self.d;
            for pool in self.self_k.iter_mut().chain(self.self_v.iter_mut()) {
                pool.resize(floats, 0.0);
            }
            self.block_refs.push(0);
            b as u32
        });
        self.block_refs[b as usize] = 1;
        b
    }

    /// Test hook: the most `d_model`-wide rows any buffer of the step
    /// scratch has room for.
    #[cfg(test)]
    pub(crate) fn scratch_rows(&self) -> usize {
        let sc = &self.scratch;
        [&sc.x, &sc.ln, &sc.q, &sc.k, &sc.kp, &sc.v, &sc.vp, &sc.ctx, &sc.proj]
            .iter()
            .map(|buf| buf.len().div_ceil(self.d))
            .max()
            .unwrap_or(0)
    }

    /// Blocks held by some lane table, and blocks the pool has allocated.
    pub fn kv_blocks(&self) -> (usize, usize) {
        let allocated = self.block_refs.len();
        (allocated - self.free_blocks.len(), allocated)
    }

    /// Reorders lanes so that new lane `i` continues old lane
    /// `parents[i]` — the beam-survivor step. A parent may appear any
    /// number of times (fan-out) or not at all (pruned, or its request
    /// finished: blocks nobody else holds return to the free list). No
    /// history is copied: a survivor takes its parent's block *table*.
    /// Full blocks are never written again and stay shared; a partially
    /// filled tail block is where the next step writes, so every holder
    /// but the last copies it — the block whole, one `memcpy` per layer
    /// per tensor; the rows past the filled ones are never read before
    /// they are written — into a block of its own. A sole surviving
    /// child, or a lane that merely keeps its place, copies nothing.
    /// Returns the filled rows copied per layer per tensor (what
    /// `KernelCtr::KvCowRows` counts).
    ///
    /// # Panics
    ///
    /// Panics if a parent index is out of range or capacity is exceeded.
    pub fn reorder(&mut self, parents: &[usize]) -> usize {
        let n_old = self.lane_pos.len();
        assert!(parents.len() <= self.cap_lanes, "lane capacity exceeded");
        // Survivors take references before the old tables drop theirs, so
        // no block a survivor needs passes through the free list.
        for (i, &p) in parents.iter().enumerate() {
            assert!(p < n_old, "parent {p} out of range ({n_old} lanes)");
            let table = &self.lane_blocks[self.table_at(p)];
            for &b in table {
                self.block_refs[b as usize] += 1;
            }
            self.next_blocks[i * self.table_stride..][..table.len()].copy_from_slice(table);
        }
        for lane in 0..n_old {
            for entry in self.table_at(lane) {
                let b = self.lane_blocks[entry];
                self.block_refs[b as usize] -= 1;
                if self.block_refs[b as usize] == 0 {
                    self.free_blocks.push(b);
                }
            }
        }
        std::mem::swap(&mut self.lane_blocks, &mut self.next_blocks);
        self.lane_pos = parents.iter().map(|&p| self.lane_pos[p]).collect();
        self.lane_cross = parents.iter().map(|&p| self.lane_cross[p]).collect();
        let mut copied = 0usize;
        for lane in 0..parents.len() {
            let fill = self.lane_pos[lane] % KV_BLOCK;
            if fill == 0 {
                continue;
            }
            let tail = self.table_at(lane).end - 1;
            let shared = self.lane_blocks[tail] as usize;
            if self.block_refs[shared] == 1 {
                continue;
            }
            // A block is free or the pool can grow: the shared tail is held
            // at least twice, so the tables name fewer distinct blocks than
            // a full table per lane holds.
            let own = self.take_block();
            let block = KV_BLOCK * self.d;
            for pool in self.self_k.iter_mut().chain(self.self_v.iter_mut()) {
                pool.copy_within(shared * block..(shared + 1) * block, own as usize * block);
            }
            self.block_refs[shared] -= 1;
            self.lane_blocks[tail] = own;
            copied += fill;
        }
        slade_obs::obs().count(slade_obs::KernelCtr::KvCowRows, copied as u64);
        copied
    }

    /// Test hook: panics unless the block pool's books balance — every
    /// block is either free or held, refcounts sum to the lanes' table
    /// entries, and every partially filled tail block (the one its lane
    /// writes next) has exactly one holder — and then overwrites with NaN
    /// every row no lane has written: the free blocks and each tail's rows
    /// from its lane's position on (what a whole-block copy or a block's
    /// last holder left there). An attention that reads one no longer
    /// matches its reference. Returns `(free, allocated)` blocks.
    pub fn check_kv_pool(&mut self) -> (usize, usize) {
        let mut held = vec![0u32; self.block_refs.len()];
        let heads = (self.heads, self.d / self.heads);
        let nan = vec![f32::NAN; self.d];
        for lane in 0..self.lane_pos.len() {
            let table = &self.lane_blocks[self.table_at(lane)];
            for &b in table {
                held[b as usize] += 1;
            }
            let fill = self.lane_pos[lane] % KV_BLOCK;
            if fill != 0 {
                let tail = *table.last().expect("a partial tail is a block") as usize;
                assert_eq!(self.block_refs[tail], 1, "lane {lane} shares its tail");
                for (keys, values) in self.self_k.iter_mut().zip(&mut self.self_v) {
                    for row in fill..KV_BLOCK {
                        write_kv_row(keys, values, heads, (tail, row), &nan, &nan);
                    }
                }
            }
        }
        assert_eq!(held, self.block_refs, "refcounts differ from the lane tables");
        let block = KV_BLOCK * self.d;
        for &b in &self.free_blocks {
            assert_eq!(held[b as usize], 0, "block {b} is both free and held");
            for pool in self.self_k.iter_mut().chain(self.self_v.iter_mut()) {
                pool[b as usize * block..][..block].fill(f32::NAN);
            }
        }
        let in_use = held.iter().filter(|&&c| c > 0).count();
        assert_eq!(
            self.free_blocks.len() + in_use,
            held.len(),
            "a block is neither free nor held"
        );
        (self.free_blocks.len(), held.len())
    }

    /// Releases a cross-memory registration once the request that owned it
    /// has no live lanes left, freeing its `O(layers · s · d_model)`
    /// projections and recycling the slot for the next
    /// [`Seq2Seq::register_cross_memory`] — the bookkeeping that keeps a
    /// long-running continuous-batching session at bounded memory.
    ///
    /// # Panics
    ///
    /// Panics when the handle is unknown, still referenced by a live lane,
    /// or already released.
    pub fn release_cross_memory(&mut self, id: usize) {
        assert!(id < self.cross.len(), "unknown cross-memory handle {id}");
        assert!(
            !self.lane_cross.contains(&id),
            "cross memory {id} is still referenced by a live lane"
        );
        assert!(!self.cross_free.contains(&id), "cross memory {id} released twice");
        self.cross[id] = CrossMemory::default();
        self.cross_free.push(id);
    }
}

/// The `n` key/value rows each query of a tile reads, in position order —
/// the one layout of the inference path. Rows sit in blocks of `block`
/// positions, and a block holds its heads one after the other: K packed
/// per head (`[h][⌈block / 8⌉][dh][8]`, [`crate::kernels::pack_keys`]), V
/// head-major (`[h][block][dh]`), so a head streams its keys and values
/// through consecutive cache lines. Query `r` finds block `i` of its
/// history at id `tables[r * tstride + i]` of `keys` / `values`: one block
/// of `n` rows that every query reads for an encoder layer or a request's
/// cross memory ([`KvRows::contiguous`]), the [`KV_BLOCK`]-row blocks of a
/// lane's table for decoder self-attention.
struct KvRows<'a> {
    keys: &'a [f32],
    values: &'a [f32],
    tables: &'a [u32],
    tstride: usize,
    block: usize,
    n: usize,
}

impl<'a> KvRows<'a> {
    /// `n` rows in one block ([`pack_heads`], [`split_heads`]) that every
    /// query of the tile reads.
    fn contiguous(keys: &'a [f32], values: &'a [f32], n: usize) -> Self {
        KvRows { keys, values, tables: &[0], tstride: 0, block: n, n }
    }
}

/// Multi-head attention of a tile of queries — the `q.len() / d` rows of
/// `q`, as many as the caller likes: the kernels cut them into register
/// tiles of [`ATTN_TILE`], and `scores` grows to `rows × n` floats here —
/// each over its own `n` key/value rows, writing one context row per
/// query into `ctx` (zeroed here). Every attention on the inference path
/// is this function: a tile of consecutive source positions in the
/// encoder, the beam of one request in cross-attention and in decoder
/// self-attention. Per head the phases run over the whole tile — all
/// scores, then every softmax row, then all weighted sums — so no query's
/// three phases wait on each other.
///
/// Each query's scores, softmax and context are computed exactly as for a
/// tile of one over contiguous rows, so the result depends neither on how
/// queries are grouped nor on which blocks they share nor on where a
/// block ends: each score is its own reduction (the same rounded
/// operations from packed keys as from rows), the softmax runs over the
/// whole row, and the weighted sum adds `w·v` into the query's context
/// one key at a time in position order, from the first block to the last.
fn attend_tile(
    q: &[f32],
    kv: &KvRows,
    h: usize,
    dh: usize,
    scores: &mut Vec<f32>,
    ctx: &mut [f32],
) {
    use crate::kernels::{
        attn_scores_packed_tile_into, attn_weighted_sum_tile_into, packed_keys_len,
        softmax_rows_into, Blocks,
    };
    let d = h * dh;
    let &KvRows { keys, values, tables, tstride, block, n } = kv;
    let scale = 1.0 / (dh as f32).sqrt();
    ctx.iter_mut().for_each(|c| *c = 0.0);
    if n == 0 {
        // Degenerate empty memory: nothing to attend over, context is 0.
        return;
    }
    let len = q.len() / d * n;
    grow(scores, len);
    let scores = &mut scores[..len];
    // One head of one block: `kp` packed floats of keys, `block * dh` of
    // values.
    let kp = packed_keys_len(block, dh);
    let kblocks = Blocks { tables, tstride, block, bstride: h * kp, n };
    let vblocks = Blocks { bstride: h * block * dh, ..kblocks };
    for head in 0..h {
        let off = head * dh;
        attn_scores_packed_tile_into(
            &q[off..],
            d,
            dh,
            &keys[head * kp..],
            &kblocks,
            scale,
            scores,
        );
        softmax_rows_into(scores, n);
        let values = &values[head * block * dh..];
        attn_weighted_sum_tile_into(scores, values, dh, &vblocks, &mut ctx[off..], d, dh);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{DecodeRequest, InferenceEngine};

    /// Decodes `src` through the engine with BOS 1 and EOS 2.
    fn decode(m: &Seq2Seq, src: &[u32], max_len: usize, beam: usize) -> Vec<Vec<u32>> {
        let request = DecodeRequest { src: src.to_vec(), bos: 1, eos: 2, max_len, beam };
        InferenceEngine::new(m).decode(&request)
    }

    #[test]
    fn parameter_count_scales_with_config() {
        let m = Seq2Seq::new(TransformerConfig::tiny(32), 1);
        assert!(m.num_params() > 5_000, "{}", m.num_params());
        let big = Seq2Seq::new(TransformerConfig::small(512), 1);
        assert!(big.num_params() > m.num_params() * 5);
    }

    #[test]
    fn loss_decreases_when_overfitting_a_pair() {
        let mut m = Seq2Seq::new(TransformerConfig::tiny(16), 7);
        let src = vec![5u32, 6, 7, 8];
        let dec_input = vec![1u32, 9, 10, 11];
        let labels = vec![9u32, 10, 11, 2];
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..60 {
            m.zero_grads();
            let loss = m.train_pair(&src, &dec_input, &labels);
            m.adam_step(3e-3, 0.0, 1.0);
            if step == 0 {
                first = loss;
            }
            last = loss;
        }
        assert!(last < first * 0.5, "no learning: {first} -> {last}");
    }

    #[test]
    fn greedy_reproduces_memorized_sequence() {
        let mut m = Seq2Seq::new(TransformerConfig::tiny(16), 3);
        let src = vec![5u32, 6, 7];
        let tgt = vec![12u32, 13, 14];
        let dec_input = vec![1, 12, 13, 14];
        let labels = vec![12, 13, 14, 2];
        for _ in 0..150 {
            m.zero_grads();
            m.train_pair(&src, &dec_input, &labels);
            m.adam_step(3e-3, 0.0, 1.0);
        }
        assert_eq!(decode(&m, &src, 8, 1), [tgt], "memorization failed");
    }

    #[test]
    fn beam_search_returns_ranked_distinct_hypotheses() {
        let m = Seq2Seq::new(TransformerConfig::tiny(16), 11);
        let beams = decode(&m, &[4, 5], 6, 5);
        assert!(!beams.is_empty());
        assert!(beams.len() <= 5);
    }

    /// Finite-difference gradient check across several parameter tensors.
    #[test]
    fn gradients_match_finite_differences() {
        let cfg = TransformerConfig::tiny(12);
        let src = vec![4u32, 5, 6];
        let dec_input = vec![1u32, 7, 8];
        let labels = vec![7u32, 8, 2];
        // Probe a few (tensor, index) pairs spread across the model.
        let probes = [(0usize, 3usize), (1, 0), (4, 2), (8, 1)];
        for &(tensor, index) in &probes {
            let mut m = Seq2Seq::new(cfg, 42);
            m.zero_grads();
            let _ = m.train_pair(&src, &dec_input, &labels);
            let analytic = m.grad_of(tensor, index);
            let eps = 2e-2f32;
            let mut mp = Seq2Seq::new(cfg, 42);
            mp.perturb_param(tensor, index, eps);
            let lp = mp.train_pair(&src, &dec_input, &labels);
            let mut mm = Seq2Seq::new(cfg, 42);
            mm.perturb_param(tensor, index, -eps);
            let lm = mm.train_pair(&src, &dec_input, &labels);
            let numeric = (lp - lm) / (2.0 * eps);
            let denom = analytic.abs().max(numeric.abs()).max(1e-3);
            assert!(
                (analytic - numeric).abs() / denom < 0.15,
                "tensor {tensor} idx {index}: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn serde_roundtrip_preserves_behavior() {
        let m = Seq2Seq::new(TransformerConfig::tiny(16), 5);
        let json = serde_json::to_string(&m).unwrap();
        let back: Seq2Seq = serde_json::from_str(&json).unwrap();
        assert_eq!(decode(&m, &[4, 5, 6], 6, 1), decode(&back, &[4, 5, 6], 6, 1));
    }

    #[test]
    fn serde_loaded_twin_trains_bit_identically() {
        // Serde skips the optimizer state; the twin creates it on its
        // first gradient, as the original does.
        let src = [4u32, 5, 6];
        let (dec_input, labels) = ([1u32, 9, 10], [9u32, 10, 2]);
        let mut a = Seq2Seq::new(TransformerConfig::tiny(16), 8);
        let mut b: Seq2Seq = serde_json::from_str(&serde_json::to_string(&a).unwrap()).unwrap();
        for round in 0..2 {
            let mut losses = [0.0f32; 2];
            for (m, loss) in [&mut a, &mut b].into_iter().zip(&mut losses) {
                m.zero_grads();
                *loss = m.train_pair(&src, &dec_input, &labels);
                m.adam_step(1e-3, 0.01, 1.0);
            }
            assert_eq!(losses[0].to_bits(), losses[1].to_bits(), "round {round}");
        }
        // Shortest round-trip floats: equal text is equal bits.
        assert_eq!(serde_json::to_string(&a).unwrap(), serde_json::to_string(&b).unwrap());
    }

    #[test]
    fn optimizer_state_follows_training() {
        let mut m = Seq2Seq::new(TransformerConfig::tiny(16), 2);
        assert_eq!(m.optimizer_floats(), 0, "a new model holds its parameters only");
        m.zero_grads();
        m.train_pair(&[4, 5], &[1, 6], &[6, 2]);
        assert_eq!(m.optimizer_floats(), m.num_params(), "gradients, no moments yet");
        m.adam_step(1e-3, 0.01, 1.0);
        assert_eq!(m.optimizer_floats(), 3 * m.num_params());
        m.release_optimizer_state();
        assert_eq!(m.optimizer_floats(), 0);
    }

    #[test]
    fn eval_loss_matches_train_pair_loss_without_dropout() {
        let mut m = Seq2Seq::new(TransformerConfig::tiny(16), 9);
        let src = vec![5u32, 6, 7];
        let dec_input = vec![1u32, 9, 10];
        let labels = vec![9u32, 10, 2];
        let (fwd_only, _) = m.eval_pair(&src, &dec_input, &labels);
        m.zero_grads();
        let with_bwd = m.train_pair(&src, &dec_input, &labels);
        assert!(
            (fwd_only - with_bwd).abs() < 1e-4,
            "forward-only {fwd_only} vs train {with_bwd}"
        );
    }

    #[test]
    fn dropout_zero_is_a_strict_noop() {
        let src = vec![5u32, 6, 7];
        let dec_input = vec![1u32, 9, 10];
        let labels = vec![9u32, 10, 2];
        let mut a = Seq2Seq::new(TransformerConfig::tiny(16), 21);
        let mut b = Seq2Seq::new(TransformerConfig::tiny(16), 21);
        b.set_dropout(0.0, 777);
        for _ in 0..5 {
            a.zero_grads();
            b.zero_grads();
            let la = a.train_pair(&src, &dec_input, &labels);
            let lb = b.train_pair(&src, &dec_input, &labels);
            assert_eq!(la, lb, "p = 0 must be bit-identical");
            a.adam_step(1e-3, 0.01, 1.0);
            b.adam_step(1e-3, 0.01, 1.0);
        }
    }

    #[test]
    fn dropout_model_still_learns() {
        let mut m = Seq2Seq::new(TransformerConfig::tiny(16), 13);
        m.set_dropout(0.2, 4);
        let src = vec![5u32, 6, 7, 8];
        let dec_input = vec![1u32, 9, 10, 11];
        let labels = vec![9u32, 10, 11, 2];
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..80 {
            m.zero_grads();
            let _ = m.train_pair(&src, &dec_input, &labels);
            m.adam_step(3e-3, 0.0, 1.0);
            // Dropout makes the train loss noisy; track the clean eval loss.
            let (loss, _) = m.eval_pair(&src, &dec_input, &labels);
            if step == 0 {
                first = loss;
            }
            last = loss;
        }
        assert!(last < first * 0.7, "no learning with dropout: {first} -> {last}");
    }

    #[test]
    fn dropout_runs_are_deterministic_given_seed() {
        let src = vec![5u32, 6, 7];
        let dec_input = vec![1u32, 9, 10];
        let labels = vec![9u32, 10, 2];
        let run = |seed| {
            let mut m = Seq2Seq::new(TransformerConfig::tiny(16), 3);
            m.set_dropout(0.3, seed);
            let mut losses = Vec::new();
            for _ in 0..4 {
                m.zero_grads();
                losses.push(m.train_pair(&src, &dec_input, &labels));
                m.adam_step(1e-3, 0.0, 1.0);
            }
            losses
        };
        assert_eq!(run(5), run(5), "same dropout seed, same trajectory");
        assert_ne!(run(5), run(6), "different dropout seeds should differ");
    }

    /// The gradient check must also hold *with* dropout enabled, since the
    /// same deterministic masks are resampled per call in the same order.
    #[test]
    fn gradients_match_finite_differences_with_dropout() {
        let cfg = TransformerConfig::tiny(12);
        let src = vec![4u32, 5, 6];
        let dec_input = vec![1u32, 7, 8];
        let labels = vec![7u32, 8, 2];
        for &(tensor, index) in &[(0usize, 3usize), (4, 2)] {
            let fresh = |seed| {
                let mut m = Seq2Seq::new(cfg, seed);
                m.set_dropout(0.25, 99);
                m
            };
            let mut m = fresh(42);
            m.zero_grads();
            let _ = m.train_pair(&src, &dec_input, &labels);
            let analytic = m.grad_of(tensor, index);
            let eps = 2e-2f32;
            let mut mp = fresh(42);
            mp.perturb_param(tensor, index, eps);
            let lp = mp.train_pair(&src, &dec_input, &labels);
            let mut mm = fresh(42);
            mm.perturb_param(tensor, index, -eps);
            let lm = mm.train_pair(&src, &dec_input, &labels);
            let numeric = (lp - lm) / (2.0 * eps);
            let denom = analytic.abs().max(numeric.abs()).max(1e-3);
            assert!(
                (analytic - numeric).abs() / denom < 0.15,
                "tensor {tensor} idx {index}: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    /// Reference beam search that re-runs the decoder over the whole prefix
    /// every step (the pre-KV-cache implementation); used as an oracle. It
    /// independently reimplements the engine's scoring (full-row
    /// log-softmax + full descending sort, where the engine uses the fused
    /// top-k kernel) and its early-stop policy.
    fn beam_search_full_recompute(
        m: &Seq2Seq,
        src: &[u32],
        bos: u32,
        eos: u32,
        max_len: usize,
        beam: usize,
    ) -> Vec<Vec<u32>> {
        let beam = beam.max(1);
        let src: Vec<u32> = src.iter().take(m.cfg.max_len).copied().collect();
        let mem = m.encode(&src);
        let s = src.len();
        let mut live: Vec<(Vec<u32>, f32)> = vec![(vec![bos], 0.0)];
        let mut done: Vec<(Vec<u32>, f32)> = Vec::new();
        let budget = max_len.min(m.cfg.max_len - 1).max(1);
        let mut step = 0usize;
        loop {
            let mut next: Vec<(Vec<u32>, f32)> = Vec::new();
            for (prefix, score) in &live {
                let mut logits = m.decode_last_logits(&mem, s, prefix);
                log_softmax_rows(&mut logits, 1, m.cfg.vocab);
                let mut idx: Vec<usize> = (0..m.cfg.vocab).collect();
                idx.sort_by(|&a, &b| logits[b].total_cmp(&logits[a]));
                for &cand in idx.iter().take(beam) {
                    let mut p = prefix.clone();
                    p.push(cand as u32);
                    next.push((p, score + logits[cand]));
                }
            }
            step += 1;
            next.sort_by(|a, b| b.1.total_cmp(&a.1));
            next.truncate(beam);
            let mut survivors: Vec<(Vec<u32>, f32)> = Vec::new();
            for (p, sc) in next {
                if *p.last().unwrap() == eos {
                    done.push((p, sc));
                } else {
                    survivors.push((p, sc));
                }
            }
            let converged = done.len() >= beam && {
                let mut norms: Vec<f32> =
                    done.iter().map(|(p, sc)| sc / p.len() as f32).collect();
                norms.sort_by(|a, b| b.total_cmp(a));
                let best_live = survivors
                    .iter()
                    .map(|(p, sc)| sc / p.len() as f32)
                    .fold(f32::NEG_INFINITY, f32::max);
                best_live <= norms[beam - 1]
            };
            if survivors.is_empty() || step >= budget || converged {
                done.extend(survivors);
                break;
            }
            live = survivors;
        }
        done.sort_by(|a, b| (b.1 / b.0.len() as f32).total_cmp(&(a.1 / a.0.len() as f32)));
        done.into_iter()
            .take(beam)
            .map(|(p, _)| p.into_iter().filter(|&t| t != bos && t != eos).collect())
            .collect()
    }

    /// A tiny model trained enough to produce non-degenerate distributions.
    fn trained_tiny() -> Seq2Seq {
        let mut m = Seq2Seq::new(TransformerConfig::tiny(16), 17);
        let pairs: [(&[u32], &[u32]); 2] = [(&[4, 5, 6], &[9, 10, 11]), (&[6, 5], &[11, 9])];
        for _ in 0..60 {
            for (src, tgt) in pairs {
                let mut dec = vec![1u32];
                dec.extend_from_slice(tgt);
                let mut labels = tgt.to_vec();
                labels.push(2);
                m.zero_grads();
                m.train_pair(src, &dec, &labels);
                m.adam_step(3e-3, 0.0, 1.0);
            }
        }
        m
    }

    #[test]
    fn kv_cached_beam_matches_full_recompute_beam() {
        let m = trained_tiny();
        for src in [vec![4u32, 5, 6], vec![6u32, 5], vec![5u32]] {
            for beam in [1usize, 3, 5] {
                let fast = decode(&m, &src, 10, beam);
                let slow = beam_search_full_recompute(&m, &src, 1, 2, 10, beam);
                assert_eq!(fast, slow, "src {src:?} beam {beam}");
            }
        }
    }

    #[test]
    fn token_accuracy_reaches_one_on_memorized_pair() {
        let mut m = Seq2Seq::new(TransformerConfig::tiny(16), 3);
        let src = vec![5u32, 6, 7];
        let dec_input = vec![1, 12, 13, 14];
        let labels = vec![12, 13, 14, 2];
        for _ in 0..150 {
            m.zero_grads();
            m.train_pair(&src, &dec_input, &labels);
            m.adam_step(3e-3, 0.0, 1.0);
        }
        let (_, acc) = m.eval_pair(&src, &dec_input, &labels);
        assert!(acc > 0.99, "memorized pair should be perfectly predicted: {acc}");
        let (loss, acc) = m.eval_pair(&src, &[], &[]);
        assert!(loss.is_nan() && acc == 0.0, "an empty pair scores (NaN, 0): ({loss}, {acc})");
    }

    /// A batched state and, per lane, the request and prefix the reference
    /// forward re-runs, stepped and reordered together: every admission
    /// compares the registered cross memory bit for bit with the training
    /// forward's K/V projections, every step compares the logits bit for
    /// bit with [`Seq2Seq::decode_last_logits`] over the lane's whole
    /// prefix, and every step and reorder audits the block pool.
    struct Paired<'m> {
        m: &'m Seq2Seq,
        state: BatchedDecoderState,
        /// One encoder memory per admitted request.
        mems: Vec<Vec<f32>>,
        /// Per lane: its request and the tokens it has consumed.
        lanes: Vec<(usize, Vec<u32>)>,
        steps: u32,
    }

    impl<'m> Paired<'m> {
        fn new(m: &'m Seq2Seq, cap_lanes: usize, cap_pos: usize) -> Self {
            Paired {
                m,
                state: m.begin_decode_batch(cap_lanes, cap_pos),
                mems: Vec::new(),
                lanes: Vec::new(),
                steps: 0,
            }
        }

        fn admit(&mut self, src: &[u32], lanes: usize) {
            let m = self.m;
            let (d, h, s) = (m.cfg.d_model, m.cfg.n_heads, src.len());
            let mem = m.encode(src);
            let cross = m.register_cross_memory(&mut self.state, &mem, s);
            let slot = &self.state.cross[cross];
            assert_eq!(slot.s, s);
            for (l, layer) in m.dec.iter().enumerate() {
                let a = &layer.cross_attn;
                let mut k = Vec::new();
                pack_heads(&m.linear(a.wk, a.bk, &mem, s, d, d), s, h, d / h, &mut k);
                let mut v = Vec::new();
                split_heads(&m.linear(a.wv, a.bv, &mem, s, d, d), s, h, d / h, &mut v);
                for (name, got, want) in [("k", &slot.k[l], &k), ("v", &slot.v[l], &v)] {
                    assert_eq!(got.len(), want.len(), "cross {name} of layer {l}, source {s}");
                    for (i, (x, y)) in got.iter().zip(want).enumerate() {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "cross {name}[{l}][{i}], source {s}"
                        );
                    }
                }
            }
            for _ in 0..lanes {
                self.state.add_lane(cross);
                self.lanes.push((self.mems.len(), Vec::new()));
            }
            self.mems.push(mem);
        }

        /// One step; each lane consumes a different token, so histories
        /// that fork diverge from here on.
        fn step(&mut self) {
            let (v, d) = (self.m.cfg.vocab, self.m.cfg.d_model);
            let tokens: Vec<u32> = (0..self.lanes.len() as u32)
                .map(|lane| (3 + 5 * lane + 7 * self.steps) % v as u32)
                .collect();
            let batched = self.m.decode_step_batch(&mut self.state, &tokens).to_vec();
            for (lane, ((req, prefix), &tok)) in self.lanes.iter_mut().zip(&tokens).enumerate()
            {
                prefix.push(tok);
                let mem = &self.mems[*req];
                let want = self.m.decode_last_logits(mem, mem.len() / d, prefix);
                for (x, y) in batched[lane * v..(lane + 1) * v].iter().zip(&want) {
                    assert_eq!(x.to_bits(), y.to_bits(), "step {} lane {lane}", self.steps);
                }
            }
            self.steps += 1;
            self.state.check_kv_pool();
        }

        fn reorder(&mut self, parents: &[usize]) -> usize {
            let copied = self.state.reorder(parents);
            self.lanes = parents.iter().map(|&p| self.lanes[p].clone()).collect();
            self.state.check_kv_pool();
            copied
        }
    }

    /// The KV-cached step on sharp, trained distributions equals the
    /// full-prefix forward bit for bit.
    #[test]
    fn incremental_decode_matches_full_recompute_logits() {
        let m = trained_tiny();
        let mut p = Paired::new(&m, 1, 4);
        p.admit(&[4, 5, 6], 1);
        for _ in 0..4 {
            p.step();
        }
    }

    /// Cross-attention over packed keys on the step path:
    /// sources of one key, one short of a key group, a whole group, one
    /// and nine past it; beams of every width 1..=5 (the five lanes split
    /// 4 + 1 by the attention tile) — the second model shape with heads of
    /// 4, half a lane chunk. Every admission checks the registered K/V
    /// against the f32 projections; steps compare as [`Paired`] says.
    #[test]
    fn cross_attention_reads_packed_f32_keys() {
        for n_heads in [2usize, 4] {
            let cfg = TransformerConfig { n_heads, ..TransformerConfig::tiny(16) };
            let m = Seq2Seq::new(cfg, 41);
            let mut p = Paired::new(&m, 15, 3);
            for (len, lanes) in [(1usize, 5usize), (7, 3), (8, 1), (9, 4), (17, 2)] {
                let src: Vec<u32> =
                    (0..len as u32).map(|t| 3 + (t * 5 + lanes as u32) % 12).collect();
                p.admit(&src, lanes);
            }
            for _ in 0..3 {
                p.step();
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one prefix token")]
    fn decode_last_logits_rejects_an_empty_prefix() {
        let m = Seq2Seq::new(TransformerConfig::tiny(16), 1);
        let mem = m.encode(&[4, 5]);
        m.decode_last_logits(&mem, 2, &[]);
    }

    /// The key and value rows of position `row` of `block` in layer 0, read
    /// back out of the packed pools.
    fn kv_row(st: &BatchedDecoderState, block: usize, row: usize) -> (Vec<f32>, Vec<f32>) {
        let (h, dh) = (st.heads, st.d / st.heads);
        let at = |head: usize| (block * h + head) * KV_BLOCK * dh;
        let k = (0..st.d).map(|c| {
            let group = at(c / dh) + row / 8 * dh * 8;
            st.self_k[0][group + c % dh * 8 + row % 8]
        });
        let v = (0..st.d).map(|c| st.self_v[0][at(c / dh) + row * dh + c % dh]);
        (k.collect(), v.collect())
    }

    /// A lane forked five ways with its tail block filled to 0, 1 and
    /// `KV_BLOCK − 1` rows (and mid-block), then all but one child pruned:
    /// the fork copies the tail block — whole, counted by its filled rows
    /// — for four of the five children, the prune copies nothing, and every
    /// lane keeps decoding what the reference forward computes from its own
    /// prefix. A copied tail holds the parent's filled rows bit for bit and
    /// has one holder; whatever the copy brought along past them is what
    /// `check_kv_pool` overwrites with NaN before the next step, as it does
    /// the free blocks, so the steps that follow would read it as NaN
    /// logits.
    #[test]
    fn forks_at_block_edges_match_scalar_and_copy_only_shared_tails() {
        let cfg = TransformerConfig { max_len: 3 * KV_BLOCK, ..TransformerConfig::tiny(16) };
        let m = Seq2Seq::new(cfg, 23);
        for pos in [KV_BLOCK - 1, KV_BLOCK, KV_BLOCK + 1, KV_BLOCK + 5, 2 * KV_BLOCK] {
            let mut p = Paired::new(&m, 6, pos + 3);
            p.admit(&[4, 5, 6], 1);
            p.admit(&[7, 8], 1);
            for _ in 0..pos {
                p.step();
            }
            let fill = pos % KV_BLOCK;
            // Lane 1 keeps its place next to the five-way fork of lane 0.
            assert_eq!(p.reorder(&[0, 0, 0, 0, 0, 1]), 4 * fill, "fork at pos {pos}");
            let tails: Vec<usize> = (0..5)
                .map(|lane| p.state.lane_blocks[p.state.table_at(lane).end - 1] as usize)
                .collect();
            for (lane, &tail) in tails.iter().enumerate().skip(1) {
                // At a block edge the last block is full and stays shared.
                assert_eq!(tail == tails[0], fill == 0, "lane {lane} at pos {pos}");
                for row in 0..KV_BLOCK {
                    let (k, v) = kv_row(&p.state, tail, row);
                    if row < fill || fill == 0 {
                        let (k0, v0) = kv_row(&p.state, tails[0], row);
                        let same = |a: &[f32], b: &[f32]| {
                            a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
                        };
                        assert!(same(&k, &k0) && same(&v, &v0), "lane {lane} row {row}");
                        assert!(k.iter().chain(&v).all(|x| !x.is_nan()));
                    } else {
                        assert!(
                            k.iter().chain(&v).all(|x| x.is_nan()),
                            "lane {lane} row {row}"
                        );
                    }
                }
            }
            p.step();
            assert_eq!(p.reorder(&[5, 2]), 0, "prune at pos {pos}");
            p.step();
            p.step();
            assert_eq!(p.reorder(&[]), 0);
            let (free, total) = p.state.check_kv_pool();
            assert_eq!(free, total, "blocks leaked at pos {pos}");
        }
    }

    /// One request's survivor order does not cost its neighbors anything:
    /// with request A on the identity and request B on `[0,0,1,2,3]`, the
    /// only rows copied are the filled tail rows B's two children of lane
    /// 0 shared, and A's tables still name the blocks they named.
    #[test]
    fn reorder_of_one_request_copies_nothing_for_another() {
        let m = Seq2Seq::new(TransformerConfig::tiny(16), 29);
        let mut p = Paired::new(&m, 10, 8);
        p.admit(&[4, 5, 6], 1);
        p.admit(&[7, 8], 1);
        p.step();
        p.reorder(&[0, 0, 0, 0, 0, 1, 1, 1, 1, 1]);
        for _ in 0..2 {
            p.step();
        }
        let a_tables: Vec<Vec<u32>> =
            (0..5).map(|lane| p.state.lane_blocks[p.state.table_at(lane)].to_vec()).collect();
        let copied = p.reorder(&[0, 1, 2, 3, 4, 5, 5, 6, 7, 8]);
        assert_eq!(copied, 3, "only B's one shared tail of 3 rows");
        for (lane, table) in a_tables.iter().enumerate() {
            assert_eq!(
                p.state.lane_blocks[p.state.table_at(lane)],
                table[..],
                "A's lane {lane} moved"
            );
        }
        p.step();
    }

    /// The pool is sized for the case with nothing to share: every lane
    /// at `cap_pos` with a history of its own (tables rotated every step
    /// so blocks also change hands), and a fork taken while the pool is
    /// full.
    #[test]
    fn pool_holds_every_lane_at_capacity_without_sharing() {
        let cfg = TransformerConfig { max_len: 2 * KV_BLOCK, ..TransformerConfig::tiny(16) };
        let m = Seq2Seq::new(cfg, 31);
        let lanes = 6usize;
        for (cap_pos, fork) in
            [(KV_BLOCK + 3, false), (KV_BLOCK + 3, true), (2 * KV_BLOCK, false)]
        {
            let mut p = Paired::new(&m, lanes, cap_pos);
            p.admit(&[4, 5, 6], lanes);
            for step in 0..cap_pos {
                p.step();
                if step == KV_BLOCK {
                    // Two blocks per lane, all held.
                    assert_eq!(p.state.check_kv_pool().0, 0);
                    if fork {
                        // The copy fits: the dropped lane's blocks are
                        // free by then.
                        assert_eq!(p.reorder(&[0, 0, 1, 2, 3, 4]), 1);
                    }
                }
                p.reorder(&[1, 2, 3, 4, 5, 0]);
            }
            // The forked pair shares its full first block.
            assert_eq!(p.state.check_kv_pool().0, usize::from(fork));
            for lane in 0..lanes {
                assert_eq!(p.state.lane_len(lane), cap_pos);
            }
        }
    }
}
