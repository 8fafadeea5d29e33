//! From-scratch CPU neural network stack for the SLaDe reproduction.
//!
//! The paper trains a 200M-parameter BART-style encoder-decoder on 4×A100
//! for 72 h. This crate implements the same architecture and training recipe
//! (cross-entropy with teacher forcing, AdamW-style weight decay, **no
//! dropout** by default, beam-search decoding) sized for a single CPU core —
//! see `DESIGN.md` for the scaling substitution argument.
//!
//! Layout:
//! - [`kernels`] — runtime-dispatched SIMD kernel tiers (scalar / AVX2,
//!   bit-identical);
//! - [`math`] — the training path's scalar helpers (transpose, GELU
//!   derivative) and the fused log-softmax + top-k, whose
//!   max and exp-sum passes dispatch through [`kernels`];
//! - [`store`] — flat parameter store; gradients and Adam moments exist
//!   only once training touches them;
//! - [`model`] — the seq2seq Transformer with hand-written backward passes,
//!   optional seeded dropout (for the paper's §V-C ablation), forward-only
//!   evaluation ([`Seq2Seq::eval_pair`]), and the one KV-cached inference
//!   path ([`Seq2Seq::encode_batch`]/[`Seq2Seq::decode_step_batch`]),
//!   bit-identical to its reference, the training
//!   forward ([`Seq2Seq::encode`]/[`Seq2Seq::decode_last_logits`]);
//! - [`engine`] — the batched [`InferenceEngine`]: beam-search scheduling,
//!   scoring and early-stop policy, interleaving many requests into one
//!   decode batch.
//!
//! # Example
//!
//! ```
//! use slade_nn::{Seq2Seq, TransformerConfig};
//!
//! let mut model = Seq2Seq::new(TransformerConfig::tiny(16), 0);
//! // One teacher-forced step on a toy pair.
//! model.zero_grads();
//! let loss = model.train_pair(&[4, 5], &[1, 6], &[6, 2]);
//! model.adam_step(1e-3, 0.01, 1.0);
//! assert!(loss > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod engine;
pub mod kernels;
pub mod math;
pub mod model;
pub mod store;

pub use engine::{DecodeRequest, InferenceEngine};
pub use kernels::IsaTier;
pub use model::{Backend, BatchedDecoderState, Seq2Seq, TransformerConfig};
pub use store::{ParamStore, ParamTensor};
