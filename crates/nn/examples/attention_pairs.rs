//! The attention layer's cost per query·key·head, one phase at a time:
//! QK^T scores against packed keys, the softmax of the score rows, and the
//! softmax-weighted sum of the values — the three kernels every attention
//! on the inference path runs per head (`attend_tile` in `model.rs`).
//!
//! Cases: a 4-row encoder tile ([`kernels::ATTN_TILE`] consecutive
//! queries) and a 5-row beam (one request's lanes in cross-attention), each
//! over one shared block of `n ∈ {128, 512, 1024}` keys at head width 16,
//! the `d_model / n_heads` of the benchmarked model. Kernels run on the
//! active tier, so `SLADE_KERNEL_ISA=scalar` times the scalar one.
//!
//! ```text
//! cargo run --release -p slade_nn --example attention_pairs
//! SLADE_KERNEL_ISA=scalar cargo run --release -p slade_nn --example attention_pairs
//! ```
//!
//! Each figure is the best of several rounds of enough calls to fill a few
//! milliseconds, divided by `rows × n` (one head per call).

use slade_nn::kernels::{self, Blocks};
use std::hint::black_box;
use std::time::Instant;

const DH: usize = 16;
/// Query and context rows sit `D` floats apart, as heads of a `d_model`
/// row do.
const D: usize = 4 * DH;
const ROUNDS: usize = 9;

/// Deterministic values in `[-1, 1)`.
fn seeded(seed: u64, len: usize) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    (0..len)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
        })
        .collect()
}

/// Best-of-rounds ns per call of `f`, each round `calls` calls.
fn best_ns(calls: usize, mut f: impl FnMut()) -> f64 {
    (0..ROUNDS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    println!("tier {}", kernels::tier_status());
    println!("case    n      scores  softmax  wsum   total  (ns per query·key·head, dh {DH})");
    for (case, rows) in [("tile4", kernels::ATTN_TILE), ("beam5", 5)] {
        for n in [128usize, 512, 1024] {
            let seed = (rows * 7919 + n) as u64;
            let keys = seeded(seed, n * DH);
            let mut kp = vec![0.0f32; kernels::packed_keys_len(n, DH)];
            kernels::pack_keys(&keys, DH, n, DH, &mut kp);
            let values = seeded(seed ^ 0x55, n * DH);
            let q = seeded(seed ^ 0x77, rows * D);
            let blocks = Blocks::one(n);
            let scale = 1.0 / (DH as f32).sqrt();
            let mut scores = vec![0.0f32; rows * n];
            kernels::attn_scores_packed_tile_into(&q, D, DH, &kp, &blocks, scale, &mut scores);
            let raw = scores.clone();
            let mut probs = raw.clone();
            kernels::softmax_rows_into(&mut probs, n);
            let mut ctx = vec![0.0f32; rows * D];
            // About 5 ms of work per round at ~1 ns per pair.
            let calls = (5_000_000 / (rows * n)).max(1);
            let pairs = (rows * n) as f64;
            let s = best_ns(calls, || {
                kernels::attn_scores_packed_tile_into(
                    black_box(&q),
                    D,
                    DH,
                    &kp,
                    &blocks,
                    scale,
                    &mut scores,
                );
                black_box(&scores);
            }) / pairs;
            let m = best_ns(calls, || {
                scores.copy_from_slice(&raw);
                kernels::softmax_rows_into(black_box(&mut scores), n);
            });
            let copy = best_ns(calls, || scores.copy_from_slice(black_box(&raw)));
            let m = (m - copy).max(0.0) / pairs;
            let w = best_ns(calls, || {
                kernels::attn_weighted_sum_tile_into(
                    black_box(&probs),
                    &values,
                    DH,
                    &blocks,
                    &mut ctx,
                    D,
                    DH,
                );
                black_box(&ctx);
            }) / pairs;
            println!("{case}  {n:>5}  {s:>7.3}  {m:>7.3}  {w:>5.3}  {:>5.3}", s + m + w);
        }
    }
}
