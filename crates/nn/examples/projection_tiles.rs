//! The projection kernel's throughput at the model's projection shapes:
//! `kernels::matmul_xpacked_into` — every forward's Q/K/V/O and FFN
//! projections, the cross K/V and the tied logits — for `m` rows of `k`
//! inputs against `n` packed weight columns.
//!
//! Shapes: `m ∈ {10, 205, 700}` (a decode step's lanes, a short source's
//! tokens, a long one's) × `(k, n) ∈ {(64, 64), (64, 128), (128, 64),
//! (64, 706)}` (attention projections, the FFN's two halves and the tied
//! logits over the benchmarked model's vocabulary). The kernel runs on the
//! active tier, so `SLADE_KERNEL_ISA=scalar` times the scalar one; the
//! last column times the scalar body directly and divides, so a native
//! run prints the forced-scalar ÷ SIMD ratio.
//!
//! ```text
//! cargo run --release -p slade_nn --example projection_tiles
//! SLADE_KERNEL_ISA=scalar cargo run --release -p slade_nn --example projection_tiles
//! ```
//!
//! Each figure is the best of several rounds of enough calls to fill a few
//! milliseconds, the two bodies alternating round by round; GFLOP/s counts
//! `2·m·k·n` per call.

use slade_nn::kernels::{self, scalar};
use std::hint::black_box;
use std::time::Instant;

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

/// Best-of-rounds ns per call of `f(false)` and of `f(true)`, each round
/// `calls` calls of one then of the other, so both see the same clock
/// phases.
fn best_ns(calls: usize, mut f: impl FnMut(bool)) -> (f64, f64) {
    let mut time = |which| {
        let t = Instant::now();
        for _ in 0..calls {
            f(which);
        }
        t.elapsed().as_nanos() as f64 / calls as f64
    };
    (0..ROUNDS).fold((f64::INFINITY, f64::INFINITY), |(bf, bt), _| {
        (bf.min(time(false)), bt.min(time(true)))
    })
}

fn main() {
    println!("tier {}", kernels::tier_status());
    println!("    m    k    n          ns  GFLOP/s  scalar÷tier");
    for m in [10usize, 205, 700] {
        for (k, n) in [(64usize, 64usize), (64, 128), (128, 64), (64, 706)] {
            let seed = (m * 7919 + k * 31 + n) as u64;
            let a = seeded(seed, m * k);
            let bp = kernels::pack_xposed_blocks(&seeded(seed ^ 0x55, k * n), k, n);
            let mut c = vec![0.0f32; m * n];
            let flops = (2 * m * k * n) as f64;
            // 200 MFLOP a round: about 5 ms on AVX2, 25 on the scalar body.
            let calls = (100_000_000 / (m * k * n)).max(1);
            let (tier, spec) = best_ns(calls, |spec| {
                let a = black_box(&a);
                if spec {
                    scalar::matmul_xpacked_into(a, &bp, &mut c, m, k, n);
                } else {
                    kernels::matmul_xpacked_into(a, &bp, &mut c, m, k, n);
                }
                black_box(&c);
            });
            println!(
                "{m:>5}  {k:>3}  {n:>3}  {tier:>10.0}  {:>7.1}  {:>11.2}",
                flops / tier,
                spec / tier
            );
        }
    }
}
