//! Where a training step's time goes: the forward and the loss
//! ([`Seq2Seq::eval_pair`]) against the whole teacher-forced step
//! ([`Seq2Seq::train_pair`]: the same forward, the loss, the backward),
//! and the backward's share of the step, `1 - forward / step`.
//!
//! Cases: source × target tokens of 250×60, 500×80 and 900×120 on an
//! untrained model shaped as `TrainProfile::default_profile` trains it
//! (vocab 700, d 64, 4 heads, FFN 128, 2 + 2 layers, 1026 positions).
//! Kernels run on the active tier, so `SLADE_KERNEL_ISA=scalar` times the
//! scalar one.
//!
//! ```text
//! cargo run --release -p slade_nn --example train_split
//! SLADE_KERNEL_ISA=scalar cargo run --release -p slade_nn --example train_split
//! ```
//!
//! Each figure is the median of several calls after one warm-up call.

use slade_nn::{kernels, Seq2Seq, TransformerConfig};
use std::hint::black_box;
use std::time::Instant;

const VOCAB: usize = 700;
const REPS: usize = 7;

/// Deterministic token ids in `3..VOCAB` (0..3 are the special tokens).
fn tokens(seed: u64, len: usize) -> Vec<u32> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    (0..len)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            3 + ((s >> 33) % (VOCAB as u64 - 3)) as u32
        })
        .collect()
}

/// Median ms per call of `f`, after one warm-up call.
fn median_ms(mut f: impl FnMut()) -> f64 {
    f();
    let mut ms: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    ms[REPS / 2]
}

fn main() {
    println!("tier {}", kernels::tier_status());
    println!("src × tgt   forward ms  step ms  backward share");
    let cfg = TransformerConfig { max_len: 1026, ..TransformerConfig::small(VOCAB) };
    let mut model = Seq2Seq::new(cfg, 0);
    for (s, t) in [(250usize, 60usize), (500, 80), (900, 120)] {
        let src = tokens(s as u64, s);
        let tgt = tokens(t as u64 ^ 0x55, t);
        let dec_input: Vec<u32> = std::iter::once(1).chain(tgt.iter().copied()).collect();
        let labels: Vec<u32> = tgt.iter().copied().chain(std::iter::once(2)).collect();
        let fwd = median_ms(|| {
            black_box(model.eval_pair(&src, &dec_input, &labels));
        });
        let step = median_ms(|| {
            black_box(model.train_pair(&src, &dec_input, &labels));
        });
        let share = 1.0 - fwd / step;
        println!("{s:>4} × {t:<4}  {fwd:>10.1}  {step:>7.1}  {share:>14.2}");
    }
}
