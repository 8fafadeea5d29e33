//! Property tests for the kernel layer's bit-identity contract
//! (satellite of the SIMD dispatch work; see `kernels` module docs).
//!
//! SIMD tiers are compared against the scalar reference by calling the
//! per-tier entry points directly (`scalar::` vs `avx2::`), not via
//! [`slade_nn::kernels::set_tier`] — the dispatch override is
//! process-global and these tests run on the harness's parallel threads.
//! Shapes deliberately cover the awkward cases: `k` not a multiple of
//! the 8-lane width (tail path), `m = 1` / `n = 1` (degenerate tiles),
//! and `n` not a multiple of 8 (the packed layout's column tail).
//!
//! One `proptest!` block per test: the vendored macro expands a long
//! recursive muncher and a combined block overflows the recursion limit.

use proptest::prelude::*;
use slade_nn::kernels::{self, scalar};

fn mat(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-4.0f32..4.0, len)
}

#[cfg(target_arch = "x86_64")]
fn has_avx2() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// Deterministic pseudo-random matrix (splitmix-style; no rand dep so
/// shapes shrink reproducibly).
fn seeded(seed: u64, len: usize) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    (0..len)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
        })
        .collect()
}

/// Rows of `seeded` data quantized per row — inputs for the int8 kernels.
#[cfg(target_arch = "x86_64")]
fn quantized(seed: u64, rows: usize, cols: usize) -> (Vec<i8>, Vec<f32>) {
    let data = seeded(seed, rows * cols);
    let mut q = vec![0i8; rows * cols];
    let mut scales = vec![0.0f32; rows];
    for r in 0..rows {
        scales[r] = kernels::quantize_row_i8(
            &data[r * cols..(r + 1) * cols],
            &mut q[r * cols..(r + 1) * cols],
        );
    }
    (q, scales)
}

#[cfg(target_arch = "x86_64")]
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn avx2_transb_is_bit_identical_to_scalar(
        m in 1usize..5,
        k in 1usize..40,
        n in 1usize..20,
        seed in 0u64..1_000,
    ) {
        if !has_avx2() {
            return Ok(());
        }
        let a = seeded(seed, m * k);
        let b = seeded(seed ^ 0xb, n * k);
        let mut cs = vec![0.0f32; m * n];
        let mut cv = vec![0.0f32; m * n];
        scalar::matmul_transb_into(&a, &b, &mut cs, m, k, n);
        kernels::avx2::matmul_transb_into(&a, &b, &mut cv, m, k, n);
        for (s, v) in cs.iter().zip(&cv) {
            prop_assert_eq!(s.to_bits(), v.to_bits(), "shape ({},{},{})", m, k, n);
        }
    }
}

#[cfg(target_arch = "x86_64")]
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn avx2_xposed_is_bit_identical_to_scalar(
        m in 1usize..5,
        k in 1usize..40,
        n in 1usize..20,
        seed in 0u64..1_000,
    ) {
        if !has_avx2() {
            return Ok(());
        }
        // The transposed orientation exists as one kernel: the packed one.
        let a = seeded(seed, m * k);
        let bp = kernels::pack_xposed_blocks(&seeded(seed ^ 0xc, k * n), k, n);
        let mut cs = vec![0.0f32; m * n];
        let mut cv = vec![0.0f32; m * n];
        scalar::matmul_xpacked_into(&a, &bp, &mut cs, m, k, n);
        kernels::avx2::matmul_xpacked_into(&a, &bp, &mut cv, m, k, n);
        for (s, v) in cs.iter().zip(&cv) {
            prop_assert_eq!(s.to_bits(), v.to_bits(), "shape ({},{},{})", m, k, n);
        }
    }
}

#[cfg(target_arch = "x86_64")]
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn avx2_row_max_is_bit_identical_to_scalar(row in mat(57)) {
        if !has_avx2() {
            return Ok(());
        }
        for len in [1usize, 7, 8, 9, 31, 57] {
            let r = &row[..len];
            prop_assert_eq!(
                scalar::row_max(r).to_bits(),
                kernels::avx2::row_max(r).to_bits()
            );
        }
    }
}

#[cfg(target_arch = "x86_64")]
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn avx2_sum_exp_is_bit_identical_to_scalar(row in mat(57)) {
        if !has_avx2() {
            return Ok(());
        }
        for len in [1usize, 7, 8, 9, 31, 57] {
            let r = &row[..len];
            let max = scalar::row_max(r);
            prop_assert_eq!(
                scalar::sum_exp(r, max).to_bits(),
                kernels::avx2::sum_exp(r, max).to_bits()
            );
            // Widened operands reach the flush-to-zero branch (v - max
            // far below -87), which must also agree across tiers.
            let wide: Vec<f32> = r.iter().map(|v| v * 40.0).collect();
            let wmax = scalar::row_max(&wide);
            prop_assert_eq!(
                scalar::sum_exp(&wide, wmax).to_bits(),
                kernels::avx2::sum_exp(&wide, wmax).to_bits()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sum_exp_matches_libm_within_tolerance(row in mat(57)) {
        // The kernel's polynomial exp stays within a few ulps of libm,
        // so the summed normalizer agrees to ~1e-6 relative.
        let max = kernels::row_max(&row);
        let got = kernels::sum_exp(&row, max);
        let want: f32 = row.iter().map(|&v| (v - max).exp()).sum();
        prop_assert!(
            (got - want).abs() <= want * 1e-5 + 1e-6,
            "{} vs {}", got, want
        );
    }
}

#[cfg(target_arch = "x86_64")]
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn avx2_gelu_is_bit_identical_to_scalar(row in mat(57)) {
        if !has_avx2() {
            return Ok(());
        }
        for len in [1usize, 7, 8, 9, 31, 57] {
            // Scale some inputs far out so the tanh saturates (exp
            // flush-to-zero path) on both tiers.
            for scale in [1.0f32, 25.0] {
                let src: Vec<f32> = row[..len].iter().map(|v| v * scale).collect();
                let mut a = src.clone();
                let mut b = src;
                scalar::gelu_into(&mut a);
                kernels::avx2::gelu_into(&mut b);
                for (x, y) in a.iter().zip(&b) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gelu_matches_libm_tanh_within_tolerance(row in mat(57)) {
        // The polynomial-exp tanh stays within a few ulps of the libm
        // formulation the kernel replaced.
        let mut got = row.clone();
        kernels::gelu_into(&mut got);
        for (&x, &g) in row.iter().zip(&got) {
            let want = 0.5 * x * (1.0 + ((0.797_884_6f32) * (x + 0.044715 * x * x * x)).tanh());
            prop_assert!(
                (g - want).abs() <= want.abs() * 1e-5 + 1e-6,
                "x={}: {} vs {}", x, g, want
            );
        }
    }
}

#[cfg(target_arch = "x86_64")]
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn avx2_qmatmul_is_exactly_scalar(
        m in 1usize..5,
        k in 1usize..40,
        n in 1usize..20,
        seed in 0u64..1_000,
    ) {
        if !has_avx2() {
            return Ok(());
        }
        let (xq, xs) = quantized(seed, m, k);
        let (wq, ws) = quantized(seed ^ 0xd, n, k);
        let bias = seeded(seed ^ 0xe, n);
        let mut os = vec![0.0f32; m * n];
        let mut ov = vec![0.0f32; m * n];
        scalar::qmatmul_transb_into(&xq, &xs, &wq, &ws, Some(&bias), &mut os, m, k, n);
        kernels::avx2::qmatmul_transb_into(&xq, &xs, &wq, &ws, Some(&bias), &mut ov, m, k, n);
        // i32 accumulation is exact, so the tiers agree to the bit.
        for (s, v) in os.iter().zip(&ov) {
            prop_assert_eq!(s.to_bits(), v.to_bits(), "shape ({},{},{})", m, k, n);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transb_and_xposed_agree_bitwise(
        m in 1usize..5,
        k in 1usize..40,
        n in 1usize..20,
        seed in 0u64..1_000,
    ) {
        // Cross-orientation identity, transb ≡ xpacked: training and the
        // reference forward project via transb, the inference path via a
        // transposed, packed copy of the same weights. Uses the dispatched
        // entry points, so whichever tier is active must uphold it.
        let a = seeded(seed, m * k);
        let w = seeded(seed ^ 0xf, n * k); // n x k
        let mut wt = vec![0.0f32; k * n];
        for r in 0..n {
            for p in 0..k {
                wt[p * n + r] = w[r * k + p];
            }
        }
        let mut c1 = vec![0.0f32; m * n];
        let mut c2 = vec![0.0f32; m * n];
        kernels::matmul_transb_into(&a, &w, &mut c1, m, k, n);
        kernels::matmul_xpacked_into(&a, &kernels::pack_xposed_blocks(&wt, k, n), &mut c2, m, k, n);
        for (x, y) in c1.iter().zip(&c2) {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "shape ({},{},{})", m, k, n);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn quantize_round_trip_error_is_half_a_step(row in mat(37)) {
        let mut q = vec![0i8; row.len()];
        let scale = kernels::quantize_row_i8(&row, &mut q);
        for (&v, &qv) in row.iter().zip(&q) {
            // Round-to-nearest: each value lands within half a
            // quantization step of its dequantized image.
            prop_assert!(
                (v - qv as f32 * scale).abs() <= scale * 0.5 + 1e-6,
                "{} vs {} (scale {})", v, qv as f32 * scale, scale
            );
        }
        let absmax = row.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        if absmax > 0.0 {
            // The largest-magnitude element saturates the int8 range.
            prop_assert!(q.iter().any(|&v| v.unsigned_abs() == 127));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn qmatmul_error_vs_f32_is_bounded(
        m in 1usize..5,
        k in 1usize..40,
        n in 1usize..20,
        seed in 0u64..1_000,
    ) {
        // Quantize activations and weights per row, multiply in int8, and
        // compare against the f32 reference. Worst-case error per output:
        // each x error ≤ xs/2 against |w| ≤ 127·ws (and symmetrically),
        // plus the cross term — bounded by
        //   ws/2·Σ|x| + xs/2·Σ|w| + k·xs·ws/4,
        // with 1.5× slack for rounding of the bound arithmetic itself.
        let x = seeded(seed, m * k);
        let w = seeded(seed ^ 0x11, n * k);
        let mut xq = vec![0i8; m * k];
        let mut xs = vec![0.0f32; m];
        for i in 0..m {
            xs[i] = kernels::quantize_row_i8(
                &x[i * k..(i + 1) * k],
                &mut xq[i * k..(i + 1) * k],
            );
        }
        let mut wq = vec![0i8; n * k];
        let mut ws = vec![0.0f32; n];
        for j in 0..n {
            ws[j] = kernels::quantize_row_i8(
                &w[j * k..(j + 1) * k],
                &mut wq[j * k..(j + 1) * k],
            );
        }
        let mut qo = vec![0.0f32; m * n];
        kernels::qmatmul_transb_into(&xq, &xs, &wq, &ws, None, &mut qo, m, k, n);
        let mut fo = vec![0.0f32; m * n];
        kernels::matmul_transb_into(&x, &w, &mut fo, m, k, n);
        for i in 0..m {
            let sum_ax: f32 = x[i * k..(i + 1) * k].iter().map(|v| v.abs()).sum();
            for j in 0..n {
                let sum_aw: f32 = w[j * k..(j + 1) * k].iter().map(|v| v.abs()).sum();
                let bound = ws[j] * 0.5 * sum_ax
                    + xs[i] * 0.5 * sum_aw
                    + k as f32 * xs[i] * ws[j] * 0.25;
                let err = (qo[i * n + j] - fo[i * n + j]).abs();
                prop_assert!(
                    err <= bound * 1.5 + 1e-5,
                    "err {} > bound {} at ({},{}) shape ({},{},{})", err, bound, i, j, m, k, n
                );
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn avx2_quantize_is_bit_identical_to_scalar(row in mat(57), scale_exp in -3i32..4) {
        if !has_avx2() {
            return Ok(());
        }
        let scale = 2.0f32.powi(scale_exp);
        for len in [1usize, 7, 8, 9, 31, 57] {
            let src: Vec<f32> = row[..len].iter().map(|v| v * scale).collect();
            let mut qs = vec![0i8; len];
            let mut qv = vec![0i8; len];
            let ss = scalar::quantize_row_i8(&src, &mut qs);
            let sv = kernels::avx2::quantize_row_i8(&src, &mut qv);
            prop_assert_eq!(ss.to_bits(), sv.to_bits(), "scale, len {}", len);
            prop_assert_eq!(&qs, &qv, "codes, len {}", len);
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[test]
fn avx2_quantize_edge_rows_match_scalar() {
    if !has_avx2() {
        return;
    }
    // Zero rows, denormal-absmax rows (inv = 127/absmax overflows to
    // +inf), mixed ±0.0, and an all-inf row: the vector tier must take
    // the same early-outs and produce the same codes as scalar.
    let denorm = f32::from_bits(1); // smallest positive subnormal
    let cases: Vec<Vec<f32>> = vec![
        vec![0.0; 13],
        vec![-0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0],
        vec![denorm; 9],
        vec![-denorm, denorm, 0.0, denorm, -denorm, 0.0, denorm, -denorm, denorm, 0.0],
        vec![f32::INFINITY, 1.0, -2.0, 0.5, -0.25, 3.0, -1.5, 0.75, 2.5],
        vec![f32::NEG_INFINITY; 8],
        vec![1e-38, -2e-38, 3e-38, -4e-38, 5e-38, -6e-38, 7e-38],
    ];
    for (i, src) in cases.iter().enumerate() {
        let mut qs = vec![0i8; src.len()];
        let mut qv = vec![0i8; src.len()];
        let ss = scalar::quantize_row_i8(src, &mut qs);
        let sv = kernels::avx2::quantize_row_i8(src, &mut qv);
        assert_eq!(ss.to_bits(), sv.to_bits(), "case {i} scale");
        assert_eq!(qs, qv, "case {i} codes");
    }
}

/// The AVX2 score body takes eight key rows per iteration and reduces
/// their lane accumulators in registers; every `dh` shape (0-4 chunks,
/// with and without a tail) meets every group shape (`n < 8`, exactly 8,
/// `n % 8 != 0` past one and several groups, and `n = 0`).
#[cfg(target_arch = "x86_64")]
#[test]
fn avx2_attn_scores_is_bit_identical_to_scalar() {
    if !has_avx2() {
        return;
    }
    for dh in 1usize..=33 {
        // `stride > dh` mirrors the model's head-offset slicing (key rows
        // are d-strided, the query spans one head).
        let stride = dh + 3;
        let scale = 1.0 / (dh as f32).sqrt();
        for n in 0usize..=70 {
            let seed = (dh * 71 + n) as u64;
            let keys = seeded(seed ^ 0x21, n * stride);
            // An all `-0.0` query makes every product `±0.0`: the dot is
            // `+0.0` only if the first `0.0 + q*k` add is kept.
            for q in [seeded(seed, dh), vec![-0.0f32; dh]] {
                let mut ss = vec![0.0f32; n];
                let mut sv = vec![0.0f32; n];
                scalar::attn_scores_into(&q, &keys, stride, scale, &mut ss);
                kernels::avx2::attn_scores_into(&q, &keys, stride, scale, &mut sv);
                for (si, (s, v)) in ss.iter().zip(&sv).enumerate() {
                    assert_eq!(s.to_bits(), v.to_bits(), "dh {dh} n {n} key {si}");
                }
            }
        }
    }
}

/// The packed-key score kernel — scalar-packed body, AVX2 body and the
/// dispatched entry point — against the row-major scalar kernel, the
/// definition: every `dh` shape (`dh < 8`, tails, several chunks) meets
/// every group shape (`n = 0`, `n < 8`, whole groups, a ragged last one)
/// and every tile height, through `d`-strided views at a head offset as
/// the model passes them. The all-`-0.0` query makes every product
/// `±0.0`: the dot is `+0.0` only if the first `0.0 + q·k` add is kept.
/// `pack_keys` fills a NaN buffer, so the last group's padding lanes
/// must be written, and as zeros.
///
/// Mutations that fail it (each reverted): `lane_pair_avx2` starting its
/// accumulators at `-0.0`, which is the first `0.0 + q·k` add dropped
/// (the `-0.0` query only: `+0.0` wanted, `-0.0` got, from `dh 1 n 2`);
/// the AVX2 tree adding pair `(1, 5)` where `(2, 6)` belongs (random
/// queries); `scalar::attn_scores_packed_tile_into` accumulating into
/// `acc[j & 3]` (random queries, one ulp, first at `dh 9`); `pack_keys`
/// leaving the padding lanes untouched (the layout assert, at `dh 1 n 1`).
#[test]
fn packed_attn_scores_are_bit_identical_to_row_major_scalar() {
    const OFF: usize = 2;
    for dh in 1usize..=33 {
        let (stride, qstride) = (dh + 3, dh + 5);
        let scale = 1.0 / (dh as f32).sqrt();
        for n in 0usize..=70 {
            let seed = (dh * 71 + n) as u64;
            let keys = seeded(seed ^ 0x31, OFF + n * stride);
            let mut kp = vec![f32::NAN; kernels::packed_keys_len(n, dh)];
            kernels::pack_keys(&keys[OFF..], stride, n, dh, &mut kp);
            for (i, v) in kp.iter().enumerate() {
                let (g, j, l) = (i / (dh * 8), i / 8 % dh, i % 8);
                let want = match g * 8 + l {
                    si if si < n => keys[OFF + si * stride + j],
                    _ => 0.0,
                };
                assert_eq!(v.to_bits(), want.to_bits(), "pack dh {dh} n {n} at {i}");
            }
            for t in 1..=kernels::ATTN_TILE {
                let len = OFF + (t - 1) * qstride + dh;
                for q in [seeded(seed ^ t as u64, len), vec![-0.0f32; len]] {
                    let mut want = vec![f32::NAN; t * n];
                    for r in 0..t {
                        scalar::attn_scores_into(
                            &q[OFF + r * qstride..][..dh],
                            &keys[OFF..],
                            stride,
                            scale,
                            &mut want[r * n..(r + 1) * n],
                        );
                    }
                    type Kernel = fn(&[f32], usize, usize, &[f32], usize, f32, &mut [f32]);
                    let mut tiers: Vec<(&str, Kernel)> = vec![
                        ("scalar", scalar::attn_scores_packed_tile_into),
                        ("dispatch", kernels::attn_scores_packed_tile_into),
                    ];
                    #[cfg(target_arch = "x86_64")]
                    if has_avx2() {
                        tiers.push(("avx2", kernels::avx2::attn_scores_packed_tile_into));
                    }
                    for (tier, kernel) in tiers {
                        let mut got = vec![f32::NAN; t * n];
                        kernel(&q[OFF..], qstride, dh, &kp, n, scale, &mut got);
                        for (i, (w, g)) in want.iter().zip(&got).enumerate() {
                            assert_eq!(
                                w.to_bits(),
                                g.to_bits(),
                                "{tier}: dh {dh} n {n} t {t} row {} key {}",
                                i / n,
                                i % n
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The tile weighted sum against the per-row scalar kernel — the spec —
/// for every tile height through two register tiles (`t = 1` is the
/// kernel `attn_weighted_sum_into` now is; 5..=8 end in a ragged tile),
/// every column shape (odd and even chunk counts, tails) and key count.
/// Weights are real softmax rows; V holds `-0.0` and huge values; the
/// context is seeded with `-0.0`, which survives only if a zero weight
/// skips the row instead of adding `0.0 * v`. The AVX2 body looks for
/// zero weights eight keys at a time, so the exact zeros are placed five
/// ways: (0) the first row of every register tile all zeros and `-inf`
/// scores at row-dependent places in the others, which keeps every group
/// on the per-weight test; (1) none at all, the only way through the
/// path that tests nothing; and a single one, in the last row, at (2)
/// the first key of a whole group, (3) the last key of a whole group,
/// (4) the last key of the `n % 8` tail — under each of which V holds
/// `+inf`, so a weight added instead of skipped shows as `0 · inf = NaN`.
///
/// Mutations that fail it (each reverted): the group's `zeros` mask taken
/// from row 0 only (placement 2, `t 2`, NaN got) and the path that tests
/// nothing stopping a key short, `si..si + 7` (placement 1) — both pass
/// with placement 0 alone, which is all the test had; the mask cut to
/// `0x7f` (placement 3) or `0xfe` (placement 2); the `n % 8` tail run with
/// `SKIP_ZEROS = false` (placement 0 already, at `n 1`).
#[cfg(target_arch = "x86_64")]
#[test]
fn avx2_weighted_sum_tile_is_bit_identical_to_scalar_rows() {
    if !has_avx2() {
        return;
    }
    for dh in [4usize, 8, 12, 16, 24, 32] {
        let stride = dh + 5;
        let cstride = dh + 2;
        for (n, placement) in (0usize..=70).flat_map(|n| (0..5).map(move |p| (n, p))) {
            // The key whose weight is the single exact zero.
            let lone_zero = match placement {
                0 | 1 => None,
                2 if n >= 8 => Some((n / 8 - 1) * 8),
                3 if n >= 8 => Some(n / 8 * 8 - 1),
                4 if n % 8 != 0 => Some(n - 1),
                _ => continue,
            };
            let seed = (dh * 71 + n) as u64;
            let mut values = seeded(seed, n * stride);
            for (i, v) in values.iter_mut().enumerate() {
                match i % 11 {
                    3 => *v = -0.0,
                    7 => *v *= 1e30,
                    _ => {}
                }
            }
            if let Some(key) = lone_zero {
                values[key * stride..][..dh].fill(f32::INFINITY);
            }
            for t in 1usize..=8 {
                let mut probs = seeded(seed ^ 0x22, t * n);
                for (r, row) in probs.chunks_exact_mut(n.max(1)).enumerate() {
                    if placement == 0 {
                        if r % 4 == 0 {
                            row.fill(0.0);
                            continue;
                        }
                        for p in row.iter_mut().skip(1).step_by(r + 2) {
                            *p = f32::NEG_INFINITY;
                        }
                    }
                    scalar::softmax_into(row);
                    assert!(placement == 0 || row.iter().all(|&p| p != 0.0));
                    if r == t - 1 {
                        if let Some(key) = lone_zero {
                            row[key] = 0.0;
                        }
                    }
                }
                let seed_ctx: Vec<f32> = (0..t * cstride)
                    .map(|i| if i % 3 == 0 { -0.0 } else { 0.25 * i as f32 })
                    .collect();
                let mut cs = seed_ctx.clone();
                let mut cv = seed_ctx.clone();
                let mut cd = seed_ctx.clone();
                for r in 0..t {
                    scalar::attn_weighted_sum_into(
                        &probs[r * n..(r + 1) * n],
                        &values,
                        stride,
                        &mut cs[r * cstride..r * cstride + dh],
                    );
                }
                kernels::avx2::attn_weighted_sum_tile_into(
                    &probs, n, &values, stride, &mut cv, cstride, dh,
                );
                // The dispatched entry point, whatever tier is active.
                kernels::attn_weighted_sum_tile_into(
                    &probs, n, &values, stride, &mut cd, cstride, dh,
                );
                for (i, ((s, v), d)) in cs.iter().zip(&cv).zip(&cd).enumerate() {
                    assert_eq!(
                        s.to_bits(),
                        v.to_bits(),
                        "avx2: dh {dh} n {n} t {t} placement {placement} at {i}"
                    );
                    assert_eq!(
                        s.to_bits(),
                        d.to_bits(),
                        "dispatch: dh {dh} n {n} t {t} placement {placement} at {i}"
                    );
                }
                if n > 0 && placement == 0 {
                    assert_eq!(cs[0].to_bits(), (-0.0f32).to_bits(), "all-zero row kept -0.0");
                }
                if lone_zero.is_some() {
                    let last = &cs[(t - 1) * cstride..][..dh];
                    assert!(last.iter().all(|c| c.is_finite()), "the zero weight skipped +inf");
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn avx2_softmax_is_bit_identical_to_scalar(row in mat(57), widen in 0usize..2) {
        if !has_avx2() {
            return Ok(());
        }
        for len in [1usize, 7, 8, 9, 31, 57] {
            // Widened rows reach the exp flush-to-zero branch.
            let f = if widen == 1 { 40.0 } else { 1.0 };
            let mut a: Vec<f32> = row[..len].iter().map(|v| v * f).collect();
            let mut b = a.clone();
            scalar::softmax_into(&mut a);
            kernels::avx2::softmax_into(&mut b);
            for (x, y) in a.iter().zip(&b) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "len {}", len);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn avx2_weighted_sum_is_bit_identical_to_scalar(
        dh in 1usize..33,
        n in 1usize..12,
        zero_every in 1usize..4,
        seed in 0u64..1_000,
    ) {
        if !has_avx2() {
            return Ok(());
        }
        let stride = dh + 5;
        let values = seeded(seed, n * stride);
        // Exact zeros (masked/flushed attention slots) must be skipped
        // identically on both tiers — a skipped row is not the same as
        // adding 0.0 when the accumulator holds -0.0.
        let probs: Vec<f32> = seeded(seed ^ 0x22, n)
            .iter()
            .enumerate()
            .map(|(i, &p)| if i % zero_every == 0 { 0.0 } else { p })
            .collect();
        let mut cs = vec![0.0f32; dh];
        let mut cv = vec![0.0f32; dh];
        scalar::attn_weighted_sum_into(&probs, &values, stride, &mut cs);
        kernels::avx2::attn_weighted_sum_into(&probs, &values, stride, &mut cv);
        for (s, v) in cs.iter().zip(&cv) {
            prop_assert_eq!(s.to_bits(), v.to_bits(), "dh {} n {}", dh, n);
        }
    }
}

#[cfg(target_arch = "x86_64")]
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn avx2_layer_norm_row_is_bit_identical_to_scalar(row in mat(57), seed in 0u64..1_000) {
        if !has_avx2() {
            return Ok(());
        }
        for len in [1usize, 7, 8, 9, 31, 57] {
            let src = &row[..len];
            let gamma = seeded(seed ^ 0x23, len);
            let beta = seeded(seed ^ 0x24, len);
            let mut os = vec![0.0f32; len];
            let mut ov = vec![0.0f32; len];
            let (ms, rs) = scalar::layer_norm_row_into(src, &gamma, &beta, &mut os);
            let (mv, rv) = kernels::avx2::layer_norm_row_into(src, &gamma, &beta, &mut ov);
            prop_assert_eq!(ms.to_bits(), mv.to_bits(), "mean, len {}", len);
            prop_assert_eq!(rs.to_bits(), rv.to_bits(), "rstd, len {}", len);
            for (x, y) in os.iter().zip(&ov) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "out, len {}", len);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn vnni_qmatmul_is_exactly_avx2_and_scalar(
        m in 1usize..5,
        k in 1usize..72,
        n in 1usize..20,
        seed in 0u64..1_000,
    ) {
        if !kernels::tier_supported(kernels::IsaTier::Vnni) {
            return Ok(());
        }
        // The int8 end-to-end contract: VPDPBUSD's u8×i8 accumulation
        // (via the abs/sign transform) is the same exact i32 arithmetic
        // as the AVX2 madd path and the scalar loop — all three agree to
        // the bit, dequant and bias included. `k` spans the 32-lane VNNI
        // tail (k % 32 ≠ 0).
        let (xq, xs) = quantized(seed, m, k);
        let (wq, ws) = quantized(seed ^ 0x25, n, k);
        let bias = seeded(seed ^ 0x26, n);
        let mut os = vec![0.0f32; m * n];
        let mut oa = vec![0.0f32; m * n];
        let mut ov = vec![0.0f32; m * n];
        scalar::qmatmul_transb_into(&xq, &xs, &wq, &ws, Some(&bias), &mut os, m, k, n);
        kernels::avx2::qmatmul_transb_into(&xq, &xs, &wq, &ws, Some(&bias), &mut oa, m, k, n);
        kernels::vnni::qmatmul_transb_into(&xq, &xs, &wq, &ws, Some(&bias), &mut ov, m, k, n);
        for ((s, a), v) in os.iter().zip(&oa).zip(&ov) {
            prop_assert_eq!(s.to_bits(), a.to_bits(), "avx2 shape ({},{},{})", m, k, n);
            prop_assert_eq!(s.to_bits(), v.to_bits(), "vnni shape ({},{},{})", m, k, n);
        }
    }
}

/// Rows past the int8 skeleton's 16-chunk `prep` buffer (`k > 512`: the
/// chunks beyond it are transformed inline), at the buffer's edge and with
/// a `k % 32` tail, through the four-column path, the single-column path
/// and both — every x86 instance the host can run against scalar.
#[cfg(target_arch = "x86_64")]
#[test]
fn int8_rows_past_the_prep_buffer_match_scalar() {
    type Kernel =
        fn(&[i8], &[f32], &[i8], &[f32], Option<&[f32]>, &mut [f32], usize, usize, usize);
    let mut tiers: Vec<(&str, Kernel)> = Vec::new();
    if has_avx2() {
        tiers.push(("avx2", kernels::avx2::qmatmul_transb_into));
    }
    if kernels::tier_supported(kernels::IsaTier::Vnni) {
        tiers.push(("vnni", kernels::vnni::qmatmul_transb_into));
    }
    let m = 2;
    for (k, n) in [512usize, 513, 544, 1055].into_iter().flat_map(|k| [(k, 1), (k, 4), (k, 5)])
    {
        let (xq, xs) = quantized(k as u64, m, k);
        let (wq, ws) = quantized(k as u64 ^ 0x27, n, k);
        let bias = seeded(0x28, n);
        let mut want = vec![0.0f32; m * n];
        scalar::qmatmul_transb_into(&xq, &xs, &wq, &ws, Some(&bias), &mut want, m, k, n);
        for &(tier, kernel) in &tiers {
            let mut got = vec![f32::NAN; m * n];
            kernel(&xq, &xs, &wq, &ws, Some(&bias), &mut got, m, k, n);
            for (w, g) in want.iter().zip(&got) {
                assert_eq!(w.to_bits(), g.to_bits(), "{tier} k {k} n {n}");
            }
        }
    }
}

// The lengths the `unsafe` bodies rely on are `assert!`ed at the safe entry
// points, so a short buffer panics in release too (CI runs this file there)
// where it used to be an out-of-bounds write (`dst`) or read (`ws`, `bias`).
// On a host without the tier the scalar kernel stands in: it panics by
// indexing.

#[test]
#[should_panic(expected = "one code per value")]
fn quantize_rejects_a_short_dst() {
    kernels::quantize_row_i8(&[0.5; 16], &mut [0i8; 8]);
}

#[cfg(target_arch = "x86_64")]
#[test]
#[should_panic(expected = "one code per value")]
fn avx2_quantize_rejects_a_short_dst() {
    let kernel =
        if has_avx2() { kernels::avx2::quantize_row_i8 } else { scalar::quantize_row_i8 };
    kernel(&[0.5; 16], &mut [0i8; 8]);
}

/// A `1 x 32 x 8` int8 matmul whose weight scales or bias hold 4 of the 8
/// entries, through `tier`'s entry point.
#[cfg(target_arch = "x86_64")]
fn qmatmul_with_short(tier: kernels::IsaTier, short_ws: bool, short_bias: bool) {
    let kernel = match tier {
        kernels::IsaTier::Vnni if kernels::tier_supported(tier) => {
            kernels::vnni::qmatmul_transb_into
        }
        kernels::IsaTier::Avx2 if has_avx2() => kernels::avx2::qmatmul_transb_into,
        _ => scalar::qmatmul_transb_into,
    };
    let (ws, bias) = ([1.0f32; 8], [0.0f32; 8]);
    let (ws, bias) =
        (&ws[..if short_ws { 4 } else { 8 }], &bias[..if short_bias { 4 } else { 8 }]);
    kernel(&[1i8; 32], &[1.0], &[1i8; 8 * 32], ws, Some(bias), &mut [0.0f32; 8], 1, 32, 8);
}

#[cfg(target_arch = "x86_64")]
#[test]
#[should_panic]
fn avx2_qmatmul_rejects_short_weight_scales() {
    qmatmul_with_short(kernels::IsaTier::Avx2, true, false);
}

#[cfg(target_arch = "x86_64")]
#[test]
#[should_panic]
fn avx2_qmatmul_rejects_a_short_bias() {
    qmatmul_with_short(kernels::IsaTier::Avx2, false, true);
}

#[cfg(target_arch = "x86_64")]
#[test]
#[should_panic]
fn vnni_qmatmul_rejects_short_weight_scales() {
    qmatmul_with_short(kernels::IsaTier::Vnni, true, false);
}

#[cfg(target_arch = "x86_64")]
#[test]
#[should_panic]
fn vnni_qmatmul_rejects_a_short_bias() {
    qmatmul_with_short(kernels::IsaTier::Vnni, false, true);
}
