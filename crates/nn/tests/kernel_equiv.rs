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
use slade_nn::kernels::{self, scalar, Blocks};

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

/// IEEE specials planted by `kind` in `a` (`m x k`) and in the weights
/// `w`, where output column `j`'s weight for input `p` is `w[j * js + p *
/// ps]`: 0 none; 1 every seventh weight `-0.0`, and row `at % m` of `a`
/// all `-0.0` against column `at % n`'s weights made positive, so that
/// output's products are all `-0.0` and only the `+0.0` its lanes start
/// from makes it `+0.0`; 2 a `+inf` and a `-inf` in each (an output that
/// meets both is NaN); 3 one NaN in each.
fn plant(
    a: &mut [f32],
    w: &mut [f32],
    (m, k, n): (usize, usize, usize),
    (js, ps): (usize, usize),
    kind: u8,
    at: usize,
) {
    match kind {
        1 => {
            a[at % m * k..][..k].fill(-0.0);
            w.iter_mut().step_by(7).for_each(|x| *x = -0.0);
            for p in 0..k {
                let x = &mut w[at % n * js + p * ps];
                *x = x.abs();
            }
        }
        2 => {
            for v in [a, w] {
                let len = v.len();
                v[at % len] = f32::INFINITY;
                v[(at * 7 + 3) % len] = f32::NEG_INFINITY;
            }
        }
        3 => {
            a[at % a.len()] = f32::NAN;
            w[(at * 3 + 1) % w.len()] = f32::NAN;
        }
        _ => {}
    }
}

/// Bit equality, except that any NaN equals any NaN: which NaN payload an
/// add of two NaNs keeps depends on the operand order LLVM picks, and no
/// tier promises one.
fn same_bits(x: f32, y: f32) -> bool {
    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
}

#[cfg(target_arch = "x86_64")]
proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The AVX2 projection body against the scalar spec at every register
    /// tile remainder: `m` 1..=12 (row tiles of three and a rest of two or
    /// one; 5 is a beam, 10 a decode step's lanes), `n` 1..=48 and 706
    /// (block pairs, a single block left over, the tail columns `dot8`
    /// takes, the tied logits' width), `k` 1..=136 (every `k % 8`, lanes of
    /// up to 17 products), with specials planted in `a` and the weights.
    ///
    /// Mutations that fail it and the transb test below (each in a copy of
    /// the crate, reverted): the lane pairs folded as `(0,4)+(1,5)` and
    /// `(2,6)+(3,7)`, not `reduce8`'s tree (one ulp, `(2,8,34)`); a lane
    /// pair's tail product added to lane `l + 4` instead of `l` (`(10,78,13)`);
    /// the one-row remainder tile skipped (`(10,78,706)`) or the three-row
    /// tile of the last odd block (`(10,78,13)`); both lane partials started
    /// at `-0.0`, which is the first `0.0 + a·b` add dropped (`(2,8,34)`,
    /// planted kind 1: `+0.0` wanted, `-0.0` got). Starting only the `l`
    /// partial at `-0.0` is invisible: the `l + 4` partial it is folded
    /// with is never `-0.0`.
    #[test]
    fn avx2_xposed_is_bit_identical_to_scalar(
        m in 1usize..=12,
        k in 1usize..=136,
        n in 1usize..=48,
        kind in 0u8..4,
        seed in 0u64..1_000,
    ) {
        if !has_avx2() {
            return Ok(());
        }
        // The transposed orientation exists as one kernel: the packed one.
        for n in [n, 706] {
            let (mut a, mut w) = (seeded(seed, m * k), seeded(seed ^ 0xc, k * n)); // w: k x n
            plant(&mut a, &mut w, (m, k, n), (1, n), kind, seed as usize);
            let bp = kernels::pack_xposed_blocks(&w, k, n);
            let mut cs = vec![0.0f32; m * n];
            let mut cv = vec![0.0f32; m * n];
            scalar::matmul_xpacked_into(&a, &bp, &mut cs, m, k, n);
            kernels::avx2::matmul_xpacked_into(&a, &bp, &mut cv, m, k, n);
            for (at, (s, v)) in cs.iter().zip(&cv).enumerate() {
                prop_assert!(
                    same_bits(*s, *v),
                    "shape ({},{},{}) kind {} at {}: {} vs {}", m, k, n, kind, at, s, v
                );
            }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn transb_and_xposed_agree_bitwise(
        m in 1usize..=12,
        k in 1usize..=136,
        n in 1usize..=48,
        kind in 0u8..4,
        seed in 0u64..1_000,
    ) {
        // Cross-orientation identity, transb ≡ xpacked: every forward
        // projects through a transposed, packed copy of the weights, and
        // the scalar transb body over the weights as stored is its
        // independent spec. The packed side is the dispatched entry
        // point, so whichever tier is active must uphold it, at the
        // shapes and with the specials of the test above.
        for n in [n, 706] {
            let (mut a, mut w) = (seeded(seed, m * k), seeded(seed ^ 0xf, n * k)); // w: n x k
            plant(&mut a, &mut w, (m, k, n), (k, 1), kind, seed as usize);
            let mut wt = vec![0.0f32; k * n];
            for r in 0..n {
                for p in 0..k {
                    wt[p * n + r] = w[r * k + p];
                }
            }
            let mut c1 = vec![0.0f32; m * n];
            let mut c2 = vec![0.0f32; m * n];
            scalar::matmul_transb_into(&a, &w, &mut c1, m, k, n);
            let bp = kernels::pack_xposed_blocks(&wt, k, n);
            kernels::matmul_xpacked_into(&a, &bp, &mut c2, m, k, n);
            for (at, (x, y)) in c1.iter().zip(&c2).enumerate() {
                prop_assert!(
                    same_bits(*x, *y),
                    "shape ({},{},{}) kind {} at {}: {} vs {}", m, k, n, kind, at, x, y
                );
            }
        }
    }
}

/// The packed-key score kernel — scalar-packed body, AVX2 body and the
/// dispatched entry point — against the row-major scalar kernel, the
/// definition: every `dh` shape (`dh < 8`, tails, several chunks; the AVX2
/// body's const-width instances at 8 and 16, its run-time one elsewhere)
/// meets every group shape (`n = 0`, `n < 8`, whole groups, a ragged last
/// one) and tiles of 1..=5 rows (five is a beam: a register tile of four
/// and one of one), through `d`-strided views at a head offset as the
/// model passes them. The all-`-0.0` query makes every product `±0.0`: the
/// dot is `+0.0` only if the first `0.0 + q·k` add is kept. `pack_keys`
/// fills a NaN buffer, so the last group's padding lanes must be written,
/// and as zeros.
///
/// Mutations that fail it (each reverted): `group_dots_avx2` starting its
/// lane partials at `-0.0`, which is the first `0.0 + q·k` add dropped
/// (the `-0.0` query only: `+0.0` wanted, `-0.0` got, from `dh 1 n 2`);
/// its tree folding `a0 + a2` and `a4 + a6` where `a0 + a4` and `a2 + a6`
/// belong (random queries, first at `dh 5`); dispatch running width 16 on
/// the `DH = 8` instance (`dh 16 n 1`) or width 8 on `DH = 16` (`dh 8 n
/// 3`); `scalar::attn_scores_packed_tile_into` accumulating into `acc[j &
/// 3]` (random queries, one ulp, first at `dh 9`); `pack_keys` leaving the
/// padding lanes untouched (the layout assert, at `dh 1 n 1`).
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
            for t in 1..=kernels::ATTN_TILE + 1 {
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
                    type Kernel = fn(&[f32], usize, usize, &[f32], &Blocks, f32, &mut [f32]);
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
                        kernel(&q[OFF..], qstride, dh, &kp, &Blocks::one(n), scale, &mut got);
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
/// skips the row instead of adding `0.0 * v`. The AVX2 body tests a
/// block's weights for zeros once, then, in a block that has one, eight
/// keys at a time, so the exact zeros are placed five ways: (0) the first
/// row of every register tile all zeros and `-inf` scores at row-dependent
/// places in the others, which sends every block down the tested path and
/// some of its groups past the per-weight test; (1) none at all, the only
/// way through the loop that tests nothing; and a single one, in the last
/// row, at (2) the first key of a whole group, (3) the last key of a whole
/// group, (4) the last key of the `n % 8` tail — under each of which V
/// holds `+inf`, so a weight added instead of skipped shows as `0 · inf =
/// NaN`.
///
/// Mutations that fail it (each reverted): the group's `zeros` mask taken
/// from row 0 only (placement 2, `t 2`, NaN got); a group without a zero
/// stopping a key short, `si..si + 7` (placement 0, `n 8 t 3`); the mask
/// cut to `0x7f` (placement 3); the `n % 8` tail run untested (placement
/// 0, at `n 1`); the block's test looking at row 0 only (placement 4, `t
/// 2`) and the untested loop stopping a key short (placement 0, `n 1`).
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
                let one = Blocks::one(n);
                kernels::avx2::attn_weighted_sum_tile_into(
                    &probs, &values, stride, &one, &mut cv, cstride, dh,
                );
                // The dispatched entry point, whatever tier is active.
                kernels::attn_weighted_sum_tile_into(
                    &probs, &values, stride, &one, &mut cd, cstride, dh,
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

/// The AVX2 weighted sum tests a register tile's weights for exact zeros
/// once per block and runs the key loop untested when it finds none, so
/// one row's zero must send the whole tile down the tested path without
/// letting it choose any other row's. Each tile (1..=5 rows, one register
/// tile; 6 and 7 add a ragged second) has exactly one exact zero, in one
/// row, at the first key, inside the first or the second whole group, or
/// in the last block's `n % 8` tail, as `0.0` or `-0.0`; the value row of
/// that key holds `+inf` in every block, so a zero weight that is added
/// instead of skipped shows as `0 · inf = NaN`, while the other rows add
/// `+inf` through their real weights. Blocks are shared by every row and,
/// in a second pass, each row's own; widths 8 and 16 (the const-width
/// instances) and 12 (the run-time one with its scalar remainder).
///
/// Mutations that fail it (each reverted): `any_zero_weight` testing row 0
/// only (`hits[..1]`; first at `dh 8 shared true rows 2 zero row 1`) or
/// skipping the `n % 8` tail (`key 25`); the per-eight test of a block
/// with a zero taking row 0's mask only (`rows 2 zero row 1`); the
/// untested loop stopping a key short (`len - 1`; the first case). Its
/// tail compare without the `and` with the mask fails nothing: a block
/// then always takes the tested path, which is slower, not wrong.
#[cfg(target_arch = "x86_64")]
#[test]
fn avx2_weighted_sum_finds_a_zero_in_any_row_of_the_tile() {
    if !has_avx2() {
        return;
    }
    const BLOCK: usize = 16;
    let n = BLOCK + 12;
    for dh in [8usize, 16, 12] {
        let (vstride, cstride) = (dh + 3, dh + 2);
        for (shared, t) in
            [true, false].into_iter().flat_map(|s| (1usize..=7).map(move |t| (s, t)))
        {
            let nb = n.div_ceil(BLOCK);
            let tables: Vec<u32> =
                (0..t * nb).map(|e| if shared { (e % nb) as u32 } else { e as u32 }).collect();
            let vblock = BLOCK * vstride;
            let blocks =
                Blocks { tables: &tables, tstride: nb, block: BLOCK, bstride: vblock, n };
            for (zero_row, key, sign) in (0..t)
                .flat_map(|r| [0usize, 5, 11, BLOCK + 9].map(|k| (r, k)))
                .flat_map(|(r, k)| [0.0f32, -0.0].map(|z| (r, k, z)))
            {
                let seed = (dh * 131 + t * 17 + zero_row * 5 + key) as u64;
                let mut pool = seeded(seed, tables.len() * vblock);
                for b in 0..tables.len() {
                    let at = key % BLOCK;
                    if key / BLOCK == b % nb {
                        pool[b * vblock + at * vstride..][..dh].fill(f32::INFINITY);
                    }
                }
                // Contiguous rows of what each table names, for the spec.
                let mut vrows = vec![0.0f32; t * n * dh];
                for r in 0..t {
                    for si in 0..n {
                        let id = tables[r * nb + si / BLOCK] as usize;
                        let from = &pool[id * vblock + si % BLOCK * vstride..][..dh];
                        vrows[(r * n + si) * dh..][..dh].copy_from_slice(from);
                    }
                }
                let mut probs = seeded(seed ^ 0x22, t * n);
                for row in probs.chunks_exact_mut(n) {
                    kernels::scalar::softmax_into(row);
                    assert!(row.iter().all(|&p| p != 0.0));
                }
                probs[zero_row * n + key] = sign;
                let seed_ctx: Vec<f32> = (0..t * cstride)
                    .map(|i| if i % 3 == 0 { -0.0 } else { 0.25 * i as f32 })
                    .collect();
                let mut want = seed_ctx.clone();
                for r in 0..t {
                    scalar::attn_weighted_sum_into(
                        &probs[r * n..(r + 1) * n],
                        &vrows[r * n * dh..],
                        dh,
                        &mut want[r * cstride..r * cstride + dh],
                    );
                }
                let mut got = seed_ctx;
                kernels::avx2::attn_weighted_sum_tile_into(
                    &probs, &pool, vstride, &blocks, &mut got, cstride, dh,
                );
                let case =
                    format!("dh {dh} shared {shared} rows {t} zero row {zero_row} key {key}");
                assert!(want[zero_row * cstride..][..dh].iter().all(|c| !c.is_nan()), "{case}");
                for (i, (w, g)) in want.iter().zip(&got).enumerate() {
                    assert_eq!(w.to_bits(), g.to_bits(), "{case}: ctx {i} {w} vs {g}");
                }
            }
        }
    }
}

/// The block-walking tile kernels — scalar body, AVX2 body, dispatched
/// entry point — against the per-row scalar kernels over the same keys and
/// values laid out contiguously, which is their definition: every `dh`
/// shape × every fill of the last block × 1..=5 blocks × 1..=8 query rows
/// (two register tiles of either kernel, the second ragged). Each row has a
/// history of its own; which rows keep theirs in the same block varies with
/// the case: the first blocks are common to all rows, the next ones to
/// pairs of rows, the rest belong to one row — the tables a forking beam
/// leaves — and block ids are scattered over the pool. Buffers are handed
/// over as the model hands them, at a head offset with strides wider than
/// a row. Everything a kernel must not read is NaN: the keys and value rows
/// of the last block past its fill, and the pool between blocks. The
/// weights are softmax rows with `-inf` scores, so zero weights meet
/// `SKIP_ZEROS` in shared and unshared blocks alike.
///
/// Mutations that fail it (each reverted): `scores_packed_rows_avx2` and
/// `weighted_sum_block_avx2` reading every row's block where row `row0`'s
/// table says (`blocks.start(row0, i)`), and a tile counted as sharing a
/// block when its first two rows do (`kb.iter().take(2)`) — both first at
/// `dh 1 fill 1 blocks 1 rows 4`, whose third row has a block of its own;
/// the weighted sum taking each block's weights from the row's start
/// (`probs` for `probs.add(at)`; `dh 8 fill 1 blocks 2 rows 2`); the scalar
/// body cutting a score row by `block + 1` (`blocks 2`: a NaN key scored).
#[test]
fn block_walking_tile_kernels_match_scalar_rows_over_contiguous_keys() {
    const BLOCK: usize = 16;
    const OFF: usize = 3;
    let mut tiers: Vec<&str> = vec!["scalar", "dispatch"];
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        tiers.push("avx2");
    }
    for dh in 1usize..=33 {
        let scale = 1.0 / (dh as f32).sqrt();
        let (qstride, cstride, vstride) = (dh + 5, dh + 2, dh + 3);
        // A block: its packed keys, then its value rows, then a gap.
        let kfloats = kernels::packed_keys_len(BLOCK, dh);
        let kstride = kfloats + 9;
        let vblock = BLOCK * vstride + 4;
        for (nb, fill) in (1usize..=5).flat_map(|nb| (1..=BLOCK).map(move |f| (nb, f))) {
            let n = (nb - 1) * BLOCK + fill;
            for t in 1usize..=8 {
                let seed = ((dh * 7 + nb) * 17 + fill) as u64 * 9 + t as u64;
                // Which history row `r` reads at block `i`: rows with the
                // same one share the block.
                let common = (dh + fill + t) % (nb + 1);
                let paired = common + (fill + t) % 2;
                let history = |r: usize, i: usize| match i {
                    i if i < common => 0,
                    i if i < paired => 1 + r / 2,
                    _ => 100 + r,
                };
                // Pool blocks: one per table entry, plus one when that
                // makes 7 a unit — ids are scattered by a stride of 7.
                let pool = t * nb + usize::from((t * nb).is_multiple_of(7));
                let mut owners: Vec<(usize, usize)> = Vec::new();
                let mut tables = vec![0u32; t * nb];
                for (r, table) in tables.chunks_exact_mut(nb).enumerate() {
                    for (i, id) in table.iter_mut().enumerate() {
                        let owner = (history(r, i), i);
                        let at = owners.iter().position(|&o| o == owner).unwrap_or_else(|| {
                            owners.push(owner);
                            owners.len() - 1
                        });
                        *id = ((at * 7 + 3) % pool) as u32;
                    }
                }
                // The pool, and each row's keys / values as contiguous rows.
                let mut kpool = vec![f32::NAN; OFF + pool * kstride];
                let mut vpool = vec![f32::NAN; OFF + pool * vblock];
                let mut krows = vec![0.0f32; t * n * dh];
                let mut vrows = vec![0.0f32; t * n * dh];
                for (r, table) in tables.chunks_exact(nb).enumerate() {
                    for (i, &id) in table.iter().enumerate() {
                        let len = BLOCK.min(n - i * BLOCK);
                        let salt = (history(r, i) * 31 + i) as u64;
                        let keys = seeded(seed ^ salt << 8, len * dh);
                        let mut values = seeded(seed ^ salt << 8 ^ 0x55, len * dh);
                        values.iter_mut().step_by(11).for_each(|v| *v = -0.0);
                        krows[(r * n + i * BLOCK) * dh..][..len * dh].copy_from_slice(&keys);
                        vrows[(r * n + i * BLOCK) * dh..][..len * dh].copy_from_slice(&values);
                        let kb = &mut kpool[OFF + id as usize * kstride..][..kfloats];
                        for (at, key) in keys.chunks_exact(dh).enumerate() {
                            kernels::pack_key_into(key, at, kb);
                        }
                        let vb = &mut vpool[OFF + id as usize * vblock..];
                        for (at, row) in values.chunks_exact(dh).enumerate() {
                            vb[at * vstride..][..dh].copy_from_slice(row);
                        }
                    }
                }
                let q = seeded(seed ^ 0x77, OFF + (t - 1) * qstride + dh);
                let mut want_scores = vec![0.0f32; t * n];
                for (r, srow) in want_scores.chunks_exact_mut(n).enumerate() {
                    let qrow = &q[OFF + r * qstride..][..dh];
                    scalar::attn_scores_into(qrow, &krows[r * n * dh..], dh, scale, srow);
                }
                let mut probs = want_scores.clone();
                for (r, row) in probs.chunks_exact_mut(n).enumerate() {
                    row.iter_mut()
                        .skip(r % 3)
                        .step_by(r + 2)
                        .for_each(|p| *p = f32::NEG_INFINITY);
                    if r % 4 == 3 {
                        // A row without a zero weight.
                        row.copy_from_slice(&want_scores[r * n..(r + 1) * n]);
                    }
                    scalar::softmax_into(row);
                }
                let seed_ctx: Vec<f32> = (0..OFF + t * cstride)
                    .map(|i| if i % 3 == 0 { -0.0 } else { 0.5 * i as f32 })
                    .collect();
                let mut want_ctx = seed_ctx.clone();
                for (r, prow) in probs.chunks_exact(n).enumerate() {
                    let crow = &mut want_ctx[OFF + r * cstride..][..dh];
                    scalar::attn_weighted_sum_into(prow, &vrows[r * n * dh..], dh, crow);
                }
                let kblocks =
                    Blocks { tables: &tables, tstride: nb, block: BLOCK, bstride: kstride, n };
                let vblocks = Blocks { bstride: vblock, ..kblocks };
                for &tier in &tiers {
                    let mut got_scores = vec![f32::NAN; t * n];
                    let mut got_ctx = seed_ctx.clone();
                    let (kp, vp, qv) = (&kpool[OFF..], &vpool[OFF..], &q[OFF..]);
                    let ctx = &mut got_ctx[OFF..];
                    match tier {
                        "scalar" => {
                            scalar::attn_scores_packed_tile_into(
                                qv,
                                qstride,
                                dh,
                                kp,
                                &kblocks,
                                scale,
                                &mut got_scores,
                            );
                            scalar::attn_weighted_sum_tile_into(
                                &probs, vp, vstride, &vblocks, ctx, cstride, dh,
                            );
                        }
                        #[cfg(target_arch = "x86_64")]
                        "avx2" => {
                            kernels::avx2::attn_scores_packed_tile_into(
                                qv,
                                qstride,
                                dh,
                                kp,
                                &kblocks,
                                scale,
                                &mut got_scores,
                            );
                            kernels::avx2::attn_weighted_sum_tile_into(
                                &probs, vp, vstride, &vblocks, ctx, cstride, dh,
                            );
                        }
                        _ => {
                            kernels::attn_scores_packed_tile_into(
                                qv,
                                qstride,
                                dh,
                                kp,
                                &kblocks,
                                scale,
                                &mut got_scores,
                            );
                            kernels::attn_weighted_sum_tile_into(
                                &probs, vp, vstride, &vblocks, ctx, cstride, dh,
                            );
                        }
                    }
                    let case = format!("{tier}: dh {dh} fill {fill} blocks {nb} rows {t}");
                    for (i, (w, g)) in want_scores.iter().zip(&got_scores).enumerate() {
                        assert_eq!(w.to_bits(), g.to_bits(), "{case}: score {i} {w} vs {g}");
                    }
                    for (i, (w, g)) in want_ctx.iter().zip(&got_ctx).enumerate() {
                        assert_eq!(w.to_bits(), g.to_bits(), "{case}: ctx {i} {w} vs {g}");
                    }
                }
            }
        }
    }
}

/// Softmax — one row and several at a time — and `sum_exp` on the AVX2 tier
/// against the scalar tier for every length 1..=70, so every `n % 8` tail
/// goes through the masked last vector behind 0..=8 whole ones. The rows:
/// plain; all negative (the max pass must pad the lanes past the row with
/// `-inf`, not `0.0`); widened until most of `v - max` is in the
/// flush-to-zero range; with `-inf` entries (masked slots) in the tail and
/// in whole vectors; and nothing but `-inf`, whose exponentials sum to zero
/// — `+0.0` everywhere on every tier, not `NaN`. `sum_exp` also takes a
/// `max` far above the row: a zero sum.
///
/// Mutations that fail it (each reverted): the max pass taking the tail's
/// max in every lane instead of blending it into the tail's own (the
/// all-negative row at `n 1`); `exp_tail` without its `and` (`n 1`: the
/// padding lanes' exponentials join the sum, 7.72 for 1); the normalise pass
/// stopping at the whole vectors (`n 2`, the tail left unnormalised);
/// `exp_lane` flushing only `x < -87.0` (the row of `-inf`: NaN from scalar,
/// zeros from AVX2).
#[cfg(target_arch = "x86_64")]
#[test]
fn avx2_softmax_and_sum_exp_match_scalar_at_every_tail() {
    if !has_avx2() {
        return;
    }
    for n in 1usize..=70 {
        let plain = seeded(n as u64, n);
        let masked = |every: usize| -> Vec<f32> {
            let mut row = plain.clone();
            row.iter_mut().skip(n % every).step_by(every).for_each(|v| *v = f32::NEG_INFINITY);
            row
        };
        let rows: Vec<(&str, Vec<f32>)> = vec![
            ("plain", plain.clone()),
            ("negative", plain.iter().map(|v| -1.5 - v.abs()).collect()),
            ("wide", plain.iter().map(|v| v * 120.0).collect()),
            ("masked", masked(3)),
            // `-inf` from the last whole vector's start on, the tail included.
            ("masked end", {
                let mut row = plain.clone();
                row[(n - 1) / 8 * 8 / 2..].fill(f32::NEG_INFINITY);
                row[0] = 0.25;
                row
            }),
            ("all -inf", vec![f32::NEG_INFINITY; n]),
        ];
        for (name, row) in &rows {
            let max = scalar::row_max(row);
            assert_eq!(
                max.to_bits(),
                kernels::avx2::row_max(row).to_bits(),
                "row_max {name} n {n}"
            );
            for m in [max, max + 200.0] {
                if m.is_finite() {
                    let (s, v) = (scalar::sum_exp(row, m), kernels::avx2::sum_exp(row, m));
                    assert_eq!(
                        s.to_bits(),
                        v.to_bits(),
                        "sum_exp {name} n {n} max {m}: {s} vs {v}"
                    );
                    assert!(m == max || s == 0.0, "a max 200 above the row flushes every term");
                }
            }
            let mut want = row.clone();
            scalar::softmax_into(&mut want);
            if *name == "all -inf" {
                assert!(
                    want.iter().all(|p| p.to_bits() == 0),
                    "a zero-sum row is +0.0: {want:?}"
                );
            }
            // Alone, and as each of 1..=9 rows of a tile (the kernel takes
            // eight rows per pass).
            for t in [1usize, 2, 8, 9] {
                let mut got: Vec<f32> = (0..t).flat_map(|_| row.iter().copied()).collect();
                kernels::avx2::softmax_rows_into(&mut got, n);
                for (i, g) in got.iter().enumerate() {
                    let w = want[i % n];
                    assert_eq!(
                        w.to_bits(),
                        g.to_bits(),
                        "softmax {name} n {n} rows {t} at {i}"
                    );
                }
            }
        }
    }
}

/// The AVX2 softmax runs the max chains of up to eight rows side by side,
/// so each row of a tile must keep its own: tiles of 1..=8 rows (9 adds a
/// second pass) whose rows differ — plain, with a NaN (first, inside or in
/// the `n % 8` tail), with `-inf` slots, all `-inf`, all negative — against
/// the scalar softmax of each row alone, at every length 1..=40.
///
/// Mutations that fail it (each reverted, and only this test fails the
/// first): every row's max read from the first row (`p.add(c)` for
/// `p.add(r * n + c)`; `n 8 rows 2`); the chains' operands swapped
/// (`_mm256_max_ps(load, acc)`: a NaN resolves the other way; `n 12`, a
/// NaN row); the tail's max taken in every lane, unblended (the
/// all-negative row, `n 3`). The old tail — a `-inf` pad, then the max in
/// every lane — fails it too: a lane past the tail that holds a NaN reads
/// `-inf` after it, so the row's max moved (`n 12`).
#[cfg(target_arch = "x86_64")]
#[test]
fn avx2_softmax_keeps_each_rows_max_in_a_tile_of_unlike_rows() {
    if !has_avx2() {
        return;
    }
    for n in 1usize..=40 {
        let kinds: Vec<Vec<f32>> = (0..6)
            .map(|kind| {
                let mut row = seeded((n * 7 + kind) as u64, n);
                match kind {
                    1 => row[0] = f32::NAN,
                    2 => row[n / 2] = f32::NAN,
                    3 => row.iter_mut().skip(1).step_by(3).for_each(|v| *v = f32::NEG_INFINITY),
                    4 => row.fill(f32::NEG_INFINITY),
                    5 => row.iter_mut().for_each(|v| *v = -2.0 - v.abs()),
                    _ => row[n - 1] *= 30.0,
                }
                row
            })
            .collect();
        for t in 1usize..=9 {
            for shift in 0..kinds.len() {
                let rows: Vec<&Vec<f32>> =
                    (0..t).map(|r| &kinds[(r + shift) % kinds.len()]).collect();
                let mut got: Vec<f32> = rows.iter().flat_map(|r| r.iter().copied()).collect();
                kernels::avx2::softmax_rows_into(&mut got, n);
                for (r, row) in rows.iter().enumerate() {
                    let mut want = row.to_vec();
                    scalar::softmax_into(&mut want);
                    for (i, (w, g)) in want.iter().zip(&got[r * n..]).enumerate() {
                        assert_eq!(
                            w.to_bits(),
                            g.to_bits(),
                            "n {n} rows {t} shift {shift}: row {r} at {i}: {w} vs {g}"
                        );
                    }
                }
            }
        }
    }
}

// A score or weight buffer that is not whole rows of `n` used to be cut to
// the whole rows in it — none, for a buffer shorter than one — leaving the
// rest, or all of it, stale. It panics on every tier, in release too.

/// `kernel` over `len` scores in rows of 6.
fn scores_with_len(tier: &str, len: usize) {
    type Kernel = fn(&[f32], usize, usize, &[f32], &Blocks, f32, &mut [f32]);
    let kernel: Kernel = match tier {
        #[cfg(target_arch = "x86_64")]
        "avx2" if has_avx2() => kernels::avx2::attn_scores_packed_tile_into,
        "dispatch" => kernels::attn_scores_packed_tile_into,
        _ => scalar::attn_scores_packed_tile_into,
    };
    let kp = vec![0.5f32; kernels::packed_keys_len(6, 4)];
    kernel(&[1.0; 8], 4, 4, &kp, &Blocks::one(6), 1.0, &mut vec![0.0; len]);
}

/// `kernel` over `len` weights in rows of 6.
fn weighted_sum_with_len(tier: &str, len: usize) {
    type Kernel = fn(&[f32], &[f32], usize, &Blocks, &mut [f32], usize, usize);
    let kernel: Kernel = match tier {
        #[cfg(target_arch = "x86_64")]
        "avx2" if has_avx2() => kernels::avx2::attn_weighted_sum_tile_into,
        "dispatch" => kernels::attn_weighted_sum_tile_into,
        _ => scalar::attn_weighted_sum_tile_into,
    };
    kernel(&vec![0.1; len], &[0.5; 6 * 8], 8, &Blocks::one(6), &mut [0.0; 16], 8, 8);
}

#[test]
#[should_panic(expected = "not whole rows")]
fn scalar_tile_scores_reject_a_buffer_shorter_than_a_row() {
    scores_with_len("scalar", 5);
}

#[test]
#[should_panic(expected = "not whole rows")]
fn avx2_tile_scores_reject_a_buffer_shorter_than_a_row() {
    scores_with_len("avx2", 5);
}

#[test]
#[should_panic(expected = "not whole rows")]
fn tile_scores_reject_a_ragged_last_row() {
    scores_with_len("dispatch", 2 * 6 + 1);
}

#[test]
#[should_panic(expected = "not whole rows")]
fn scalar_tile_weighted_sum_rejects_a_ragged_last_row() {
    weighted_sum_with_len("scalar", 6 + 5);
}

#[test]
#[should_panic(expected = "not whole rows")]
fn avx2_tile_weighted_sum_rejects_a_buffer_shorter_than_a_row() {
    weighted_sum_with_len("avx2", 5);
}

/// Whole rows pass on every tier (the helpers above are not what panics).
#[test]
fn tile_kernels_take_whole_rows() {
    for tier in ["scalar", "avx2", "dispatch"] {
        scores_with_len(tier, 12);
        weighted_sum_with_len(tier, 12);
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
            kernels::avx2::softmax_rows_into(&mut b, len);
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
        let one = Blocks::one(n);
        kernels::avx2::attn_weighted_sum_tile_into(&probs, &values, stride, &one, &mut cv, dh, dh);
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
