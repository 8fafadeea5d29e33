//! Dense math kernels used by the Transformer (single-threaded f32).
//!
//! Every forward and backward product, every activation and every
//! softmax, the training loss's included, go through [`crate::kernels`].
//! What stays here is the training path's plain scalar code (the
//! transpose, the GELU derivative), the libm [`log_softmax_rows`] the
//! tests hold the kernels to, and the fused [`log_softmax_topk`],
//! whose max and exp-sum passes dispatch to the best ISA tier the host
//! supports (AVX2 / scalar), all tiers bit-identical.

use crate::kernels;

/// Transposes `src[rows, cols]` into `dst[cols, rows]`.
pub fn transpose_into(src: &[f32], dst: &mut [f32], rows: usize, cols: usize) {
    debug_assert_eq!(src.len(), rows * cols);
    debug_assert_eq!(dst.len(), rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            dst[c * rows + r] = src[r * cols + c];
        }
    }
}

/// In-place row-wise log-softmax over an `[rows, cols]` matrix: the proper
/// `x - max - ln(Σ exp(x - max))`, replacing the numerically lossy
/// `softmax` + `ln(max(p, 1e-12))` double pass the beam search used to do.
pub fn log_softmax_rows(x: &mut [f32], rows: usize, cols: usize) {
    for r in 0..rows {
        let row = &mut x[r * cols..(r + 1) * cols];
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter() {
            sum += (v - max).exp();
        }
        let lse = max + sum.ln();
        for v in row.iter_mut() {
            *v -= lse;
        }
    }
}

/// Logits the top-k scan tests at once against the k-th best: a chunk
/// none of which beats it is skipped whole.
const TOPK_CHUNK: usize = 8;

/// Fused log-softmax + top-k selection over one logits row, without
/// sorting (or even normalizing) the full vocabulary. Three passes: the
/// max, `Σ exp(x - max)`, and one that keeps the k best raw logits by
/// insertion (k is the beam width, ≤ 8 in practice, so the `O(cols · k)`
/// worst case beats `O(cols · log cols)` sorting by a wide margin). Once
/// `k` logits are held, the scan tests `TOPK_CHUNK` logits at a time
/// against the k-th best and skips a chunk none of which beats it.
///
/// Leaves `(token, log_prob)` pairs in `best` (cleared first; it grows to
/// `k` slots once and is then reused without allocating) in
/// descending log-prob order; ties resolve to the lower index, matching
/// what a stable descending sort of the full vocabulary would select.
pub fn log_softmax_topk_into(row: &[f32], k: usize, best: &mut Vec<(usize, f32)>) {
    slade_obs::obs().count(slade_obs::KernelCtr::TopkCalls, 1);
    let k = k.max(1).min(row.len());
    // The max and exp-sum passes dispatch to the SIMD tier (the exp-sum
    // uses the kernel layer's lane-split accumulation and shared
    // polynomial exp, so its value does not depend on dispatch); only
    // the insertion pass below stays scalar, because its order is the
    // tie-breaking contract.
    let max = kernels::row_max(row);
    let sum = kernels::sum_exp(row, max);
    // `best` is kept sorted descending by logit; ties keep earlier indices
    // first because later candidates only displace strictly smaller ones.
    // The first `k` logits all enter; after that a logit enters only if it
    // beats the k-th best (never a NaN, and nothing once a NaN is k-th),
    // which is also what lets a chunk be skipped whole.
    best.clear();
    best.reserve(k);
    for (i, &v) in row[..k].iter().enumerate() {
        let pos = best.partition_point(|&(_, bv)| bv >= v);
        best.insert(pos, (i, v));
    }
    let chunks = row[k..].chunks_exact(TOPK_CHUNK);
    let tail = k + chunks.len() * TOPK_CHUNK;
    for (c, chunk) in chunks.enumerate() {
        // A branch-free fold over a fixed-size chunk, so the test
        // vectorizes.
        let kth = best[k - 1].1;
        if chunk.iter().fold(false, |any, &v| any | (v > kth)) {
            let base = k + c * TOPK_CHUNK;
            chunk.iter().enumerate().for_each(|(j, &v)| topk_offer(best, base + j, v));
        }
    }
    row[tail..].iter().enumerate().for_each(|(j, &v)| topk_offer(best, tail + j, v));
    let lse = max + sum.ln();
    for b in best.iter_mut() {
        b.1 -= lse;
    }
}

/// Offers logit `v` of index `i` to `best`, full and sorted descending:
/// if it beats the last, it is shifted in where it ranks and the last
/// drops out.
fn topk_offer(best: &mut [(usize, f32)], i: usize, v: f32) {
    let k = best.len();
    if v > best[k - 1].1 {
        // At most `k - 1`: the last fails `bv >= v`.
        let pos = best.partition_point(|&(_, bv)| bv >= v);
        best.copy_within(pos..k - 1, pos + 1);
        best[pos] = (i, v);
    }
}

/// Allocating wrapper over [`log_softmax_topk_into`]: the same pairs in
/// the same order, in a fresh `Vec`.
pub fn log_softmax_topk(row: &[f32], k: usize) -> Vec<(usize, f32)> {
    let mut best = Vec::new();
    log_softmax_topk_into(row, k, &mut best);
    best
}

/// Derivative of the GELU activation [`kernels::gelu_into`] applies
/// (tanh approximation, as BART uses).
pub fn gelu_grad(x: f32) -> f32 {
    let c = 0.797_884_6f32;
    let u = c * (x + 0.044715 * x * x * x);
    let t = u.tanh();
    let du = c * (1.0 + 3.0 * 0.044715 * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn transb_matches_manual() {
        // a [1,3] @ b [2,3]^T = [1,2], through the scalar kernel spec.
        let a = vec![1.0, 2.0, 3.0];
        let b = vec![1.0, 0.0, 1.0, 0.5, 0.5, 0.5];
        let mut c = vec![f32::NAN; 2];
        kernels::scalar::matmul_transb_into(&a, &b, &mut c, 1, 3, 2);
        assert_eq!(c, vec![4.0, 3.0]);
    }

    #[test]
    fn softmax_rows_normalize() {
        let mut x = vec![0.0, 0.0, 1000.0, 1000.0];
        kernels::softmax_rows_into(&mut x, 2);
        assert!((x[0] - 0.5).abs() < 1e-6);
        assert!((x[2] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn log_softmax_matches_softmax_ln() {
        let logits = vec![0.5f32, -2.0, 3.25, 0.0, 1.0, -0.125];
        let mut a = logits.clone();
        log_softmax_rows(&mut a, 1, 6);
        let mut b = logits.clone();
        kernels::softmax_rows_into(&mut b, 6);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y.ln()).abs() < 1e-5, "{x} vs {}", y.ln());
        }
        let total: f32 = a.iter().map(|v| v.exp()).sum();
        assert!((total - 1.0).abs() < 1e-5, "{total}");
    }

    #[test]
    fn topk_matches_full_sort_with_stable_ties() {
        let row = vec![1.0f32, 3.0, 3.0, -1.0, 2.0, 3.0, 0.0];
        let got = log_softmax_topk(&row, 4);
        // Full-sort reference with stable tie-breaking on index.
        let mut full = row.clone();
        log_softmax_rows(&mut full, 1, row.len());
        let mut idx: Vec<usize> = (0..row.len()).collect();
        idx.sort_by(|&a, &b| full[b].total_cmp(&full[a]));
        for (rank, &(i, lp)) in got.iter().enumerate() {
            assert_eq!(i, idx[rank], "rank {rank}");
            assert!((lp - full[i]).abs() < 1e-6);
        }
        // Ties 3.0@1, 3.0@2, 3.0@5 must come out in index order.
        assert_eq!(got[0].0, 1);
        assert_eq!(got[1].0, 2);
        assert_eq!(got[2].0, 5);
    }

    #[test]
    fn topk_handles_k_larger_than_row() {
        let row = vec![0.5f32, -0.5];
        let got = log_softmax_topk(&row, 10);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, 0);
    }

    /// The top-k scan before chunk skipping, kept as the oracle: one
    /// insertion test per logit, `Vec::insert` + `pop`.
    fn topk_oracle(row: &[f32], k: usize) -> Vec<(usize, f32)> {
        let k = k.max(1).min(row.len());
        let max = kernels::row_max(row);
        let sum = kernels::sum_exp(row, max);
        let mut best: Vec<(usize, f32)> = Vec::new();
        for (i, &v) in row.iter().enumerate() {
            if best.len() < k || v > best[best.len() - 1].1 {
                let pos = best.partition_point(|&(_, bv)| bv >= v);
                best.insert(pos, (i, v));
                if best.len() > k {
                    best.pop();
                }
            }
        }
        let lse = max + sum.ln();
        best.iter().map(|&(i, v)| (i, v - lse)).collect()
    }

    /// Logits with ties, NaN and ±inf mixed into ordinary values.
    fn logits() -> impl Strategy<Value = Vec<f32>> {
        let special = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0, 1.0, 2.5];
        let value = prop_oneof![
            6 => -8.0f32..8.0,
            3 => prop::sample::select(special[3..].to_vec()),
            1 => prop::sample::select(special.to_vec()),
        ];
        prop::collection::vec(value, 1..300)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn topk_matches_the_insertion_oracle(
            row in logits(),
            k in prop::sample::select(vec![1usize, 2, 3, 5, 8, 9, 706]),
        ) {
            let bits = |pairs: Vec<(usize, f32)>| -> Vec<(usize, u32)> {
                pairs.into_iter().map(|(i, lp)| (i, lp.to_bits())).collect()
            };
            prop_assert_eq!(bits(log_softmax_topk(&row, k)), bits(topk_oracle(&row, k)));
        }
    }

    #[test]
    fn gelu_gradient_matches_finite_difference() {
        for &x in &[-2.0f32, -0.5, 0.0, 0.7, 3.0] {
            let eps = 1e-3;
            let gelu = kernels::gelu_lane;
            let num = (gelu(x + eps) - gelu(x - eps)) / (2.0 * eps);
            assert!((num - gelu_grad(x)).abs() < 1e-2, "x={x}: {num} vs {}", gelu_grad(x));
        }
    }
}
