//! Dense math kernels used by the Transformer (single-threaded f32).
//!
//! The hot kernels (`matmul_transb_into` and the max and exp-sum passes
//! of [`log_softmax_topk`]) dispatch through [`crate::kernels`] to the
//! best ISA tier the host supports (AVX2 / scalar), all tiers
//! bit-identical. The training-only kernels below stay plain scalar code.

use crate::kernels;

/// Writes `c[m,n] = a[m,k] @ b[k,n]` into a caller-provided buffer
/// (accumulating into `c`'s zeroed contents; skips zero `a` entries,
/// which dropout-masked activations make common).
pub fn matmul_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    c.fill(0.0);
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let crow = &mut c[i * n..(i + 1) * n];
        for (p, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            for (cv, &bv) in crow.iter_mut().zip(brow) {
                *cv += av * bv;
            }
        }
    }
}

/// Writes `c[m,n] = a[k,m]ᵀ @ b[k,n]` — the weight-gradient shape —
/// into a caller-provided buffer (zeroed first; skips zero `a` entries).
pub fn matmul_transa_into(a: &[f32], b: &[f32], c: &mut [f32], k: usize, m: usize, n: usize) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    c.fill(0.0);
    for p in 0..k {
        let arow = &a[p * m..(p + 1) * m];
        let brow = &b[p * n..(p + 1) * n];
        for (i, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let crow = &mut c[i * n..(i + 1) * n];
            for (cv, &bv) in crow.iter_mut().zip(brow) {
                *cv += av * bv;
            }
        }
    }
}

/// In-place row-wise softmax over an `[rows, cols]` matrix.
///
/// Uses libm `exp` — this is the training/logits softmax. Inference
/// attention goes through [`crate::kernels::softmax_into`] instead,
/// which uses the shared polynomial `exp` so all ISA tiers agree
/// bit-for-bit.
pub fn softmax_rows(x: &mut [f32], rows: usize, cols: usize) {
    for r in 0..rows {
        let row = &mut x[r * cols..(r + 1) * cols];
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        let inv = 1.0 / sum.max(1e-12);
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
}

/// Writes `c[m,n] = a[m,k] @ b[n,k]ᵀ` into a caller-provided buffer —
/// the projection of training and of the reference forward.
///
/// Dispatches through [`crate::kernels`] to the active ISA tier. Every
/// tier implements the same lane-split accumulation semantics (8 lanes
/// by reduction index mod 8, fixed tree reduce — see the module docs of
/// [`crate::kernels`]), so results are bit-identical regardless of tier
/// and of which rows share a batch.
pub fn matmul_transb_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    kernels::matmul_transb_into(a, b, c, m, k, n);
}

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

/// Fused log-softmax + top-k selection over one logits row, without
/// sorting (or even normalizing) the full vocabulary. Two passes: one for
/// the max, one that accumulates `Σ exp(x - max)` while maintaining the k
/// best raw logits by linear insertion (k is the beam width, ≤ 8 in
/// practice, so the `O(cols · k)` worst case beats `O(cols · log cols)`
/// sorting by a wide margin).
///
/// Leaves `(token, log_prob)` pairs in `best` (cleared first; it grows to
/// `k + 1` slots once and is then reused without allocating) in
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
    best.clear();
    best.reserve(k + 1);
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
    for b in best.iter_mut() {
        b.1 -= lse;
    }
}

/// Allocating wrapper over [`log_softmax_topk_into`]: the same pairs in
/// the same order, in a fresh `Vec`.
pub fn log_softmax_topk(row: &[f32], k: usize) -> Vec<(usize, f32)> {
    let mut best = Vec::new();
    log_softmax_topk_into(row, k, &mut best);
    best
}

/// GELU activation (tanh approximation, as BART uses). Delegates to the
/// kernel layer's shared polynomial evaluation so the training path and
/// the dispatched SIMD decode path ([`kernels::gelu_into`]) compute the
/// same function bit-for-bit; `tanh` via libm would differ from the
/// vector tiers by a ulp.
pub fn gelu(x: f32) -> f32 {
    kernels::gelu_lane(x)
}

/// Derivative of [`gelu`].
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

    #[test]
    fn matmul_small_identity() {
        let a = vec![1.0, 2.0, 3.0, 4.0]; // [2,2]
        let i = vec![1.0, 0.0, 0.0, 1.0];
        let mut c = vec![f32::NAN; 4];
        matmul_into(&a, &i, &mut c, 2, 2, 2);
        assert_eq!(c, a);
    }

    #[test]
    fn transb_matches_manual() {
        // a [1,3] @ b [2,3]^T = [1,2]
        let a = vec![1.0, 2.0, 3.0];
        let b = vec![1.0, 0.0, 1.0, 0.5, 0.5, 0.5];
        let mut c = vec![f32::NAN; 2];
        matmul_transb_into(&a, &b, &mut c, 1, 3, 2);
        assert_eq!(c, vec![4.0, 3.0]);
    }

    #[test]
    fn transa_matches_manual() {
        // a [2,1]^T @ b [2,2] = [1,2]
        let a = vec![1.0, 2.0];
        let b = vec![3.0, 4.0, 5.0, 6.0];
        let mut c = vec![f32::NAN; 2];
        matmul_transa_into(&a, &b, &mut c, 2, 1, 2);
        assert_eq!(c, vec![13.0, 16.0]);
    }

    #[test]
    fn softmax_rows_normalize() {
        let mut x = vec![0.0, 0.0, 1000.0, 1000.0];
        softmax_rows(&mut x, 2, 2);
        assert!((x[0] - 0.5).abs() < 1e-6);
        assert!((x[2] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn log_softmax_matches_softmax_ln() {
        let logits = vec![0.5f32, -2.0, 3.25, 0.0, 1.0, -0.125];
        let mut a = logits.clone();
        log_softmax_rows(&mut a, 1, 6);
        let mut b = logits.clone();
        softmax_rows(&mut b, 1, 6);
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

    #[test]
    fn gelu_gradient_matches_finite_difference() {
        for &x in &[-2.0f32, -0.5, 0.0, 0.7, 3.0] {
            let eps = 1e-3;
            let num = (gelu(x + eps) - gelu(x - eps)) / (2.0 * eps);
            assert!((num - gelu_grad(x)).abs() < 1e-2, "x={x}: {num} vs {}", gelu_grad(x));
        }
    }
}
