//! Runtime-dispatched SIMD kernel layer.
//!
//! Every hot kernel in this crate (`matmul_xpacked_into`, the
//! projection of every forward, training's included; `gelu_into`; the
//! fused log-softmax+top-k max and exp-sum passes; the attention core of
//! every forward, training's included — `attn_scores_packed_tile_into`
//! over packed keys, `softmax_rows_into` and `attn_weighted_sum_tile_into`,
//! the tile forms walking [`Blocks`]; and `layer_norm_into`) routes
//! through this module. An ISA tier is selected once at startup — AVX2
//! on x86-64 hosts that have it, scalar otherwise (every other
//! architecture: the scalar bodies are 8-lane loops the compiler
//! vectorizes at the target's baseline) — and can be
//! overridden with the `SLADE_KERNEL_ISA` environment variable (`auto` |
//! `scalar` | `avx2`; `avx2` on a host without it degrades to scalar
//! with a one-line warning, and an unrecognized value warns and uses the
//! detected tier) or in-process via [`set_tier`] (used by tests to
//! compare tiers). [`tier_status`] reports the effective tier and a
//! request that was not honoured, for stats and metrics.
//!
//! Each kernel has two sources: the [`scalar`] body, which is the
//! specification `kernel_equiv` compares against, and one [`avx2`] body.
//! A tier for another ISA comes with a CI job that executes it, or not
//! at all.
//!
//! # Bit-identity contract
//!
//! All tiers of a kernel produce **bit-identical** output. This is
//! load-bearing: the engine's `decode_reference ≡ decode_batch`
//! equivalence and the serving runtime's `runtime ≡ sequential`
//! property both assume logits do not depend on which code path (or
//! batch composition) produced them. The shared accumulation semantics, per output element:
//!
//! - the reduction index `p` is split into 8 lanes by `p mod 8`;
//! - each lane accumulates its products in ascending `p` order
//!   (`lane += a*b`, a rounded multiply followed by a rounded add — no
//!   FMA anywhere, so scalar and vector rounding agree);
//! - a `k % 8` tail touches **only** lanes `0..k % 8` (never adding a
//!   `+0.0` to an untouched lane, which would flip a `-0.0` partial);
//! - lanes reduce through the fixed binary tree
//!   `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))`, the order an AVX2
//!   128-bit-split horizontal add performs.
//!
//! Every forward — training, the reference decode and the batched
//! inference path — projects through one matmul layout, `xpacked` (B
//! transposed and packed into 8-column slabs by [`pack_xposed_blocks`]),
//! so the training forward and the decoder it is the oracle for share
//! one kernel. The scalar `transb` body (B rows contiguous over `k`, the
//! weights as stored) remains only as the specification: the tests hold
//! every tier's `xpacked` to it under `to_bits`. Attention is the same:
//! the row-major `scalar::attn_scores_into`, `softmax_into` and
//! `attn_weighted_sum_into` are the specification the tile kernels are
//! held to, and `attn_scores_into` has no vector body.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Instruction-set tier a kernel call executes under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum IsaTier {
    /// Portable scalar reference kernels (auto-vectorized at the
    /// target's baseline, e.g. SSE2 on x86-64).
    Scalar = 0,
    /// Explicit 256-bit AVX2 intrinsics (x86-64).
    Avx2 = 1,
}

impl IsaTier {
    /// Stable lowercase name for metrics and bench artifacts.
    pub fn name(self) -> &'static str {
        match self {
            IsaTier::Scalar => "scalar",
            IsaTier::Avx2 => "avx2",
        }
    }

    fn from_u8(v: u8) -> IsaTier {
        match v {
            1 => IsaTier::Avx2,
            _ => IsaTier::Scalar,
        }
    }
}

/// Sentinel meaning "tier not yet resolved".
const TIER_UNSET: u8 = u8::MAX;

/// Resolved tier; initialized lazily on first kernel call.
static ACTIVE: AtomicU8 = AtomicU8::new(TIER_UNSET);

/// The best tier `supported` admits.
fn best_tier(supported: impl Fn(IsaTier) -> bool) -> IsaTier {
    if supported(IsaTier::Avx2) {
        IsaTier::Avx2
    } else {
        IsaTier::Scalar
    }
}

/// Whether this host can actually execute `tier`, by `std::arch` feature
/// detection. Public so tests can gate tier-vs-tier comparisons on what
/// the host offers.
pub fn tier_supported(tier: IsaTier) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        match tier {
            IsaTier::Scalar => true,
            IsaTier::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        tier == IsaTier::Scalar
    }
}

/// What [`tier_status`] appends when startup resolution could not honour
/// the `SLADE_KERNEL_ISA` request: `requested avx2: unsupported`.
static REQUEST_NOTE: OnceLock<String> = OnceLock::new();

const VALID_TIERS: &str = "auto, scalar, avx2";

/// Resolve the startup tier from `SLADE_KERNEL_ISA` and feature
/// detection (see [`tier_for_request`]). A request that is not honoured
/// prints a one-line warning naming the valid tiers instead of falling
/// back silently.
fn resolve_tier() -> IsaTier {
    let raw = std::env::var("SLADE_KERNEL_ISA").unwrap_or_default();
    let (tier, note) = tier_for_request(&raw, tier_supported);
    if let Some(note) = note {
        eprintln!(
            "slade: SLADE_KERNEL_ISA {note} (valid tiers: {VALID_TIERS}); using {}",
            tier.name()
        );
        let _ = REQUEST_NOTE.set(note);
    }
    tier
}

/// The tier a `SLADE_KERNEL_ISA` value selects on a host that executes
/// the tiers `supported` accepts, and the note for a request it could
/// not honour. Empty or `auto` takes the best supported tier; a known
/// tier the host lacks degrades to scalar (`requested avx2:
/// unsupported`); any other value takes the best supported tier
/// (`requested vnni: unknown`).
fn tier_for_request(
    raw: &str,
    supported: impl Fn(IsaTier) -> bool,
) -> (IsaTier, Option<String>) {
    let req = raw.trim().to_ascii_lowercase();
    let want = match req.as_str() {
        "" | "auto" => return (best_tier(supported), None),
        "scalar" => IsaTier::Scalar,
        "avx2" => IsaTier::Avx2,
        _ => return (best_tier(supported), Some(format!("requested {req}: unknown"))),
    };
    if supported(want) {
        (want, None)
    } else {
        (IsaTier::Scalar, Some(format!("requested {req}: unsupported")))
    }
}

/// Human-readable effective-vs-requested tier, e.g. `avx2`,
/// `scalar (requested avx2: unsupported)`, or
/// `avx2 (requested vnni: unknown)`. The note is the startup request's
/// ([`set_tier`] does not alter it); the tier is what dispatch uses now.
pub fn tier_status() -> String {
    let effective = active_tier().name();
    match REQUEST_NOTE.get() {
        Some(note) => format!("{effective} ({note})"),
        None => effective.to_string(),
    }
}

/// The tier kernel dispatch currently uses (resolving it on first call).
pub fn active_tier() -> IsaTier {
    let v = ACTIVE.load(Ordering::Relaxed);
    if v != TIER_UNSET {
        return IsaTier::from_u8(v);
    }
    let tier = resolve_tier();
    ACTIVE.store(tier as u8, Ordering::Relaxed);
    tier
}

/// Force a dispatch tier in-process (tests comparing tiers).
/// Requests the host cannot execute clamp to scalar; returns the tier
/// actually installed.
pub fn set_tier(tier: IsaTier) -> IsaTier {
    let t = if tier_supported(tier) { tier } else { IsaTier::Scalar };
    ACTIVE.store(t as u8, Ordering::Relaxed);
    t
}

/// Lane count of the shared accumulation semantics (see module docs).
pub const LANES: usize = 8;

/// Query rows [`attn_scores_packed_tile_into`] holds in registers at once
/// on AVX2, and the tile the encoder cuts its queries into. A fifth row
/// gains 2–7 % on a beam that shares its keys and loses 3–8 % on one that
/// does not, so a beam of five scores as `4 + 1`. A caller may pass a tile
/// kernel any number of rows — it cuts them into register tiles itself —
/// and sizes its score scratch by the rows it passes.
pub const ATTN_TILE: usize = 4;

/// Where the rows of a query tile find their `n` keys (or values): in
/// blocks of `block` consecutive positions, row `r`'s block `i` starting
/// `tables[r * tstride + i] * bstride` floats into the buffer the kernel
/// is handed. `tstride = 0` gives every row the same table. Rows that name
/// the same block read it once per register tile; rows that differ read
/// their own — per row the arithmetic is the same either way.
#[derive(Debug, Clone, Copy)]
pub struct Blocks<'a> {
    /// Block ids, one per `block` positions, per row.
    pub tables: &'a [u32],
    /// Table entries from one row's table to the next row's.
    pub tstride: usize,
    /// Positions per block: a multiple of [`LANES`], or at least `n` (one
    /// block holds everything).
    pub block: usize,
    /// Floats from one block id to the next.
    pub bstride: usize,
    /// Keys per row.
    pub n: usize,
}

impl Blocks<'static> {
    /// `n` contiguous keys: one block, every row reading it.
    pub fn one(n: usize) -> Self {
        Blocks { tables: &[0], tstride: 0, block: n.max(1), bstride: 0, n }
    }
}

impl Blocks<'_> {
    /// Where block `i` of row `r` starts.
    #[inline]
    fn start(&self, r: usize, i: usize) -> usize {
        self.tables[r * self.tstride + i] as usize * self.bstride
    }

    /// `(first position, positions)` of every block of a row, in order.
    #[inline]
    fn spans(&self) -> impl Iterator<Item = (usize, usize)> {
        let (n, block) = (self.n, self.block);
        (0..n).step_by(block).map(move |at| (at, block.min(n - at)))
    }

    /// The whole rows of `n` scores a buffer of `len` floats holds; no
    /// row has anything in it when `n = 0`.
    ///
    /// # Panics
    ///
    /// Panics when `len` is not a whole number of rows — a mis-sized
    /// score buffer — or the blocks cannot hold packed key groups.
    fn rows(&self, len: usize) -> usize {
        if self.n == 0 {
            return 0;
        }
        assert!(whole_rows(len, self.n), "{len} scores are not whole rows of {}", self.n);
        assert!(
            self.block.is_multiple_of(LANES) || self.n <= self.block,
            "blocks of {} positions split a key group",
            self.block
        );
        len / self.n
    }
}

/// Whether `len` scores are whole rows of `n`.
fn whole_rows(len: usize, n: usize) -> bool {
    if n == 0 {
        len == 0
    } else {
        len.is_multiple_of(n)
    }
}

/// Fixed binary-tree reduction of the 8 lane partials — the order an
/// AVX2 split-and-add horizontal reduce performs.
#[inline(always)]
fn reduce8(l: &[f32; 8]) -> f32 {
    ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]))
}

/// Pairwise max with VMAXPS semantics: `if a > b { a } else { b }`
/// (ties and NaN resolve to `b`), so scalar and vector max passes agree
/// bit-for-bit.
#[inline(always)]
fn vmax(a: f32, b: f32) -> f32 {
    if a > b {
        a
    } else {
        b
    }
}

/// [`vmax`] over the 8 lane partials, in [`reduce8`]'s tree order.
#[inline(always)]
fn vmax8(l: &[f32; 8]) -> f32 {
    vmax(vmax(vmax(l[0], l[4]), vmax(l[2], l[6])), vmax(vmax(l[1], l[5]), vmax(l[3], l[7])))
}

/// Elementwise `e^x` shared by every tier of the `sum_exp` kernel, for
/// finite `x ≤ 0` (softmax operands are `v - max`). The operation
/// sequence — `exp2`-style range reduction with round-to-nearest-even, a
/// degree-6 Horner for `e^r` on `r ∈ [-ln2/2, ln2/2]`, and an
/// exponent-field scale — is mirrored instruction-for-instruction by the
/// AVX2 lane implementation, so tiers agree bit-for-bit (every step is an
/// exactly-rounded IEEE op; no FMA, no libm). Inputs below the normal
/// range flush to zero, and so does NaN. Relative error ≤ ~4e-8, within
/// a ulp of libm.
#[inline(always)]
fn exp_lane(x: f32) -> f32 {
    const LOG2E: f32 = std::f32::consts::LOG2_E;
    const LN2: f32 = std::f32::consts::LN_2;
    let y = x * LOG2E;
    let n = y.round_ties_even();
    let r = (y - n) * LN2;
    let mut p = 1.0 / 720.0;
    p = p * r + 1.0 / 120.0;
    p = p * r + 1.0 / 24.0;
    p = p * r + 1.0 / 6.0;
    p = p * r + 0.5;
    p = p * r + 1.0;
    p = p * r + 1.0;
    // The complement of the vector tier's keep-mask (`x >= -87`, false for
    // NaN), so the `-inf - -inf` of a fully masked row flushes to zero on
    // every tier.
    if x < -87.0 || x.is_nan() {
        return 0.0;
    }
    // n ∈ [-126, 0] for the `x ≤ 0` this is for, so the biased exponent
    // stays normal. A larger `x` (a `v - max` whose VMAXPS max passed
    // over a NaN) wraps, as the vector tier's integer add does.
    let scale = f32::from_bits(((n as i32).wrapping_add(127) as u32) << 23);
    p * scale
}

/// Elementwise GELU (tanh approximation, as BART uses) shared by every
/// tier. `tanh(u)` is evaluated as `sign(u) · (1 - e) / (1 + e)` with
/// `e = exp(-2|u|)` through [`exp_lane`], so — like `exp_lane` — the
/// AVX2 lane implementation mirrors the operation sequence exactly and
/// tiers agree bit-for-bit.
#[inline(always)]
pub(crate) fn gelu_lane(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    const A: f32 = 0.044715;
    let u = C * (x + A * x * x * x);
    let au = f32::from_bits(u.to_bits() & 0x7fff_ffff);
    let e = exp_lane(-(au + au));
    let t = (1.0 - e) / (1.0 + e);
    let t = f32::from_bits(t.to_bits() | (u.to_bits() & 0x8000_0000));
    0.5 * x * (1.0 + t)
}

/// Canonical scalar reference kernels. Every other tier must reproduce
/// these bit-for-bit. Written so LLVM can auto-vectorize the lane loops
/// at the target baseline.
pub mod scalar {
    use super::{reduce8, vmax, vmax8};

    /// Lane-split dot product of two equal-length contiguous slices.
    #[inline]
    pub(crate) fn dot8(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let mut lanes = [0.0f32; 8];
        let chunks = a.len() / 8;
        for (av, bv) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
            for ((l, &x), &y) in lanes.iter_mut().zip(av).zip(bv) {
                *l += x * y;
            }
        }
        let base = chunks * 8;
        for ((l, &x), &y) in lanes.iter_mut().zip(&a[base..]).zip(&b[base..]) {
            *l += x * y;
        }
        reduce8(&lanes)
    }

    /// `C = A * B^T` into `c` — the matmul specification: `a` is
    /// `m x k`, `b` is `n x k` (rows contiguous over `k`, the `[dout,
    /// din]` weights as stored), `c` is `m x n`. No forward calls it;
    /// the tests hold every tier's [`super::matmul_xpacked_into`] to it.
    pub fn matmul_transb_into(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        for i in 0..m {
            let ar = &a[i * k..(i + 1) * k];
            let crow = &mut c[i * n..(i + 1) * n];
            for (j, cv) in crow.iter_mut().enumerate() {
                *cv = dot8(ar, &b[j * k..(j + 1) * k]);
            }
        }
    }

    /// `C = A * B` with `bp` = B packed by [`super::pack_xposed_blocks`]
    /// — scalar tier. Identical per-element accumulation to
    /// [`matmul_transb_into`]; only the addresses the reduction walks
    /// differ (an 8-lane x 8-column tile per sequential slab, so the
    /// column loop auto-vectorizes).
    pub fn matmul_xpacked_into(
        a: &[f32],
        bp: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        let nblocks = n / 8;
        let tail_base = nblocks * k * 8;
        for i in 0..m {
            let ar = &a[i * k..(i + 1) * k];
            let crow = &mut c[i * n..(i + 1) * n];
            for jb in 0..nblocks {
                let slab = &bp[jb * k * 8..(jb + 1) * k * 8];
                let mut acc = [[0.0f32; 8]; 8];
                for (p, &av) in ar.iter().enumerate() {
                    let brow = &slab[p * 8..(p + 1) * 8];
                    for (q, &bv) in acc[p & 7].iter_mut().zip(brow) {
                        *q += av * bv;
                    }
                }
                for (col, cv) in crow[jb * 8..(jb + 1) * 8].iter_mut().enumerate() {
                    let lanes = [
                        acc[0][col],
                        acc[1][col],
                        acc[2][col],
                        acc[3][col],
                        acc[4][col],
                        acc[5][col],
                        acc[6][col],
                        acc[7][col],
                    ];
                    *cv = reduce8(&lanes);
                }
            }
            for (jt, cv) in crow.iter_mut().skip(nblocks * 8).enumerate() {
                // Tail columns are stored contiguously, so the plain
                // lane-split dot applies.
                *cv = dot8(ar, &bp[tail_base + jt * k..tail_base + (jt + 1) * k]);
            }
        }
    }

    /// Lane-split `Σ exp(v - max)` (the log-softmax normalizer) — scalar
    /// tier. Uses the shared polynomial `super::exp_lane` on every
    /// tier, so the sum is bit-identical regardless of dispatch.
    pub fn sum_exp(row: &[f32], max: f32) -> f32 {
        let mut lanes = [0.0f32; 8];
        for (p, &v) in row.iter().enumerate() {
            lanes[p & 7] += super::exp_lane(v - max);
        }
        reduce8(&lanes)
    }

    /// Elementwise GELU over a buffer — scalar tier. Purely elementwise
    /// (no reduction), so no lane split is needed for cross-tier
    /// bit-identity: each output depends only on its own input through
    /// the shared `super::gelu_lane` operation sequence.
    pub fn gelu_into(buf: &mut [f32]) {
        for v in buf {
            *v = super::gelu_lane(*v);
        }
    }

    /// Row max with VMAXPS-compatible lane semantics — scalar tier.
    pub fn row_max(row: &[f32]) -> f32 {
        let mut lanes = [f32::NEG_INFINITY; 8];
        for (p, &v) in row.iter().enumerate() {
            let l = p & 7;
            lanes[l] = vmax(lanes[l], v);
        }
        vmax8(&lanes)
    }

    /// QK^T score row — scalar tier: `scores[si] = dot8(q, key_si) *
    /// scale` where key row `si` starts at `keys[si * stride]` and runs
    /// `q.len()` elements. The dot is the shared lane-split-by-8
    /// reduction; the scale multiply is a single rounded op applied
    /// after the tree reduce on every tier.
    pub fn attn_scores_into(
        q: &[f32],
        keys: &[f32],
        stride: usize,
        scale: f32,
        scores: &mut [f32],
    ) {
        let dh = q.len();
        for (si, sv) in scores.iter_mut().enumerate() {
            *sv = dot8(q, &keys[si * stride..si * stride + dh]) * scale;
        }
    }

    /// QK^T scores of a tile of queries against keys packed by
    /// [`super::pack_keys`] — scalar tier: `scores[r * n + si] =
    /// dot8(q_r, key_si) * scale`, where query `r` is
    /// `q[r * qstride..][..dh]`, `scores` holds `scores.len() / n` whole
    /// rows and key `si` of row `r` is key `si % block` of the packed
    /// block [`super::Blocks`] names. A group's eight keys sit side by
    /// side, so lane accumulator `l` is a vertical `acc[l] += q[j] *
    /// K[j]` over `j = l, l + 8, …` (ascending, from `+0.0`) for all
    /// eight keys at once, `reduce8`'s tree is seven vertical adds, and
    /// the scale multiply follows: per score the rounded operations of
    /// [`attn_scores_into`], in its order. The loops run over `[f32; 8]`
    /// so LLVM vectorizes them at any target's baseline.
    pub fn attn_scores_packed_tile_into(
        q: &[f32],
        qstride: usize,
        dh: usize,
        kp: &[f32],
        blocks: &super::Blocks,
        scale: f32,
        scores: &mut [f32],
    ) {
        if blocks.rows(scores.len()) == 0 {
            return;
        }
        assert!(dh > 0, "a key has elements");
        for (r, srow) in scores.chunks_exact_mut(blocks.n).enumerate() {
            let qrow = &q[r * qstride..r * qstride + dh];
            for (i, sblock) in srow.chunks_mut(blocks.block).enumerate() {
                let kb = &kp[blocks.start(r, i)..][..super::packed_keys_len(sblock.len(), dh)];
                for (group, out) in kb.chunks_exact(dh * 8).zip(sblock.chunks_mut(8)) {
                    let mut acc = [[0.0f32; 8]; 8];
                    for (j, (&qv, kv)) in qrow.iter().zip(group.chunks_exact(8)).enumerate() {
                        for (a, &k) in acc[j & 7].iter_mut().zip(kv) {
                            *a += qv * k;
                        }
                    }
                    let mut dots = [0.0f32; 8];
                    for (key, dot) in dots.iter_mut().enumerate() {
                        *dot = reduce8(&std::array::from_fn(|l| acc[l][key])) * scale;
                    }
                    // The lanes of a block's last group past its keys
                    // score nothing.
                    out.copy_from_slice(&dots[..out.len()]);
                }
            }
        }
    }

    /// In-place softmax over one row — scalar tier: VMAXPS-semantics
    /// max, the shared polynomial `super::exp_lane` per element, a
    /// lane-split-by-8 sum, and a `1 / sum.max(1e-12)` normalize.
    /// `-inf` entries (masked attention slots) exp to exactly `+0.0`.
    pub fn softmax_into(row: &mut [f32]) {
        let max = row_max(row);
        let mut lanes = [0.0f32; 8];
        for (p, v) in row.iter_mut().enumerate() {
            let e = super::exp_lane(*v - max);
            *v = e;
            lanes[p & 7] += e;
        }
        let sum = reduce8(&lanes);
        let inv = 1.0 / sum.max(1e-12);
        for v in row.iter_mut() {
            *v *= inv;
        }
    }

    /// Softmax-weighted V accumulation — scalar tier:
    /// `ctx[j] += Σ_si probs[si] * values[si * stride + j]` with `si`
    /// ascending. Zero weights skip the whole row on every tier (a
    /// `+0.0 * v` add could flip a `-0.0` partial). Purely elementwise
    /// over `j`, so vector tiers are bit-identical by construction.
    pub fn attn_weighted_sum_into(
        probs: &[f32],
        values: &[f32],
        stride: usize,
        ctx: &mut [f32],
    ) {
        let dh = ctx.len();
        for (si, &w) in probs.iter().enumerate() {
            if w == 0.0 {
                continue;
            }
            let vrow = &values[si * stride..si * stride + dh];
            for (c, &v) in ctx.iter_mut().zip(vrow) {
                *c += w * v;
            }
        }
    }

    /// Query-tile weighted sum — scalar tier, and the definition of the
    /// tile kernel: row `r` of the tile is [`attn_weighted_sum_into`] of
    /// `probs[r * n..(r + 1) * n]` into `ctx[r * cstride..][..dh]`, one
    /// block of [`super::Blocks`] after the other — `si` ascending across
    /// them, as over contiguous rows.
    pub fn attn_weighted_sum_tile_into(
        probs: &[f32],
        values: &[f32],
        stride: usize,
        blocks: &super::Blocks,
        ctx: &mut [f32],
        cstride: usize,
        dh: usize,
    ) {
        if blocks.rows(probs.len()) == 0 {
            return;
        }
        for (r, prow) in probs.chunks_exact(blocks.n).enumerate() {
            let crow = &mut ctx[r * cstride..r * cstride + dh];
            for (i, pblock) in prow.chunks(blocks.block).enumerate() {
                attn_weighted_sum_into(pblock, &values[blocks.start(r, i)..], stride, crow);
            }
        }
    }

    /// One layer-norm row — scalar tier: lane-split-by-8 sums for mean
    /// and variance, `rstd = 1 / sqrt(var + 1e-5)` (every op
    /// exactly-rounded IEEE, so tiers agree), then the elementwise
    /// `gamma * (x - mean) * rstd + beta` in exactly that association.
    /// Returns `(mean, rstd)` for the training path's caches.
    pub fn layer_norm_row_into(
        row: &[f32],
        gamma: &[f32],
        beta: &[f32],
        out: &mut [f32],
    ) -> (f32, f32) {
        let d = row.len();
        let mut lanes = [0.0f32; 8];
        for (p, &v) in row.iter().enumerate() {
            lanes[p & 7] += v;
        }
        let mean = reduce8(&lanes) / d as f32;
        let mut vlanes = [0.0f32; 8];
        for (p, &v) in row.iter().enumerate() {
            let dv = v - mean;
            vlanes[p & 7] += dv * dv;
        }
        let var = reduce8(&vlanes) / d as f32;
        let rstd = 1.0 / (var + 1e-5).sqrt();
        for (j, (o, &v)) in out.iter_mut().zip(row).enumerate() {
            *o = gamma[j] * (v - mean) * rstd + beta[j];
        }
        (mean, rstd)
    }
}

/// AVX2 tier: 256-bit kernels bit-identical to [`scalar`]. Safe
/// wrappers assert AVX2 support before entering `target_feature` code.
#[cfg(target_arch = "x86_64")]
pub mod avx2 {
    use super::scalar::dot8;
    use super::{reduce8, vmax8, Blocks};
    use std::arch::x86_64::*;

    #[inline]
    fn assert_avx2() {
        assert!(
            std::arch::is_x86_feature_detected!("avx2"),
            "AVX2 kernels called on a host without AVX2"
        );
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    fn load8(c: &[f32; 8]) -> __m256 {
        // SAFETY: `c` is 32 readable bytes and the load is unaligned.
        unsafe { _mm256_loadu_ps(c.as_ptr()) }
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    fn store8(c: &mut [f32; 8], v: __m256) {
        // SAFETY: `c` is 32 writable bytes and the store is unaligned.
        unsafe { _mm256_storeu_ps(c.as_mut_ptr(), v) }
    }

    /// The 8 lane partials of `acc`, in lane order.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn spill(acc: __m256) -> [f32; 8] {
        let mut lanes = [0.0f32; 8];
        store8(&mut lanes, acc);
        lanes
    }

    /// Finishes a lane-split sum: the `len % 8` tail terms go to lanes
    /// `0..len % 8`, one each in order (an untouched lane is never added
    /// to), then [`reduce8`]'s tree.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn sum_lanes(acc: __m256, tail: impl Iterator<Item = f32>) -> f32 {
        let mut lanes = spill(acc);
        for (l, t) in lanes.iter_mut().zip(tail) {
            *l += t;
        }
        reduce8(&lanes)
    }

    /// All-ones for the first `8 - offset` lanes when loaded at `offset`.
    const TAIL_MASK: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

    /// The mask of a `len % 8 = tail` remainder: all-ones in lanes
    /// `0..tail`. A masked load reads `+0.0` in, and a masked store leaves
    /// alone, the lanes past it; neither touches their memory.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn tail_mask(tail: usize) -> __m256i {
        let from = &TAIL_MASK[8 - tail..][..8];
        // SAFETY: `from` is 32 readable bytes and the load is unaligned.
        unsafe { _mm256_loadu_si256(from.as_ptr() as *const __m256i) }
    }

    /// `C = A * B` with `bp` packed by [`super::pack_xposed_blocks`] —
    /// AVX2 tier (see [`super::scalar::matmul_xpacked_into`]).
    pub fn matmul_xpacked_into(
        a: &[f32],
        bp: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        assert!(a.len() >= m * k && bp.len() >= k * n && c.len() >= m * n);
        assert_avx2();
        // SAFETY: AVX2 is present and `a`, `bp`, `c` hold the `m x k`,
        // `k x n` and `m x n` elements the body indexes (both asserted).
        unsafe { xpacked_avx2(a, bp, c, m, k, n) }
    }

    /// # Safety
    ///
    /// Requires AVX2, `a.len() >= m * k`, `bp.len() >= k * n` and
    /// `c.len() >= m * n`.
    #[target_feature(enable = "avx2")]
    unsafe fn xpacked_avx2(a: &[f32], bp: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        let nblocks = n / 8;
        let (ap, out) = (a.as_ptr(), c.as_mut_ptr());
        // Block pairs outer: their two slabs (2 KiB each at `k = 64`) stay
        // L1-hot while `a` passes by three rows at a time. A 3 x 2 tile's
        // lane pair is twelve accumulators, which with the loads in flight
        // fills the sixteen registers (it measured faster than 2 x 2, 4 x 1
        // and 5 x 1). The rows and the block left over run smaller
        // instances of the same body.
        for jb in (0..nblocks).step_by(2) {
            let slab = bp.as_ptr().add(jb * k * 8);
            let blocks = (nblocks - jb).min(2);
            let mut i = 0;
            while i < m {
                let rows = (m - i).min(3);
                let (a, c) = (ap.add(i * k), out.add(i * n + jb * 8));
                match (rows, blocks) {
                    (3, 2) => xpacked_tile_avx2::<3, 2>(a, k, slab, c, n),
                    (3, _) => xpacked_tile_avx2::<3, 1>(a, k, slab, c, n),
                    (2, 2) => xpacked_tile_avx2::<2, 2>(a, k, slab, c, n),
                    (2, _) => xpacked_tile_avx2::<2, 1>(a, k, slab, c, n),
                    (_, 2) => xpacked_tile_avx2::<1, 2>(a, k, slab, c, n),
                    _ => xpacked_tile_avx2::<1, 1>(a, k, slab, c, n),
                }
                i += rows;
            }
        }
        let tail_base = nblocks * k * 8;
        for i in 0..m {
            let ar = &a[i * k..(i + 1) * k];
            for (jt, j) in (nblocks * 8..n).enumerate() {
                c[i * n + j] = dot8(ar, &bp[tail_base + jt * k..tail_base + (jt + 1) * k]);
            }
        }
    }

    /// One register tile: `R` rows of `a` against `C` consecutive 8-column
    /// slabs, each slab vector loaded once for the `R` rows and each
    /// `a[i, p]` broadcast once for the `C` slabs. Lane `l` of an output
    /// sums the products at `p ≡ l (mod 8)`, ascending from `+0.0` (a
    /// `k % 8` tail reaches lanes `0..k % 8` only), exactly as the scalar
    /// spec does. The lanes are summed a pair `(l, l + 4)` at a time, in
    /// [`reduce8`]'s tree order `l = 0, 2, 1, 3`, and each pair is folded
    /// in as it finishes, so an output holds at most four vectors.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and, for `r < R` and `s < C`: `k` readable floats at
    /// `a + r * k`, `k * 8` at `slab + s * k * 8` and 8 writable at
    /// `c + r * n + s * 8`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn xpacked_tile_avx2<const R: usize, const C: usize>(
        a: *const f32,
        k: usize,
        slab: *const f32,
        c: *mut f32,
        n: usize,
    ) {
        type Tile<const R: usize, const C: usize> = [[__m256; C]; R];
        let step = |acc: &mut Tile<R, C>, p: usize| {
            let b: [__m256; C] =
                std::array::from_fn(|s| _mm256_loadu_ps(slab.add(s * k * 8 + p * 8)));
            for (r, row) in acc.iter_mut().enumerate() {
                let av = _mm256_broadcast_ss(&*a.add(r * k + p));
                for (o, &bv) in row.iter_mut().zip(&b) {
                    *o = _mm256_add_ps(*o, _mm256_mul_ps(av, bv));
                }
            }
        };
        let fold = |x: Tile<R, C>, y: Tile<R, C>| -> Tile<R, C> {
            std::array::from_fn(|r| std::array::from_fn(|s| _mm256_add_ps(x[r][s], y[r][s])))
        };
        // Lanes `l` and `l + 4`, summed: `p = l, l + 8, …` and `l + 4,
        // l + 12, …`, the second run ending first on a ragged `k`.
        let pair = |l: usize| -> Tile<R, C> {
            let mut lo = [[_mm256_setzero_ps(); C]; R];
            let mut hi = [[_mm256_setzero_ps(); C]; R];
            let mut p = l;
            while p + 4 < k {
                step(&mut lo, p);
                step(&mut hi, p + 4);
                p += 8;
            }
            if p < k {
                step(&mut lo, p);
            }
            fold(lo, hi)
        };
        let even = fold(pair(0), pair(2));
        let sum = fold(even, fold(pair(1), pair(3)));
        for (r, row) in sum.iter().enumerate() {
            for (s, &v) in row.iter().enumerate() {
                _mm256_storeu_ps(c.add(r * n + s * 8), v);
            }
        }
    }

    /// Row max — AVX2 tier (see [`super::scalar::row_max`]).
    pub fn row_max(row: &[f32]) -> f32 {
        assert_avx2();
        // SAFETY: AVX2 is present (asserted).
        unsafe { row_max_avx2(row) }
    }

    #[target_feature(enable = "avx2")]
    fn row_max_avx2(row: &[f32]) -> f32 {
        let mut max = [0.0f32; 8];
        row_maxes_avx2::<1>(row, row.len(), &mut max);
        max[0]
    }

    /// `Σ exp(v - max)` — AVX2 tier (see [`super::scalar::sum_exp`]).
    pub fn sum_exp(row: &[f32], max: f32) -> f32 {
        assert_avx2();
        // SAFETY: AVX2 is present (asserted).
        unsafe { sum_exp_avx2(row, max) }
    }

    /// Vector mirror of [`super::exp_lane`] — the identical operation
    /// sequence per element, so each lane rounds exactly as the scalar
    /// tier does.
    #[target_feature(enable = "avx2")]
    fn exp8(x: __m256) -> __m256 {
        let y = _mm256_mul_ps(x, _mm256_set1_ps(std::f32::consts::LOG2_E));
        let n = _mm256_round_ps(y, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
        let r = _mm256_mul_ps(_mm256_sub_ps(y, n), _mm256_set1_ps(std::f32::consts::LN_2));
        let mut p = _mm256_set1_ps(1.0 / 720.0);
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(1.0 / 120.0));
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(1.0 / 24.0));
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(1.0 / 6.0));
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(0.5));
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(1.0));
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(1.0));
        let ni = _mm256_cvtps_epi32(n);
        let scale = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
            ni,
            _mm256_set1_epi32(127),
        )));
        let res = _mm256_mul_ps(p, scale);
        // Flush x < -87 to zero (same threshold as the scalar tier; the
        // kept range has a normal biased exponent, so `scale` is exact).
        let keep = _mm256_cmp_ps::<_CMP_GE_OQ>(x, _mm256_set1_ps(-87.0));
        _mm256_and_ps(res, keep)
    }

    /// `exp8(tail - max)` with `+0.0` in the lanes past `tail`: what a
    /// lane-split sum may add to every lane, since its partial sums are
    /// sums of non-negative terms from `+0.0` and so never the `-0.0`
    /// that adding `+0.0` would alter.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn exp_tail(tail: &[f32], maxv: __m256) -> __m256 {
        let mask = tail_mask(tail.len());
        // SAFETY: the mask keeps the load to `tail`'s own floats.
        let t = unsafe { _mm256_maskload_ps(tail.as_ptr(), mask) };
        _mm256_and_ps(exp8(_mm256_sub_ps(t, maxv)), _mm256_castsi256_ps(mask))
    }

    #[target_feature(enable = "avx2")]
    fn sum_exp_avx2(row: &[f32], max: f32) -> f32 {
        let (chunks, tail) = row.as_chunks::<8>();
        let maxv = _mm256_set1_ps(max);
        let mut acc = _mm256_setzero_ps();
        for c in chunks {
            acc = _mm256_add_ps(acc, exp8(_mm256_sub_ps(load8(c), maxv)));
        }
        if !tail.is_empty() {
            acc = _mm256_add_ps(acc, exp_tail(tail, maxv));
        }
        reduce8(&spill(acc))
    }

    /// Elementwise GELU over a buffer — AVX2 tier (see
    /// [`super::scalar::gelu_into`]).
    pub fn gelu_into(buf: &mut [f32]) {
        assert_avx2();
        // SAFETY: AVX2 is present (asserted).
        unsafe { gelu_avx2(buf) }
    }

    /// Vector mirror of [`super::gelu_lane`]: the same mul/add chain for
    /// the tanh argument, `exp8` for `e = exp(-2|u|)`, an exactly-rounded
    /// VDIVPS for `(1 - e) / (1 + e)`, and sign reattachment via bit ops.
    #[target_feature(enable = "avx2")]
    fn gelu8(x: __m256) -> __m256 {
        let c = _mm256_set1_ps(0.797_884_6);
        let a = _mm256_set1_ps(0.044715);
        let one = _mm256_set1_ps(1.0);
        let sign = _mm256_set1_ps(-0.0);
        let x3 = _mm256_mul_ps(_mm256_mul_ps(_mm256_mul_ps(a, x), x), x);
        let u = _mm256_mul_ps(c, _mm256_add_ps(x, x3));
        let au = _mm256_andnot_ps(sign, u);
        let e = exp8(_mm256_xor_ps(_mm256_add_ps(au, au), sign));
        let t = _mm256_div_ps(_mm256_sub_ps(one, e), _mm256_add_ps(one, e));
        let t = _mm256_or_ps(t, _mm256_and_ps(u, sign));
        _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(0.5), x), _mm256_add_ps(one, t))
    }

    #[target_feature(enable = "avx2")]
    fn gelu_avx2(buf: &mut [f32]) {
        let (chunks, tail) = buf.as_chunks_mut::<8>();
        for c in chunks {
            store8(c, gelu8(load8(c)));
        }
        for v in tail {
            *v = super::gelu_lane(*v);
        }
    }

    /// QK^T scores of a query tile against packed keys — AVX2 tier (see
    /// [`super::scalar::attn_scores_packed_tile_into`]). A key per SIMD lane
    /// makes every step of the scalar definition one vertical
    /// instruction — no shuffle, no horizontal add — and a K vector that
    /// the rows of a register tile ([`ATTN_TILE`](super::ATTN_TILE)) share
    /// is loaded once for all of them.
    pub fn attn_scores_packed_tile_into(
        q: &[f32],
        qstride: usize,
        dh: usize,
        kp: &[f32],
        blocks: &Blocks,
        scale: f32,
        scores: &mut [f32],
    ) {
        let t = blocks.rows(scores.len());
        if t == 0 {
            return;
        }
        assert!(dh > 0 && q.len() >= (t - 1) * qstride + dh);
        assert_avx2();
        // SAFETY: AVX2 is present (asserted); `scores` is `t` whole rows of
        // `blocks.n` and `blocks.block` holds whole key groups (both by
        // `rows`), the assert above bounds every `q` row the body reads, and
        // each instance's `DH` is zero or `dh`.
        unsafe {
            match dh {
                8 => scores_packed_avx2::<8>(q, qstride, dh, kp, blocks, scale, scores),
                16 => scores_packed_avx2::<16>(q, qstride, dh, kp, blocks, scale, scores),
                _ => scores_packed_avx2::<0>(q, qstride, dh, kp, blocks, scale, scores),
            }
        }
    }

    /// The score body for head width `DH` — 8 and 16, every configured
    /// model's `d_model / n_heads` — or for the `dh` read at run time when
    /// `DH = 0`. One source: a known width unrolls every loop over the
    /// head, so a lane partial is straight-line code.
    ///
    /// # Safety
    ///
    /// Requires AVX2, `DH` zero or `dh`, `blocks.n > 0`, `dh > 0`,
    /// `scores.len() = t * blocks.n`, `q.len() >= (t - 1) * qstride + dh`
    /// and a `blocks.block` that is a multiple of 8 or at least `blocks.n`.
    #[target_feature(enable = "avx2")]
    unsafe fn scores_packed_avx2<const DH: usize>(
        q: &[f32],
        qstride: usize,
        dh: usize,
        kp: &[f32],
        blocks: &Blocks,
        scale: f32,
        scores: &mut [f32],
    ) {
        let t = scores.len() / blocks.n;
        let mut r = 0usize;
        while r < t {
            let rows = (t - r).min(super::ATTN_TILE);
            let qp = q.as_ptr().add(r * qstride);
            let sp = scores.as_mut_ptr().add(r * blocks.n);
            match rows {
                1 => {
                    scores_packed_rows_avx2::<1, DH>(qp, qstride, dh, kp, blocks, r, scale, sp)
                }
                2 => {
                    scores_packed_rows_avx2::<2, DH>(qp, qstride, dh, kp, blocks, r, scale, sp)
                }
                3 => {
                    scores_packed_rows_avx2::<3, DH>(qp, qstride, dh, kp, blocks, r, scale, sp)
                }
                _ => {
                    scores_packed_rows_avx2::<4, DH>(qp, qstride, dh, kp, blocks, r, scale, sp)
                }
            }
            r += rows;
        }
    }

    /// `R` score rows, rows `row0..` of `blocks`, one block after the
    /// other. Each block is cut out of `kp` by a checked slice, so the
    /// pointers below cannot leave it whatever the table holds.
    ///
    /// # Safety
    ///
    /// As [`scores_packed_avx2`], with `q` and `scores` at row `row0`, `R`
    /// rows left from there and `DH` zero or `dh`.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn scores_packed_rows_avx2<const R: usize, const DH: usize>(
        q: *const f32,
        qstride: usize,
        dh: usize,
        kp: &[f32],
        blocks: &Blocks,
        row0: usize,
        scale: f32,
        scores: *mut f32,
    ) {
        for (i, (at, len)) in blocks.spans().enumerate() {
            let floats = super::packed_keys_len(len, dh);
            let kb: [*const f32; R] =
                std::array::from_fn(|r| kp[blocks.start(row0 + r, i)..][..floats].as_ptr());
            let out = scores.add(at);
            if kb.iter().all(|&k| k == kb[0]) {
                scores_block_avx2::<R, DH, true>(q, qstride, dh, kb, len, scale, out, blocks.n);
            } else {
                scores_block_avx2::<R, DH, false>(
                    q, qstride, dh, kb, len, scale, out, blocks.n,
                );
            }
        }
    }

    /// The `len` scores of one block for `R` rows — row `r` against the
    /// packed keys at `kb[r]`, all the same block when `SHARED` — into
    /// `scores[r * sstride..][..len]`, a key group at a time.
    ///
    /// # Safety
    ///
    /// Requires AVX2, `DH` zero or `dh` and, for `r < R`: `q[r *
    /// qstride..][..dh]`, `scores[r * sstride..][..len]` and
    /// `kb[r][..len.div_ceil(8) * dh * 8]` in bounds of their allocations.
    #[target_feature(enable = "avx2")]
    #[inline]
    #[allow(clippy::too_many_arguments)]
    unsafe fn scores_block_avx2<const R: usize, const DH: usize, const SHARED: bool>(
        q: *const f32,
        qstride: usize,
        dh: usize,
        kb: [*const f32; R],
        len: usize,
        scale: f32,
        scores: *mut f32,
        sstride: usize,
    ) {
        let dh = if DH == 0 { dh } else { DH };
        let scalev = _mm256_set1_ps(scale);
        let mut si = 0usize;
        while si < len {
            // Group `si / 8` starts `si / 8 * dh * 8` floats in.
            let kg = kb.map(|k| k.add(si * dh));
            let dots = group_dots_avx2::<R, DH, SHARED>(q, qstride, dh, kg);
            for (r, d) in dots.into_iter().enumerate() {
                let dots = _mm256_mul_ps(d, scalev);
                let out = scores.add(r * sstride + si);
                if si + 8 <= len {
                    _mm256_storeu_ps(out, dots);
                } else {
                    // The lanes of the last group past the block's keys
                    // stop here, whatever they hold.
                    _mm256_maskstore_ps(out, tail_mask(len - si), dots);
                }
            }
            si += 8;
        }
    }

    /// The unscaled dots of one key group per query, in `reduce8`'s tree.
    /// Each lane partial `acc[l] = Σ q[j] * K[j]` over `j = l, l + 8, …`
    /// (ascending from `+0.0`; a lane past `dh` stays `+0.0`, as in `dot8`)
    /// is finished, then folded as soon as its partner exists — `a0 + a4`
    /// and `a2 + a6` into the even half, `a1 + a5` and `a3 + a7` into the
    /// odd — so a row holds at most three partials besides the one it is
    /// summing. `SHARED`: every `kg` is the same group, loaded once.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and, for `r < R`, `dh * 8` readable floats at `kg[r]`
    /// and `dh` at `q + r * qstride`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn group_dots_avx2<const R: usize, const DH: usize, const SHARED: bool>(
        q: *const f32,
        qstride: usize,
        dh: usize,
        kg: [*const f32; R],
    ) -> [__m256; R] {
        let dh = if DH == 0 { dh } else { DH };
        // `acc[r] += q_r[j] * K_r[j]`, element `j` of all eight keys.
        let lane = |l: usize| {
            let mut acc = [_mm256_setzero_ps(); R];
            let mut j = l;
            while j < dh {
                let shared = if SHARED {
                    _mm256_loadu_ps(kg[0].add(j * 8))
                } else {
                    _mm256_setzero_ps()
                };
                for (r, a) in acc.iter_mut().enumerate() {
                    let kv = if SHARED { shared } else { _mm256_loadu_ps(kg[r].add(j * 8)) };
                    let qv = _mm256_broadcast_ss(&*q.add(r * qstride + j));
                    *a = _mm256_add_ps(*a, _mm256_mul_ps(qv, kv));
                }
                j += 8;
            }
            acc
        };
        let fold = |a: [__m256; R], b: [__m256; R]| -> [__m256; R] {
            std::array::from_fn(|r| _mm256_add_ps(a[r], b[r]))
        };
        let even = fold(fold(lane(0), lane(4)), fold(lane(2), lane(6)));
        let odd = fold(fold(lane(1), lane(5)), fold(lane(3), lane(7)));
        fold(even, odd)
    }

    /// In-place softmax over whole rows of `n` — AVX2 tier, each row
    /// bit-identical to [`super::scalar::softmax_into`]: the same VMAXPS max
    /// pass, `exp8` (the exact vector mirror of `exp_lane`), the same
    /// lane-split sum, and the same scalar `1 / sum.max(1e-12)` broadcast
    /// multiply. A pass runs over every row (eight at a time) before the
    /// next begins, so one row's horizontal reduce and divide — a chain of
    /// dependent scalar operations as long as a short row's vector work —
    /// overlap the next row's loads instead of stalling them.
    pub fn softmax_rows_into(rows: &mut [f32], n: usize) {
        assert!(super::whole_rows(rows.len(), n), "{} scores in rows of {n}", rows.len());
        assert_avx2();
        // SAFETY: AVX2 is present (asserted).
        unsafe { softmax_rows_avx2(rows, n) }
    }

    #[target_feature(enable = "avx2")]
    fn softmax_rows_avx2(rows: &mut [f32], n: usize) {
        if n == 0 {
            return;
        }
        // A row's max, then the sum of its exponentials; and the
        // exponentials of its `n % 8` tail, which wait in a register for
        // the sum instead of going through memory behind a masked store.
        let mut stat = [0.0f32; 8];
        let mut etail = [_mm256_setzero_ps(); 8];
        let mask = tail_mask(n % 8);
        let t = rows.len() / n;
        for (at, tile) in rows.chunks_mut(8 * n).enumerate() {
            match t - 8 * at {
                1 => row_maxes_avx2::<1>(tile, n, &mut stat),
                2 => row_maxes_avx2::<2>(tile, n, &mut stat),
                3 => row_maxes_avx2::<3>(tile, n, &mut stat),
                4 => row_maxes_avx2::<4>(tile, n, &mut stat),
                5 => row_maxes_avx2::<5>(tile, n, &mut stat),
                6 => row_maxes_avx2::<6>(tile, n, &mut stat),
                7 => row_maxes_avx2::<7>(tile, n, &mut stat),
                _ => row_maxes_avx2::<8>(tile, n, &mut stat),
            }
            for ((row, stat), etail) in tile.chunks_exact_mut(n).zip(&mut stat).zip(&mut etail)
            {
                let (chunks, tail) = row.as_chunks_mut::<8>();
                let maxv = _mm256_set1_ps(*stat);
                let mut acc = _mm256_setzero_ps();
                for c in chunks {
                    let e = exp8(_mm256_sub_ps(load8(c), maxv));
                    store8(c, e);
                    acc = _mm256_add_ps(acc, e);
                }
                if !tail.is_empty() {
                    *etail = exp_tail(tail, maxv);
                    acc = _mm256_add_ps(acc, *etail);
                }
                *stat = reduce8(&spill(acc));
            }
            for ((row, sum), etail) in tile.chunks_exact_mut(n).zip(&stat).zip(&etail) {
                let invv = _mm256_set1_ps(1.0 / sum.max(1e-12));
                let (chunks, tail) = row.as_chunks_mut::<8>();
                for c in chunks {
                    store8(c, _mm256_mul_ps(load8(c), invv));
                }
                if !tail.is_empty() {
                    let probs = _mm256_mul_ps(*etail, invv);
                    // SAFETY: the mask keeps the store to `tail`'s own floats.
                    unsafe { _mm256_maskstore_ps(tail.as_mut_ptr(), mask, probs) };
                }
            }
        }
    }

    /// [`row_max_avx2`] of each of the `T` rows of `n` in `tile`, into
    /// `maxes[..T]`: one loop runs the rows' `vmaxps` chains side by side,
    /// each in its own order, so a row's chain no longer waits on the
    /// latency of the one before. Out of line: one body per row count,
    /// not eight inlined into the softmax.
    ///
    /// # Panics
    ///
    /// Panics unless `tile` is `T` whole rows of `n`.
    #[target_feature(enable = "avx2")]
    #[inline(never)]
    fn row_maxes_avx2<const T: usize>(tile: &[f32], n: usize, maxes: &mut [f32; 8]) {
        assert_eq!(tile.len(), T * n, "{T} rows of {n}");
        let p = tile.as_ptr();
        let mut acc = [_mm256_set1_ps(f32::NEG_INFINITY); T];
        let mut c = 0usize;
        while c + 8 <= n {
            for (r, a) in acc.iter_mut().enumerate() {
                // SAFETY: row `r < T` spans `tile[r * n..][..n]` and `c + 8 <= n`.
                *a = _mm256_max_ps(*a, unsafe { _mm256_loadu_ps(p.add(r * n + c)) });
            }
            c += 8;
        }
        if c < n {
            let mask = tail_mask(n - c);
            for (r, a) in acc.iter_mut().enumerate() {
                // SAFETY: the mask keeps the load to row `r`'s last `n - c`
                // floats.
                let t = unsafe { _mm256_maskload_ps(p.add(r * n + c), mask) };
                // Only the lanes the tail reaches change, as in the scalar
                // tier: a lane past it keeps what it holds — a NaN too,
                // which a max against padding would replace.
                *a = _mm256_blendv_ps(*a, _mm256_max_ps(*a, t), _mm256_castsi256_ps(mask));
            }
        }
        for (max, a) in maxes.iter_mut().zip(acc) {
            *max = vmax8(&spill(a));
        }
    }

    /// Context rows [`attn_weighted_sum_tile_into`] holds in registers at
    /// once: a beam of five is one pass over its values, where `4 + 1` left
    /// the fifth lane a chain of dependent adds (measured 8–20 % slower).
    const WSUM_TILE: usize = 5;

    /// Query-tile weighted sum — AVX2 tier (see
    /// [`super::scalar::attn_weighted_sum_tile_into`]). The context rows of up to
    /// `WSUM_TILE` queries stay in registers over the whole key loop,
    /// every block of it, and a V row the tile shares is loaded once for
    /// all of them. Per context element nothing changes
    /// — `si` ascending, a rounded multiply then a rounded add, zero
    /// weights skipped per row — so the tile is bit-identical to the
    /// per-row kernel by construction.
    pub fn attn_weighted_sum_tile_into(
        probs: &[f32],
        values: &[f32],
        stride: usize,
        blocks: &Blocks,
        ctx: &mut [f32],
        cstride: usize,
        dh: usize,
    ) {
        let t = blocks.rows(probs.len());
        if t == 0 {
            return;
        }
        assert!(ctx.len() >= (t - 1) * cstride + dh);
        assert_avx2();
        // SAFETY: AVX2 is present (asserted); `probs` is `t` whole rows of
        // `blocks.n` (by `rows`), the assert above bounds every `ctx` row the
        // body touches, and each instance's `DH` is zero or `dh`.
        unsafe {
            match dh {
                8 => {
                    weighted_sum_tile_avx2::<8>(probs, values, stride, blocks, ctx, cstride, dh)
                }
                16 => weighted_sum_tile_avx2::<16>(
                    probs, values, stride, blocks, ctx, cstride, dh,
                ),
                _ => {
                    weighted_sum_tile_avx2::<0>(probs, values, stride, blocks, ctx, cstride, dh)
                }
            }
        }
    }

    /// The weighted-sum body for head width `DH` (as the score body's), or
    /// for the `dh` read at run time when `DH = 0`. One source: a known
    /// width fixes the column chunks at compile time and has no `dh % 8`
    /// remainder.
    ///
    /// # Safety
    ///
    /// Requires AVX2, `DH` zero or `dh`, `blocks.n > 0`, `probs.len() = t *
    /// blocks.n` and `ctx.len() >= (t - 1) * cstride + dh`.
    #[target_feature(enable = "avx2")]
    unsafe fn weighted_sum_tile_avx2<const DH: usize>(
        probs: &[f32],
        values: &[f32],
        stride: usize,
        blocks: &Blocks,
        ctx: &mut [f32],
        cstride: usize,
        dh: usize,
    ) {
        let dh = if DH == 0 { dh } else { DH };
        let t = probs.len() / blocks.n;
        let mut r = 0usize;
        while r < t {
            let rows = (t - r).min(WSUM_TILE);
            let p = probs.as_ptr().add(r * blocks.n);
            let c = ctx.as_mut_ptr().add(r * cstride);
            match rows {
                1 => weighted_sum_rows_avx2::<1, DH>(
                    p, values, stride, blocks, r, c, cstride, dh,
                ),
                2 => weighted_sum_rows_avx2::<2, DH>(
                    p, values, stride, blocks, r, c, cstride, dh,
                ),
                3 => weighted_sum_rows_avx2::<3, DH>(
                    p, values, stride, blocks, r, c, cstride, dh,
                ),
                4 => weighted_sum_rows_avx2::<4, DH>(
                    p, values, stride, blocks, r, c, cstride, dh,
                ),
                _ => weighted_sum_rows_avx2::<5, DH>(
                    p, values, stride, blocks, r, c, cstride, dh,
                ),
            }
            r += rows;
        }
        let base = dh / 8 * 8;
        if base < dh {
            super::scalar::attn_weighted_sum_tile_into(
                probs,
                &values[base..],
                stride,
                blocks,
                &mut ctx[base..],
                cstride,
                dh - base,
            );
        }
    }

    /// `R` context rows, rows `row0..` of `blocks`, two 8-lane column
    /// chunks at a time (then an odd last one): `2 * R ≤ 10` accumulators,
    /// the V chunks and one broadcast weight fit the 16 registers.
    ///
    /// # Safety
    ///
    /// As [`weighted_sum_tile_avx2`], with `probs` and `ctx` at row `row0`,
    /// `R` rows left from there and `DH` zero or `dh`.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn weighted_sum_rows_avx2<const R: usize, const DH: usize>(
        probs: *const f32,
        values: &[f32],
        stride: usize,
        blocks: &Blocks,
        row0: usize,
        ctx: *mut f32,
        cstride: usize,
        dh: usize,
    ) {
        let chunks = if DH == 0 { dh / 8 } else { DH / 8 };
        let mut ch = 0usize;
        while ch + 2 <= chunks {
            let c = ctx.add(ch * 8);
            weighted_sum_block_avx2::<R, 2>(
                probs,
                values,
                ch * 8,
                stride,
                blocks,
                row0,
                c,
                cstride,
            );
            ch += 2;
        }
        if ch < chunks {
            let c = ctx.add(ch * 8);
            weighted_sum_block_avx2::<R, 1>(
                probs,
                values,
                ch * 8,
                stride,
                blocks,
                row0,
                c,
                cstride,
            );
        }
    }

    /// One `R × C`-register block of [`weighted_sum_rows_avx2`] — columns
    /// `col..col + 8 * C` — held in registers from the first key of the
    /// first block to the last of the last. Each block's value rows are
    /// cut out of `values` by a checked slice, so the pointers below
    /// cannot leave it whatever the table holds. A block whose weights
    /// hold no exact zero in any row of the tile adds every key with no
    /// test; one with a zero anywhere tests per row.
    ///
    /// # Safety
    ///
    /// As [`weighted_sum_rows_avx2`], with `ctx` at column `col` and `col +
    /// 8 * C <= dh`.
    #[target_feature(enable = "avx2")]
    #[inline]
    #[allow(clippy::too_many_arguments)]
    unsafe fn weighted_sum_block_avx2<const R: usize, const C: usize>(
        probs: *const f32,
        values: &[f32],
        col: usize,
        stride: usize,
        blocks: &Blocks,
        row0: usize,
        ctx: *mut f32,
        cstride: usize,
    ) {
        let mut acc = [[_mm256_setzero_ps(); C]; R];
        for (r, row) in acc.iter_mut().enumerate() {
            for (j, a) in row.iter_mut().enumerate() {
                *a = _mm256_loadu_ps(ctx.add(r * cstride + j * 8));
            }
        }
        for (i, (at, len)) in blocks.spans().enumerate() {
            let floats = (len - 1) * stride + col + C * 8;
            let vb: [*const f32; R] = std::array::from_fn(|r| {
                values[blocks.start(row0 + r, i)..][..floats].as_ptr().add(col)
            });
            let (p, n, a) = (probs.add(at), blocks.n, &mut acc);
            match (vb.iter().all(|&v| v == vb[0]), any_zero_weight::<R>(p, n, len)) {
                (true, false) => {
                    weighted_sum_keys_avx2::<R, C, true, false>(a, p, n, vb, stride, len)
                }
                (false, false) => {
                    weighted_sum_keys_avx2::<R, C, false, false>(a, p, n, vb, stride, len)
                }
                (true, true) => {
                    weighted_sum_keys_avx2::<R, C, true, true>(a, p, n, vb, stride, len)
                }
                (false, true) => {
                    weighted_sum_keys_avx2::<R, C, false, true>(a, p, n, vb, stride, len)
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            for (j, a) in row.iter().enumerate() {
                _mm256_storeu_ps(ctx.add(r * cstride + j * 8), *a);
            }
        }
    }

    /// Whether a weight of the `len` at `probs[r * pstride..]`, `r < R`, is
    /// `== 0.0` as the scalar tier tests it (true for `-0.0`, false for
    /// NaN): one compare per eight weights, a chain per row.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and `probs[r * pstride..][..len]` in bounds for `r < R`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn any_zero_weight<const R: usize>(
        probs: *const f32,
        pstride: usize,
        len: usize,
    ) -> bool {
        let zero = _mm256_setzero_ps();
        let mut hits = [zero; R];
        let mut s = 0usize;
        while s + 8 <= len {
            for (r, h) in hits.iter_mut().enumerate() {
                let wv = _mm256_loadu_ps(probs.add(r * pstride + s));
                *h = _mm256_or_ps(*h, _mm256_cmp_ps::<_CMP_EQ_OQ>(wv, zero));
            }
            s += 8;
        }
        if s < len {
            // The lanes past the weights load `+0.0`; the mask takes them
            // out of the test again.
            let mask = tail_mask(len - s);
            for (r, h) in hits.iter_mut().enumerate() {
                let wv = _mm256_maskload_ps(probs.add(r * pstride + s), mask);
                let eq = _mm256_cmp_ps::<_CMP_EQ_OQ>(wv, zero);
                *h = _mm256_or_ps(*h, _mm256_and_ps(eq, _mm256_castsi256_ps(mask)));
            }
        }
        hits.iter().any(|&h| _mm256_movemask_ps(h) != 0)
    }

    /// The `len` keys of one block of [`weighted_sum_block_avx2`]: row
    /// `r`'s weights at `probs[r * pstride..]`, its value rows at `vb[r]`
    /// (all the same block when `SHARED`). Without `ZEROS` the caller has
    /// found no zero weight and every key is added untested. With it, zero
    /// weights are looked for eight keys at a time: a group without one
    /// adds every key with no per-weight compare-and-branch, a group with
    /// one (and the `len % 8` tail) tests each weight before its add.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and, for `r < R`, `si < len`: `probs[r * pstride +
    /// si]` and `vb[r][si * stride..][..C * 8]` in bounds of their
    /// allocations.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn weighted_sum_keys_avx2<
        const R: usize,
        const C: usize,
        const SHARED: bool,
        const ZEROS: bool,
    >(
        acc: &mut [[__m256; C]; R],
        probs: *const f32,
        pstride: usize,
        vb: [*const f32; R],
        stride: usize,
        len: usize,
    ) {
        let key = |acc: &mut [[__m256; C]; R], s: usize, skip_zeros: bool| {
            let (w, v) = (probs.add(s), vb.map(|v| v.add(s * stride)));
            if skip_zeros {
                weighted_sum_key_avx2::<R, C, true, SHARED>(acc, w, pstride, v);
            } else {
                weighted_sum_key_avx2::<R, C, false, SHARED>(acc, w, pstride, v);
            }
        };
        if !ZEROS {
            for s in 0..len {
                key(acc, s, false);
            }
            return;
        }
        let mut si = 0usize;
        while si + 8 <= len {
            // `== 0.0` as the scalar tier tests it: true for `-0.0`,
            // false for NaN.
            let mut zeros = 0i32;
            for r in 0..R {
                let w = _mm256_loadu_ps(probs.add(r * pstride + si));
                zeros |=
                    _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_EQ_OQ>(w, _mm256_setzero_ps()));
            }
            for s in si..si + 8 {
                key(acc, s, zeros != 0);
            }
            si += 8;
        }
        for s in si..len {
            key(acc, s, true);
        }
    }

    /// One key of [`weighted_sum_keys_avx2`]: `acc[r] += w[r * pstride] *
    /// v[r][..C * 8]` for each row, the V chunks loaded once when
    /// `SHARED`. `SKIP_ZEROS` keeps the contract that a zero weight adds
    /// nothing; without it the caller has checked that no row's weight is
    /// zero.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and, for `r < R`, `w[r * pstride]` and `v[r][..C *
    /// 8]` in bounds of their allocations.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn weighted_sum_key_avx2<
        const R: usize,
        const C: usize,
        const SKIP_ZEROS: bool,
        const SHARED: bool,
    >(
        acc: &mut [[__m256; C]; R],
        w: *const f32,
        pstride: usize,
        v: [*const f32; R],
    ) {
        let mut shared = [_mm256_setzero_ps(); C];
        if SHARED {
            for (j, vj) in shared.iter_mut().enumerate() {
                *vj = _mm256_loadu_ps(v[0].add(j * 8));
            }
        }
        for (r, row) in acc.iter_mut().enumerate() {
            let w = *w.add(r * pstride);
            if SKIP_ZEROS && w == 0.0 {
                continue;
            }
            let wv = _mm256_set1_ps(w);
            for (j, a) in row.iter_mut().enumerate() {
                let vj = if SHARED { shared[j] } else { _mm256_loadu_ps(v[r].add(j * 8)) };
                *a = _mm256_add_ps(*a, _mm256_mul_ps(wv, vj));
            }
        }
    }

    /// One layer-norm row — AVX2 tier, bit-identical to
    /// [`super::scalar::layer_norm_row_into`] (lane-split sums, the same
    /// scalar mean/var/rstd steps, and the same normalize association).
    pub fn layer_norm_row_into(
        row: &[f32],
        gamma: &[f32],
        beta: &[f32],
        out: &mut [f32],
    ) -> (f32, f32) {
        let d = row.len();
        assert!(gamma.len() >= d && beta.len() >= d && out.len() >= d);
        assert_avx2();
        // SAFETY: AVX2 is present (asserted).
        unsafe { ln_row_avx2(row, gamma, beta, &mut out[..d]) }
    }

    #[target_feature(enable = "avx2")]
    fn ln_row_avx2(row: &[f32], gamma: &[f32], beta: &[f32], out: &mut [f32]) -> (f32, f32) {
        let d = row.len();
        let (chunks, tail) = row.as_chunks::<8>();
        let mut acc = _mm256_setzero_ps();
        for c in chunks {
            acc = _mm256_add_ps(acc, load8(c));
        }
        let mean = sum_lanes(acc, tail.iter().copied()) / d as f32;
        let meanv = _mm256_set1_ps(mean);
        let mut vacc = _mm256_setzero_ps();
        for c in chunks {
            let dv = _mm256_sub_ps(load8(c), meanv);
            vacc = _mm256_add_ps(vacc, _mm256_mul_ps(dv, dv));
        }
        let var = sum_lanes(vacc, tail.iter().map(|&v| (v - mean) * (v - mean))) / d as f32;
        let rstd = 1.0 / (var + 1e-5).sqrt();
        let rstdv = _mm256_set1_ps(rstd);
        let params = gamma.as_chunks::<8>().0.iter().zip(beta.as_chunks::<8>().0);
        for ((o, c), (g, b)) in out.as_chunks_mut::<8>().0.iter_mut().zip(chunks).zip(params) {
            let x = _mm256_sub_ps(load8(c), meanv);
            store8(
                o,
                _mm256_add_ps(_mm256_mul_ps(_mm256_mul_ps(load8(g), x), rstdv), load8(b)),
            );
        }
        for j in d - tail.len()..d {
            out[j] = gamma[j] * (row[j] - mean) * rstd + beta[j];
        }
        (mean, rstd)
    }
}

/// Packs a pre-transposed `k x n` matrix (`bt`, output columns
/// contiguous) into the layout the `matmul_xpacked_into` kernels read:
/// one sequential `k x 8` slab per full j-block (slab row `p` holds the
/// block's 8 columns at reduction index `p`), followed by each tail
/// column stored contiguously over `k`. Done once at weight
/// materialization: the plain layout walks columns at an `n`-element
/// stride, which for large `n` (the logits projection) lands every row
/// in the same few L1 sets and thrashes them; the packed slabs stream
/// sequentially instead.
pub fn pack_xposed_blocks(bt: &[f32], k: usize, n: usize) -> Vec<f32> {
    debug_assert!(bt.len() >= k * n);
    let nblocks = n / 8;
    let mut out = Vec::with_capacity(k * n);
    for jb in 0..nblocks {
        let j0 = jb * 8;
        for p in 0..k {
            out.extend_from_slice(&bt[p * n + j0..p * n + j0 + 8]);
        }
    }
    for j in nblocks * 8..n {
        for p in 0..k {
            out.push(bt[p * n + j]);
        }
    }
    out
}

/// Dispatched `C = A * B` with `bp` = B packed by
/// [`pack_xposed_blocks`] — every forward's projection. Bit-identical to
/// [`scalar::matmul_transb_into`] against the untransposed `B^T` — same
/// per-element accumulation, addresses that stream.
pub fn matmul_xpacked_into(a: &[f32], bp: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    match active_tier() {
        #[cfg(target_arch = "x86_64")]
        IsaTier::Avx2 => avx2::matmul_xpacked_into(a, bp, c, m, k, n),
        _ => scalar::matmul_xpacked_into(a, bp, c, m, k, n),
    }
}

/// Dispatched row max (the max pass of the fused log-softmax+top-k; the
/// top-k insertion stays scalar on every tier because its order is the
/// contract).
pub fn row_max(row: &[f32]) -> f32 {
    if row.is_empty() {
        return f32::NEG_INFINITY;
    }
    match active_tier() {
        #[cfg(target_arch = "x86_64")]
        IsaTier::Avx2 => avx2::row_max(row),
        _ => scalar::row_max(row),
    }
}

/// Dispatched `Σ exp(v - max)` — the normalizer pass of the fused
/// log-softmax+top-k, lane-split by 8 like the matmuls. Every tier uses
/// the shared polynomial `exp` (`exp_lane` and its AVX2 mirror), not
/// libm, so the sum is bit-identical across tiers. `max` must be the
/// row's max (finite inputs, `v - max ≤ 0`).
pub fn sum_exp(row: &[f32], max: f32) -> f32 {
    match active_tier() {
        #[cfg(target_arch = "x86_64")]
        IsaTier::Avx2 => avx2::sum_exp(row, max),
        _ => scalar::sum_exp(row, max),
    }
}

/// Dispatched elementwise GELU over a buffer (the FFN activation).
/// Every tier evaluates the shared `gelu_lane` operation sequence —
/// polynomial `exp`, no libm — so results are bit-identical across
/// tiers — the training forward and the decoder call this same kernel.
pub fn gelu_into(buf: &mut [f32]) {
    match active_tier() {
        #[cfg(target_arch = "x86_64")]
        IsaTier::Avx2 => avx2::gelu_into(buf),
        _ => scalar::gelu_into(buf),
    }
}

/// QK^T score row over row-major keys: `scores[si] = (q ·
/// keys[si*stride..]) * scale` over `q.len()` elements per key row — the
/// shared lane-split-by-8, mul-then-add, tree-reduce dot, then one rounded
/// `scale` multiply. The scalar definition on every tier: attention scores
/// packed keys ([`attn_scores_packed_tile_into`]), and only the per-layer
/// probe calls this row form.
pub fn attn_scores_into(
    q: &[f32],
    keys: &[f32],
    stride: usize,
    scale: f32,
    scores: &mut [f32],
) {
    scalar::attn_scores_into(q, keys, stride, scale, scores)
}

/// Floats [`pack_keys`] writes for `n` keys of `dh` elements: whole
/// groups of [`LANES`] keys.
pub fn packed_keys_len(n: usize, dh: usize) -> usize {
    n.div_ceil(LANES) * dh * LANES
}

/// Packs the `n` key rows of one head (`keys[si * stride..][..dh]`)
/// into the layout [`attn_scores_packed_tile_into`] reads: groups of
/// [`LANES`] keys, `[⌈n / 8⌉][dh][8]`, with element `j` of key
/// `8 * g + l` at `out[(g * dh + j) * 8 + l]` — a key per SIMD lane. The
/// lanes of the last group past `n` are written as zeros, so `out`
/// (exactly [`packed_keys_len`] floats) keeps nothing of what it held.
///
/// Every key the inference path scores is packed: an encoder layer's and
/// a request's cross-attention keys here, whole; a decoder lane's own
/// keys one per step, by [`pack_key_into`].
pub fn pack_keys(keys: &[f32], stride: usize, n: usize, dh: usize, out: &mut [f32]) {
    assert_eq!(out.len(), packed_keys_len(n, dh));
    for (g, group) in out.chunks_exact_mut(dh * LANES).enumerate() {
        let first = g * LANES;
        let live = (n - first).min(LANES);
        for (j, lanes) in group.chunks_exact_mut(LANES).enumerate() {
            for (l, v) in lanes.iter_mut().enumerate() {
                *v = if l < live { keys[(first + l) * stride + j] } else { 0.0 };
            }
        }
    }
}

/// Writes `key` as key `at` of a packed buffer of `key.len()`-element keys
/// ([`pack_keys`]' layout), leaving every other key of it alone.
pub fn pack_key_into(key: &[f32], at: usize, out: &mut [f32]) {
    let group = &mut out[at / LANES * key.len() * LANES..][..key.len() * LANES];
    for (lanes, &v) in group.chunks_exact_mut(LANES).zip(key) {
        lanes[at % LANES] = v;
    }
}

/// Dispatched QK^T scores of a tile of queries against keys packed by
/// [`pack_keys`], block by block ([`Blocks`]; each block of each head is
/// one `pack_keys` buffer): `scores[r * n + si]` is the scaled dot of query
/// `q[r * qstride..][..dh]` with row `r`'s key `si`, for `scores.len() /
/// n` queries — per score the rounded operations of [`attn_scores_into`]
/// in its order (lane split by 8, ascending, tree reduce, then the scale),
/// so the two layouts agree bit-for-bit.
///
/// # Panics
///
/// Panics when `scores` is not whole rows of `blocks.n`, or a row, table
/// entry or block lies outside its buffer.
pub fn attn_scores_packed_tile_into(
    q: &[f32],
    qstride: usize,
    dh: usize,
    kp: &[f32],
    blocks: &Blocks,
    scale: f32,
    scores: &mut [f32],
) {
    match active_tier() {
        #[cfg(target_arch = "x86_64")]
        IsaTier::Avx2 => {
            avx2::attn_scores_packed_tile_into(q, qstride, dh, kp, blocks, scale, scores)
        }
        _ => scalar::attn_scores_packed_tile_into(q, qstride, dh, kp, blocks, scale, scores),
    }
}

/// Dispatched in-place softmax over one row: VMAXPS-semantics max, the
/// shared polynomial exp (`exp_lane` / its AVX2 mirror — no libm),
/// a lane-split-by-8 sum, and a `1 / sum.max(1e-12)` normalize. `-inf`
/// entries (masked attention slots) come out exactly `+0.0`, which the
/// weighted-sum kernel then skips. The one-row case of
/// [`softmax_rows_into`], which attention calls; only the per-layer probe
/// calls this form.
pub fn softmax_into(row: &mut [f32]) {
    softmax_rows_into(row, row.len())
}

/// [`softmax_into`] over each of the `rows.len() / n` whole rows of `n` —
/// how attention calls it, for the score rows of a query tile.
///
/// # Panics
///
/// Panics when `rows` is not whole rows of `n`.
pub fn softmax_rows_into(rows: &mut [f32], n: usize) {
    assert!(whole_rows(rows.len(), n), "{} scores in rows of {n}", rows.len());
    match active_tier() {
        #[cfg(target_arch = "x86_64")]
        IsaTier::Avx2 => avx2::softmax_rows_into(rows, n),
        _ => rows.chunks_exact_mut(n.max(1)).for_each(scalar::softmax_into),
    }
}

/// Dispatched softmax-weighted V accumulation: `ctx[j] += Σ_si
/// probs[si] * values[si*stride + j]`, `si` ascending, zero weights
/// skipped on every tier. Elementwise over `j`, so tiers are
/// bit-identical by construction. `ctx` is accumulated into (callers
/// zero or seed it). The one-row, one-block case of
/// [`attn_weighted_sum_tile_into`], which attention calls; only the
/// per-layer probe calls this form.
pub fn attn_weighted_sum_into(probs: &[f32], values: &[f32], stride: usize, ctx: &mut [f32]) {
    let dh = ctx.len();
    attn_weighted_sum_tile_into(probs, values, stride, &Blocks::one(probs.len()), ctx, dh, dh)
}

/// Dispatched weighted sum for a tile of queries: row `r` accumulates
/// `probs[r*n..(r+1)*n]` over its `n` value rows — `stride` apart inside a
/// block, the blocks where [`Blocks`] says — into `ctx[r*cstride..][..dh]`
/// exactly as [`attn_weighted_sum_into`] would over contiguous rows, for
/// `probs.len() / n` rows. The AVX2 tier keeps [`ATTN_TILE`] context rows
/// in registers and loads a value row they share once for all of them;
/// the scalar tier runs its per-row body per query.
///
/// # Panics
///
/// Panics when `probs` is not whole rows of `blocks.n`, or a row, table
/// entry or block lies outside its buffer.
pub fn attn_weighted_sum_tile_into(
    probs: &[f32],
    values: &[f32],
    stride: usize,
    blocks: &Blocks,
    ctx: &mut [f32],
    cstride: usize,
    dh: usize,
) {
    match active_tier() {
        #[cfg(target_arch = "x86_64")]
        IsaTier::Avx2 => {
            avx2::attn_weighted_sum_tile_into(probs, values, stride, blocks, ctx, cstride, dh)
        }
        _ => {
            scalar::attn_weighted_sum_tile_into(probs, values, stride, blocks, ctx, cstride, dh)
        }
    }
}

/// Per-row layer-norm function pointer for the active tier (resolved
/// once per matrix, not per row).
type LnRowFn = fn(&[f32], &[f32], &[f32], &mut [f32]) -> (f32, f32);

fn ln_row_fn() -> LnRowFn {
    match active_tier() {
        #[cfg(target_arch = "x86_64")]
        IsaTier::Avx2 => avx2::layer_norm_row_into,
        _ => scalar::layer_norm_row_into,
    }
}

/// Dispatched layer norm over `t` rows of width `d`: per row,
/// lane-split-by-8 mean and variance sums, `rstd = 1 / sqrt(var +
/// 1e-5)`, then `out = gamma ⊙ (x - mean) * rstd + beta`. Bit-identical
/// across tiers (every non-lane-split step is an exactly-rounded
/// scalar IEEE op shared by all tiers).
pub fn layer_norm_into(
    x: &[f32],
    gamma: &[f32],
    beta: &[f32],
    t: usize,
    d: usize,
    out: &mut [f32],
) {
    debug_assert!(x.len() >= t * d && out.len() >= t * d);
    let f = ln_row_fn();
    for r in 0..t {
        f(&x[r * d..(r + 1) * d], gamma, beta, &mut out[r * d..(r + 1) * d]);
    }
}

/// [`layer_norm_into`] that also records each row's `(mean, rstd)` for
/// the training path's backward caches. Same per-row kernel — the
/// inference wrapper and this one cannot diverge.
#[allow(clippy::too_many_arguments)]
pub fn layer_norm_stats_into(
    x: &[f32],
    gamma: &[f32],
    beta: &[f32],
    t: usize,
    d: usize,
    out: &mut [f32],
    means: &mut [f32],
    rstds: &mut [f32],
) {
    debug_assert!(x.len() >= t * d && out.len() >= t * d);
    debug_assert!(means.len() >= t && rstds.len() >= t);
    let f = ln_row_fn();
    for r in 0..t {
        let (mean, rstd) = f(&x[r * d..(r + 1) * d], gamma, beta, &mut out[r * d..(r + 1) * d]);
        means[r] = mean;
        rstds[r] = rstd;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(seed: u64, len: usize) -> Vec<f32> {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        (0..len)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn tier_knob_round_trips() {
        let prev = active_tier();
        for tier in [IsaTier::Scalar, IsaTier::Avx2] {
            // A request the host cannot execute clamps to scalar instead
            // of crashing in the first kernel call.
            let want = if tier_supported(tier) { tier } else { IsaTier::Scalar };
            assert_eq!(set_tier(tier), want, "{}", tier.name());
            assert_eq!(active_tier(), want, "{}", tier.name());
        }
        set_tier(prev);
    }

    #[test]
    fn tier_request_resolves_against_what_the_host_supports() {
        let with_avx2 = |_: IsaTier| true;
        let scalar_only = |t: IsaTier| t == IsaTier::Scalar;
        for (raw, supported, want) in [
            ("", &with_avx2 as &dyn Fn(IsaTier) -> bool, (IsaTier::Avx2, None)),
            (" Auto ", &with_avx2, (IsaTier::Avx2, None)),
            ("auto", &scalar_only, (IsaTier::Scalar, None)),
            ("scalar", &with_avx2, (IsaTier::Scalar, None)),
            ("avx2", &with_avx2, (IsaTier::Avx2, None)),
            ("avx2", &scalar_only, (IsaTier::Scalar, Some("requested avx2: unsupported"))),
            ("vnni", &with_avx2, (IsaTier::Avx2, Some("requested vnni: unknown"))),
            ("vnni", &scalar_only, (IsaTier::Scalar, Some("requested vnni: unknown"))),
            ("AVX512", &with_avx2, (IsaTier::Avx2, Some("requested avx512: unknown"))),
        ] {
            let (tier, note) = tier_for_request(raw, supported);
            assert_eq!((tier, note.as_deref()), want, "{raw:?}");
        }
    }

    #[test]
    fn transb_and_xposed_orientations_agree_bitwise() {
        // Same projection through both weight orientations must give the
        // same bits: transb over the stored weights is the spec, every
        // forward projects through the packed transpose.
        for &(m, k, n) in &[(1usize, 1usize, 1usize), (2, 7, 5), (3, 16, 8), (4, 19, 13)] {
            let a = fill(1, m * k);
            let w = fill(2, n * k); // n x k, transb orientation
            let mut wt = vec![0.0f32; k * n];
            for r in 0..n {
                for p in 0..k {
                    wt[p * n + r] = w[r * k + p];
                }
            }
            let mut c1 = vec![0.0f32; m * n];
            let mut c2 = vec![0.0f32; m * n];
            scalar::matmul_transb_into(&a, &w, &mut c1, m, k, n);
            scalar::matmul_xpacked_into(&a, &pack_xposed_blocks(&wt, k, n), &mut c2, m, k, n);
            for (x, y) in c1.iter().zip(&c2) {
                assert_eq!(x.to_bits(), y.to_bits(), "shape ({m},{k},{n})");
            }
        }
    }
}
