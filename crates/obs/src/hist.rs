//! Log-bucketed atomic histogram (HDR-style).
//!
//! Values are `u64` (the crate records microseconds). The bucket layout
//! is logarithmic with [`SUB_BUCKETS`] linear sub-buckets per power of
//! two: values below [`SUB_BUCKETS`] get one exact bucket each, and a
//! value `v ≥ SUB_BUCKETS` lands in a bucket of width
//! `2^(msb(v) - SUB_BITS)` — a fixed relative width of `1/SUB_BUCKETS`
//! (6.25%), so any quantile read off the bucket bounds is within one
//! bucket width of the true order statistic.
//!
//! Recording is **wait-free**: one relaxed `fetch_add` on the bucket plus
//! two on the count/sum counters — no lock is ever taken, so a metrics
//! scrape can never stall a decode worker. Snapshots are relaxed reads.

use crate::export::PromText;
use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};

/// log2 of the sub-bucket count per octave.
const SUB_BITS: u32 = 4;
/// Linear sub-buckets per power of two; relative bucket width is
/// `1 / SUB_BUCKETS`.
pub const SUB_BUCKETS: u64 = 1 << SUB_BITS;
/// Largest recordable value (~2^38 µs ≈ 3 days); larger values clamp.
const MAX_VALUE: u64 = (1 << 38) - 1;
/// Octaves above the linear region: msb ∈ [SUB_BITS, 37].
const OCTAVES: usize = 38 - SUB_BITS as usize;
/// Total bucket count.
pub const BUCKETS: usize = SUB_BUCKETS as usize * (OCTAVES + 1);

/// Maps a value to its bucket index.
#[inline]
fn bucket_index(v: u64) -> usize {
    let v = v.min(MAX_VALUE);
    if v < SUB_BUCKETS {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let shift = msb - SUB_BITS;
        let octave = (msb - SUB_BITS) as usize;
        SUB_BUCKETS as usize * (octave + 1) + ((v >> shift) & (SUB_BUCKETS - 1)) as usize
    }
}

/// Inclusive upper bound of a bucket — what quantiles report.
fn bucket_upper(idx: usize) -> u64 {
    if idx < SUB_BUCKETS as usize {
        idx as u64
    } else {
        let octave = idx / SUB_BUCKETS as usize - 1;
        let sub = (idx % SUB_BUCKETS as usize) as u64;
        let width = 1u64 << octave;
        (SUB_BUCKETS + sub) * width + width - 1
    }
}

/// Wait-free log-bucketed histogram of **microsecond** durations (see
/// module docs) that knows the family it is exported as.
pub struct Histogram {
    name: &'static str,
    help: &'static str,
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("name", &self.name)
            .field("count", &self.count.load(Ordering::Relaxed))
            .field("sum", &self.sum.load(Ordering::Relaxed))
            .finish()
    }
}

impl Histogram {
    /// An empty histogram for the family `name` (a `_seconds` family:
    /// the exposition converts). `const`-constructible.
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            name,
            help,
            buckets: [ZERO; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Writes the family: cumulative buckets, `_sum` and `_count`.
    pub fn expose(&self, p: &mut PromText) {
        p.histogram_us(self.name, self.help, &self.snapshot());
    }

    /// Records one value (wait-free; three relaxed `fetch_add`s).
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v.min(MAX_VALUE), Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values (each clamped to the recordable range).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> HistSnapshot {
        let buckets: Vec<u64> =
            self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        HistSnapshot {
            count: buckets.iter().sum(),
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }

    /// The `q`-quantile (0.0–1.0) as a bucket upper bound — within one
    /// bucket width (relative `1/SUB_BUCKETS`) of the true order
    /// statistic. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }
}

/// Owned copy of a histogram's state, for export and quantile reads.
#[derive(Debug, Clone, Serialize)]
pub struct HistSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Per-bucket counts (see [`BUCKETS`]).
    pub buckets: Vec<u64>,
}

impl HistSnapshot {
    /// The `q`-quantile as a bucket upper bound; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        bucket_upper(BUCKETS - 1)
    }

    /// Mean of recorded values; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Cumulative counts at each octave boundary, coarsened for text
    /// exposition: `(upper_bound, cumulative_count)` pairs covering the
    /// occupied range, suitable as Prometheus `le` buckets.
    pub fn cumulative_octaves(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        let mut last_boundary_cum = 0u64;
        let mut highest_nonzero = 0usize;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n > 0 {
                highest_nonzero = i;
            }
        }
        for (i, &n) in self.buckets.iter().enumerate() {
            cum += n;
            // Emit a boundary at the end of each octave.
            if (i + 1) % SUB_BUCKETS as usize == 0 {
                let boundary = bucket_upper(i);
                // Skip leading/trailing all-equal boundaries to keep the
                // exposition compact, but always emit boundaries where
                // counts change and the first one at/after the data.
                if cum != last_boundary_cum || (cum > 0 && i <= highest_nonzero) {
                    out.push((boundary, cum));
                    last_boundary_cum = cum;
                }
            }
            if i >= highest_nonzero && cum == self.count && !out.is_empty() {
                break;
            }
        }
        if out.is_empty() {
            out.push((bucket_upper(SUB_BUCKETS as usize - 1), cum));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_in_linear_region() {
        let h = Histogram::new("t_seconds", "t");
        for v in 0..SUB_BUCKETS {
            h.record(v);
        }
        assert_eq!(h.count(), SUB_BUCKETS);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), SUB_BUCKETS - 1);
    }

    #[test]
    fn bucket_index_and_upper_are_consistent() {
        // Every probe value must land in a bucket whose bounds contain it.
        let mut probes: Vec<u64> = (0..200).collect();
        let mut v = 1u64;
        while v < MAX_VALUE / 2 {
            probes.extend_from_slice(&[v, v + 1, v.saturating_sub(1), 3 * v]);
            v *= 2;
        }
        for &p in &probes {
            let p = p.min(MAX_VALUE);
            let idx = bucket_index(p);
            let upper = bucket_upper(idx);
            assert!(p <= upper, "value {p} above bucket {idx} upper {upper}");
            let lower = if idx == 0 { 0 } else { bucket_upper(idx - 1) + 1 };
            assert!(p >= lower, "value {p} below bucket {idx} lower {lower}");
        }
        // Bucket uppers are strictly increasing.
        for i in 1..BUCKETS {
            assert!(bucket_upper(i) > bucket_upper(i - 1), "non-monotone at {i}");
        }
    }

    #[test]
    fn clamps_at_max_value() {
        let h = Histogram::new("t_seconds", "t");
        h.record(u64::MAX);
        assert_eq!(h.count(), 1);
        assert!(h.quantile(1.0) >= MAX_VALUE);
    }
}
