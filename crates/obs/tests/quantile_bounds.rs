//! Satellite: histogram quantile error is bounded by one bucket width
//! (relative `1/SUB_BUCKETS`) across a million log-spaced samples.

use slade_obs::{Histogram, SUB_BUCKETS};

#[test]
fn quantile_error_within_one_bucket_width() {
    const N: usize = 1_000_000;
    // Log-spaced samples from 1µs to ~100s, deterministic.
    let lo: f64 = 1.0;
    let hi: f64 = 1e8;
    let mut samples: Vec<u64> = (0..N)
        .map(|i| {
            let t = i as f64 / (N - 1) as f64;
            (lo * (hi / lo).powf(t)).round() as u64
        })
        .collect();

    let h = Histogram::new("t_seconds", "t");
    for &s in &samples {
        h.record(s);
    }
    assert_eq!(h.count(), N as u64);

    samples.sort_unstable();
    let rel_width = 1.0 / SUB_BUCKETS as f64;
    for q in [0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 0.999, 1.0] {
        let rank = ((N as f64) * q).ceil().max(1.0) as usize - 1;
        let truth = samples[rank] as f64;
        let est = h.quantile(q) as f64;
        // The estimate is a bucket upper bound: never below the true order
        // statistic, and at most one bucket width above it.
        assert!(est >= truth, "q={q}: estimate {est} below true order statistic {truth}");
        let err = (est - truth) / truth.max(1.0);
        assert!(
            err <= rel_width + 1e-9,
            "q={q}: relative error {err:.4} exceeds bucket width {rel_width}"
        );
    }
}
