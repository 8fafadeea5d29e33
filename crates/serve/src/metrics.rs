//! Serving metrics: cheap always-on counters (atomics), wait-free
//! log-bucketed latency histograms ([`slade_obs::Histogram`]), and two
//! export surfaces — a plain-struct snapshot (benches serialize it to
//! JSON) and a Prometheus text exposition
//! ([`crate::ServeRuntime::metrics_text`]).
//!
//! The histograms replaced a `Mutex<Reservoir>` whose `percentile` cloned
//! and sorted 4096 samples **under the same lock the workers recorded
//! into** — a scrape could stall every decode worker. Recording is now
//! three relaxed `fetch_add`s and a snapshot copies bucket counts without
//! taking any lock, so scraping can never stall decode.

use crate::cache::CacheStats;
use serde::Serialize;
use slade_obs::{export::PromText, Histogram, KernelCtr, StageHist};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// Shared mutable metrics state (one per runtime).
#[derive(Debug)]
pub(crate) struct MetricsInner {
    pub submitted: AtomicU64,
    pub completed: AtomicU64,
    /// Submissions rejected by bounded admission (queue at cap).
    pub shed: AtomicU64,
    /// Requests whose deadline expired before a result was ready.
    pub expired: AtomicU64,
    /// Duplicate submissions attached to an in-flight decode.
    pub coalesced: AtomicU64,
    /// Requests that ran the engine themselves.
    pub decoded: AtomicU64,
    pub queue_depth: AtomicUsize,
    /// Live beam lanes per shard (gauge, updated by each worker).
    pub shard_lanes: Vec<AtomicUsize>,
    pub lane_capacity: usize,
    /// Decode steps × live lanes, summed across shards (cumulative).
    pub decode_tokens: AtomicU64,
    /// Kernel ISA tier the workers decode with (resolved once at start).
    pub kernel_isa: &'static str,
    /// Effective-vs-requested tier, e.g. `avx2 (requested vnni:
    /// unsupported)` when `SLADE_KERNEL_ISA` asked for something the host
    /// cannot run; equals `kernel_isa` when the request was satisfied.
    pub kernel_isa_status: String,
    /// Weight backend name of the served model ("f32" / "int8").
    pub backend: &'static str,
    /// End-to-end latency in µs (submit → response).
    latency: Histogram,
    /// Time spent queued before admission, µs.
    queue_wait: Histogram,
}

impl MetricsInner {
    pub fn new(
        shards: usize,
        lane_capacity: usize,
        kernel_isa: &'static str,
        kernel_isa_status: String,
        backend: &'static str,
    ) -> Self {
        MetricsInner {
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            decoded: AtomicU64::new(0),
            queue_depth: AtomicUsize::new(0),
            shard_lanes: (0..shards).map(|_| AtomicUsize::new(0)).collect(),
            lane_capacity,
            decode_tokens: AtomicU64::new(0),
            kernel_isa,
            kernel_isa_status,
            backend,
            latency: Histogram::new(),
            queue_wait: Histogram::new(),
        }
    }

    pub fn record_latency(&self, elapsed: Duration) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.latency.record(elapsed.as_micros() as u64);
    }

    pub fn record_queue_wait(&self, waited: Duration) {
        self.queue_wait.record(waited.as_micros() as u64);
    }

    /// Saturating queue-depth decrement: a shed/cancel path racing the
    /// submit-side increment must clamp at zero, never wrap the gauge to
    /// `usize::MAX`. Debug builds assert the race did not actually occur.
    pub fn queue_depth_sub(&self, n: usize) {
        let prev = self
            .queue_depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| Some(d.saturating_sub(n)))
            .expect("fetch_update closure always returns Some");
        debug_assert!(prev >= n, "queue_depth underflow: {prev} - {n}");
    }

    pub fn snapshot(&self, cache: CacheStats) -> MetricsSnapshot {
        // Copy out first, then compute: quantiles run on the snapshot, so
        // a slow scrape never holds anything a worker records through.
        let latency = self.latency.snapshot();
        let queue_wait = self.queue_wait.snapshot();
        let us = |v: u64| v as f64 / 1e3;
        MetricsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            decoded: self.decoded.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            shard_lanes: self.shard_lanes.iter().map(|l| l.load(Ordering::Relaxed)).collect(),
            lane_capacity_per_shard: self.lane_capacity,
            decode_tokens: self.decode_tokens.load(Ordering::Relaxed),
            kernel_isa: self.kernel_isa,
            kernel_isa_status: self.kernel_isa_status.clone(),
            backend: self.backend,
            p50_latency_ms: us(latency.quantile(0.50)),
            p95_latency_ms: us(latency.quantile(0.95)),
            p99_latency_ms: us(latency.quantile(0.99)),
            p50_queue_wait_ms: us(queue_wait.quantile(0.50)),
            p95_queue_wait_ms: us(queue_wait.quantile(0.95)),
            p99_queue_wait_ms: us(queue_wait.quantile(0.99)),
            cache,
        }
    }

    /// Prometheus text exposition covering the runtime counters/gauges,
    /// both latency histograms, the process-wide per-stage histograms,
    /// and the kernel counters.
    pub fn prometheus(&self, cache: CacheStats) -> String {
        let o = slade_obs::obs();
        let mut p = PromText::new();
        p.counter(
            "slade_requests_submitted_total",
            "Requests accepted (cache hits included).",
            self.submitted.load(Ordering::Relaxed),
        );
        p.counter(
            "slade_requests_completed_total",
            "Requests answered (cache hits included).",
            self.completed.load(Ordering::Relaxed),
        );
        p.counter(
            "slade_shed_total",
            "Submissions rejected by bounded admission (queue at cap).",
            self.shed.load(Ordering::Relaxed),
        );
        p.counter(
            "slade_expired_total",
            "Requests whose deadline expired before a result.",
            self.expired.load(Ordering::Relaxed),
        );
        p.counter(
            "slade_coalesced_total",
            "Duplicate submissions attached to an in-flight decode.",
            self.coalesced.load(Ordering::Relaxed),
        );
        p.counter(
            "slade_decoded_total",
            "Requests that ran the engine themselves.",
            self.decoded.load(Ordering::Relaxed),
        );
        p.gauge(
            "slade_queue_depth",
            "Requests waiting for admission right now.",
            self.queue_depth.load(Ordering::Relaxed) as f64,
        );
        let lanes: Vec<(String, f64)> = self
            .shard_lanes
            .iter()
            .enumerate()
            .map(|(i, l)| (i.to_string(), l.load(Ordering::Relaxed) as f64))
            .collect();
        p.gauge_series("slade_shard_lanes", "Live beam lanes per shard.", "shard", &lanes);
        p.gauge(
            "slade_lane_capacity_per_shard",
            "Lane budget each shard admits against.",
            self.lane_capacity as f64,
        );
        p.counter(
            "slade_decode_tokens_total",
            "Tokens decoded across all shards (lanes x steps).",
            self.decode_tokens.load(Ordering::Relaxed),
        );
        p.counter("slade_cache_hits_total", "Result-cache hits.", cache.hits);
        p.counter("slade_cache_misses_total", "Result-cache misses.", cache.misses);
        p.counter("slade_cache_insertions_total", "Result-cache insertions.", cache.insertions);
        p.counter("slade_cache_evictions_total", "Result-cache evictions.", cache.evictions);
        p.gauge("slade_cache_entries", "Result-cache resident entries.", cache.entries as f64);
        p.counter("slade_spill_hits_total", "Disk-spill tier hits.", cache.spill_hits);
        p.counter(
            "slade_spill_writes_total",
            "Entries written to the spill tier.",
            cache.spill_writes,
        );
        p.counter(
            "slade_spill_load_errors_total",
            "Spill entries that failed integrity checks on load.",
            cache.spill_load_errors,
        );
        p.counter(
            "slade_spill_evictions_total",
            "Spill entries evicted by capacity.",
            cache.spill_evictions,
        );
        p.gauge(
            "slade_spill_entries",
            "Spill-tier resident entries.",
            cache.spill_entries as f64,
        );
        p.histogram_us(
            "slade_request_latency_seconds",
            "End-to-end latency, submit to response.",
            &self.latency.snapshot(),
        );
        p.histogram_us(
            "slade_queue_wait_seconds",
            "Time queued before admission.",
            &self.queue_wait.snapshot(),
        );
        for s in StageHist::ALL {
            p.histogram_us(stage_metric(s), stage_help(s), &o.stage(s).snapshot());
        }
        for c in KernelCtr::ALL {
            p.counter(ctr_metric(c), ctr_help(c), o.counter(c));
        }
        p.info(
            "slade_info",
            "Serving configuration.",
            &[
                ("kernel_isa", self.kernel_isa),
                ("kernel_isa_status", self.kernel_isa_status.as_str()),
                ("backend", self.backend),
            ],
        );
        p.finish()
    }
}

/// Static Prometheus family name per stage (names must outlive the
/// builder, hence the match rather than `format!`).
fn stage_metric(s: StageHist) -> &'static str {
    match s {
        StageHist::Encode => "slade_stage_encode_seconds",
        StageHist::DecodeStep => "slade_stage_decode_step_seconds",
        StageHist::Score => "slade_stage_score_seconds",
        StageHist::Admit => "slade_stage_admit_seconds",
        StageHist::Tokenize => "slade_stage_tokenize_seconds",
        StageHist::TypeInf => "slade_stage_typeinf_seconds",
        StageHist::Repair => "slade_stage_repair_seconds",
        StageHist::Judge => "slade_stage_judge_seconds",
    }
}

fn stage_help(s: StageHist) -> &'static str {
    match s {
        StageHist::Encode => "Batched encoder forward pass.",
        StageHist::DecodeStep => "One batched decode step.",
        StageHist::Score => "Beam scoring per step (top-k + survivors).",
        StageHist::Admit => "Engine admission after the encoder pass (cross-KV, lane set-up).",
        StageHist::Tokenize => "Tokenizing normalized assembly.",
        StageHist::TypeInf => "Type-inference header synthesis.",
        StageHist::Repair => "Candidate repair pass.",
        StageHist::Judge => "IO judging (BTC verification).",
    }
}

fn ctr_metric(c: KernelCtr) -> &'static str {
    match c {
        KernelCtr::ProjCalls => "slade_kernel_proj_calls_total",
        KernelCtr::ProjRows => "slade_kernel_proj_rows_total",
        KernelCtr::AttendCalls => "slade_kernel_attend_calls_total",
        KernelCtr::TopkCalls => "slade_kernel_topk_calls_total",
        KernelCtr::EncodeRows => "slade_kernel_encode_rows_total",
        KernelCtr::DecodeLaneTokens => "slade_kernel_decode_lane_tokens_total",
        KernelCtr::SlowRequests => "slade_slow_requests_total",
        KernelCtr::KvCowRows => "slade_kernel_kv_cow_rows_total",
    }
}

fn ctr_help(c: KernelCtr) -> &'static str {
    match c {
        KernelCtr::ProjCalls => "Projection (matmul) invocations.",
        KernelCtr::ProjRows => "Rows produced by projections.",
        KernelCtr::AttendCalls => "Attention context computations.",
        KernelCtr::TopkCalls => "log-softmax top-k invocations.",
        KernelCtr::EncodeRows => "Sequence rows through the encoder.",
        KernelCtr::DecodeLaneTokens => "Lane-tokens advanced by decode steps.",
        KernelCtr::SlowRequests => "Requests over the SLADE_SLOW_MS threshold.",
        KernelCtr::KvCowRows => {
            "Self-attention K/V rows copied by beam reorders (shared tail blocks)."
        }
    }
}

/// Point-in-time view of the runtime (queue depth and lane gauges are
/// instantaneous; counters and percentiles are cumulative).
#[derive(Debug, Clone, Serialize)]
pub struct MetricsSnapshot {
    /// Requests accepted (cache hits included).
    pub submitted: u64,
    /// Requests answered (cache hits included).
    pub completed: u64,
    /// Submissions rejected by bounded admission
    /// ([`crate::SubmitError::Overloaded`]).
    pub shed: u64,
    /// Requests whose deadline expired before a result was ready
    /// ([`crate::SubmitError::DeadlineExceeded`]).
    pub expired: u64,
    /// Duplicate submissions answered by attaching to an in-flight
    /// decode. With `shed`, `expired`, `decoded`, and `cache.hits`,
    /// partitions `submitted` exactly (counter conservation).
    pub coalesced: u64,
    /// Requests that ran the engine themselves.
    pub decoded: u64,
    /// Requests waiting for admission right now.
    pub queue_depth: usize,
    /// Live beam lanes per shard right now.
    pub shard_lanes: Vec<usize>,
    /// Lane budget each shard admits against.
    pub lane_capacity_per_shard: usize,
    /// Tokens decoded so far across all shards (one per live lane per
    /// engine step; cache hits decode nothing and add nothing).
    pub decode_tokens: u64,
    /// Kernel ISA tier the workers decode with ("scalar" / "avx2" /
    /// "vnni"), resolved once at runtime start.
    pub kernel_isa: &'static str,
    /// Effective-vs-requested tier: equals `kernel_isa` when the
    /// `SLADE_KERNEL_ISA` request (if any) was honored, otherwise e.g.
    /// `avx2 (requested vnni: unsupported)`.
    pub kernel_isa_status: String,
    /// Weight backend of the served model ("f32" / "int8").
    pub backend: &'static str,
    /// Median end-to-end latency (submit → response), milliseconds.
    /// Histogram-derived: within one bucket width (6.25% relative) above
    /// the true order statistic; likewise for every percentile below.
    pub p50_latency_ms: f64,
    /// 95th-percentile end-to-end latency, milliseconds.
    pub p95_latency_ms: f64,
    /// 99th-percentile end-to-end latency, milliseconds.
    pub p99_latency_ms: f64,
    /// Median time spent queued before admission, milliseconds.
    pub p50_queue_wait_ms: f64,
    /// 95th-percentile queue wait, milliseconds.
    pub p95_queue_wait_ms: f64,
    /// 99th-percentile queue wait, milliseconds.
    pub p99_queue_wait_ms: f64,
    /// Result-cache counters.
    pub cache: CacheStats,
}

impl MetricsSnapshot {
    /// Mean live-lane occupancy across shards as a fraction of capacity.
    pub fn lane_occupancy(&self) -> f64 {
        if self.shard_lanes.is_empty() || self.lane_capacity_per_shard == 0 {
            return 0.0;
        }
        let live: usize = self.shard_lanes.iter().sum();
        live as f64 / (self.shard_lanes.len() * self.lane_capacity_per_shard) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_and_occupancy() {
        let m = MetricsInner::new(2, 10, "scalar", "scalar".to_string(), "f32");
        for ms in 1..=100u64 {
            m.record_latency(Duration::from_millis(ms));
        }
        m.shard_lanes[0].store(5, Ordering::Relaxed);
        m.shard_lanes[1].store(10, Ordering::Relaxed);
        let snap = m.snapshot(CacheStats::default());
        assert_eq!(snap.completed, 100);
        // Histogram quantiles are bucket upper bounds: never below the
        // true order statistic, within one bucket width (6.25%) above.
        for (est, truth) in [
            (snap.p50_latency_ms, 50.0),
            (snap.p95_latency_ms, 95.0),
            (snap.p99_latency_ms, 99.0),
        ] {
            assert!(est >= truth, "estimate {est} below true {truth}");
            assert!(est <= truth * (1.0 + 1.0 / 16.0) + 0.01, "estimate {est} vs {truth}");
        }
        assert!((snap.lane_occupancy() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn queue_depth_saturates_instead_of_underflowing() {
        let m = MetricsInner::new(1, 4, "scalar", "scalar".to_string(), "f32");
        m.queue_depth.store(2, Ordering::Relaxed);
        m.queue_depth_sub(1);
        assert_eq!(m.queue_depth.load(Ordering::Relaxed), 1);
        // A racing shed/cancel decrement past zero clamps (release
        // behavior; debug builds additionally assert the race).
        if cfg!(debug_assertions) {
            let r =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.queue_depth_sub(5)));
            assert!(r.is_err(), "debug build must assert on underflow");
        } else {
            m.queue_depth_sub(5);
            assert_eq!(m.queue_depth.load(Ordering::Relaxed), 0);
        }
    }

    #[test]
    fn prometheus_text_is_well_formed() {
        let m = MetricsInner::new(2, 8, "scalar", "scalar".to_string(), "f32");
        m.submitted.store(7, Ordering::Relaxed);
        m.record_latency(Duration::from_millis(12));
        m.record_queue_wait(Duration::from_micros(300));
        m.decode_tokens.store(123, Ordering::Relaxed);
        let text = m.prometheus(CacheStats::default());
        let stats = slade_obs::export::validate_exposition(&text).expect("valid exposition");
        assert!(stats.families >= 20, "families: {}", stats.families);
        assert_eq!(stats.values["slade_requests_submitted_total"], 7.0);
        assert_eq!(stats.values["slade_decode_tokens_total"], 123.0);
        assert!(text.contains("slade_stage_decode_step_seconds_count"));
        assert!(text.contains(
            "slade_info{kernel_isa=\"scalar\",kernel_isa_status=\"scalar\",backend=\"f32\"} 1"
        ));
    }
}
