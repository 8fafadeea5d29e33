//! Serving metrics: always-on counters, gauges and two wait-free latency
//! histograms, each a `slade_obs` value that carries its own family.
//! `MetricsInner::expose` writes them into the scrape's one document
//! ([`crate::ServeRuntime::expose`]); [`MetricsSnapshot`] is the typed
//! copy that tests, `slade-cli stats` and the benchmark read. Recording
//! takes no lock and neither does a snapshot, so a scrape can never stall
//! a decode worker.

use crate::cache::{CacheStats, ResultCache};
use serde::Serialize;
use slade_obs::export::PromText;
use std::sync::atomic::{AtomicUsize, Ordering};

slade_obs::metrics! {
    /// Shared mutable metrics state (one per runtime).
    #[derive(Debug)]
    pub(crate) struct MetricsInner {
        /// Requests accepted (cache hits included).
        pub submitted: Counter("slade_requests_submitted_total"),
        /// Requests answered (cache hits included).
        pub completed: Counter("slade_requests_completed_total"),
        /// Submissions rejected by bounded admission (queue at cap).
        pub shed: Counter("slade_shed_total"),
        /// Requests whose deadline expired before a result.
        pub expired: Counter("slade_expired_total"),
        /// Duplicate submissions attached to an in-flight decode.
        pub coalesced: Counter("slade_coalesced_total"),
        /// Requests that ran the engine themselves.
        pub decoded: Counter("slade_decoded_total"),
        /// Tokens decoded across all shards (lanes x steps).
        pub decode_tokens: Counter("slade_decode_tokens_total"),
        /// Requests waiting for admission right now.
        pub queue_depth: Gauge("slade_queue_depth"),
        /// End-to-end latency, submit to response.
        latency: Histogram("slade_request_latency_seconds"),
        /// Time queued before admission.
        queue_wait: Histogram("slade_queue_wait_seconds"),
        ;
        /// Per-shard gauges, each stored by its worker after every step.
        pub shards: Vec<ShardGauges>,
        pub lane_capacity: usize,
        /// Kernel ISA tier the workers decode with (resolved once at start).
        pub kernel_isa: &'static str,
        /// Effective-vs-requested tier, e.g. `scalar (requested avx2:
        /// unsupported)` when `SLADE_KERNEL_ISA` asked for something the host
        /// cannot run; equals `kernel_isa` when the request was satisfied.
        pub kernel_isa_status: String,
    }
}

/// One shard's decode-session gauges.
#[derive(Debug, Default)]
pub(crate) struct ShardGauges {
    pub lanes: AtomicUsize,
    pub kv_blocks_held: AtomicUsize,
    pub kv_blocks_allocated: AtomicUsize,
}

impl MetricsInner {
    /// Counts one answered request with its end-to-end latency in µs.
    pub fn record_latency(&self, elapsed_us: u64) {
        self.completed.add(1);
        self.latency.record(elapsed_us);
    }

    pub fn record_queue_wait(&self, waited_us: u64) {
        self.queue_wait.record(waited_us);
    }

    /// One gauge's value on every shard.
    fn per_shard(&self, gauge: fn(&ShardGauges) -> &AtomicUsize) -> Vec<usize> {
        self.shards.iter().map(|g| gauge(g).load(Ordering::Relaxed)).collect()
    }

    pub fn snapshot(&self, cache: CacheStats) -> MetricsSnapshot {
        // Copy out first, then compute: quantiles run on the snapshot, so
        // a slow scrape never holds anything a worker records through.
        let latency = self.latency.snapshot();
        let queue_wait = self.queue_wait.snapshot();
        let us = |v: u64| v as f64 / 1e3;
        MetricsSnapshot {
            submitted: self.submitted.get(),
            completed: self.completed.get(),
            shed: self.shed.get(),
            expired: self.expired.get(),
            coalesced: self.coalesced.get(),
            decoded: self.decoded.get(),
            queue_depth: self.queue_depth.get() as usize,
            shard_lanes: self.per_shard(|g| &g.lanes),
            shard_kv_blocks_held: self.per_shard(|g| &g.kv_blocks_held),
            shard_kv_blocks_allocated: self.per_shard(|g| &g.kv_blocks_allocated),
            lane_capacity_per_shard: self.lane_capacity,
            decode_tokens: self.decode_tokens.get(),
            kernel_isa: self.kernel_isa,
            kernel_isa_status: self.kernel_isa_status.clone(),
            p50_latency_ms: us(latency.quantile(0.50)),
            p95_latency_ms: us(latency.quantile(0.95)),
            p99_latency_ms: us(latency.quantile(0.99)),
            p50_queue_wait_ms: us(queue_wait.quantile(0.50)),
            p95_queue_wait_ms: us(queue_wait.quantile(0.95)),
            p99_queue_wait_ms: us(queue_wait.quantile(0.99)),
            cache,
        }
    }

    /// Writes the runtime's whole surface into the scrape: admission
    /// counters, queue and lane gauges, both latency histograms,
    /// `slade_conservation_drift` ([`MetricsSnapshot::unaccounted`] as of
    /// this scrape) and `slade_info` here, then `cache`'s families and the process-wide
    /// stage histograms and kernel counters.
    pub fn expose(&self, cache: &ResultCache, p: &mut PromText) {
        self.expose_declared(p);
        let mut series = |name, help, gauge: fn(&ShardGauges) -> &AtomicUsize| {
            let values: Vec<(String, f64)> = self
                .per_shard(gauge)
                .iter()
                .enumerate()
                .map(|(i, &v)| (i.to_string(), v as f64))
                .collect();
            p.gauge_series(name, help, "shard", &values);
        };
        series("slade_shard_lanes", "Live beam lanes per shard.", |g| &g.lanes);
        series(
            "slade_shard_kv_blocks_held",
            "Self-attention KV blocks live lanes hold, per shard; 0 when idle.",
            |g| &g.kv_blocks_held,
        );
        series(
            "slade_shard_kv_blocks_allocated",
            "Self-attention KV blocks allocated per shard: grows with the blocks lanes take.",
            |g| &g.kv_blocks_allocated,
        );
        p.gauge(
            "slade_lane_capacity_per_shard",
            "Lane budget each shard admits against.",
            self.lane_capacity as f64,
        );
        // The identity the tests assert at quiescence, as an alert: it reads
        // the requests in flight while there are some, 0 once they drain,
        // and anything else then is a terminal counted twice or never.
        p.gauge(
            "slade_conservation_drift",
            "Submissions without a terminal state (in flight, or miscounted); 0 when idle.",
            self.snapshot(cache.stats()).unaccounted() as f64,
        );
        p.info(
            "slade_info",
            "Serving configuration.",
            &[
                ("kernel_isa", self.kernel_isa),
                ("kernel_isa_status", self.kernel_isa_status.as_str()),
            ],
        );
        cache.expose(p);
        slade_obs::obs().expose(p);
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
    /// ([`crate::Overloaded`]).
    pub shed: u64,
    /// Requests whose deadline expired before a result was ready
    /// ([`crate::RequestError::DeadlineExceeded`]).
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
    /// Self-attention KV blocks live lanes hold, per shard (0 when idle).
    pub shard_kv_blocks_held: Vec<usize>,
    /// Self-attention KV blocks each shard's pool has allocated: grows with
    /// the blocks its lanes take, up to a full table per budgeted lane.
    pub shard_kv_blocks_allocated: Vec<usize>,
    /// Lane budget each shard admits against.
    pub lane_capacity_per_shard: usize,
    /// Tokens decoded so far across all shards (one per live lane per
    /// engine step; cache hits decode nothing and add nothing).
    pub decode_tokens: u64,
    /// Kernel ISA tier the workers decode with ("scalar" / "avx2"),
    /// resolved once at runtime start.
    pub kernel_isa: &'static str,
    /// Effective-vs-requested tier: equals `kernel_isa` when the
    /// `SLADE_KERNEL_ISA` request (if any) was honored, otherwise e.g.
    /// `scalar (requested avx2: unsupported)`.
    pub kernel_isa_status: String,
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
    /// Submissions with no terminal state yet: `submitted − shed − expired
    /// − coalesced − decoded − cache.hits`. Zero whenever nothing is in
    /// flight (counter conservation); negative means one was counted
    /// twice.
    pub fn unaccounted(&self) -> i64 {
        let terminal =
            self.shed + self.expired + self.coalesced + self.decoded + self.cache.hits;
        self.submitted as i64 - terminal as i64
    }

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

    fn test_metrics(shards: usize, lane_capacity: usize) -> MetricsInner {
        let gauges = (0..shards).map(|_| ShardGauges::default()).collect();
        MetricsInner::new(gauges, lane_capacity, "scalar", "scalar".to_string())
    }

    #[test]
    fn percentiles_and_occupancy() {
        let m = test_metrics(2, 10);
        for ms in 1..=100u64 {
            m.record_latency(ms * 1000);
        }
        m.shards[0].lanes.store(5, Ordering::Relaxed);
        m.shards[1].lanes.store(10, Ordering::Relaxed);
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
        let m = test_metrics(1, 4);
        m.queue_depth.set(2);
        m.queue_depth.sub_saturating(1);
        assert_eq!(m.queue_depth.get(), 1);
        // A racing shed/cancel decrement past zero clamps (release
        // behavior; debug builds additionally assert the race).
        if cfg!(debug_assertions) {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                m.queue_depth.sub_saturating(5)
            }));
            assert!(r.is_err(), "debug build must assert on underflow");
        } else {
            m.queue_depth.sub_saturating(5);
            assert_eq!(m.queue_depth.get(), 0);
        }
    }

    #[test]
    fn prometheus_text_is_well_formed() {
        let m = test_metrics(2, 8);
        m.submitted.add(7);
        m.record_latency(12_000);
        m.record_queue_wait(300);
        m.decode_tokens.add(123);
        let mut p = PromText::new();
        m.expose(&ResultCache::new(0), &mut p);
        let text = p.finish();
        let stats = slade_obs::export::validate_exposition(&text).expect("valid exposition");
        assert_eq!(stats.values["slade_requests_submitted_total"], 7.0);
        assert_eq!(stats.values["slade_decode_tokens_total"], 123.0);
        assert!(text.contains("slade_stage_decode_step_seconds_count"));
        assert!(
            text.contains("slade_info{kernel_isa=\"scalar\",kernel_isa_status=\"scalar\"} 1")
        );
        // The runtime's document is exactly the committed family list
        // minus the gateway's part: a dropped, renamed or re-typed family
        // fails here.
        let want: Vec<&str> = include_str!("../../obs/families.txt")
            .lines()
            .filter(|l| !l.contains(" slade_gateway_"))
            .collect();
        assert_eq!(slade_obs::export::type_lines(&text), want);
    }
}
