//! Observability substrate for the SLaDe workspace.
//!
//! Three pieces, all wait-free on the hot path:
//!
//! * [`Histogram`] — log-bucketed (HDR-style) atomic histograms with
//!   bounded-error quantiles, replacing the old `Mutex<Reservoir>`
//!   percentiles in `slade_serve`.
//! * [`TraceRing`] — a lock-free bounded ring of finished [`SpanRecord`]s
//!   giving each request a span tree (queue → admit → decode steps → BTC).
//! * [`export`] — Prometheus text exposition plus a JSON dump.
//!
//! A process-wide registry ([`obs()`]) holds one histogram per pipeline
//! [`StageHist`], one counter per [`KernelCtr`], and the trace ring, so
//! `nn`/`core`/`eval` can record without threading handles through every
//! API. Tracing is on by default (measured overhead is <1% decode tok/s;
//! see `BENCH_serve.json`) and can be disabled at runtime with
//! [`set_tracing`] — when off, stage timers and span recording reduce to
//! one relaxed load and a branch.
//!
//! Knobs (read once at first use):
//!
//! * `SLADE_TRACE_RING` — trace ring capacity in spans (default 8192).
//! * `SLADE_SLOW_MS` — slow-request log threshold in ms (default 1000;
//!   `0` disables the log).

#![warn(missing_docs)]

pub mod export;
pub mod hist;
pub mod trace;

pub use hist::{HistSnapshot, Histogram, BUCKETS, SUB_BUCKETS};
pub use trace::{render_tree, SpanRecord, Stage, TraceRing};

use serde::Serialize;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Pipeline stages with a dedicated timing histogram (µs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageHist {
    /// Encoder forward pass over a batch (per batch).
    Encode = 0,
    /// One batched decode step across all live lanes.
    DecodeStep = 1,
    /// Beam scoring per step: top-k + survivor selection.
    Score = 2,
    /// Engine admission: batched encode + cross-memory registration.
    Admit = 3,
    /// Tokenization of normalized assembly (per batch).
    Tokenize = 4,
    /// Type-inference header synthesis (per example).
    TypeInf = 5,
    /// Candidate repair pass (per example).
    Repair = 6,
    /// IO judging / BTC verification (per example).
    Judge = 7,
}

const STAGE_HISTS: usize = 8;

impl StageHist {
    /// All stages, in index order.
    pub const ALL: [StageHist; STAGE_HISTS] = [
        StageHist::Encode,
        StageHist::DecodeStep,
        StageHist::Score,
        StageHist::Admit,
        StageHist::Tokenize,
        StageHist::TypeInf,
        StageHist::Repair,
        StageHist::Judge,
    ];

    /// Exporter label (also the Prometheus metric stem).
    pub fn name(self) -> &'static str {
        match self {
            StageHist::Encode => "encode",
            StageHist::DecodeStep => "decode_step",
            StageHist::Score => "score",
            StageHist::Admit => "admit",
            StageHist::Tokenize => "tokenize",
            StageHist::TypeInf => "typeinf",
            StageHist::Repair => "repair",
            StageHist::Judge => "judge",
        }
    }
}

/// Kernel-level event counters (cheap relaxed adds; no timing — timing a
/// single projection or top-k call would cost more than the call).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelCtr {
    /// Projection (matmul head/ffn) invocations.
    ProjCalls = 0,
    /// Rows produced by projections.
    ProjRows = 1,
    /// Attention context computations.
    AttendCalls = 2,
    /// log-softmax top-k invocations.
    TopkCalls = 3,
    /// Sequence rows pushed through the encoder.
    EncodeRows = 4,
    /// Lane-tokens advanced by decode steps (lanes × steps).
    DecodeLaneTokens = 5,
    /// Requests that exceeded the `SLADE_SLOW_MS` threshold.
    SlowRequests = 6,
    /// Self-attention K/V rows (per layer per tensor) a beam reorder
    /// copied: the filled rows of tail blocks two survivors shared.
    KvCowRows = 7,
}

const KERNEL_CTRS: usize = 8;

impl KernelCtr {
    /// All counters, in index order.
    pub const ALL: [KernelCtr; KERNEL_CTRS] = [
        KernelCtr::ProjCalls,
        KernelCtr::ProjRows,
        KernelCtr::AttendCalls,
        KernelCtr::TopkCalls,
        KernelCtr::EncodeRows,
        KernelCtr::DecodeLaneTokens,
        KernelCtr::SlowRequests,
        KernelCtr::KvCowRows,
    ];

    /// Exporter label.
    pub fn name(self) -> &'static str {
        match self {
            KernelCtr::ProjCalls => "proj_calls",
            KernelCtr::ProjRows => "proj_rows",
            KernelCtr::AttendCalls => "attend_calls",
            KernelCtr::TopkCalls => "topk_calls",
            KernelCtr::EncodeRows => "encode_rows",
            KernelCtr::DecodeLaneTokens => "decode_lane_tokens",
            KernelCtr::SlowRequests => "slow_requests",
            KernelCtr::KvCowRows => "kv_cow_rows",
        }
    }
}

/// Process-wide observability state; obtain via [`obs()`].
pub struct Obs {
    stages: [Histogram; STAGE_HISTS],
    counters: [AtomicU64; KERNEL_CTRS],
    ring: TraceRing,
    enabled: AtomicBool,
    epoch: Instant,
    next_trace: AtomicU64,
    slow_us: u64,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.enabled.load(Ordering::Relaxed))
            .field("ring_capacity", &self.ring.capacity())
            .finish()
    }
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.trim().parse().ok()).unwrap_or(default)
}

static OBS: OnceLock<Obs> = OnceLock::new();

/// The process-wide registry. First call reads `SLADE_TRACE_RING` and
/// `SLADE_SLOW_MS` and fixes the configuration for the process lifetime.
pub fn obs() -> &'static Obs {
    OBS.get_or_init(|| {
        #[allow(clippy::declare_interior_mutable_const)]
        const H: Histogram = Histogram::new();
        #[allow(clippy::declare_interior_mutable_const)]
        const Z: AtomicU64 = AtomicU64::new(0);
        Obs {
            stages: [H; STAGE_HISTS],
            counters: [Z; KERNEL_CTRS],
            ring: TraceRing::new(env_u64("SLADE_TRACE_RING", 8192) as usize),
            enabled: AtomicBool::new(true),
            epoch: Instant::now(),
            next_trace: AtomicU64::new(1),
            slow_us: env_u64("SLADE_SLOW_MS", 1000).saturating_mul(1000),
        }
    })
}

impl Obs {
    /// Whether tracing/stage-timing is currently enabled.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The timing histogram for a stage.
    pub fn stage(&self, s: StageHist) -> &Histogram {
        &self.stages[s as usize]
    }

    /// Records a stage duration in µs (no-op when tracing is disabled).
    #[inline]
    pub fn record_stage(&self, s: StageHist, dur_us: u64) {
        if self.enabled() {
            self.stages[s as usize].record(dur_us);
        }
    }

    /// Bumps a kernel counter (no-op when tracing is disabled).
    #[inline]
    pub fn count(&self, c: KernelCtr, n: u64) {
        if self.enabled() {
            self.counters[c as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value of a kernel counter.
    pub fn counter(&self, c: KernelCtr) -> u64 {
        self.counters[c as usize].load(Ordering::Relaxed)
    }

    /// The span ring.
    pub fn ring(&self) -> &TraceRing {
        &self.ring
    }

    /// Records a finished span (no-op when tracing is disabled).
    #[inline]
    pub fn record_span(&self, rec: SpanRecord) {
        if self.enabled() {
            self.ring.record(rec);
        }
    }

    /// Microseconds since the process observability epoch.
    #[inline]
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Allocates a fresh trace id (process-unique, never 0).
    pub fn next_trace_id(&self) -> u64 {
        self.next_trace.fetch_add(1, Ordering::Relaxed)
    }

    /// Slow-request threshold in µs; 0 when the slow log is disabled.
    pub fn slow_threshold_us(&self) -> u64 {
        self.slow_us
    }

    /// JSON-serializable dump of every stage histogram and counter.
    pub fn stage_snapshot(&self) -> StageBreakdown {
        StageBreakdown {
            stages: StageHist::ALL
                .iter()
                .map(|&s| {
                    let snap = self.stage(s).snapshot();
                    StageSummary {
                        stage: s.name(),
                        count: snap.count,
                        total_us: snap.sum,
                        mean_us: snap.mean(),
                        p50_us: snap.quantile(0.50),
                        p95_us: snap.quantile(0.95),
                        p99_us: snap.quantile(0.99),
                    }
                })
                .collect(),
            counters: KernelCtr::ALL.iter().map(|&c| (c.name(), self.counter(c))).collect(),
        }
    }
}

/// Enables or disables all tracing/stage-timing process-wide.
pub fn set_tracing(on: bool) {
    obs().enabled.store(on, Ordering::Relaxed);
}

/// Whether tracing is currently enabled.
pub fn tracing_enabled() -> bool {
    obs().enabled()
}

/// Per-stage aggregate for JSON export (the BENCH_serve.json
/// stage-breakdown section and `slade-cli stats --json`).
#[derive(Debug, Clone, Serialize)]
pub struct StageSummary {
    /// Stage label.
    pub stage: &'static str,
    /// Samples recorded.
    pub count: u64,
    /// Total time in µs.
    pub total_us: u64,
    /// Mean duration in µs.
    pub mean_us: f64,
    /// Median in µs.
    pub p50_us: u64,
    /// 95th percentile in µs.
    pub p95_us: u64,
    /// 99th percentile in µs.
    pub p99_us: u64,
}

/// Full stage/counter dump.
#[derive(Debug, Clone, Serialize)]
pub struct StageBreakdown {
    /// One summary per [`StageHist`].
    pub stages: Vec<StageSummary>,
    /// `(name, value)` per [`KernelCtr`].
    pub counters: Vec<(&'static str, u64)>,
}

/// RAII stage timer: records elapsed µs into the stage histogram on drop.
/// Costs one relaxed load + branch when tracing is off.
#[derive(Debug)]
pub struct StageTimer {
    stage: StageHist,
    start: Option<Instant>,
}

impl StageTimer {
    /// Starts timing `stage` (inert when tracing is disabled).
    #[inline]
    pub fn start(stage: StageHist) -> Self {
        let start = if obs().enabled() { Some(Instant::now()) } else { None };
        StageTimer { stage, start }
    }

    /// Elapsed µs so far (0 when inert).
    pub fn elapsed_us(&self) -> u64 {
        self.start.map(|s| s.elapsed().as_micros() as u64).unwrap_or(0)
    }
}

impl Drop for StageTimer {
    #[inline]
    fn drop(&mut self) {
        if let Some(start) = self.start {
            obs().stage(self.stage).record(start.elapsed().as_micros() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_records_and_snapshots() {
        let o = obs();
        o.record_stage(StageHist::Encode, 150);
        o.count(KernelCtr::ProjCalls, 3);
        let snap = o.stage_snapshot();
        let enc = snap.stages.iter().find(|s| s.stage == "encode").unwrap();
        assert!(enc.count >= 1);
        let proj = snap.counters.iter().find(|(n, _)| *n == "proj_calls").unwrap();
        assert!(proj.1 >= 3);
        // The dump serializes.
        let js = serde_json::to_string(&snap).unwrap();
        assert!(js.contains("decode_step"));
    }

    #[test]
    fn stage_timer_records_on_drop() {
        let before = obs().stage(StageHist::Judge).count();
        {
            let _t = StageTimer::start(StageHist::Judge);
        }
        assert_eq!(obs().stage(StageHist::Judge).count(), before + 1);
    }

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let a = obs().next_trace_id();
        let b = obs().next_trace_id();
        assert!(a != 0 && b != 0 && a != b);
    }
}
