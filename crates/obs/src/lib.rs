//! Observability substrate for the SLaDe workspace.
//!
//! Three pieces, all wait-free on the hot path:
//!
//! * [`Counter`], [`Gauge`] and [`Histogram`] — metric values that carry
//!   their own family (name, help, type) and write themselves into one
//!   [`export::PromText`] per scrape; the histogram is log-bucketed
//!   (HDR-style) with bounded-error quantiles.
//! * [`TraceRing`] — a lock-free bounded ring of finished [`SpanRecord`]s
//!   giving each request a span tree (queue → admit → decode steps → BTC).
//! * [`export`] — the Prometheus text exposition and its validating
//!   parser.
//!
//! A process-wide registry ([`obs()`]) holds one histogram per pipeline
//! [`StageHist`], one counter per [`KernelCtr`], and the trace ring, so
//! `nn`/`core`/`eval` can record without threading handles through every
//! API. Tracing is on by default (what it costs is `slade-bench`'s
//! `obs.tracing_overhead_share`, DESIGN.md §11.3) and can be disabled at
//! runtime with [`set_tracing`] — when off, stage timers and span
//! recording reduce to one relaxed load and a branch.
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

pub use export::{Counter, Gauge};
pub use hist::{HistSnapshot, Histogram, BUCKETS, SUB_BUCKETS};
pub use trace::{render_tree, SpanRecord, Stage, TraceRing};

use serde::Serialize;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Declares a fieldless enum that indexes an array of metric values: per
/// variant its index, exporter label and family, with the variant's doc
/// comment as the family's help text — the one place the variant is
/// named. Generates `ALL` (index order), the `ROWS` the registry builds
/// its values from, and `name()`.
macro_rules! indexed_families {
    ($(#[$attr:meta])* pub enum $Enum:ident {
        $($(#[doc = $help:literal])+
          $Variant:ident = $index:literal => ($label:literal, $family:literal),)+
    }) => {
        $(#[$attr])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $Enum {
            $($(#[doc = $help])+ $Variant = $index,)+
        }

        impl $Enum {
            /// All variants, in index order.
            pub const ALL: [$Enum; [$($index),+].len()] = [$($Enum::$Variant),+];

            /// `(label, family, help)` per variant, in index order.
            const ROWS: [(&'static str, &'static str, &'static str); Self::ALL.len()] =
                [$(($label, $family, concat!($($help),+))),+];

            /// Exporter label (the stem of the family name).
            pub fn name(self) -> &'static str {
                Self::ROWS[self as usize].0
            }
        }
    };
}

indexed_families! {
    /// Pipeline stages with a dedicated timing histogram (µs). The engine's
    /// stages are exclusive: `Admit` starts when the encoder pass returns.
    pub enum StageHist {
        /// Batched encoder forward pass.
        Encode = 0 => ("encode", "slade_stage_encode_seconds"),
        /// One batched decode step.
        DecodeStep = 1 => ("decode_step", "slade_stage_decode_step_seconds"),
        /// Beam scoring per step (top-k + survivors).
        Score = 2 => ("score", "slade_stage_score_seconds"),
        /// Engine admission after the encoder pass (cross-KV, lane set-up).
        Admit = 3 => ("admit", "slade_stage_admit_seconds"),
        /// Tokenizing normalized assembly.
        Tokenize = 4 => ("tokenize", "slade_stage_tokenize_seconds"),
        /// Type-inference header synthesis.
        TypeInf = 5 => ("typeinf", "slade_stage_typeinf_seconds"),
        /// Candidate repair pass.
        Repair = 6 => ("repair", "slade_stage_repair_seconds"),
        /// IO judging (BTC verification).
        Judge = 7 => ("judge", "slade_stage_judge_seconds"),
    }
}

indexed_families! {
    /// Kernel-level event counters (cheap relaxed adds; no timing — timing a
    /// single projection or top-k call would cost more than the call).
    pub enum KernelCtr {
        /// Projection (matmul) invocations.
        ProjCalls = 0 => ("proj_calls", "slade_kernel_proj_calls_total"),
        /// Rows produced by projections.
        ProjRows = 1 => ("proj_rows", "slade_kernel_proj_rows_total"),
        /// Attention context computations.
        AttendCalls = 2 => ("attend_calls", "slade_kernel_attend_calls_total"),
        /// log-softmax top-k invocations.
        TopkCalls = 3 => ("topk_calls", "slade_kernel_topk_calls_total"),
        /// Sequence rows through the encoder.
        EncodeRows = 4 => ("encode_rows", "slade_kernel_encode_rows_total"),
        /// Lane-tokens advanced by decode steps.
        DecodeLaneTokens = 5 => ("decode_lane_tokens", "slade_kernel_decode_lane_tokens_total"),
        /// Requests over the SLADE_SLOW_MS threshold.
        SlowRequests = 6 => ("slow_requests", "slade_slow_requests_total"),
        /// Self-attention K/V rows copied by beam reorders (shared tail blocks).
        KvCowRows = 7 => ("kv_cow_rows", "slade_kernel_kv_cow_rows_total"),
    }
}

/// Process-wide observability state; obtain via [`obs()`].
pub struct Obs {
    stages: [Histogram; StageHist::ALL.len()],
    counters: [Counter; KernelCtr::ALL.len()],
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
    OBS.get_or_init(|| Obs {
        stages: StageHist::ROWS.map(|(_, family, help)| Histogram::new(family, help)),
        counters: KernelCtr::ROWS.map(|(_, family, help)| Counter::new(family, help)),
        ring: TraceRing::new(env_u64("SLADE_TRACE_RING", 8192) as usize),
        enabled: AtomicBool::new(true),
        epoch: Instant::now(),
        next_trace: AtomicU64::new(1),
        slow_us: env_u64("SLADE_SLOW_MS", 1000).saturating_mul(1000),
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

    /// Bumps a kernel counter (no-op when tracing is disabled).
    #[inline]
    pub fn count(&self, c: KernelCtr, n: u64) {
        if self.enabled() {
            self.counters[c as usize].add(n);
        }
    }

    /// Current value of a kernel counter.
    pub fn counter(&self, c: KernelCtr) -> u64 {
        self.counters[c as usize].get()
    }

    /// Writes every stage histogram and kernel counter into the scrape.
    pub fn expose(&self, p: &mut export::PromText) {
        self.stages.iter().for_each(|h| h.expose(p));
        self.counters.iter().for_each(|c| c.expose(p));
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

/// Per-stage aggregate for JSON export (`slade-cli stats --json`).
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
        o.stage(StageHist::Encode).record(150);
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

    /// `families.txt` is every family a process can expose (the serve and
    /// gateway suites hold their documents equal to it), so naming rules
    /// checked on it hold for the whole surface.
    #[test]
    fn committed_families_are_unique_and_well_named() {
        let rows: Vec<(&str, &str)> = include_str!("../families.txt")
            .lines()
            .map(|l| {
                let rest = l.strip_prefix("# TYPE ").expect("a `# TYPE` line");
                rest.split_once(' ').expect("family and type")
            })
            .collect();
        for pair in rows.windows(2) {
            assert!(pair[0].0 < pair[1].0, "unsorted or duplicate: {pair:?}");
        }
        for (family, kind) in &rows {
            let tail = family.strip_prefix("slade_").unwrap_or("");
            let well_named = !tail.is_empty()
                && tail.chars().all(|c| matches!(c, 'a'..='z' | '0'..='9' | '_'));
            assert!(well_named, "`{family}` is not ^slade_[a-z0-9_]+$");
            assert!(["counter", "gauge", "histogram"].contains(kind), "{family}: `{kind}`");
            assert_eq!(family.ends_with("_total"), *kind == "counter", "{family} is a {kind}");
        }
        // This crate's own rows sit at their variant's index.
        assert!(StageHist::ALL.iter().enumerate().all(|(i, s)| *s as usize == i));
        assert!(KernelCtr::ALL.iter().enumerate().all(|(i, c)| *c as usize == i));
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
