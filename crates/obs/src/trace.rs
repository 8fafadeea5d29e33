//! Lock-free bounded trace ring.
//!
//! Finished spans are written into a fixed-capacity ring that overwrites
//! oldest-first, so tracing every request costs bounded memory and no
//! allocation on the hot path. Writers claim a slot with one `fetch_add`
//! and publish via a per-slot sequence word (seqlock protocol); readers
//! copy a slot and validate the sequence was stable, so a torn read is
//! detected and discarded, never returned. Every slot field is an atomic
//! word — no locks, no `unsafe`.
//!
//! Slot protocol (capacity `cap`, slot `i` serves tickets `t ≡ i mod
//! cap`): the sequence word starts at `i`; a writer with ticket `t` spins
//! (bounded) until it reads `t`, stores `t + 1` ("writing"), stores the
//! five record words, then stores `t + cap` ("published for this lap",
//! which is the *next* lap's expected ticket). Readers accept a slot only
//! when the sequence reads the same published value (`≥ cap` and `≡ i mod
//! cap`) before and after the field copy. A marker `t + 1` can never
//! equal a published value of the same slot because `t + 1 ≢ i (mod
//! cap)` for `cap > 1`.

use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};

/// Declares [`Stage`] from one table of variants and labels, so `ALL`,
/// [`Stage::name`] and the ring's decoding read the same rows and a stage
/// added later cannot decode to nothing.
macro_rules! stages {
    ($($(#[doc = $help:literal])+ $Variant:ident => $label:literal,)+) => {
        /// Pipeline stage a span measures. The numeric value (the row's
        /// place in the table) is the wire encoding inside the ring; the
        /// name is the exporter/CLI label.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
        #[repr(u16)]
        pub enum Stage {
            $($(#[doc = $help])+ $Variant,)+
        }

        impl Stage {
            /// All stages, in wire order.
            const ALL: [Stage; [$($label),+].len()] = [$(Stage::$Variant),+];

            /// Label per stage, in wire order.
            const NAMES: [&'static str; Self::ALL.len()] = [$($label),+];
        }
    };
}

stages! {
    /// Whole request, submit → response (root span).
    Request => "request",
    /// Waiting in the admission queue.
    Queue => "queue",
    /// Result-cache probe.
    Cache => "cache",
    /// Tokenizing normalized assembly.
    Tokenize => "tokenize",
    /// Encoder pass + cross-KV registration (engine admission).
    Encode => "encode",
    /// Decode loop, admission → final token.
    Decode => "decode",
    /// One batched decode step (all live lanes advance one token).
    DecodeStep => "decode_step",
    /// Beam scoring: log-softmax top-k + survivor selection.
    Score => "score",
    /// Type-inference header synthesis (eval).
    TypeInf => "typeinf",
    /// Candidate repair pass (eval).
    Repair => "repair",
    /// IO judging of one hypothesis set — the BTC verification stage.
    Judge => "judge",
    /// Per-example root span in the eval harness.
    Example => "example",
    /// A duplicate in-flight submission attached to a running decode
    /// (one span per attached waiter, attach → fan-out delivery;
    /// `detail` carries the leader request's trace id).
    Coalesce => "coalesce",
    /// A submission rejected by bounded admission (queue at capacity).
    Shed => "shed",
}

impl Stage {
    /// Exporter / CLI label.
    pub fn name(self) -> &'static str {
        Self::NAMES[self as usize]
    }

    fn from_u16(v: u16) -> Option<Stage> {
        Self::ALL.get(v as usize).copied()
    }
}

/// One finished span. `span_id` is unique within its trace; `parent` is
/// the parent's span id (`0` = root). Times are microseconds since the
/// process-wide observability epoch ([`crate::Obs::now_us`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SpanRecord {
    /// Request/trace id the span belongs to.
    pub trace_id: u64,
    /// Id of this span within the trace (1-based).
    pub span_id: u32,
    /// Parent span id, `0` for the root.
    pub parent: u32,
    /// Stage this span measures.
    pub stage: Stage,
    /// Start, µs since the observability epoch.
    pub start_us: u64,
    /// Duration in µs.
    pub dur_us: u64,
    /// Stage-specific payload (decode: steps; decode_step: live lanes;
    /// request: 1 for a cache hit).
    pub detail: u64,
}

/// Field words per slot (trace_id, packed ids, start, dur, detail).
const FIELDS: usize = 5;

struct Slot {
    seq: AtomicU64,
    f: [AtomicU64; FIELDS],
}

/// Bounded overwrite-oldest span ring (see module docs).
pub struct TraceRing {
    slots: Box<[Slot]>,
    head: AtomicU64,
}

fn pack_ids(span_id: u32, parent: u32, stage: Stage) -> u64 {
    ((span_id as u64) << 32) | ((parent as u64 & 0xffff) << 16) | stage as u64
}

impl TraceRing {
    /// A ring holding up to `capacity` spans (clamped to ≥ 2).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(2);
        let slots = (0..capacity)
            .map(|i| Slot { seq: AtomicU64::new(i as u64), f: Default::default() })
            .collect();
        TraceRing { slots, head: AtomicU64::new(0) }
    }

    /// Slots in the ring.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Spans ever recorded (monotonic; exceeds capacity once wrapped).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Records one span. Lock-free: claims a slot by ticket and publishes
    /// through the slot's sequence word; if a full lap of writers
    /// overtakes a stalled slot (pathological), the span is dropped
    /// rather than blocking.
    pub fn record(&self, rec: SpanRecord) {
        let cap = self.slots.len() as u64;
        let t = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(t % cap) as usize];
        // Wait for the previous lap's writer to publish; bounded spin.
        let mut spins = 0u32;
        while slot.seq.load(Ordering::Acquire) != t {
            std::hint::spin_loop();
            spins += 1;
            if spins > 10_000 {
                return; // drop rather than stall the worker
            }
        }
        slot.seq.store(t + 1, Ordering::Release);
        slot.f[0].store(rec.trace_id, Ordering::Relaxed);
        slot.f[1].store(pack_ids(rec.span_id, rec.parent, rec.stage), Ordering::Relaxed);
        slot.f[2].store(rec.start_us, Ordering::Relaxed);
        slot.f[3].store(rec.dur_us, Ordering::Relaxed);
        slot.f[4].store(rec.detail, Ordering::Relaxed);
        slot.seq.store(t + cap, Ordering::Release);
    }

    /// Copies out every published span, oldest first by slot lap. Spans
    /// mid-overwrite are skipped (seqlock validation), never torn.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let cap = self.slots.len() as u64;
        let mut out: Vec<(u64, SpanRecord)> = Vec::new();
        for (i, slot) in self.slots.iter().enumerate() {
            let s1 = slot.seq.load(Ordering::Acquire);
            // Published values are ≥ cap and ≡ i (mod cap).
            if s1 < cap || !(s1 - i as u64).is_multiple_of(cap) {
                continue;
            }
            let trace_id = slot.f[0].load(Ordering::Relaxed);
            let packed = slot.f[1].load(Ordering::Relaxed);
            let start_us = slot.f[2].load(Ordering::Relaxed);
            let dur_us = slot.f[3].load(Ordering::Relaxed);
            let detail = slot.f[4].load(Ordering::Relaxed);
            std::sync::atomic::fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != s1 {
                continue; // overwritten while copying
            }
            let Some(stage) = Stage::from_u16((packed & 0xffff) as u16) else { continue };
            out.push((
                s1, // publish ticket + cap: orders slots by lap
                SpanRecord {
                    trace_id,
                    span_id: (packed >> 32) as u32,
                    parent: ((packed >> 16) & 0xffff) as u32,
                    stage,
                    start_us,
                    dur_us,
                    detail,
                },
            ));
        }
        out.sort_by_key(|(ticket, _)| *ticket);
        out.into_iter().map(|(_, r)| r).collect()
    }

    /// Every published span of one trace, in recording order.
    pub fn for_trace(&self, trace_id: u64) -> Vec<SpanRecord> {
        self.snapshot().into_iter().filter(|s| s.trace_id == trace_id).collect()
    }
}

/// Renders one trace's spans as an indented tree, children under their
/// parents in start order — the `slade-cli trace` output.
pub fn render_tree(spans: &[SpanRecord]) -> String {
    let mut out = String::new();
    let mut spans = spans.to_vec();
    spans.sort_by_key(|s| (s.start_us, s.span_id));
    fn emit(out: &mut String, spans: &[SpanRecord], parent: u32, depth: usize) {
        if depth > 16 {
            return; // malformed parent links cannot recurse unboundedly
        }
        for s in spans.iter().filter(|s| s.parent == parent) {
            out.push_str(&"  ".repeat(depth));
            out.push_str(&format!(
                "{} start={}us dur={}us detail={}\n",
                s.stage.name(),
                s.start_us,
                s.dur_us,
                s.detail
            ));
            if s.span_id != parent {
                emit(out, spans, s.span_id, depth + 1);
            }
        }
    }
    emit(&mut out, &spans, 0, 0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, id: u32, parent: u32, stage: Stage, start: u64) -> SpanRecord {
        SpanRecord {
            trace_id: trace,
            span_id: id,
            parent,
            stage,
            start_us: start,
            dur_us: 10,
            detail: 0,
        }
    }

    #[test]
    fn roundtrips_and_overwrites_oldest() {
        let ring = TraceRing::new(4);
        for i in 0..6u64 {
            ring.record(span(i, 1, 0, Stage::Request, i));
        }
        let got = ring.snapshot();
        assert_eq!(got.len(), 4);
        // Oldest two (traces 0, 1) were overwritten.
        let traces: Vec<u64> = got.iter().map(|s| s.trace_id).collect();
        assert_eq!(traces, vec![2, 3, 4, 5]);
        assert_eq!(ring.recorded(), 6);
    }

    #[test]
    fn filters_by_trace() {
        let ring = TraceRing::new(16);
        ring.record(span(7, 1, 0, Stage::Request, 0));
        ring.record(span(7, 2, 1, Stage::Queue, 1));
        ring.record(span(8, 1, 0, Stage::Request, 2));
        let t7 = ring.for_trace(7);
        assert_eq!(t7.len(), 2);
        assert!(t7.iter().all(|s| s.trace_id == 7));
    }

    #[test]
    fn concurrent_writers_never_tear() {
        let ring = std::sync::Arc::new(TraceRing::new(64));
        let mut handles = Vec::new();
        for w in 0..4u64 {
            let ring = std::sync::Arc::clone(&ring);
            handles.push(std::thread::spawn(move || {
                for i in 0..2_000u64 {
                    // Self-consistent record: every field derives from one
                    // value, so a torn read would be detectable.
                    ring.record(SpanRecord {
                        trace_id: w * 10_000 + i,
                        span_id: (i % 100) as u32 + 1,
                        parent: 0,
                        stage: Stage::DecodeStep,
                        start_us: w * 10_000 + i,
                        dur_us: w * 10_000 + i,
                        detail: w * 10_000 + i,
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for s in ring.snapshot() {
            assert_eq!(s.trace_id, s.start_us, "torn span: {s:?}");
            assert_eq!(s.trace_id, s.dur_us, "torn span: {s:?}");
            assert_eq!(s.trace_id, s.detail, "torn span: {s:?}");
        }
        assert_eq!(ring.recorded(), 8_000);
    }

    #[test]
    fn every_stage_reads_back() {
        let ring = TraceRing::new(2 * Stage::ALL.len());
        for (i, &stage) in Stage::ALL.iter().enumerate() {
            ring.record(span(1, i as u32 + 1, 0, stage, i as u64));
        }
        let got: Vec<Stage> = ring.snapshot().iter().map(|s| s.stage).collect();
        assert_eq!(got, Stage::ALL);
        let names: std::collections::HashSet<&str> = got.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), Stage::ALL.len(), "one label per stage");
    }

    #[test]
    fn tree_renders_nested() {
        let spans = vec![
            span(1, 1, 0, Stage::Request, 0),
            span(1, 2, 1, Stage::Queue, 1),
            span(1, 3, 1, Stage::Decode, 2),
            span(1, 4, 3, Stage::DecodeStep, 3),
        ];
        let tree = render_tree(&spans);
        let lines: Vec<&str> = tree.lines().collect();
        assert!(lines[0].starts_with("request"));
        assert!(lines[1].starts_with("  queue"));
        assert!(lines[2].starts_with("  decode"));
        assert!(lines[3].starts_with("    decode_step"));
    }
}
