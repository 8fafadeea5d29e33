//! Scrape smoke + span-tree invariants (the CI observability gate):
//! start a runtime, serve a batch, then assert the Prometheus exposition
//! parses with real decode counts and that a traced request shows the
//! complete span tree (queue → tokenize → encode → decode → steps).

use slade::Slade;
use slade_compiler::{Isa, OptLevel};
use slade_nn::{Seq2Seq, TransformerConfig};
use slade_obs::Stage;
use slade_serve::{ServeConfig, ServeRuntime};
use slade_tokenizer::UnigramTokenizer;
use std::sync::Arc;

const BEAM: usize = 3;

/// Untrained small-profile decompiler: decode cost and the whole serving
/// path are representative without minutes of training.
fn smoke_slade(beam: usize, max_tgt_len: usize) -> Slade {
    let corpus: Vec<String> = (0..12).map(asm).collect();
    let tokenizer = UnigramTokenizer::train(&corpus, 200);
    let model = Seq2Seq::new(TransformerConfig::small(tokenizer.vocab_size()), 11);
    Slade::from_parts(model, tokenizer, Isa::X86_64, OptLevel::O0, beam, max_tgt_len)
}

fn asm(i: usize) -> String {
    format!("f{i}:\n\tmovl %edi, %eax\n\taddl ${i}, %eax\n\tret\n")
}

#[test]
fn scrape_and_trace_smoke() {
    let slade = Arc::new(smoke_slade(BEAM, 12));
    let runtime = ServeRuntime::start(Arc::clone(&slade), ServeConfig::with_shards(2));
    let workload: Vec<String> = (0..4).map(asm).collect();
    let handles: Vec<_> = workload.iter().map(|a| runtime.submit(a)).collect();
    let trace_ids: Vec<u64> = handles.iter().map(|h| h.trace_id()).collect();
    for h in handles {
        assert!(!h.wait().expect("no timeout configured").is_empty());
    }

    // --- Scrape: exposition parses, decode actually happened. ---
    let text = runtime.metrics_text();
    let stats = slade_obs::export::validate_exposition(&text)
        .unwrap_or_else(|e| panic!("malformed exposition: {e}\n{text}"));
    // The whole surface, by name and type: the committed family list
    // minus the gateway's part.
    let want: Vec<&str> = include_str!("../../obs/families.txt")
        .lines()
        .filter(|l| !l.contains(" slade_gateway_"))
        .collect();
    assert_eq!(slade_obs::export::type_lines(&text), want);
    assert!(stats.values["slade_decode_tokens_total"] > 0.0, "no decode tokens counted");
    assert_eq!(stats.values["slade_requests_completed_total"], 4.0);
    // Admission-tier families are always exposed, even at zero.
    assert_eq!(stats.values["slade_shed_total"], 0.0);
    assert_eq!(stats.values["slade_expired_total"], 0.0);
    assert_eq!(stats.values["slade_coalesced_total"], 0.0);
    assert_eq!(stats.values["slade_decoded_total"], 4.0);
    assert_eq!(stats.values["slade_spill_hits_total"], 0.0);
    // Every submission has its terminal: nothing in flight, nothing lost.
    assert_eq!(stats.values["slade_conservation_drift"], 0.0);
    // All requests drained: the saturating-decrement gauge is back to 0,
    // and so is every shard's count of held KV blocks.
    let snap = runtime.metrics();
    assert_eq!(snap.queue_depth, 0, "queue_depth must return to zero");
    assert_eq!(snap.shard_kv_blocks_held, [0, 0], "a drained shard holds no KV block");
    assert!(snap.p50_latency_ms >= 0.0 && snap.p99_latency_ms >= snap.p50_latency_ms);

    // --- Span tree: every decoded request is complete and well-formed. ---
    for &tid in &trace_ids {
        let spans = runtime.trace_spans(tid);
        let find = |st: Stage| spans.iter().find(|s| s.stage == st);
        let root = find(Stage::Request).expect("root request span");
        assert_eq!(root.parent, 0, "request span is the root");
        assert_eq!(root.detail, 0, "decoded request, not a cache hit");
        let queue = find(Stage::Queue).expect("queue span");
        let tokenize = find(Stage::Tokenize).expect("tokenize span");
        let encode = find(Stage::Encode).expect("encode span");
        let decode = find(Stage::Decode).expect("decode span");
        for child in [queue, tokenize, encode, decode] {
            assert_eq!(child.parent, root.span_id, "stage spans parent to the root");
            assert!(
                child.start_us >= root.start_us
                    && child.start_us + child.dur_us <= root.start_us + root.dur_us + 1_000,
                "child {:?} outside root window",
                child.stage
            );
        }
        // Ordering: queue starts at submit, decode follows encode.
        assert_eq!(queue.start_us, root.start_us);
        assert!(decode.start_us >= encode.start_us);
        // Per-step children: as many as the decode span reports, all
        // parented to it, step ids consecutive from the first step id.
        let mut steps: Vec<_> = spans.iter().filter(|s| s.stage == Stage::DecodeStep).collect();
        steps.sort_by_key(|s| s.span_id);
        assert_eq!(steps.len() as u64, decode.detail, "decode.detail counts steps");
        assert!(!steps.is_empty(), "at least one decode step");
        for (k, s) in steps.iter().enumerate() {
            assert_eq!(s.parent, decode.span_id, "steps parent to the decode span");
            assert_eq!(s.span_id, steps[0].span_id + k as u32, "step ids consecutive");
        }
        // Span ids unique within the trace.
        let mut ids: Vec<u32> = spans.iter().map(|s| s.span_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), spans.len(), "duplicate span ids in trace {tid}");
        // The tree renders with the root on the first line.
        let tree = slade_obs::render_tree(&spans);
        assert!(tree.starts_with("request"), "tree:\n{tree}");
    }

    // --- Cache hit: root span flags it, no decode spans. ---
    let h = runtime.submit(&workload[0]);
    let hit_tid = h.trace_id();
    assert!(!h.wait().expect("no timeout configured").is_empty());
    let hit_spans = runtime.trace_spans(hit_tid);
    let hit_root =
        hit_spans.iter().find(|s| s.stage == Stage::Request).expect("cache-hit root span");
    assert_eq!(hit_root.detail, 1, "cache hit flagged on the root span");
    assert!(hit_spans.iter().any(|s| s.stage == Stage::Cache));
    assert!(!hit_spans.iter().any(|s| s.stage == Stage::Decode));

    runtime.shutdown();
}

/// A shard's KV pool follows the lanes it decodes, not its lane budget:
/// a fresh 256-lane shard has allocated no block; one beam-5 request
/// leaves at most a full table (`slade_nn`'s blocks hold 16 positions)
/// per beam lane; and once the request returns the shard holds none.
#[test]
fn kv_block_gauges_follow_the_live_lanes() {
    let (beam, budget, lanes) = (5, 40, 256);
    let mut slade = smoke_slade(beam, budget);
    slade.set_max_batch_lanes(lanes);
    let runtime = ServeRuntime::start(Arc::new(slade), ServeConfig::with_shards(1));
    let snap = runtime.metrics();
    assert_eq!(snap.lane_capacity_per_shard, lanes);
    assert_eq!((snap.shard_kv_blocks_held, snap.shard_kv_blocks_allocated), (vec![0], vec![0]));

    assert!(!runtime.submit(&asm(0)).wait().expect("no timeout configured").is_empty());
    // Every lane's table: `budget` positions (under the model's 160).
    let reached = beam * budget.div_ceil(16);
    let snap = runtime.metrics();
    let allocated = snap.shard_kv_blocks_allocated[0];
    assert!(allocated > 0 && allocated <= reached, "{allocated} for {reached}");
    assert_eq!(snap.shard_kv_blocks_held, [0], "an idle shard holds no block");
    let text = runtime.metrics_text();
    for sample in [
        "slade_shard_kv_blocks_held{shard=\"0\"} 0\n".to_string(),
        format!("slade_shard_kv_blocks_allocated{{shard=\"0\"}} {allocated}\n"),
    ] {
        assert!(text.contains(&sample), "no `{}` in the scrape", sample.trim_end());
    }
    runtime.shutdown();
}
