//! `offline_long` and `offline_short`: `Slade::decompile_batch`, one
//! thread, chunks of sixteen — the paper's corpus-evaluation shape.
//!
//! `offline_long` takes `-O0` sources up to the paper's 1024-token cap
//! with a 64-token decode budget, so the encoder does most of the work;
//! `offline_short` takes `-O3` sources of at most 256 tokens with a
//! 128-token budget, so the same nn layer is used the other way round
//! and decode steps dominate. A decode-kernel gain shows on the second
//! and should be flat on the first; an encoder gain the reverse.

use super::{ObsTotals, Segment, Workload};
use crate::fixture::{self, Fixture, FixtureSpec, Scale, BEAM};
use crate::stats::{digest_outputs, HostLoop};
use crate::trace::Recorder;
use slade::normalize_asm;
use slade_compiler::OptLevel;
use slade_nn::{DecodeRequest, InferenceEngine};
use slade_tokenizer::special;
use std::time::Instant;

/// Chunks the inputs hold; a pass runs each once.
const CHUNKS: usize = 4;

/// The set-up of an offline workload.
pub fn spec(workload: Workload, scale: Scale) -> FixtureSpec {
    let inputs = CHUNKS * scale.chunk();
    match workload {
        Workload::OfflineShort => {
            FixtureSpec { opt: OptLevel::O3, max_tgt: 128, max_src: 256, inputs }
        }
        _ => FixtureSpec { opt: OptLevel::O0, max_tgt: 64, max_src: 1024, inputs },
    }
}

/// Builds the fixture (the timed set-up).
pub fn setup(seed: u64, workload: Workload, scale: Scale) -> Fixture {
    fixture::build(seed, &spec(workload, scale), scale)
}

fn chunk_refs(fx: &Fixture, chunk: usize, index: usize) -> Vec<&str> {
    let chunks = fx.inputs.len() / chunk;
    let at = (index % chunks) * chunk;
    fx.inputs[at..at + chunk].iter().map(|f| f.asm.as_str()).collect()
}

/// Runs chunks round robin until `seconds` have gone by (at least one
/// pass), each `decompile_batch` call one slice with the host loop after
/// it. Returns the segment, the first pass's outputs in input order —
/// every later pass must repeat them — and the program's own counters over
/// that first pass, which repeat exactly whatever the run length.
pub fn measure(
    fx: &Fixture,
    chunk: usize,
    seconds: f64,
    host: &mut HostLoop,
) -> (Segment, Vec<Vec<String>>, ObsTotals) {
    let chunks = fx.inputs.len() / chunk;
    let mut seg = Segment::default();
    let mut first: Vec<Vec<String>> = Vec::with_capacity(fx.inputs.len());
    let obs0 = ObsTotals::now();
    let mut first_obs = None;
    let start = Instant::now();
    let mut index = 0usize;
    while index < chunks || start.elapsed().as_secs_f64() < seconds {
        let refs = chunk_refs(fx, chunk, index);
        let mut out = Vec::new();
        seg.slice(host, || {
            let t = Instant::now();
            out = fx.slade.decompile_batch(&refs);
            (chunk as u64, vec![t.elapsed().as_secs_f64() * 1e3])
        });
        seg.attempted += chunk as u64;
        if index < chunks {
            first.extend(out);
        } else {
            let at = (index % chunks) * chunk;
            seg.failed +=
                out.iter().zip(&first[at..at + chunk]).filter(|(a, b)| a != b).count() as u64;
        }
        index += 1;
        if index == chunks {
            first_obs = Some(ObsTotals::now().since(&obs0));
        }
    }
    seg.digest = digest_outputs(&first);
    (seg, first, first_obs.expect("at least one pass ran"))
}

/// The output check: one request of every chunk (a different slot each
/// chunk) must equal, byte for byte, `Slade::decompile` of that input
/// alone. Returns `(checked, wrong)`.
pub fn verify(fx: &Fixture, chunk: usize, first_pass: &[Vec<String>]) -> (u64, u64) {
    let mut wrong = 0;
    let chunks = fx.inputs.len() / chunk;
    for c in 0..chunks {
        let at = c * chunk + c % chunk;
        if fx.slade.decompile(&fx.inputs[at].asm) != first_pass[at] {
            wrong += 1;
        }
    }
    (chunks as u64, wrong)
}

/// What the traced replay of an offline workload observed.
#[derive(Debug)]
pub struct OfflineTrace {
    /// Wall time of the plain `decompile_batch` calls, seconds.
    pub plain_s: f64,
    /// Wall time of the bench-driven replays of the same chunks, seconds.
    pub replay_s: f64,
    /// Passes over the chunks replayed.
    pub passes: u64,
    /// Requests replayed.
    pub requests: u64,
    /// `DecodeSession::step` calls of the replays.
    pub steps: u64,
    /// Lane tokens the replays decoded.
    pub lane_tokens: u64,
    /// Duration of each replayed step, microseconds.
    pub step_us: Vec<f64>,
    /// Duration of each replayed `admit_many`, milliseconds per request.
    pub admit_ms_per_req: Vec<f64>,
    /// Replayed requests whose output differed from the plain call's.
    pub failed: u64,
    /// The program's own stage timers and counters over the replays.
    pub replay_obs: ObsTotals,
}

/// Replays whole passes over the chunks for about `seconds` (at least one
/// pass, so the step count repeats exactly): each chunk once through
/// `Slade::decompile_batch` (timed, no span: it is the ruler, not a row of
/// the waterfall) and once driven by the bench —
/// normalize, tokenize, `admit_many`, `step` until idle, detokenize —
/// with a span around every call, in alternating order. The two must
/// agree on the outputs, and on wall time to within the residual the run
/// reports.
pub fn traced(fx: &Fixture, chunk: usize, seconds: f64, rec: &mut Recorder) -> OfflineTrace {
    let mut tr = OfflineTrace {
        plain_s: 0.0,
        replay_s: 0.0,
        passes: 0,
        requests: 0,
        steps: 0,
        lane_tokens: 0,
        step_us: Vec::new(),
        admit_ms_per_req: Vec::new(),
        failed: 0,
        replay_obs: ObsTotals::zero(),
    };
    let start = Instant::now();
    let mut index = 0usize;
    let chunks = fx.inputs.len() / chunk;
    while !index.is_multiple_of(chunks) || index == 0 || start.elapsed().as_secs_f64() < seconds
    {
        let refs = chunk_refs(fx, chunk, index);
        let request = index as u64;
        let mut plain: Vec<Vec<String>> = Vec::new();
        let mut replayed: Vec<Vec<String>> = Vec::new();
        for half in 0..2 {
            if (half == 0) == index.is_multiple_of(2) {
                let t = Instant::now();
                plain = fx.slade.decompile_batch(&refs);
                tr.plain_s += t.elapsed().as_secs_f64();
            } else {
                let before = ObsTotals::now();
                let t = Instant::now();
                replayed = replay_chunk(fx, &refs, request, rec, &mut tr);
                tr.replay_s += t.elapsed().as_secs_f64();
                tr.replay_obs.add(&ObsTotals::now().since(&before));
            }
        }
        tr.requests += chunk as u64;
        tr.failed += plain.iter().zip(&replayed).filter(|(a, b)| a != b).count() as u64;
        index += 1;
    }
    tr.passes = (index / chunks) as u64;
    tr
}

/// One chunk, driven by the bench through the layers' public functions
/// the way `Slade::decompile_batch_normalized` and
/// `InferenceEngine::decode_batch` drive them.
fn replay_chunk(
    fx: &Fixture,
    refs: &[&str],
    request: u64,
    rec: &mut Recorder,
    tr: &mut OfflineTrace,
) -> Vec<Vec<String>> {
    let slade = &*fx.slade;
    let root = rec.begin("offline.chunk", None, request);
    let normalized: Vec<String> = rec.scope("core.normalize_asm", Some(root), request, || {
        refs.iter().map(|a| normalize_asm(a)).collect()
    });
    let requests: Vec<DecodeRequest> =
        rec.scope("tokenizer.encode", Some(root), request, || {
            normalized
                .iter()
                .map(|asm| DecodeRequest {
                    src: slade.tokenizer.encode(asm),
                    bos: special::BOS,
                    eos: special::EOS,
                    max_len: slade.max_tgt_len(),
                    beam: BEAM,
                })
                .collect()
        });
    let engine = InferenceEngine::new(&slade.model);
    let mut session = rec.scope("nn.engine.session", Some(root), request, || {
        engine.session(requests.len() * BEAM, slade.max_tgt_len())
    });
    let request_refs: Vec<&DecodeRequest> = requests.iter().collect();
    let t = Instant::now();
    let tickets = session.admit_many(&request_refs);
    let end = Instant::now();
    rec.record("nn.engine.admit_many", t, end, Some(root), request);
    tr.admit_ms_per_req.push((end - t).as_secs_f64() * 1e3 / requests.len() as f64);
    let mut results: Vec<(u64, Vec<Vec<u32>>)> = Vec::with_capacity(requests.len());
    while !session.is_idle() {
        let t = Instant::now();
        results.extend(session.step());
        let end = Instant::now();
        rec.record("nn.engine.step", t, end, Some(root), request);
        tr.step_us.push((end - t).as_secs_f64() * 1e6);
        tr.steps += 1;
    }
    tr.lane_tokens += session.decoded_tokens();
    let out = rec.scope("tokenizer.decode", Some(root), request, || {
        tickets
            .iter()
            .map(|t| {
                let at = results.iter().position(|(rt, _)| rt == t).expect("ticket resolved");
                results[at].1.iter().map(|ids| slade.tokenizer.decode(ids)).collect()
            })
            .collect()
    });
    rec.end(root);
    out
}
