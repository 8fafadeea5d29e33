//! `serve_closed`, and the open-loop ladder of its traced run.
//!
//! **The closed loop** is what the end-to-end metrics come from: eight
//! callers at the `slade_serve` boundary, each sending its next request
//! when its answer arrives — one generator thread plays all eight with
//! `try_submit` and polls the handles with `try_take`. Work comes in
//! rounds: [`round_inputs`] arrivals (two walks of the length ladder, and a
//! quarter more that repeat an earlier arrival) on a runtime started for
//! the round, so every round begins with a cold cache and is the same work;
//! the round drains, the host loop runs, the next round starts. It is the
//! one workload with continuous batching (a new request is admitted beside
//! others mid-decode), head-of-line blocking by long sources, and cache
//! inserts, hits and coalesce attaches side by side. The shard's CPU is the
//! bottleneck throughout, so a round's time follows the host's speed the
//! way the offline workloads' does and can be told in host loops.
//!
//! **The open loop** (a seeded schedule, whatever the system does) is what
//! independent users make, but its latency is a queue's: when the host
//! slows by a third, utilisation rises with it and mean latency doubles
//! (30 to 63 ms measured at 8/s), and ten runs spread 10 to 40 %. It cannot
//! carry a bound on this host, so it runs in the traced pass only, as a
//! ladder of rates whose latencies are per-layer metrics. Inter-arrival
//! gaps are the `n` mid-quantiles of the exponential distribution — a
//! Poisson process's gaps — in an order drawn once, from [`PATTERN`], not
//! from the seed; likewise which arrivals repeat an earlier one. The seed
//! chooses the functions that are sent. Latency is timed from the
//! scheduled send time, so a stall is charged to every request it delays.

use super::{ObsTotals, Segment};
use crate::fixture::{self, Fixture, FixtureSpec, Scale};
use crate::stats::{cpu_seconds, digest_outputs, HostLoop, Rng};
use crate::trace::Recorder;
use slade_compiler::OptLevel;
use slade_serve::{MetricsSnapshot, RequestHandle, ServeConfig, ServeRuntime};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Callers of the closed loop: at most this many requests are in flight
/// (40 of the shard's 80 lanes at beam 5).
pub const CALLERS: usize = 8;
/// Rounds with inputs of their own; a pass runs each once.
pub const ROUNDS: usize = 4;
/// Walks of the length ladder a round's fresh inputs make.
const LADDERS_PER_ROUND: usize = 2;
/// Arrival rates of the traced open-loop ladder, requests per second
/// (about 25, 37, 50 and 75 % utilisation of the one shard on a quiet
/// host).
pub const RATES: [f64; 4] = [8.0, 12.0, 16.0, 24.0];
/// Fixes the one arrival pattern every seed replays.
pub const PATTERN: u64 = 0x51ade;
/// A request answered later than this misses the limit.
pub const LIMIT_MS: f64 = 250.0;
/// Probability that an arrival repeats an earlier input.
const DUPLICATE_SHARE: f64 = 0.25;
/// A repeat picks among this many preceding arrivals ...
const DUPLICATE_WINDOW: usize = 256;
/// ... except that this share of repeats picks the arrival just before
/// it, which is what finds a request still decoding and coalesces.
const IMMEDIATE_REPEAT_SHARE: f64 = 0.5;
/// Pause between polls of the in-flight handles.
const POLL: Duration = Duration::from_micros(200);

/// The set-up: natural `-O3` length distribution up to 1024 tokens, the
/// fresh inputs of every round.
pub fn spec(scale: Scale) -> FixtureSpec {
    let inputs = ROUNDS * LADDERS_PER_ROUND * scale.chunk();
    FixtureSpec { opt: OptLevel::O3, max_tgt: 64, max_src: 1024, inputs }
}

/// The runtime configuration under test: one shard, default cache and
/// coalescing, bounded queue, 2 s deadline.
pub fn config() -> ServeConfig {
    ServeConfig::default().with_queue_cap(64).with_request_timeout(Duration::from_secs(2))
}

/// Builds the fixture, and starts and stops a runtime as every round will
/// (the timed set-up).
pub fn setup(seed: u64, scale: Scale) -> Fixture {
    let fx = fixture::build(seed, &spec(scale), scale);
    ServeRuntime::start(Arc::clone(&fx.slade), config()).shutdown();
    fx
}

/// `Some(k)`: the next arrival repeats the one `k` before it; `None`: it
/// is a fresh input. `so_far` arrivals precede it.
fn repeat_back(picks: &mut Rng, so_far: usize) -> Option<usize> {
    if so_far == 0 || picks.unit() >= DUPLICATE_SHARE {
        return None;
    }
    Some(if picks.unit() < IMMEDIATE_REPEAT_SHARE {
        1
    } else {
        1 + picks.below(so_far.min(DUPLICATE_WINDOW))
    })
}

/// The arrivals of round `round`, as indices into the fixture's inputs: its
/// own `inputs / ROUNDS` fresh inputs in fixture order — whole walks of the
/// length ladder, so every round costs the same — with repeats between
/// them as the constants above say. The pattern is the same every round.
pub fn round_inputs(round: usize, inputs: usize) -> Vec<usize> {
    let fresh = inputs / ROUNDS;
    let base = (round % ROUNDS) * fresh;
    let mut picks = Rng::new(PATTERN, 0xc105_ed00);
    let mut out: Vec<usize> = Vec::with_capacity(fresh * 4 / 3);
    let mut sent_fresh = 0;
    while sent_fresh < fresh {
        match repeat_back(&mut picks, out.len()) {
            Some(back) => out.push(out[out.len() - back]),
            None => {
                out.push(base + sent_fresh);
                sent_fresh += 1;
            }
        }
    }
    out
}

/// What the closed loop observed.
pub struct Closed {
    /// Counts, latencies and one slice per round.
    pub seg: Segment,
    /// The answer to each arrival of the first pass (`None`: shed,
    /// expired or lost), round after round.
    pub answers: Vec<Option<Vec<String>>>,
    /// Each runtime's own metrics when its round of the first pass ended.
    pub snapshots: Vec<MetricsSnapshot>,
    /// The program's stage timers and kernel counters over the first pass.
    pub first_obs: ObsTotals,
}

/// One round: the callers send `arrivals` to `runtime`, each its next one
/// as soon as its last is answered. Returns the latency of every answer
/// and fills `answers`; the count of requests that failed goes into `seg`.
/// With a recorder, each request is a root span from submission to
/// observed completion, with the `try_submit` call and the wait for the
/// answer as children.
fn run_round(
    runtime: &ServeRuntime,
    fx: &Fixture,
    arrivals: &[usize],
    answers: &mut [Option<Vec<String>>],
    failed: &mut u64,
    mut rec: Option<(&mut Recorder, u64)>,
) -> Vec<f64> {
    let mut latencies_ms = Vec::with_capacity(arrivals.len());
    let mut in_flight: Vec<InFlight> = Vec::with_capacity(CALLERS);
    let give_up = Instant::now() + Duration::from_secs(30);
    let mut next = 0usize;
    loop {
        while in_flight.len() < CALLERS && next < arrivals.len() {
            let request = rec.as_ref().map_or(0, |(_, base)| base + next as u64);
            let t = Instant::now();
            let submitted = runtime.try_submit(&fx.inputs[arrivals[next]].asm);
            let end = Instant::now();
            let spans = rec.as_mut().map(|(r, _)| {
                let root = r.record("serve_closed.request", t, t, None, request);
                r.record("serve.try_submit", t, end, Some(root), request);
                (root, r.begin("serve.await", Some(root), request))
            });
            match submitted {
                Ok(handle) => in_flight.push(InFlight { arrival: next, handle, due: t, spans }),
                Err(_) => {
                    *failed += 1;
                    if let (Some((r, _)), Some((root, wait))) = (rec.as_mut(), spans) {
                        r.end(wait);
                        r.end(root);
                    }
                }
            }
            next += 1;
        }
        let mut i = 0;
        while i < in_flight.len() {
            let Some(outcome) = in_flight[i].handle.try_take() else {
                i += 1;
                continue;
            };
            let done = in_flight.swap_remove(i);
            let seen = Instant::now();
            if let (Some((r, _)), Some((root, wait))) = (rec.as_mut(), done.spans) {
                r.end(wait);
                r.end(root);
            }
            match outcome {
                Ok(candidates) => {
                    latencies_ms.push((seen - done.due).as_secs_f64() * 1e3);
                    answers[done.arrival] = Some(candidates);
                }
                Err(_) => *failed += 1,
            }
        }
        if next == arrivals.len() && in_flight.is_empty() {
            break;
        }
        if Instant::now() > give_up {
            *failed += in_flight.len() as u64; // never answered
            break;
        }
        if in_flight.len() == CALLERS || next == arrivals.len() {
            std::thread::sleep(POLL);
        }
    }
    latencies_ms
}

/// Runs rounds until `seconds` have gone by (at least one pass of
/// [`ROUNDS`]), each on a runtime of its own and each one slice with the
/// host loop after it. Every later pass must repeat the first pass's
/// answers.
pub fn measure(
    fx: &Fixture,
    seconds: f64,
    host: &mut HostLoop,
    mut rec: Option<&mut Recorder>,
) -> Closed {
    let mut seg = Segment::default();
    let mut answers: Vec<Option<Vec<String>>> = Vec::new();
    let mut snapshots = Vec::with_capacity(ROUNDS);
    let obs0 = ObsTotals::now();
    let mut first_obs = None;
    let start = Instant::now();
    let mut round = 0usize;
    let mut sent = 0u64;
    while round < ROUNDS || start.elapsed().as_secs_f64() < seconds {
        let arrivals = round_inputs(round, fx.inputs.len());
        let runtime = ServeRuntime::start(Arc::clone(&fx.slade), config());
        let mut got: Vec<Option<Vec<String>>> = vec![None; arrivals.len()];
        let mut failed = 0u64;
        seg.slice(host, || {
            let rec = rec.as_deref_mut().map(|r| (r, sent));
            let lat = run_round(&runtime, fx, &arrivals, &mut got, &mut failed, rec);
            (lat.len() as u64, lat)
        });
        seg.attempted += arrivals.len() as u64;
        sent += arrivals.len() as u64;
        if round < ROUNDS {
            snapshots.push(runtime.metrics());
            answers.extend(got);
        } else {
            // The same round of the first pass answered the same (every
            // round has as many arrivals: the pattern is one).
            let at = (round % ROUNDS) * arrivals.len();
            failed +=
                got.iter().zip(&answers[at..]).filter(|(a, b)| a.is_some() && a != b).count()
                    as u64;
        }
        seg.failed += failed;
        runtime.shutdown();
        round += 1;
        if round == ROUNDS {
            first_obs = Some(ObsTotals::now().since(&obs0));
        }
    }
    Closed { seg, answers, snapshots, first_obs: first_obs.expect("at least one pass ran") }
}

/// The first pass's arrivals, round after round, in the order
/// [`Closed::answers`] holds their answers.
pub fn first_pass_inputs(inputs: usize) -> Vec<usize> {
    (0..ROUNDS).flat_map(|r| round_inputs(r, inputs)).collect()
}

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    /// Scheduled send time, seconds after the phase starts.
    pub at_s: f64,
    /// Index into the fixture's inputs.
    pub input: usize,
}

/// `rate × seconds` arrivals over `seconds`, gaps as the module text says.
/// Fresh inputs are taken in fixture order, so the length ladder is walked
/// evenly; repeats are drawn as the constants above say. `phase` separates
/// the random streams of the ladder's phases.
pub fn schedule(phase: u64, rate: f64, seconds: f64, inputs: usize) -> Vec<Arrival> {
    let n = ((rate * seconds).round() as usize).max(2);
    let mut gaps: Vec<f64> =
        (0..n).map(|k| -(1.0 - (k as f64 + 0.5) / n as f64).ln()).collect();
    Rng::new(PATTERN, 0x5c4e_d000 + phase).shuffle(&mut gaps);
    let scale = seconds / gaps.iter().sum::<f64>();
    let at: Vec<f64> = gaps
        .iter()
        .scan(0.0, |t, gap| {
            *t += gap * scale;
            Some(*t - gap * scale / 2.0)
        })
        .collect();
    let mut picks = Rng::new(PATTERN, 0xd0b1_e000 + phase);
    let mut fresh = 0usize;
    let mut out: Vec<Arrival> = Vec::with_capacity(n);
    for (i, &at_s) in at.iter().enumerate() {
        let input = match repeat_back(&mut picks, i) {
            Some(back) => out[i - back].input,
            None => {
                fresh += 1;
                (fresh - 1) % inputs
            }
        };
        out.push(Arrival { at_s, input });
    }
    out
}

/// What one phase observed.
pub struct Phase {
    /// Arrival rate, requests per second.
    pub rate: f64,
    /// Counts and latencies of the requests answered OK (no slices: an
    /// open loop is not told in host loops).
    pub seg: Segment,
    /// Requests answered OK within [`LIMIT_MS`].
    pub ok_in_limit: u64,
    /// Latest the generator submitted after a scheduled time, ms.
    pub gen_late_max_ms: f64,
    /// True when the last answer came within [`LIMIT_MS`] of the last
    /// scheduled arrival: no backlog was left growing.
    pub drained_in_limit: bool,
    /// The answer to each arrival (`None`: shed, expired or lost).
    pub answers: Vec<Option<Vec<String>>>,
    /// The runtime's own metrics when the phase ended.
    pub snapshot: MetricsSnapshot,
}

impl Phase {
    /// Share of the scheduled requests answered OK within the limit.
    pub fn slo_share(&self) -> f64 {
        self.ok_in_limit as f64 / self.seg.attempted.max(1) as f64
    }
}

struct InFlight {
    arrival: usize,
    handle: RequestHandle,
    /// When the request was sent (closed loop) or due (open loop).
    due: Instant,
    /// Root and await spans of a traced closed-loop request.
    spans: Option<(usize, usize)>,
}

/// Sends `arrivals` to a freshly started `runtime` on schedule and collects
/// every answer (the phase's counts are the runtime's lifetime counts).
pub fn run_phase(
    runtime: &ServeRuntime,
    fx: &Fixture,
    rate: f64,
    arrivals: &[Arrival],
) -> Phase {
    let mut seg = Segment { attempted: arrivals.len() as u64, ..Segment::default() };
    let mut answers: Vec<Option<Vec<String>>> = vec![None; arrivals.len()];
    let mut in_flight: Vec<InFlight> = Vec::new();
    let (mut ok_in_limit, mut gen_late_max_ms) = (0u64, 0f64);
    let t0 = Instant::now() + Duration::from_millis(2);
    let last_due = t0 + Duration::from_secs_f64(arrivals.last().map_or(0.0, |a| a.at_s));
    let give_up = last_due + Duration::from_secs(10);
    let mut last_done = t0;
    let mut next = 0usize;
    let cpu0 = cpu_seconds();
    loop {
        let now = Instant::now();
        while next < arrivals.len() && t0 + Duration::from_secs_f64(arrivals[next].at_s) <= now
        {
            let due = t0 + Duration::from_secs_f64(arrivals[next].at_s);
            let asm = &fx.inputs[arrivals[next].input].asm;
            gen_late_max_ms = gen_late_max_ms.max((Instant::now() - due).as_secs_f64() * 1e3);
            match runtime.try_submit(asm) {
                Ok(handle) => {
                    in_flight.push(InFlight { arrival: next, handle, due, spans: None })
                }
                Err(_) => seg.failed += 1,
            }
            next += 1;
        }
        let mut i = 0;
        while i < in_flight.len() {
            let Some(outcome) = in_flight[i].handle.try_take() else {
                i += 1;
                continue;
            };
            let done = in_flight.swap_remove(i);
            let seen = Instant::now();
            last_done = seen;
            match outcome {
                Ok(candidates) => {
                    let ms = (seen - done.due).as_secs_f64() * 1e3;
                    seg.latencies_ms.push(ms);
                    if ms <= LIMIT_MS {
                        ok_in_limit += 1;
                    }
                    answers[done.arrival] = Some(candidates);
                }
                Err(_) => seg.failed += 1,
            }
        }
        if (next == arrivals.len() && in_flight.is_empty()) || now > give_up {
            break;
        }
        std::thread::sleep(POLL);
    }
    seg.cpu_s = cpu_seconds() - cpu0;
    seg.failed += in_flight.len() as u64; // never answered
    seg.wall_s = (last_done - t0).as_secs_f64();
    Phase {
        rate,
        seg,
        ok_in_limit,
        gen_late_max_ms,
        drained_in_limit: (last_done.saturating_duration_since(last_due)).as_secs_f64() * 1e3
            <= LIMIT_MS,
        answers,
        snapshot: runtime.metrics(),
    }
}

/// The output check, after the run: every repeat must equal the first
/// answer for its input, and every sixteenth distinct input must equal,
/// byte for byte, `Slade::decompile` of it alone. `inputs` are the
/// arrivals' input indices, `answers` what each got. Returns `(checked,
/// wrong)` and the digest of the first answers, in input order.
pub fn verify(
    fx: &Fixture,
    inputs: impl Iterator<Item = usize>,
    answers: &[Option<Vec<String>>],
) -> ((u64, u64), u64) {
    let mut first: Vec<Option<&Vec<String>>> = vec![None; fx.inputs.len()];
    let (mut checked, mut wrong) = (0u64, 0u64);
    for (input, answer) in inputs.zip(answers) {
        let Some(answer) = answer else { continue };
        match first[input] {
            None => first[input] = Some(answer),
            Some(earlier) => {
                checked += 1;
                if earlier != answer {
                    wrong += 1;
                }
            }
        }
    }
    for (input, answer) in first.iter().enumerate().step_by(16) {
        if let Some(answer) = answer {
            checked += 1;
            if fx.slade.decompile(&fx.inputs[input].asm) != **answer {
                wrong += 1;
            }
        }
    }
    ((checked, wrong), digest_outputs(first.iter().flatten().copied()))
}

/// `submitted − (shed + expired + coalesced + decoded + cache hits)`: the
/// runtime's conservation identity, 0 when every submission reached
/// exactly one terminal state.
pub fn conservation_drift(m: &MetricsSnapshot) -> i64 {
    m.submitted as i64 - (m.shed + m.expired + m.coalesced + m.decoded + m.cache.hits) as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_round_has_its_own_fresh_inputs_and_the_same_pattern() {
        let rounds: Vec<Vec<usize>> = (0..ROUNDS).map(|r| round_inputs(r, 128)).collect();
        for (r, round) in rounds.iter().enumerate() {
            assert_eq!(round.len(), rounds[0].len());
            let fresh: std::collections::BTreeSet<usize> = round.iter().copied().collect();
            assert_eq!(
                fresh.into_iter().collect::<Vec<_>>(),
                (32 * r..32 * (r + 1)).collect::<Vec<_>>()
            );
            // Same positions repeat, shifted by the round's base.
            assert!(round.iter().zip(&rounds[0]).all(|(a, b)| a - 32 * r == *b));
        }
        let repeats = rounds[0].len() - 32;
        assert!((6..=16).contains(&repeats), "{repeats} repeats");
        assert!(rounds[0].windows(2).any(|w| w[0] == w[1]), "immediate repeats exist");
        assert_eq!(round_inputs(ROUNDS, 128), rounds[0]);
        assert_eq!(first_pass_inputs(128).len(), ROUNDS * rounds[0].len());
    }

    #[test]
    fn schedule_is_fixed_sorted_and_repeats_a_quarter() {
        let a = schedule(0, 24.0, 50.0, 2000);
        let b = schedule(0, 24.0, 50.0, 2000);
        assert_eq!(a.len(), 1200);
        assert!(a.windows(2).all(|w| w[0].at_s <= w[1].at_s));
        assert!(a.iter().zip(&b).all(|(x, y)| x.at_s == y.at_s && x.input == y.input));
        let other = schedule(1, 24.0, 50.0, 2000);
        assert!(a.iter().zip(&other).any(|(x, y)| x.at_s != y.at_s));
        let mut seen = std::collections::BTreeSet::new();
        let repeats = a.iter().filter(|x| !seen.insert(x.input)).count();
        let share = repeats as f64 / a.len() as f64;
        assert!((0.2..0.3).contains(&share), "repeat share {share}");
        assert!(a.windows(2).any(|w| w[0].input == w[1].input), "immediate repeats exist");
    }
}
