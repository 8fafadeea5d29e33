//! One benchmark run: set up (several times, for a median), measure one
//! workload, check its outputs, and either report the end-to-end metrics
//! (bench recorder off) or replay the workload with the recorder on, run
//! the layer probes and report the per-layer metrics.

use crate::fixture::Scale;
use crate::probes;
use crate::spec::{spec, Metrics};
use crate::stats::{allowed_cpus, median, peak_rss_mb, HostLoop};
use crate::trace::{self, Recorder};
use crate::workloads::serve::{self, Phase};
use crate::workloads::{gateway_hot, offline, ObsTotals, Segment, Workload};
use serde_json::{Map, Value};
use slade_obs::KernelCtr;
use slade_serve::{MetricsSnapshot, ServeRuntime};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed of corpus, schedule and duplicate picks.
    pub seed: u64,
    /// How long to measure, seconds.
    pub seconds: f64,
    /// False: end-to-end metrics, recorder off. True: per-layer metrics.
    pub trace: bool,
    /// Full benchmark or smoke-test size.
    pub scale: Scale,
    /// Where a traced run writes `trace_<workload>.json`; `None` skips it.
    pub trace_dir: Option<PathBuf>,
}

/// What a run found.
pub struct Outcome {
    /// True when no request failed and every output check held.
    pub correct: bool,
    /// Requests sent plus output checks made.
    pub attempted: u64,
    /// Requests failed or answered wrongly, plus checks that did not hold.
    pub failed: u64,
    /// Every end-to-end metric (untraced run) or every per-layer metric.
    pub metrics: Metrics,
    /// Facts that are not metrics: digest, sample counts, kernel tier.
    pub info: Map,
    /// Human-readable report: phases, waterfall, probe formulas.
    pub log: String,
}

/// Runs `cfg`.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome {
        correct: false,
        attempted: 0,
        failed: 0,
        metrics: Metrics::new(if cfg.trace { &spec().per_layer } else { &spec().end_to_end }),
        info: Map::new(),
        log: String::new(),
    };
    out.info.insert("workload".into(), Value::Str(cfg.workload.name().into()));
    out.info.insert("seed".into(), Value::UInt(cfg.seed));
    out.info.insert("kernel_tier".into(), Value::Str(slade_nn::kernels::tier_status()));
    out.info.insert("cpus_allowed".into(), Value::UInt(allowed_cpus().len() as u64));
    let mut host = HostLoop::start();
    match cfg.workload {
        Workload::OfflineLong | Workload::OfflineShort => run_offline(cfg, &mut host, &mut out),
        Workload::ServeClosed => run_serve_closed(cfg, &mut host, &mut out),
        Workload::GatewayHot => run_gateway_hot(cfg, &mut host, &mut out),
    }
    if cfg.trace {
        out.failed += probes::run_all(cfg.seed, cfg.scale, &mut out.metrics, &mut out.log);
        out.metrics.set("run.fail_share", out.failed as f64 / out.attempted.max(1) as f64);
    }
    out.correct = out.failed == 0;
    out
}

/// The set-ups of a run: the first builds what the workload runs on, the
/// rest, after the measured stretch, are timed and dropped.
struct Setups {
    /// Seconds each took, and the host loop time it is judged against.
    times: Vec<(f64, f64)>,
}

impl Setups {
    /// Times one `setup` with the host loop before and after it.
    fn time<T>(&mut self, host: &mut HostLoop, setup: impl FnOnce() -> T) -> T {
        host.around();
        let t = Instant::now();
        let built = setup();
        let took = t.elapsed().as_secs_f64();
        self.times.push((took, host.around()));
        built
    }
}

/// The end-to-end metrics every workload reports, from its untraced
/// segment: called when the measured stretch and its checks are over and
/// the first set-up's fixture is dropped. Times are in host loops
/// (`Segment`). `peak_rss_mb` is read here, before the remaining set-ups
/// fragment the heap (after five, `VmHWM` spread 11 % between runs).
/// `setup_s` has to be in seconds, so each set-up is scaled to the fastest
/// host loop the run saw — on an undisturbed host, the seconds it took —
/// and the median is reported.
fn end_to_end<T>(
    cfg: &RunConfig,
    out: &mut Outcome,
    seg: &Segment,
    mut setups: Setups,
    host: &mut HostLoop,
    mut setup: impl FnMut() -> T,
) {
    out.metrics.set("peak_rss_mb", peak_rss_mb());
    for _ in 1..cfg.scale.setups() {
        drop(setups.time(host, &mut setup));
    }
    out.metrics.set("req_per_kloop", seg.req_per_kloop());
    out.metrics.set("lat_mean_loops", seg.lat_mean_loops());
    let floor = host.floor_ms();
    let scaled: Vec<f64> =
        setups.times.iter().map(|(s, host_ms)| s * floor / host_ms).collect();
    out.metrics.set("setup_s", median(&scaled));
    let raw: Vec<f64> = setups.times.iter().map(|(s, _)| *s).collect();
    for (key, value) in [
        ("req_per_s", seg.req_per_s()),
        ("lat_mean_ms", seg.lat_mean_ms()),
        ("cpu_ms_per_req", seg.cpu_ms_per_req()),
        ("setup_s_as_measured", median(&raw)),
        ("req_per_kloop_q1", seg.req_per_kloop_quantile(0.25)),
        ("req_per_kloop_q3", seg.req_per_kloop_quantile(0.75)),
        ("host_loop_ms", seg.host_loop_ms()),
        ("host_loop_floor_ms", floor),
    ] {
        out.info.insert(key.into(), Value::Float(value));
    }
}

fn account(out: &mut Outcome, seg: &Segment, checks: (u64, u64)) {
    out.attempted += seg.attempted + checks.0;
    out.failed += seg.failed + checks.1;
    out.info.insert("output_digest".into(), Value::Str(format!("{:016x}", seg.digest)));
    out.info.insert("latency_samples".into(), Value::UInt(seg.latencies_ms.len() as u64));
    out.info.insert("slices".into(), Value::UInt(seg.slices.len() as u64));
    let _ = writeln!(
        out.log,
        "measured: attempted {} succeeded {} failed {}; checks made {} failed {}; {} latency samples, {} slices, \
         wall {:.2} s, cpu {:.2} s, host loop {:.2} ms, digest {:016x}",
        seg.attempted,
        seg.completed(),
        seg.failed,
        checks.0,
        checks.1,
        seg.latencies_ms.len(),
        seg.slices.len(),
        seg.wall_s,
        seg.cpu_s,
        seg.host_loop_ms(),
        seg.digest
    );
}

/// Metrics every traced run derives from its untraced stretch: what the
/// end-to-end list tells in host loops, as measured.
fn traced_common(out: &mut Outcome, seg: &Segment, obs: &ObsTotals, mean_src_tokens: f64) {
    out.metrics.set("run.req_per_s", seg.req_per_s());
    out.metrics.set("run.lat_mean_ms", seg.lat_mean_ms());
    out.metrics.set("run.cpu_ms_per_req", seg.cpu_ms_per_req());
    out.metrics.set("run.host_loop_ms", seg.host_loop_ms());
    out.metrics.set("run.lat_p95_ms", seg.lat_ms(0.95));
    out.metrics.set("run.lat_p99_ms", seg.lat_ms(0.99));
    out.metrics.set("run.src_tok_per_s", seg.req_per_s() * mean_src_tokens);
    out.metrics.set(
        "run.gen_tok_per_s",
        obs.counter(KernelCtr::DecodeLaneTokens) as f64 / seg.wall_s.max(1e-9),
    );
    let stage_us: u64 = obs.stage_us.iter().sum();
    out.metrics.set("obs.stage_sum_over_wall", stage_us as f64 / 1e6 / seg.wall_s.max(1e-9));
}

fn kernel_counts(out: &mut Outcome, obs: &ObsTotals) {
    for (name, ctr) in [
        ("nn.kernels.proj_calls", KernelCtr::ProjCalls),
        ("nn.kernels.proj_rows", KernelCtr::ProjRows),
        ("nn.kernels.attend_calls", KernelCtr::AttendCalls),
        ("nn.kernels.topk_calls", KernelCtr::TopkCalls),
        ("nn.kernels.encode_rows", KernelCtr::EncodeRows),
        ("nn.kernels.decode_lane_tokens", KernelCtr::DecodeLaneTokens),
    ] {
        out.metrics.set(name, obs.counter(ctr) as f64);
    }
}

/// The runtime's own counts, summed over the runtimes a run started, and
/// its conservation identity.
fn serve_counts(m: &mut Metrics, snapshots: &[MetricsSnapshot]) {
    let sum = |f: fn(&MetricsSnapshot) -> u64| snapshots.iter().map(f).sum::<u64>() as f64;
    m.set("serve.submitted", sum(|s| s.submitted));
    m.set("serve.decoded", sum(|s| s.decoded));
    m.set("serve.cache_hits", sum(|s| s.cache.hits));
    m.set("serve.coalesced", sum(|s| s.coalesced));
    m.set("serve.shed", sum(|s| s.shed));
    m.set("serve.expired", sum(|s| s.expired));
    m.set("serve.hit_share", sum(|s| s.cache.hits) / sum(|s| s.submitted).max(1.0));
    let drift: i64 = snapshots.iter().map(|s| serve::conservation_drift(s).abs()).sum();
    m.set("serve.conservation_drift", drift as f64);
}

/// Prints the waterfall into the log and writes the trace file.
fn finish_trace(cfg: &RunConfig, out: &mut Outcome, rec: &Recorder) -> (Vec<trace::Row>, u64) {
    let (rows, root_ns) = trace::waterfall(rec.spans());
    out.log.push_str(&trace::render(cfg.workload.name(), &rows, root_ns));
    if let Some(dir) = &cfg.trace_dir {
        let path = dir.join(format!("trace_{}.json", cfg.workload.name()));
        let doc =
            trace::to_json(cfg.workload.name(), cfg.seed, rec.spans(), &rows, root_ns).render();
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, doc)) {
            Ok(()) => {
                let _ = writeln!(out.log, "trace written to {}", path.display());
            }
            Err(e) => {
                let _ = writeln!(out.log, "trace not written to {}: {e}", path.display());
            }
        }
    }
    (rows, root_ns)
}

fn run_offline(cfg: &RunConfig, host: &mut HostLoop, out: &mut Outcome) {
    let chunk = cfg.scale.chunk();
    let setup = || offline::setup(cfg.seed, cfg.workload, cfg.scale);
    let mut setups = Setups { times: Vec::new() };
    let fx = setups.time(host, setup);
    let seconds = if cfg.trace { cfg.seconds / 2.0 } else { cfg.seconds };
    let obs0 = ObsTotals::now();
    let (seg, first_pass, first_obs) = offline::measure(&fx, chunk, seconds, host);
    let obs = ObsTotals::now().since(&obs0);
    let checks = offline::verify(&fx, chunk, &first_pass);
    account(out, &seg, checks);
    if !cfg.trace {
        drop(fx);
        end_to_end(cfg, out, &seg, setups, host, setup);
        return;
    }
    let mut rec = Recorder::default();
    let tr = offline::traced(&fx, chunk, cfg.seconds / 2.0, &mut rec);
    out.attempted += tr.requests;
    out.failed += tr.failed;
    let (rows, root_ns) = finish_trace(cfg, out, &rec);
    // The first pass's counters repeat exactly whatever the run length;
    // rates use the whole untraced stretch.
    kernel_counts(out, &first_obs);
    traced_common(out, &seg, &obs, fx.mean_src_tokens());
    let m = &mut out.metrics;
    m.set("nn.engine.admit_ms", median(&tr.admit_ms_per_req));
    m.set("nn.engine.admit_share", trace::self_share(&rows, root_ns, "nn.engine.admit_many"));
    m.set("nn.engine.step_us", median(&tr.step_us));
    m.set("nn.engine.step_share", trace::self_share(&rows, root_ns, "nn.engine.step"));
    m.set(
        "nn.engine.score_share",
        tr.replay_obs.stage(slade_obs::StageHist::Score) as f64 * 1e3 / root_ns.max(1) as f64,
    );
    m.set("nn.engine.steps", tr.steps as f64 / tr.passes.max(1) as f64);
    m.set("nn.engine.lanes_per_step", tr.lane_tokens as f64 / tr.steps.max(1) as f64);
    m.set(
        "nn.engine.replay_residual_share",
        (tr.replay_s - tr.plain_s).abs() / tr.plain_s.max(1e-9),
    );
    m.set("obs.bench_trace_overhead_share", (tr.replay_s - tr.plain_s) / tr.plain_s.max(1e-9));
    let calls = (tr.requests / chunk as u64).max(1) as f64;
    m.set("core.overhead_ms", (tr.plain_s - tr.replay_s) * 1e3 / calls);
    let _ = writeln!(
        out.log,
        "replay: {} passes, {} chunks; decompile_batch {:.3} s, bench-driven {:.3} s, residual {:.2} %",
        tr.passes,
        calls,
        tr.plain_s,
        tr.replay_s,
        100.0 * (tr.replay_s - tr.plain_s).abs() / tr.plain_s.max(1e-9)
    );
}

fn phase_line(out: &mut Outcome, p: &Phase) {
    let _ = writeln!(
        out.log,
        "open loop at {:.0}/s: attempted {} succeeded {} failed {}, within {} ms {} ({:.1} %), mean {:.1} ms \
         p50 {:.1} ms p90 {:.1} ms p95 {:.1} ms, generator late at most {:.2} ms, drained in limit {}",
        p.rate,
        p.seg.attempted,
        p.seg.completed(),
        p.seg.failed,
        serve::LIMIT_MS,
        p.ok_in_limit,
        100.0 * p.slo_share(),
        p.seg.lat_mean_ms(),
        p.seg.lat_ms(0.5),
        p.seg.lat_ms(0.9),
        p.seg.lat_ms(0.95),
        p.gen_late_max_ms,
        p.drained_in_limit
    );
}

fn run_serve_closed(cfg: &RunConfig, host: &mut HostLoop, out: &mut Outcome) {
    let setup = || serve::setup(cfg.seed, cfg.scale);
    let mut setups = Setups { times: Vec::new() };
    let fx = setups.time(host, setup);
    let seconds = if cfg.trace { cfg.seconds / 3.0 } else { cfg.seconds };
    let obs0 = ObsTotals::now();
    let mut plain = serve::measure(&fx, seconds, host, None);
    let obs = ObsTotals::now().since(&obs0);
    let first_pass = serve::first_pass_inputs(fx.inputs.len());
    let (checks, digest) = serve::verify(&fx, first_pass.into_iter(), &plain.answers);
    plain.seg.digest = digest;
    account(out, &plain.seg, checks);
    if !cfg.trace {
        drop(fx);
        end_to_end(cfg, out, &plain.seg, setups, host, setup);
        return;
    }
    // The same rounds with the recorder on.
    let mut rec = Recorder::default();
    let traced = serve::measure(&fx, cfg.seconds / 3.0, host, Some(&mut rec));
    out.attempted += traced.seg.attempted;
    out.failed += traced.seg.failed;
    finish_trace(cfg, out, &rec);
    kernel_counts(out, &plain.first_obs);
    traced_common(out, &plain.seg, &obs, fx.mean_src_tokens());
    let lane_tokens = obs.counter(KernelCtr::DecodeLaneTokens);
    let steps = obs.samples(slade_obs::StageHist::DecodeStep);
    let m = &mut out.metrics;
    serve_counts(m, &plain.snapshots);
    m.set("serve.lanes_per_step", lane_tokens as f64 / steps.max(1) as f64);
    m.set(
        "obs.bench_trace_overhead_share",
        plain.seg.req_per_kloop() / traced.seg.req_per_kloop().max(1e-9) - 1.0,
    );

    // The open-loop ladder: one fresh runtime per rate, so each rung
    // starts with a cold cache and the same inputs.
    let mut phases: Vec<Phase> = Vec::new();
    for (i, &rate) in serve::RATES.iter().enumerate() {
        let arrivals = serve::schedule(i as u64, rate, cfg.seconds / 3.0, fx.inputs.len());
        let runtime = ServeRuntime::start(Arc::clone(&fx.slade), serve::config());
        let phase = serve::run_phase(&runtime, &fx, rate, &arrivals);
        runtime.shutdown();
        let (checks, _) = serve::verify(&fx, arrivals.iter().map(|a| a.input), &phase.answers);
        phase_line(out, &phase);
        out.attempted += phase.seg.attempted + checks.0;
        out.failed += phase.seg.failed + checks.1;
        phases.push(phase);
    }
    let m = &mut out.metrics;
    m.set(
        "serve.gen_late_max_ms",
        phases.iter().map(|p| p.gen_late_max_ms).fold(0.0, f64::max),
    );
    for phase in &phases {
        m.set(&format!("serve.r{:.0}.lat_p50_ms", phase.rate), phase.seg.lat_ms(0.5));
        m.set(&format!("serve.r{:.0}.lat_p90_ms", phase.rate), phase.seg.lat_ms(0.9));
    }
    let in_slo =
        phases.iter().filter(|p| p.slo_share() >= 0.95 && p.drained_in_limit).map(|p| p.rate);
    m.set("serve.max_rate_in_slo", in_slo.fold(0.0, f64::max));
    let lowest = &phases[0];
    m.set("serve.r8.slo_share", lowest.slo_share());
    m.set("serve.queue_wait_p50_ms", lowest.snapshot.p50_queue_wait_ms);
    m.set("serve.queue_wait_p95_ms", lowest.snapshot.p95_queue_wait_ms);
    let drift: i64 = phases.iter().map(|p| serve::conservation_drift(&p.snapshot).abs()).sum();
    m.set("serve.conservation_drift", m.get("serve.conservation_drift") + drift as f64);
}

fn run_gateway_hot(cfg: &RunConfig, host: &mut HostLoop, out: &mut Outcome) {
    let setup = || gateway_hot::setup(cfg.seed, cfg.scale);
    let mut setups = Setups { times: Vec::new() };
    let hot = setups.time(host, setup);
    let obs0 = ObsTotals::now();
    let seconds = if cfg.trace { cfg.seconds / 2.0 } else { cfg.seconds };
    let seg = gateway_hot::measure(&hot, seconds, host, None);
    let obs = ObsTotals::now().since(&obs0);
    account(out, &seg, gateway_hot::verify(&hot));
    if !cfg.trace {
        drop(hot); // the gateway drains and joins its threads
        end_to_end(cfg, out, &seg, setups, host, setup);
        return;
    }
    let mut rec = Recorder::default();
    let traced = gateway_hot::measure(&hot, cfg.seconds / 2.0, host, Some(&mut rec));
    out.attempted += traced.attempted;
    out.failed += traced.failed;
    finish_trace(cfg, out, &rec);
    kernel_counts(out, &obs);
    traced_common(out, &seg, &obs, 0.0);
    let gw = hot.gateway.metrics();
    let rt = hot.gateway.runtime().metrics();
    let warm = hot.fx.inputs.len() as u64; // decoded at set-up, not through the gateway
    let (ok, non200) = gateway_hot::status_counts(&gw);
    let m = &mut out.metrics;
    m.set("gateway.requests_ok", ok as f64);
    m.set("gateway.requests_non200", non200 as f64);
    m.set("gateway.parse_rejects", gw.parse_rejects as f64);
    m.set("gateway.quota_shed", gw.quota_shed as f64);
    m.set("gateway.overload_shed", gw.overload_shed as f64);
    m.set(
        "gateway.offered_drift",
        gateway_hot::offered_drift(&gw, rt.submitted - warm).abs() as f64,
    );
    serve_counts(m, &[rt]);
    m.set(
        "obs.bench_trace_overhead_share",
        seg.req_per_kloop() / traced.req_per_kloop().max(1e-9) - 1.0,
    );
    hot.gateway.shutdown();
}
