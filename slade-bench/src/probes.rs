//! Layer probes: every layer timed alone, from outside, through its public
//! functions, at the shapes the workloads drive it at. They run after the
//! traced replay of whichever workload was asked for, on a fixture of
//! their own, so their numbers do not depend on the workload.
//!
//! Operation and byte counts of the kernel rows are computed from tensor
//! sizes, not measured; the formula is printed beside each row.

use crate::fixture::{self, Fixture, FixtureSpec, Scale, BEAM};
use crate::spec::Metrics;
use crate::stats::{median, time_ns};
use crate::workloads::gateway_hot::{connect, post_request};
use slade::normalize_asm;
use slade_compiler::{compile_function, CompileOpts, Isa, OptLevel};
use slade_gateway::http::{self, Limits};
use slade_gateway::{Gateway, GatewayConfig};
use slade_minic::parse_program;
use slade_nn::{kernels, math, DecodeRequest, InferenceEngine};
use slade_serve::{ServeConfig, ServeRuntime};
use slade_tokenizer::special;
use std::fmt::Write as _;
use std::hint::black_box;
use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// How hard the probes try.
struct Effort {
    /// `samples` and `batch_ms` of [`time_ns`].
    samples: usize,
    batch_ms: f64,
    /// Pairs of the paired hit probes.
    pairs: usize,
    /// Repetitions of the millisecond-scale probes (encode, tracing rounds).
    reps: usize,
    /// Source lengths of the encode probe.
    sources: &'static [usize],
    /// Source length of the batch-gain and step probes.
    step_source: usize,
    /// Ground-truth functions of the pipeline probe.
    items: usize,
}

fn effort(scale: Scale) -> Effort {
    match scale {
        Scale::Full => Effort {
            samples: 5,
            batch_ms: 8.0,
            pairs: 1000,
            reps: 4,
            sources: &[128, 256, 512, 1024],
            step_source: 512,
            items: 64,
        },
        Scale::Tiny => Effort {
            samples: 1,
            batch_ms: 0.1,
            pairs: 6,
            reps: 1,
            sources: &[128],
            step_source: 64,
            items: 4,
        },
    }
}

/// Runs every probe, writes its metrics into `m` and its human-readable
/// lines (formulas, inputs of derived numbers) into `log`. Returns the
/// number of checks that failed (the IO self-check of ground truth).
pub fn run_all(seed: u64, scale: Scale, m: &mut Metrics, log: &mut String) -> u64 {
    let fx = fixture::build(
        seed,
        &FixtureSpec { opt: OptLevel::O3, max_tgt: 64, max_src: 256, inputs: scale.chunk() },
        scale,
    );
    let e = effort(scale);
    let kernel_ns = kernel_probe(&fx, &e, m, log);
    model_probe(&fx, &e, m);
    engine_probe(&fx, &e, &kernel_ns, m, log);
    text_probe(&fx, &e, m);
    serve_probe(&fx, &e, m);
    gateway_probe(&fx, &e, m);
    tracing_probe(&fx, &e, m);
    pipeline_probe(seed, &e, m)
}

/// Nanoseconds per call of each kernel row, by row name.
type KernelNs = Vec<(&'static str, f64)>;

fn ns_of(rows: &KernelNs, name: &str) -> f64 {
    rows.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, ns)| *ns)
}

/// Deterministic, non-constant test data.
fn ramp(len: usize, salt: usize) -> Vec<f32> {
    (0..len).map(|i| (((i * 31 + salt * 17) % 97) as f32 - 48.0) / 64.0).collect()
}

fn kernel_probe(fx: &Fixture, e: &Effort, m: &mut Metrics, log: &mut String) -> KernelNs {
    let cfg = fx.slade.model.cfg;
    let (d, dff, vocab, dh) = (cfg.d_model, cfg.d_ff, cfg.vocab, cfg.d_model / cfg.n_heads);
    let mut rows: KernelNs = Vec::new();
    let _ = writeln!(
        log,
        "kernel probe (tier {}, f32; flop and byte counts computed from tensor sizes):",
        kernels::tier_status()
    );
    let mut row = |name: &'static str, ns: f64, flops: f64, bytes: f64, formula: &str| {
        m.set(&format!("nn.kernels.{name}.ns"), ns);
        m.set(&format!("nn.kernels.{name}.gflops"), flops / ns);
        m.set(&format!("nn.kernels.{name}.gbytes_per_s"), bytes / ns);
        let _ = writeln!(
            log,
            "  {name:<24} {ns:>10.0} ns {:>7.2} GFLOP/s {:>7.2} GB/s   {formula}",
            flops / ns,
            bytes / ns
        );
        rows.push((name, ns));
    };
    let shapes: [(&'static str, usize, usize, usize); 5] = [
        ("xpacked_m80_k64_n64", 80, d, d),
        ("xpacked_m80_k64_n128", 80, d, dff),
        ("xpacked_m80_k128_n64", 80, dff, d),
        ("xpacked_m80_k64_nvocab", 80, d, vocab),
        ("xpacked_m512_k64_n64", 512, d, d),
    ];
    for (name, mm, k, n) in shapes {
        let a = ramp(mm * k, 1);
        let bp = kernels::pack_xposed_blocks(&ramp(k * n, 2), k, n);
        let mut c = vec![0.0f32; mm * n];
        let ns = time_ns(e.samples, e.batch_ms, || {
            kernels::matmul_xpacked_into(black_box(&a), black_box(&bp), &mut c, mm, k, n);
            black_box(&c);
        });
        let (mf, kf, nf) = (mm as f64, k as f64, n as f64);
        row(
            name,
            ns,
            2.0 * mf * kf * nf,
            4.0 * (mf * kf + kf * nf + mf * nf),
            &format!("flops = 2·m·k·n, bytes = 4·(m·k + k·n + m·n), m={mm} k={k} n={n}"),
        );
    }
    // One head of one lane attending 512 source positions: keys and values
    // are rows of width d, the head reads dh of them.
    let n = 512usize;
    let q = ramp(dh, 3);
    let keys = ramp(n * d, 4);
    let mut scores = vec![0.0f32; n];
    let scale_f = 1.0 / (dh as f32).sqrt();
    let ns = time_ns(e.samples, e.batch_ms, || {
        kernels::attn_scores_into(black_box(&q), black_box(&keys), d, scale_f, &mut scores);
        black_box(&scores);
    });
    let (nf, dhf) = (n as f64, dh as f64);
    row(
        "attn_scores_n512",
        ns,
        2.0 * nf * dhf + nf,
        4.0 * (dhf + nf * dhf + nf),
        "flops = 2·n·dh + n, bytes = 4·(dh + n·dh + n), n=512 dh=16",
    );
    let template = ramp(n, 5);
    let ns = time_ns(e.samples, e.batch_ms, || {
        scores.copy_from_slice(&template);
        kernels::softmax_into(black_box(&mut scores));
    });
    row(
        "softmax_n512",
        ns,
        4.0 * nf,
        4.0 * 3.0 * nf,
        "ops = 4·n (max, exp, sum, scale; exp counted as one), bytes = 4·3·n (refill + read + write)",
    );
    let mut ctx = vec![0.0f32; dh];
    let ns = time_ns(e.samples, e.batch_ms, || {
        ctx.iter_mut().for_each(|c| *c = 0.0);
        kernels::attn_weighted_sum_into(black_box(&scores), black_box(&keys), d, &mut ctx);
        black_box(&ctx);
    });
    row(
        "attn_wsum_n512",
        ns,
        2.0 * nf * dhf,
        4.0 * (nf + nf * dhf + 2.0 * dhf),
        "flops = 2·n·dh, bytes = 4·(n + n·dh + 2·dh), n=512 dh=16",
    );
    let (x, gamma, beta) = (ramp(80 * d, 6), ramp(d, 7), ramp(d, 8));
    let mut out = vec![0.0f32; 80 * d];
    let ns = time_ns(e.samples, e.batch_ms, || {
        kernels::layer_norm_into(black_box(&x), &gamma, &beta, 80, d, &mut out);
        black_box(&out);
    });
    let md = 80.0 * d as f64;
    row(
        "layer_norm_m80",
        ns,
        8.0 * md,
        4.0 * (2.0 * md + 2.0 * d as f64),
        "ops = 8·m·d (mean, variance, normalize, scale, shift), bytes = 4·(2·m·d + 2·d), m=80 d=64",
    );
    let hidden = ramp(80 * dff, 9);
    let mut buf = hidden.clone();
    let ns = time_ns(e.samples, e.batch_ms, || {
        buf.copy_from_slice(&hidden);
        kernels::gelu_into(black_box(&mut buf));
    });
    let mn = 80.0 * dff as f64;
    row(
        "gelu_m80_n128",
        ns,
        8.0 * mn,
        4.0 * 3.0 * mn,
        "ops = 8·m·n (cubic, tanh polynomial counted as three), bytes = 4·3·m·n (refill + read + write)",
    );
    let logits = ramp(vocab, 10);
    let ns = time_ns(e.samples, e.batch_ms, || {
        black_box(math::log_softmax_topk(black_box(&logits), BEAM));
    });
    row(
        "topk_nvocab",
        ns,
        4.0 * vocab as f64,
        4.0 * 3.0 * vocab as f64,
        &format!("ops = 4·vocab (max, exp, sum, compare), bytes = 4·3·vocab (three passes), vocab={vocab}"),
    );
    rows
}

/// `n` source tokens made by cycling the fixture's own token stream.
fn source_of(fx: &Fixture, n: usize) -> Vec<u32> {
    let mut pool: Vec<u32> = Vec::new();
    for f in &fx.inputs {
        pool.extend(fx.slade.tokenizer.encode(&normalize_asm(&f.asm)));
    }
    pool.iter().copied().cycle().take(n).collect()
}

fn model_probe(fx: &Fixture, e: &Effort, m: &mut Metrics) {
    let model = &fx.slade.model;
    let time_encode = |srcs: &[&[u32]]| {
        let samples: Vec<f64> = (0..e.reps)
            .map(|_| {
                let t = Instant::now();
                black_box(model.encode_batch(black_box(srcs)));
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        median(&samples)
    };
    for &n in e.sources {
        let src = source_of(fx, n);
        m.set(&format!("nn.model.encode_ms_n{n}"), time_encode(&[&src]));
    }
    let src = source_of(fx, e.step_source);
    let single = time_encode(&[&src]);
    let sixteen: Vec<&[u32]> = (0..16).map(|_| src.as_slice()).collect();
    m.set("nn.model.encode_batch_gain", 16.0 * single / time_encode(&sixteen));
}

/// Steps a session holding `requests` copies of one `n`-token source and
/// returns `(median step µs at full fan-out, mean lane position there)`.
fn step_time(fx: &Fixture, requests: usize, n: usize) -> (f64, f64) {
    let slade = &*fx.slade;
    let request = DecodeRequest {
        src: source_of(fx, n),
        bos: special::BOS,
        eos: special::EOS,
        max_len: slade.max_tgt_len(),
        beam: BEAM,
    };
    let engine = InferenceEngine::new(&slade.model);
    let mut session = engine.session(requests * BEAM, slade.max_tgt_len());
    let refs: Vec<&DecodeRequest> = (0..requests).map(|_| &request).collect();
    session.admit_many(&refs);
    let (mut full_us, mut positions, mut step) = (Vec::new(), Vec::new(), 0usize);
    while !session.is_idle() {
        let lanes = session.live_lanes();
        let t = Instant::now();
        black_box(session.step());
        if lanes == requests * BEAM {
            full_us.push(t.elapsed().as_secs_f64() * 1e6);
            positions.push(step as f64 + 1.0);
        }
        step += 1;
    }
    (median(&full_us), positions.iter().sum::<f64>() / positions.len().max(1) as f64)
}

fn engine_probe(
    fx: &Fixture,
    e: &Effort,
    kernel_ns: &KernelNs,
    m: &mut Metrics,
    log: &mut String,
) {
    let (l5, _) = step_time(fx, 1, e.step_source);
    let (l80, position) = step_time(fx, 16, e.step_source);
    m.set("nn.engine.step_us_l5", l5);
    m.set("nn.engine.step_us_l80", l80);
    // The kernel loop's account of one 80-lane step over 512-token
    // sources: calls per step from the model's structure (two decoder
    // layers; per layer six d→d projections, the two FFN projections,
    // three layer norms, one GELU, and per lane and head one self and one
    // cross attention) times the probe's ns per call. Self attention
    // covers `position` keys, not 512, and is scaled by that ratio.
    let cfg = fx.slade.model.cfg;
    let (layers, heads, lanes) = (cfg.dec_layers as f64, cfg.n_heads as f64, 80.0);
    let attend = ns_of(kernel_ns, "attn_scores_n512")
        + ns_of(kernel_ns, "softmax_n512")
        + ns_of(kernel_ns, "attn_wsum_n512");
    let projections = layers
        * (6.0 * ns_of(kernel_ns, "xpacked_m80_k64_n64")
            + ns_of(kernel_ns, "xpacked_m80_k64_n128")
            + ns_of(kernel_ns, "xpacked_m80_k128_n64"))
        + ns_of(kernel_ns, "xpacked_m80_k64_nvocab");
    let norms = (3.0 * layers + 1.0) * ns_of(kernel_ns, "layer_norm_m80")
        + layers * ns_of(kernel_ns, "gelu_m80_n128");
    let cross = lanes * layers * heads * attend;
    let own = cross * position / 512.0;
    let topk = lanes * ns_of(kernel_ns, "topk_nvocab");
    let est_us = (projections + norms + cross + own + topk) / 1e3;
    m.set("nn.kernels.est_share_of_step", est_us / l80.max(1e-9));
    let _ = writeln!(
        log,
        "kernel loop vs engine, one 80-lane step on 512-token sources: projections {:.0} + norms/gelu {:.0} \
         + cross attention {:.0} + self attention {:.0} (position {position:.0}) + top-k {:.0} = {est_us:.0} us \
         of {l80:.0} us measured -> est_share_of_step {:.3}; one 5-lane step {l5:.0} us",
        projections / 1e3,
        norms / 1e3,
        cross / 1e3,
        own / 1e3,
        topk / 1e3,
        est_us / l80.max(1e-9)
    );
}

fn text_probe(fx: &Fixture, e: &Effort, m: &mut Metrics) {
    let tok = &fx.slade.tokenizer;
    let normalized: Vec<String> = fx.inputs.iter().map(|f| normalize_asm(&f.asm)).collect();
    let tokens: usize = fx.inputs.iter().map(|f| f.src_tokens).sum();
    let per_pass = time_ns(e.samples, e.batch_ms, || {
        for n in &normalized {
            black_box(tok.encode(black_box(n)));
        }
    });
    m.set("tokenizer.encode_us", per_pass / 1e3 / normalized.len() as f64);
    m.set("tokenizer.encode_mtok_per_s", tokens as f64 / per_pass * 1e3);
    let candidate: Vec<u32> =
        tok.encode(&normalized[0]).into_iter().take(fx.slade.max_tgt_len()).collect();
    m.set(
        "tokenizer.decode_us",
        time_ns(e.samples, e.batch_ms, || {
            black_box(tok.decode(black_box(&candidate)));
        }) / 1e3,
    );
    let per_pass = time_ns(e.samples, e.batch_ms, || {
        for f in &fx.inputs {
            black_box(normalize_asm(black_box(&f.asm)));
        }
    });
    m.set("core.normalize_us", per_pass / 1e3 / fx.inputs.len() as f64);
}

/// Median of `a[i] − b[i]`.
fn median_diff(a: &[f64], b: &[f64]) -> f64 {
    median(&a.iter().zip(b).map(|(x, y)| x - y).collect::<Vec<f64>>())
}

/// Times `first` and `second` once each, `second` first when `flip`, and
/// returns their seconds in argument order.
fn paired(flip: bool, mut first: impl FnMut(), mut second: impl FnMut()) -> (f64, f64) {
    let time = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64()
    };
    if flip {
        let b = time(&mut second);
        (time(&mut first), b)
    } else {
        let a = time(&mut first);
        (a, time(&mut second))
    }
}

fn serve_probe(fx: &Fixture, e: &Effort, m: &mut Metrics) {
    let cached = ServeRuntime::start(Arc::clone(&fx.slade), ServeConfig::default());
    let mut submit_us = Vec::new();
    for f in &fx.inputs {
        let t = Instant::now();
        let handle = cached.try_submit(&f.asm).expect("unbounded queue never sheds");
        submit_us.push(t.elapsed().as_secs_f64() * 1e6);
        handle.wait().expect("no deadline configured");
    }
    m.set("serve.submit_us", median(&submit_us));
    let asm = &fx.inputs[0].asm;
    m.set(
        "serve.hit_us",
        time_ns(e.samples, e.batch_ms, || {
            black_box(cached.submit(black_box(asm)).wait().expect("no deadline configured"));
        }) / 1e3,
    );
    drop(cached);

    let cold =
        ServeRuntime::start(Arc::clone(&fx.slade), ServeConfig::default().without_cache());
    let (mut through, mut direct) = (Vec::new(), Vec::new());
    for (i, f) in fx.inputs.iter().enumerate() {
        let (a, b) = paired(
            i % 2 == 1,
            || drop(black_box(cold.decompile(&f.asm))),
            || drop(black_box(fx.slade.decompile(&f.asm))),
        );
        through.push(a * 1e3);
        direct.push(b * 1e3);
    }
    m.set("serve.overhead_ms", median_diff(&through, &direct));
}

/// One request and its full response over a keep-alive connection.
fn round_trip(stream: &mut std::net::TcpStream, request: &[u8]) -> http::ClientResponse {
    stream.write_all(request).expect("write to the gateway");
    http::read_response(stream).expect("a response from the gateway")
}

fn gateway_probe(fx: &Fixture, e: &Effort, m: &mut Metrics) {
    let request = post_request(&fx.inputs[fx.inputs.len() / 2].asm);
    let limits = Limits::default();
    m.set(
        "gateway.parse_us",
        time_ns(e.samples, e.batch_ms, || {
            let mut wire = black_box(&request[..]);
            let mut carry = Vec::new();
            black_box(http::read_request(&mut wire, &mut carry, &limits));
        }) / 1e3,
    );

    // Hits: HTTP keep-alive round trip against the same hit at the runtime.
    let runtime = Arc::new(ServeRuntime::start(Arc::clone(&fx.slade), ServeConfig::default()));
    let asm = &fx.inputs[fx.inputs.len() / 2].asm;
    let candidates = runtime.decompile(asm);
    let gateway = Gateway::start(Arc::clone(&runtime), GatewayConfig::default())
        .expect("bind a loopback port");
    let mut stream = connect(&gateway);
    let answer = round_trip(&mut stream, &request);
    let mut sink: Vec<u8> = Vec::with_capacity(answer.body.len() + 256);
    m.set(
        "gateway.write_us",
        time_ns(e.samples, e.batch_ms, || {
            sink.clear();
            http::write_response(
                &mut sink,
                200,
                "application/json",
                black_box(&answer.body),
                true,
            )
            .expect("write into memory");
            black_box(&sink);
        }) / 1e3,
    );
    let (mut over_http, mut at_runtime) = (Vec::new(), Vec::new());
    for i in 0..e.pairs {
        let (a, b) = paired(
            i % 2 == 1,
            || drop(black_box(round_trip(&mut stream, &request))),
            || drop(black_box(runtime.decompile(asm))),
        );
        over_http.push(a * 1e6);
        at_runtime.push(b * 1e6);
    }
    assert_eq!(runtime.decompile(asm), candidates, "a hit returns what was cached");
    m.set("gateway.hit_overhead_us", median_diff(&over_http, &at_runtime));
    let scrape = b"GET /metrics HTTP/1.1\r\nhost: bench\r\n\r\n";
    let scrapes: Vec<f64> = (0..(e.pairs / 40).max(3))
        .map(|_| {
            let t = Instant::now();
            black_box(round_trip(&mut stream, scrape));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    m.set("gateway.scrape_us", median(&scrapes));
    drop(stream);
    gateway.shutdown();
    drop(runtime);

    // Misses: the same pairing with the cache off, so every request
    // decodes; the difference exposes the delivery pool's poll quantum.
    let runtime = Arc::new(ServeRuntime::start(
        Arc::clone(&fx.slade),
        ServeConfig::default().without_cache(),
    ));
    let gateway = Gateway::start(Arc::clone(&runtime), GatewayConfig::default())
        .expect("bind a loopback port");
    let mut stream = connect(&gateway);
    let (mut over_http, mut at_runtime) = (Vec::new(), Vec::new());
    for (i, f) in fx.inputs.iter().enumerate() {
        let request = post_request(&f.asm);
        let (a, b) = paired(
            i % 2 == 1,
            || drop(black_box(round_trip(&mut stream, &request))),
            || drop(black_box(runtime.decompile(&f.asm))),
        );
        over_http.push(a * 1e3);
        at_runtime.push(b * 1e3);
    }
    m.set("gateway.cold_overhead_ms", median_diff(&over_http, &at_runtime));
    drop(stream);
    gateway.shutdown();
}

fn tracing_probe(fx: &Fixture, e: &Effort, m: &mut Metrics) {
    let refs: Vec<&str> = fx.inputs.iter().map(|f| f.asm.as_str()).collect();
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for round in 0..e.reps {
        let (a, b) = paired(
            round % 2 == 1,
            || drop(black_box(fx.slade.decompile_batch(&refs))),
            || {
                slade_obs::set_tracing(false);
                drop(black_box(fx.slade.decompile_batch(&refs)));
                slade_obs::set_tracing(true);
            },
        );
        on.push(a);
        off.push(b);
    }
    m.set("obs.tracing_overhead_share", (median(&on) - median(&off)) / median(&off));
}

fn pipeline_probe(seed: u64, e: &Effort, m: &mut Metrics) -> u64 {
    let n = e.items;
    let t = Instant::now();
    let items = fixture::generate(n, seed ^ 0x9192);
    m.set(
        "dataset.generate_us_per_item",
        t.elapsed().as_secs_f64() * 1e6 / items.len().max(1) as f64,
    );
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    let (mut compile, mut infer, mut check, mut judge) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut correct = 0usize;
    for item in &items {
        if let Ok(program) = parse_program(&item.full_src()) {
            let t = Instant::now();
            let _ = black_box(compile_function(
                &program,
                &item.name,
                CompileOpts::new(Isa::X86_64, OptLevel::O0),
            ));
            compile.push(us(t));
        }
        // No context: every type the function names has to be inferred,
        // as for a hypothesis that references out-of-context types.
        let t = Instant::now();
        let _ = black_box(slade_typeinf::infer_missing_types(&item.func_src, ""));
        infer.push(us(t));
        let t = Instant::now();
        let _ = black_box(slade_repair::try_compile(&item.func_src, &item.context_src));
        check.push(us(t));
        if let Ok(reference) = slade_eval::reference_observations(item) {
            let t = Instant::now();
            let verdict = slade_eval::judge(item, &reference, &item.func_src, "");
            judge.push(us(t));
            correct += usize::from(verdict.compiles && verdict.correct);
        }
    }
    m.set("compiler.compile_us", median(&compile));
    m.set("typeinf.infer_us", median(&infer));
    m.set("repair.try_compile_us", median(&check));
    m.set("eval.judge_us", median(&judge));
    m.set("eval.selfcheck_io_accuracy", correct as f64 / items.len().max(1) as f64);
    (items.len() - correct) as u64
}
