//! `slade-cli` — train, persist, and run the SLaDe decompiler pipeline
//! from the command line.
//!
//! ```text
//! slade-cli train     --isa x86|arm --opt O0|O3 --out model.json
//!                     [--profile tiny|default] [--items N] [--seed N]
//! slade-cli compile   --src file.c --func name --isa x86|arm --opt O0|O3
//! slade-cli decompile --model model.json --asm file.s [--context file.c] [--beam K]
//! slade-cli eval      --model model.json [--items N] [--seed N] [--repair]
//! slade-cli serve     --addr HOST:PORT [--model model.json] [--shards N]
//!                     [--queue-cap N] [--timeout-ms N] [--spill-dir DIR]
//!                     [--quota-rps R] [--quota-burst B] [--addr-file PATH]
//! slade-cli stats     [--model model.json] [--shards N] [--requests N]
//!                     [--queue-cap N] [--timeout-ms N] [--spill-dir DIR]
//!                     [--prometheus | --json]
//!                     (--timeout-ms: a request's deadline, default 30000, 0 = none)
//! slade-cli stats     --url http://HOST:PORT [--prometheus | --json]
//! slade-cli trace     [--model model.json] [--asm file.s] [--request ID]
//! ```
//!
//! `train` writes a self-contained JSON artifact (weights + tokenizer +
//! target configuration); `decompile` prints beam candidates with inferred
//! type headers; `eval` scores a model on freshly generated held-out items
//! with the same IO harness as the paper's figures; `serve` runs the HTTP
//! gateway over the admission tier until killed (`--addr 127.0.0.1:0`
//! picks an ephemeral port, written to `--addr-file` for scripts); `stats`
//! serves a workload and renders the live metrics snapshot
//! (`--prometheus` for the text exposition, `--json` for the full
//! snapshot plus stage breakdown) or, with `--url`, scrapes and validates
//! a live gateway's `/metrics`; `trace` decompiles one input and prints
//! its span tree.
//!
//! Observability knobs (environment, read once at startup):
//! `SLADE_SLOW_MS` — slow-request log threshold in ms (default 1000, `0`
//! disables); `SLADE_TRACE_RING` — trace ring capacity in spans (default
//! 8192); `SLADE_KERNEL_ISA` — kernel dispatch tier override.

use slade::{Slade, SladeBuilder, TrainProfile};
use slade_compiler::{compile_function, CompileOpts, Isa, OptLevel};
use slade_dataset::{generate_exebench_eval, generate_train, DatasetProfile};
use slade_eval::{evaluate, summarize, Tool, ToolContext};
use slade_minic::parse_program;
use std::collections::HashMap;
use std::io::Write;
use std::process::ExitCode;
use std::str::FromStr;

/// Prints to stdout, ignoring broken pipes (`slade-cli ... | head` must
/// not panic).
fn emit(text: std::fmt::Arguments<'_>) {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{text}");
}

macro_rules! put {
    ($($arg:tt)*) => { emit(format_args!($($arg)*)) };
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let flags = match parse_flags(rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "train" => cmd_train(&flags),
        "compile" => cmd_compile(&flags),
        "decompile" => cmd_decompile(&flags),
        "eval" => cmd_eval(&flags),
        "serve" => cmd_serve(&flags),
        "stats" => cmd_stats(&flags),
        "trace" => cmd_trace(&flags),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  slade-cli train     --isa x86|arm --opt O0|O3 --out model.json
                      [--profile tiny|default] [--items N] [--seed N]
  slade-cli compile   --src file.c --func name --isa x86|arm --opt O0|O3
  slade-cli decompile --model model.json --asm file.s [--context file.c] [--beam K]
  slade-cli eval      --model model.json [--items N] [--seed N] [--repair]
  slade-cli serve     --addr HOST:PORT [--model model.json] [--shards N]
                      [--queue-cap N] [--timeout-ms N] [--spill-dir DIR]
                      [--quota-rps R] [--quota-burst B] [--addr-file PATH]
  slade-cli stats     [--model model.json] [--shards N] [--requests N]
                      [--queue-cap N] [--timeout-ms N] [--spill-dir DIR]
                      [--prometheus | --json]
                      (--timeout-ms: a request's deadline, default 30000, 0 = none)
  slade-cli stats     --url http://HOST:PORT [--prometheus | --json]
  slade-cli trace     [--model model.json] [--asm file.s] [--request ID]

env: SLADE_SLOW_MS (slow-request log threshold ms, default 1000, 0=off),
     SLADE_TRACE_RING (trace ring capacity in spans, default 8192),
     SLADE_KERNEL_ISA (kernel dispatch tier override)";

/// `--key value` and bare `--flag` arguments.
fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut i = 0usize;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, found `{}`", args[i]))?;
        if i + 1 < args.len() && !args[i + 1].starts_with("--") {
            out.insert(key.to_string(), args[i + 1].clone());
            i += 2;
        } else {
            out.insert(key.to_string(), String::new());
            i += 1;
        }
    }
    Ok(out)
}

/// Parses the required flag `--{key}` with `T`'s `FromStr`.
fn named<T: FromStr>(flags: &HashMap<String, String>, key: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let v = flags.get(key).ok_or_else(|| format!("missing --{key}"))?;
    v.parse().map_err(|e| format!("--{key} `{v}`: {e}"))
}

fn numeric(flags: &HashMap<String, String>, key: &str, default: u64) -> Result<u64, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{key} expects a number, got `{v}`")),
    }
}

fn fractional(flags: &HashMap<String, String>, key: &str, default: f64) -> Result<f64, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{key} expects a number, got `{v}`")),
    }
}

/// The persisted artifact: the trained pipeline plus its target
/// configuration, so `eval`/`decompile` need no extra flags.
#[derive(serde::Serialize, serde::Deserialize)]
struct Artifact {
    isa: String,
    opt: String,
    slade: Slade,
}

/// Reads the `--model` artifact; an `isa` or `opt` it does not name is an
/// error, like malformed JSON.
fn load_artifact(flags: &HashMap<String, String>) -> Result<(Isa, OptLevel, Slade), String> {
    let path = flags.get("model").ok_or("missing --model")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let artifact: Artifact = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let isa = artifact.isa.parse().map_err(|e| format!("{path}: `{}`: {e}", artifact.isa))?;
    let opt = artifact.opt.parse().map_err(|e| format!("{path}: `{}`: {e}", artifact.opt))?;
    Ok((isa, opt, artifact.slade))
}

fn cmd_train(flags: &HashMap<String, String>) -> Result<(), String> {
    let isa = named(flags, "isa")?;
    let opt = named(flags, "opt")?;
    let out = flags.get("out").ok_or("missing --out")?;
    let seed = numeric(flags, "seed", 7)?;
    let items = numeric(flags, "items", 250)? as usize;
    let profile = match flags.get("profile").map(String::as_str) {
        Some("default") => TrainProfile::default_profile(),
        // `--profile tiny` trains `demo`: `TrainProfile::tiny`'s 96-token
        // source cap is under every `-O0` function, so it learns nothing.
        _ => TrainProfile::demo(),
    };
    let data = DatasetProfile { train: items, exebench_eval: 8, synth_per_category: 2 };
    let train_items = generate_train(data, seed);
    eprintln!("training {isa} {opt} on {} functions ...", train_items.len());
    let t0 = std::time::Instant::now();
    let slade = SladeBuilder::new(isa, opt).profile(profile).train(&train_items, seed);
    eprintln!("trained in {:.1}s", t0.elapsed().as_secs_f64());
    let artifact = Artifact { isa: isa.to_string(), opt: opt.to_string(), slade };
    let json = serde_json::to_string(&artifact).map_err(|e| e.to_string())?;
    std::fs::write(out, &json).map_err(|e| format!("{out}: {e}"))?;
    eprintln!("wrote {out} ({} bytes)", json.len());
    Ok(())
}

fn cmd_compile(flags: &HashMap<String, String>) -> Result<(), String> {
    let isa = named(flags, "isa")?;
    let opt = named(flags, "opt")?;
    let src_path = flags.get("src").ok_or("missing --src")?;
    let func = flags.get("func").ok_or("missing --func")?;
    let src = std::fs::read_to_string(src_path).map_err(|e| format!("{src_path}: {e}"))?;
    let program = parse_program(&src).map_err(|e| e.to_string())?;
    let asm = compile_function(&program, func, CompileOpts::new(isa, opt))
        .map_err(|e| e.to_string())?;
    put!("{asm}");
    Ok(())
}

fn cmd_decompile(flags: &HashMap<String, String>) -> Result<(), String> {
    let (_, _, mut slade) = load_artifact(flags)?;
    let asm_path = flags.get("asm").ok_or("missing --asm")?;
    let asm = std::fs::read_to_string(asm_path).map_err(|e| format!("{asm_path}: {e}"))?;
    let context = match flags.get("context") {
        Some(p) => std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?,
        None => String::new(),
    };
    if let Some(beam) = flags.get("beam") {
        slade.set_beam(beam.parse().map_err(|_| "--beam expects a number")?);
    }
    for (rank, (hypothesis, header)) in
        slade.decompile_with_types(&asm, &context).into_iter().enumerate()
    {
        put!("--- candidate {rank} ---");
        if !header.trim().is_empty() {
            put!("/* inferred types */\n{header}");
        }
        put!("{hypothesis}\n");
    }
    Ok(())
}

/// The decompiler for `stats`/`trace`: the `--model` artifact when given,
/// else an untrained small-profile model (decode cost is representative;
/// hypotheses are noise) so the observability surface works standalone.
fn observed_slade(flags: &HashMap<String, String>) -> Result<std::sync::Arc<Slade>, String> {
    if flags.contains_key("model") {
        let (_, _, slade) = load_artifact(flags)?;
        return Ok(std::sync::Arc::new(slade));
    }
    let corpus: Vec<String> = (0..16).map(synthetic_asm).collect();
    let tokenizer = slade_tokenizer::UnigramTokenizer::train(&corpus, 300);
    let model =
        slade_nn::Seq2Seq::new(slade_nn::TransformerConfig::small(tokenizer.vocab_size()), 7);
    Ok(std::sync::Arc::new(Slade::from_parts(
        model,
        tokenizer,
        Isa::X86_64,
        OptLevel::O0,
        3,
        16,
    )))
}

/// Distinct realistic-shaped assembly per index.
fn synthetic_asm(i: usize) -> String {
    format!(
        "f{i}:\n\tpushq %rbp\n\tmovq %rsp, %rbp\n\tmovl %edi, -{off}(%rbp)\n\taddl ${k}, %eax\n\tpopq %rbp\n\tret\n",
        off = 4 + 4 * (i % 6),
        k = 3 + i
    )
}

/// Admission-tier configuration shared by `stats` (synthetic workload)
/// and `serve` (live gateway): `--shards`, `--queue-cap`, `--timeout-ms`
/// (each request's one deadline, answered `504` by the gateway),
/// `--spill-dir`.
fn serve_config(flags: &HashMap<String, String>) -> Result<slade_serve::ServeConfig, String> {
    let shards = numeric(flags, "shards", 2)?.max(1) as usize;
    let queue_cap = numeric(flags, "queue-cap", 0)? as usize;
    let timeout_ms = numeric(flags, "timeout-ms", 30_000)?;
    let mut config = slade_serve::ServeConfig::with_shards(shards)
        .with_queue_cap(queue_cap)
        .with_request_timeout(std::time::Duration::from_millis(timeout_ms));
    if let Some(dir) = flags.get("spill-dir") {
        config = config.with_spill_dir(std::path::PathBuf::from(dir));
    }
    Ok(config)
}

/// Runs the HTTP gateway over the admission tier until the process is
/// killed. The bound address goes to stderr and (with `--addr-file`) to a
/// file, so scripts can bind `--addr 127.0.0.1:0` and discover the
/// ephemeral port.
fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), String> {
    use slade_gateway::{quota::QuotaConfig, Gateway, GatewayConfig};
    let addr = flags.get("addr").cloned().unwrap_or_else(|| "127.0.0.1:8070".to_string());
    let slade = observed_slade(flags)?;
    let runtime =
        std::sync::Arc::new(slade_serve::ServeRuntime::start(slade, serve_config(flags)?));
    let quota = QuotaConfig {
        rps: fractional(flags, "quota-rps", 0.0)?,
        burst: fractional(flags, "quota-burst", 8.0)?,
    };
    let cfg = GatewayConfig { addr, quota, ..GatewayConfig::default() };
    let gateway = Gateway::start(runtime, cfg).map_err(|e| format!("bind: {e}"))?;
    let bound = gateway.local_addr();
    if let Some(path) = flags.get("addr-file") {
        std::fs::write(path, format!("{bound}")).map_err(|e| format!("{path}: {e}"))?;
    }
    eprintln!("listening on http://{bound} (POST /v1/decompile, GET /metrics, GET /healthz)");
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn cmd_stats(flags: &HashMap<String, String>) -> Result<(), String> {
    use slade_serve::ServeRuntime;
    if flags.contains_key("url") {
        return scrape_stats(flags);
    }
    let slade = observed_slade(flags)?;
    let requests = numeric(flags, "requests", 6)?.max(1) as usize;
    eprintln!("serving {requests} synthetic requests ...");
    let runtime = ServeRuntime::start(slade, serve_config(flags)?);
    let workload: Vec<String> = (0..requests).map(synthetic_asm).collect();
    // Fallible admission so an undersized --queue-cap sheds visibly in
    // the snapshot instead of queueing without bound.
    let handles: Vec<_> = workload.iter().filter_map(|a| runtime.try_submit(a).ok()).collect();
    for h in handles {
        let _ = h.wait(); // shed/expired requests show up in the counters
    }
    // One duplicate exercises the cache path in the snapshot.
    if let Ok(h) = runtime.try_submit(&workload[0]) {
        let _ = h.wait();
    }
    if flags.contains_key("prometheus") {
        put!("{}", runtime.metrics_text().trim_end());
    } else if flags.contains_key("json") {
        // The full admission snapshot (latency and queue-wait
        // percentiles included) plus the per-stage breakdown.
        let snapshot = serde_json::to_string(&runtime.metrics()).map_err(|e| e.to_string())?;
        let stages = serde_json::to_string(&slade_obs::obs().stage_snapshot())
            .map_err(|e| e.to_string())?;
        put!("{{\"snapshot\":{snapshot},\"stages\":{stages}}}");
    } else {
        let s = runtime.metrics();
        put!(
            "requests     submitted {} completed {}  queue depth {}",
            s.submitted,
            s.completed,
            s.queue_depth
        );
        put!(
            "admission    decoded {}  coalesced {}  shed {}  expired {}",
            s.decoded,
            s.coalesced,
            s.shed,
            s.expired
        );
        put!(
            "lanes        {:?} / {} per shard ({:.0}% occupancy at snapshot)",
            s.shard_lanes,
            s.lane_capacity_per_shard,
            100.0 * s.lane_occupancy()
        );
        put!(
            "decode       {} tokens ({}), {} KV rows copied by beam reorders",
            s.decode_tokens,
            s.kernel_isa_status,
            slade_obs::obs().counter(slade_obs::KernelCtr::KvCowRows)
        );
        put!(
            "latency ms   p50 {:.2}  p95 {:.2}  p99 {:.2}",
            s.p50_latency_ms,
            s.p95_latency_ms,
            s.p99_latency_ms
        );
        put!(
            "queue ms     p50 {:.2}  p95 {:.2}  p99 {:.2}",
            s.p50_queue_wait_ms,
            s.p95_queue_wait_ms,
            s.p99_queue_wait_ms
        );
        put!(
            "cache        {} hits / {} misses ({:.0}% hit rate), {} entries",
            s.cache.hits,
            s.cache.misses,
            100.0 * s.cache.hit_rate(),
            s.cache.entries
        );
        if flags.contains_key("spill-dir") {
            put!(
                "spill        {} hits  {} writes  {} entries  {} evictions  {} load errors",
                s.cache.spill_hits,
                s.cache.spill_writes,
                s.cache.spill_entries,
                s.cache.spill_evictions,
                s.cache.spill_load_errors
            );
        }
        put!("stages (count, mean µs, p95 µs):");
        for st in slade_obs::obs().stage_snapshot().stages {
            if st.count > 0 {
                put!(
                    "  {:<12} {:>8}  {:>10.0}  {:>10}",
                    st.stage,
                    st.count,
                    st.mean_us,
                    st.p95_us
                );
            }
        }
    }
    runtime.shutdown();
    Ok(())
}

/// `stats --url http://host:port` — scrapes a live gateway's `/metrics`,
/// validates the exposition, and summarizes it. `--prometheus` prints the
/// raw scrape; `--json` prints the parsed unlabeled samples.
fn scrape_stats(flags: &HashMap<String, String>) -> Result<(), String> {
    let base = flags.get("url").filter(|u| !u.is_empty()).ok_or("--url expects a value")?;
    let url = if base.ends_with("/metrics") {
        base.clone()
    } else {
        format!("{}/metrics", base.trim_end_matches('/'))
    };
    let resp = slade_gateway::http::get_url(&url, std::time::Duration::from_secs(5))?;
    if resp.status != 200 {
        return Err(format!("{url}: HTTP {}", resp.status));
    }
    let text = resp.text();
    let stats =
        slade_obs::export::validate_exposition(&text).map_err(|e| format!("{url}: {e}"))?;
    if flags.contains_key("prometheus") {
        put!("{}", text.trim_end());
        return Ok(());
    }
    if flags.contains_key("json") {
        let mut names: Vec<&String> = stats.values.keys().collect();
        names.sort();
        let fields: Vec<String> =
            names.iter().map(|n| format!("{n:?}:{}", stats.values[*n])).collect();
        put!(
            "{{\"url\":{url:?},\"families\":{},\"samples\":{},\"values\":{{{}}}}}",
            stats.families,
            stats.samples,
            fields.join(",")
        );
        return Ok(());
    }
    put!("{url}: valid exposition ({} families, {} samples)", stats.families, stats.samples);
    // The headline admission + gateway counters, when present.
    for name in [
        "slade_requests_submitted_total",
        "slade_decoded_total",
        "slade_coalesced_total",
        "slade_shed_total",
        "slade_expired_total",
        "slade_cache_hits_total",
        "slade_gateway_connections_total",
        "slade_gateway_decompile_offered_total",
        "slade_gateway_quota_shed_total",
        "slade_gateway_streams_total",
    ] {
        if let Some(v) = stats.values.get(name) {
            put!("  {name:<42} {v}");
        }
    }
    Ok(())
}

fn cmd_trace(flags: &HashMap<String, String>) -> Result<(), String> {
    use slade_serve::{ServeConfig, ServeRuntime};
    let slade = observed_slade(flags)?;
    let runtime = ServeRuntime::start(slade, ServeConfig::with_shards(1));
    let asm = match flags.get("asm") {
        Some(p) => std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?,
        None => synthetic_asm(0),
    };
    let handle = runtime.submit(&asm);
    let trace_id = handle.trace_id();
    handle.wait().expect("no timeout configured");
    // `--request ID` inspects a different trace recorded earlier in this
    // process (ids print in the slow-request log); default is the request
    // just served.
    let wanted = numeric(flags, "request", trace_id)?;
    let spans = runtime.trace_spans(wanted);
    if spans.is_empty() {
        return Err(format!(
            "no spans for request {wanted} (ring capacity {}; see SLADE_TRACE_RING)",
            slade_obs::obs().ring().capacity()
        ));
    }
    put!("trace {wanted} ({} spans):", spans.len());
    put!("{}", slade_obs::render_tree(&spans).trim_end());
    runtime.shutdown();
    Ok(())
}

fn cmd_eval(flags: &HashMap<String, String>) -> Result<(), String> {
    let (isa, opt, slade) = load_artifact(flags)?;
    let seed = numeric(flags, "seed", 99)?;
    let items = numeric(flags, "items", 24)? as usize;
    // Fresh held-out items, deduplicated against nothing the model saw
    // (different seed stream from any training run by default).
    let data = DatasetProfile { train: 8, exebench_eval: items, synth_per_category: 1 };
    let train_stub = generate_train(data, seed);
    let eval_items = generate_exebench_eval(data, seed, &train_stub);
    let ctx =
        ToolContext { isa, opt, slade: std::sync::Arc::new(slade), chatgpt: None, btc: None };
    let tool = if flags.contains_key("repair") { Tool::SladeRepair } else { Tool::Slade };
    eprintln!(
        "evaluating {} on {} held-out items ({isa} {opt}) ...",
        tool.label(),
        eval_items.len()
    );
    let records = evaluate(&ctx, &eval_items, &[tool]);
    let (acc, sim) = summarize(&records, tool);
    let compiles = records.iter().filter(|r| r.compiles).count();
    println!(
        "items {}  compiles {}  IO-accuracy {acc:.1}%  edit-similarity {sim:.1}%",
        records.len(),
        compiles
    );
    Ok(())
}
