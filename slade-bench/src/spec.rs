//! The metric tables, read from the `BENCHMARK.json` this binary was built
//! beside: the file is the one place a metric's name, unit, direction and
//! bound are written. What this module adds is what the file's schema has
//! no key for — which end-to-end metric each per-layer metric is expected
//! to move, on which workload — keyed by name prefix.

use serde_json::{Map, Value};
use std::sync::OnceLock;

/// One metric the binary emits.
#[derive(Debug, Clone)]
pub struct MetricDef {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// True when a higher value is better.
    pub higher_is_better: bool,
    /// End-to-end only: allowed worsening as a share of the baseline
    /// median. 0 for a per-layer metric.
    pub bound: f64,
}

/// `BENCHMARK.json`, parsed.
#[derive(Debug)]
pub struct Spec {
    /// Seconds one run measures; `run` uses it, the driver passes it.
    pub run_seconds: u64,
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// End-to-end metrics, measured with the bench recorder off. Every
    /// workload reports every one of them.
    pub end_to_end: Vec<MetricDef>,
    /// Per-layer metrics, from the traced run. Every workload reports
    /// every one of them; a layer a workload does not exercise reads 0.
    pub per_layer: Vec<MetricDef>,
}

fn parse(text: &str) -> Result<Spec, String> {
    let doc = Value::parse(text)?;
    let root = doc.as_object().ok_or("not an object")?;
    let array = |key: &str| {
        root.get(key).and_then(Value::as_array).ok_or(format!("`{key}` array missing"))
    };
    let text_of = |o: &Map, key: &str| {
        o.get(key).and_then(Value::as_str).map(str::to_string).ok_or(format!("no `{key}`"))
    };
    let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
        array(key)?
            .iter()
            .map(|e| {
                let o = e.as_object().ok_or(format!("{key}: entry is not an object"))?;
                let bound = match o.get("bound") {
                    Some(Value::Float(f)) => *f,
                    Some(Value::UInt(u)) => *u as f64,
                    _ => 0.0,
                };
                Ok(MetricDef {
                    name: text_of(o, "name")?,
                    unit: text_of(o, "unit")?,
                    higher_is_better: text_of(o, "better")? == "higher",
                    bound,
                })
            })
            .collect()
    };
    let run_seconds = match root.get("run_seconds") {
        Some(Value::UInt(u)) => *u,
        _ => return Err("`run_seconds` missing".into()),
    };
    let workloads = array("workloads")?
        .iter()
        .map(|w| w.as_object().ok_or("workload is not an object".to_string()))
        .map(|w| text_of(w?, "name"))
        .collect::<Result<_, _>>()?;
    Ok(Spec {
        run_seconds,
        workloads,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

/// The `BENCHMARK.json` of the checkout this binary was built in.
///
/// # Panics
///
/// Panics when the embedded file does not parse: the build is broken.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| {
        parse(include_str!("../../BENCHMARK.json"))
            .unwrap_or_else(|e| panic!("BENCHMARK.json: {e}"))
    })
}

const GW_HOT: &str = "lat_mean_loops, req_per_kloop on gateway_hot; flat elsewhere";
const LONG_SRC: &str =
    "req_per_kloop on offline_long; lat_mean_loops on serve_closed; little on offline_short";
const SHORT_GEN: &str = "req_per_kloop on offline_short; flat on offline_long";
const COUNT: &str = "- (exact count, compared for equality)";
const FAIL: &str = "failed / attempted";
const POST: &str = "- (per-candidate post-processing; no workload runs it yet)";
const RAW: &str =
    "- (the end-to-end metric of that name in host loops, as measured; moves with the host)";
const LADDER: &str =
    "- (open loop, traced run only: a queue's latency doubles when the host slows by a third)";

/// Name prefix → what the per-layer metrics under it are expected to
/// move; the longest matching prefix counts.
const MOVES: &[(&str, &str)] = &[
    ("run.fail_share", FAIL),
    ("run.req_per_s", RAW),
    ("run.lat_mean_ms", RAW),
    ("run.cpu_ms_per_req", RAW),
    ("run.host_loop_ms", "- (the bench's own loop; no change to the program moves it)"),
    ("run.src_tok_per_s", "= run.req_per_s x mean source tokens"),
    ("run.gen_tok_per_s", "= decoded lane tokens per second"),
    ("run.lat_p", "tail; steady only with >= 10 samples beyond it (serve_closed, gateway_hot)"),
    ("gateway.", FAIL),
    ("gateway.parse_us", GW_HOT),
    ("gateway.write_us", GW_HOT),
    ("gateway.hit_overhead_us", GW_HOT),
    ("gateway.scrape_us", "- (operator cost of GET /metrics)"),
    ("gateway.cold_overhead_ms", "- (predicts what serve_closed would add over HTTP)"),
    ("gateway.offered_drift", "must be 0"),
    ("serve.", "-"),
    ("serve.submit_us", GW_HOT),
    ("serve.hit_us", GW_HOT),
    ("serve.overhead_ms", "lat_mean_loops on serve_closed"),
    ("serve.queue_wait_", LADDER),
    ("serve.r", LADDER),
    ("serve.max_rate_in_slo", LADDER),
    ("serve.gen_late_max_ms", LADDER),
    ("serve.lanes_per_step", "lat_mean_loops, req_per_kloop on serve_closed"),
    ("serve.submitted", COUNT),
    ("serve.decoded", COUNT),
    ("serve.shed", FAIL),
    ("serve.expired", FAIL),
    ("serve.conservation_drift", "must be 0"),
    ("core.normalize_us", GW_HOT),
    ("core.overhead_ms", "req_per_kloop on offline_* (expected near 0)"),
    ("tokenizer.encode", "req_per_kloop on offline_long (< 1 % today)"),
    ("tokenizer.decode_us", "req_per_kloop on offline_short"),
    ("nn.engine.admit_", LONG_SRC),
    ("nn.engine.s", SHORT_GEN),
    ("nn.engine.steps", COUNT),
    ("nn.engine.lanes_per_step", "-"),
    ("nn.engine.step_us_l5", "serve.r8.lat_p50_ms (batch of one)"),
    ("nn.engine.step_us_l80", "req_per_kloop on offline_short (full batch)"),
    ("nn.engine.replay_residual_share", "- (closure of the waterfall; <= 0.10)"),
    ("nn.model.", LONG_SRC),
    ("nn.kernels.", SHORT_GEN),
    ("nn.kernels.xpacked_m512", LONG_SRC),
    ("nn.kernels.attn_", LONG_SRC),
    ("nn.kernels.softmax_n512", LONG_SRC),
    ("nn.kernels.est_share_of_step", "- (kernel loop vs engine step, reconciled)"),
    ("nn.kernels.proj_calls", "- (depends on batching under load)"),
    ("nn.kernels.proj_rows", COUNT),
    ("nn.kernels.attend_calls", COUNT),
    ("nn.kernels.topk_calls", COUNT),
    ("nn.kernels.encode_rows", COUNT),
    ("nn.kernels.decode_lane_tokens", COUNT),
    ("obs.tracing_overhead_share", "req_per_kloop on offline_short"),
    ("obs.stage_sum_over_wall", "- (1.0 once stage timers are exclusive)"),
    ("obs.bench_trace_overhead_share", "- (bench recorder on vs off)"),
    ("typeinf.", POST),
    ("repair.", POST),
    ("eval.judge_us", POST),
    ("eval.selfcheck_io_accuracy", "must be 1"),
    ("compiler.", "setup_s"),
    ("dataset.", "setup_s"),
];

/// Which end-to-end metric the per-layer metric `name` should move, on
/// which workload ("-" when it gates nothing).
pub fn moves(name: &str) -> &'static str {
    MOVES
        .iter()
        .filter(|(prefix, _)| name.starts_with(prefix))
        .max_by_key(|(prefix, _)| prefix.len())
        .map_or("-", |(_, what)| what)
}

/// Per-layer counts that repeat exactly for the same code, seed and run
/// length; `compare` fails when one differs.
pub const EXACT_COUNTS: &[&str] = &[
    "serve.submitted",
    "serve.decoded",
    "nn.engine.steps",
    "nn.kernels.proj_rows",
    "nn.kernels.attend_calls",
    "nn.kernels.topk_calls",
    "nn.kernels.encode_rows",
    "nn.kernels.decode_lane_tokens",
];

/// Values for one metric table, in table order; unset metrics read 0.
#[derive(Debug, Clone)]
pub struct Metrics {
    table: &'static [MetricDef],
    values: Vec<f64>,
}

impl Metrics {
    /// All-zero values for `table`.
    pub fn new(table: &'static [MetricDef]) -> Self {
        Metrics { table, values: vec![0.0; table.len()] }
    }

    fn index(&self, name: &str) -> usize {
        self.table
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in BENCHMARK.json"))
    }

    /// Sets a metric.
    ///
    /// # Panics
    ///
    /// Panics on a name the table does not hold: emitting an undeclared
    /// metric is a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let at = self.index(name);
        self.values[at] = if value.is_finite() { value } else { 0.0 };
    }

    /// Reads a metric (same panic as [`Metrics::set`]).
    pub fn get(&self, name: &str) -> f64 {
        self.values[self.index(name)]
    }

    /// `(definition, value)` in table order.
    pub fn iter(&self) -> impl Iterator<Item = (&MetricDef, f64)> {
        self.table.iter().zip(self.values.iter().copied())
    }

    /// `{"name": {"value": v, "unit": u}, ...}` as the driver reads it.
    pub fn to_json(&self) -> Value {
        let mut map = Map::new();
        for (def, value) in self.iter() {
            let mut m = Map::new();
            m.insert("value".into(), Value::Float(value));
            m.insert("unit".into(), Value::Str(def.unit.clone()));
            map.insert(def.name.clone(), Value::Object(m));
        }
        Value::Object(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    #[test]
    fn the_file_meets_the_contract_and_names_this_binary_s_workloads() {
        let s = spec();
        let mut seen = std::collections::BTreeSet::new();
        for def in s.end_to_end.iter().chain(&s.per_layer) {
            assert!(seen.insert(&def.name), "duplicate metric {}", def.name);
            assert!(def.name.len() <= 64);
            assert!(def.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def.unit.len() <= 16);
            assert!(def.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(s.per_layer.len() <= 128 && s.end_to_end.len() <= 16);
        assert!(s.end_to_end.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        assert!(s.end_to_end.iter().any(|d| d.name == "setup_s" && !d.higher_is_better));
        assert!((1..=60).contains(&s.run_seconds));
        let doc = Value::parse(include_str!("../../BENCHMARK.json")).expect("parses");
        let workloads = doc.as_object().and_then(|o| o.get("workloads")).expect("workloads");
        for w in workloads.as_array().expect("array") {
            let why = w.as_object().and_then(|o| o.get("why")).and_then(Value::as_str);
            let why = why.expect("a why");
            assert!(why.chars().count() <= 200 && !why.contains('\n'), "{why}");
        }
        assert_eq!(s.workloads, Workload::ALL.map(|w| w.name().to_string()));
        assert!(EXACT_COUNTS.iter().all(|n| s.per_layer.iter().any(|d| d.name == *n)));
    }

    #[test]
    fn every_per_layer_metric_says_what_it_moves_and_no_prefix_is_dead() {
        let s = spec();
        for def in &s.per_layer {
            assert!(MOVES.iter().any(|(p, _)| def.name.starts_with(p)), "{}", def.name);
        }
        for (prefix, _) in MOVES {
            assert!(s.per_layer.iter().any(|d| d.name.starts_with(prefix)), "{prefix}");
        }
        assert_eq!(moves("nn.kernels.xpacked_m512_k64_n64.ns"), LONG_SRC);
        assert_eq!(moves("nn.kernels.topk_nvocab.ns"), SHORT_GEN);
        assert_eq!(moves("serve.hit_share"), "-");
    }

    #[test]
    #[should_panic(expected = "not in BENCHMARK.json")]
    fn undeclared_metric_is_a_bug() {
        Metrics::new(&spec().end_to_end).set("nope", 1.0);
    }
}
