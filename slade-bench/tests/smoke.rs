//! Runs every workload in-process at smoke-test size, both with the bench
//! recorder off and on, and holds the binary to `BENCHMARK.json`: every
//! metric named there is emitted (a run cannot emit another: the tables are
//! read from the file), none of the end-to-end ones reads 0, no request
//! fails, and both conservation identities hold.

use serde_json::Value;
use slade_bench::fixture::Scale;
use slade_bench::report;
use slade_bench::run::{run, Outcome, RunConfig};
use slade_bench::spec::{spec, MetricDef};
use slade_bench::workloads::Workload;
use std::path::PathBuf;

/// `(name, unit)` of every entry of one section of `BENCHMARK.json`.
fn declared(table: &[MetricDef]) -> Vec<(String, String)> {
    table.iter().map(|d| (d.name.clone(), d.unit.clone())).collect()
}

fn tiny(workload: Workload, trace: bool) -> Outcome {
    run(&RunConfig {
        workload,
        seed: 11,
        seconds: 0.6,
        trace,
        scale: Scale::Tiny,
        trace_dir: trace
            .then(|| PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-traces")),
    })
}

fn emitted(out: &Outcome) -> Vec<(String, String)> {
    out.metrics.iter().map(|(def, _)| (def.name.to_string(), def.unit.to_string())).collect()
}

#[test]
fn every_workload_emits_every_metric_and_nothing_fails() {
    for workload in Workload::ALL {
        let plain = tiny(workload, false);
        assert_eq!(emitted(&plain), declared(&spec().end_to_end), "{}", workload.name());
        assert!(
            plain.correct && plain.failed == 0 && plain.attempted > 0,
            "{}\n{}",
            workload.name(),
            plain.log
        );
        for (def, value) in plain.metrics.iter() {
            assert!(value > 0.0, "{} {} must never be 0", workload.name(), def.name);
        }
        // The line the driver reads has exactly the four keys.
        let line = Value::parse(&report::result_line(&plain)).expect("result line parses");
        let keys: Vec<&str> =
            line.as_object().expect("object").iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);

        let traced = tiny(workload, true);
        assert_eq!(emitted(&traced), declared(&spec().per_layer), "{}", workload.name());
        assert!(traced.correct && traced.failed == 0, "{}\n{}", workload.name(), traced.log);
        let get = |name: &str| traced.metrics.get(name);
        assert_eq!(get("run.fail_share"), 0.0);
        assert_eq!(get("serve.conservation_drift"), 0.0);
        assert_eq!(get("gateway.offered_drift"), 0.0);
        assert_eq!(get("eval.selfcheck_io_accuracy"), 1.0);
        assert!(get("nn.kernels.est_share_of_step") > 0.0);
        assert!(traced.log.contains("sum of self"), "the waterfall is printed");
        // Each workload moves its own layers and leaves the others alone.
        match workload {
            Workload::OfflineLong | Workload::OfflineShort => {
                assert!(
                    get("nn.engine.admit_share") > 0.0 && get("nn.engine.step_share") > 0.0
                );
                assert!(get("nn.engine.replay_residual_share") < 0.5);
                assert!(get("nn.kernels.decode_lane_tokens") > 0.0);
                assert_eq!(get("gateway.requests_ok") + get("serve.submitted"), 0.0);
                assert!(get("run.req_per_s") > 0.0 && get("run.host_loop_ms") > 0.0);
            }
            Workload::ServeClosed => {
                assert!(
                    get("serve.decoded") > 0.0
                        && get("serve.cache_hits") + get("serve.coalesced") > 0.0
                );
                assert_eq!(
                    get("serve.submitted"),
                    get("serve.decoded") + get("serve.cache_hits") + get("serve.coalesced")
                );
                assert!(get("serve.r8.lat_p50_ms") > 0.0, "the open-loop ladder ran");
                assert_eq!(get("gateway.requests_ok"), 0.0);
            }
            Workload::GatewayHot => {
                assert!(get("gateway.requests_ok") > 0.0);
                assert_eq!(get("gateway.requests_non200"), 0.0);
                assert_eq!(get("nn.kernels.decode_lane_tokens"), 0.0);
            }
        }
    }
}

#[test]
fn same_seed_same_digest_other_seed_other_digest() {
    let digest = |seed: u64| {
        let out = run(&RunConfig {
            workload: Workload::OfflineShort,
            seed,
            seconds: 0.1,
            trace: false,
            scale: Scale::Tiny,
            trace_dir: None,
        });
        out.info.get("output_digest").and_then(Value::as_str).expect("digest").to_string()
    };
    assert_eq!(digest(3), digest(3));
    assert_ne!(digest(3), digest(4));
}

#[test]
fn compare_passes_a_result_against_itself_and_fails_what_differs() {
    let metric =
        |v: f64| format!("{{\"unit\":\"x\",\"values\":[{v:?},{:?},{:?}]}}", v * 1.01, v * 0.99);
    let entry = |scale: f64, digest: &str, decoded: u64| {
        let e2e: Vec<String> = spec()
            .end_to_end
            .iter()
            .map(|d| format!("\"{}\":{}", d.name, metric(10.0 * scale)))
            .collect();
        format!(
            "{{\"attempted\":100,\"failed\":0,\"info\":{{\"output_digest\":\"{digest}\"}},\
             \"end_to_end\":{{{}}},\"per_layer\":{{\"nn.kernels.decode_lane_tokens\":{{\"value\":{decoded}}}}}}}",
            e2e.join(",")
        )
    };
    let file = |scale: f64, digest: &str, decoded: u64| {
        let w: Vec<String> = Workload::ALL
            .iter()
            .map(|w| format!("\"{}\":{}", w.name(), entry(scale, digest, decoded)))
            .collect();
        format!("{{\"workloads\":{{{}}}}}", w.join(","))
    };
    let base = file(1.0, "aa", 5120);
    let (report_text, pass) = report::compare(&base, &base).expect("compares");
    assert!(pass, "{report_text}");
    // Everything 40 % larger: lower-is-better metrics are worse.
    let (report_text, pass) = report::compare(&base, &file(1.4, "aa", 5120)).expect("compares");
    assert!(!pass && report_text.contains("WORSE"), "{report_text}");
    let (report_text, pass) = report::compare(&base, &file(1.0, "bb", 5120)).expect("compares");
    assert!(!pass && report_text.contains("output_digest") && report_text.contains("DIFFERS"));
    // An exact count that moved fails the comparison too.
    let (report_text, pass) = report::compare(&base, &file(1.0, "aa", 5121)).expect("compares");
    assert!(!pass && report_text.contains("nn.kernels.decode_lane_tokens"), "{report_text}");
}
