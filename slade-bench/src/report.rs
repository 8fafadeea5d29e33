//! Around the single run: the line the driver reads, `run` (every
//! workload in a child process of its own, so set-up time, peak memory and
//! the process-wide `slade_obs` counters belong to one workload), the
//! result file with its host block, the history line, and `compare`.

use crate::run::Outcome;
use crate::spec::{moves, spec, MetricDef, EXACT_COUNTS};
use crate::stats::{iqr_share, median};
use crate::workloads::Workload;
use serde_json::{Map, Value};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// The benchmark's own directory (`slade-bench/` in the checkout that
/// built this binary); `out/` and `history.jsonl` live under it.
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The last line a run prints: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_line(out: &Outcome) -> String {
    let mut doc = Map::new();
    doc.insert("correct".into(), Value::Bool(out.correct));
    doc.insert("attempted".into(), Value::UInt(out.attempted.max(1)));
    doc.insert("failed".into(), Value::UInt(out.failed));
    doc.insert("metrics".into(), out.metrics.to_json());
    Value::Object(doc).render()
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and on what the numbers were taken.
pub fn host_block(seed: u64) -> Map {
    let mut host = Map::new();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    host.insert("nproc".into(), Value::UInt(nproc as u64));
    host.insert("kernel_tier".into(), Value::Str(slade_nn::kernels::tier_status()));
    let dir = bench_dir();
    let commit = command_line("git", &["-C", &dir.to_string_lossy(), "rev-parse", "HEAD"]);
    host.insert("commit".into(), Value::Str(commit));
    host.insert("rustc".into(), Value::Str(command_line("rustc", &["--version"])));
    host.insert("seed".into(), Value::UInt(seed));
    host.insert("seconds".into(), Value::UInt(spec().run_seconds));
    host.insert("untraced_runs".into(), Value::UInt(UNTRACED_RUNS as u64));
    host
}

/// Untraced runs `run` makes of each workload; the result file keeps every
/// value, so `compare` sees the run-to-run spread.
const UNTRACED_RUNS: usize = 3;

/// One child run of this binary, as long as `BENCHMARK.json` says, so two
/// result files compare at one length. Returns `(result, info)`.
fn child_run(workload: Workload, seed: u64, trace: bool) -> Result<(Value, Value), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &spec().run_seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !output.status.success() {
        return Err(format!("{} exited with {}", workload.name(), output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let result = stdout.lines().last().ok_or("no result line")?;
    let info = stdout
        .lines()
        .find_map(|l| l.strip_prefix("info: "))
        .map_or(Ok(Value::Null), Value::parse)?;
    Ok((Value::parse(result)?, info))
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

fn metric_value(result: &Value, name: &str) -> Option<f64> {
    result
        .as_object()?
        .get("metrics")?
        .as_object()?
        .get(name)?
        .as_object()?
        .get("value")
        .and_then(number)
}

fn count_of(result: &Value, key: &str) -> u64 {
    result.as_object().and_then(|o| o.get(key)).and_then(number).unwrap_or(0.0) as u64
}

/// `run`: every workload, [`UNTRACED_RUNS`] untraced runs and one traced
/// run each, every run a child process. Prints the tables, writes
/// `out/result_seed<seed>.json`, appends one line per workload to
/// `history.jsonl`. Returns the result file's path.
///
/// # Errors
///
/// A child that cannot be started, exits non-zero or prints no result.
pub fn run_all(seed: u64) -> Result<PathBuf, String> {
    let host = host_block(seed);
    let (end_to_end, per_layer) = (&spec().end_to_end, &spec().per_layer);
    let mut workloads = Map::new();
    let mut history = String::new();
    for workload in Workload::ALL {
        eprintln!("== {} ==", workload.name());
        let mut entry = Map::new();
        let (mut attempted, mut failed) = (0u64, 0u64);
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); end_to_end.len()];
        let mut info = Value::Null;
        let mut host_loops: Vec<f64> = Vec::new();
        for _ in 0..UNTRACED_RUNS {
            let (result, run_info) = child_run(workload, seed, false)?;
            attempted += count_of(&result, "attempted");
            failed += count_of(&result, "failed");
            for (def, vals) in end_to_end.iter().zip(values.iter_mut()) {
                vals.push(
                    metric_value(&result, &def.name)
                        .ok_or(format!("{} not printed", def.name))?,
                );
            }
            let host_loop = run_info.as_object().and_then(|i| i.get("host_loop_ms"));
            host_loops.extend(host_loop.and_then(number));
            info = run_info;
        }
        let mut e2e = Map::new();
        let mut line = Map::new();
        for (k, v) in host.iter() {
            line.insert(k.clone(), v.clone());
        }
        line.insert("workload".into(), Value::Str(workload.name().into()));
        for (def, vals) in end_to_end.iter().zip(&values) {
            let mut m = Map::new();
            m.insert("unit".into(), Value::Str(def.unit.clone()));
            m.insert("median".into(), Value::Float(median(vals)));
            m.insert("iqr_share".into(), Value::Float(iqr_share(vals)));
            m.insert(
                "values".into(),
                Value::Array(vals.iter().map(|v| Value::Float(*v)).collect()),
            );
            e2e.insert(def.name.clone(), Value::Object(m));
            line.insert(def.name.clone(), Value::Float(median(vals)));
            println!(
                "{:<14} {:<16} {:>14.4} {:<6} (quartile spread {:.2} % over {} runs)",
                workload.name(),
                def.name,
                median(vals),
                def.unit,
                100.0 * iqr_share(vals),
                vals.len()
            );
        }
        let (traced, _) = child_run(workload, seed, true)?;
        attempted += count_of(&traced, "attempted");
        failed += count_of(&traced, "failed");
        let mut layers = Map::new();
        for def in per_layer {
            let value =
                metric_value(&traced, &def.name).ok_or(format!("{} not printed", def.name))?;
            let mut m = Map::new();
            m.insert("unit".into(), Value::Str(def.unit.clone()));
            m.insert("value".into(), Value::Float(value));
            layers.insert(def.name.clone(), Value::Object(m));
            println!(
                "{:<14} {:<44} {:>16.4} {:<8} -> {}",
                workload.name(),
                def.name,
                value,
                def.unit,
                moves(&def.name)
            );
        }
        println!(
            "{:<14} attempted {attempted} succeeded {} failed {failed}",
            workload.name(),
            attempted - failed
        );
        line.insert("fail_share".into(), Value::Float(failed as f64 / attempted.max(1) as f64));
        // What the host did meanwhile: a slow line in the history may be a
        // slow host.
        line.insert("host_loop_ms".into(), Value::Float(median(&host_loops)));
        entry.insert(
            "host_loop_ms".into(),
            Value::Array(host_loops.iter().map(|v| Value::Float(*v)).collect()),
        );
        entry.insert("attempted".into(), Value::UInt(attempted));
        entry.insert("failed".into(), Value::UInt(failed));
        entry.insert("info".into(), info);
        entry.insert("end_to_end".into(), Value::Object(e2e));
        entry.insert("per_layer".into(), Value::Object(layers));
        workloads.insert(workload.name().into(), Value::Object(entry));
        let _ = writeln!(history, "{}", Value::Object(line).render());
    }
    let mut doc = Map::new();
    doc.insert("host".into(), Value::Object(host));
    doc.insert("workloads".into(), Value::Object(workloads));
    let dir = bench_dir().join("out");
    let path = dir.join(format!("result_seed{seed}.json"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    std::fs::write(&path, Value::Object(doc).render())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let history_path = bench_dir().join("history.jsonl");
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&history_path)
        .and_then(|mut f| f.write_all(history.as_bytes()))
        .map_err(|e| format!("{}: {e}", history_path.display()))?;
    Ok(path)
}

/// The verdict on one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every run of `b` reads better than every run of `a`.
    Better,
    /// The median is no worse than the bound allows, and the run-to-run
    /// spread is narrow enough to say so.
    WithinBound,
    /// The median is worse than the bound allows.
    Worse,
    /// The run-to-run spread of either side is wider than the bound and
    /// the runs overlap: neither changed nor unchanged.
    Unresolved,
}

/// Judges `b` against baseline `a` for one metric.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let sign = if def.higher_is_better { -1.0 } else { 1.0 };
    // Positive = worse, as a share of the baseline median.
    let worse_by = sign * (median(b) - median(a)) / median(a).abs().max(f64::MIN_POSITIVE);
    let all_b_worse = b.iter().all(|y| a.iter().all(|x| sign * (y - x) > 0.0));
    let all_b_better = b.iter().all(|y| a.iter().all(|x| sign * (y - x) < 0.0));
    let separate = all_b_worse || all_b_better;
    if all_b_better {
        Verdict::Better
    } else if iqr_share(a).max(iqr_share(b)) > def.bound && !separate {
        Verdict::Unresolved
    } else if worse_by > def.bound {
        Verdict::Worse
    } else {
        Verdict::WithinBound
    }
}

fn values_of(entry: &Map, section: &str, name: &str) -> Vec<f64> {
    let Some(metric) = entry.get(section).and_then(Value::as_object).and_then(|s| s.get(name))
    else {
        return Vec::new();
    };
    let Some(m) = metric.as_object() else { return Vec::new() };
    match m.get("values").and_then(Value::as_array) {
        Some(vals) => vals.iter().filter_map(number).collect(),
        None => m.get("value").and_then(number).into_iter().collect(),
    }
}

/// `compare`: applies the bounds of `BENCHMARK.json` to every (metric,
/// workload) pair of two result files, checks digests and exact counts,
/// and returns the report and whether `b` passes: no pair worse, no
/// larger share of failures, same digests, same exact counts.
///
/// # Errors
///
/// A file that does not parse or lacks a workload.
pub fn compare(a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    let (a, b) = (Value::parse(a_text)?, Value::parse(b_text)?);
    let workloads = |v: &Value| {
        v.as_object().and_then(|o| o.get("workloads")).and_then(Value::as_object).cloned()
    };
    let (wa, wb) =
        (workloads(&a).ok_or("a: no `workloads`")?, workloads(&b).ok_or("b: no `workloads`")?);
    let mut report = String::new();
    let mut pass = true;
    for workload in Workload::ALL {
        let name = workload.name();
        let entry = |w: &Map, side: &str| {
            w.get(name)
                .and_then(Value::as_object)
                .cloned()
                .ok_or(format!("{side}: no workload `{name}`"))
        };
        let (ea, eb) = (entry(&wa, "a")?, entry(&wb, "b")?);
        for bound in &spec().end_to_end {
            let (va, vb) = (
                values_of(&ea, "end_to_end", &bound.name),
                values_of(&eb, "end_to_end", &bound.name),
            );
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{name}: `{}` missing from a result file", bound.name));
            }
            let verdict = judge(bound, &va, &vb);
            pass &= verdict != Verdict::Worse;
            let _ = writeln!(
                report,
                "{name:<14} {:<16} a {:>12.4} b {:>12.4} {:>+8.2} % (bound {:.0} %, spread a {:.1} % b {:.1} %) {}",
                bound.name,
                median(&va),
                median(&vb),
                100.0 * (median(&vb) - median(&va)) / median(&va).abs().max(f64::MIN_POSITIVE),
                100.0 * bound.bound,
                100.0 * iqr_share(&va),
                100.0 * iqr_share(&vb),
                match verdict {
                    Verdict::Better => "better",
                    Verdict::WithinBound => "within bound",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let fail_share = |e: &Map| {
            let get = |k: &str| e.get(k).and_then(number).unwrap_or(0.0);
            get("failed") / get("attempted").max(1.0)
        };
        let (fa, fb) = (fail_share(&ea), fail_share(&eb));
        pass &= fb <= fa;
        let _ = writeln!(
            report,
            "{name:<14} fail_share       a {fa:>12.6} b {fb:>12.6} {}",
            if fb <= fa { "ok" } else { "LARGER" }
        );
        let info = |e: &Map, key: &str| {
            e.get("info").and_then(Value::as_object).and_then(|i| i.get(key)).cloned()
        };
        // Not judged: the bench's own arithmetic loop, which no change to
        // the program moves. A difference here is the host's.
        let host = |e: &Map| -> Vec<f64> {
            let runs = e.get("host_loop_ms").and_then(Value::as_array);
            runs.map_or(Vec::new(), |r| r.iter().filter_map(number).collect())
        };
        let _ = writeln!(
            report,
            "{name:<14} host_loop_ms     a {:>12.3} b {:>12.3} (median over the untraced runs; not judged)",
            median(&host(&ea)),
            median(&host(&eb))
        );
        let digest = |e: &Map| {
            info(e, "output_digest").as_ref().and_then(Value::as_str).unwrap_or("?").to_string()
        };
        let (da, db) = (digest(&ea), digest(&eb));
        pass &= da == db;
        let _ = writeln!(
            report,
            "{name:<14} output_digest    a {da} b {db} {}",
            if da == db { "equal" } else { "DIFFERS" }
        );
        // `serve.submitted` on gateway_hot counts closed-loop requests, so
        // it scales with speed and is left out there.
        for count in EXACT_COUNTS {
            if workload == Workload::GatewayHot && count.starts_with("serve.") {
                continue;
            }
            let (ca, cb) =
                (values_of(&ea, "per_layer", count), values_of(&eb, "per_layer", count));
            if ca != cb {
                pass = false;
                let _ = writeln!(report, "{name:<14} {count:<32} a {ca:?} b {cb:?} DIFFERS");
            }
        }
    }
    let _ = writeln!(report, "{}", if pass { "PASS" } else { "FAIL" });
    Ok((report, pass))
}

/// Reads `path` for `compare`, naming it in the error.
///
/// # Errors
///
/// The I/O error with the path.
pub fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher: bool, bound: f64) -> MetricDef {
        MetricDef { name: "m".into(), unit: "x".into(), higher_is_better: higher, bound }
    }

    #[test]
    fn verdicts() {
        let lower = metric(false, 0.10);
        assert_eq!(
            judge(&lower, &[10.0, 10.1, 9.9], &[10.5, 10.4, 10.6]),
            Verdict::WithinBound
        );
        assert_eq!(judge(&lower, &[10.0, 10.1, 9.9], &[12.0, 12.1, 11.9]), Verdict::Worse);
        assert_eq!(judge(&lower, &[10.0, 10.1, 9.9], &[9.0, 9.1, 8.9]), Verdict::Better);
        // Spread wider than the bound and overlapping runs: unresolved,
        // whether the median is past the bound ...
        assert_eq!(judge(&lower, &[8.0, 10.0, 13.0], &[9.0, 11.5, 14.0]), Verdict::Unresolved);
        // ... or inside it: that is not "unchanged".
        assert_eq!(judge(&lower, &[8.0, 10.0, 13.0], &[8.5, 10.2, 12.0]), Verdict::Unresolved);
        // Wide spread, but every run of b worse than every run of a.
        assert_eq!(judge(&lower, &[8.0, 10.0, 12.0], &[13.0, 15.0, 18.0]), Verdict::Worse);
        // Wide spread, but every run of b better than every run of a.
        assert_eq!(judge(&lower, &[13.0, 15.0, 18.0], &[8.0, 10.0, 12.0]), Verdict::Better);
        let higher = metric(true, 0.07);
        assert_eq!(judge(&higher, &[100.0, 101.0], &[90.0, 91.0]), Verdict::Worse);
        assert_eq!(judge(&higher, &[100.0, 101.0], &[110.0, 111.0]), Verdict::Better);
        assert_eq!(judge(&higher, &[100.0, 101.0], &[99.0, 100.5]), Verdict::WithinBound);
    }
}
