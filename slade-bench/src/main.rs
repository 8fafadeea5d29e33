//! `slade-bench`: see `README.md` beside this crate.
//!
//! ```text
//! slade-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! slade-bench run [--seed <n>]
//! slade-bench compare <a.json> <b.json>
//! ```

use slade_bench::fixture::Scale;
use slade_bench::report;
use slade_bench::run::{run, RunConfig};
use slade_bench::stats::allowed_cpus;
use slade_bench::workloads::Workload;
use std::path::Path;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  slade-bench --workload <offline_long|offline_short|serve_closed|gateway_hot> --seed <n> --seconds <s> --trace <0|1>
  slade-bench run [--seed <n>]
  slade-bench compare <a.json> <b.json>";

/// The value after `flag`, parsed; `default` when the flag is absent.
fn flag<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    default: Option<T>,
) -> Result<T, String> {
    match args.iter().position(|a| a == flag) {
        Some(at) => args
            .get(at + 1)
            .and_then(|v| v.parse().ok())
            .ok_or(format!("`{flag}` needs a value of the right kind")),
        None => default.ok_or(format!("`{flag}` is required")),
    }
}

/// Runs this same command line again under `taskset`, on the last CPU this
/// process is allowed, and returns the child's exit code; `None` when the
/// process is already held to one CPU or `taskset` cannot be run (the run
/// then goes on unpinned, and says so in its `info` line).
///
/// Why: the sandbox's virtual CPUs are disturbed independently of each
/// other (each has a neighbour of its own on the host), so the host loop
/// on the main thread's CPU says nothing about the CPU a shard worker runs
/// on — `serve_closed` read 170 or 200 requests per thousand loops for
/// minutes at a time — and a thread woken on the other CPU waits for the
/// hypervisor, not for the program. On one CPU every thread of the run
/// meets the host the loop meets.
fn rerun_pinned(args: &[String]) -> Option<ExitCode> {
    let cpus = allowed_cpus();
    if cpus.len() < 2 {
        return None;
    }
    let child = Command::new("taskset")
        .arg("-c")
        .arg(cpus[cpus.len() - 1].to_string())
        .arg(std::env::current_exe().ok()?)
        .args(args)
        .status()
        .ok()?;
    Some(ExitCode::from(child.code().unwrap_or(2) as u8))
}

fn single_run(args: &[String]) -> Result<bool, String> {
    let name: String = flag(args, "--workload", None)?;
    let workload = Workload::parse(&name).ok_or(format!("no workload `{name}`"))?;
    let seconds: f64 = flag(args, "--seconds", None)?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("`--seconds` must be in (0, 60]".into());
    }
    let trace: u8 = flag(args, "--trace", Some(0))?;
    let out = run(&RunConfig {
        workload,
        seed: flag(args, "--seed", None)?,
        seconds,
        trace: trace != 0,
        scale: Scale::Full,
        trace_dir: Some(report::bench_dir().join("out")),
    });
    eprint!("{}", out.log);
    for (def, value) in out.metrics.iter() {
        eprintln!("{:<14} {:<44} {:>16.4} {}", workload.name(), def.name, value, def.unit);
    }
    println!("info: {}", serde_json::Value::Object(out.info.clone()).render());
    println!("{}", report::result_line(&out));
    Ok(true)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("run") => {
            // Run length and repeat count are the benchmark's, not the
            // caller's: results of two `run`s must be comparable.
            if !matches!(args, [_] | [_, _, _]) || args.get(1).is_some_and(|a| a != "--seed") {
                return Err(USAGE.into());
            }
            let path = report::run_all(flag(args, "--seed", Some(1))?)?;
            println!("result written to {}", path.display());
            Ok(true)
        }
        Some("compare") => {
            let (a, b) = match (args.get(1), args.get(2)) {
                (Some(a), Some(b)) => (a, b),
                _ => return Err(USAGE.into()),
            };
            let (text, pass) =
                report::compare(&report::read(Path::new(a))?, &report::read(Path::new(b))?)?;
            print!("{text}");
            Ok(pass)
        }
        Some(first) if first.starts_with("--") => single_run(args),
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a.starts_with("--")) {
        if let Some(code) = rerun_pinned(&args) {
            return code;
        }
    }
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("slade-bench: {message}");
            ExitCode::from(2)
        }
    }
}
