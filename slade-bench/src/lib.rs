//! `slade-bench`: the repository's benchmark, as `BENCHMARK.json` at the
//! repository root describes it.
//!
//! Four workloads on the dataset's own assembly ([`workloads`]), end-to-end
//! metrics with regression bounds and per-layer metrics ([`spec`]), a span
//! recorder whose waterfall adds up ([`trace`]), probes that time every
//! layer alone through its public functions ([`probes`]), and the
//! `run`/`compare` tooling around them ([`report`]). It touches no product
//! crate. `README.md` beside this crate says why each workload exists and
//! how the bounds were derived.

#![warn(missing_docs)]

pub mod fixture;
pub mod probes;
pub mod report;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
