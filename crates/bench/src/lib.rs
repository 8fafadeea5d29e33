//! Micro-benchmarks: `benches/micro.rs` (Criterion kernel/decode
//! micro-benchmarks). The
//! paper's figures and ablations are `slade_eval`'s `figures` bin.
//! End-to-end and per-layer numbers — what a performance claim is judged
//! on, the serving and gateway rows included — come from `slade-bench/` at
//! the repository root (`BENCHMARK.json`), not from here.

#![warn(missing_docs)]
