//! Micro-benchmarks and paper figures: `benches/micro.rs` (Criterion
//! kernel/decode micro-benchmarks; `BENCH_kernels.json` and CI's int8 ÷
//! f32 gate), `benches/figures.rs` and `benches/ablations.rs`
//! (figure/table regeneration). End-to-end and per-layer numbers — what a
//! performance claim is judged on, the serving and gateway rows included
//! — come from `slade-bench/` at the repository root (`BENCHMARK.json`),
//! not from here.

#![warn(missing_docs)]
