//! Criterion micro-benchmarks for every subsystem on the decompilation
//! critical path: compilation, parsing, lifting, emulation, tokenization,
//! model forward pass, edit distance and the IO harness.

use criterion::{criterion_group, Criterion};
use slade_compiler::{compile_function, CompileOpts, Isa, OptLevel};
use slade_minic::parse_program;

const SRC: &str =
    "int total(int *a, int n) { int s = 0; for (int i = 0; i < n; i++) s += a[i]; return s; }";

fn bench_compile(c: &mut Criterion) {
    let p = parse_program(SRC).unwrap();
    c.bench_function("compile_x86_o0", |b| {
        b.iter(|| {
            compile_function(&p, "total", CompileOpts::new(Isa::X86_64, OptLevel::O0)).unwrap()
        })
    });
    c.bench_function("compile_x86_o3", |b| {
        b.iter(|| {
            compile_function(&p, "total", CompileOpts::new(Isa::X86_64, OptLevel::O3)).unwrap()
        })
    });
    c.bench_function("compile_arm_o3", |b| {
        b.iter(|| {
            compile_function(&p, "total", CompileOpts::new(Isa::Arm64, OptLevel::O3)).unwrap()
        })
    });
}

fn bench_lift_and_emulate(c: &mut Criterion) {
    let p = parse_program(SRC).unwrap();
    let asm =
        compile_function(&p, "total", CompileOpts::new(Isa::X86_64, OptLevel::O0)).unwrap();
    c.bench_function("ghidra_lift_x86_o0", |b| {
        b.iter(|| {
            slade_baselines::ghidra_decompile(&asm, slade_asm::Isa::X86_64, "total").unwrap()
        })
    });
    c.bench_function("emulate_x86_loop", |b| {
        let file = slade_asm::parse_asm(&asm, slade_asm::Isa::X86_64);
        b.iter(|| {
            let mut emu = slade_emu::Emulator::new(file.clone());
            let buf = emu.alloc_buffer(&[1u8; 64]);
            emu.call("total", &[slade_emu::Arg::Int(buf), slade_emu::Arg::Int(16)]).unwrap()
        })
    });
    c.bench_function("interpret_loop", |b| {
        b.iter(|| {
            let mut i = slade_minic::Interpreter::new(&p).unwrap();
            let buf = i.alloc_buffer(&[1u8; 64]);
            i.call("total", &[slade_minic::Value::Ptr(buf), slade_minic::Value::int(16)])
                .unwrap()
        })
    });
}

fn bench_tokenizer_and_metrics(c: &mut Criterion) {
    let corpus: Vec<String> = (0..20).map(|i| format!("{SRC} // v{i}")).collect();
    let tok = slade_tokenizer::UnigramTokenizer::train(&corpus, 300);
    c.bench_function("tokenizer_encode", |b| b.iter(|| tok.encode(SRC)));
    c.bench_function("edit_distance_200", |b| {
        let a = SRC.repeat(2);
        let d = SRC.replace('s', "t").repeat(2);
        b.iter(|| slade_eval::edit_distance(&a, &d))
    });
}

fn bench_model_forward(c: &mut Criterion) {
    let model = slade_nn::Seq2Seq::new(slade_nn::TransformerConfig::tiny(64), 0);
    let src: Vec<u32> = (4..20).collect();
    c.bench_function("transformer_encode_16tok", |b| b.iter(|| model.encode(&src)));
    c.bench_function("transformer_greedy_decode", |b| b.iter(|| model.greedy(&src, 1, 2, 16)));
    // Full-recompute decoding of a 24-token prefix — the reference
    // forward the KV-cached engine rows below are tested against.
    let mem = model.encode(&src);
    let prefix: Vec<u32> = (1..25).collect();
    c.bench_function("decode_prefix24_full_recompute", |b| {
        b.iter(|| {
            let mut last = Vec::new();
            for end in 1..=prefix.len() {
                last = model.decode_last_logits(&mem, src.len(), &prefix[..end]);
            }
            last
        })
    });
    c.bench_function("beam5_decode_16tok", |b| b.iter(|| model.beam_search(&src, 1, 2, 16, 5)));
}

/// Decode throughput, batch = 8 vs batch = 1, on the `small` profile:
/// eight requests through one `InferenceEngine::decode_batch` call, and
/// the first of them alone.
fn bench_batched_decode(c: &mut Criterion) {
    use slade_nn::{DecodeRequest, InferenceEngine, Seq2Seq, TransformerConfig};
    let model = Seq2Seq::new(TransformerConfig::small(512), 7);
    let engine = InferenceEngine::new(&model);
    let requests: Vec<DecodeRequest> = (0..8)
        .map(|i| DecodeRequest {
            src: (0..24u32).map(|t| 4 + (t * 7 + i) % 480).collect(),
            bos: 1,
            eos: 2,
            max_len: 24,
            beam: 5,
        })
        .collect();
    c.bench_function("decode8_batched_engine", |b| {
        b.iter(|| engine.decode_batch(&requests).len())
    });
    let single = &requests[..1];
    c.bench_function("decode1_batched_engine", |b| {
        b.iter(|| engine.decode_batch(single).len())
    });
}

fn bench_repair_and_typeinf(c: &mut Criterion) {
    let broken = "int scale_sum(int *arr, int n, int k) {\n  int s = 0;\n  for (int i = 0; i < n; i++) {\n    s += arr[i] * k;";
    c.bench_function("repair_truncated_function", |b| {
        b.iter(|| slade_repair::repair(broken, ""))
    });
    let valid = SRC;
    c.bench_function("repair_passthrough_valid", |b| {
        b.iter(|| slade_repair::repair(valid, ""))
    });
    let missing_type = "my_int total(my_int a, my_int b) { return a + b; }";
    c.bench_function("typeinf_missing_typedef", |b| {
        b.iter(|| slade_typeinf::infer_missing_types(missing_type, ""))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets =
    bench_compile,
    bench_lift_and_emulate,
    bench_tokenizer_and_metrics,
    bench_model_forward,
    bench_batched_decode,
    bench_repair_and_typeinf
}

/// Times `f` over `iters` calls, best of 3 rounds, in ns per call.
fn time_ns<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = std::time::Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

/// Decode tokens/sec on one core for a model: run the engine session loop
/// to completion and divide tokens decoded by wall time (single-threaded,
/// so per-core = total).
fn decode_tokens_per_sec(model: &slade_nn::Seq2Seq) -> f64 {
    use slade_nn::{DecodeRequest, InferenceEngine};
    let engine = InferenceEngine::new(model);
    let requests: Vec<DecodeRequest> = (0..8)
        .map(|i| DecodeRequest {
            src: (0..24u32).map(|t| 4 + (t * 7 + i) % 480).collect(),
            bos: 1,
            eos: 2,
            max_len: 24,
            beam: 5,
        })
        .collect();
    let refs: Vec<&DecodeRequest> = requests.iter().collect();
    let mut best = f64::NEG_INFINITY;
    for _ in 0..3 {
        let mut session = engine.session(8 * 5, 24);
        let t0 = std::time::Instant::now();
        session.admit_many(&refs);
        while !session.is_idle() {
            session.step();
        }
        let secs = t0.elapsed().as_secs_f64();
        best = best.max(session.decoded_tokens() as f64 / secs);
    }
    best
}

/// Per-kernel and end-to-end decode benchmarks, forced scalar against
/// the detected tier; prints one row each. Skipped when a name filter is
/// active that does not match "kernels" (CI's smoke pass filters on
/// "decode").
fn bench_kernels() {
    use slade_nn::kernels::{self, IsaTier};
    use slade_nn::{Seq2Seq, TransformerConfig};

    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--list") {
        println!("kernels: bench");
        return;
    }
    if let Some(filter) =
        args.iter().skip(1).find(|a| !a.starts_with('-') && !a.ends_with("bench"))
    {
        if !"kernels".contains(filter.as_str()) {
            return;
        }
    }

    let detected = kernels::detected_tier();
    println!("kernels: detected isa {}, comparing against forced scalar", detected.name());

    // Decode-path shapes on the small profile: a lane projection
    // (lanes x d @ d x d) and the logits projection (lanes x d @ d x
    // vocab), the largest matmul of an engine step, at 8 requests x
    // beam 5 = 40 lanes.
    let (lanes, d, vocab) = (40usize, 64usize, 512usize);
    let a = vec![0.37f32; lanes * d];
    let w_dd = vec![0.11f32; d * d];
    let w_vocab = vec![0.05f32; d * vocab];
    let mut out = vec![0.0f32; lanes * vocab];

    let run = |name: String, iters: usize, f: &mut dyn FnMut()| {
        kernels::set_tier(IsaTier::Scalar);
        let scalar_ns = time_ns(iters, &mut *f);
        kernels::set_tier(detected);
        let simd_ns = time_ns(iters, &mut *f);
        println!(
            "kernel_{name:<34} scalar {scalar_ns:>11.0} ns, {} {simd_ns:>11.0} ns ({:.2}x)",
            detected.name(),
            scalar_ns / simd_ns
        );
    };
    // Packed j-block layout (what ProjWeight stores): sequential
    // slabs dodge the L1 set conflicts a plain transposed layout hits at
    // the 2 KB row stride of the vocab projection.
    let w_vocab_packed = kernels::pack_xposed_blocks(&w_vocab, d, vocab);
    run(format!("xpacked_{lanes}x{d}x{vocab}"), 50, &mut || {
        kernels::matmul_xpacked_into(
            &a,
            &w_vocab_packed,
            &mut out[..lanes * vocab],
            lanes,
            d,
            vocab,
        );
    });
    run(format!("transb_{lanes}x{d}x{d}"), 200, &mut || {
        kernels::matmul_transb_into(&a, &w_dd, &mut out[..lanes * d], lanes, d, d);
    });
    run(format!("row_max_{vocab}"), 2_000, &mut || {
        criterion::black_box(kernels::row_max(&out[..vocab]));
    });
    run(format!("sum_exp_{vocab}"), 2_000, &mut || {
        let max = kernels::row_max(&out[..vocab]);
        criterion::black_box(kernels::sum_exp(&out[..vocab], max));
    });
    // Single-query attention core at the small-profile head shape (4
    // heads x dh 16 over a 24-token cache): QK^T scores, softmax, and
    // the weighted-V accumulation, per head — the per-lane work of one
    // decode step's self-attention.
    let (heads, dh, nctx) = (4usize, 16usize, 24usize);
    let qv = vec![0.21f32; heads * dh];
    let keys = vec![0.13f32; nctx * heads * dh];
    let vals = vec![0.09f32; nctx * heads * dh];
    let mut scores = vec![0.0f32; nctx];
    let mut actx = vec![0.0f32; heads * dh];
    let ascale = 1.0 / (dh as f32).sqrt();
    run(format!("attend_{heads}h{dh}_n{nctx}"), 2_000, &mut || {
        actx.iter_mut().for_each(|c| *c = 0.0);
        for head in 0..heads {
            let off = head * dh;
            kernels::attn_scores_into(
                &qv[off..off + dh],
                &keys[off..],
                heads * dh,
                ascale,
                &mut scores,
            );
            kernels::softmax_into(&mut scores);
            kernels::attn_weighted_sum_into(
                &scores,
                &vals[off..],
                heads * dh,
                &mut actx[off..off + dh],
            );
        }
    });
    run(format!("layer_norm_{lanes}x{d}"), 1_000, &mut || {
        kernels::layer_norm_into(
            &a,
            &w_dd[..d],
            &w_dd[d..2 * d],
            lanes,
            d,
            &mut out[..lanes * d],
        );
    });
    // End-to-end decode throughput, forced scalar against the detected
    // tier.
    let model = Seq2Seq::new(TransformerConfig::small(512), 7);
    let [scalar_tps, simd_tps] = [IsaTier::Scalar, detected].map(|tier| {
        kernels::set_tier(tier);
        let tps = decode_tokens_per_sec(&model);
        println!("decode_tokens_per_sec_f32_{:<8} {tps:>14.0} tok/s/core", tier.name());
        tps
    });
    kernels::set_tier(detected);
    println!("decode simd speedup (f32): {:.2}x", simd_tps / scalar_tps.max(1e-12));
}

fn main() {
    benches();
    bench_kernels();
}
