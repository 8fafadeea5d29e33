//! The serving runtime's load-bearing contract: for **any** shard count,
//! arrival order, duplicate ratio, and cache / spill setting, its
//! output is element-wise identical to sequential
//! [`Slade::decompile_batch`] — plus fairness (admission follows arrival
//! under sustained load), warm-start (a restarted runtime answers from
//! the spill tier without decoding), and metrics sanity.

use proptest::prelude::*;
use slade::{Slade, SladeBuilder, TrainProfile};
use slade_compiler::{Isa, OptLevel};
use slade_dataset::{generate_train, DatasetProfile};
use slade_serve::{ServeConfig, ServeRuntime};
use std::sync::{Arc, OnceLock};

/// One trained tiny decompiler plus a workload of real compiled assembly,
/// shared by every test in the file (training dominates test cost).
fn fixture() -> &'static (Arc<Slade>, Vec<String>) {
    static FIXTURE: OnceLock<(Arc<Slade>, Vec<String>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let items = generate_train(DatasetProfile::tiny(), 13);
        let slade = SladeBuilder::new(Isa::X86_64, OptLevel::O0)
            .profile(TrainProfile::tiny())
            .beam(3)
            .train(&items, 13);
        // Deduplicate by normalized text so cache-accounting assertions
        // can rely on every workload entry being a distinct cache line.
        let mut seen = std::collections::HashSet::new();
        let asms: Vec<String> = slade::make_pairs(&items, Isa::X86_64, OptLevel::O0)
            .into_iter()
            .map(|(asm, _)| asm)
            .filter(|asm| seen.insert(slade::normalize_asm(asm)))
            .take(8)
            .collect();
        assert!(asms.len() >= 4, "need a workload, got {}", asms.len());
        (Arc::new(slade), asms)
    })
}

/// The fixture model with a lane budget of `lanes`: a runtime gives each
/// of its shards `lanes / shards`.
fn with_lanes(slade: &Slade, lanes: usize) -> Arc<Slade> {
    let mut slade = slade.clone();
    slade.set_max_batch_lanes(lanes);
    Arc::new(slade)
}

/// `n` inputs no two of which share a cache key (a distinct trailing
/// label on a workload entry), so each occupies its own queue slot.
fn distinct_inputs(asms: &[String], n: usize) -> Vec<String> {
    (0..n).map(|i| format!("{}.Larrival{i}:\n", asms[i % asms.len()])).collect()
}

/// Deterministic permutation of `0..n` from a seed (Fisher-Yates with a
/// splitmix-style stream).
fn permutation(n: usize, mut seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let j = (seed >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The headline property: threads × arrival order × duplicate ratio
    /// × cache × spill ⇒ every request gets exactly what
    /// sequential `decompile_batch` returns, per element — whether it
    /// was decoded, cache-hit, coalesced onto another decode, or loaded
    /// from disk.
    #[test]
    fn runtime_output_is_identical_to_sequential(
        shards in 1usize..=4,
        perm_seed in 0u64..1_000_000,
        cache_on in 0u8..2,
        spill_on in 0u8..2,
        duplicates in 0usize..=8,
    ) {
        let (slade, asms) = fixture();
        let expected = slade.decompile_batch(
            &asms.iter().map(String::as_str).collect::<Vec<&str>>(),
        );
        let mut config = ServeConfig::with_shards(shards);
        if cache_on == 0 {
            config = config.without_cache();
        }
        let spill_dir = (spill_on == 1).then(|| tempdir("equiv-spill"));
        if let Some(dir) = &spill_dir {
            config = config.with_spill_dir(dir.path.clone());
        }
        // Small per-shard budgets force multi-round admission (requests
        // genuinely join running batches as lanes free up).
        let runtime = ServeRuntime::start(with_lanes(slade, shards * slade.beam() * 2), config);
        // Submit in a random arrival order; duplicates exercise the
        // cache and (duplicate-heavy cases) the coalescing table.
        let total = asms.len() + duplicates;
        let order = permutation(total, perm_seed);
        let handles: Vec<(usize, slade_serve::RequestHandle)> = order
            .iter()
            .map(|&i| {
                let idx = i % asms.len();
                (idx, runtime.submit(&asms[idx]))
            })
            .collect();
        for (idx, handle) in handles {
            let got = handle.wait().expect("infallible submit never errors");
            prop_assert_eq!(&got, &expected[idx], "request {} diverged", idx);
        }
        let snap = runtime.metrics();
        prop_assert_eq!(snap.completed, total as u64);
        prop_assert_eq!(snap.shed, 0u64);
        prop_assert_eq!(snap.expired, 0u64);
        // Counter conservation: every submission has exactly one terminal.
        prop_assert_eq!(
            snap.shed + snap.expired + snap.coalesced + snap.decoded + snap.cache.hits,
            snap.submitted,
        );
        runtime.shutdown();
    }
}

/// Self-cleaning unique temp directory (no tempfile dep in-tree).
struct TempDir {
    path: std::path::PathBuf,
}

fn tempdir(tag: &str) -> TempDir {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "slade-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed),
    ));
    std::fs::create_dir_all(&path).expect("create tempdir");
    TempDir { path }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// The kill-and-restart warm-start case: a second runtime pointed at the
/// first one's spill directory answers the same workload from disk —
/// zero decoded tokens, byte-identical hypotheses.
#[test]
fn restarted_runtime_starts_warm_from_spill() {
    let (slade, asms) = fixture();
    let dir = tempdir("warm-start");
    let refs: Vec<&str> = asms.iter().map(String::as_str).collect();
    let config = ServeConfig::with_shards(2).with_spill_dir(dir.path.clone());
    let first = ServeRuntime::start(Arc::clone(slade), config.clone());
    let cold = first.decompile_batch(&refs);
    let snap = first.metrics();
    assert_eq!(snap.cache.spill_writes, asms.len() as u64, "every decode spilled");
    assert!(snap.decode_tokens > 0);
    first.shutdown(); // the "kill": drop the process state, keep the disk

    let second = ServeRuntime::start(Arc::clone(slade), config);
    let warm = second.decompile_batch(&refs);
    assert_eq!(warm, cold, "spill tier must return exactly what decode returned");
    let snap = second.metrics();
    assert_eq!(snap.decode_tokens, 0, "warm start must not decode at all");
    assert_eq!(snap.cache.hits, asms.len() as u64);
    assert_eq!(snap.cache.spill_hits, asms.len() as u64, "all hits came from disk");
    assert_eq!(snap.decoded, 0);
    second.shutdown();
}

#[test]
fn sustained_load_admits_in_arrival_order_without_starvation() {
    let (slade, asms) = fixture();
    // One shard, budget for exactly one request at a time: every queued
    // request competes for the same lanes, the starvation-prone shape.
    let config = ServeConfig::with_shards(1).without_cache();
    let runtime = ServeRuntime::start(with_lanes(slade, slade.beam()), config);
    // Distinct inputs: each must occupy a queue slot for the
    // admission-order assertion to see all 24 arrivals.
    let total = 24usize;
    let handles: Vec<slade_serve::RequestHandle> =
        distinct_inputs(asms, total).iter().map(|asm| runtime.submit(asm)).collect();
    for handle in handles {
        assert!(!handle.wait().expect("no timeout configured").is_empty() || slade.beam() == 0);
    }
    let order = runtime.admission_order();
    assert_eq!(order.len(), total, "every request admitted exactly once");
    let sorted: Vec<u64> = (0..total as u64).collect();
    assert_eq!(order, sorted, "admission must follow arrival (no starvation)");
    runtime.shutdown();
}

#[test]
fn admission_order_is_globally_fifo_across_shards() {
    let (slade, asms) = fixture();
    let runtime = ServeRuntime::start(
        with_lanes(slade, 3 * slade.beam()),
        ServeConfig::with_shards(3).without_cache(),
    );
    let handles: Vec<slade_serve::RequestHandle> =
        distinct_inputs(asms, 18).iter().map(|asm| runtime.submit(asm)).collect();
    for handle in handles {
        handle.wait().expect("no timeout configured");
    }
    let order = runtime.admission_order();
    assert_eq!(order.len(), 18);
    for pair in order.windows(2) {
        assert!(pair[0] < pair[1], "pop order regressed: {order:?}");
    }
    runtime.shutdown();
}

#[test]
fn warm_cache_hits_skip_decode_and_metrics_account_for_it() {
    let (slade, asms) = fixture();
    let runtime = ServeRuntime::start(Arc::clone(slade), ServeConfig::with_shards(2));
    let refs: Vec<&str> = asms.iter().map(String::as_str).collect();
    let cold = runtime.decompile_batch(&refs);
    let warm = runtime.decompile_batch(&refs);
    assert_eq!(cold, warm, "cache must return exactly what decode returned");
    let snap = runtime.metrics();
    assert_eq!(snap.cache.misses, asms.len() as u64, "first pass all misses");
    assert_eq!(snap.cache.hits, asms.len() as u64, "second pass all hits");
    assert_eq!(snap.cache.entries, asms.len());
    assert!(snap.cache.hit_rate() > 0.49 && snap.cache.hit_rate() < 0.51);
    assert_eq!(snap.completed, 2 * asms.len() as u64);
    assert_eq!(snap.queue_depth, 0, "drained runtime has an empty queue");
    assert!(snap.p95_latency_ms >= snap.p50_latency_ms);
    // Raw text and its normalised form hit the same cache entry.
    let normed = slade::normalize_asm(&asms[0]);
    assert_ne!(normed, asms[0], "the compiler's output carries directives");
    assert_eq!(runtime.submit(&normed).wait().expect("no timeout configured"), cold[0]);
    assert_eq!(runtime.metrics().cache.hits, asms.len() as u64 + 1);
    runtime.shutdown();
}

#[test]
fn batch_of_one_matches_direct_engine_call() {
    let (slade, asms) = fixture();
    let runtime =
        ServeRuntime::start(Arc::clone(slade), ServeConfig::with_shards(1).without_cache());
    for asm in asms.iter().take(3) {
        assert_eq!(runtime.decompile(asm), slade.decompile(asm));
    }
    let snap = runtime.metrics();
    assert!(
        ["scalar", "avx2"].contains(&snap.kernel_isa),
        "unexpected tier {}",
        snap.kernel_isa
    );
    assert!(snap.decode_tokens > 0, "serving decoded tokens must be counted");
    runtime.shutdown();
}
