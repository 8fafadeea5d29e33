//! Deterministic fault injection for the admission tier: seeded burst
//! arrivals, duplicate-heavy workloads, deliberately-undersized queue
//! caps, and artificially slow shards (the `test_decode_delay` hook)
//! drive every admission terminal — shed, expired, coalesced, decoded,
//! cache hit — and every test closes with the *counter-conservation
//! invariant*:
//!
//! ```text
//! submitted == shed + expired + coalesced + decoded + cache hits
//! ```
//!
//! i.e. no request is lost and no request is counted (or delivered)
//! twice, no matter how the faults interleave.

use slade::Slade;
use slade_compiler::{Isa, OptLevel};
use slade_nn::{Seq2Seq, TransformerConfig};
use slade_serve::{Overloaded, RequestError, ServeConfig, ServeRuntime};
use slade_tokenizer::UnigramTokenizer;
use std::sync::Arc;
use std::time::{Duration, Instant};

const BEAM: usize = 3;

/// Untrained small-profile decompiler (decode cost is representative,
/// hypotheses are noise — these tests assert accounting, not output),
/// with lanes for one request at a time on each of `shards` shards.
fn faulty_slade(shards: usize) -> Arc<Slade> {
    let corpus: Vec<String> = (0..12).map(asm).collect();
    let tokenizer = UnigramTokenizer::train(&corpus, 200);
    let model = Seq2Seq::new(TransformerConfig::small(tokenizer.vocab_size()), 23);
    let mut slade = Slade::from_parts(model, tokenizer, Isa::X86_64, OptLevel::O0, BEAM, 10);
    slade.set_max_batch_lanes(shards * BEAM);
    Arc::new(slade)
}

fn asm(i: usize) -> String {
    format!("f{i}:\n\tmovl %edi, %eax\n\taddl ${i}, %eax\n\tret\n")
}

/// Blocks until the queue gauge drains to zero (workers popped all
/// queued jobs), bounded so a regression fails instead of hanging.
fn await_drained_queue(runtime: &ServeRuntime) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while runtime.metrics().queue_depth > 0 {
        assert!(Instant::now() < deadline, "queue never drained");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Undersized cap + a slow shard: with the worker busy, exactly
/// `queue_cap` fallible submissions are accepted and every further one
/// sheds with [`Overloaded`] — and the shed counter, the handles, and the
/// Prometheus family all agree.
#[test]
fn shed_exactly_when_queue_full() {
    let runtime = ServeRuntime::start(
        faulty_slade(1),
        ServeConfig {
            shards: 1,
            queue_cap: 3,
            test_decode_delay: Duration::from_millis(150),
            ..ServeConfig::default().without_cache()
        },
    );
    // Occupy the only worker, then wait until it has *popped* the job so
    // the queue is observably empty before the burst.
    let busy = runtime.submit(&asm(0));
    await_drained_queue(&runtime);
    // Burst of 7 distinct requests against a cap of 3: deterministic
    // 3 accepts + 4 sheds (the worker is asleep in the delay hook and
    // cannot drain between submissions).
    let mut accepted = Vec::new();
    let mut shed = 0u64;
    for i in 1..=7 {
        match runtime.try_submit(&asm(i)) {
            Ok(h) => accepted.push(h),
            Err(Overloaded) => shed += 1,
        }
    }
    assert_eq!(accepted.len(), 3, "exactly queue_cap accepts");
    assert_eq!(shed, 4);
    busy.wait().expect("no timeout configured");
    for h in accepted {
        h.wait().expect("accepted requests complete");
    }
    let snap = runtime.metrics();
    assert_eq!(snap.submitted, 8);
    assert_eq!(snap.shed, 4);
    assert_eq!(snap.decoded, 4);
    assert_eq!(snap.expired + snap.coalesced + snap.cache.hits, 0);
    assert_eq!(snap.unaccounted(), 0, "conservation violated: {snap:?}");
    assert!(
        runtime.metrics_text().contains("slade_shed_total 4"),
        "shed count must reach the exposition",
    );
    runtime.shutdown();
}

/// The regression the issue calls out: a request whose deadline expires
/// while *queued behind a slow decode* must resolve promptly with
/// `DeadlineExceeded` — not block until the decode finishes.
#[test]
fn expired_waiter_returns_promptly() {
    let delay = Duration::from_millis(400);
    let runtime = ServeRuntime::start(
        faulty_slade(1),
        ServeConfig {
            shards: 1,
            request_timeout: Duration::from_millis(50),
            test_decode_delay: delay,
            ..ServeConfig::default().without_cache()
        },
    );
    // A occupies the worker (and will itself expire mid-decode: the
    // delay exceeds its own deadline). B queues behind it.
    let a = runtime.submit(&asm(0));
    await_drained_queue(&runtime);
    let b = runtime.submit(&asm(1));
    let t0 = Instant::now();
    let err = b.wait().expect_err("deadline must expire");
    let waited = t0.elapsed();
    assert_eq!(err, RequestError::DeadlineExceeded);
    assert!(
        waited < delay - Duration::from_millis(50),
        "wait blocked {waited:?} — the expired waiter waited out the decode",
    );
    assert_eq!(a.wait().expect_err("A expired too"), RequestError::DeadlineExceeded);
    // Let the worker pop B and observe its lost claim (cancelled decode).
    await_drained_queue(&runtime);
    std::thread::sleep(2 * delay);
    let snap = runtime.metrics();
    assert_eq!(snap.submitted, 2);
    assert_eq!(snap.expired, 2);
    assert_eq!(snap.decoded, 0, "expired work must not count as decoded");
    assert_eq!(snap.unaccounted(), 0, "conservation violated: {snap:?}");
    runtime.shutdown();
}

/// Duplicate-heavy workload with the cache off: all duplicates of an
/// in-flight decode collapse onto one engine pass and every waiter gets
/// an identical result.
#[test]
fn duplicates_coalesce_onto_one_decode() {
    let runtime = ServeRuntime::start(
        faulty_slade(1),
        ServeConfig {
            shards: 1,
            test_decode_delay: Duration::from_millis(100),
            ..ServeConfig::default().without_cache()
        },
    );
    // Distinct leader occupies the worker so the duplicates below are
    // all submitted while their own leader is still queued/decoding.
    let first = runtime.submit(&asm(0));
    let dupes: Vec<_> = (0..6).map(|_| runtime.submit(&asm(1))).collect();
    let lead = first.wait().expect("no timeout configured");
    assert!(!lead.is_empty());
    let outputs: Vec<_> =
        dupes.into_iter().map(|h| h.wait().expect("no timeout configured")).collect();
    for o in &outputs[1..] {
        assert_eq!(o, &outputs[0], "fanned-out results must be identical");
    }
    let snap = runtime.metrics();
    assert_eq!(snap.submitted, 7);
    assert_eq!(snap.decoded, 2, "one decode per distinct text");
    assert_eq!(snap.coalesced, 5, "five duplicates attached to the in-flight decode");
    assert_eq!(snap.cache.hits, 0);
    assert_eq!(snap.unaccounted(), 0, "conservation violated: {snap:?}");
    // Only two jobs ever entered the queue.
    assert_eq!(runtime.admission_order().len(), 2);
    assert!(runtime.metrics_text().contains("slade_coalesced_total 5"));
    runtime.shutdown();
}

/// Coalescing and the result cache compose: duplicates of an in-flight
/// decode coalesce, duplicates after it completes hit the cache, and the
/// conservation sum still partitions exactly.
#[test]
fn coalesce_with_cache_hits_accounting() {
    let runtime = ServeRuntime::start(
        faulty_slade(1),
        ServeConfig {
            shards: 1,
            test_decode_delay: Duration::from_millis(100),
            ..ServeConfig::default()
        },
    );
    let leader = runtime.submit(&asm(2));
    let attached: Vec<_> = (0..3).map(|_| runtime.submit(&asm(2))).collect();
    let expect = leader.wait().expect("no timeout configured");
    for h in attached {
        assert_eq!(h.wait().expect("no timeout configured"), expect);
    }
    // After completion the entry is cached: two more are plain hits.
    for _ in 0..2 {
        assert_eq!(runtime.decompile(&asm(2)), expect);
    }
    let snap = runtime.metrics();
    assert_eq!(snap.submitted, 6);
    assert_eq!(snap.decoded, 1);
    assert_eq!(snap.coalesced, 3);
    assert_eq!(snap.cache.hits, 2);
    assert_eq!(snap.unaccounted(), 0, "conservation violated: {snap:?}");
    runtime.shutdown();
}

/// Seeded concurrent bursts across every fault at once — undersized
/// caps, tight timeouts, duplicate-heavy arrivals, slow shards — from
/// several submitter threads. Whatever interleaving each seed produces,
/// every handle resolves to exactly one outcome and the counters
/// partition `submitted` exactly.
#[test]
fn seeded_burst_conservation() {
    for seed in 0u64..6 {
        let cap = [0usize, 2, 5][seed as usize % 3];
        let timeout = [Duration::ZERO, Duration::from_millis(60)][seed as usize % 2];
        let runtime = ServeRuntime::start(
            faulty_slade(2),
            ServeConfig {
                shards: 2,
                queue_cap: cap,
                request_timeout: timeout,
                test_decode_delay: Duration::from_millis(20),
                ..ServeConfig::default()
            },
        );
        let runtime = Arc::new(runtime);
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let rt = Arc::clone(&runtime);
                std::thread::spawn(move || {
                    // Per-thread LCG stream: duplicate-heavy (8 distinct
                    // texts across 48 submissions) with jittered arrivals.
                    let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(t);
                    let mut ok = 0u64;
                    let mut shed = 0u64;
                    let mut expired = 0u64;
                    for _ in 0..12 {
                        s = s
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let idx = ((s >> 33) % 8) as usize;
                        if s % 3 == 0 {
                            std::thread::sleep(Duration::from_millis(s % 7));
                        }
                        match rt.try_submit(&asm(idx)) {
                            Err(Overloaded) => shed += 1,
                            Ok(h) => match h.wait() {
                                Ok(out) => {
                                    assert!(!out.is_empty());
                                    ok += 1;
                                }
                                Err(RequestError::DeadlineExceeded) => expired += 1,
                            },
                        }
                    }
                    (ok, shed, expired)
                })
            })
            .collect();
        let mut ok = 0u64;
        let mut shed = 0u64;
        let mut expired = 0u64;
        for t in threads {
            let (o, s, e) = t.join().expect("submitter thread");
            ok += o;
            shed += s;
            expired += e;
        }
        // Expired queued jobs are cancelled lazily (next pop); drain so
        // the worker-side expiry accounting is complete before snapshot.
        await_drained_queue(&runtime);
        std::thread::sleep(Duration::from_millis(200));
        let snap = runtime.metrics();
        assert_eq!(snap.submitted, 48, "seed {seed}");
        assert_eq!(snap.shed, shed, "seed {seed}: handle-side shed count");
        assert_eq!(snap.expired, expired, "seed {seed}: handle-side expiry count");
        assert_eq!(
            snap.decoded + snap.coalesced + snap.cache.hits,
            ok,
            "seed {seed}: every Ok handle was decoded, coalesced, or a hit",
        );
        assert_eq!(snap.unaccounted(), 0, "conservation violated: {snap:?}");
        Arc::try_unwrap(runtime).ok().expect("all threads joined").shutdown();
    }
}
