//! Property tests for [`slade_serve::RequestHandle::try_take`],
//! [`slade_serve::RequestHandle::expire`] and
//! [`slade_serve::RequestHandle::on_complete`] — the non-blocking delivery
//! path the HTTP gateway rides on.
//!
//! The contract under test is **claim-once delivery**: however a
//! handle's outcome is consumed — a polling loop hammering `try_take`,
//! a blocking `wait`, an `expire()`, or all of them racing across
//! coalesced duplicates of one decode — each handle yields its outcome
//! exactly once, every consumer
//! of the same input sees an identical result, the admission counters
//! still partition `submitted` exactly, and a completion hook runs exactly
//! once per handle whichever terminal the request reaches.

use proptest::prelude::*;
use slade::Slade;
use slade_compiler::{Isa, OptLevel};
use slade_nn::{Seq2Seq, TransformerConfig};
use slade_serve::{RequestError, ServeConfig, ServeRuntime};
use slade_tokenizer::UnigramTokenizer;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const BEAM: usize = 3;

/// Untrained small-profile decompiler (these tests assert delivery
/// semantics and accounting, not output quality).
fn poll_slade() -> Arc<Slade> {
    let corpus: Vec<String> = (0..10).map(asm).collect();
    let tokenizer = UnigramTokenizer::train(&corpus, 200);
    let model = Seq2Seq::new(TransformerConfig::small(tokenizer.vocab_size()), 31);
    let mut slade = Slade::from_parts(model, tokenizer, Isa::X86_64, OptLevel::O0, BEAM, 10);
    slade.set_max_batch_lanes(BEAM); // one decode at a time on the one shard
    Arc::new(slade)
}

fn asm(i: usize) -> String {
    format!("g{i}:\n\tmovl %edi, %eax\n\tsubl ${i}, %eax\n\tret\n")
}

/// Registers a hook on `handle` that counts its own runs.
fn count_completions(handle: &slade_serve::RequestHandle) -> Arc<AtomicUsize> {
    let fired = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&fired);
    handle.on_complete(move || {
        counter.fetch_add(1, Ordering::SeqCst);
    });
    fired
}

/// Polls `try_take` until the outcome appears, bounded so a delivery
/// regression fails instead of hanging the suite.
fn poll_until_taken(handle: &slade_serve::RequestHandle) -> Result<Vec<String>, RequestError> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Some(outcome) = handle.try_take() {
            return outcome;
        }
        assert!(Instant::now() < deadline, "try_take never produced an outcome");
        std::thread::sleep(Duration::from_millis(1));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Coalesced duplicates of one input, consumed by a racing mix of
    /// polling threads (repeated `try_take`) and blocking waiters
    /// (`wait`): every consumer sees the identical hypotheses, each
    /// handle's outcome is delivered exactly once (the next `try_take`
    /// after success returns `None`), each handle's completion hook —
    /// registered before any consumer starts — runs exactly once, and the
    /// counters agree that one decode fanned out to all the rest.
    #[test]
    fn poll_and_wait_racers_each_get_one_outcome(
        pollers in 1usize..=4,
        waiters in 1usize..=4,
        delay_ms in 20u64..=80,
    ) {
        let runtime = Arc::new(ServeRuntime::start(
            poll_slade(),
            ServeConfig {
                shards: 1,
                test_decode_delay: Duration::from_millis(delay_ms),
                ..ServeConfig::default().without_cache()
            },
        ));
        let total = pollers + waiters;
        let handles: Vec<_> = (0..total).map(|_| runtime.submit(&asm(0))).collect();
        let fired: Vec<_> = handles.iter().map(count_completions).collect();
        let mut threads = Vec::new();
        for (i, handle) in handles.into_iter().enumerate() {
            threads.push(std::thread::spawn(move || {
                if i < pollers {
                    let out = poll_until_taken(&handle);
                    // Claim-once: the outcome was taken; a second poll
                    // must observe the emptied slot.
                    assert!(handle.try_take().is_none(), "outcome delivered twice");
                    out
                } else {
                    handle.wait()
                }
            }));
        }
        let outcomes: Vec<_> =
            threads.into_iter().map(|t| t.join().expect("consumer thread")).collect();
        // The worker runs a hook right after storing the outcome a
        // consumer may already have returned with: shutting down joins it.
        let snap = runtime.metrics();
        Arc::try_unwrap(runtime).ok().expect("threads joined").shutdown();
        for (i, f) in fired.iter().enumerate() {
            prop_assert_eq!(f.load(Ordering::SeqCst), 1, "hook of handle {}", i);
        }
        let first = outcomes[0].as_ref().expect("no timeout configured");
        prop_assert!(!first.is_empty());
        for o in &outcomes {
            prop_assert_eq!(o.as_ref().expect("no timeout configured"), first);
        }
        prop_assert_eq!(snap.submitted, total as u64);
        prop_assert_eq!(snap.decoded, 1u64, "exactly one engine pass");
        prop_assert_eq!(snap.coalesced, (total - 1) as u64);
        assert_eq!(snap.unaccounted(), 0, "conservation violated: {snap:?}");
    }

    /// `expire()` raced against everything else that resolves a request,
    /// on a seeded schedule of six handles over three inputs: the decode
    /// and its coalesced fan-out fulfilling them, a poller calling
    /// `try_take` on the very handle `expire()` is called on, `wait` and
    /// polling on duplicates sharing its decode, and — on odd seeds — the
    /// runtime's own expiry at pop time and at `wait`'s deadline. Each
    /// handle's outcome reaches exactly one consumer, each hook runs once,
    /// and the counters agree: one terminal per request, `expired`
    /// exactly the `DeadlineExceeded` outcomes.
    #[test]
    fn expire_races_fulfilment_pollers_and_waiters(
        seed in 0u64..u64::MAX,
        delay_ms in 10u64..=40,
    ) {
        let mut lcg = seed;
        let mut draw = |n: u64| {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (lcg >> 33) % n
        };
        let timeout_ms = if seed % 2 == 1 { 20 + draw(40) } else { 0 };
        let runtime = ServeRuntime::start(
            poll_slade(),
            ServeConfig {
                shards: 1,
                request_timeout: Duration::from_millis(timeout_ms),
                test_decode_delay: Duration::from_millis(delay_ms),
                ..ServeConfig::default()
            },
        );
        // (input, consumer, ms before `expire()`); consumer 0 waits, 1
        // polls, 2 expires beside a poller on the same handle.
        let plan: Vec<(usize, u64, u64)> =
            (0..6).map(|_| (draw(3) as usize, draw(3), draw(80))).collect();
        let handles: Vec<_> =
            plan.iter().map(|&(input, ..)| runtime.submit(&asm(10 + input))).collect();
        let fired: Vec<_> = handles.iter().map(count_completions).collect();
        let (waited, shared): (Vec<_>, Vec<_>) =
            handles.into_iter().enumerate().partition(|&(i, _)| plan[i].1 == 0);
        let expired_by_call: Vec<AtomicBool> = plan.iter().map(|_| AtomicBool::new(false)).collect();
        let outcomes: Vec<_> = std::thread::scope(|scope| {
            let mut threads = Vec::new();
            for (i, handle) in waited {
                threads.push(scope.spawn(move || (i, Some(handle.wait()))));
            }
            for (i, handle) in &shared {
                let i = *i;
                if plan[i].1 == 1 {
                    threads.push(scope.spawn(move || (i, Some(poll_until_taken(handle)))));
                    continue;
                }
                let (after, done) = (Duration::from_millis(plan[i].2), &expired_by_call[i]);
                threads.push(scope.spawn(move || {
                    std::thread::sleep(after);
                    let outcome = handle.expire();
                    done.store(true, Ordering::SeqCst);
                    (i, outcome)
                }));
                threads.push(scope.spawn(move || loop {
                    // The flag first: once `expire()` has returned, the
                    // outcome is either taken here next or already its.
                    let finished = done.load(Ordering::SeqCst);
                    if let Some(outcome) = handle.try_take() {
                        return (i, Some(outcome));
                    }
                    if finished {
                        return (i, None);
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }));
            }
            threads.into_iter().map(|t| t.join().expect("consumer thread")).collect()
        });
        let snap = runtime.metrics();
        runtime.shutdown();
        let mut per_handle = [0usize; 6];
        let mut answers: [Option<Vec<String>>; 3] = Default::default();
        let (mut answered, mut expired) = (0u64, 0u64);
        for (i, outcome) in outcomes {
            let Some(outcome) = outcome else { continue };
            per_handle[i] += 1;
            match outcome {
                Ok(out) => {
                    answered += 1;
                    let first = answers[plan[i].0].get_or_insert_with(|| out.clone());
                    prop_assert_eq!(&out, &*first, "two answers for input {}", plan[i].0);
                }
                Err(RequestError::DeadlineExceeded) => expired += 1,
            }
        }
        prop_assert_eq!(per_handle, [1; 6], "outcomes per handle, plan {:?}", plan);
        let hooks: Vec<usize> = fired.iter().map(|f| f.load(Ordering::SeqCst)).collect();
        prop_assert_eq!(hooks, vec![1; 6], "hook runs per handle, plan {:?}", plan);
        prop_assert_eq!(snap.submitted, 6);
        prop_assert_eq!(snap.expired, expired, "{:?}", snap);
        prop_assert_eq!(snap.decoded + snap.coalesced + snap.cache.hits, answered, "{:?}", snap);
        prop_assert_eq!(snap.unaccounted(), 0, "conservation violated: {:?}", snap);
    }
}

/// A polling consumer behind a slow decode with a tight request timeout:
/// the worker's pop-time triage expires the queued job, so the poll loop
/// observes `DeadlineExceeded` — delivered once, counted once. A blocking
/// waiter beside it expires itself at its deadline. Both ways the hook
/// runs once, as it does for the decode that made them late.
#[test]
fn polling_observes_deadline_expiry_exactly_once() {
    let runtime = ServeRuntime::start(
        poll_slade(),
        ServeConfig {
            shards: 1,
            request_timeout: Duration::from_millis(50),
            test_decode_delay: Duration::from_millis(300),
            ..ServeConfig::default().without_cache()
        },
    );
    // Busy occupies the only worker past its own deadline; B and C expire
    // in the queue: C at its waiter's deadline, B when the worker finally
    // pops it.
    let busy = runtime.submit(&asm(1));
    let b = runtime.submit(&asm(2));
    let c = runtime.submit(&asm(3));
    let fired = [&busy, &b, &c].map(count_completions);
    assert_eq!(c.wait().expect_err("deadline must expire"), RequestError::DeadlineExceeded);
    assert_eq!(fired[2].load(Ordering::SeqCst), 1, "the expiring waiter runs the hook");
    let out = poll_until_taken(&b);
    assert_eq!(out.expect_err("deadline must expire"), RequestError::DeadlineExceeded);
    assert!(b.try_take().is_none(), "expiry delivered twice");
    // Busy was popped *before* its deadline and nobody claimed expiry
    // while it decoded, so its late result is still delivered intact.
    busy.wait().expect("unclaimed slot is fulfilled by the decode");
    let snap = runtime.metrics();
    assert_eq!(snap.submitted, 3);
    assert_eq!(snap.expired, 2, "only the queued requests expired");
    assert_eq!(snap.decoded, 1);
    assert_eq!(snap.unaccounted(), 0, "conservation violated: {snap:?}");
    runtime.shutdown();
    assert_eq!(fired.map(|f| f.load(Ordering::SeqCst)), [1, 1, 1]);
}

/// A hook registered on a request that already has its outcome — a cache
/// hit, fulfilled inside `submit` — runs before `on_complete` returns,
/// and so does one registered after the outcome was consumed.
#[test]
fn hook_registered_after_fulfilment_fires_at_once() {
    let runtime = ServeRuntime::start(poll_slade(), ServeConfig::with_shards(1));
    let expected = runtime.decompile(&asm(4));
    let hit = runtime.submit(&asm(4));
    let fired = count_completions(&hit);
    assert_eq!(fired.load(Ordering::SeqCst), 1, "a hit is complete at submit");
    assert_eq!(hit.try_take().expect("a hit is ready").expect("no timeout"), expected);
    let again = count_completions(&hit);
    assert_eq!(again.load(Ordering::SeqCst), 1, "still complete once taken");
    assert_eq!(fired.load(Ordering::SeqCst), 1);
    assert_eq!(runtime.metrics().cache.hits, 1);
    runtime.shutdown();
}

/// The hook runs on the fulfilling thread with no runtime lock held: one
/// that reads the metrics (cache lock) and the admission order (queue
/// lock) returns, for a decode, a coalesced duplicate and a triaged
/// expiry alike — and finds its own outcome ready to take.
#[test]
fn hook_may_call_back_into_the_runtime() {
    let runtime = Arc::new(ServeRuntime::start(
        poll_slade(),
        ServeConfig {
            shards: 1,
            request_timeout: Duration::from_millis(100),
            test_decode_delay: Duration::from_millis(250),
            ..ServeConfig::default()
        },
    ));
    let (tx, rx) = std::sync::mpsc::channel();
    // Leader and duplicate share one decode, popped at once; the third is
    // popped a decode delay later, past its deadline, and expires at triage.
    let handles: Vec<_> =
        [5, 5, 6].iter().map(|&i| Arc::new(runtime.submit(&asm(i)))).collect();
    for (i, handle) in handles.iter().enumerate() {
        let (rt, own, tx) = (Arc::clone(&runtime), Arc::clone(handle), tx.clone());
        handle.on_complete(move || {
            let seen = (rt.metrics().submitted, rt.admission_order().len());
            // Before the test is told it may go on: a worker that dropped
            // the last reference to the runtime would join itself.
            drop(rt);
            tx.send((i, seen, own.try_take())).expect("the test is listening");
        });
    }
    drop(handles);
    let mut outcomes: Vec<_> = (0..3)
        .map(|_| rx.recv_timeout(Duration::from_secs(30)).expect("a hook deadlocked"))
        .collect();
    outcomes.sort_by_key(|(i, ..)| *i);
    for (_, seen, _) in &outcomes {
        assert_eq!(seen.0, 3, "the hook read the live counters");
    }
    let leader = outcomes[0].2.clone().expect("outcome precedes the hook").expect("decoded");
    assert_eq!(outcomes[1].2, Some(Ok(leader)), "the duplicate got the leader's answer");
    assert_eq!(outcomes[2].2, Some(Err(RequestError::DeadlineExceeded)));
    let runtime = Arc::try_unwrap(runtime).ok().expect("each hook dropped its clone");
    let snap = runtime.metrics();
    assert_eq!((snap.decoded, snap.coalesced, snap.expired), (1, 1, 1));
    assert_eq!(snap.unaccounted(), 0, "conservation violated: {snap:?}");
    runtime.shutdown();
}

/// `try_take` before completion is a pure peek-and-miss: it returns
/// `None` without consuming, corrupting, or expiring anything, and the
/// eventual outcome is still delivered intact.
#[test]
fn premature_polls_do_not_disturb_delivery() {
    let runtime = ServeRuntime::start(
        poll_slade(),
        ServeConfig {
            shards: 1,
            test_decode_delay: Duration::from_millis(150),
            ..ServeConfig::default().without_cache()
        },
    );
    let expected = runtime.slade().decompile(&asm(3));
    let handle = runtime.submit(&asm(3));
    let mut misses = 0u32;
    let out = loop {
        match handle.try_take() {
            Some(outcome) => break outcome,
            None => misses += 1,
        }
    };
    assert!(misses > 0, "decode delay guarantees at least one miss");
    assert_eq!(out.expect("no timeout configured"), expected);
    assert!(handle.try_take().is_none());
    let snap = runtime.metrics();
    // The sequential `expected` went straight to the model, not through
    // admission: only the polled handle is accounted.
    assert_eq!(snap.submitted, 1);
    assert_eq!(snap.expired, 0);
    assert_eq!(snap.unaccounted(), 0, "conservation violated: {snap:?}");
    runtime.shutdown();
}
