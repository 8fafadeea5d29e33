//! Property tests for [`slade_serve::RequestHandle::try_take`] — the
//! non-blocking delivery path the HTTP gateway's polling pool rides on.
//!
//! The contract under test is **claim-once delivery**: however a
//! handle's outcome is consumed — a polling loop hammering `try_take`,
//! a blocking `wait`, or both racing across coalesced duplicates of one
//! decode — each handle yields its outcome exactly once, every consumer
//! of the same input sees an identical result, and the admission
//! counters still partition `submitted` exactly.

use proptest::prelude::*;
use slade::Slade;
use slade_compiler::{Isa, OptLevel};
use slade_nn::{Seq2Seq, TransformerConfig};
use slade_serve::{ServeConfig, ServeRuntime, SubmitError};
use slade_tokenizer::UnigramTokenizer;
use std::sync::Arc;
use std::time::{Duration, Instant};

const BEAM: usize = 3;

/// Untrained small-profile decompiler (these tests assert delivery
/// semantics and accounting, not output quality).
fn poll_slade() -> Arc<Slade> {
    let corpus: Vec<String> = (0..10).map(asm).collect();
    let tokenizer = UnigramTokenizer::train(&corpus, 200);
    let model = Seq2Seq::new(TransformerConfig::small(tokenizer.vocab_size()), 31);
    Arc::new(Slade::from_parts(model, tokenizer, Isa::X86_64, OptLevel::O0, BEAM, 10))
}

fn asm(i: usize) -> String {
    format!("g{i}:\n\tmovl %edi, %eax\n\tsubl ${i}, %eax\n\tret\n")
}

/// Polls `try_take` until the outcome appears, bounded so a delivery
/// regression fails instead of hanging the suite.
fn poll_until_taken(handle: &slade_serve::RequestHandle) -> Result<Vec<String>, SubmitError> {
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
    /// after success returns `None`), and the counters agree that one
    /// decode fanned out to all the rest.
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
                lanes_per_shard: BEAM, // one decode at a time
                test_decode_delay: Duration::from_millis(delay_ms),
                ..ServeConfig::default().without_cache()
            },
        ));
        let total = pollers + waiters;
        let handles: Vec<_> = (0..total).map(|_| runtime.submit(&asm(0))).collect();
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
        let first = outcomes[0].as_ref().expect("no timeout configured");
        prop_assert!(!first.is_empty());
        for o in &outcomes {
            prop_assert_eq!(o.as_ref().expect("no timeout configured"), first);
        }
        let snap = runtime.metrics();
        prop_assert_eq!(snap.submitted, total as u64);
        prop_assert_eq!(snap.decoded, 1u64, "exactly one engine pass");
        prop_assert_eq!(snap.coalesced, (total - 1) as u64);
        assert_eq!(snap.unaccounted(), 0, "conservation violated: {snap:?}");
        Arc::try_unwrap(runtime).ok().expect("threads joined").shutdown();
    }
}

/// A polling consumer behind a slow decode with a tight request timeout:
/// the worker's pop-time triage expires the queued job, so the poll loop
/// observes `DeadlineExceeded` — delivered once, counted once.
#[test]
fn polling_observes_deadline_expiry_exactly_once() {
    let runtime = ServeRuntime::start(
        poll_slade(),
        ServeConfig {
            shards: 1,
            lanes_per_shard: BEAM,
            request_timeout: Duration::from_millis(50),
            test_decode_delay: Duration::from_millis(300),
            ..ServeConfig::default().without_cache().without_coalescing()
        },
    );
    // Busy occupies the only worker past its own deadline; B expires in
    // the queue and is triaged when the worker finally pops it.
    let busy = runtime.submit(&asm(1));
    let b = runtime.submit(&asm(2));
    let out = poll_until_taken(&b);
    assert_eq!(out.expect_err("deadline must expire"), SubmitError::DeadlineExceeded);
    assert!(b.try_take().is_none(), "expiry delivered twice");
    // Busy was popped *before* its deadline and nobody claimed expiry
    // while it decoded, so its late result is still delivered intact.
    busy.wait().expect("unclaimed slot is fulfilled by the decode");
    let snap = runtime.metrics();
    assert_eq!(snap.submitted, 2);
    assert_eq!(snap.expired, 1, "only the queued request expired");
    assert_eq!(snap.decoded, 1);
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
            lanes_per_shard: BEAM,
            test_decode_delay: Duration::from_millis(150),
            ..ServeConfig::default().without_cache().without_coalescing()
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
