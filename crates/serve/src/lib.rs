//! `slade_serve` — the multi-threaded serving runtime above
//! [`slade::Slade`] and the batched inference engine.
//!
//! The engine (`slade_nn::engine`) made one decode batch fast; this crate
//! makes a *process* serve: a *sharded worker pool* (one engine
//! [`slade_nn::engine::DecodeSession`] per thread, model shared via
//! `Arc`) scales across cores, a FIFO *admission queue* feeds the shards
//! and admits newly arrived requests into **running** decode batches as
//! finished requests free lanes (continuous batching), a *result cache*
//! keyed by the hash of [`slade::normalize_asm`] output plus the
//! ISA/opt/beam configuration answers duplicate-heavy traffic without
//! decoding, and a *metrics surface* exposes queue depth, per-shard lane
//! occupancy, latency percentiles and cache hit rate as a plain struct
//! snapshot.
//!
//! # Admission control
//!
//! Production traffic needs backpressure, not an unbounded queue. The
//! runtime's admission tier gives every submission exactly one terminal
//! state (the *counter-conservation invariant* the fault-injection suite
//! enforces — `submitted == shed + expired + coalesced + decoded +
//! cache hits`):
//!
//! * **shed** — [`ServeRuntime::try_submit`] rejects with [`Overloaded`]
//!   when the queue is at [`ServeConfig::queue_cap`] (cache hits and
//!   coalesced attaches cost no decode and are never shed);
//! * **expired** — with a configured [`ServeConfig::request_timeout`],
//!   a request whose deadline passes before its result is ready resolves
//!   to [`RequestError::DeadlineExceeded`] *promptly*: its one deadline is
//!   kept by whichever waiter gets there first — [`RequestHandle::wait`]
//!   wakes at it, a front end holding the handle calls
//!   [`RequestHandle::expire`], and a worker popping an already-expired
//!   job cancels it instead of decoding stale work (unless coalesced
//!   waiters are attached and still want the answer);
//! * **coalesced** — a duplicate submission whose cache key is already
//!   decoding attaches to the in-flight request's pending entry and gets
//!   the same result fanned out, one decode for N waiters;
//! * **decoded** — the request ran the engine itself;
//! * **cache hit** — answered at submit from the result cache (memory
//!   LRU, or the [`spill`] disk tier that survives restarts).
//!
//! # Determinism
//!
//! Runtime output is element-wise identical to sequential
//! [`slade::Slade::decompile_batch`] for any shard count, arrival order,
//! and cache setting: every step-path kernel computes each lane's row
//! with a fixed summation order, lanes attend only their own caches, and
//! the beam policy runs per request — so batch composition, admission
//! time, and shard assignment cannot change a request's hypotheses, and
//! the cache stores exactly what decode would return (verified by the
//! equivalence property test in `tests/equivalence.rs`). Coalesced
//! waiters verify the full normalized text, not just the key hash, so a
//! hash collision can never fan out another function's hypotheses.
//!
//! # Example
//!
//! ```no_run
//! use slade_serve::{ServeConfig, ServeRuntime};
//! use std::sync::Arc;
//!
//! # fn demo(slade: slade::Slade) {
//! let runtime = ServeRuntime::start(Arc::new(slade), ServeConfig::with_shards(4));
//! let hypotheses = runtime.decompile("f:\n\tret\n");
//! println!("{} candidates, {:?}", hypotheses.len(), runtime.metrics());
//! # }
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod metrics;
pub mod queue;
pub mod spill;

pub use cache::{CacheKey, CacheStats, ResultCache};
pub use metrics::MetricsSnapshot;
pub use queue::AdmissionQueue;
pub use spill::{SpillProbe, SpillTier, SPILL_CAPACITY, SPILL_VERSION};

use metrics::MetricsInner;
use slade::{normalize_asm, Slade};
use slade_nn::{DecodeRequest, InferenceEngine};
use slade_obs::{export::PromText, SpanRecord, Stage};
use slade_tokenizer::special;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Serving-runtime configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads, each with its own engine decode session. Requests
    /// shard across them; throughput scales with cores until the queue
    /// runs dry. Each gets an equal share of the model's lane budget
    /// ([`slade::Slade::max_batch_lanes`]), at least one beam wide.
    pub shards: usize,
    /// Result-cache capacity in entries; `0` disables the memory tier.
    pub cache_capacity: usize,
    /// Bounded-admission queue cap for [`ServeRuntime::try_submit`]:
    /// when this many requests are already queued, further fallible
    /// submissions shed with [`Overloaded`]. `0` = unbounded (never sheds).
    pub queue_cap: usize,
    /// Per-request end-to-end deadline: a request not answered within
    /// this resolves to [`RequestError::DeadlineExceeded`], and queued
    /// work past its deadline is cancelled instead of decoded.
    /// [`Duration::ZERO`] disables timeouts.
    pub request_timeout: Duration,
    /// Directory for the disk-spill result-cache tier; `None` = memory
    /// only. Entries persist across restarts and are shared between
    /// runtimes pointed at the same directory (see [`spill`]); the tier
    /// keeps [`spill::SPILL_CAPACITY`] of them.
    pub spill_dir: Option<PathBuf>,
    /// Test-only fault-injection hook: each worker sleeps this long
    /// before decoding a popped batch, simulating a slow shard so
    /// shedding, timeouts, and coalescing can be driven
    /// deterministically. [`Duration::ZERO`] (the default) disables it.
    #[doc(hidden)]
    pub test_decode_delay: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 1,
            cache_capacity: 1024,
            queue_cap: 0,
            request_timeout: Duration::ZERO,
            spill_dir: None,
            test_decode_delay: Duration::ZERO,
        }
    }
}

impl ServeConfig {
    /// Default configuration at a given shard count.
    pub fn with_shards(shards: usize) -> Self {
        ServeConfig { shards: shards.max(1), ..ServeConfig::default() }
    }

    /// Disables the result cache (memory tier; the spill tier is
    /// controlled by [`ServeConfig::spill_dir`]).
    pub fn without_cache(mut self) -> Self {
        self.cache_capacity = 0;
        self
    }

    /// Bounds the admission queue at `cap` (see
    /// [`ServeConfig::queue_cap`]).
    pub fn with_queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = cap;
        self
    }

    /// Sets the per-request end-to-end deadline.
    pub fn with_request_timeout(mut self, timeout: Duration) -> Self {
        self.request_timeout = timeout;
        self
    }

    /// Enables the disk-spill result-cache tier under `dir`.
    pub fn with_spill_dir(mut self, dir: PathBuf) -> Self {
        self.spill_dir = Some(dir);
        self
    }
}

/// [`ServeRuntime::try_submit`] shed the request: the queue was at
/// [`ServeConfig::queue_cap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overloaded;

/// Why an admitted request resolved without hypotheses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestError {
    /// The request's [`ServeConfig::request_timeout`] elapsed before a
    /// result was ready.
    DeadlineExceeded,
}

/// What an admitted request resolves to.
type Outcome = Result<Vec<String>, RequestError>;

/// One submission's identity, shared by its handle, its queued job and —
/// for a coalesced duplicate — its entry in the pending table.
#[derive(Clone)]
struct Req {
    slot: Arc<ResponseSlot>,
    /// Trace id for the request's span tree.
    trace_id: u64,
    /// Submit time, µs since the observability epoch (span start times).
    submitted_us: u64,
    /// End-to-end deadline; `None` when timeouts are disabled.
    deadline: Option<Instant>,
}

/// One queued decompilation job.
struct Job {
    req: Req,
    norm_asm: String,
    key: CacheKey,
}

/// Fixed span ids within a request's trace: the tree shape is static
/// (root → queue/tokenize/encode/decode → per-step children), so ids are
/// assigned by position rather than a per-trace counter.
mod span_id {
    pub const REQUEST: u32 = 1;
    pub const QUEUE: u32 = 2;
    /// Coalesced/shed requests have a two-span tree: root + this marker
    /// (same position as the queue span they never occupy).
    pub const ATTACH: u32 = 2;
    pub const TOKENIZE: u32 = 3;
    pub const ENCODE: u32 = 4;
    pub const DECODE: u32 = 5;
    /// Decode-step spans are `FIRST_STEP + step_index`.
    pub const FIRST_STEP: u32 = 6;
}

/// The one terminal state every submission reaches (see the module
/// docs); the discriminant is the root `Request` span's `detail`.
#[derive(Debug, Clone, Copy)]
enum Terminal {
    Decoded = 0,
    CacheHit = 1,
    Coalesced = 2,
    Shed = 3,
    Expired = 4,
}

/// Runs once when a request reaches its terminal state (see
/// [`RequestHandle::on_complete`]).
type Hook = Box<dyn FnOnce() + Send>;

/// What a [`ResponseSlot`] holds.
enum SlotState {
    /// No terminal yet; the hook, if one is registered, fires at it.
    Pending(Option<Hook>),
    /// Fulfilled, outcome not yet consumed.
    Ready(Outcome),
    /// Fulfilled and consumed.
    Taken,
}

impl SlotState {
    /// The outcome, once: `Ready` becomes `Taken`.
    fn take(&mut self) -> Option<Outcome> {
        match std::mem::replace(self, SlotState::Taken) {
            SlotState::Ready(outcome) => Some(outcome),
            other => {
                *self = other;
                None
            }
        }
    }
}

/// Completion cell a caller blocks on. `claimed` is the exactly-once
/// terminal-state gate: whoever wins [`ResponseSlot::try_claim`] — the
/// decode fan-out, a cache hit, or an expiring waiter/worker — is the
/// only party that fulfills the slot and counts the terminal, so no
/// request is ever counted or delivered twice.
struct ResponseSlot {
    state: Mutex<SlotState>,
    ready: Condvar,
    claimed: AtomicBool,
}

impl ResponseSlot {
    fn new() -> Self {
        ResponseSlot {
            state: Mutex::new(SlotState::Pending(None)),
            ready: Condvar::new(),
            claimed: AtomicBool::new(false),
        }
    }

    /// True exactly once, for the first caller.
    fn try_claim(&self) -> bool {
        !self.claimed.swap(true, Ordering::AcqRel)
    }

    fn is_claimed(&self) -> bool {
        self.claimed.load(Ordering::Acquire)
    }

    /// Stores the outcome, wakes blocked waiters, then runs the hook —
    /// after the slot's lock is released, so the hook may consume the
    /// outcome it was told about.
    fn fulfill(&self, outcome: Outcome) {
        let prev = std::mem::replace(
            &mut *self.state.lock().expect("slot lock"),
            SlotState::Ready(outcome),
        );
        self.ready.notify_all();
        if let SlotState::Pending(Some(hook)) = prev {
            hook();
        }
    }
}

/// Handle to one in-flight request; [`RequestHandle::wait`] blocks until
/// its hypotheses are ready or its deadline passes.
pub struct RequestHandle {
    req: Req,
    shared: Arc<Shared>,
}

impl RequestHandle {
    /// The request's trace id — look up its span tree afterwards with
    /// [`ServeRuntime::trace_spans`] or `slade-cli trace`.
    pub fn trace_id(&self) -> u64 {
        self.req.trace_id
    }

    /// When the request expires: [`ServeConfig::request_timeout`] after
    /// submit, `None` without one.
    pub fn deadline(&self) -> Option<Instant> {
        self.req.deadline
    }

    /// Blocks until the request completes; returns up to `beam`
    /// hypotheses, best first — or [`RequestError::DeadlineExceeded`]
    /// **at the deadline** when [`ServeConfig::request_timeout`] is
    /// configured: an expired request still queued behind a slow decode
    /// resolves promptly, it does not wait for the decode to finish.
    pub fn wait(self) -> Result<Vec<String>, RequestError> {
        self.resolve(self.req.deadline).expect("`wait` consumes the handle's only outcome")
    }

    /// Resolves the request now: its outcome if one is ready, else
    /// [`RequestError::DeadlineExceeded`], ending it `expired` as its
    /// deadline would — unless a fulfiller holds the claim at this
    /// instant, whose outcome it then waits for. `None`, as from
    /// [`RequestHandle::try_take`], when another consumer of this handle
    /// took the outcome first.
    pub fn expire(&self) -> Option<Result<Vec<String>, RequestError>> {
        self.resolve(Some(Instant::now()))
    }

    /// Non-blocking poll; returns the outcome once, if ready.
    pub fn try_take(&self) -> Option<Result<Vec<String>, RequestError>> {
        self.req.slot.state.lock().expect("slot lock").take()
    }

    /// Takes the outcome, blocking until it exists; at `deadline` the
    /// request expires, unless a fulfiller won the claim first — its
    /// outcome is then awaited without a deadline.
    fn resolve(&self, mut deadline: Option<Instant>) -> Option<Outcome> {
        let slot = &self.req.slot;
        let mut state = slot.state.lock().expect("slot lock");
        loop {
            if !matches!(*state, SlotState::Pending(_)) {
                return state.take();
            }
            let now = Instant::now();
            state = match deadline {
                None => slot.ready.wait(state).expect("slot wait"),
                Some(t) if now < t => {
                    slot.ready.wait_timeout(state, t - now).expect("slot wait").0
                }
                Some(_) => {
                    drop(state);
                    self.shared.expire(&self.req);
                    deadline = None;
                    slot.state.lock().expect("slot lock")
                }
            };
        }
    }

    /// Registers `hook` to run exactly once when the request reaches its
    /// terminal state — decoded, cache hit, coalesced or expired — on the
    /// thread that fulfils it, with no runtime lock held; at once, on this
    /// thread, when it already has. [`RequestHandle::try_take`] from the
    /// hook (or after it) finds the outcome unless a consumer got there
    /// first. A second registration replaces a hook that has not fired.
    /// The hook must not own the runtime: dropping the last reference on
    /// a worker would have the worker join itself.
    pub fn on_complete(&self, hook: impl FnOnce() + Send + 'static) {
        let mut state = self.req.slot.state.lock().expect("slot lock");
        match &mut *state {
            SlotState::Pending(slot) => *slot = Some(Box::new(hook)),
            SlotState::Ready(_) | SlotState::Taken => {
                drop(state);
                hook();
            }
        }
    }
}

/// In-flight decode entry: presence in the pending table means "this key
/// is queued or decoding"; the full normalized text guards against hash
/// collisions coalescing two different functions.
struct PendingEntry {
    norm_asm: String,
    /// Duplicates attached to the decode, answered at its fan-out.
    waiters: Vec<Req>,
}

/// State shared between the front-end and the workers.
struct Shared {
    slade: Arc<Slade>,
    queue: Mutex<AdmissionQueue<Job>>,
    work: Condvar,
    /// In-flight coalescing table (lock order: `queue` before `pending`
    /// when both are held; never `pending` → `queue`).
    pending: Mutex<HashMap<CacheKey, PendingEntry>>,
    cache: ResultCache,
    metrics: MetricsInner,
    shutdown: AtomicBool,
    /// Concurrent-lane budget of each shard's decode session.
    shard_lanes: usize,
    queue_cap: usize,
    request_timeout: Duration,
    test_decode_delay: Duration,
}

impl Shared {
    /// Ends `req` in `terminal`, for the caller that won its slot's claim
    /// (a shed submission, never handed out, has none to win): counts the
    /// terminal, records latency for the answered ones, writes the root
    /// span up to `end_us` and, last, fulfills the slot of a handed-out
    /// request — with `outputs` unless it expired.
    fn finish(&self, terminal: Terminal, req: &Req, end_us: u64, outputs: Vec<String>) {
        let m = &self.metrics;
        let dur_us = end_us.saturating_sub(req.submitted_us);
        let (counter, latency_us, outcome) = match terminal {
            Terminal::Decoded => (Some(&m.decoded), Some(dur_us), Some(Ok(outputs))),
            Terminal::Coalesced => (Some(&m.coalesced), Some(dur_us), Some(Ok(outputs))),
            // Counted by the probe (`ResultCache::get`'s `hits`, the term
            // the conservation identity reads); a hit waits for nothing.
            Terminal::CacheHit => (None, Some(0), Some(Ok(outputs))),
            Terminal::Shed => (Some(&m.shed), None, None),
            Terminal::Expired => {
                (Some(&m.expired), None, Some(Err(RequestError::DeadlineExceeded)))
            }
        };
        if let Some(counter) = counter {
            counter.add(1);
        }
        if let Some(us) = latency_us {
            m.record_latency(us);
        }
        slade_obs::obs().record_span(SpanRecord {
            trace_id: req.trace_id,
            span_id: span_id::REQUEST,
            parent: 0,
            stage: Stage::Request,
            start_us: req.submitted_us,
            dur_us,
            detail: terminal as u64,
        });
        if let Some(outcome) = outcome {
            req.slot.fulfill(outcome);
        }
    }

    /// The one expiry: ends `req` `expired` if its claim is still open.
    fn expire(&self, req: &Req) {
        if req.slot.try_claim() {
            self.finish(Terminal::Expired, req, slade_obs::obs().now_us(), Vec::new());
        }
    }
}

/// The serving runtime: spawns the shard workers at
/// [`ServeRuntime::start`], serves until dropped (drop drains in-flight
/// work, then joins the workers).
pub struct ServeRuntime {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl ServeRuntime {
    /// Starts `config.shards` workers around a shared decompiler.
    pub fn start(slade: Arc<Slade>, config: ServeConfig) -> Self {
        let shards = config.shards.max(1);
        let beam = slade.beam().max(1);
        // The model's lane budget split across the shards, so total arena
        // memory stays at that cap — floored at one full beam width, since
        // a shard with fewer lanes could never admit anything.
        let shard_lanes = (slade.max_batch_lanes() / shards).max(beam);
        // Resolve the kernel dispatch once up front so the metrics surface
        // reports what the workers will actually run with — both the
        // effective tier and whether a `SLADE_KERNEL_ISA` request was
        // honored or degraded.
        let kernel_isa = slade_nn::kernels::active_tier().name();
        let kernel_isa_status = slade_nn::kernels::tier_status();
        let cache = match &config.spill_dir {
            Some(dir) => {
                ResultCache::with_spill(config.cache_capacity, dir.clone(), SPILL_CAPACITY)
            }
            None => ResultCache::new(config.cache_capacity),
        };
        let shared = Arc::new(Shared {
            slade,
            queue: Mutex::new(AdmissionQueue::new()),
            work: Condvar::new(),
            pending: Mutex::new(HashMap::new()),
            cache,
            metrics: MetricsInner::new(
                (0..shards).map(|_| Default::default()).collect(),
                shard_lanes,
                kernel_isa,
                kernel_isa_status,
            ),
            shutdown: AtomicBool::new(false),
            shard_lanes,
            queue_cap: config.queue_cap,
            request_timeout: config.request_timeout,
            test_decode_delay: config.test_decode_delay,
        });
        let workers = (0..shards)
            .map(|shard| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("slade-serve-{shard}"))
                    .spawn(move || worker_loop(&shared, shard))
                    .expect("spawn shard worker")
            })
            .collect();
        ServeRuntime { shared, workers }
    }

    /// Submits raw assembly text; returns immediately with a handle.
    /// Infallible admission: never sheds, even past
    /// [`ServeConfig::queue_cap`] (trusted in-process callers); the
    /// configured request timeout still applies.
    pub fn submit(&self, asm_text: &str) -> RequestHandle {
        self.admit(normalize_asm(asm_text), false).expect("infallible submit never sheds")
    }

    /// Fallible admission with shed-on-full backpressure: rejects with
    /// [`Overloaded`] when [`ServeConfig::queue_cap`] requests are
    /// already queued. Cache hits and coalesced attaches cost no decode
    /// and are admitted regardless of queue depth.
    pub fn try_submit(&self, asm_text: &str) -> Result<RequestHandle, Overloaded> {
        self.admit(normalize_asm(asm_text), true)
    }

    /// The single admission path: cache probe → coalesce attach → cap
    /// check → enqueue (see module docs for the terminal states).
    fn admit(
        &self,
        normalized_asm: String,
        enforce_cap: bool,
    ) -> Result<RequestHandle, Overloaded> {
        let sh = &*self.shared;
        let o = slade_obs::obs();
        sh.metrics.submitted.add(1);
        let req = Req {
            slot: Arc::new(ResponseSlot::new()),
            trace_id: o.next_trace_id(),
            submitted_us: o.now_us(),
            deadline: (sh.request_timeout > Duration::ZERO)
                .then(|| Instant::now() + sh.request_timeout),
        };
        let handle = RequestHandle { req: req.clone(), shared: Arc::clone(&self.shared) };
        let key = CacheKey::new(
            &normalized_asm,
            sh.slade.isa(),
            sh.slade.opt(),
            sh.slade.beam().max(1),
            sh.slade.max_tgt_len(),
        );
        if sh.cache.enabled() {
            if let Some(outputs) = sh.cache.get(&key, &normalized_asm) {
                let now_us = o.now_us();
                o.record_span(SpanRecord {
                    trace_id: req.trace_id,
                    span_id: span_id::QUEUE, // position 2 in the fixed tree
                    parent: span_id::REQUEST,
                    stage: Stage::Cache,
                    start_us: req.submitted_us,
                    dur_us: now_us - req.submitted_us,
                    detail: 1,
                });
                req.slot.try_claim();
                sh.finish(Terminal::CacheHit, &req, now_us, outputs);
                return Ok(handle);
            }
        }
        let job = Job { req, norm_asm: normalized_asm, key };
        {
            // Coalesce attach, cap check and enqueue are atomic under the
            // queue lock (pending nests inside it — see the lock order
            // note on `Shared::pending`), so a sequential submitter
            // observes exact shed behavior.
            let mut q = sh.queue.lock().expect("queue lock");
            let mut pending = sh.pending.lock().expect("pending lock");
            let collides = match pending.get_mut(&job.key) {
                Some(entry) if entry.norm_asm == job.norm_asm => {
                    // Duplicate of an in-flight decode: attach, don't
                    // enqueue. Terminal state (coalesced or expired) is
                    // decided at fan-out or deadline.
                    entry.waiters.push(job.req);
                    return Ok(handle);
                }
                // Same key, different text: a 64-bit collision. Decode
                // independently; the entry stays owned by the other
                // text's decode.
                Some(_) => true,
                None => false,
            };
            if enforce_cap && sh.queue_cap > 0 && q.len() >= sh.queue_cap {
                drop(pending);
                drop(q);
                self.shed(&job.req);
                return Err(Overloaded);
            }
            if !collides {
                let entry =
                    PendingEntry { norm_asm: job.norm_asm.clone(), waiters: Vec::new() };
                pending.insert(job.key, entry);
            }
            q.push(job);
            sh.metrics.queue_depth.add(1);
        }
        self.shared.work.notify_all();
        Ok(handle)
    }

    /// Terminal accounting + spans for one shed submission.
    fn shed(&self, req: &Req) {
        let o = slade_obs::obs();
        let now_us = o.now_us();
        o.record_span(SpanRecord {
            trace_id: req.trace_id,
            span_id: span_id::ATTACH,
            parent: span_id::REQUEST,
            stage: Stage::Shed,
            start_us: req.submitted_us,
            dur_us: now_us.saturating_sub(req.submitted_us),
            detail: self.shared.queue_cap as u64,
        });
        self.shared.finish(Terminal::Shed, req, now_us, Vec::new());
    }

    /// Decompiles one function, blocking until its hypotheses are ready.
    ///
    /// # Panics
    ///
    /// With a configured [`ServeConfig::request_timeout`], panics if the
    /// deadline expires — use [`ServeRuntime::submit`] and handle the
    /// error for deadline-aware callers.
    pub fn decompile(&self, asm_text: &str) -> Vec<String> {
        self.submit(asm_text).wait().expect("request timed out (see request_timeout)")
    }

    /// Decompiles a batch, preserving input order in the output —
    /// element-wise identical to [`Slade::decompile_batch`] on the same
    /// inputs, for any shard count and completion order. Panics on
    /// timeout like [`ServeRuntime::decompile`].
    pub fn decompile_batch(&self, asm_texts: &[&str]) -> Vec<Vec<String>> {
        let handles: Vec<RequestHandle> =
            asm_texts.iter().map(|asm| self.submit(asm)).collect();
        handles
            .into_iter()
            .map(|h| h.wait().expect("request timed out (see request_timeout)"))
            .collect()
    }

    /// Point-in-time metrics snapshot.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot(self.shared.cache.stats())
    }

    /// Writes the full metrics surface into a scrape's document: queue,
    /// lanes, admission terminals (shed/expired/coalesced/decoded),
    /// cache + spill tiers, both latency histograms, per-stage
    /// histograms, and kernel counters. A front-end adds its own families
    /// to the same `p`, so a family declared twice anywhere in the
    /// process panics here rather than reaching a scraper. Reads copy
    /// atomics — scraping never takes a lock a worker records through.
    pub fn expose(&self, p: &mut PromText) {
        self.shared.metrics.expose(&self.shared.cache, p);
    }

    /// [`ServeRuntime::expose`] as a finished Prometheus text document.
    pub fn metrics_text(&self) -> String {
        let mut p = PromText::new();
        self.expose(&mut p);
        p.finish()
    }

    /// Every recorded span of one request's trace (see
    /// [`RequestHandle::trace_id`]), oldest first. Spans evicted by ring
    /// wraparound (capacity `SLADE_TRACE_RING`) are absent.
    pub fn trace_spans(&self, trace_id: u64) -> Vec<SpanRecord> {
        slade_obs::obs().ring().for_trace(trace_id)
    }

    /// The decompiler being served.
    pub fn slade(&self) -> &Arc<Slade> {
        &self.shared.slade
    }

    /// Requests admitted so far, as arrival sequence numbers in admission
    /// order — the observability hook the fairness tests assert on.
    pub fn admission_order(&self) -> Vec<u64> {
        self.shared.queue.lock().expect("queue lock").pop_order().to_vec()
    }

    /// Signals shutdown and joins the workers after they drain queued and
    /// in-flight requests.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        {
            // Store + notify under the queue lock: a worker that just saw
            // `shutdown == false` still holds the lock until it blocks on
            // the condvar, so notifying here cannot be lost between its
            // check and its wait.
            let _q = self.shared.queue.lock().expect("queue lock");
            self.shared.shutdown.store(true, Ordering::Release);
            self.shared.work.notify_all();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ServeRuntime {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// One shard: a continuous-batching loop over an engine decode session.
///
/// Admission and stepping interleave: every iteration drains as many
/// queued jobs as the free lane budget admits (as one group: one budget
/// check, one `admit_many`) — *including while earlier requests are
/// mid-decode* — then advances all live lanes one step and completes
/// whatever finished, freeing lanes for the next iteration's admissions.
/// One in-flight request plus its trace bookkeeping.
struct Inflight {
    ticket: u64,
    job: Job,
    /// Decode span start, µs since the observability epoch.
    decode_start_us: u64,
    /// Batched steps this request has participated in.
    steps: u64,
}

/// Decides what to do with one popped job whose deadline may have
/// passed: `Decode` (live, or expired-but-wanted by coalesced waiters)
/// or `Drop` (cancelled — never decoded).
fn triage(shared: &Shared, job: &Job, now: Instant) -> bool {
    let timed_out = job.req.deadline.is_some_and(|t| now >= t);
    if !timed_out && !job.req.slot.is_claimed() {
        return true;
    }
    // Expired (by a waiter, or right here — the waiter may be gone).
    shared.expire(&job.req);
    // Cancel the decode unless coalesced waiters still want the answer.
    let mut pending = shared.pending.lock().expect("pending lock");
    match pending.get(&job.key) {
        Some(entry) if entry.norm_asm == job.norm_asm => {
            // Waiters attached: decode for them; the expired leader is
            // skipped at fan-out by its lost claim.
            let wanted = !entry.waiters.is_empty();
            if !wanted {
                pending.remove(&job.key);
            }
            wanted
        }
        _ => false,
    }
}

fn worker_loop(shared: &Shared, shard: usize) {
    let slade = &shared.slade;
    let o = slade_obs::obs();
    let engine = InferenceEngine::new(&slade.model);
    let beam = slade.beam().max(1);
    let mut session = engine.session(shared.shard_lanes, slade.max_tgt_len());
    let mut inflight: Vec<Inflight> = Vec::new();
    let mut tokens_reported: u64 = 0;
    loop {
        // Admission: pop under the lock, in fairness order, while lanes
        // are free; block only when there is nothing to do at all.
        let mut popped: Vec<Job> = Vec::new();
        {
            let mut q = shared.queue.lock().expect("queue lock");
            loop {
                let mut free = session.free_lanes().saturating_sub(popped.len() * beam);
                while free >= beam {
                    match q.pop_next() {
                        Some((_seq, job)) => {
                            free -= beam;
                            popped.push(job);
                        }
                        None => break,
                    }
                }
                if !popped.is_empty() || !session.is_idle() {
                    break;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                q = shared.work.wait(q).expect("queue wait");
            }
        }
        if !popped.is_empty() {
            shared.metrics.queue_depth.sub_saturating(popped.len() as u64);
        }
        // Cancel expired queued work (unless coalesced waiters want it).
        let now = Instant::now();
        let batch: Vec<Job> =
            popped.into_iter().filter(|job| triage(shared, job, now)).collect();
        if !batch.is_empty() {
            // Fault-injection hook: simulate a slow shard.
            if shared.test_decode_delay > Duration::ZERO {
                std::thread::sleep(shared.test_decode_delay);
            }
            let tracing = o.enabled();
            let popped_us = o.now_us();
            if tracing {
                for job in &batch {
                    o.record_span(SpanRecord {
                        trace_id: job.req.trace_id,
                        span_id: span_id::QUEUE,
                        parent: span_id::REQUEST,
                        stage: Stage::Queue,
                        start_us: job.req.submitted_us,
                        dur_us: popped_us.saturating_sub(job.req.submitted_us),
                        detail: shard as u64,
                    });
                }
            }
            let tok_timer = slade_obs::StageTimer::start(slade_obs::StageHist::Tokenize);
            let requests: Vec<DecodeRequest> = batch
                .iter()
                .map(|job| DecodeRequest {
                    src: slade.tokenizer.encode(&job.norm_asm),
                    bos: special::BOS,
                    eos: special::EOS,
                    max_len: slade.max_tgt_len(),
                    beam: slade.beam(),
                })
                .collect();
            let tokenize_us = tok_timer.elapsed_us();
            drop(tok_timer);
            let refs: Vec<&DecodeRequest> = requests.iter().collect();
            let encode_start_us = o.now_us();
            let tickets = session.admit_many(&refs);
            let admitted_us = o.now_us();
            for (ticket, job) in tickets.into_iter().zip(batch) {
                let waited_us = admitted_us.saturating_sub(job.req.submitted_us);
                shared.metrics.record_queue_wait(waited_us);
                if tracing {
                    // Tokenize/encode ran batched; each member's span
                    // carries the group duration (the time the request
                    // actually spent in the stage).
                    o.record_span(SpanRecord {
                        trace_id: job.req.trace_id,
                        span_id: span_id::TOKENIZE,
                        parent: span_id::REQUEST,
                        stage: Stage::Tokenize,
                        start_us: popped_us,
                        dur_us: tokenize_us,
                        detail: 0,
                    });
                    o.record_span(SpanRecord {
                        trace_id: job.req.trace_id,
                        span_id: span_id::ENCODE,
                        parent: span_id::REQUEST,
                        stage: Stage::Encode,
                        start_us: encode_start_us,
                        dur_us: admitted_us.saturating_sub(encode_start_us),
                        detail: 0,
                    });
                }
                inflight.push(Inflight { ticket, job, decode_start_us: admitted_us, steps: 0 });
            }
        }
        let tracing = o.enabled();
        let step_start_us = if tracing && !inflight.is_empty() { o.now_us() } else { 0 };
        let finished = session.step();
        if tracing && !inflight.is_empty() {
            let step_dur_us = o.now_us().saturating_sub(step_start_us);
            let live = inflight.len() as u64;
            for f in inflight.iter_mut() {
                o.record_span(SpanRecord {
                    trace_id: f.job.req.trace_id,
                    span_id: span_id::FIRST_STEP.saturating_add(f.steps as u32),
                    parent: span_id::DECODE,
                    stage: Stage::DecodeStep,
                    start_us: step_start_us,
                    dur_us: step_dur_us,
                    detail: live,
                });
                f.steps += 1;
            }
        } else {
            for f in inflight.iter_mut() {
                f.steps += 1;
            }
        }
        for (ticket, beams) in finished {
            let at = inflight
                .iter()
                .position(|f| f.ticket == ticket)
                .expect("finished ticket is in flight");
            let Inflight { job, decode_start_us, steps, .. } = inflight.swap_remove(at);
            let outputs: Vec<String> =
                beams.iter().map(|ids| slade.tokenizer.decode(ids)).collect();
            // Detach the coalesced waiters first (removing the pending
            // entry, so late duplicates become fresh leaders), then feed
            // the cache, then fan out.
            let waiters: Vec<Req> = {
                let mut pending = shared.pending.lock().expect("pending lock");
                match pending.get(&job.key) {
                    Some(entry) if entry.norm_asm == job.norm_asm => {
                        pending.remove(&job.key).map(|entry| entry.waiters).unwrap_or_default()
                    }
                    _ => Vec::new(),
                }
            };
            shared.cache.insert(job.key, &job.norm_asm, outputs.clone());
            let done_us = o.now_us();
            if tracing {
                o.record_span(SpanRecord {
                    trace_id: job.req.trace_id,
                    span_id: span_id::DECODE,
                    parent: span_id::REQUEST,
                    stage: Stage::Decode,
                    start_us: decode_start_us,
                    dur_us: done_us.saturating_sub(decode_start_us),
                    detail: steps,
                });
            }
            if job.req.slot.try_claim() {
                let elapsed_us = done_us.saturating_sub(job.req.submitted_us);
                let slow = o.slow_threshold_us();
                if slow > 0 && elapsed_us >= slow {
                    o.count(slade_obs::KernelCtr::SlowRequests, 1);
                    eprintln!(
                        "slade-serve: slow request trace_id={} shard={shard} {}ms (threshold {}ms, {steps} steps); inspect with `slade-cli trace {}`",
                        job.req.trace_id,
                        elapsed_us / 1000,
                        slow / 1000,
                        job.req.trace_id,
                    );
                }
                shared.finish(Terminal::Decoded, &job.req, done_us, outputs.clone());
            }
            // Fan the result out to every coalesced waiter that has not
            // expired (exactly-once per waiter via its claim).
            for w in waiters {
                if w.slot.try_claim() {
                    o.record_span(SpanRecord {
                        trace_id: w.trace_id,
                        span_id: span_id::ATTACH,
                        parent: span_id::REQUEST,
                        stage: Stage::Coalesce,
                        start_us: w.submitted_us,
                        dur_us: done_us.saturating_sub(w.submitted_us),
                        detail: job.req.trace_id,
                    });
                    shared.finish(Terminal::Coalesced, &w, done_us, outputs.clone());
                }
            }
        }
        shared.metrics.shard_lanes[shard].store(session.live_lanes(), Ordering::Relaxed);
        let decoded = session.decoded_tokens();
        shared.metrics.decode_tokens.add(decoded - tokens_reported);
        tokens_reported = decoded;
    }
}
