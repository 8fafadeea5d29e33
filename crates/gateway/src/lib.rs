//! `slade_gateway` — a dependency-free HTTP/1.1 front-end over the
//! serving runtime's admission tier ([`slade_serve::ServeRuntime`]).
//!
//! The workspace is offline/vendored, so the server is hand-rolled on
//! `std::net` (no tokio/hyper): an acceptor thread feeds a bounded
//! connection queue and a small pool of connection workers parses requests
//! with the hardened reader in [`http`]. The load-bearing design point: a
//! request whose outcome exists when `try_submit` returns (a cache hit) is
//! answered by the worker that parsed it, and any other is parked until
//! the runtime's completion hook
//! ([`slade_serve::RequestHandle::on_complete`]) wakes a **separate**
//! delivery pool to write it — so a slow decode never pins a connection
//! worker and a finished one is never waited on. Admission is layered:
//! per-client token buckets ([`quota`]) shed abusive clients with `429`
//! before the runtime's global `queue_cap` sheds everyone with `429`,
//! and the two sheds stay separately attributable in the conservation
//! accounting (DESIGN.md §13).
//!
//! The gateway times no request itself: a parked delivery is due at its
//! handle's deadline, and [`slade_serve::RequestHandle::expire`] resolves
//! a due one — so a `504` is the runtime's `expired` terminal.
//!
//! Routes: `POST /v1/decompile` (JSON in, JSON or chunked NDJSON out),
//! `GET /metrics` (runtime + `slade_gateway_*` Prometheus families),
//! `GET /healthz`. Shutdown drains gracefully: stop accepting, finish
//! in-flight deliveries, give up with `503` at a bounded deadline.

pub mod http;
mod metrics;
pub mod quota;

pub use metrics::{ClientQuota, GatewaySnapshot, StatusCount};

use http::{Limits, Outcome, Request};
use metrics::GwMetrics;
use quota::{QuotaConfig, QuotaDecision, QuotaTable};
use serde::Serialize;
use serde_json::Value;
use slade_compiler::{Isa, OptLevel};
use slade_obs::export::PromText;
use slade_serve::{Overloaded, RequestError, RequestHandle, ServeRuntime};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Connection workers: threads parsing requests and writing the answers
/// ready when `try_submit` returns.
const CONN_THREADS: usize = 4;
/// Delivery workers: threads writing the answers of decodes that were not.
const DELIVERY_THREADS: usize = 2;
/// Accepted connections waiting for a worker before the acceptor sheds new
/// ones with `503`.
const CONN_BACKLOG: usize = 64;

/// Gateway settings; [`GatewayConfig::default`] suits tests and small
/// deployments.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Socket read/write timeout — the slowloris guard; a peer that
    /// stalls a request longer than this gets `408`.
    pub read_timeout: Duration,
    /// Per-client token buckets (`rps <= 0` disables).
    pub quota: QuotaConfig,
    /// Grace given to in-flight deliveries at shutdown before they are
    /// expired and answered `503`.
    pub drain_deadline: Duration,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            addr: "127.0.0.1:0".to_string(),
            read_timeout: Duration::from_secs(5),
            quota: QuotaConfig::default(),
            drain_deadline: Duration::from_secs(5),
        }
    }
}

/// One live connection: the socket plus its pipelining carry buffer and
/// the gauge guard that keeps `connections_active` honest on every exit
/// path (including panics and drain drops).
struct Conn {
    stream: TcpStream,
    carry: Vec<u8>,
    /// Peer IP (no port) — the quota key when `x-slade-client` is absent.
    peer: String,
    _active: ActiveGuard,
}

/// Decrements `connections_active` when the connection dies.
struct ActiveGuard(Arc<Inner>);

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        self.0.metrics.connections_active.sub(1);
    }
}

/// An admitted decompile and the connection that is owed its answer.
struct Delivery {
    conn: Conn,
    handle: RequestHandle,
    keep_alive: bool,
    /// Stream candidates as chunked NDJSON instead of one JSON body.
    stream: bool,
    /// Client-requested beam narrower than the model's (`beam` option).
    beam_cap: Option<usize>,
}

/// A parked delivery's key: whether its request has no deadline, then its
/// deadline (its park time when it has none), then its trace id, unique in
/// the process — so the table's first entry is the next one due, and one
/// without a deadline is due only at the drain deadline.
type ParkKey = (bool, Instant, u64);

/// State shared by every gateway thread.
struct Inner {
    runtime: Arc<ServeRuntime>,
    cfg: GatewayConfig,
    metrics: GwMetrics,
    quota: QuotaTable,
    shutdown: AtomicBool,
    /// Drain deadline, set once at shutdown.
    drain_by: Mutex<Option<Instant>>,
    conns: (Mutex<VecDeque<Conn>>, Condvar),
    /// Deliveries whose decode is still running.
    parked: Mutex<BTreeMap<ParkKey, Delivery>>,
    /// Keys of parked deliveries whose outcome is ready, pushed by the
    /// runtime's completion hook; the delivery pool sleeps on the condvar.
    /// Lock order: `parked` → `ready`, never the reverse. In an `Arc` of
    /// its own, which is all a hook holds: a hook may run after the gateway
    /// is gone, and one holding `Inner` would close the cycle `Inner →
    /// parked → handle → slot → hook` — or, as a `Weak` upgraded for the
    /// push, drop the last `Inner`, and the runtime in it, on the
    /// runtime's own worker.
    ready: Arc<(Mutex<VecDeque<ParkKey>>, Condvar)>,
}

impl Inner {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// The one `/metrics` document: the runtime's families, then the
    /// edge's and the quota table's, through one builder — so a family
    /// declared by two layers panics instead of reaching a scraper.
    fn metrics_text(&self) -> String {
        let mut p = PromText::new();
        self.runtime.expose(&mut p);
        self.metrics.expose(&mut p);
        self.quota.expose(&mut p);
        p.finish()
    }
}

/// JSON error body for every non-200 answer.
#[derive(Serialize)]
struct ErrorBody {
    error: String,
}

/// JSON body for `GET /healthz`.
#[derive(Serialize)]
struct HealthBody {
    status: String,
    draining: bool,
}

fn json_error(reason: &str) -> Vec<u8> {
    serde_json::to_string(&ErrorBody { error: reason.to_string() })
        .expect("error body serializes")
        .into_bytes()
}

/// What routing decided for one parsed request.
enum Routed {
    /// Write `status` + JSON `body` now, on the connection worker.
    Immediate { status: u16, content_type: &'static str, body: Vec<u8> },
    /// Admitted: answer with the handle's outcome, now or when it exists.
    Submitted { handle: RequestHandle, stream: bool, beam_cap: Option<usize> },
}

fn immediate(status: u16, reason: &str) -> Routed {
    Routed::Immediate { status, content_type: "application/json", body: json_error(reason) }
}

/// The HTTP/1.1 front-end. Dropping it (or calling
/// [`Gateway::shutdown`]) drains and joins every thread.
pub struct Gateway {
    inner: Arc<Inner>,
    local_addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
}

impl Gateway {
    /// Binds `cfg.addr` and starts the acceptor, connection, and
    /// delivery threads.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start(runtime: Arc<ServeRuntime>, cfg: GatewayConfig) -> io::Result<Gateway> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            runtime,
            quota: QuotaTable::new(cfg.quota),
            cfg,
            metrics: GwMetrics::new(Default::default(), Default::default()),
            shutdown: AtomicBool::new(false),
            drain_by: Mutex::new(None),
            conns: (Mutex::new(VecDeque::new()), Condvar::new()),
            parked: Mutex::new(BTreeMap::new()),
            ready: Arc::new((Mutex::new(VecDeque::new()), Condvar::new())),
        });
        let mut threads = Vec::new();
        {
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name("gw-accept".into())
                    .spawn(move || accept_loop(&inner, listener))
                    .expect("spawn acceptor"),
            );
        }
        for i in 0..CONN_THREADS {
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("gw-conn-{i}"))
                    .spawn(move || conn_loop(&inner))
                    .expect("spawn conn worker"),
            );
        }
        for i in 0..DELIVERY_THREADS {
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("gw-deliver-{i}"))
                    .spawn(move || delivery_loop(&inner))
                    .expect("spawn delivery worker"),
            );
        }
        Ok(Gateway { inner, local_addr, threads })
    }

    /// The bound address (resolves `:0` to the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The runtime this gateway fronts.
    pub fn runtime(&self) -> &Arc<ServeRuntime> {
        &self.inner.runtime
    }

    /// The Prometheus exposition `GET /metrics` answers with: the
    /// runtime's families and the `slade_gateway_*` ones in one document.
    pub fn metrics_text(&self) -> String {
        self.inner.metrics_text()
    }

    /// Point-in-time gateway counters (runtime counters come from
    /// [`ServeRuntime::metrics`]).
    pub fn metrics(&self) -> GatewaySnapshot {
        self.inner.metrics.snapshot(&self.inner.quota)
    }

    /// Graceful drain: stop accepting, close idle connections, let
    /// in-flight deliveries finish until the drain deadline, then join
    /// every thread. (Dropping the gateway does the same.)
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.inner.shutting_down() {
            return;
        }
        // The deadline before the flag: a delivery worker that sees the
        // flag sleeps until the deadline it then reads.
        *self.inner.drain_by.lock().expect("drain lock") =
            Some(Instant::now() + self.inner.cfg.drain_deadline);
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.metrics.draining.set(1);
        // Wake the acceptor out of its blocking accept().
        let _ = TcpStream::connect(self.local_addr);
        self.inner.conns.1.notify_all();
        // Under the lock the pool checks the flag under, so a worker
        // between that check and its wait cannot miss this.
        drop(self.inner.ready.0.lock().expect("ready lock"));
        self.inner.ready.1.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // Belt and braces against enqueue/exit races: anything still
        // queued holds an `ActiveGuard(Arc<Inner>)`, which would keep
        // `Inner` (and the runtime behind it) alive in a cycle.
        self.inner.conns.0.lock().expect("conn lock").clear();
        self.inner.parked.lock().expect("parked lock").clear();
        self.inner.ready.0.lock().expect("ready lock").clear();
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn accept_loop(inner: &Arc<Inner>, listener: TcpListener) {
    loop {
        let (stream, peer) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) => {
                if inner.shutting_down() {
                    return;
                }
                continue;
            }
        };
        if inner.shutting_down() {
            return; // the wake-up connection (or a late arrival)
        }
        inner.metrics.connections.add(1);
        inner.metrics.connections_active.add(1);
        let _ = stream.set_read_timeout(Some(inner.cfg.read_timeout));
        let _ = stream.set_write_timeout(Some(inner.cfg.read_timeout));
        let _ = stream.set_nodelay(true);
        let mut conn = Conn {
            stream,
            carry: Vec::new(),
            peer: peer.ip().to_string(),
            _active: ActiveGuard(Arc::clone(inner)),
        };
        let mut q = inner.conns.0.lock().expect("conn lock");
        if q.len() >= CONN_BACKLOG {
            drop(q);
            inner.metrics.backlog_shed.add(1);
            respond(
                inner,
                &mut conn,
                503,
                "application/json",
                &json_error("overloaded"),
                false,
            );
            continue; // conn drops here
        }
        q.push_back(conn);
        drop(q);
        inner.conns.1.notify_one();
    }
}

fn conn_loop(inner: &Arc<Inner>) {
    loop {
        let conn = {
            let mut q = inner.conns.0.lock().expect("conn lock");
            loop {
                if inner.shutting_down() {
                    q.clear(); // drain: close queued idle connections
                    return;
                }
                if let Some(c) = q.pop_front() {
                    break c;
                }
                q = inner.conns.1.wait(q).expect("conn wait");
            }
        };
        serve_conn(inner, conn);
    }
}

/// Serves requests on one connection until it closes, errors, is parked
/// behind a running decode, or shutdown starts.
fn serve_conn(inner: &Arc<Inner>, mut conn: Conn) {
    loop {
        if inner.shutting_down() {
            return;
        }
        match http::read_request(&mut conn.stream, &mut conn.carry, &Limits::default()) {
            Outcome::Closed => return,
            Outcome::Reject { status, reason } => {
                inner.metrics.parse_rejects.add(1);
                respond(
                    inner,
                    &mut conn,
                    status,
                    "application/json",
                    &json_error(&reason),
                    false,
                );
                return;
            }
            Outcome::Request(req) => {
                let keep_alive = req.keep_alive;
                match route(inner, &req, &conn.peer) {
                    Routed::Immediate { status, content_type, body } => {
                        if !respond(inner, &mut conn, status, content_type, &body, keep_alive)
                            || !keep_alive
                        {
                            return;
                        }
                    }
                    Routed::Submitted { handle, stream, beam_cap } => {
                        let delivery = Delivery { conn, handle, keep_alive, stream, beam_cap };
                        // A cache hit was fulfilled inside `try_submit`:
                        // answer it here and keep reading this connection.
                        let Some(outcome) = delivery.handle.try_take() else {
                            park(inner, delivery);
                            return; // the delivery pool owns the conn now
                        };
                        match finish(inner, delivery, outcome) {
                            Some(kept) => conn = kept,
                            None => return,
                        }
                    }
                }
            }
        }
    }
}

/// Parks a delivery whose decode is still running and asks the runtime to
/// announce its completion to the delivery pool.
fn park(inner: &Arc<Inner>, delivery: Delivery) {
    let deadline = delivery.handle.deadline();
    let key =
        (deadline.is_none(), deadline.unwrap_or_else(Instant::now), delivery.handle.trace_id());
    let ready = Arc::clone(&inner.ready);
    inner.metrics.pending_deliveries.add(1);
    let mut parked = inner.parked.lock().expect("parked lock");
    // Registered once the entry is in the table: a decode that finished
    // meanwhile runs the hook right here, and its key must be found.
    parked.entry(key).or_insert(delivery).handle.on_complete(move || {
        ready.0.lock().expect("ready lock").push_back(key);
        ready.1.notify_one();
    });
    // A new first entry may be due before the pool means to wake. The pool
    // reads the first entry under `parked` and takes `ready` before it lets
    // go, so notifying under `ready` reaches it asleep.
    if parked.keys().next() == Some(&key) {
        let _asleep = inner.ready.0.lock().expect("ready lock");
        inner.ready.1.notify_one();
    }
}

/// Writes a fixed-length response and counts its status; returns whether
/// the write succeeded (a failed write closes the connection).
fn respond(
    inner: &Arc<Inner>,
    conn: &mut Conn,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> bool {
    inner.metrics.bump_status(status);
    http::write_response(&mut conn.stream, status, content_type, body, keep_alive).is_ok()
}

fn route(inner: &Arc<Inner>, req: &Request, peer: &str) -> Routed {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            let body = serde_json::to_string(&HealthBody {
                status: "ok".to_string(),
                draining: inner.shutting_down(),
            })
            .expect("health body serializes");
            Routed::Immediate {
                status: 200,
                content_type: "application/json",
                body: body.into_bytes(),
            }
        }
        ("GET", "/metrics") => Routed::Immediate {
            status: 200,
            content_type: "text/plain; version=0.0.4",
            body: inner.metrics_text().into_bytes(),
        },
        ("POST", "/v1/decompile") => route_decompile(inner, req, peer),
        (_, "/healthz") | (_, "/metrics") => immediate(405, "method not allowed"),
        (_, "/v1/decompile") => immediate(405, "method not allowed"),
        _ => immediate(404, "no such route"),
    }
}

/// Parses and validates a decompile submission, checks quota, and
/// submits to the runtime.
fn route_decompile(inner: &Arc<Inner>, req: &Request, peer: &str) -> Routed {
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return immediate(400, "body is not UTF-8");
    };
    let Ok(value) = Value::parse(text) else {
        return immediate(400, "body is not valid JSON");
    };
    let Some(obj) = value.as_object() else {
        return immediate(400, "body must be a JSON object");
    };
    let asm = match obj.get("asm").and_then(Value::as_str) {
        Some(s) if !s.trim().is_empty() => s,
        Some(_) => return immediate(400, "`asm` must not be empty"),
        None => return immediate(400, "`asm` (string) is required"),
    };
    let slade = inner.runtime.slade();
    // Optional options must match the served model: the gateway fronts
    // one model, so a mismatch is a conflict (409), not a bad request.
    if let Some(v) = obj.get("isa") {
        let Some(isa) = v.as_str().and_then(|s| s.parse::<Isa>().ok()) else {
            return immediate(400, "`isa` must be one of x86|x86_64|arm|arm64|aarch64");
        };
        if isa != slade.isa() {
            return immediate(409, &format!("served model targets isa `{}`", slade.isa()));
        }
    }
    if let Some(v) = obj.get("opt") {
        let Some(opt) = v.as_str().and_then(|s| s.parse::<OptLevel>().ok()) else {
            return immediate(400, "`opt` must be O0 or O3");
        };
        if opt != slade.opt() {
            return immediate(409, &format!("served model targets opt `{}`", slade.opt()));
        }
    }
    let beam_cap = match obj.get("beam") {
        None => None,
        Some(Value::UInt(n)) if *n >= 1 => {
            let n = *n as usize;
            if n > slade.beam() {
                return immediate(
                    409,
                    &format!("served model decodes beam {}, requested {n}", slade.beam()),
                );
            }
            Some(n)
        }
        Some(_) => {
            return immediate(
                400,
                &format!("`beam` must be an integer in 1..={}", slade.beam()),
            )
        }
    };
    let stream = match obj.get("stream") {
        None => false,
        Some(Value::Bool(b)) => *b,
        Some(_) => return immediate(400, "`stream` must be a boolean"),
    };
    if inner.shutting_down() {
        return immediate(503, "draining");
    }
    // Offered counts every submission that passed parsing + validation,
    // *before* quota: the edge identity is
    // `offered == quota_shed + runtime.submitted` (DESIGN.md §13).
    inner.metrics.decompile_offered.add(1);
    let client = req.header("x-slade-client").unwrap_or(peer);
    if inner.quota.check(client) == QuotaDecision::Shed {
        return immediate(429, "per-client quota exceeded");
    }
    match inner.runtime.try_submit(asm) {
        Ok(handle) => Routed::Submitted { handle, stream, beam_cap },
        Err(Overloaded) => {
            inner.metrics.overload_shed.add(1);
            immediate(429, "admission queue at capacity")
        }
    }
}

/// One delivery worker: writes the response of each parked delivery when
/// the runtime's hook announces its outcome, or expires the first one when
/// its deadline — capped by the drain deadline — comes first; asleep in
/// between.
fn delivery_loop(inner: &Arc<Inner>) {
    loop {
        let mut parked = inner.parked.lock().expect("parked lock");
        let draining = inner.shutting_down();
        let first = parked.keys().next().copied();
        if first.is_none() && draining {
            return;
        }
        let deadline = first.and_then(|(open, at, _)| (!open).then_some(at));
        let due = deadline.into_iter().chain(*inner.drain_by.lock().expect("drain lock")).min();
        let now = Instant::now();
        let delivery = if due.is_some_and(|t| now >= t) {
            let due_one = parked.pop_first().map(|(_, delivery)| delivery);
            drop(parked);
            due_one
        } else {
            let mut ready = inner.ready.0.lock().expect("ready lock");
            drop(parked);
            // Re-read under the lock shutdown notifies under, so a drain
            // that started since is not slept through.
            if ready.is_empty() && inner.shutting_down() == draining {
                ready = match due {
                    Some(t) => {
                        inner.ready.1.wait_timeout(ready, t - now).expect("ready wait").0
                    }
                    None => inner.ready.1.wait(ready).expect("ready wait"),
                };
            }
            let key = ready.pop_front();
            drop(ready);
            // A key whose delivery was expired meanwhile finds nothing.
            key.and_then(|key| inner.parked.lock().expect("parked lock").remove(&key))
        };
        let Some(delivery) = delivery else { continue };
        inner.metrics.pending_deliveries.sub(1);
        // The outcome the hook announced or, for a due entry, the
        // runtime's expiry (or a fulfiller's outcome that beat it).
        let outcome = delivery.handle.expire().expect("the pool is the handle's only consumer");
        // Re-check the flag at enqueue time: shutdown may have started
        // while the response was being written, and a conn parked in the
        // queue after the workers exit would never be popped — its
        // `ActiveGuard` would then cycle `Inner → queue → conn → Inner`.
        if let Some(conn) = finish(inner, delivery, outcome).filter(|_| !inner.shutting_down())
        {
            inner.conns.0.lock().expect("conn lock").push_back(conn);
            inner.conns.1.notify_one();
        }
    }
}

/// Writes the final response for a completed request — a hit on the
/// connection worker, a decode on the delivery pool — and returns the
/// connection when it is to be kept alive.
fn finish(
    inner: &Arc<Inner>,
    delivery: Delivery,
    outcome: Result<Vec<String>, RequestError>,
) -> Option<Conn> {
    let Delivery { mut conn, handle, keep_alive, stream, beam_cap } = delivery;
    let keep_alive = keep_alive && !inner.shutting_down();
    let wrote = match outcome {
        Ok(mut candidates) => {
            if let Some(cap) = beam_cap {
                candidates.truncate(cap);
            }
            inner.metrics.bump_status(200);
            if stream {
                inner.metrics.streamed.add(1);
                write_stream(&mut conn.stream, handle.trace_id(), &candidates, keep_alive)
                    .is_ok()
            } else {
                http::write_response_with(
                    &mut conn.stream,
                    200,
                    "application/json",
                    keep_alive,
                    |out| write_answer(out, handle.trace_id(), &candidates),
                )
                .is_ok()
            }
        }
        Err(RequestError::DeadlineExceeded) => {
            let (status, reason) = if inner.shutting_down() {
                inner.metrics.drain_aborts.add(1);
                (503, "abandoned at drain deadline")
            } else {
                (504, "deadline exceeded before a result")
            };
            let body = json_error(reason);
            respond(inner, &mut conn, status, "application/json", &body, keep_alive)
        }
    };
    (wrote && keep_alive).then_some(conn)
}

/// The buffered decompile answer, `{"trace_id":N,"candidates":[…]}`,
/// written as compact JSON without building a value tree.
fn write_answer(out: &mut String, trace_id: u64, candidates: &[String]) {
    write!(out, "{{\"trace_id\":{trace_id},\"candidates\":[")
        .expect("a String takes any write");
    for (i, candidate) in candidates.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        serde_json::write_str(out, candidate);
    }
    out.push_str("]}");
}

/// Streams candidates as chunked NDJSON: one `{"index","candidate"}`
/// line per hypothesis as it is written, then a `{"done":true}` trailer
/// with the count and trace id.
fn write_stream(
    stream: &mut TcpStream,
    trace_id: u64,
    candidates: &[String],
    keep_alive: bool,
) -> io::Result<()> {
    http::write_chunked_head(stream, 200, "application/x-ndjson", keep_alive)?;
    let mut line = String::new();
    for (index, candidate) in candidates.iter().enumerate() {
        line.clear();
        write!(line, "{{\"index\":{index},\"candidate\":").expect("a String takes any write");
        serde_json::write_str(&mut line, candidate);
        line.push_str("}\n");
        http::write_chunk(stream, line.as_bytes())?;
    }
    let trailer =
        format!("{{\"done\":true,\"count\":{},\"trace_id\":{trace_id}}}\n", candidates.len());
    http::write_chunk(stream, trailer.as_bytes())?;
    http::finish_chunked(stream)
}
