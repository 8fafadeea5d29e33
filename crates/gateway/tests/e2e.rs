//! End-to-end gateway tests over real sockets: concurrent HTTP clients
//! must get byte-identical hypotheses to calling the model directly,
//! overload and quota must shed with `429` while the extended
//! conservation identity holds (DESIGN.md §13), streaming must arrive
//! as well-formed chunked NDJSON, cache hits answered by the connection
//! worker must be indistinguishable from decodes answered by the delivery
//! pool, and shutdown must drain gracefully.

use serde::Serialize;
use serde_json::{Value, MAX_DEPTH};
use slade::Slade;
use slade_compiler::{Isa, OptLevel};
use slade_gateway::{http, quota::QuotaConfig, Gateway, GatewayConfig};
use slade_nn::{Seq2Seq, TransformerConfig};
use slade_obs::export::{type_lines, validate_exposition};
use slade_serve::{ServeConfig, ServeRuntime};
use slade_tokenizer::UnigramTokenizer;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const BEAM: usize = 3;
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// Untrained small-profile decompiler — decode cost is representative,
/// outputs are deterministic noise, which is all equivalence needs.
fn gw_slade() -> Arc<Slade> {
    let corpus: Vec<String> = (0..10).map(asm).collect();
    let tokenizer = UnigramTokenizer::train(&corpus, 200);
    let model = Seq2Seq::new(TransformerConfig::small(tokenizer.vocab_size()), 47);
    Arc::new(Slade::from_parts(model, tokenizer, Isa::X86_64, OptLevel::O0, BEAM, 10))
}

/// [`gw_slade`] with lanes for one decode at a time on one shard.
fn gw_slade_one_at_a_time() -> Arc<Slade> {
    let mut slade = (*gw_slade()).clone();
    slade.set_max_batch_lanes(BEAM);
    Arc::new(slade)
}

fn asm(i: usize) -> String {
    format!("h{i}:\n\tmovl %edi, %eax\n\timull ${i}, %eax\n\tret\n")
}

/// Test-sized gateway config: short read timeout so idle keep-alive
/// connections (and therefore shutdown) settle quickly.
fn gw_config() -> GatewayConfig {
    GatewayConfig {
        read_timeout: Duration::from_millis(500),
        drain_deadline: Duration::from_secs(5),
        ..GatewayConfig::default()
    }
}

fn decompile_body(asm: &str) -> String {
    format!("{{\"asm\":{}}}", Value::Str(asm.to_string()).render())
}

fn post(addr: &str, body: &str) -> http::ClientResponse {
    http::request(
        addr,
        "POST",
        "/v1/decompile",
        &[("content-type", "application/json")],
        body.as_bytes(),
        CLIENT_TIMEOUT,
    )
    .expect("request completes")
}

/// A keep-alive `POST /v1/decompile` as it goes on the wire.
fn keep_alive_post(body: &str) -> Vec<u8> {
    format!(
        "POST /v1/decompile HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn connect(gateway: &Gateway) -> TcpStream {
    let stream = TcpStream::connect(gateway.local_addr()).expect("connect");
    stream.set_read_timeout(Some(CLIENT_TIMEOUT)).expect("timeout");
    stream.set_nodelay(true).expect("nodelay");
    stream
}

/// Spins until `done()` — for states another thread reaches on its own.
fn wait_until(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Candidates array from a 200 response body.
fn candidates(resp: &http::ClientResponse) -> Vec<String> {
    assert_eq!(resp.status, 200, "body: {}", resp.text());
    let v = Value::parse(&resp.text()).expect("valid JSON body");
    v.as_object()
        .and_then(|o| o.get("candidates"))
        .and_then(Value::as_array)
        .expect("candidates array")
        .iter()
        .map(|c| c.as_str().expect("string candidate").to_string())
        .collect()
}

/// A 200 chunked NDJSON answer: one `{"index","candidate"}` line per
/// expected candidate, in order, then the `done` trailer with the count.
fn assert_ndjson_stream(resp: &http::ClientResponse, expected: &[String]) {
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("transfer-encoding"), Some("chunked"));
    let lines: Vec<Value> = resp
        .text()
        .lines()
        .map(|l| Value::parse(l).expect("each NDJSON line parses"))
        .collect();
    assert_eq!(lines.len(), expected.len() + 1, "one line per candidate + trailer");
    for (i, line) in lines[..expected.len()].iter().enumerate() {
        let obj = line.as_object().expect("candidate line object");
        assert_eq!(obj.get("index"), Some(&Value::UInt(i as u64)));
        assert_eq!(
            obj.get("candidate").and_then(Value::as_str),
            Some(expected[i].as_str()),
            "streamed candidate {i} diverged",
        );
    }
    let trailer = lines.last().unwrap().as_object().expect("trailer object");
    assert_eq!(trailer.get("done"), Some(&Value::Bool(true)));
    assert_eq!(trailer.get("count"), Some(&Value::UInt(expected.len() as u64)));
}

/// The edge identity: everything the gateway offered is either a quota
/// shed or a runtime submission (`direct` = submissions that bypassed
/// the gateway, e.g. a test occupying a worker).
fn assert_edge_conservation(gateway: &Gateway, direct: u64) {
    let gw = gateway.metrics();
    let rt = gateway.runtime().metrics();
    assert_eq!(
        gw.decompile_offered,
        gw.quota_shed + (rt.submitted - direct),
        "edge identity violated: gw={gw:?} rt={rt:?}",
    );
    // With the runtime's own identity, the combined partition: every
    // offered request ends as a quota shed or in one runtime terminal.
    assert_eq!(rt.unaccounted(), 0, "runtime conservation violated: {rt:?}");
    // The edge answers every expiry once and times nothing itself.
    let answered_504: u64 =
        gw.by_status.iter().filter(|s| s.code == 504).map(|s| s.count).sum();
    assert_eq!(answered_504 + gw.drain_aborts, rt.expired, "gw={gw:?} rt={rt:?}");
    // And an answered request leaves nothing behind at the edge.
    assert_eq!(gw.pending_deliveries, 0, "a delivery is still parked: {gw:?}");
}

/// The headline equivalence: N concurrent socket clients, each POSTing a
/// distinct function, all get exactly what direct model decompilation
/// produces — byte for byte, regardless of interleaving.
#[test]
fn concurrent_clients_match_direct_decompile() {
    let slade = gw_slade();
    let inputs: Vec<String> = (0..6).map(asm).collect();
    let refs: Vec<&str> = inputs.iter().map(String::as_str).collect();
    let expected = slade.decompile_batch(&refs);
    let runtime =
        Arc::new(ServeRuntime::start(Arc::clone(&slade), ServeConfig::with_shards(2)));
    let gateway = Gateway::start(Arc::clone(&runtime), gw_config()).expect("bind");
    let addr = gateway.local_addr().to_string();
    let threads: Vec<_> = inputs
        .iter()
        .cloned()
        .map(|input| {
            let addr = addr.clone();
            std::thread::spawn(move || candidates(&post(&addr, &decompile_body(&input))))
        })
        .collect();
    for (i, t) in threads.into_iter().enumerate() {
        let got = t.join().expect("client thread");
        assert_eq!(got, expected[i], "client {i} diverged from direct decompile_batch");
    }
    let gw = gateway.metrics();
    assert_eq!(gw.decompile_offered, 6);
    assert_eq!(gw.quota_shed, 0);
    assert!(gw.connections >= 6);
    assert_edge_conservation(&gateway, 0);
    gateway.shutdown();
    Arc::try_unwrap(runtime).ok().expect("gateway dropped its handle").shutdown();
}

/// Overload: with the only worker asleep and `queue_cap` undersized,
/// exactly `queue_cap` concurrent submissions are accepted and the rest
/// answer `429` — and the gateway + runtime counters still partition
/// every offered request exactly.
#[test]
fn overload_sheds_429_and_conserves() {
    let runtime = Arc::new(ServeRuntime::start(
        gw_slade_one_at_a_time(),
        ServeConfig {
            shards: 1,
            queue_cap: 2,
            test_decode_delay: Duration::from_millis(400),
            ..ServeConfig::default().without_cache()
        },
    ));
    let gateway = Gateway::start(Arc::clone(&runtime), gw_config()).expect("bind");
    let addr = gateway.local_addr().to_string();
    // Occupy the worker directly (bypassing the gateway) so the burst
    // below races only the queue cap, not the decode.
    let busy = runtime.submit(&asm(0));
    wait_until("the worker pops it", || runtime.metrics().queue_depth == 0);
    let threads: Vec<_> = (1..=6)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || post(&addr, &decompile_body(&asm(i))).status)
        })
        .collect();
    let statuses: Vec<u16> = threads.into_iter().map(|t| t.join().expect("client")).collect();
    busy.wait().expect("no timeout configured");
    let ok = statuses.iter().filter(|&&s| s == 200).count();
    let shed = statuses.iter().filter(|&&s| s == 429).count();
    assert_eq!(ok, 2, "exactly queue_cap accepts: {statuses:?}");
    assert_eq!(shed, 4, "the rest shed with 429: {statuses:?}");
    let gw = gateway.metrics();
    assert_eq!(gw.decompile_offered, 6);
    assert_eq!(gw.overload_shed, 4);
    assert_eq!(gw.quota_shed, 0);
    let rt = runtime.metrics();
    assert_eq!(rt.shed, 4);
    assert_edge_conservation(&gateway, 1); // `busy` bypassed the gateway
    gateway.shutdown();
    Arc::try_unwrap(runtime).ok().expect("gateway dropped its handle").shutdown();
}

/// `"stream": true` delivers candidates as chunked NDJSON: one line per
/// hypothesis plus a `done` trailer, identical content to the buffered
/// path, and the stream counter ticks.
#[test]
fn streaming_delivers_chunked_ndjson() {
    let slade = gw_slade();
    let expected = slade.decompile(&asm(3));
    let runtime =
        Arc::new(ServeRuntime::start(Arc::clone(&slade), ServeConfig::with_shards(1)));
    let gateway = Gateway::start(Arc::clone(&runtime), gw_config()).expect("bind");
    let addr = gateway.local_addr().to_string();
    let body = format!("{{\"asm\":{},\"stream\":true}}", Value::Str(asm(3)).render());
    let resp = post(&addr, &body);
    assert_ndjson_stream(&resp, &expected);
    assert_eq!(gateway.metrics().streamed, 1);
    assert_edge_conservation(&gateway, 0);
    gateway.shutdown();
    Arc::try_unwrap(runtime).ok().expect("gateway dropped its handle").shutdown();
}

/// Per-client quotas: a client that exhausts its burst sheds with `429`
/// *before* the runtime sees the request, an unrelated client is
/// unaffected, and the per-client counters surface in both the snapshot
/// and the exposition — where a client key, being outside input, stays
/// one escaped label value whatever it contains.
#[test]
fn quota_sheds_per_client_before_admission() {
    let runtime = Arc::new(ServeRuntime::start(gw_slade(), ServeConfig::with_shards(1)));
    let gateway = Gateway::start(
        Arc::clone(&runtime),
        GatewayConfig { quota: QuotaConfig { rps: 0.001, burst: 2.0 }, ..gw_config() },
    )
    .expect("bind");
    let addr = gateway.local_addr().to_string();
    let send = |client: &str| {
        http::request(
            &addr,
            "POST",
            "/v1/decompile",
            &[("x-slade-client", client)],
            decompile_body(&asm(1)).as_bytes(),
            CLIENT_TIMEOUT,
        )
        .expect("request completes")
        .status
    };
    assert_eq!(send("greedy"), 200);
    assert_eq!(send("greedy"), 200);
    for _ in 0..3 {
        assert_eq!(send("greedy"), 429, "burst exhausted");
    }
    assert_eq!(send("polite"), 200, "quotas are per client");
    let gw = gateway.metrics();
    assert_eq!(gw.quota_shed, 3);
    assert_eq!(gw.decompile_offered, 6, "offered counts quota sheds too");
    let greedy = gw.quota_clients.iter().find(|c| c.client == "greedy").expect("tracked");
    assert_eq!((greedy.admitted, greedy.shed), (2, 3));
    assert_eq!(runtime.metrics().submitted, 3);
    assert_edge_conservation(&gateway, 0);
    // Keys that try to close the label's quote and forge a value or a
    // second label: each is shed under its own escaped key, and the
    // scrape still parses.
    for hostile in ["evil\"} 9", "a\",le=\"1"] {
        assert_eq!([send(hostile), send(hostile), send(hostile)], [200, 200, 429]);
    }
    assert_eq!(gateway.metrics().quota_shed, 5);
    assert_edge_conservation(&gateway, 0);
    let text = http::request(&addr, "GET", "/metrics", &[], b"", CLIENT_TIMEOUT)
        .expect("scrape completes")
        .text();
    validate_exposition(&text).unwrap_or_else(|e| panic!("hostile key broke the scrape: {e}"));
    for row in ["greedy\"} 3", "evil\\\"} 9\"} 1", "a\\\",le=\\\"1\"} 1"] {
        let line = format!("slade_gateway_quota_shed_client_total{{client=\"{row}\n");
        assert!(text.contains(&line), "missing `{line}` in:\n{text}");
    }
    // A client has been shed, so this is the whole committed family list.
    let want: Vec<&str> = include_str!("../../obs/families.txt").lines().collect();
    assert_eq!(type_lines(&text), want);
    gateway.shutdown();
    Arc::try_unwrap(runtime).ok().expect("gateway dropped its handle").shutdown();
}

/// `/healthz`, `/metrics`, and the reject routes behave: the combined
/// exposition (runtime + gateway families) passes the strict validator
/// and carries `slade_gateway_requests_total`; bad routes and bad bodies
/// get their specific statuses.
#[test]
fn health_metrics_and_reject_routes() {
    let runtime = Arc::new(ServeRuntime::start(gw_slade(), ServeConfig::with_shards(1)));
    let gateway = Gateway::start(Arc::clone(&runtime), gw_config()).expect("bind");
    let addr = gateway.local_addr().to_string();
    let get = |path: &str| {
        http::request(&addr, "GET", path, &[], b"", CLIENT_TIMEOUT).expect("request completes")
    };
    let health = get("/healthz");
    assert_eq!(health.status, 200);
    let health_body = Value::parse(&health.text()).expect("health JSON");
    assert_eq!(
        health_body.as_object().and_then(|o| o.get("status")).and_then(Value::as_str),
        Some("ok"),
    );
    // One real request so the status families have content.
    assert_eq!(post(&addr, &decompile_body(&asm(2))).status, 200);
    // Reject routes, each with its specific status.
    assert_eq!(get("/nope").status, 404);
    assert_eq!(get("/v1/decompile").status, 405);
    assert_eq!(post(&addr, "{not json").status, 400);
    assert_eq!(post(&addr, "{\"asm\":\"\"}").status, 400);
    let mismatch = format!("{{\"asm\":{},\"isa\":\"arm64\"}}", Value::Str(asm(2)).render());
    assert_eq!(post(&addr, &mismatch).status, 409);
    let with_beam =
        |beam: &str| format!("{{\"asm\":{},\"beam\":{beam}}}", Value::Str(asm(2)).render());
    assert_eq!(post(&addr, &with_beam("99")).status, 409);
    // Zero, negatives, fractions and strings are not a beam width.
    for bad in ["0", "-1", "2.5", "\"2\""] {
        assert_eq!(post(&addr, &with_beam(bad)).status, 400, "beam {bad}");
    }
    let scrape = get("/metrics");
    assert_eq!(scrape.status, 200);
    let text = scrape.text();
    validate_exposition(&text).expect("combined exposition is well-formed");
    // The committed family list, less the one family that needs a shed
    // client: a dropped, renamed or re-typed family fails here.
    let want: Vec<&str> = include_str!("../../obs/families.txt")
        .lines()
        .filter(|l| !l.contains("quota_shed_client"))
        .collect();
    assert_eq!(type_lines(&text), want);
    assert!(text.contains("slade_gateway_requests_total{code=\"200\"}"));
    assert!(text.contains("slade_gateway_requests_total{code=\"404\"}"));
    assert!(text.contains("slade_gateway_connections_total"));
    assert!(text.contains("slade_requests_submitted_total"), "runtime families present");
    // `Gateway::metrics_text` returns the same combined document.
    assert_eq!(type_lines(&gateway.metrics_text()), want);
    assert_edge_conservation(&gateway, 0);
    gateway.shutdown();
    Arc::try_unwrap(runtime).ok().expect("gateway dropped its handle").shutdown();
}

/// A body nested past the JSON parser's limit is a `400` like any other
/// body that is not JSON, not a stack overflow that aborts the process: a
/// 64 KiB body of `[` is refused, and the same gateway then decodes. A
/// body exactly at the limit parses.
#[test]
fn a_body_nested_past_the_limit_is_a_400_and_the_gateway_goes_on() {
    let slade = gw_slade();
    let expected = slade.decompile(&asm(3));
    let runtime =
        Arc::new(ServeRuntime::start(Arc::clone(&slade), ServeConfig::with_shards(1)));
    let gateway = Gateway::start(Arc::clone(&runtime), gw_config()).expect("bind");
    let addr = gateway.local_addr().to_string();
    let resp = post(&addr, &"[".repeat(64 * 1024));
    assert_eq!(resp.status, 400);
    assert!(resp.text().contains("body is not valid JSON"), "{}", resp.text());
    // The object is one level, so `extra` nests MAX_DEPTH - 1 more at the
    // limit: ignored like any unknown field. One more is not JSON.
    let nested = |depth: usize| {
        let extra = format!("{}{}", "[".repeat(depth - 1), "]".repeat(depth - 1));
        format!("{{\"asm\":{},\"extra\":{extra}}}", Value::Str(asm(3)).render())
    };
    assert_eq!(post(&addr, &nested(MAX_DEPTH + 1)).status, 400);
    assert_eq!(candidates(&post(&addr, &nested(MAX_DEPTH))), expected);
    assert_eq!(candidates(&post(&addr, &decompile_body(&asm(3)))), expected);
    assert_eq!(runtime.metrics().cache.hits, 1);
    assert_edge_conservation(&gateway, 0);
    gateway.shutdown();
    Arc::try_unwrap(runtime).ok().expect("gateway dropped its handle").shutdown();
}

/// A narrower `beam` option truncates the candidate list client-side of
/// the model's beam, without touching the runtime.
#[test]
fn beam_option_caps_candidates() {
    let slade = gw_slade();
    let expected = slade.decompile(&asm(4));
    assert!(expected.len() >= 2, "fixture must produce at least two hypotheses");
    let runtime =
        Arc::new(ServeRuntime::start(Arc::clone(&slade), ServeConfig::with_shards(1)));
    let gateway = Gateway::start(Arc::clone(&runtime), gw_config()).expect("bind");
    let addr = gateway.local_addr().to_string();
    let body = format!("{{\"asm\":{},\"beam\":1}}", Value::Str(asm(4)).render());
    let got = candidates(&post(&addr, &body));
    assert_eq!(got, expected[..1].to_vec(), "beam=1 keeps only the best hypothesis");
    assert_edge_conservation(&gateway, 0);
    gateway.shutdown();
    Arc::try_unwrap(runtime).ok().expect("gateway dropped its handle").shutdown();
}

/// Keep-alive: one connection serves several requests in order; the
/// carry buffer keeps pipelined bytes intact across deliveries.
#[test]
fn keep_alive_serves_sequential_requests() {
    let slade = gw_slade();
    let expected = slade.decompile(&asm(5));
    let runtime =
        Arc::new(ServeRuntime::start(Arc::clone(&slade), ServeConfig::with_shards(1)));
    let gateway = Gateway::start(Arc::clone(&runtime), gw_config()).expect("bind");
    let mut stream = connect(&gateway);
    for round in 0..3 {
        stream.write_all(&keep_alive_post(&decompile_body(&asm(5)))).expect("write");
        let resp = http::read_response(&mut stream).expect("response");
        assert_eq!(resp.status, 200, "round {round}");
        assert_eq!(resp.header("connection"), Some("keep-alive"));
        let got = candidates(&resp);
        assert_eq!(got, expected, "round {round} diverged");
    }
    assert_eq!(gateway.metrics().connections, 1, "all rounds shared one connection");
    assert_edge_conservation(&gateway, 0);
    gateway.shutdown();
    Arc::try_unwrap(runtime).ok().expect("gateway dropped its handle").shutdown();
}

/// Graceful drain: a request in flight when shutdown starts is still
/// answered (within the drain deadline); afterwards the port is closed.
#[test]
fn shutdown_drains_in_flight_requests() {
    let runtime = Arc::new(ServeRuntime::start(
        gw_slade_one_at_a_time(),
        ServeConfig {
            shards: 1,
            test_decode_delay: Duration::from_millis(200),
            ..ServeConfig::default()
        },
    ));
    let gateway = Gateway::start(Arc::clone(&runtime), gw_config()).expect("bind");
    let addr = gateway.local_addr().to_string();
    let local = gateway.local_addr();
    let client = {
        let addr = addr.clone();
        std::thread::spawn(move || post(&addr, &decompile_body(&asm(6))))
    };
    // Let the request reach the delivery pool, then drain.
    std::thread::sleep(Duration::from_millis(80));
    gateway.shutdown();
    let resp = client.join().expect("client thread");
    assert_eq!(resp.status, 200, "in-flight request answered during drain");
    assert!(!candidates(&resp).is_empty());
    // The listener is gone: connecting now must fail (or be refused).
    match std::net::TcpStream::connect_timeout(&local, Duration::from_millis(500)) {
        Err(_) => {}
        Ok(mut s) => {
            // Some platforms complete the handshake from the dead
            // listener's backlog; the connection must then be dead.
            use std::io::Read;
            s.set_read_timeout(Some(Duration::from_millis(500))).expect("timeout");
            let mut buf = [0u8; 8];
            assert!(
                matches!(s.read(&mut buf), Ok(0) | Err(_)),
                "gateway still serving after shutdown",
            );
        }
    }
    Arc::try_unwrap(runtime).ok().expect("gateway dropped its handle").shutdown();
}

/// Two pipelined POSTs of cached bodies arriving in one segment are both
/// answered by the connection worker that parsed them, in order: the
/// second request waits in the carry buffer while the first is written.
#[test]
fn pipelined_hits_answer_in_order_on_one_connection() {
    let slade = gw_slade();
    let expected = [slade.decompile(&asm(7)), slade.decompile(&asm(8))];
    let runtime =
        Arc::new(ServeRuntime::start(Arc::clone(&slade), ServeConfig::with_shards(1)));
    let gateway = Gateway::start(Arc::clone(&runtime), gw_config()).expect("bind");
    let mut stream = connect(&gateway);
    for (i, want) in [7, 8].iter().zip(&expected) {
        stream.write_all(&keep_alive_post(&decompile_body(&asm(*i)))).expect("write");
        assert_eq!(&candidates(&http::read_response(&mut stream).expect("cold")), want);
    }
    let both =
        [keep_alive_post(&decompile_body(&asm(8))), keep_alive_post(&decompile_body(&asm(7)))]
            .concat();
    stream.write_all(&both).expect("one write, one segment");
    // Half-close, so the gateway hangs up after the second answer and
    // everything it wrote can be read to the end (the tiny client reads
    // one response per call and drops what arrived behind it).
    stream.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut wire = Vec::new();
    std::io::Read::read_to_end(&mut stream, &mut wire).expect("read both answers");
    let wire = String::from_utf8(wire).expect("JSON responses are UTF-8");
    let answers: Vec<&str> = wire.split("HTTP/1.1 200 OK\r\n").skip(1).collect();
    assert_eq!(answers.len(), 2, "two answers on the wire:\n{wire}");
    for (answer, want) in answers.iter().zip([&expected[1], &expected[0]]) {
        let (head, body) = answer.split_once("\r\n\r\n").expect("head terminator");
        assert!(head.contains("connection: keep-alive"), "head: {head}");
        assert!(head.contains(&format!("content-length: {}", body.len())), "head: {head}");
        let tail = format!("\"candidates\":{}}}", serde_json::to_string(want).unwrap());
        assert!(body.ends_with(&tail), "pipelined answers out of order: {body}");
    }
    assert_eq!(gateway.metrics().connections, 1);
    assert_eq!(runtime.metrics().cache.hits, 2);
    assert_edge_conservation(&gateway, 0);
    gateway.shutdown();
    Arc::try_unwrap(runtime).ok().expect("gateway dropped its handle").shutdown();
}

/// Hit → cold miss → hit on one keep-alive connection: the connection
/// moves from its worker to the delivery pool and back without losing its
/// place, and each answer equals direct decompilation.
#[test]
fn hit_then_miss_then_hit_share_a_connection() {
    let slade = gw_slade();
    let (cached, cold) = (slade.decompile(&asm(9)), slade.decompile(&asm(10)));
    let runtime =
        Arc::new(ServeRuntime::start(Arc::clone(&slade), ServeConfig::with_shards(1)));
    assert_eq!(runtime.decompile(&asm(9)), cached, "prime the cache past the gateway");
    let gateway = Gateway::start(Arc::clone(&runtime), gw_config()).expect("bind");
    let mut stream = connect(&gateway);
    for (i, want, hits) in [(9, &cached, 1), (10, &cold, 1), (9, &cached, 2)] {
        stream.write_all(&keep_alive_post(&decompile_body(&asm(i)))).expect("write");
        let resp = http::read_response(&mut stream).expect("response");
        assert_eq!(&candidates(&resp), want, "asm({i}) diverged");
        assert_eq!(runtime.metrics().cache.hits, hits);
        assert_edge_conservation(&gateway, 1);
    }
    assert_eq!(gateway.metrics().connections, 1);
    gateway.shutdown();
    Arc::try_unwrap(runtime).ok().expect("gateway dropped its handle").shutdown();
}

/// The options a delivery carries apply to a hit answered inline as they
/// do to a decode: `"stream": true` chunks the cached candidates,
/// `"beam": 2` truncates them.
#[test]
fn hits_honour_stream_and_beam() {
    let slade = gw_slade();
    let expected = slade.decompile(&asm(11));
    assert_eq!(expected.len(), BEAM);
    let runtime =
        Arc::new(ServeRuntime::start(Arc::clone(&slade), ServeConfig::with_shards(1)));
    runtime.decompile(&asm(11));
    let gateway = Gateway::start(Arc::clone(&runtime), gw_config()).expect("bind");
    let mut stream = connect(&gateway);
    let asm_json = Value::Str(asm(11)).render();
    stream
        .write_all(&keep_alive_post(&format!("{{\"asm\":{asm_json},\"stream\":true}}")))
        .expect("write");
    let resp = http::read_response(&mut stream).expect("streamed hit");
    assert_ndjson_stream(&resp, &expected);
    assert_edge_conservation(&gateway, 1);
    stream
        .write_all(&keep_alive_post(&format!("{{\"asm\":{asm_json},\"beam\":2}}")))
        .expect("write");
    let resp = http::read_response(&mut stream).expect("capped hit");
    assert_eq!(candidates(&resp), expected[..2].to_vec());
    // The answer written directly is, byte for byte, the document a
    // serialized struct renders.
    #[derive(Serialize)]
    struct DecompileBody {
        trace_id: u64,
        candidates: Vec<String>,
    }
    let trace_id =
        match Value::parse(&resp.text()).unwrap().as_object().unwrap().get("trace_id") {
            Some(Value::UInt(id)) => *id,
            other => panic!("trace_id {other:?}"),
        };
    let want = DecompileBody { trace_id, candidates: expected[..2].to_vec() };
    assert_eq!(resp.text(), serde_json::to_string(&want).unwrap());
    assert_edge_conservation(&gateway, 1);
    let gw = gateway.metrics();
    assert_eq!((gw.streamed, gw.connections), (1, 1));
    assert_eq!(runtime.metrics().cache.hits, 2);
    gateway.shutdown();
    Arc::try_unwrap(runtime).ok().expect("gateway dropped its handle").shutdown();
}

/// The fixed delivery pool is enough for any number of decodes in flight:
/// it sleeps until the runtime announces one, so sixteen concurrent cold
/// requests all answer 200 with what `decompile_batch` produces.
#[test]
fn delivery_pool_serves_sixteen_cold_requests() {
    let slade = gw_slade();
    let inputs: Vec<String> = (20..36).map(asm).collect();
    let refs: Vec<&str> = inputs.iter().map(String::as_str).collect();
    let expected = slade.decompile_batch(&refs);
    let runtime =
        Arc::new(ServeRuntime::start(Arc::clone(&slade), ServeConfig::with_shards(1)));
    let gateway = Gateway::start(Arc::clone(&runtime), gw_config()).expect("bind");
    let addr = gateway.local_addr().to_string();
    let threads: Vec<_> = inputs
        .iter()
        .cloned()
        .map(|input| {
            let addr = addr.clone();
            std::thread::spawn(move || candidates(&post(&addr, &decompile_body(&input))))
        })
        .collect();
    for (i, t) in threads.into_iter().enumerate() {
        assert_eq!(t.join().expect("client thread"), expected[i], "client {i} diverged");
    }
    assert_eq!(runtime.metrics().decoded, 16);
    assert_edge_conservation(&gateway, 0);
    gateway.shutdown();
    Arc::try_unwrap(runtime).ok().expect("gateway dropped its handle").shutdown();
}

/// A decode slower than the runtime's `request_timeout` is answered `504`
/// at the deadline, not when it finishes — as the runtime's `expired`
/// terminal: the decode that ends later feeds the cache but is counted
/// nowhere, and nothing stays parked.
#[test]
fn request_deadline_answers_504_as_the_runtimes_expiry() {
    let runtime = Arc::new(ServeRuntime::start(
        gw_slade_one_at_a_time(),
        ServeConfig {
            shards: 1,
            request_timeout: Duration::from_millis(60),
            test_decode_delay: Duration::from_millis(400),
            ..ServeConfig::default()
        },
    ));
    let gateway = Gateway::start(Arc::clone(&runtime), gw_config()).expect("bind");
    let resp = post(&gateway.local_addr().to_string(), &decompile_body(&asm(12)));
    assert_eq!(resp.status, 504, "body: {}", resp.text());
    wait_until("the expired decode ends", || runtime.metrics().cache.insertions == 1);
    let rt = runtime.metrics();
    assert_eq!((rt.expired, rt.decoded), (1, 0), "{rt:?}");
    // Also: nothing unaccounted, nothing parked, one 504 per expiry.
    assert_edge_conservation(&gateway, 0);
    gateway.shutdown();
    Arc::try_unwrap(runtime).ok().expect("gateway dropped its handle").shutdown();
}

/// A decode that outlasts the drain deadline is expired and answered `503`
/// at it, and shutdown returns then, the decode still asleep.
#[test]
fn drain_deadline_answers_503() {
    let runtime = Arc::new(ServeRuntime::start(
        gw_slade_one_at_a_time(),
        ServeConfig {
            shards: 1,
            test_decode_delay: Duration::from_millis(600),
            ..ServeConfig::default()
        },
    ));
    let gateway = Gateway::start(
        Arc::clone(&runtime),
        GatewayConfig { drain_deadline: Duration::from_millis(50), ..gw_config() },
    )
    .expect("bind");
    let addr = gateway.local_addr().to_string();
    let client = std::thread::spawn(move || post(&addr, &decompile_body(&asm(13))));
    wait_until("the request is parked", || gateway.metrics().pending_deliveries == 1);
    gateway.shutdown();
    let resp = client.join().expect("client thread");
    assert_eq!(resp.status, 503, "body: {}", resp.text());
    assert_eq!(runtime.metrics().decoded, 0, "shutdown did not wait for the decode");
    let runtime = Arc::try_unwrap(runtime).ok().expect("gateway dropped its handle");
    assert_eq!(runtime.metrics().expired, 1, "the drain expired the request in the runtime");
    runtime.shutdown();
}
