//! `gateway_hot`: the HTTP gateway (default configuration) over a
//! one-shard runtime whose cache already holds every body, so each POST is
//! a memory-cache hit and the nn layer does nothing. One keep-alive
//! connection in a closed loop. What is left is HTTP parse, the connection
//! → delivery → connection hand-off, `normalize_asm`, the key hash, the
//! cache probe, metrics and the response write.
//!
//! A round trip is four thread wake-ups. The benchmark process is pinned
//! to one CPU (`main.rs`), so each is a context switch, which is the
//! program's work, and not a wake-up of another virtual CPU through the
//! hypervisor, which is the host's: on two CPUs a round trip took 70 to
//! 100 µs from one ten-second stretch to the next while the host stood
//! still (and 30 µs in one process of ten, when the threads happened to
//! share a core); on one it takes 30 to 33 µs.

use super::Segment;
use crate::fixture::{self, Fixture, FixtureSpec, Scale};
use crate::stats::{digest_outputs, HostLoop};
use crate::trace::Recorder;
use serde_json::{Map, Value};
use slade_compiler::OptLevel;
use slade_gateway::{http, Gateway, GatewayConfig, GatewaySnapshot};
use slade_serve::{ServeConfig, ServeRuntime};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// POSTs per slice (about 150 ms, so the host loop after it costs 3 %).
const SLICE: usize = 5000;

/// The set-up: 16 distinct `-O0` bodies (about 2 KB of assembly), one walk
/// of the length ladder, with a decode budget of 16 tokens. The untrained
/// model repeats whatever piece the seed's vocabulary puts at its favourite
/// token, so the size of a response follows the seed — 360 to 2200 bytes at
/// a budget of 64 — and the rate follows the size, 9 % per kilobyte. A
/// quarter of the budget leaves a quarter of that, and of the decoding in
/// the set-up.
pub fn spec(scale: Scale) -> FixtureSpec {
    FixtureSpec { opt: OptLevel::O0, max_tgt: 16, max_src: 1024, inputs: scale.chunk() }
}

/// A started gateway whose runtime has every body cached.
pub struct HotGateway {
    /// Corpus, model and the bodies.
    pub fx: Fixture,
    /// The gateway under test (owns the runtime).
    pub gateway: Gateway,
    /// The full HTTP request for each body.
    pub requests: Vec<Vec<u8>>,
    /// What the runtime answered for each body during set-up.
    pub expected: Vec<Vec<String>>,
    /// Each expected response body from `"candidates"` on.
    tails: Vec<Vec<u8>>,
}

/// The full `POST /v1/decompile` request for one assembly text.
pub fn post_request(asm: &str) -> Vec<u8> {
    let mut body = Map::new();
    body.insert("asm".into(), Value::Str(asm.into()));
    let body = Value::Object(body).render();
    format!(
        "POST /v1/decompile HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Opens a keep-alive connection to the gateway.
///
/// # Panics
///
/// Panics when the loopback connection cannot be made: the benchmark
/// cannot run without it.
pub fn connect(gateway: &Gateway) -> TcpStream {
    let stream = TcpStream::connect(gateway.local_addr()).expect("connect to the gateway");
    stream.set_nodelay(true).expect("set nodelay");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("set read timeout");
    stream
}

/// Builds the fixture, starts runtime and gateway, and decodes every body
/// once so the cache holds it (the timed set-up).
pub fn setup(seed: u64, scale: Scale) -> HotGateway {
    let fx = fixture::build(seed, &spec(scale), scale);
    let runtime = Arc::new(ServeRuntime::start(Arc::clone(&fx.slade), ServeConfig::default()));
    // One at a time: sixteen at once would share every decode step, take
    // over a second each and trip the runtime's slow-request log.
    let expected: Vec<Vec<String>> =
        fx.inputs.iter().map(|f| runtime.decompile(&f.asm)).collect();
    let gateway =
        Gateway::start(runtime, GatewayConfig::default()).expect("bind a loopback port");
    let requests = fx.inputs.iter().map(|f| post_request(&f.asm)).collect();
    let tails = expected
        .iter()
        .map(|c| {
            format!("\"candidates\":{}}}", serde_json::to_string(c).expect("serializes"))
                .into_bytes()
        })
        .collect();
    HotGateway { fx, gateway, requests, expected, tails }
}

/// True when `body` is `{"trace_id":<digits>,` followed by the expected
/// candidates — the whole shape of a buffered decompile answer.
fn body_matches(body: &[u8], tail: &[u8]) -> bool {
    let Some(rest) = body.strip_prefix(b"{\"trace_id\":") else { return false };
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    digits > 0 && rest[digits..].strip_prefix(b",") == Some(tail)
}

/// POSTs the bodies round robin over one keep-alive connection, one at a
/// time, in slices of [`SLICE`], until `seconds` have gone by. Every
/// answer must be a 200 whose candidates equal the expected ones. With a
/// recorder, every round trip is a span.
pub fn measure(
    hot: &HotGateway,
    seconds: f64,
    host: &mut HostLoop,
    mut rec: Option<&mut Recorder>,
) -> Segment {
    let mut stream = connect(&hot.gateway);
    let mut seg = Segment::default();
    let start = Instant::now();
    let mut sent = 0usize;
    while seg.slices.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let mut failed = 0u64;
        seg.slice(host, || {
            let mut latencies_ms = Vec::with_capacity(SLICE);
            for _ in 0..SLICE {
                let body = sent % hot.requests.len();
                let t = Instant::now();
                let answer = stream
                    .write_all(&hot.requests[body])
                    .map_err(|e| e.to_string())
                    .and_then(|()| http::read_response(&mut stream));
                let end = Instant::now();
                if let Some(r) = rec.as_deref_mut() {
                    r.record("gateway.round_trip", t, end, None, sent as u64);
                }
                match answer {
                    Ok(resp)
                        if resp.status == 200 && body_matches(&resp.body, &hot.tails[body]) =>
                    {
                        latencies_ms.push((end - t).as_secs_f64() * 1e3);
                    }
                    Ok(_) => failed += 1,
                    Err(_) => {
                        // The connection is in an unknown state: start another.
                        failed += 1;
                        stream = connect(&hot.gateway);
                    }
                }
                sent += 1;
            }
            (latencies_ms.len() as u64, latencies_ms)
        });
        seg.attempted += SLICE as u64;
        seg.failed += failed;
    }
    seg.digest = digest_outputs(&hot.expected);
    seg
}

/// The output check behind the per-request comparison: what the runtime
/// cached (and every response was compared against) must equal
/// `Slade::decompile_batch` of the same inputs, checked on every fourth
/// body. Returns `(checked, wrong)`.
pub fn verify(hot: &HotGateway) -> (u64, u64) {
    let picks: Vec<usize> = (0..hot.fx.inputs.len()).step_by(4).collect();
    let refs: Vec<&str> = picks.iter().map(|&i| hot.fx.inputs[i].asm.as_str()).collect();
    let direct = hot.fx.slade.decompile_batch(&refs);
    let wrong = picks.iter().zip(&direct).filter(|(&i, d)| hot.expected[i] != **d).count();
    (picks.len() as u64, wrong as u64)
}

/// `decompile_offered − (quota_shed + runtime submitted)`: the gateway's
/// edge identity, 0 when every validated submission is accounted for.
pub fn offered_drift(gw: &GatewaySnapshot, runtime_submitted: u64) -> i64 {
    gw.decompile_offered as i64 - (gw.quota_shed + runtime_submitted) as i64
}

/// Responses with status 200, and with any other status.
pub fn status_counts(gw: &GatewaySnapshot) -> (u64, u64) {
    let ok = gw.by_status.iter().filter(|s| s.code == 200).map(|s| s.count).sum();
    (ok, gw.requests - ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn body_shape_is_checked_strictly() {
        let tail = b"\"candidates\":[\"int f;\"]}";
        assert!(body_matches(b"{\"trace_id\":42,\"candidates\":[\"int f;\"]}", tail));
        assert!(!body_matches(b"{\"trace_id\":,\"candidates\":[\"int f;\"]}", tail));
        assert!(!body_matches(b"{\"trace_id\":42,\"candidates\":[\"int g;\"]}", tail));
        assert!(!body_matches(b"{\"error\":\"x\"}", tail));
    }

    #[test]
    fn post_request_escapes_the_assembly() {
        let req = String::from_utf8(post_request("a:\n\t\"q\"")).unwrap();
        assert!(req.ends_with("{\"asm\":\"a:\\n\\t\\\"q\\\"\"}"));
        let body = req.split("\r\n\r\n").nth(1).unwrap();
        assert!(req.contains(&format!("content-length: {}\r\n", body.len())));
    }
}
