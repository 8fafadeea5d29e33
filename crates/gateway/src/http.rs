//! Hand-rolled, hardened HTTP/1.1 support on `std::net` — the workspace
//! is offline/vendored, so there is no hyper/tokio to lean on.
//!
//! The request reader is written for a hostile network edge: every limit
//! is explicit ([`Limits`]), a stalled peer hits the socket read timeout
//! and gets `408` (slowloris guard), malformed framing gets a specific
//! `4xx`/`5xx` and a closed connection, and no input — truncated,
//! oversized, non-UTF-8, pipelined garbage — may panic or hang
//! (`tests/parser_fuzz.rs` drives this with proptest). Bytes read past
//! one request's body stay in the connection's carry buffer so pipelined
//! requests are parsed in order, never dropped.
//!
//! The module also carries the response writers (fixed-length and
//! chunked transfer-encoding, used for streaming beam candidates) and a
//! tiny blocking client ([`request`] / [`get_url`]) that the CLI's
//! `stats --url` scrape mode, the benches, and the end-to-end tests
//! reuse instead of shelling out to curl.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Parser hardening limits; every bound maps to a specific reject
/// status rather than unbounded buffering.
#[derive(Debug, Clone)]
pub struct Limits {
    /// Request line + headers byte cap (`431` past it).
    pub max_header_bytes: usize,
    /// `content-length` cap (`413` past it).
    pub max_body_bytes: usize,
    /// Header count cap (`431` past it).
    pub max_headers: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits { max_header_bytes: 8 * 1024, max_body_bytes: 1 << 20, max_headers: 64 }
    }
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method token.
    pub method: String,
    /// Request target (origin form, starts with `/`).
    pub path: String,
    /// Headers with lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (`content-length` framed).
    pub body: Vec<u8>,
    /// Whether the connection should persist after the response
    /// (HTTP/1.1 default, `connection` header honored both ways).
    pub keep_alive: bool,
}

impl Request {
    /// First value of a header by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }
}

/// What one read attempt produced.
#[derive(Debug)]
pub enum Outcome {
    /// A complete, well-formed request.
    Request(Request),
    /// Peer closed (or I/O failed) at a request boundary — hang up
    /// silently; there is nothing to answer.
    Closed,
    /// Protocol violation: answer `status` and close the connection.
    Reject {
        /// HTTP status to answer with (4xx/5xx).
        status: u16,
        /// Human-readable violation, returned in the JSON error body.
        reason: String,
    },
}

fn reject(status: u16, reason: impl Into<String>) -> Outcome {
    Outcome::Reject { status, reason: reason.into() }
}

/// Index just past the `\r\n\r\n` (or lenient `\n\n`) head terminator.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            if i + 1 < buf.len() && buf[i + 1] == b'\n' {
                return Some(i + 2);
            }
            if i + 2 < buf.len() && buf[i + 1] == b'\r' && buf[i + 2] == b'\n' {
                return Some(i + 3);
            }
        }
        i += 1;
    }
    None
}

/// Reads one request from `stream`, carrying unconsumed bytes (pipelined
/// follow-ups) across calls in `carry`. Socket read timeouts must be
/// configured by the caller; a timeout mid-request maps to `408`.
/// Generic over [`Read`] so the fuzz suite can drive it with raw byte
/// slices (where EOF stands in for a closed socket).
pub fn read_request<R: Read>(stream: &mut R, carry: &mut Vec<u8>, limits: &Limits) -> Outcome {
    // Accumulate until the head terminator, bounded by max_header_bytes.
    let head_end = loop {
        if let Some(end) = find_head_end(carry) {
            // The bound applies even when the oversized head arrived
            // complete in one read — not only while still buffering.
            if end > limits.max_header_bytes {
                return reject(431, "request head exceeds limit");
            }
            break end;
        }
        if carry.len() > limits.max_header_bytes {
            return reject(431, "request head exceeds limit");
        }
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => {
                return if carry.iter().all(|b| b.is_ascii_whitespace()) {
                    Outcome::Closed // clean close between requests
                } else {
                    reject(400, "connection closed mid request head")
                };
            }
            Ok(n) => carry.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                return if carry.iter().all(|b| b.is_ascii_whitespace()) {
                    Outcome::Closed // idle keep-alive, not a slow request
                } else {
                    reject(408, "request head read timed out")
                };
            }
            Err(_) => return Outcome::Closed,
        }
    };
    let head = match std::str::from_utf8(&carry[..head_end]) {
        Ok(s) => s.to_string(),
        Err(_) => return reject(400, "request head is not UTF-8"),
    };
    let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    // Tolerate leading blank lines between pipelined requests (RFC 9112
    // allows a CRLF before the request line).
    let request_line = loop {
        match lines.next() {
            Some("") => continue,
            Some(line) => break line,
            None => return reject(400, "empty request head"),
        }
    };
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next())
    {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && !p.is_empty() => (m, p, v),
        _ => return reject(400, "malformed request line"),
    };
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return reject(400, "malformed method token");
    }
    if !path.starts_with('/') {
        return reject(400, "request target must be origin-form");
    }
    let default_keep_alive = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        v if v.starts_with("HTTP/") => return reject(505, "unsupported HTTP version"),
        _ => return reject(400, "malformed HTTP version"),
    };
    let mut headers: Vec<(String, String)> = Vec::new();
    let mut content_length: Option<u64> = None;
    for line in lines {
        if line.is_empty() {
            continue; // the terminator's blank line
        }
        if headers.len() >= limits.max_headers {
            return reject(431, "too many headers");
        }
        let Some((name, value)) = line.split_once(':') else {
            return reject(400, "malformed header line");
        };
        if name.is_empty()
            || !name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
        {
            return reject(400, "malformed header name");
        }
        let name = name.to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            let parsed: Option<u64> =
                value.bytes().all(|b| b.is_ascii_digit()).then(|| value.parse().ok()).flatten();
            let Some(n) = parsed else {
                return reject(400, "malformed content-length");
            };
            if content_length.is_some_and(|prev| prev != n) {
                return reject(400, "conflicting content-length headers");
            }
            content_length = Some(n);
        }
        if name == "transfer-encoding" {
            return reject(501, "chunked request bodies are not supported");
        }
        headers.push((name, value));
    }
    let body_len = match content_length {
        Some(n) => n,
        None if method == "POST" || method == "PUT" || method == "PATCH" => {
            return reject(411, "content-length required");
        }
        None => 0,
    };
    if body_len > limits.max_body_bytes as u64 {
        return reject(413, "body exceeds limit");
    }
    let body_len = body_len as usize;
    // Body: take what the head read over-fetched, then read the rest
    // straight into its place — one `read` per arrival, no bounce buffer.
    let mut body: Vec<u8> = Vec::with_capacity(body_len);
    let buffered = (carry.len() - head_end).min(body_len);
    body.extend_from_slice(&carry[head_end..head_end + buffered]);
    carry.drain(..head_end + buffered);
    body.resize(body_len, 0);
    let mut filled = buffered;
    while filled < body_len {
        match stream.read(&mut body[filled..]) {
            Ok(0) => return reject(400, "connection closed mid body"),
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                return reject(408, "body read timed out");
            }
            Err(_) => return Outcome::Closed,
        }
    }
    let keep_alive = match headers.iter().find(|(n, _)| n == "connection") {
        Some((_, v)) if v.eq_ignore_ascii_case("close") => false,
        Some((_, v)) if v.eq_ignore_ascii_case("keep-alive") => true,
        _ => default_keep_alive,
    };
    Outcome::Request(Request {
        method: method.to_string(),
        path: path.to_string(),
        headers,
        body,
        keep_alive,
    })
}

/// Canonical reason phrase for the statuses the gateway emits.
pub fn status_reason(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        411 => "Length Required",
        413 => "Content Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Writes a fixed-length response: head and body leave in one `write`,
/// so with `TCP_NODELAY` they are one segment and one wake-up of the peer.
pub fn write_response<W: Write>(
    stream: &mut W,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut out = Vec::with_capacity(HEAD_ROOM + content_type.len() + body.len());
    write_head(&mut out, status, content_type, body.len(), keep_alive)?;
    out.extend_from_slice(body);
    stream.write_all(&out)?;
    stream.flush()
}

/// [`write_response`] with a body that `render` writes straight into the
/// buffer the response leaves from. The head, which needs the body's
/// length, goes into room left in front of it.
pub fn write_response_with<W: Write>(
    stream: &mut W,
    status: u16,
    content_type: &str,
    keep_alive: bool,
    render: impl FnOnce(&mut String),
) -> std::io::Result<()> {
    let room = HEAD_ROOM + content_type.len();
    let mut out = String::with_capacity(room + 1024);
    out.extend(std::iter::repeat_n(' ', room));
    render(&mut out);
    let mut out = out.into_bytes();
    let mut head = Vec::with_capacity(room);
    write_head(&mut head, status, content_type, out.len() - room, keep_alive)?;
    let start = room - head.len();
    out[start..room].copy_from_slice(&head);
    stream.write_all(&out[start..])?;
    stream.flush()
}

/// Bytes a fixed-length response head takes beyond its content type:
/// the longest status and reason, a 20-digit length and `keep-alive`.
const HEAD_ROOM: usize = 128;

fn write_head(
    out: &mut Vec<u8>,
    status: u16,
    content_type: &str,
    body_len: usize,
    keep_alive: bool,
) -> std::io::Result<()> {
    write!(
        out,
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ncontent-length: {body_len}\r\nconnection: {}\r\n\r\n",
        status_reason(status),
        if keep_alive { "keep-alive" } else { "close" },
    )
}

/// Starts a chunked transfer-encoding response (follow with
/// [`write_chunk`] then [`finish_chunked`]).
pub fn write_chunked_head<W: Write>(
    stream: &mut W,
    status: u16,
    content_type: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ntransfer-encoding: chunked\r\nconnection: {}\r\n\r\n",
        status_reason(status),
        if keep_alive { "keep-alive" } else { "close" },
    );
    stream.write_all(head.as_bytes())
}

/// One chunk of a chunked response, in one `write` (empty data is
/// skipped — a zero-size chunk would terminate the stream).
pub fn write_chunk<W: Write>(stream: &mut W, data: &[u8]) -> std::io::Result<()> {
    if data.is_empty() {
        return Ok(());
    }
    let mut out = Vec::with_capacity(data.len() + 20);
    write!(out, "{:x}\r\n", data.len())?;
    out.extend_from_slice(data);
    out.extend_from_slice(b"\r\n");
    stream.write_all(&out)?;
    stream.flush()
}

/// Terminates a chunked response.
pub fn finish_chunked<W: Write>(stream: &mut W) -> std::io::Result<()> {
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}

/// A response read by the tiny blocking client.
#[derive(Debug)]
pub struct ClientResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Headers with lowercased names.
    pub headers: Vec<(String, String)>,
    /// Body bytes, chunked transfer-encoding already decoded.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// Body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// First value of a header by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }
}

fn read_exact_from(buf: &mut Vec<u8>, stream: &mut TcpStream, n: usize) -> Result<(), String> {
    while buf.len() < n {
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => return Err("connection closed mid response".into()),
            Ok(got) => buf.extend_from_slice(&chunk[..got]),
            Err(e) => return Err(format!("read: {e}")),
        }
    }
    Ok(())
}

/// Issues one blocking HTTP/1.1 request over a fresh connection and
/// reads the full response (fixed-length or chunked).
///
/// # Errors
///
/// Connection, timeout, and malformed-response errors as text.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
    timeout: Duration,
) -> Result<ClientResponse, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_read_timeout(Some(timeout)).map_err(|e| e.to_string())?;
    stream.set_write_timeout(Some(timeout)).map_err(|e| e.to_string())?;
    let _ = stream.set_nodelay(true);
    let mut req = format!("{method} {path} HTTP/1.1\r\nhost: {addr}\r\nconnection: close\r\n");
    for (name, value) in headers {
        req.push_str(&format!("{name}: {value}\r\n"));
    }
    req.push_str(&format!("content-length: {}\r\n\r\n", body.len()));
    stream.write_all(req.as_bytes()).map_err(|e| format!("write: {e}"))?;
    stream.write_all(body).map_err(|e| format!("write: {e}"))?;
    read_response(&mut stream)
}

/// Reads one full response from an already-written stream.
///
/// # Errors
///
/// Timeout and malformed-response errors as text.
pub fn read_response(stream: &mut TcpStream) -> Result<ClientResponse, String> {
    let mut buf: Vec<u8> = Vec::new();
    let head_end = loop {
        if let Some(end) = find_head_end(&buf) {
            break end;
        }
        if buf.len() > 64 * 1024 {
            return Err("response head exceeds 64 KiB".into());
        }
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => return Err("connection closed mid response head".into()),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(format!("read: {e}")),
        }
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| "response head is not UTF-8".to_string())?;
    let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let status_line = lines.next().ok_or("empty response")?;
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line `{status_line}`"))?;
    let mut headers: Vec<(String, String)> = Vec::new();
    for line in lines {
        if let Some((n, v)) = line.split_once(':') {
            headers.push((n.to_ascii_lowercase(), v.trim().to_string()));
        }
    }
    buf.drain(..head_end);
    let chunked = headers
        .iter()
        .any(|(n, v)| n == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
    let body = if chunked {
        let mut body = Vec::new();
        loop {
            // Chunk size line.
            let line_end = loop {
                if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                    break pos + 1;
                }
                let need = buf.len() + 1;
                read_exact_from(&mut buf, stream, need)?;
            };
            let size_line = String::from_utf8_lossy(&buf[..line_end]).trim().to_string();
            buf.drain(..line_end);
            let size = usize::from_str_radix(&size_line, 16)
                .map_err(|_| format!("malformed chunk size `{size_line}`"))?;
            if size == 0 {
                break;
            }
            read_exact_from(&mut buf, stream, size + 2)?; // data + CRLF
            body.extend_from_slice(&buf[..size]);
            buf.drain(..size + 2);
        }
        body
    } else if let Some(n) = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok())
    {
        read_exact_from(&mut buf, stream, n)?;
        buf.truncate(n);
        buf
    } else {
        // Read to EOF (connection: close framing).
        let mut rest = Vec::new();
        let _ = stream.read_to_end(&mut rest);
        buf.extend_from_slice(&rest);
        buf
    };
    Ok(ClientResponse { status, headers, body })
}

/// `GET` an `http://host:port/path` URL with the tiny client.
///
/// # Errors
///
/// Unsupported scheme, connection, and protocol errors as text.
pub fn get_url(url: &str, timeout: Duration) -> Result<ClientResponse, String> {
    let rest = url
        .strip_prefix("http://")
        .ok_or_else(|| format!("only http:// URLs are supported, got `{url}`"))?;
    let (addr, path) = match rest.split_once('/') {
        Some((addr, path)) => (addr.to_string(), format!("/{path}")),
        None => (rest.to_string(), "/".to_string()),
    };
    request(&addr, "GET", &path, &[], b"", timeout)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Accepts everything it is given and counts how often it was asked:
    /// over a socket with `TCP_NODELAY`, each `write` is a `send`, a
    /// segment and, likely, a wake-up of the peer.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_and_a_chunk_are_one_write_each() {
        let mut w = CountingWriter::default();
        write_response(&mut w, 200, "application/json", b"{\"ok\":true}", true).unwrap();
        assert_eq!(w.writes, 1, "head and body leave together");
        assert_eq!(
            w.bytes,
            b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 11\r\n\
              connection: keep-alive\r\n\r\n{\"ok\":true}",
        );
        let mut w = CountingWriter::default();
        write_chunk(&mut w, b"{\"index\":0}\n").unwrap();
        assert_eq!(w.writes, 1, "size line, data and CRLF leave together");
        assert_eq!(w.bytes, b"c\r\n{\"index\":0}\n\r\n");
        write_chunk(&mut w, b"").unwrap();
        assert_eq!(w.writes, 1, "an empty chunk would end the stream: not written");
        let mut w = CountingWriter::default();
        write_response_with(&mut w, 200, "application/json", true, |out| {
            out.push_str("{\"ok\":true}")
        })
        .unwrap();
        assert_eq!(w.writes, 1, "a rendered body leaves with its head");
        let mut direct = CountingWriter::default();
        write_response(&mut direct, 200, "application/json", b"{\"ok\":true}", true).unwrap();
        assert_eq!(w.bytes, direct.bytes);
    }

    /// The room left for a head holds the longest one: any status, the
    /// longest reason, the widest length.
    #[test]
    fn every_head_fits_its_room() {
        for status in (0..=u16::MAX).step_by(7).chain([431, 505, u16::MAX]) {
            for keep_alive in [false, true] {
                let mut head = Vec::new();
                write_head(&mut head, status, "", usize::MAX, keep_alive).unwrap();
                assert!(head.len() <= HEAD_ROOM, "{}", String::from_utf8_lossy(&head));
            }
        }
    }

    /// A body longer than what arrived with the head is read in place:
    /// one `read` per arrival, whatever its size.
    #[test]
    fn the_body_is_read_once_per_arrival() {
        struct Arrivals {
            parts: Vec<Vec<u8>>,
            reads: usize,
        }
        impl Read for Arrivals {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.reads += 1;
                if self.parts.is_empty() {
                    return Ok(0);
                }
                let n = self.parts[0].len().min(buf.len());
                buf[..n].copy_from_slice(&self.parts[0][..n]);
                self.parts[0].drain(..n);
                if self.parts[0].is_empty() {
                    self.parts.remove(0);
                }
                Ok(n)
            }
        }
        let body: Vec<u8> = (0..20_000u32).map(|i| b'a' + (i % 26) as u8).collect();
        let head =
            format!("POST /v1/decompile HTTP/1.1\r\ncontent-length: {}\r\n\r\n", body.len());
        let first = [head.as_bytes(), &body[..100]].concat();
        let parts = vec![first, body[100..12_000].to_vec(), body[12_000..].to_vec()];
        let mut stream = Arrivals { parts, reads: 0 };
        let mut carry = Vec::new();
        match read_request(&mut stream, &mut carry, &Limits::default()) {
            Outcome::Request(req) => assert_eq!(req.body, body),
            other => panic!("expected a request, got {other:?}"),
        }
        assert_eq!(stream.reads, 3, "head + two body arrivals");
        assert!(carry.is_empty());
    }
}
