//! Malformed-input robustness for the hardened HTTP parser: whatever
//! bytes arrive — random garbage, truncations at every offset, oversized
//! heads, corrupt framing, pipelined junk — `read_request` must return a
//! clean outcome (`Request`, `Closed`, or a specific 4xx/5xx `Reject`),
//! never panic, and never loop past the input. Readers are byte slices
//! (EOF stands in for a closed socket), so every call is also trivially
//! hang-free.
//!
//! Below the HTTP parser, the JSON body: the run-based string writer and
//! parser are held to character-at-a-time oracles, and nesting is bounded.

use proptest::prelude::*;
use serde_json::{Value, MAX_DEPTH};
use slade_gateway::http::{read_request, Limits, Outcome};

/// Statuses the parser is allowed to reject with. On slice readers the
/// timeout path (408) is unreachable — EOF arrives instead.
const REJECT_STATUSES: [u16; 7] = [400, 408, 411, 413, 431, 501, 505];

/// Small limits so proptest-sized inputs can actually exceed them.
fn tight_limits() -> Limits {
    Limits { max_header_bytes: 256, max_body_bytes: 512, max_headers: 8 }
}

/// Drives the parser over `bytes` the way a connection worker would:
/// repeated calls, carry preserved, stopping at the first non-request
/// outcome. Returns the parsed request count and the final outcome.
fn drive(bytes: &[u8], limits: &Limits) -> (usize, Outcome) {
    let mut reader: &[u8] = bytes;
    let mut carry = Vec::new();
    let mut served = 0usize;
    // Each successful parse consumes at least one byte; anything else
    // terminates. The +2 headroom covers the empty-input `Closed` call.
    for _ in 0..bytes.len() + 2 {
        match read_request(&mut reader, &mut carry, limits) {
            Outcome::Request(_) => served += 1,
            other => return (served, other),
        }
    }
    panic!("parser failed to terminate on {} bytes", bytes.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Arbitrary bytes: the parser terminates with a clean outcome and
    /// any reject uses one of its documented statuses.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..300)) {
        let (_, outcome) = drive(&bytes, &tight_limits());
        if let Outcome::Reject { status, reason } = outcome {
            prop_assert!(
                REJECT_STATUSES.contains(&status),
                "undocumented reject {status}: {reason}",
            );
            prop_assert!(!reason.is_empty());
        }
    }

    /// ASCII-ish garbage (more likely to get past the request line and
    /// into header/body framing paths than uniform bytes).
    #[test]
    fn asciiish_garbage_never_panics(
        bytes in proptest::collection::vec(
            prop_oneof![
                3 => 32u8..127,          // printable
                1 => proptest::sample::select(vec![b'\r', b'\n', b':', b' ']),
            ],
            0..300,
        ),
    ) {
        let (_, outcome) = drive(&bytes, &tight_limits());
        if let Outcome::Reject { status, .. } = outcome {
            prop_assert!(REJECT_STATUSES.contains(&status));
        }
    }

    /// Truncation at every offset of a well-formed POST: the full bytes
    /// parse, a zero-length read closes cleanly, and every cut in
    /// between is `400` — the connection died mid-request.
    #[test]
    fn truncation_points_reject_cleanly(cut_seed in 0usize..10_000) {
        let body = "{\"asm\":\"f:\\n\\tret\\n\"}";
        let full = format!(
            "POST /v1/decompile HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
            body.len(),
        );
        let bytes = full.as_bytes();
        let cut = cut_seed % (bytes.len() + 1);
        let (served, outcome) = drive(&bytes[..cut], &Limits::default());
        if cut == bytes.len() {
            prop_assert_eq!(served, 1, "full request must parse");
            prop_assert!(matches!(outcome, Outcome::Closed));
        } else if cut == 0 {
            prop_assert_eq!(served, 0);
            prop_assert!(matches!(outcome, Outcome::Closed), "empty input closes silently");
        } else {
            prop_assert_eq!(served, 0, "truncated request must not parse");
            match outcome {
                Outcome::Reject { status, .. } => prop_assert_eq!(status, 400),
                other => return Err(format!("expected 400, got {other:?}")),
            }
        }
    }

    /// Oversized heads: a header value long enough to blow
    /// `max_header_bytes`, or more headers than `max_headers`, must be
    /// `431` — never unbounded buffering.
    #[test]
    fn oversized_heads_reject_431(pad in 300usize..2000, many in 0u8..2) {
        let limits = tight_limits();
        let head = if many == 1 {
            let headers: String =
                (0..20).map(|i| format!("x-h{i}: v\r\n")).collect();
            format!("GET / HTTP/1.1\r\n{headers}\r\n")
        } else {
            format!("GET / HTTP/1.1\r\nx-pad: {}\r\n\r\n", "a".repeat(pad))
        };
        let (served, outcome) = drive(head.as_bytes(), &limits);
        prop_assert_eq!(served, 0);
        match outcome {
            Outcome::Reject { status, .. } => prop_assert_eq!(status, 431),
            other => return Err(format!("expected 431, got {other:?}")),
        }
    }

    /// Pipelined garbage behind a valid request: the valid request is
    /// served from the carry buffer, then the junk terminates cleanly.
    #[test]
    fn pipelined_garbage_after_valid_request(
        junk in proptest::collection::vec(0u8..=255, 1..200),
    ) {
        let mut bytes = b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n".to_vec();
        bytes.extend_from_slice(&junk);
        let (served, outcome) = drive(&bytes, &tight_limits());
        prop_assert!(served >= 1, "the leading valid request must be served");
        if let Outcome::Reject { status, .. } = outcome {
            prop_assert!(REJECT_STATUSES.contains(&status));
        }
    }

    /// Two valid pipelined requests parse in order with bodies intact.
    #[test]
    fn pipelined_valid_requests_parse_in_order(n_body in 0usize..100) {
        let body = "x".repeat(n_body);
        let first = format!(
            "POST /v1/decompile HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
            body.len(),
        );
        let full = format!("{first}GET /metrics HTTP/1.1\r\n\r\n");
        let mut reader: &[u8] = full.as_bytes();
        let mut carry = Vec::new();
        let limits = Limits::default();
        match read_request(&mut reader, &mut carry, &limits) {
            Outcome::Request(req) => {
                prop_assert_eq!(req.method.as_str(), "POST");
                prop_assert_eq!(req.body, body.as_bytes().to_vec());
            }
            other => return Err(format!("first: {other:?}")),
        }
        match read_request(&mut reader, &mut carry, &limits) {
            Outcome::Request(req) => {
                prop_assert_eq!(req.method.as_str(), "GET");
                prop_assert_eq!(req.path.as_str(), "/metrics");
                prop_assert!(req.body.is_empty());
            }
            other => return Err(format!("second: {other:?}")),
        }
    }
}

/// Content-length corruption table: every malformed framing variant maps
/// to its specific status.
#[test]
fn content_length_corruption_is_mapped() {
    let cases: Vec<(String, u16)> = vec![
        // Non-numeric, signed, exponent, overflow, empty: all 400.
        ("POST / HTTP/1.1\r\ncontent-length: abc\r\n\r\n".into(), 400),
        ("POST / HTTP/1.1\r\ncontent-length: -1\r\n\r\n".into(), 400),
        ("POST / HTTP/1.1\r\ncontent-length: 1e3\r\n\r\n".into(), 400),
        ("POST / HTTP/1.1\r\ncontent-length: 18446744073709551616\r\n\r\n".into(), 400),
        ("POST / HTTP/1.1\r\ncontent-length:\r\n\r\n".into(), 400),
        // Conflicting duplicates: 400. Matching duplicates are fine.
        ("POST / HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: 3\r\n\r\nab".into(), 400),
        // Body-carrying method without a length: 411.
        ("POST / HTTP/1.1\r\n\r\n".into(), 411),
        // Declared body over the limit: 413.
        (format!("POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n", 1 << 21), 413),
        // Chunked uploads are not implemented: 501.
        ("POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n".into(), 501),
        // Unsupported/malformed versions.
        ("GET / HTTP/2.0\r\n\r\n".into(), 505),
        ("GET / FTP/1.1\r\n\r\n".into(), 400),
        // Lowercase method token, non-origin-form target.
        ("get / HTTP/1.1\r\n\r\n".into(), 400),
        ("GET http://x/ HTTP/1.1\r\n\r\n".into(), 400),
    ];
    for (raw, want) in cases {
        let (served, outcome) = drive(raw.as_bytes(), &Limits::default());
        assert_eq!(served, 0, "{raw:?} must not parse");
        match outcome {
            Outcome::Reject { status, reason } => {
                assert_eq!(status, want, "{raw:?} → {status} ({reason}), want {want}");
            }
            other => panic!("{raw:?} → {other:?}, want reject {want}"),
        }
    }
    // Matching duplicate content-lengths are accepted (RFC 9110 allows
    // deduplicating identical values).
    let ok = "POST / HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: 2\r\n\r\nab";
    let (served, _) = drive(ok.as_bytes(), &Limits::default());
    assert_eq!(served, 1);
}

/// The string-literal writer [`serde_json::write_str`] replaced: one
/// `char` at a time.
fn oracle_render(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The string parser the run-based one replaced, as `Value::parse` runs it
/// on a document that is one string: each run between escapes is checked
/// with `from_utf8` and pushed, each escape decoded as it was. Its `\u`
/// handling takes exactly four hex digits and a low surrogate in
/// `dc00..e000`, as the parser now does; it used to let `\u+041` through
/// and misread (or, in a debug build, overflow on) a bad low half.
fn oracle_parse(text: &str) -> Result<String, String> {
    let bytes = text.as_bytes();
    let hex4 = |pos: usize| -> Result<u32, String> {
        let hex = bytes.get(pos..pos + 4).ok_or("truncated \\u escape")?;
        if !hex.iter().all(u8::is_ascii_hexdigit) {
            return Err("bad \\u escape".into());
        }
        Ok(u32::from_str_radix(std::str::from_utf8(hex).unwrap(), 16).unwrap())
    };
    let mut pos = text.len() - text.trim_start().len();
    if bytes.get(pos) != Some(&b'"') {
        return Err("not a string".into());
    }
    pos += 1;
    let mut out = String::new();
    loop {
        let start = pos;
        while let Some(&b) = bytes.get(pos) {
            if b == b'"' || b == b'\\' {
                break;
            }
            pos += 1;
        }
        out.push_str(std::str::from_utf8(&bytes[start..pos]).map_err(|e| e.to_string())?);
        match bytes.get(pos) {
            Some(b'"') => {
                pos += 1;
                break;
            }
            Some(b'\\') => {
                let esc = *bytes.get(pos + 1).ok_or("unterminated escape")?;
                pos += 2;
                let c = match esc {
                    b'"' => '"',
                    b'\\' => '\\',
                    b'/' => '/',
                    b'n' => '\n',
                    b'r' => '\r',
                    b't' => '\t',
                    b'b' => '\u{8}',
                    b'f' => '\u{c}',
                    b'u' => {
                        let mut code = hex4(pos)?;
                        pos += 4;
                        if (0xd800..0xdc00).contains(&code) {
                            if bytes.get(pos..pos + 2) != Some(b"\\u") {
                                return Err("lone high surrogate".into());
                            }
                            let low = hex4(pos + 2)?;
                            if !(0xdc00..0xe000).contains(&low) {
                                return Err("bad surrogate".into());
                            }
                            pos += 6;
                            code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                        }
                        char::from_u32(code).ok_or("invalid \\u codepoint")?
                    }
                    _ => return Err("unknown escape".into()),
                };
                out.push(c);
            }
            _ => return Err("unterminated string".into()),
        }
    }
    if !text[pos..].trim_start_matches([' ', '\t', '\n', '\r']).is_empty() {
        return Err("trailing characters".into());
    }
    Ok(out)
}

/// Text pieces a JSON string holds: every control byte, quotes,
/// backslashes, `/`, DEL, printable ASCII and 2-, 3- and 4-byte UTF-8.
fn text_piece() -> impl Strategy<Value = String> {
    let chars =
        |lo: u32, hi: u32| (lo..hi).prop_map(|c| char::from_u32(c).unwrap().to_string());
    prop_oneof![
        2 => chars(0, 0x20),
        2 => proptest::sample::select(vec!["\"", "\\", "/", "\u{7f}", "\\n", "\\\""])
            .prop_map(str::to_string),
        4 => chars(0x20, 0x7f),
        1 => chars(0x80, 0x800),
        1 => chars(0x800, 0xd800),
        1 => chars(0xe000, 0x10000),
        1 => chars(0x10000, 0x110000),
        2 => "[a-z \\t]{1,12}",
    ]
}

/// Pieces of JSON-ish string-literal text: the text pieces above raw, and
/// escapes — short ones, `\uXXXX` of any code unit in either case, valid
/// and broken surrogate pairs, truncated and non-hex `\u`, unknown ones.
fn literal_piece() -> impl Strategy<Value = String> {
    prop_oneof![
        6 => text_piece(),
        2 => proptest::sample::select(vec![
            "\\\"", "\\\\", "\\/", "\\b", "\\f", "\\n", "\\r", "\\t", "\\x", "\\", "\\u",
            "\\u12", "\\u12g4", "\\u+041", "\\ud83d\\ude00", "\\uD834\\uDD1E", "\\ud800",
            "\\ud800\\u0041", "\\ud800\\ue000", "\\udc00",
        ])
        .prop_map(str::to_string),
        2 => (0u32..0x10000).prop_map(|c| format!("\\u{c:04x}")),
        1 => (0u32..0x10000).prop_map(|c| format!("\\u{c:04X}")),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    /// The run-based writer renders every string byte for byte as the
    /// character loop did, and the parser reads it back unchanged.
    #[test]
    fn string_literals_render_as_the_char_loop_did(
        pieces in proptest::collection::vec(text_piece(), 0..40),
    ) {
        let s: String = pieces.concat();
        let mut rendered = String::new();
        serde_json::write_str(&mut rendered, &s);
        prop_assert_eq!(&rendered, &oracle_render(&s));
        prop_assert_eq!(Value::Str(s.clone()).render(), rendered.clone());
        prop_assert_eq!(Value::parse(&rendered), Ok(Value::Str(s)));
    }

    /// On JSON-ish text, the run-based parser and the oracle agree: the
    /// same string, or both an error.
    #[test]
    fn string_literals_parse_as_the_oracle_does(
        lead in proptest::sample::select(vec!["\"", " \"", "\"", "x"]),
        pieces in proptest::collection::vec(literal_piece(), 0..24),
        end in proptest::sample::select(vec!["\"", "\"", "\" \n", "", "\"x", "\\", "\"\""]),
    ) {
        let text = format!("{lead}{}{end}", pieces.concat());
        let ours = Value::parse(&text);
        match oracle_parse(&text) {
            Ok(s) => prop_assert_eq!(ours, Ok(Value::Str(s)), "on {:?}", text),
            Err(why) => prop_assert!(ours.is_err(), "{:?}: oracle says {}, got {:?}", text, why, ours),
        }
    }
}

/// Nesting up to [`MAX_DEPTH`] parses; one level more is an error, and so
/// is a body of `[` far deeper — not a stack overflow.
#[test]
fn json_nesting_is_bounded() {
    let nest = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
    assert!(Value::parse(&nest(MAX_DEPTH)).is_ok());
    assert!(Value::parse(&nest(MAX_DEPTH + 1)).is_err());
    let objects = |d: usize| format!("{}null{}", "{\"k\":".repeat(d), "}".repeat(d));
    assert!(Value::parse(&objects(MAX_DEPTH)).is_ok());
    assert!(Value::parse(&objects(MAX_DEPTH + 1)).is_err());
    assert!(Value::parse(&"[".repeat(64 * 1024)).is_err());
    assert!(Value::parse(&"[{\"a\":".repeat(32 * 1024)).is_err());
}
