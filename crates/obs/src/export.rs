//! The Prometheus text exposition, end to end: the metric values that
//! carry their own family ([`Counter`], [`Gauge`]; the timing
//! [`crate::Histogram`] is the third), the [`PromText`] document they
//! write themselves into, and the parser that checks the result.
//!
//! A family is stated once, where its value is declared with
//! `(name, help)` — [`metrics!`](crate::metrics) declares a struct of
//! them; whoever owns the value calls `expose` on it with the scrape's
//! one [`PromText`], which refuses a family declared twice — so a
//! process's whole `/metrics` document is checked, not one crate's part
//! of it. [`validate_exposition`] — used by the tests, the CI scrape
//! smoke and `slade-cli stats --url` — re-parses the text. Durations are
//! exported in **seconds** (Prometheus convention) even though the crate
//! records microseconds internally.

use crate::hist::HistSnapshot;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// One integer metric value that knows its family: a [`Counter`] or, with
/// `GAUGE`, a [`Gauge`]. Recording is one relaxed RMW on the value.
#[derive(Debug)]
pub struct Scalar<const GAUGE: bool> {
    name: &'static str,
    help: &'static str,
    v: AtomicU64,
}

/// A monotone count; its family name ends in `_total`.
pub type Counter = Scalar<false>;
/// An instantaneous level.
pub type Gauge = Scalar<true>;

impl<const GAUGE: bool> Scalar<GAUGE> {
    /// A value at zero for the family `name`.
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Scalar { name, help, v: AtomicU64::new(0) }
    }

    /// Adds `n` (one relaxed `fetch_add`).
    #[inline]
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }

    /// Writes the family and its one series.
    pub fn expose(&self, p: &mut PromText) {
        p.declare(self.name, self.help, if GAUGE { "gauge" } else { "counter" });
        p.sample(self.name, &[], self.get());
    }
}

impl Gauge {
    /// Overwrites the level.
    pub fn set(&self, v: u64) {
        self.v.store(v, Ordering::Relaxed);
    }

    /// Lowers the level by `n` (one relaxed `fetch_sub`), for a decrement
    /// that its own earlier [`Scalar::add`] always precedes.
    #[inline]
    pub fn sub(&self, n: u64) {
        self.v.fetch_sub(n, Ordering::Relaxed);
    }

    /// Lowers the level by `n`, clamping at zero: a decrement racing the
    /// increment it answers must never wrap the gauge to `u64::MAX`.
    /// Debug builds assert the race did not actually occur.
    pub fn sub_saturating(&self, n: u64) {
        let prev = self
            .v
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| Some(d.saturating_sub(n)))
            .expect("fetch_update closure always returns Some");
        debug_assert!(prev >= n, "`{}` underflow: {prev} - {n}", self.name);
    }
}

/// Declares a struct of metric values, `field: Kind("family")` with `Kind`
/// one of [`Counter`], [`Gauge`], [`crate::Histogram`] and the field's doc
/// comment as the family's help text, then — after a `;` — any plain
/// fields. Generates `new(plain fields…)` with every value at zero and
/// `expose_declared(&self, &mut PromText)`, which writes the declared
/// families in order: a new metric is one declaration here plus the code
/// that bumps it.
#[macro_export]
macro_rules! metrics {
    ($(#[$attr:meta])* $vis:vis struct $Set:ident {
        $($(#[doc = $help:literal])+ $mvis:vis $metric:ident: $Kind:ident($family:literal),)+
        $(; $($(#[$fattr:meta])* $fvis:vis $field:ident: $Ty:ty,)+)?
    }) => {
        $(#[$attr])*
        $vis struct $Set {
            $($(#[doc = $help])+ $mvis $metric: $crate::$Kind,)+
            $($($(#[$fattr])* $fvis $field: $Ty,)+)?
        }

        impl $Set {
            $vis fn new($($($field: $Ty),+)?) -> Self {
                $Set {
                    $($metric: $crate::$Kind::new($family, concat!($($help),+)),)+
                    $($($field,)+)?
                }
            }

            $vis fn expose_declared(&self, p: &mut $crate::export::PromText) {
                $(self.$metric.expose(p);)+
            }
        }
    };
}

/// Builder for one Prometheus text-exposition document.
///
/// # Panics
///
/// Declaring the same family twice panics — duplicate `HELP`/`TYPE`
/// blocks are a protocol violation the builder refuses to emit.
#[derive(Debug, Default)]
pub struct PromText {
    buf: String,
    seen: Vec<&'static str>,
}

impl PromText {
    /// An empty document.
    pub fn new() -> Self {
        Self::default()
    }

    fn declare(&mut self, name: &'static str, help: &str, kind: &str) {
        assert!(!self.seen.contains(&name), "duplicate metric family `{name}`");
        self.seen.push(name);
        // A help text taken from a doc comment starts with its blank.
        let _ = writeln!(self.buf, "# HELP {name} {}\n# TYPE {name} {kind}", help.trim());
    }

    /// One sample line — the only place a label value is written, so the
    /// only place one is escaped (`\`, `"` and newline, per the text
    /// format): a client-chosen key cannot close its quote and forge a
    /// value or a second label.
    fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: impl std::fmt::Display) {
        self.buf.push_str(name);
        let mut open = '{';
        for (key, v) in labels {
            let _ = write!(self.buf, "{open}{key}=\"");
            for c in v.chars() {
                match c {
                    '\\' => self.buf.push_str("\\\\"),
                    '"' => self.buf.push_str("\\\""),
                    '\n' => self.buf.push_str("\\n"),
                    c => self.buf.push(c),
                }
            }
            self.buf.push('"');
            open = ',';
        }
        if !labels.is_empty() {
            self.buf.push('}');
        }
        let _ = writeln!(self.buf, " {value}");
    }

    /// One gauge series, for a level computed at scrape time.
    pub fn gauge(&mut self, name: &'static str, help: &str, value: f64) {
        self.declare(name, help, "gauge");
        self.sample(name, &[], value);
    }

    /// A counter family with one series per `(label_value, value)` pair.
    pub fn counter_series(
        &mut self,
        name: &'static str,
        help: &str,
        label: &str,
        series: &[(String, u64)],
    ) {
        self.declare(name, help, "counter");
        for (lv, v) in series {
            self.sample(name, &[(label, lv)], v);
        }
    }

    /// A gauge family with one series per `(label_value, value)` pair.
    pub fn gauge_series(
        &mut self,
        name: &'static str,
        help: &str,
        label: &str,
        series: &[(String, f64)],
    ) {
        self.declare(name, help, "gauge");
        for (lv, v) in series {
            self.sample(name, &[(label, lv)], v);
        }
    }

    /// An info-style gauge carrying identity labels with value 1.
    pub fn info(&mut self, name: &'static str, help: &str, labels: &[(&str, &str)]) {
        self.declare(name, help, "gauge");
        self.sample(name, labels, 1);
    }

    /// A histogram family from a snapshot of **microsecond** samples,
    /// exported in seconds: coarsened cumulative `_bucket{le=...}` series
    /// plus `_sum` and `_count`.
    pub fn histogram_us(&mut self, name: &'static str, help: &str, snap: &HistSnapshot) {
        self.declare(name, help, "histogram");
        let bucket = format!("{name}_bucket");
        for (upper_us, cum) in snap.cumulative_octaves() {
            let le = ((upper_us + 1) as f64 / 1e6).to_string();
            self.sample(&bucket, &[("le", &le)], cum);
        }
        self.sample(&bucket, &[("le", "+Inf")], snap.count);
        self.sample(&format!("{name}_sum"), &[], snap.sum as f64 / 1e6);
        self.sample(&format!("{name}_count"), &[], snap.count);
    }

    /// The finished document.
    pub fn finish(self) -> String {
        self.buf
    }
}

/// Summary of a parsed exposition, for assertions in tests/CI.
#[derive(Debug, Default)]
pub struct ExpositionStats {
    /// Declared metric families.
    pub families: usize,
    /// Sample lines (non-comment).
    pub samples: usize,
    /// Parsed `name → value` for unlabeled samples.
    pub values: HashMap<String, f64>,
}

/// The document's `# TYPE` lines, sorted: its `(family, type)` set, which
/// the tests and CI hold equal to the committed `families.txt`.
pub fn type_lines(text: &str) -> Vec<&str> {
    let mut lines: Vec<&str> = text.lines().filter(|l| l.starts_with("# TYPE ")).collect();
    lines.sort_unstable();
    lines
}

/// One sample's `(label name, unescaped value)` pairs.
type Labels<'a> = Vec<(&'a str, String)>;

/// Splits one sample line into name, labels and value. A label value ends
/// at its first unescaped `"`, which `,` or `}` must follow.
fn parse_sample(line: &str) -> Result<(&str, Labels<'_>, f64), String> {
    let at = line.find(['{', ' ']).ok_or(format!("no value on `{line}`"))?;
    let (name, mut rest) = line.split_at(at);
    let mut labels = Vec::new();
    if let Some(mut body) = rest.strip_prefix('{') {
        while !body.starts_with('}') {
            let (key, quoted) = body.split_once("=\"").ok_or(format!("bad label `{body}`"))?;
            let mut value = String::new();
            let mut chars = quoted.char_indices();
            let close = loop {
                match chars.next().ok_or(format!("unterminated value of `{key}`"))? {
                    (i, '"') => break i,
                    (_, '\\') => value.push(match chars.next() {
                        Some((_, '\\')) => '\\',
                        Some((_, '"')) => '"',
                        Some((_, 'n')) => '\n',
                        _ => return Err(format!("unknown escape in value of `{key}`")),
                    }),
                    (_, c) => value.push(c),
                }
            };
            labels.push((key, value));
            body = &quoted[close + 1..];
            match body.strip_prefix(',') {
                Some(more) => body = more,
                None if body.starts_with('}') => {}
                None => return Err(format!("unescaped `\"` in value of `{key}`")),
            }
        }
        rest = &body[1..];
    }
    let value = rest.strip_prefix(' ').ok_or(format!("no value on `{line}`"))?;
    let value = value.parse().map_err(|_| format!("bad value `{value}`"))?;
    Ok((name, labels, value))
}

/// Parses a Prometheus text exposition, enforcing well-formedness: every
/// sample belongs to a declared family, `HELP`/`TYPE` appear exactly once
/// per family, sample lines parse as `name[{labels}] value` with quoted,
/// escaped label values, and histogram bucket counts are monotonically
/// non-decreasing in `le`.
///
/// # Errors
///
/// Returns a description of the first violation.
pub fn validate_exposition(text: &str) -> Result<ExpositionStats, String> {
    let mut stats = ExpositionStats::default();
    let mut declared: HashMap<String, String> = HashMap::new(); // family -> type
    let mut helped: Vec<String> = Vec::new();
    let mut last_bucket: HashMap<String, (f64, u64)> = HashMap::new();
    for (ln, line) in text.lines().enumerate() {
        let ln = ln + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().ok_or(format!("{ln}: empty HELP"))?;
            if helped.contains(&name.to_string()) {
                return Err(format!("{ln}: duplicate HELP for `{name}`"));
            }
            helped.push(name.to_string());
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().ok_or(format!("{ln}: empty TYPE"))?;
            let kind = it.next().ok_or(format!("{ln}: TYPE without kind"))?;
            if declared.contains_key(name) {
                return Err(format!("{ln}: duplicate TYPE for `{name}`"));
            }
            if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&kind) {
                return Err(format!("{ln}: unknown type `{kind}`"));
            }
            declared.insert(name.to_string(), kind.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue; // plain comment
        }
        let (name, labels, value) = parse_sample(line).map_err(|e| format!("{ln}: {e}"))?;
        if name.is_empty()
            || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("{ln}: bad metric name `{name}`"));
        }
        // A histogram family declares `x` but emits `x_bucket`/`x_sum`/`x_count`.
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suf| {
                name.strip_suffix(suf)
                    .filter(|base| declared.get(*base).map(String::as_str) == Some("histogram"))
            })
            .unwrap_or(name);
        if !declared.contains_key(family) {
            return Err(format!("{ln}: sample for undeclared family `{name}`"));
        }
        for (k, v) in &labels {
            if name.ends_with("_bucket") && *k == "le" && v != "+Inf" {
                let le: f64 = v.parse().map_err(|_| format!("{ln}: bad le `{v}`"))?;
                let entry =
                    last_bucket.entry(name.to_string()).or_insert((f64::NEG_INFINITY, 0));
                if le <= entry.0 {
                    return Err(format!("{ln}: le not increasing on `{name}`"));
                }
                if (value as u64) < entry.1 {
                    return Err(format!("{ln}: bucket count decreased on `{name}`"));
                }
                *entry = (le, value as u64);
            }
        }
        if labels.is_empty() {
            stats.values.insert(name.to_string(), value);
        }
        stats.samples += 1;
    }
    for name in declared.keys() {
        if !helped.contains(name) {
            return Err(format!("TYPE without HELP for `{name}`"));
        }
    }
    stats.families = declared.len();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;

    #[test]
    fn builder_output_validates() {
        let h = Histogram::new("slade_latency_seconds", "End-to-end latency.");
        for v in [100u64, 2_000, 2_000, 50_000] {
            h.record(v);
        }
        let requests = Counter::new("slade_requests_total", "Requests accepted.");
        requests.add(42);
        let depth = Gauge::new("slade_queue_depth", "Waiting requests.");
        depth.add(5);
        depth.sub(2);
        let mut p = PromText::new();
        requests.expose(&mut p);
        depth.expose(&mut p);
        p.gauge_series(
            "slade_shard_lanes",
            "Live lanes per shard.",
            "shard",
            &[("0".into(), 4.0), ("1".into(), 2.0)],
        );
        p.info("slade_build_info", "Serving configuration.", &[("isa", "avx2"), ("b", "f32")]);
        h.expose(&mut p);
        let text = p.finish();
        let stats = validate_exposition(&text).expect("well-formed");
        assert_eq!(stats.families, 5);
        assert_eq!(stats.values["slade_requests_total"], 42.0);
        assert_eq!(stats.values["slade_queue_depth"], 3.0);
        assert!(text.contains("slade_build_info{isa=\"avx2\",b=\"f32\"} 1\n"));
        assert!(text.contains("slade_latency_seconds_count 4"));
        assert_eq!(type_lines(&text)[0], "# TYPE slade_build_info gauge");
    }

    #[test]
    #[should_panic(expected = "duplicate metric family")]
    fn duplicate_family_panics() {
        let mut p = PromText::new();
        p.gauge("x", "x", 1.0);
        p.gauge("x", "x", 2.0);
    }

    #[test]
    fn validator_rejects_malformed() {
        assert!(validate_exposition("no_decl 1\n").is_err());
        assert!(
            validate_exposition("# HELP a a\n# TYPE a gauge\n# TYPE a gauge\na 1\n").is_err()
        );
        assert!(validate_exposition("# HELP a a\n# TYPE a gauge\na not_a_number\n").is_err());
        let dup_help = "# HELP a a\n# HELP a a\n# TYPE a gauge\na 1\n";
        assert!(validate_exposition(dup_help).is_err());
        // Two hostile client keys written without escaping, an unknown
        // escape, a value that never closes, a value without quotes.
        for sample in [
            "a{client=\"evil\"} 9\"} 2",
            "a{client=\"x\"y\"} 2",
            "a{client=\"\\q\"} 2",
            "a{client=\"open} 2",
            "a{client=unquoted} 2",
        ] {
            let text = format!("# HELP a a\n# TYPE a counter\n{sample}\n");
            assert!(validate_exposition(&text).is_err(), "accepted `{sample}`");
        }
    }

    /// Label values from outside the process (`x-slade-client`,
    /// `SLADE_KERNEL_ISA`) stay inside their quotes: one sample, one
    /// label, and the parser reads the original value back.
    #[test]
    fn hostile_label_values_are_escaped() {
        let keys = ["evil\"} 9", "a\",le=\"1", "back\\slash\nnewline"];
        let rows: Vec<(String, u64)> = keys.iter().map(|k| (k.to_string(), 2)).collect();
        let mut p = PromText::new();
        p.counter_series("slade_shed_client_total", "Sheds per client.", "client", &rows);
        p.info("slade_info", "Configuration.", &[("kernel_isa_status", keys[0])]);
        let text = p.finish();
        assert!(text.contains("slade_shed_client_total{client=\"evil\\\"} 9\"} 2\n"), "{text}");
        let stats = validate_exposition(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!((stats.families, stats.samples), (2, 4));
        for (key, line) in keys.iter().zip(text.lines().filter(|l| l.starts_with("slade_shed")))
        {
            let (_, labels, value) = parse_sample(line).expect("parses");
            assert_eq!(labels, vec![("client", key.to_string())]);
            assert_eq!(value, 2.0);
        }
    }
}
