//! Gateway-side metrics: wire/edge counters the serving runtime cannot
//! see (connections, HTTP statuses, parse rejects, sheds at the edge),
//! each a `slade_obs` value carrying its `slade_gateway_*` family, which
//! [`GwMetrics::expose`] writes into the scrape's document after the
//! runtime's ([`slade_serve::ServeRuntime::expose`]).
//!
//! The edge extends the admission tier's conservation invariant
//! (DESIGN.md §13): every decompile submission that passes parsing and
//! validation is counted in `decompile_offered`, and
//!
//! ```text
//! decompile_offered == quota_shed + runtime.submitted
//! ```
//!
//! when the gateway is the runtime's only client — quota sheds never
//! reach `try_submit`, everything else lands in exactly one runtime
//! terminal state (`shed`/`expired`/`coalesced`/`decoded`/`hits`). An
//! `expired` request is answered `504`, or `503` counted in
//! `drain_aborts` while draining: the edge keeps no deadline count of
//! its own.

use crate::quota::QuotaTable;
use serde::Serialize;
use slade_obs::export::PromText;
use std::sync::atomic::{AtomicU64, Ordering};

/// Status codes the gateway emits, each with its own counter slot (an
/// unexpected code lands in the `other` slot rather than being lost).
pub(crate) const STATUS_CODES: [u16; 15] =
    [200, 400, 404, 405, 408, 409, 411, 413, 429, 431, 500, 501, 503, 504, 505];

slade_obs::metrics! {
    /// Shared mutable gateway metrics (one per gateway).
    #[derive(Debug)]
    pub(crate) struct GwMetrics {
        /// TCP connections accepted by the gateway listener.
        pub connections: Counter("slade_gateway_connections_total"),
        /// Connections currently open.
        pub connections_active: Gauge("slade_gateway_connections_active"),
        /// Connections refused at the connection-queue backlog cap.
        pub backlog_shed: Counter("slade_gateway_backlog_shed_total"),
        /// Requests rejected by the HTTP parser (malformed, oversized, timed out).
        pub parse_rejects: Counter("slade_gateway_parse_rejects_total"),
        /// Decompile submissions that passed parsing and validation.
        pub decompile_offered: Counter("slade_gateway_decompile_offered_total"),
        /// Decompile submissions answered 429 by the runtime queue cap.
        pub overload_shed: Counter("slade_gateway_overload_shed_total"),
        /// Responses streamed with chunked transfer-encoding.
        pub streamed: Counter("slade_gateway_streams_total"),
        /// Deliveries expired and answered 503 while draining.
        pub drain_aborts: Counter("slade_gateway_drain_aborts_total"),
        /// Admitted requests parked until their decode (or deadline) answers them.
        pub pending_deliveries: Gauge("slade_gateway_pending_deliveries"),
        /// 1 while the gateway is draining for shutdown.
        pub draining: Gauge("slade_gateway_draining"),
        ;
        /// Responses by status code, slots matching [`STATUS_CODES`].
        status: [AtomicU64; STATUS_CODES.len()],
        /// Responses with a status outside [`STATUS_CODES`].
        status_other: AtomicU64,
    }
}

impl GwMetrics {
    /// Counts one response with `code`.
    pub fn bump_status(&self, code: u16) {
        match STATUS_CODES.iter().position(|&c| c == code) {
            Some(i) => self.status[i].fetch_add(1, Ordering::Relaxed),
            None => self.status_other.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// Non-zero status slots, and the count outside [`STATUS_CODES`].
    fn by_status(&self) -> (Vec<StatusCount>, u64) {
        let known = STATUS_CODES
            .iter()
            .zip(&self.status)
            .map(|(&code, slot)| StatusCount { code, count: slot.load(Ordering::Relaxed) })
            .filter(|s| s.count > 0)
            .collect();
        (known, self.status_other.load(Ordering::Relaxed))
    }

    /// Point-in-time snapshot; the quota table supplies its own counts.
    pub fn snapshot(&self, quota: &QuotaTable) -> GatewaySnapshot {
        let (by_status, other) = self.by_status();
        GatewaySnapshot {
            connections: self.connections.get(),
            connections_active: self.connections_active.get() as usize,
            backlog_shed: self.backlog_shed.get(),
            parse_rejects: self.parse_rejects.get(),
            requests: by_status.iter().map(|s| s.count).sum::<u64>() + other,
            by_status,
            decompile_offered: self.decompile_offered.get(),
            quota_shed: quota.shed_total(),
            quota_clients: quota.per_client(),
            overload_shed: self.overload_shed.get(),
            streamed: self.streamed.get(),
            drain_aborts: self.drain_aborts.get(),
            pending_deliveries: self.pending_deliveries.get() as usize,
            draining: self.draining.get() != 0,
        }
    }

    /// Writes the edge families into the scrape (the quota table writes
    /// its two itself).
    pub fn expose(&self, p: &mut PromText) {
        self.expose_declared(p);
        let (known, other) = self.by_status();
        let mut rows: Vec<(String, u64)> =
            known.iter().map(|s| (s.code.to_string(), s.count)).collect();
        if other > 0 {
            rows.push(("other".to_string(), other));
        }
        p.counter_series(
            "slade_gateway_requests_total",
            "HTTP responses by status code.",
            "code",
            &rows,
        );
    }
}

/// One status-code slice of [`GatewaySnapshot::by_status`].
#[derive(Debug, Clone, Serialize)]
pub struct StatusCount {
    /// HTTP status code.
    pub code: u16,
    /// Responses with that code.
    pub count: u64,
}

/// One client's quota accounting.
#[derive(Debug, Clone, Serialize)]
pub struct ClientQuota {
    /// Client key (`x-slade-client` header value or peer IP).
    pub client: String,
    /// Submissions admitted through the bucket.
    pub admitted: u64,
    /// Submissions shed by the bucket.
    pub shed: u64,
}

/// Point-in-time view of the gateway edge.
#[derive(Debug, Clone, Serialize)]
pub struct GatewaySnapshot {
    /// Connections accepted so far.
    pub connections: u64,
    /// Connections open right now.
    pub connections_active: usize,
    /// Connections refused at the backlog cap.
    pub backlog_shed: u64,
    /// Requests rejected by the HTTP parser.
    pub parse_rejects: u64,
    /// Total HTTP responses written.
    pub requests: u64,
    /// Responses by status code (non-zero slots only).
    pub by_status: Vec<StatusCount>,
    /// Decompile submissions that passed parsing and validation.
    pub decompile_offered: u64,
    /// Submissions shed by per-client quotas (never reached the runtime).
    pub quota_shed: u64,
    /// Per-client quota accounting.
    pub quota_clients: Vec<ClientQuota>,
    /// Submissions answered 429 by the runtime's global queue cap.
    pub overload_shed: u64,
    /// Responses streamed with chunked transfer-encoding.
    pub streamed: u64,
    /// Deliveries expired and answered 503 while draining.
    pub drain_aborts: u64,
    /// Admitted requests parked until their decode (or deadline) answers them.
    pub pending_deliveries: usize,
    /// Whether shutdown drain is in progress.
    pub draining: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quota::QuotaConfig;
    use slade_obs::export::{type_lines, validate_exposition};

    #[test]
    fn exposition_fragment_validates_and_counts() {
        let m = GwMetrics::new(Default::default(), Default::default());
        m.connections.add(3);
        m.bump_status(200);
        m.bump_status(200);
        m.bump_status(429);
        m.bump_status(777); // unexpected code → "other"
        let quota = QuotaTable::new(QuotaConfig { rps: 0.001, burst: 5.0 });
        for _ in 0..7 {
            quota.check("a"); // 5 admitted, 2 shed
        }
        quota.check("b");
        let mut p = PromText::new();
        m.expose(&mut p);
        quota.expose(&mut p);
        let text = p.finish();
        validate_exposition(&text).expect("valid fragment");
        // Exactly the gateway's part of the committed family list.
        let want: Vec<&str> = include_str!("../../obs/families.txt")
            .lines()
            .filter(|l| l.contains(" slade_gateway_"))
            .collect();
        assert_eq!(type_lines(&text), want);
        assert!(text.contains("slade_gateway_requests_total{code=\"200\"} 2"));
        assert!(text.contains("slade_gateway_requests_total{code=\"other\"} 1"));
        assert!(text.contains("slade_gateway_quota_shed_client_total{client=\"a\"} 2"));
        assert!(!text.contains("client=\"b\""), "zero-shed clients are not exported");
        let snap = m.snapshot(&quota);
        assert_eq!(snap.requests, 4);
        assert_eq!(snap.by_status.iter().map(|s| s.count).sum::<u64>(), 3);
        assert_eq!((snap.quota_shed, snap.quota_clients.len()), (2, 2));
    }
}
