//! Per-client token-bucket quotas, layered **on top of** the runtime's
//! global `queue_cap`: the queue cap protects the process, the buckets
//! protect clients from each other. A client is identified by its
//! `x-slade-client` header when present, else by peer IP; each key gets
//! an independent bucket of `burst` tokens refilled at `rps` tokens per
//! second, and a submission with no token available is shed with `429`
//! *before* it ever reaches [`slade_serve::ServeRuntime::try_submit`] —
//! so quota sheds and global sheds stay separately attributable in the
//! conservation accounting (DESIGN.md §13).

use crate::ClientQuota;
use slade_obs::{export::PromText, Counter};
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

/// Quota configuration; `rps <= 0` disables quotas entirely.
#[derive(Debug, Clone, Copy)]
pub struct QuotaConfig {
    /// Steady-state refill rate, tokens (requests) per second per client.
    pub rps: f64,
    /// Bucket capacity: the burst a previously idle client may spend at
    /// once. Clamped to at least 1 token when quotas are enabled.
    pub burst: f64,
}

impl Default for QuotaConfig {
    fn default() -> Self {
        QuotaConfig { rps: 0.0, burst: 8.0 }
    }
}

/// One client's bucket plus its shed/admit accounting.
#[derive(Debug)]
struct Bucket {
    tokens: f64,
    refilled: Instant,
    admitted: u64,
    shed: u64,
}

/// Admission decision for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuotaDecision {
    /// A token was available (or quotas are disabled).
    Admit,
    /// The client's bucket is empty — shed with `429`.
    Shed,
}

/// Clients beyond [`QuotaTable::MAX_CLIENTS`] share one overflow bucket
/// so a key-spoofing flood cannot grow the table without bound.
const OVERFLOW_KEY: &str = "_overflow";

/// The per-client bucket table.
#[derive(Debug)]
pub struct QuotaTable {
    cfg: QuotaConfig,
    buckets: Mutex<HashMap<String, Bucket>>,
    shed_total: Counter,
}

impl QuotaTable {
    /// Distinct client keys tracked before new keys collapse into the
    /// shared overflow bucket.
    pub const MAX_CLIENTS: usize = 4096;

    /// A table for `cfg` (no buckets until clients arrive).
    pub fn new(cfg: QuotaConfig) -> Self {
        QuotaTable {
            cfg,
            buckets: Mutex::new(HashMap::new()),
            shed_total: Counter::new(
                "slade_gateway_quota_shed_total",
                "Decompile submissions shed by per-client token buckets.",
            ),
        }
    }

    /// Whether quotas are enforced at all.
    pub fn enabled(&self) -> bool {
        self.cfg.rps > 0.0
    }

    /// Spends one token from `client`'s bucket, refilling by elapsed
    /// time first. Never blocks: an empty bucket sheds immediately.
    pub fn check(&self, client: &str) -> QuotaDecision {
        if !self.enabled() {
            return QuotaDecision::Admit;
        }
        let burst = self.cfg.burst.max(1.0);
        let now = Instant::now();
        let mut buckets = self.buckets.lock().expect("quota lock");
        let key = if buckets.contains_key(client) || buckets.len() < Self::MAX_CLIENTS {
            client
        } else {
            OVERFLOW_KEY
        };
        let bucket = buckets.entry(key.to_string()).or_insert(Bucket {
            tokens: burst,
            refilled: now,
            admitted: 0,
            shed: 0,
        });
        let elapsed = now.saturating_duration_since(bucket.refilled).as_secs_f64();
        bucket.tokens = (bucket.tokens + elapsed * self.cfg.rps).min(burst);
        bucket.refilled = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            bucket.admitted += 1;
            QuotaDecision::Admit
        } else {
            bucket.shed += 1;
            self.shed_total.add(1);
            QuotaDecision::Shed
        }
    }

    /// Total submissions shed by quota, across all clients.
    pub fn shed_total(&self) -> u64 {
        self.shed_total.get()
    }

    /// Per-client counters, sorted by key for a deterministic exposition.
    pub fn per_client(&self) -> Vec<ClientQuota> {
        let buckets = self.buckets.lock().expect("quota lock");
        let mut rows: Vec<ClientQuota> = buckets
            .iter()
            .map(|(k, b)| ClientQuota { client: k.clone(), admitted: b.admitted, shed: b.shed })
            .collect();
        rows.sort_by(|a, b| a.client.cmp(&b.client));
        rows
    }

    /// Writes the shed total and, once any client has been shed, the
    /// per-client family. Its cardinality is bounded: only clients that
    /// were actually shed, capped at 64 series (heaviest first).
    pub fn expose(&self, p: &mut PromText) {
        self.shed_total.expose(p);
        let buckets = self.buckets.lock().expect("quota lock");
        let mut shed: Vec<(String, u64)> = buckets
            .iter()
            .filter(|(_, b)| b.shed > 0)
            .map(|(k, b)| (k.clone(), b.shed))
            .collect();
        drop(buckets);
        shed.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        shed.truncate(64);
        if !shed.is_empty() {
            p.counter_series(
                "slade_gateway_quota_shed_client_total",
                "Quota sheds per client (top 64 clients by shed count).",
                "client",
                &shed,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_quota_always_admits() {
        let q = QuotaTable::new(QuotaConfig::default());
        for _ in 0..1000 {
            assert_eq!(q.check("anyone"), QuotaDecision::Admit);
        }
        assert_eq!(q.shed_total(), 0);
    }

    #[test]
    fn burst_then_shed_is_per_client() {
        let q = QuotaTable::new(QuotaConfig { rps: 0.001, burst: 3.0 });
        for _ in 0..3 {
            assert_eq!(q.check("a"), QuotaDecision::Admit);
        }
        // Bucket empty, refill negligible at 0.001 rps.
        assert_eq!(q.check("a"), QuotaDecision::Shed);
        assert_eq!(q.check("a"), QuotaDecision::Shed);
        // An unrelated client still has its full burst.
        assert_eq!(q.check("b"), QuotaDecision::Admit);
        assert_eq!(q.shed_total(), 2);
        let rows: Vec<_> =
            q.per_client().into_iter().map(|c| (c.client, c.admitted, c.shed)).collect();
        assert_eq!(rows, vec![("a".to_string(), 3, 2), ("b".to_string(), 1, 0)]);
    }

    #[test]
    fn refill_restores_tokens() {
        let q = QuotaTable::new(QuotaConfig { rps: 1000.0, burst: 1.0 });
        assert_eq!(q.check("c"), QuotaDecision::Admit);
        // At 1000 tokens/sec a few ms restores the single-token bucket.
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert_eq!(q.check("c"), QuotaDecision::Admit);
    }

    #[test]
    fn table_growth_is_bounded() {
        let q = QuotaTable::new(QuotaConfig { rps: 0.001, burst: 1.0 });
        for i in 0..(QuotaTable::MAX_CLIENTS + 50) {
            q.check(&format!("client-{i}"));
        }
        let rows = q.per_client();
        // MAX_CLIENTS distinct buckets plus the shared overflow bucket.
        assert_eq!(rows.len(), QuotaTable::MAX_CLIENTS + 1);
        assert!(rows.iter().any(|c| c.client == "_overflow"));
    }
}
