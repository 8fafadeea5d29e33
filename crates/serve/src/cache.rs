//! Normalized-assembly result cache.
//!
//! Serving traffic over binary corpora is duplicate-heavy: corpus-scale
//! re-evaluation re-decompiles identical functions, and self-constructed-
//! context pipelines re-query the same function many times. Decode output
//! is a pure function of (normalized assembly, model target, beam
//! configuration), and a runtime serves one model at one configuration,
//! so inside it a request is named by exactly the string the tokenizer
//! consumed: the memory tier is a map from that text to its hypotheses.
//! Eviction is least-recently-used at a fixed capacity, with hit / miss /
//! insertion / eviction accounting.
//!
//! Behind the memory tier sits an optional [`SpillTier`], built for the
//! runtime's configuration; it is the one place an entry is named by
//! hash (see [`crate::spill`]).

use crate::spill::{SpillProbe, SpillTier};
use serde::Serialize;
use slade_obs::export::PromText;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

#[derive(Debug)]
struct CacheEntry {
    outputs: Vec<String>,
    last_used: u64,
}

#[derive(Debug, Default)]
struct CacheInner {
    map: HashMap<Arc<str>, CacheEntry>,
    clock: u64,
}

/// Counter snapshot of one [`ResultCache`].
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct CacheStats {
    /// Probes answered from the cache.
    pub hits: u64,
    /// Probes that fell through to decode.
    pub misses: u64,
    /// Results stored.
    pub insertions: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
    /// Entries resident right now.
    pub entries: usize,
    /// Configured capacity (0 = disabled).
    pub capacity: usize,
    /// Probes answered from the disk-spill tier (also counted in
    /// `hits` — `hits` is the cache layer's total).
    pub spill_hits: u64,
    /// Entries persisted to the spill tier.
    pub spill_writes: u64,
    /// Spill files that failed integrity checks on load (truncated,
    /// corrupt, or version-stamp mismatch); each loaded as a miss.
    pub spill_load_errors: u64,
    /// Spill entries evicted by capacity pressure (mtime-LRU).
    pub spill_evictions: u64,
    /// Spill entries resident on disk right now (0 when no spill tier).
    pub spill_entries: usize,
}

impl CacheStats {
    /// Hits over probes, 0.0 when never probed.
    pub fn hit_rate(&self) -> f64 {
        let probes = self.hits + self.misses;
        if probes == 0 {
            0.0
        } else {
            self.hits as f64 / probes as f64
        }
    }
}

slade_obs::metrics! {
    /// [`ResultCache`]'s event counters.
    #[derive(Debug)]
    struct CacheCounters {
        /// Result-cache hits.
        hits: Counter("slade_cache_hits_total"),
        /// Result-cache misses.
        misses: Counter("slade_cache_misses_total"),
        /// Result-cache insertions.
        insertions: Counter("slade_cache_insertions_total"),
        /// Result-cache evictions.
        evictions: Counter("slade_cache_evictions_total"),
        /// Disk-spill tier hits.
        spill_hits: Counter("slade_spill_hits_total"),
        /// Entries written to the spill tier.
        spill_writes: Counter("slade_spill_writes_total"),
        /// Spill entries that failed integrity checks on load.
        spill_load_errors: Counter("slade_spill_load_errors_total"),
        /// Spill entries evicted by capacity.
        spill_evictions: Counter("slade_spill_evictions_total"),
    }
}

/// Thread-safe LRU result cache with an optional disk-spill tier (see
/// module docs and [`crate::spill`]).
#[derive(Debug)]
pub struct ResultCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
    spill: Option<SpillTier>,
    n: CacheCounters,
}

impl ResultCache {
    /// A memory-only cache holding at most `capacity` results; `0`
    /// disables it (every probe misses, inserts are dropped).
    pub fn new(capacity: usize) -> Self {
        Self::build(capacity, None)
    }

    /// A cache backed by the disk-spill tier `spill`. Works with
    /// `capacity == 0` too: every probe then goes straight to disk.
    pub fn with_spill(capacity: usize, spill: SpillTier) -> Self {
        Self::build(capacity, Some(spill))
    }

    fn build(capacity: usize, spill: Option<SpillTier>) -> Self {
        let inner = Mutex::new(CacheInner::default());
        ResultCache { capacity, inner, spill, n: CacheCounters::new() }
    }

    /// True when the cache can answer anything (memory or disk tier).
    pub fn enabled(&self) -> bool {
        self.capacity > 0 || self.spill.is_some()
    }

    /// Probes memory, then the spill tier; a spill hit is promoted into
    /// the memory LRU. Counts a hit or a miss either way.
    pub fn get(&self, normalized_asm: &str) -> Option<Vec<String>> {
        if self.capacity > 0 {
            let mut inner = self.inner.lock().expect("cache lock");
            inner.clock += 1;
            let clock = inner.clock;
            if let Some(entry) = inner.map.get_mut(normalized_asm) {
                entry.last_used = clock;
                self.n.hits.add(1);
                return Some(entry.outputs.clone());
            }
        }
        if let Some(spill) = &self.spill {
            match spill.probe(normalized_asm) {
                SpillProbe::Hit(outputs) => {
                    self.n.hits.add(1);
                    self.n.spill_hits.add(1);
                    self.insert_memory(normalized_asm.into(), outputs.clone());
                    return Some(outputs);
                }
                SpillProbe::Corrupt => {
                    self.n.spill_load_errors.add(1);
                }
                SpillProbe::Miss => {}
            }
        }
        self.n.misses.add(1);
        None
    }

    /// Stores a result in the memory LRU and the spill tier (when
    /// configured). No-op when fully disabled.
    pub fn insert(&self, normalized_asm: Arc<str>, outputs: Vec<String>) {
        if let Some(spill) = &self.spill {
            if let Ok(evicted) = spill.store(&normalized_asm, &outputs) {
                self.n.spill_writes.add(1);
                self.n.spill_evictions.add(evicted as u64);
            }
        }
        self.insert_memory(normalized_asm, outputs);
    }

    /// Memory-tier insert with LRU eviction (spill promotion uses this
    /// directly so a disk hit is not immediately re-written to disk).
    fn insert_memory(&self, normalized_asm: Arc<str>, outputs: Vec<String>) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock().expect("cache lock");
        inner.clock += 1;
        let clock = inner.clock;
        if !inner.map.contains_key(&normalized_asm) && inner.map.len() >= self.capacity {
            if let Some(lru) =
                inner.map.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| Arc::clone(k))
            {
                inner.map.remove(&lru);
                self.n.evictions.add(1);
            }
        }
        inner.map.insert(normalized_asm, CacheEntry { outputs, last_used: clock });
        self.n.insertions.add(1);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.n.hits.get(),
            misses: self.n.misses.get(),
            insertions: self.n.insertions.get(),
            evictions: self.n.evictions.get(),
            entries: self.inner.lock().expect("cache lock").map.len(),
            capacity: self.capacity,
            spill_hits: self.n.spill_hits.get(),
            spill_writes: self.n.spill_writes.get(),
            spill_load_errors: self.n.spill_load_errors.get(),
            spill_evictions: self.n.spill_evictions.get(),
            spill_entries: self.spill.as_ref().map_or(0, SpillTier::entries),
        }
    }

    /// Writes the cache and spill families into the scrape.
    pub fn expose(&self, p: &mut PromText) {
        self.n.expose_declared(p);
        let stats = self.stats();
        p.gauge("slade_cache_entries", "Result-cache resident entries.", stats.entries as f64);
        p.gauge(
            "slade_spill_entries",
            "Spill-tier resident entries.",
            stats.spill_entries as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ASM: &str = "f:\nmovl %edi, %eax\nret\n";

    #[test]
    fn lru_eviction_and_accounting() {
        let cache = ResultCache::new(2);
        let k = |i: usize| -> Arc<str> { format!("f{i}:\nret\n").into() };
        cache.insert(k(0), vec!["a".into()]);
        cache.insert(k(1), vec!["b".into()]);
        // Touch 0 so 1 is the LRU victim.
        assert!(cache.get(&k(0)).is_some());
        cache.insert(k(2), vec!["c".into()]);
        assert!(cache.get(&k(1)).is_none(), "LRU entry must be evicted");
        assert!(cache.get(&k(0)).is_some());
        assert!(cache.get(&k(2)).is_some());
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.insertions, 3);
        assert_eq!(stats.entries, 2);
        assert!(stats.hit_rate() > 0.0);
    }

    #[test]
    fn disabled_cache_is_inert() {
        let cache = ResultCache::new(0);
        assert!(!cache.enabled());
        cache.insert(ASM.into(), vec!["x".into()]);
        assert_eq!(cache.get(ASM), None);
        assert_eq!(cache.stats().entries, 0);
    }
}
