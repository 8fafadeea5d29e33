//! Normalized-assembly result cache.
//!
//! Serving traffic over binary corpora is duplicate-heavy: corpus-scale
//! re-evaluation re-decompiles identical functions, and self-constructed-
//! context pipelines re-query the same function many times. Decode output
//! is a pure function of (normalized assembly, model target, beam
//! configuration), so completed results are cached under a key derived
//! from exactly the string the tokenizer consumed.
//!
//! The key carries a stable 64-bit FNV-1a hash of the normalized assembly
//! plus the ISA / optimization level / beam width / decode budget, so the
//! same bytes decompiled under two model configurations can never collide;
//! entries additionally store the full normalized text and verify it on
//! probe, so even a hash collision degrades to a miss, never to a wrong
//! answer. Eviction is least-recently-used at a fixed capacity, with
//! hit / miss / insertion / eviction accounting.

use crate::spill::{SpillProbe, SpillTier};
use serde::Serialize;
use slade_compiler::{Isa, OptLevel};
use slade_obs::export::PromText;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Mutex;

/// Stable 64-bit FNV-1a — the cache's content hash (independent of the
/// process-seeded `std` hasher, so keys are comparable across runs).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Cache key: content hash of the normalized assembly plus every decode
/// knob that changes the output. Two keys with equal hashes but different
/// configuration never compare equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// FNV-1a of the [`slade::normalize_asm`] output fed to the tokenizer.
    pub asm_hash: u64,
    /// Target ISA of the serving model.
    pub isa: Isa,
    /// Optimization level of the serving model.
    pub opt: OptLevel,
    /// Beam width the result was decoded with.
    pub beam: usize,
    /// Decode budget (max hypothesis tokens).
    pub max_tgt_len: usize,
}

impl CacheKey {
    /// Derives the key for one normalized-assembly input under one
    /// serving configuration.
    pub fn new(
        normalized_asm: &str,
        isa: Isa,
        opt: OptLevel,
        beam: usize,
        max_tgt_len: usize,
    ) -> Self {
        CacheKey { asm_hash: fnv1a64(normalized_asm.as_bytes()), isa, opt, beam, max_tgt_len }
    }
}

#[derive(Debug)]
struct CacheEntry {
    /// Full normalized text, verified on probe so a hash collision can
    /// never return another function's hypotheses.
    norm_asm: String,
    outputs: Vec<String>,
    last_used: u64,
}

#[derive(Debug, Default)]
struct CacheInner {
    map: HashMap<CacheKey, CacheEntry>,
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

    /// A cache backed by a disk-spill tier under `dir` holding at most
    /// `spill_capacity` entries (`0` = unbounded). Works with
    /// `capacity == 0` too: every probe then goes straight to disk.
    pub fn with_spill(capacity: usize, dir: PathBuf, spill_capacity: usize) -> Self {
        Self::build(capacity, Some(SpillTier::new(dir, spill_capacity)))
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
    /// the memory LRU. Verifies the stored normalized text against
    /// `normalized_asm` at both tiers; counts a hit or a miss either way.
    pub fn get(&self, key: &CacheKey, normalized_asm: &str) -> Option<Vec<String>> {
        if self.capacity > 0 {
            let mut inner = self.inner.lock().expect("cache lock");
            inner.clock += 1;
            let clock = inner.clock;
            if let Some(entry) = inner.map.get_mut(key) {
                if entry.norm_asm == normalized_asm {
                    entry.last_used = clock;
                    self.n.hits.add(1);
                    return Some(entry.outputs.clone());
                }
            }
        }
        if let Some(spill) = &self.spill {
            match spill.probe(key, normalized_asm) {
                SpillProbe::Hit(outputs) => {
                    self.n.hits.add(1);
                    self.n.spill_hits.add(1);
                    self.insert_memory(*key, normalized_asm, outputs.clone());
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
    pub fn insert(&self, key: CacheKey, normalized_asm: &str, outputs: Vec<String>) {
        if let Some(spill) = &self.spill {
            if let Ok(evicted) = spill.store(&key, normalized_asm, &outputs) {
                self.n.spill_writes.add(1);
                self.n.spill_evictions.add(evicted as u64);
            }
        }
        self.insert_memory(key, normalized_asm, outputs);
    }

    /// Memory-tier insert with LRU eviction (spill promotion uses this
    /// directly so a disk hit is not immediately re-written to disk).
    fn insert_memory(&self, key: CacheKey, normalized_asm: &str, outputs: Vec<String>) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock().expect("cache lock");
        inner.clock += 1;
        let clock = inner.clock;
        if !inner.map.contains_key(&key) && inner.map.len() >= self.capacity {
            if let Some(lru) =
                inner.map.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| *k)
            {
                inner.map.remove(&lru);
                self.n.evictions.add(1);
            }
        }
        inner.map.insert(
            key,
            CacheEntry { norm_asm: normalized_asm.to_string(), outputs, last_used: clock },
        );
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
    fn distinct_configs_never_collide() {
        // Same normalized assembly under every config combination: all
        // keys must be distinct (satellite: ISA/opt/beam configs never
        // collide).
        let mut keys = Vec::new();
        for isa in [Isa::X86_64, Isa::Arm64] {
            for opt in [OptLevel::O0, OptLevel::O3] {
                for beam in [1usize, 5] {
                    for max_tgt in [64usize, 128] {
                        keys.push(CacheKey::new(ASM, isa, opt, beam, max_tgt));
                    }
                }
            }
        }
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b, "config collision: {a:?}");
            }
            assert_eq!(a.asm_hash, keys[0].asm_hash, "same text, same content hash");
        }
        let cache = ResultCache::new(64);
        cache.insert(keys[0], ASM, vec!["int f(int a) { return a; }".into()]);
        assert!(cache.get(&keys[0], ASM).is_some());
        for k in &keys[1..] {
            assert!(cache.get(k, ASM).is_none(), "cross-config hit: {k:?}");
        }
    }

    #[test]
    fn hash_collision_degrades_to_miss_not_wrong_answer() {
        let cache = ResultCache::new(4);
        let key = CacheKey::new(ASM, Isa::X86_64, OptLevel::O0, 5, 64);
        cache.insert(key, ASM, vec!["right".into()]);
        // A forged probe with the same key but different text (what a
        // 64-bit collision would look like) must miss.
        assert_eq!(cache.get(&key, "g:\nret\n"), None);
        assert_eq!(cache.get(&key, ASM), Some(vec!["right".to_string()]));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn lru_eviction_and_accounting() {
        let cache = ResultCache::new(2);
        let k = |i: usize| {
            CacheKey::new(&format!("f{i}:\nret\n"), Isa::X86_64, OptLevel::O0, 5, 64)
        };
        cache.insert(k(0), "f0:\nret\n", vec!["a".into()]);
        cache.insert(k(1), "f1:\nret\n", vec!["b".into()]);
        // Touch 0 so 1 is the LRU victim.
        assert!(cache.get(&k(0), "f0:\nret\n").is_some());
        cache.insert(k(2), "f2:\nret\n", vec!["c".into()]);
        assert!(cache.get(&k(1), "f1:\nret\n").is_none(), "LRU entry must be evicted");
        assert!(cache.get(&k(0), "f0:\nret\n").is_some());
        assert!(cache.get(&k(2), "f2:\nret\n").is_some());
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
        let key = CacheKey::new(ASM, Isa::X86_64, OptLevel::O0, 5, 64);
        cache.insert(key, ASM, vec!["x".into()]);
        assert_eq!(cache.get(&key, ASM), None);
        assert_eq!(cache.stats().entries, 0);
    }
}
