//! Disk-spill tier for the result cache.
//!
//! The in-memory LRU answers duplicate traffic within one process
//! lifetime; this tier persists the same entries under a configurable
//! directory so restarts and sibling processes start warm (the gap
//! between `serve.hit_us` and a decode in `BENCHMARK.json` otherwise
//! evaporates on every restart). One entry per file, so a probe is a
//! single deterministic `read` — no index to rebuild, and entries written
//! by *other* processes sharing the directory are visible immediately.
//!
//! # Entry names
//!
//! Inside a runtime a request is its normalized text: the decode
//! configuration is the runtime's, so the memory tier and the coalescing
//! table key by the text alone. A directory, though, can be shared by
//! runtimes serving different configurations, so this tier — the only
//! code that names an entry by hash — is built with its runtime's
//! `(isa, opt, beam, max_tgt_len)` and names each file by a stable FNV-1a
//! hash of the text's hash plus those fields: the same text under two
//! configurations lands in two files.
//!
//! # File format (version-stamped, corruption-tolerant)
//!
//! ```text
//! SLADESPILL v1\n
//! <16 hex digits: FNV-1a of the payload bytes>\n
//! <payload: JSON SpillRecord { asm_hash, config fields, norm_asm, outputs }>
//! ```
//!
//! Loads verify, in order: magic + version stamp (a mismatch
//! invalidates the entry — the stamp is bumped whenever decode output
//! or the format changes), payload checksum, JSON shape, and finally
//! that the stored configuration *and* full normalized text match the
//! probe — so a truncated, corrupt, or hash-colliding file degrades to
//! a miss, never to a panic or another function's hypotheses. Files
//! that fail the integrity checks are deleted; files that are merely
//! for a different entry (filename collision) are left in place.
//!
//! # Concurrent writers
//!
//! Writers never write a visible file in place: the entry is staged in
//! a process/thread-unique temp file and published with an atomic
//! `rename`, so two runtimes spilling into the same directory can race
//! on the same entry and readers still only ever observe one complete,
//! checksummed entry (last rename wins).

use serde::{Deserialize, Serialize};
use slade_compiler::{Isa, OptLevel};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Stable 64-bit FNV-1a — the tier's file-name and checksum hash
/// (independent of the process-seeded `std` hasher, so names are
/// comparable across runs and processes).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Format/compatibility stamp embedded in every spill file. Bump it when
/// the payload shape or decode semantics change; old entries then load
/// as misses instead of serving stale hypotheses.
pub const SPILL_VERSION: u32 = 1;

const MAGIC: &str = "SLADESPILL";
const EXT: &str = "spill";

/// On-disk payload: the configuration and the full normalized text (not
/// just the file name's hash), so loads can verify end-to-end.
#[derive(Serialize, Deserialize)]
struct SpillRecord {
    asm_hash: u64,
    isa: Isa,
    opt: OptLevel,
    beam: usize,
    max_tgt_len: usize,
    norm_asm: String,
    outputs: Vec<String>,
}

/// Outcome of one spill probe, so the cache can account hits, misses,
/// and integrity failures separately.
#[derive(Debug)]
pub enum SpillProbe {
    /// Entry present, verified, and matching the probe.
    Hit(Vec<String>),
    /// No entry (or an entry for a different text or configuration at
    /// this filename).
    Miss,
    /// An entry existed but failed integrity checks (truncated, corrupt
    /// checksum, bad JSON, or version-stamp mismatch); it was removed.
    Corrupt,
}

/// Entries a serving runtime's spill tier keeps before evicting.
pub const SPILL_CAPACITY: usize = 4096;

/// The disk tier: a directory of one-entry files with mtime-LRU
/// eviction at a configured capacity, for one decode configuration.
#[derive(Debug)]
pub struct SpillTier {
    dir: PathBuf,
    capacity: usize,
    isa: Isa,
    opt: OptLevel,
    beam: usize,
    max_tgt_len: usize,
}

impl SpillTier {
    /// A tier rooted at `dir` (created lazily on first store), holding
    /// at most `capacity` entries (`0` = unbounded), for results decoded
    /// under `(isa, opt, beam, max_tgt_len)`.
    pub fn new(
        dir: PathBuf,
        capacity: usize,
        isa: Isa,
        opt: OptLevel,
        beam: usize,
        max_tgt_len: usize,
    ) -> Self {
        SpillTier { dir, capacity, isa, opt, beam, max_tgt_len }
    }

    /// The deterministic path one normalized text spills to.
    pub fn path_for(&self, normalized_asm: &str) -> PathBuf {
        self.path_for_hash(fnv1a64(normalized_asm.as_bytes()))
    }

    /// The file for a text whose FNV-1a is `asm_hash`: named by a hash
    /// over it and every configuration field, so the same text under two
    /// configurations lands in two files.
    fn path_for_hash(&self, asm_hash: u64) -> PathBuf {
        let mut buf = [0u8; 26];
        buf[..8].copy_from_slice(&asm_hash.to_le_bytes());
        buf[8] = match self.isa {
            Isa::X86_64 => 0,
            Isa::Arm64 => 1,
        };
        buf[9] = match self.opt {
            OptLevel::O0 => 0,
            OptLevel::O3 => 3,
        };
        buf[10..18].copy_from_slice(&(self.beam as u64).to_le_bytes());
        buf[18..26].copy_from_slice(&(self.max_tgt_len as u64).to_le_bytes());
        self.dir.join(format!("{:016x}.{EXT}", fnv1a64(&buf)))
    }

    /// Probes the tier for `normalized_asm`, verifying the stamp,
    /// checksum, and full configuration/text match (see module docs).
    pub fn probe(&self, normalized_asm: &str) -> SpillProbe {
        let path = self.path_for(normalized_asm);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(_) => return SpillProbe::Miss,
        };
        match self.parse(&bytes, normalized_asm) {
            Ok(Some(outputs)) => SpillProbe::Hit(outputs),
            // Valid entry for another text or configuration (filename
            // collision): leave the resident entry alone, report a miss.
            Ok(None) => SpillProbe::Miss,
            Err(()) => {
                // Truncated / corrupt / stale version: invalidate so the
                // next decode rewrites a clean entry.
                let _ = std::fs::remove_file(&path);
                SpillProbe::Corrupt
            }
        }
    }

    /// Persists one entry: staged in a unique temp file, published by
    /// atomic rename, then capacity-enforced. Returns the number of
    /// entries evicted (0 on unbounded tiers). IO errors are reported,
    /// not panicked — spilling is an optimization, never a correctness
    /// requirement.
    pub fn store(&self, normalized_asm: &str, outputs: &[String]) -> std::io::Result<usize> {
        std::fs::create_dir_all(&self.dir)?;
        let asm_hash = fnv1a64(normalized_asm.as_bytes());
        let record = SpillRecord {
            asm_hash,
            isa: self.isa,
            opt: self.opt,
            beam: self.beam,
            max_tgt_len: self.max_tgt_len,
            norm_asm: normalized_asm.to_string(),
            outputs: outputs.to_vec(),
        };
        let payload = serde_json::to_string(&record)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?
            .into_bytes();
        let mut data = Vec::with_capacity(payload.len() + 32);
        data.extend_from_slice(format!("{MAGIC} v{SPILL_VERSION}\n").as_bytes());
        data.extend_from_slice(format!("{:016x}\n", fnv1a64(&payload)).as_bytes());
        data.extend_from_slice(&payload);
        // Unique staging name per (process, store call): concurrent
        // writers never touch each other's partial bytes.
        static STAGE_SEQ: AtomicU64 = AtomicU64::new(0);
        let stage = self.dir.join(format!(
            ".stage-{}-{}-{asm_hash:016x}",
            std::process::id(),
            STAGE_SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        std::fs::write(&stage, &data)?;
        std::fs::rename(&stage, self.path_for_hash(asm_hash))?;
        Ok(self.enforce_capacity())
    }

    /// Entries resident right now (directory scan; `0` if the directory
    /// does not exist yet).
    pub fn entries(&self) -> usize {
        self.list().len()
    }

    fn list(&self) -> Vec<(PathBuf, std::time::SystemTime)> {
        let Ok(dir) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        dir.filter_map(|e| {
            let e = e.ok()?;
            let path = e.path();
            if path.extension().and_then(|x| x.to_str()) != Some(EXT) {
                return None;
            }
            let modified = e.metadata().ok()?.modified().ok()?;
            Some((path, modified))
        })
        .collect()
    }

    /// Removes oldest-modified entries beyond capacity; returns how many
    /// were evicted.
    fn enforce_capacity(&self) -> usize {
        if self.capacity == 0 {
            return 0;
        }
        let mut entries = self.list();
        if entries.len() <= self.capacity {
            return 0;
        }
        entries.sort_by_key(|(_, modified)| *modified);
        let excess = entries.len() - self.capacity;
        let mut evicted = 0;
        for (path, _) in entries.into_iter().take(excess) {
            if std::fs::remove_file(&path).is_ok() {
                evicted += 1;
            }
        }
        evicted
    }

    /// `Ok(Some)` = verified hit, `Ok(None)` = valid entry for another
    /// text or configuration, `Err(())` = integrity failure.
    fn parse(&self, bytes: &[u8], normalized_asm: &str) -> Result<Option<Vec<String>>, ()> {
        let nl1 = bytes.iter().position(|&b| b == b'\n').ok_or(())?;
        let header = std::str::from_utf8(&bytes[..nl1]).map_err(|_| ())?;
        if header != format!("{MAGIC} v{SPILL_VERSION}") {
            return Err(());
        }
        let rest = &bytes[nl1 + 1..];
        let nl2 = rest.iter().position(|&b| b == b'\n').ok_or(())?;
        let sum_hex = std::str::from_utf8(&rest[..nl2]).map_err(|_| ())?;
        let want = u64::from_str_radix(sum_hex, 16).map_err(|_| ())?;
        let payload = &rest[nl2 + 1..];
        if fnv1a64(payload) != want {
            return Err(());
        }
        let text = std::str::from_utf8(payload).map_err(|_| ())?;
        let rec: SpillRecord = serde_json::from_str(text).map_err(|_| ())?;
        let matches = rec.isa == self.isa
            && rec.opt == self.opt
            && rec.beam == self.beam
            && rec.max_tgt_len == self.max_tgt_len
            && rec.norm_asm == normalized_asm;
        Ok(matches.then_some(rec.outputs))
    }
}
