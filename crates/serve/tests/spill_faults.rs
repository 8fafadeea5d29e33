//! Disk-spill fault tolerance: whatever is on disk — truncated files,
//! flipped bytes, stale version stamps, other texts' entries, concurrent
//! writers — a probe degrades to a miss (and an accounted load error),
//! never to a panic or another function's hypotheses.

use slade_compiler::{Isa, OptLevel};
use slade_serve::{ResultCache, SpillProbe, SpillTier};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Self-cleaning unique temp directory (no tempfile dep in-tree).
struct TempDir {
    path: PathBuf,
}

fn tempdir(tag: &str) -> TempDir {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "slade-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed),
    ));
    std::fs::create_dir_all(&path).expect("create tempdir");
    TempDir { path }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// A tier under `dir` for one fixed decode configuration.
fn tier(dir: &TempDir, capacity: usize) -> SpillTier {
    SpillTier::new(dir.path.clone(), capacity, Isa::X86_64, OptLevel::O0, 3, 16)
}

fn text(i: usize) -> String {
    format!("f{i}:\nmovl %edi, %eax\nret")
}

fn outputs(i: usize) -> Vec<String> {
    vec![
        format!("int f{i}(int a) {{ return a; }}"),
        format!("int f{i}(int a) {{ return a + 0; }}"),
    ]
}

/// The on-disk format is a compatibility contract: entries written by an
/// earlier build must still hit. One fixed entry's file name and bytes.
#[test]
fn on_disk_format_is_pinned() {
    let dir = tempdir("spill-format");
    let tier = SpillTier::new(dir.path.clone(), 0, Isa::Arm64, OptLevel::O3, 5, 64);
    let norm = "f:\nmovl %edi, %eax\nret";
    let outs = vec!["int f(int a) { return a; }".to_string(), "char *s = \"\\n\";".to_string()];
    tier.store(norm, &outs).expect("store");
    let path = tier.path_for(norm);
    assert_eq!(path.file_name().and_then(|n| n.to_str()), Some("5118147e68c18f51.spill"));
    let expected = concat!(
        "SLADESPILL v1\n",
        "af5aa9e618a7eb63\n",
        r#"{"asm_hash":2254641191204112894,"isa":"Arm64","opt":"O3","beam":5,"#,
        r#""max_tgt_len":64,"norm_asm":"f:\nmovl %edi, %eax\nret","#,
        r#""outputs":["int f(int a) { return a; }","char *s = \"\\n\";"]}"#,
    );
    assert_eq!(std::fs::read_to_string(&path).expect("read entry"), expected);
    assert!(matches!(tier.probe(norm), SpillProbe::Hit(got) if got == outs));
}

#[test]
fn roundtrip_hit_after_store() {
    let dir = tempdir("spill-roundtrip");
    let tier = tier(&dir, 0);
    let norm = text(1);
    assert!(matches!(tier.probe(&norm), SpillProbe::Miss), "empty tier misses");
    tier.store(&norm, &outputs(1)).expect("store");
    match tier.probe(&norm) {
        SpillProbe::Hit(got) => assert_eq!(got, outputs(1)),
        other => panic!("expected hit, got {other:?}"),
    }
    assert_eq!(tier.entries(), 1);
}

#[test]
fn truncated_file_is_a_removed_miss() {
    let dir = tempdir("spill-trunc");
    let tier = tier(&dir, 0);
    let norm = text(2);
    tier.store(&norm, &outputs(2)).expect("store");
    let path = tier.path_for(&norm);
    let bytes = std::fs::read(&path).expect("read entry");
    // Every truncation point — inside the magic, the checksum line, the
    // JSON payload — must degrade to Corrupt, never panic.
    for cut in [0, 5, 13, 20, bytes.len() / 2, bytes.len() - 1] {
        std::fs::write(&path, &bytes[..cut]).expect("truncate");
        assert!(matches!(tier.probe(&norm), SpillProbe::Corrupt), "cut at {cut} not detected");
        assert!(!path.exists(), "corrupt entry must be invalidated (cut {cut})");
    }
}

#[test]
fn flipped_payload_byte_fails_the_checksum() {
    let dir = tempdir("spill-flip");
    let tier = tier(&dir, 0);
    let norm = text(3);
    tier.store(&norm, &outputs(3)).expect("store");
    let path = tier.path_for(&norm);
    let mut bytes = std::fs::read(&path).expect("read entry");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x20; // still printable JSON-ish, caught by the checksum
    std::fs::write(&path, &bytes).expect("corrupt");
    assert!(matches!(tier.probe(&norm), SpillProbe::Corrupt));
    assert!(!path.exists());
}

#[test]
fn version_stamp_mismatch_invalidates() {
    let dir = tempdir("spill-version");
    let tier = tier(&dir, 0);
    let norm = text(4);
    tier.store(&norm, &outputs(4)).expect("store");
    let path = tier.path_for(&norm);
    let text = std::fs::read(&path).expect("read entry");
    let stale =
        String::from_utf8(text).unwrap().replacen("SLADESPILL v1", "SLADESPILL v999", 1);
    std::fs::write(&path, stale).expect("rewrite");
    assert!(
        matches!(tier.probe(&norm), SpillProbe::Corrupt),
        "a future/stale stamp must invalidate, not parse",
    );
    assert!(!path.exists(), "stale entry removed so the next decode rewrites it");
}

#[test]
fn entry_for_a_different_key_is_a_miss_not_wrong_bytes() {
    let dir = tempdir("spill-collide");
    let tier = tier(&dir, 0);
    let norm_a = text(5);
    let norm_b = text(6);
    tier.store(&norm_b, &outputs(6)).expect("store");
    // Simulate a filename collision: B's (valid, checksummed) entry
    // sitting at A's path. The configuration + text check must refuse it.
    std::fs::rename(tier.path_for(&norm_b), tier.path_for(&norm_a)).expect("rename");
    assert!(matches!(tier.probe(&norm_a), SpillProbe::Miss));
    assert!(tier.path_for(&norm_a).exists(), "a valid foreign entry is left in place");
}

#[test]
fn capacity_evicts_oldest_entries() {
    let dir = tempdir("spill-evict");
    let tier = tier(&dir, 3);
    let mut evicted = 0;
    for i in 0..5 {
        let norm = text(i);
        evicted += tier.store(&norm, &outputs(i)).expect("store");
        // mtime granularity on some filesystems is coarse; space the
        // writes so LRU order is well-defined.
        std::thread::sleep(std::time::Duration::from_millis(15));
    }
    assert_eq!(evicted, 2, "two stores past capacity evict one each");
    assert_eq!(tier.entries(), 3);
    // The newest entries survived.
    let norm4 = text(4);
    assert!(matches!(tier.probe(&norm4), SpillProbe::Hit(_)));
}

#[test]
fn concurrent_writers_never_interleave() {
    let dir = tempdir("spill-race");
    // Two "runtimes" (caches) sharing the directory, four threads each
    // hammering the same few texts: staged-write + atomic-rename
    // must keep every published entry complete and checksummed.
    let caches: Vec<_> = (0..2).map(|_| ResultCache::with_spill(8, tier(&dir, 0))).collect();
    let caches = std::sync::Arc::new(caches);
    let threads: Vec<_> = (0..4usize)
        .map(|t| {
            let caches = std::sync::Arc::clone(&caches);
            std::thread::spawn(move || {
                for round in 0..25 {
                    let i = (t + round) % 3;
                    let norm = text(i);
                    caches[t % 2].insert(norm.into(), outputs(i));
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("writer thread");
    }
    // Every surviving entry parses cleanly and returns the right bytes.
    let tier = tier(&dir, 0);
    for i in 0..3 {
        let norm = text(i);
        match tier.probe(&norm) {
            SpillProbe::Hit(got) => assert_eq!(got, outputs(i)),
            other => panic!("entry {i} damaged by concurrent writers: {other:?}"),
        }
    }
    // No staging debris left behind.
    let stray = std::fs::read_dir(&dir.path)
        .expect("read dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with(".stage-"))
        .count();
    assert_eq!(stray, 0, "staging files must be renamed away");
}

#[test]
fn cache_accounts_spill_hits_and_load_errors() {
    let dir = tempdir("spill-stats");
    let norm = text(7);
    // First cache instance decodes and spills.
    let first = ResultCache::with_spill(4, tier(&dir, 0));
    first.insert(norm.as_str().into(), outputs(7));
    assert_eq!(first.stats().spill_writes, 1);
    // A "restarted" instance (cold memory) hits the disk tier, then
    // serves the promoted entry from memory.
    let second = ResultCache::with_spill(4, tier(&dir, 0));
    assert_eq!(second.get(&norm), Some(outputs(7)));
    let s = second.stats();
    assert_eq!((s.hits, s.spill_hits), (1, 1));
    assert_eq!(second.get(&norm), Some(outputs(7)));
    let s = second.stats();
    assert_eq!((s.hits, s.spill_hits), (2, 1), "second hit served from memory");
    // Corrupt the file: a third cold instance sees a miss + load error.
    std::fs::write(tier(&dir, 0).path_for(&norm), b"SLADESPILL v1\ngarbage").expect("corrupt");
    let third = ResultCache::with_spill(4, tier(&dir, 0));
    assert_eq!(third.get(&norm), None);
    let s = third.stats();
    assert_eq!((s.misses, s.spill_load_errors), (1, 1));
}
