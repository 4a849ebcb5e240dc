//! Content-addressed result cache: an in-memory LRU with a byte budget
//! in front of an optional on-disk tier that survives restarts.
//!
//! Keys are the canonical compilation fingerprints produced by
//! [`denali_core::fingerprint`] — a hash over the normalized GMAs, the
//! axiom-set identity, and the output-affecting option subset. Values
//! are rendered *response bodies* (see [`crate::protocol`]): caching
//! the final bytes rather than a structured result is what makes the
//! hit-equals-miss guarantee trivially auditable — a warm hit replays
//! exactly the bytes the cold compile produced.
//!
//! The disk tier stores one file per key under `--cache-dir`, written
//! atomically (temp file + rename) so a crash mid-write can never leave
//! a torn entry for a later process to replay. Disk hits are promoted
//! into the memory tier.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use denali_metrics::{Counter, Gauge, Registry};

/// A point-in-time read of the cache's counters and gauges.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Lookups served from memory or disk.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Of the hits, how many were served by the disk tier.
    pub disk_hits: u64,
    /// Disk-tier entries that failed protocol validation and were
    /// deleted (corruption, truncation, hand-editing).
    pub disk_invalid: u64,
    /// Entries evicted from memory to respect the byte budget.
    pub evictions: u64,
    /// Entries currently resident in memory.
    pub entries: u64,
    /// Bytes currently resident in memory.
    pub bytes: u64,
}

/// In-memory state: entries plus recency order (front = coldest).
#[derive(Default)]
struct Lru {
    entries: HashMap<String, String>,
    order: VecDeque<String>,
    bytes: usize,
}

impl Lru {
    fn touch(&mut self, key: &str) {
        if let Some(at) = self.order.iter().position(|k| k == key) {
            self.order.remove(at);
            self.order.push_back(key.to_owned());
        }
    }
}

/// The two-tier result cache. Thread-safe: workers share one `Cache`
/// by reference.
pub struct Cache {
    lru: Mutex<Lru>,
    budget: usize,
    dir: Option<PathBuf>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    disk_hits: Arc<Counter>,
    disk_invalid: Arc<Counter>,
    evictions: Arc<Counter>,
    entries: Arc<Gauge>,
    bytes: Arc<Gauge>,
}

impl Cache {
    /// Creates a cache with a memory budget of `budget` bytes and, if
    /// `dir` is given, a persistent disk tier rooted there (the
    /// directory is created if missing). Its counters and gauges are
    /// the `denali_serve_cache_*` families of `registry`, updated where
    /// each event happens.
    ///
    /// # Errors
    ///
    /// Fails if the cache directory cannot be created.
    pub fn new(budget: usize, dir: Option<PathBuf>, registry: &Registry) -> std::io::Result<Cache> {
        if let Some(dir) = &dir {
            std::fs::create_dir_all(dir)?;
        }
        Ok(Cache {
            lru: Mutex::new(Lru::default()),
            budget,
            dir,
            hits: registry.counter("denali_serve_cache_hits_total", "Result-cache hits"),
            misses: registry.counter("denali_serve_cache_misses_total", "Result-cache misses"),
            disk_hits: registry.counter(
                "denali_serve_cache_disk_hits_total",
                "Misses answered by the disk tier",
            ),
            disk_invalid: registry.counter(
                "denali_serve_cache_disk_invalid_total",
                "Disk-tier entries that failed validation and were discarded",
            ),
            evictions: registry.counter(
                "denali_serve_cache_evictions_total",
                "Memory-tier evictions under the byte budget",
            ),
            entries: registry.gauge("denali_serve_cache_entries", "Memory-tier cache entries"),
            bytes: registry.gauge("denali_serve_cache_bytes", "Memory-tier cache bytes"),
        })
    }

    fn disk_path(&self, key: &str) -> Option<PathBuf> {
        // Keys are 32-char lowercase hex fingerprints; refuse anything
        // else so a key can never smuggle path components.
        let dir = self.dir.as_ref()?;
        if key.is_empty() || !key.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        Some(dir.join(format!("{key}.json")))
    }

    /// Looks up `key`, consulting memory first and then the disk tier.
    /// Disk hits are promoted into memory.
    pub fn get(&self, key: &str) -> Option<String> {
        {
            let mut lru = self.lru.lock().unwrap();
            if let Some(body) = lru.entries.get(key).cloned() {
                lru.touch(key);
                self.hits.inc();
                return Some(body);
            }
        }
        if let Some(path) = self.disk_path(key) {
            if let Ok(body) = std::fs::read_to_string(&path) {
                // The disk tier is plain files: corruption, truncation,
                // or hand-editing must not be promoted to memory and
                // replayed as protocol bytes. An invalid entry is
                // deleted and the lookup falls through to a miss, so
                // the next compile rewrites it.
                if crate::protocol::is_valid_result_body(&body) {
                    self.disk_hits.inc();
                    self.hits.inc();
                    self.insert_memory(key, &body);
                    return Some(body);
                }
                self.disk_invalid.inc();
                let _ = std::fs::remove_file(&path);
            }
        }
        self.misses.inc();
        None
    }

    /// Stores `body` under `key` in both tiers. Disk-tier write
    /// failures are swallowed: the cache is an accelerator, and a full
    /// disk must degrade throughput, not correctness.
    pub fn put(&self, key: &str, body: &str) {
        self.insert_memory(key, body);
        if let Some(path) = self.disk_path(key) {
            let _ = write_atomically(&path, body);
        }
    }

    fn insert_memory(&self, key: &str, body: &str) {
        if body.len() > self.budget {
            // Larger than the whole budget: admitting it would evict
            // everything and then be evicted itself next insert.
            return;
        }
        let mut lru = self.lru.lock().unwrap();
        if let Some(old) = lru.entries.insert(key.to_owned(), body.to_owned()) {
            lru.bytes -= old.len();
            lru.touch(key);
        } else {
            lru.order.push_back(key.to_owned());
        }
        lru.bytes += body.len();
        while lru.bytes > self.budget {
            let Some(coldest) = lru.order.pop_front() else {
                break;
            };
            if let Some(evicted) = lru.entries.remove(&coldest) {
                lru.bytes -= evicted.len();
                self.evictions.inc();
            }
        }
        self.entries.set(lru.entries.len() as u64);
        self.bytes.set(lru.bytes as u64);
    }

    /// Reads the counters and gauges (for the `stats` request).
    pub fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            hits: self.hits.get(),
            misses: self.misses.get(),
            disk_hits: self.disk_hits.get(),
            disk_invalid: self.disk_invalid.get(),
            evictions: self.evictions.get(),
            entries: self.entries.get(),
            bytes: self.bytes.get(),
        }
    }
}

/// Writes `body` to `path` via a temp file in the same directory plus
/// an atomic rename, so concurrent writers and crashes can never
/// expose a torn entry.
fn write_atomically(path: &Path, body: &str) -> std::io::Result<()> {
    let dir = path.parent().ok_or(std::io::ErrorKind::InvalidInput)?;
    // Distinguish concurrent writers by thread so two workers storing
    // the same key cannot interleave on one temp file; last rename
    // wins, and both wrote identical bytes anyway.
    let tmp = dir.join(format!(
        ".tmp-{:?}-{}",
        std::thread::current().id(),
        path.file_name().and_then(|n| n.to_str()).unwrap_or("entry")
    ));
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(body.as_bytes())?;
        f.sync_all()?;
    }
    let renamed = std::fs::rename(&tmp, path);
    if renamed.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    renamed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("denali-serve-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A minimal body that passes disk-tier protocol validation.
    fn valid_body(fingerprint: &str) -> String {
        crate::protocol::render_result_body(fingerprint, false, "sat", &[])
    }

    #[test]
    fn memory_roundtrip_and_counters() {
        let cache = Cache::new(1 << 20, None, &Registry::new()).unwrap();
        assert_eq!(cache.get("00ff"), None);
        cache.put("00ff", "body-a");
        assert_eq!(cache.get("00ff").as_deref(), Some("body-a"));
        let snap = cache.snapshot();
        assert_eq!((snap.hits, snap.misses, snap.entries), (1, 1, 1));
        assert_eq!(snap.bytes, "body-a".len() as u64);
    }

    #[test]
    fn evicts_least_recently_used_first() {
        // Budget fits exactly two 4-byte bodies.
        let cache = Cache::new(8, None, &Registry::new()).unwrap();
        cache.put("aa", "aaaa");
        cache.put("bb", "bbbb");
        assert!(cache.get("aa").is_some()); // "aa" is now hottest
        cache.put("cc", "cccc"); // must evict "bb"
        assert!(cache.get("aa").is_some());
        assert!(cache.get("bb").is_none());
        assert!(cache.get("cc").is_some());
        assert_eq!(cache.snapshot().evictions, 1);
    }

    #[test]
    fn oversized_bodies_are_not_admitted() {
        let cache = Cache::new(4, None, &Registry::new()).unwrap();
        cache.put("aa", "toolarge");
        assert_eq!(cache.snapshot().entries, 0);
        assert!(cache.get("aa").is_none());
    }

    #[test]
    fn replacing_an_entry_adjusts_the_byte_gauge() {
        let cache = Cache::new(64, None, &Registry::new()).unwrap();
        cache.put("aa", "xxxxxxxx");
        cache.put("aa", "yy");
        let snap = cache.snapshot();
        assert_eq!((snap.entries, snap.bytes), (1, 2));
        assert_eq!(cache.get("aa").as_deref(), Some("yy"));
    }

    #[test]
    fn disk_tier_survives_restart_and_promotes() {
        let dir = temp_dir("restart");
        let body = valid_body("abcd0123");
        {
            let cache = Cache::new(1 << 20, Some(dir.clone()), &Registry::new()).unwrap();
            cache.put("abcd0123", &body);
        }
        // "Restart": a fresh cache over the same directory.
        let cache = Cache::new(1 << 20, Some(dir.clone()), &Registry::new()).unwrap();
        assert_eq!(cache.get("abcd0123").as_deref(), Some(body.as_str()));
        let snap = cache.snapshot();
        assert_eq!((snap.disk_hits, snap.entries), (1, 1));
        // Promoted: a second get is a pure memory hit.
        assert_eq!(cache.get("abcd0123").as_deref(), Some(body.as_str()));
        assert_eq!(cache.snapshot().disk_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_disk_entries_are_deleted_and_miss() {
        let dir = temp_dir("corrupt");
        let cache = Cache::new(1 << 20, Some(dir.clone()), &Registry::new()).unwrap();
        // A torn/hand-edited entry appears on disk behind the cache's
        // back (simulating corruption the atomic writer cannot cause).
        std::fs::write(dir.join("deadbeef.json"), "{not a resp").unwrap();
        assert_eq!(cache.get("deadbeef"), None, "corruption must miss");
        assert!(
            !dir.join("deadbeef.json").exists(),
            "invalid entry must be deleted so the next compile rewrites it"
        );
        let snap = cache.snapshot();
        assert_eq!((snap.disk_invalid, snap.hits, snap.misses), (1, 0, 1));
        // A truncated but otherwise plausible body is also rejected.
        let body = valid_body("deadbeef");
        std::fs::write(dir.join("deadbeef.json"), &body[..body.len() / 2]).unwrap();
        assert_eq!(cache.get("deadbeef"), None);
        assert_eq!(cache.snapshot().disk_invalid, 2);
        // A valid entry on disk still round-trips.
        std::fs::write(dir.join("deadbeef.json"), &body).unwrap();
        assert_eq!(cache.get("deadbeef").as_deref(), Some(body.as_str()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_hex_keys_never_touch_the_filesystem() {
        let dir = temp_dir("keys");
        let cache = Cache::new(1 << 20, Some(dir.clone()), &Registry::new()).unwrap();
        cache.put("../escape", "nope");
        assert!(!dir.join("../escape.json").exists());
        // Still served from memory.
        assert_eq!(cache.get("../escape").as_deref(), Some("nope"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
