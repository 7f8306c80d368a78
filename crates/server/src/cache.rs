//! The content-addressed result cache: a size-bounded LRU map from
//! [`cache_key`](crate::job::cache_key) to canonical result documents,
//! optionally persisted one-file-per-entry so results survive restarts.
//!
//! Two invariants carry the whole design:
//!
//! * **byte identity** — a cached document is returned exactly as it was
//!   inserted (`Arc<str>`, never re-encoded), so a cache hit is
//!   indistinguishable from a fresh deterministic run;
//! * **bounded footprint** — inserts evict least-recently-used entries
//!   (and their files) until the byte budget holds again. The freshest
//!   entry is never evicted, even when it alone exceeds the budget —
//!   a cache that refuses the result it just computed helps no one.
//!
//! Only *successful* results are cached; failures stay ephemeral (a panic
//! or timeout says nothing deterministic about the spec).
//!
//! A persisted entry is one header line naming its key and the FNV-1a
//! digest of the document, then the document bytes. Loading fails closed:
//! an entry whose header is missing or wrong, or whose document is not
//! UTF-8, is deleted and counted in [`CacheStats::rejected`], never served.

use platoon_sim::fnv1a;
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Cache sizing and persistence knobs.
#[derive(Clone, Debug)]
pub struct CacheConfig {
    /// Total document bytes to hold before evicting (the bound is on
    /// document text, not on map overhead).
    pub max_bytes: usize,
    /// On-disk store directory; `None` = memory only.
    pub dir: Option<PathBuf>,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            max_bytes: 64 << 20,
            dir: None,
        }
    }
}

/// Hit/miss/churn counters, reported by `stats` requests and the CI
/// cache-stats artifact.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a document.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Documents inserted.
    pub insertions: u64,
    /// Documents evicted by the byte bound.
    pub evictions: u64,
    /// Documents loaded from the on-disk store at startup.
    pub loaded: u64,
    /// On-disk entries deleted at startup because they failed
    /// verification (corrupt, torn, foreign or not UTF-8).
    pub rejected: u64,
}

/// The LRU result cache. Not internally synchronised — the service wraps
/// it in its state mutex.
pub struct ResultCache {
    config: CacheConfig,
    entries: HashMap<u64, Arc<str>>,
    /// Recency order, least-recent first. Small enough (hundreds of grid
    /// cells) that linear touch updates beat an intrusive list.
    order: VecDeque<u64>,
    bytes: usize,
    stats: CacheStats,
}

/// The on-disk file name of a cache entry.
fn entry_file(key: u64) -> String {
    format!("{key:016x}.json")
}

/// The temp file an entry is written to before being renamed into place.
/// It does not parse as an entry name, so a leftover from a crash is never
/// loaded.
fn temp_file(key: u64) -> String {
    format!("{}.{}.tmp", entry_file(key), std::process::id())
}

/// The header line of a persisted entry for `key` holding `document`.
/// FNV-1a maps any single changed byte to a different digest: each step
/// `h -> (h ^ b) * prime` is a bijection of `h` for a fixed byte `b`.
fn entry_header(key: u64, document: &[u8]) -> String {
    format!(
        "platoon-cache-entry v1 key={key:016x} fnv1a={:016x}\n",
        fnv1a(document)
    )
}

/// The document of a persisted entry file, or `None` if the file fails
/// verification against its header.
fn verify_entry(key: u64, bytes: &[u8]) -> Option<&str> {
    let split = bytes.iter().position(|&b| b == b'\n')? + 1;
    let (header, document) = bytes.split_at(split);
    if header != entry_header(key, document).as_bytes() {
        return None;
    }
    std::str::from_utf8(document).ok()
}

/// Parses a `{key:016x}.json` file name back to its key.
fn parse_entry_file(name: &str) -> Option<u64> {
    let hex = name.strip_suffix(".json")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

impl ResultCache {
    /// Opens the cache; with a store directory set, creates it if missing
    /// and loads every persisted entry (sorted by file name, so the
    /// initial recency order is deterministic). Unparseable file names are
    /// ignored; entries that fail verification are deleted and counted as
    /// rejected; directory and read errors are errors.
    pub fn open(config: CacheConfig) -> std::io::Result<ResultCache> {
        let mut cache = ResultCache {
            config,
            entries: HashMap::new(),
            order: VecDeque::new(),
            bytes: 0,
            stats: CacheStats::default(),
        };
        if let Some(dir) = cache.config.dir.clone() {
            std::fs::create_dir_all(&dir)?;
            let mut names: Vec<(u64, PathBuf)> = Vec::new();
            for entry in std::fs::read_dir(&dir)? {
                let entry = entry?;
                let name = entry.file_name();
                if let Some(key) = name.to_str().and_then(parse_entry_file) {
                    names.push((key, entry.path()));
                }
            }
            names.sort_by_key(|(key, _)| *key);
            for (key, path) in names {
                let bytes = std::fs::read(&path)?;
                match verify_entry(key, &bytes) {
                    Some(document) => {
                        cache.attach(key, Arc::from(document));
                        cache.stats.loaded += 1;
                    }
                    None => {
                        // Best effort: an entry left in place is rejected
                        // again on the next load.
                        let _ = std::fs::remove_file(&path);
                        cache.stats.rejected += 1;
                    }
                }
            }
            // The store may have been written under a larger budget.
            cache.evict_over_budget();
        }
        Ok(cache)
    }

    /// Looks a key up, counting the hit or miss and refreshing recency.
    pub fn get(&mut self, key: u64) -> Option<Arc<str>> {
        match self.entries.get(&key).cloned() {
            Some(doc) => {
                self.stats.hits += 1;
                self.touch(key);
                Some(doc)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts a document, persisting it atomically (temp file, then
    /// rename) when a store directory is set, and evicting LRU entries
    /// past the byte budget. Returns the shared
    /// document (the existing one if the key was already present — the
    /// determinism invariant makes any two documents for one key
    /// byte-identical, so first-write wins is safe).
    pub fn insert(&mut self, key: u64, document: &str) -> std::io::Result<Arc<str>> {
        if let Some(existing) = self.entries.get(&key).cloned() {
            self.touch(key);
            return Ok(existing);
        }
        if let Some(dir) = &self.config.dir {
            // Write-then-rename: the entry name only ever refers to a
            // complete document, so a crash mid-write leaves at worst an
            // ignored temp file, never a torn entry that loads as a hit.
            // The sync orders the data before the rename, so this holds
            // across a power loss too (the entry itself may then be lost,
            // which only costs a recomputation).
            let temp = dir.join(temp_file(key));
            let mut file = std::fs::File::create(&temp)?;
            file.write_all(entry_header(key, document.as_bytes()).as_bytes())?;
            file.write_all(document.as_bytes())?;
            file.sync_all()?;
            std::fs::rename(&temp, dir.join(entry_file(key)))?;
        }
        let doc: Arc<str> = Arc::from(document);
        self.attach(key, doc.clone());
        self.stats.insertions += 1;
        self.evict_over_budget();
        Ok(doc)
    }

    /// Adds an entry to the maps without stats or persistence.
    fn attach(&mut self, key: u64, doc: Arc<str>) {
        self.bytes += doc.len();
        if self.entries.insert(key, doc).is_none() {
            self.order.push_back(key);
        }
    }

    /// Moves a key to the most-recent end.
    fn touch(&mut self, key: u64) {
        if let Some(pos) = self.order.iter().position(|k| *k == key) {
            self.order.remove(pos);
            self.order.push_back(key);
        }
    }

    /// Evicts least-recent entries (and their files) while over budget,
    /// always sparing the most recent one.
    fn evict_over_budget(&mut self) {
        while self.bytes > self.config.max_bytes && self.order.len() > 1 {
            let Some(key) = self.order.pop_front() else {
                break;
            };
            if let Some(doc) = self.entries.remove(&key) {
                self.bytes -= doc.len();
                self.stats.evictions += 1;
            }
            if let Some(dir) = &self.config.dir {
                let _ = std::fs::remove_file(dir.join(entry_file(key)));
            }
        }
    }

    /// Entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total document bytes held.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// The hit/miss/churn counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The store directory, if persistence is on.
    pub fn dir(&self) -> Option<&Path> {
        self.config.dir.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem(max_bytes: usize) -> ResultCache {
        ResultCache::open(CacheConfig {
            max_bytes,
            dir: None,
        })
        .expect("memory cache opens")
    }

    #[test]
    fn hits_are_byte_identical_and_counted() {
        let mut c = mem(1024);
        assert!(c.get(1).is_none());
        c.insert(1, "{\"x\": 1}").unwrap();
        let doc = c.get(1).expect("hit");
        assert_eq!(&*doc, "{\"x\": 1}");
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().insertions, 1);
    }

    #[test]
    fn eviction_is_least_recently_used() {
        // Three 4-byte documents in an 8-byte budget: inserting C must
        // evict the least recently *used* entry — B, because A was
        // touched by a get after B landed.
        let mut c = mem(8);
        c.insert(0xA, "aaaa").unwrap();
        c.insert(0xB, "bbbb").unwrap();
        assert!(c.get(0xA).is_some(), "touch A so B becomes LRU");
        c.insert(0xC, "cccc").unwrap();
        assert!(c.get(0xB).is_none(), "B was least recently used");
        assert!(c.get(0xA).is_some(), "A was refreshed and survives");
        assert!(c.get(0xC).is_some(), "the newest entry always survives");
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.len(), 2);
        assert!(c.bytes() <= 8);
    }

    #[test]
    fn oversized_newest_entry_is_spared() {
        let mut c = mem(4);
        c.insert(1, "way past the whole budget").unwrap();
        assert!(c.get(1).is_some(), "the only entry is never evicted");
        c.insert(2, "also enormous for this budget").unwrap();
        assert!(c.get(1).is_none(), "the older giant goes");
        assert!(c.get(2).is_some());
    }

    /// A fresh store directory for one test.
    fn store(name: &str) -> (PathBuf, CacheConfig) {
        let dir =
            std::env::temp_dir().join(format!("platoon-cache-unit-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = CacheConfig {
            max_bytes: 1024,
            dir: Some(dir.clone()),
        };
        (dir, config)
    }

    #[test]
    fn persisted_entries_leave_no_temp_files_and_leftovers_are_ignored() {
        let (dir, config) = store("temp-files");
        let open = || ResultCache::open(config.clone()).expect("disk cache opens");
        let mut c = open();
        c.insert(7, "{\"whole\": true}").unwrap();
        let names = || -> Vec<String> {
            let mut names: Vec<String> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            names.sort();
            names
        };
        assert_eq!(names(), [entry_file(7)], "the temp file was renamed away");

        // A crash between write and rename leaves a torn temp file behind.
        std::fs::write(dir.join(temp_file(8)), "{\"torn\": ").unwrap();
        let mut reloaded = open();
        assert_eq!(reloaded.stats().loaded, 1, "only the complete entry loads");
        assert_eq!(reloaded.get(8), None, "the torn document is not a hit");
        assert_eq!(reloaded.get(7).as_deref(), Some("{\"whole\": true}"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_flipped_byte_is_rejected_and_deleted() {
        let (dir, config) = store("flipped-byte");
        let document = "{\"speed\": 25.0}";
        ResultCache::open(config.clone())
            .unwrap()
            .insert(3, document)
            .unwrap();
        let path = dir.join(entry_file(3));
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 2;
        bytes[last] ^= 0x01; // "25.0" becomes "25.1"
        std::fs::write(&path, &bytes).unwrap();

        let mut reloaded = ResultCache::open(config.clone()).expect("store opens");
        assert_eq!(reloaded.stats().loaded, 0);
        assert_eq!(reloaded.stats().rejected, 1);
        assert_eq!(reloaded.get(3), None, "a corrupt entry is a miss");
        assert!(!path.exists(), "the corrupt entry is deleted");

        // An intact entry still round-trips byte for byte.
        reloaded.insert(3, document).unwrap();
        let mut again = ResultCache::open(config).unwrap();
        assert_eq!(again.stats().rejected, 0);
        assert_eq!(again.get(3).as_deref(), Some(document));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn invalid_utf8_and_headerless_entries_do_not_stop_the_store() {
        let (dir, config) = store("invalid-utf8");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(entry_file(1)), [0xff, 0xfe, b'{', b'}']).unwrap();
        std::fs::write(dir.join(entry_file(2)), "{\"no\": \"header\"}").unwrap();
        // A verified header over a document that is not UTF-8.
        let mut bad_text = entry_header(4, &[0xc3, 0x28]).into_bytes();
        bad_text.extend([0xc3, 0x28]);
        std::fs::write(dir.join(entry_file(4)), bad_text).unwrap();
        // A valid entry for key 5 renamed to key 6.
        let moved = format!("{}{{}}", entry_header(5, b"{}"));
        std::fs::write(dir.join(entry_file(6)), moved).unwrap();

        let mut c = ResultCache::open(config).expect("store opens");
        assert_eq!(c.stats().rejected, 4);
        assert_eq!(c.stats().loaded, 0);
        for key in [1, 2, 4, 6] {
            assert_eq!(c.get(key), None);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_insert_returns_the_first_document() {
        let mut c = mem(1024);
        let a = c.insert(9, "{\"v\": 1}").unwrap();
        let b = c.insert(9, "{\"v\": 1}").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second insert reuses the first doc");
        assert_eq!(c.stats().insertions, 1);
        assert_eq!(c.len(), 1);
    }
}
