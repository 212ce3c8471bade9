//! In-memory result cache with hit/miss statistics.

use crate::codec::capset_to_text;
use crate::key::CacheKey;
use miscela_core::CapSet;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// One cached mining result: its CAPs and their compact JSON text, encoded
/// once. Both cache tiers and every response that serves the result share
/// the one text.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedCaps {
    /// The CAPs.
    pub caps: CapSet,
    /// `capset_to_text(&caps)`.
    pub text: Arc<str>,
}

impl CachedCaps {
    /// Encodes a result's CAPs.
    pub fn new(caps: CapSet) -> Self {
        let text = Arc::from(capset_to_text(&caps));
        CachedCaps { caps, text }
    }
}

/// Hit/miss counters of a cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of lookups answered from the cache.
    pub hits: usize,
    /// Number of lookups that required mining.
    pub misses: usize,
    /// Number of entries currently stored.
    pub entries: usize,
    /// Number of entries garbage-collected because their dataset revision
    /// was superseded by an append, trim or re-registration (cumulative,
    /// across both cache tiers).
    pub evicted: usize,
}

impl CacheStats {
    /// Hit rate in `[0, 1]` (zero when there were no lookups).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A thread-safe, unbounded in-memory cache from [`CacheKey`] to
/// [`CachedCaps`]. Entries leave only when their dataset is invalidated or
/// their revision is superseded.
#[derive(Debug, Default)]
pub struct ResultCache {
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    entries: HashMap<CacheKey, CachedCaps>,
    hits: usize,
    misses: usize,
    evicted: usize,
}

impl ResultCache {
    /// Creates an unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up a key, recording a hit or miss.
    pub fn get(&self, key: &CacheKey) -> Option<CachedCaps> {
        let mut inner = self.inner.lock();
        let found = inner.entries.get(key).cloned();
        if found.is_some() {
            inner.hits += 1;
        } else {
            inner.misses += 1;
        }
        found
    }

    /// Looks up a key without recording a hit or miss: the second look of
    /// a lookup that already counted.
    pub(crate) fn peek(&self, key: &CacheKey) -> Option<CachedCaps> {
        self.inner.lock().entries.get(key).cloned()
    }

    /// Whether a key is cached (does not affect statistics).
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.inner.lock().entries.contains_key(key)
    }

    /// Inserts (or replaces) an entry.
    pub fn put(&self, key: CacheKey, cached: CachedCaps) {
        self.inner.lock().entries.insert(key, cached);
    }

    /// Removes every cached entry for a dataset (used when a dataset is
    /// re-uploaded under the same name).
    pub fn invalidate_dataset(&self, dataset: &str) -> usize {
        let mut inner = self.inner.lock();
        let before = inner.entries.len();
        inner.entries.retain(|k, _| k.dataset != dataset);
        before - inner.entries.len()
    }

    /// Garbage-collects every entry of `dataset` whose revision is older
    /// than `current_revision` — the stale-revision leak fix: revisions
    /// made unreachable by an append/trim revision bump no longer linger
    /// until a whole-dataset invalidation. Returns how many entries were
    /// collected.
    pub fn evict_superseded(&self, dataset: &str, current_revision: u64) -> usize {
        let mut inner = self.inner.lock();
        let before = inner.entries.len();
        inner
            .entries
            .retain(|k, _| k.dataset != dataset || k.revision >= current_revision);
        let removed = before - inner.entries.len();
        inner.evicted += removed;
        removed
    }

    /// Adds externally performed evictions (the store tier's revision GC)
    /// to the [`CacheStats::evicted`] counter, so one counter reports both
    /// tiers.
    pub fn record_evictions(&self, n: usize) {
        self.inner.lock().evicted += n;
    }

    /// Clears the cache (statistics are kept).
    pub fn clear(&self) {
        self.inner.lock().entries.clear();
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            entries: inner.entries.len(),
            evicted: inner.evicted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miscela_core::MiningParams;

    fn key(dataset: &str, psi: usize) -> CacheKey {
        CacheKey::for_state(dataset, 0, 0, &MiningParams::default().with_psi(psi))
    }

    fn empty() -> CachedCaps {
        CachedCaps::new(CapSet::new())
    }

    #[test]
    fn get_put_and_stats() {
        let cache = ResultCache::new();
        let k = key("santander", 10);
        assert!(cache.get(&k).is_none());
        cache.put(k.clone(), empty());
        assert!(cache.get(&k).is_some());
        assert!(cache.contains(&k));
        // A peek finds the entry but counts nothing.
        assert!(cache.peek(&k).is_some());
        assert!(cache.peek(&key("santander", 11)).is_none());
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn invalidate_dataset_removes_only_that_dataset() {
        let cache = ResultCache::new();
        cache.put(key("santander", 1), empty());
        cache.put(key("santander", 2), empty());
        cache.put(key("china6", 1), empty());
        assert_eq!(cache.invalidate_dataset("santander"), 2);
        assert!(!cache.contains(&key("santander", 1)));
        assert!(cache.contains(&key("china6", 1)));
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn hit_rate_zero_without_lookups() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn concurrent_access() {
        use std::sync::Arc;
        let cache = Arc::new(ResultCache::new());
        let mut handles = Vec::new();
        for t in 0..4 {
            let cache = Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                for i in 0..25 {
                    let k = key(&format!("d{t}"), i);
                    cache.put(k.clone(), empty());
                    assert!(cache.get(&k).is_some());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cache.stats().entries, 100);
        assert_eq!(cache.stats().hits, 100);
    }
}
