//! Per-series extraction cache: the front-end companion of the CAP result
//! cache.
//!
//! The result cache (Section 3.3) only helps when the *entire* parameter
//! setting repeats. The interactive exploration loop, however, mostly
//! re-mines with tweaked support/distance parameters (ψ, η, μ) — which do
//! not affect steps (1)+(2) at all. [`EvolvingSetsCache`] memoizes the
//! per-series [`ExtractionState`] keyed by
//! [`ExtractionKey`] (series content fingerprint + the parameters'
//! [`miscela_core::Extraction`]), so those re-mining calls skip
//! segmentation and extraction entirely and pay only for the search.
//!
//! Since the pipeline became append-aware, the cache also serves the
//! *streaming* loop: entries retain the full [`ExtractionState`] (evolving
//! sets plus segmentation), and the miner probes them with
//! prefix-fingerprint keys of appended series — a hit seeds
//! `miscela_core::evolving::extract_resume`, which re-extracts only the
//! appended tail. [`ExtractionCacheStats::prefix_hits`] counts those
//! resumptions, and the origin probes of trimmed series.
//!
//! A retuned ε misses the content key but skips step (1): a state
//! segmented from scratch is also published under its series' *sibling*
//! key (content fingerprint and tolerance, ε left out), and an extraction
//! of the same series at another ε finds it there and reruns only step (2)
//! over its segmentation (`miscela_core::evolving::extract_rescan`),
//! sharing its segment runs. Sibling probes count in none of the
//! [`ExtractionCacheStats`] counters; the miner's report tallies the
//! rescans (`MiningReport::extraction_rescans`).

use miscela_core::evolving::{EvolvingCache, ExtractionKey, ExtractionState};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Default capacity: enough for every sensor of several city-scale datasets
/// at a handful of ε/segmentation settings.
pub const DEFAULT_EXTRACTION_CAPACITY: usize = 16_384;

/// How many dataset *generations* (revision bumps — appends, trims,
/// re-registrations) an entry may go untouched before
/// [`EvolvingSetsCache::collect_superseded`] considers it dead.
///
/// Entries are content-keyed, so the cache cannot attribute them to a
/// dataset directly; instead every hit re-stamps the entry with the
/// current generation, and states that no mining pass has touched for this
/// many revision bumps — superseded pre-append prefixes, pre-trim windows
/// whose indices slid out from under them — are garbage-collected instead
/// of lingering until capacity eviction. Mirrors
/// `miscela_model::MAX_APPEND_BASES`: a prefix state older than the bases
/// any dataset still remembers can never seed a resume again.
pub const DEFAULT_KEEP_GENERATIONS: u64 = 8;

/// Counters of the per-series extraction cache.
///
/// Replaces the old unnamed `(hits, misses, entries)` tuple: callers had to
/// guess the field order, and the append-aware cache needed two more
/// counters anyway.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtractionCacheStats {
    /// Full-content lookups answered from the cache (steps (1)+(2) skipped
    /// entirely).
    pub hits: usize,
    /// Full-content lookups that required extraction.
    pub misses: usize,
    /// Prefix-state lookups answered from the cache (extraction *resumed*
    /// over the appended tail only).
    pub prefix_hits: usize,
    /// Prefix-state lookups that found no reusable prefix.
    pub prefix_misses: usize,
    /// Number of series entries currently stored.
    pub entries: usize,
    /// Entries garbage-collected because they went untouched across
    /// [`DEFAULT_KEEP_GENERATIONS`] dataset revisions — the dead-revision
    /// states of superseded or out-of-window content (cumulative).
    pub evicted: usize,
}

impl ExtractionCacheStats {
    /// Fraction of full-content lookups served from the cache, in `[0, 1]`
    /// (zero when there were no lookups).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A thread-safe, capacity-bounded cache from [`ExtractionKey`] to
/// [`ExtractionState`], evicting the least recently inserted entry.
///
/// Keys are content fingerprints, so no dataset-level invalidation is
/// needed: re-uploading changed data simply misses (and the stale entries
/// age out through the capacity bound). Appended data *reuses* its prefix
/// entry through the prefix-fingerprint scheme instead of missing.
#[derive(Debug)]
pub struct EvolvingSetsCache {
    inner: Mutex<Inner>,
}

// Entries are the `Arc`s the miner publishes, never copies: one state
// cached under its content, origin and sibling keys is one allocation, and its
// segment runs are shared with the states of neighbouring revisions. The
// critical section of a hit is one reference bump: the miner copies the
// sets it needs outside the lock, keeping the parallel warm-extraction
// path from serializing on the mutex. Each entry carries the generation
// stamp of its last touch for the revision GC.
#[derive(Debug, Default)]
struct Inner {
    entries: HashMap<ExtractionKey, (Arc<ExtractionState>, u64)>,
    insertion_order: VecDeque<ExtractionKey>,
    capacity: usize,
    generation: u64,
    stats: ExtractionCacheStats,
}

impl EvolvingSetsCache {
    /// Creates a cache with [`DEFAULT_EXTRACTION_CAPACITY`].
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_EXTRACTION_CAPACITY)
    }

    /// Creates a cache that keeps at most `capacity` series entries.
    pub fn with_capacity(capacity: usize) -> Self {
        EvolvingSetsCache {
            inner: Mutex::new(Inner {
                capacity: capacity.max(1),
                ..Inner::default()
            }),
        }
    }

    /// Current counters.
    pub fn stats(&self) -> ExtractionCacheStats {
        let inner = self.inner.lock();
        ExtractionCacheStats {
            entries: inner.entries.len(),
            ..inner.stats
        }
    }

    /// Removes every entry (statistics are kept).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.entries.clear();
        inner.insertion_order.clear();
    }

    /// Advances the cache's generation counter. The server calls this once
    /// per dataset revision bump (append, trim, re-registration); entries
    /// untouched for [`DEFAULT_KEEP_GENERATIONS`] generations become
    /// eligible for [`EvolvingSetsCache::collect_superseded`]. Returns the
    /// new generation.
    pub fn bump_generation(&self) -> u64 {
        let mut inner = self.inner.lock();
        inner.generation += 1;
        inner.generation
    }

    /// Garbage-collects entries whose last touch is more than
    /// `keep_generations` generation bumps old — the extraction-tier
    /// stale-revision fix: superseded prefix states and out-of-window
    /// pre-trim states stop occupying capacity once no mining pass can use
    /// them. Returns how many entries were collected.
    pub fn collect_superseded(&self, keep_generations: u64) -> usize {
        let mut inner = self.inner.lock();
        let horizon = inner.generation.saturating_sub(keep_generations);
        if horizon == 0 {
            return 0;
        }
        let before = inner.entries.len();
        inner.entries.retain(|_, (_, touched)| *touched >= horizon);
        let removed = before - inner.entries.len();
        if removed > 0 {
            let entries = std::mem::take(&mut inner.entries);
            inner.insertion_order.retain(|k| entries.contains_key(k));
            inner.entries = entries;
            inner.stats.evicted += removed;
        }
        removed
    }

    fn lookup(&self, key: &ExtractionKey, probe: Probe) -> Option<Arc<ExtractionState>> {
        let mut inner = self.inner.lock();
        let generation = inner.generation;
        let found = inner.entries.get_mut(key).map(|(state, touched)| {
            *touched = generation;
            Arc::clone(state)
        });
        let stats = &mut inner.stats;
        match (probe, found.is_some()) {
            (Probe::Content, true) => stats.hits += 1,
            (Probe::Content, false) => stats.misses += 1,
            (Probe::Prefix, true) => stats.prefix_hits += 1,
            (Probe::Prefix, false) => stats.prefix_misses += 1,
            (Probe::Sibling, _) => {}
        }
        found
    }

    fn store(&self, key: ExtractionKey, state: Arc<ExtractionState>) {
        let mut inner = self.inner.lock();
        if !inner.entries.contains_key(&key) {
            inner.insertion_order.push_back(key);
        }
        let generation = inner.generation;
        inner.entries.insert(key, (state, generation));
        while inner.entries.len() > inner.capacity {
            let Some(oldest) = inner.insertion_order.pop_front() else {
                break;
            };
            inner.entries.remove(&oldest);
        }
    }
}

impl Default for EvolvingSetsCache {
    fn default() -> Self {
        Self::new()
    }
}

/// Which [`EvolvingCache`] probe a lookup answers, for the counters.
#[derive(Debug, Clone, Copy)]
enum Probe {
    /// Counted in `hits`/`misses`.
    Content,
    /// Counted in `prefix_hits`/`prefix_misses`.
    Prefix,
    /// Counted nowhere: the miner tallies the rescans it runs.
    Sibling,
}

impl EvolvingCache for EvolvingSetsCache {
    fn get(&self, key: &ExtractionKey) -> Option<Arc<ExtractionState>> {
        self.lookup(key, Probe::Content)
    }

    fn get_prefix(&self, key: &ExtractionKey) -> Option<Arc<ExtractionState>> {
        self.lookup(key, Probe::Prefix)
    }

    fn get_sibling(&self, key: &ExtractionKey) -> Option<Arc<ExtractionState>> {
        self.lookup(key, Probe::Sibling)
    }

    fn put(&self, key: ExtractionKey, state: Arc<ExtractionState>) {
        self.store(key, state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miscela_core::evolving::{extract_resume, extract_state, series_fingerprint};
    use miscela_core::Extraction;
    use miscela_model::TimeSeries;

    fn series(shift: f64) -> TimeSeries {
        TimeSeries::from_values(
            (0..96)
                .map(|i| ((i as f64) * 0.4).sin() * 3.0 + shift)
                .collect(),
        )
    }

    /// The content key of a series at ε 0.5 with no segmentation.
    fn key(s: &TimeSeries) -> ExtractionKey {
        ExtractionKey::from_fingerprint(series_fingerprint(s), Extraction::new(0.5, false, 0.0))
    }

    /// The state stored under [`key`].
    fn state(s: &TimeSeries) -> Arc<ExtractionState> {
        Arc::new(extract_state(s, Extraction::new(0.5, false, 0.0)))
    }

    #[test]
    fn get_put_round_trip_and_stats() {
        let cache = EvolvingSetsCache::new();
        let s = series(0.0);
        let key = key(&s);
        assert!(cache.get(&key).is_none());
        let state = state(&s);
        cache.put(key, Arc::clone(&state));
        assert!(Arc::ptr_eq(&cache.get(&key).unwrap(), &state));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!((stats.prefix_hits, stats.prefix_misses), (0, 0));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn prefix_states_round_trip_and_seed_resume() {
        let cache = EvolvingSetsCache::new();
        let full =
            TimeSeries::from_values((0..160).map(|i| ((i as f64) * 0.3).sin() * 4.0).collect());
        let x = Extraction::new(0.5, true, 0.05);
        let prefix = full.window(0, 120);
        let pkey = ExtractionKey::from_fingerprint(series_fingerprint(&prefix), x);
        let state = extract_state(&prefix, x);
        cache.put(pkey, Arc::new(state.clone()));
        // The appended series' prefix key is the prefix's own key.
        let prefix_key = |end: usize| {
            ExtractionKey::from_fingerprint(full.prefix_fingerprints(&[end])[0].content, x)
        };
        assert_eq!(pkey, prefix_key(120));
        let recovered = cache.get_prefix(&pkey).unwrap();
        assert_eq!(*recovered, state);
        let resumed = extract_resume(&full, x, &recovered);
        assert_eq!(resumed, extract_state(&full, x));
        let stats = cache.stats();
        assert_eq!(stats.prefix_hits, 1);
        assert_eq!(stats.prefix_misses, 0);
        // An unknown prefix misses and is counted separately.
        assert!(cache.get_prefix(&prefix_key(60)).is_none());
        assert_eq!(cache.stats().prefix_misses, 1);
    }

    #[test]
    fn sibling_probes_count_in_no_counter() {
        let cache = EvolvingSetsCache::new();
        let s = series(0.0);
        let x = Extraction::new(0.5, true, 0.05);
        let sibling = ExtractionKey::sibling(series_fingerprint(&s), x);
        assert!(cache.get_sibling(&sibling).is_none());
        let state = Arc::new(extract_state(&s, x));
        cache.put(sibling, Arc::clone(&state));
        assert!(Arc::ptr_eq(&cache.get_sibling(&sibling).unwrap(), &state));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 0));
        assert_eq!((stats.prefix_hits, stats.prefix_misses), (0, 0));
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn keys_distinguish_content_and_parameters() {
        let a = series(0.0);
        let b = series(1.0);
        let key_of = |s: &TimeSeries, eps: f64, seg: bool, tol: f64| {
            ExtractionKey::from_fingerprint(series_fingerprint(s), Extraction::new(eps, seg, tol))
        };
        let base = key_of(&a, 0.5, false, 0.0);
        assert_ne!(base, key_of(&b, 0.5, false, 0.0));
        assert_ne!(base, key_of(&a, 0.6, false, 0.0));
        assert_ne!(base, key_of(&a, 0.5, true, 0.05));
        // A disabled tolerance does not split the key space.
        assert_eq!(base, key_of(&a, 0.5, true, 0.0));
        assert_eq!(base, key_of(&a, 0.5, false, 0.05));
        // Missingness patterns are part of the fingerprint.
        let mut gapped = a.clone();
        gapped.clear(10);
        assert_ne!(base, key_of(&gapped, 0.5, false, 0.0));

        // The three key families of one fingerprint never meet, at ε 0
        // (which a sibling key leaves out) as at any other ε.
        let fp = series_fingerprint(&a);
        for eps in [0.0, 0.5] {
            let x = Extraction::new(eps, true, 0.05);
            let content = ExtractionKey::from_fingerprint(fp, x);
            let origin = ExtractionKey::from_origin_fingerprint(fp, x);
            let sibling = ExtractionKey::sibling(fp, x);
            assert_ne!(content, origin);
            assert_ne!(content, sibling);
            assert_ne!(origin, sibling);
        }
        // A sibling key ignores ε but not the content or the tolerance.
        let sibling_of = |s: &TimeSeries, eps: f64, tol: f64| {
            ExtractionKey::sibling(series_fingerprint(s), Extraction::new(eps, true, tol))
        };
        let sibling = sibling_of(&a, 0.5, 0.05);
        assert_eq!(sibling, sibling_of(&a, 0.0, 0.05));
        assert_eq!(sibling, sibling_of(&a, 2.5, 0.05));
        assert_ne!(sibling, sibling_of(&b, 0.5, 0.05));
        assert_ne!(sibling, sibling_of(&a, 0.5, 0.1));
    }

    #[test]
    fn generation_gc_collects_untouched_entries_and_keeps_hot_ones() {
        let cache = EvolvingSetsCache::new();
        let hot = series(1.0);
        let cold = series(2.0);
        let hot_key = key(&hot);
        let cold_key = key(&cold);
        cache.put(hot_key, state(&hot));
        cache.put(cold_key, state(&cold));
        // Bump through `keep` generations, touching only the hot entry:
        // the cold entry (stamped at generation 0) survives while the
        // horizon has not passed it.
        for _ in 0..3 {
            cache.bump_generation();
            assert!(cache.get(&hot_key).is_some());
            assert_eq!(cache.collect_superseded(3), 0);
        }
        // One more bump pushes the cold entry past the horizon.
        cache.bump_generation();
        assert!(cache.get(&hot_key).is_some());
        assert_eq!(cache.collect_superseded(3), 1);
        assert!(cache.get(&cold_key).is_none());
        assert!(cache.get(&hot_key).is_some());
        let stats = cache.stats();
        assert_eq!(stats.evicted, 1);
        assert_eq!(stats.entries, 1);
        // Re-inserting after GC works (insertion order was compacted).
        cache.put(cold_key, state(&cold));
        assert!(cache.get(&cold_key).is_some());
    }

    #[test]
    fn capacity_evicts_oldest() {
        let cache = EvolvingSetsCache::with_capacity(2);
        let keys: Vec<ExtractionKey> = (0..3).map(|i| key(&series(i as f64))).collect();
        let state = state(&series(0.0));
        for &k in &keys {
            cache.put(k, Arc::clone(&state));
        }
        assert!(cache.get(&keys[0]).is_none());
        assert!(cache.get(&keys[1]).is_some());
        assert!(cache.get(&keys[2]).is_some());
    }

    #[test]
    fn concurrent_access() {
        let cache = Arc::new(EvolvingSetsCache::new());
        let mut handles = Vec::new();
        for t in 0..4 {
            let cache = Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                for i in 0..20 {
                    let s = series((t * 100 + i) as f64);
                    let key = key(&s);
                    cache.put(key, state(&s));
                    assert!(cache.get(&key).is_some());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cache.stats().entries, 80);
    }
}
