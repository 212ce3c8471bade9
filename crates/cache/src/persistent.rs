//! The result cache: decoded CAP results in memory, in front of JSON
//! documents in a store collection.
//!
//! This is the paper's mechanism (Section 3.3): each result is stored in a
//! database collection (`cap_results`) under one key text built from every
//! [`CacheKey`] field — dataset, revision, trim offset and the exact
//! parameter signature ([`miscela_core::MiningParams::signature`]) — and a
//! lookup reads that one key. Cached results survive a restart when a
//! durable service reopens over the saved store: recovery re-registers each
//! dataset at its revision, so a repeated request is answered without
//! re-mining. Documents that lack `revision` or `trimmed` (written before
//! those fields existed) are reached by no key; dataset invalidation and
//! the revision GC still collect them.
//!
//! Each result is encoded once: the memory tier keeps its [`CachedCaps`],
//! and the stored document's `caps` field is the same shared text as a
//! [`Json::Raw`], so a document written to disk has the bytes a tree would
//! have written. A store loaded from disk holds `caps` as a parsed tree;
//! both forms serve hits. A saved store is input from outside the process,
//! so a document that does not decode is a miss.

use crate::codec::{capset_from_json, capset_to_text};
use crate::key::CacheKey;
use miscela_core::CapSet;
use miscela_store::{Database, Json};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Name of the collection holding cached CAP results.
pub const RESULTS_COLLECTION: &str = "cap_results";

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

/// Hit/miss counters of the result cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of lookups answered from the cache, by either tier.
    pub hits: usize,
    /// Number of lookups that required mining.
    pub misses: usize,
    /// Number of results held in the memory tier.
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

/// The result cache: an unbounded memory tier in front of a [`Database`]
/// collection. Entries leave only when their dataset is invalidated or
/// their revision is superseded.
#[derive(Debug)]
pub struct PersistentCache {
    db: Arc<Database>,
    memory: Mutex<Memory>,
}

/// The memory tier and the lookup counters.
#[derive(Debug, Default)]
struct Memory {
    entries: HashMap<CacheKey, CachedCaps>,
    hits: usize,
    misses: usize,
    evicted: usize,
}

impl PersistentCache {
    /// Creates the cache over a shared database.
    pub fn new(db: Arc<Database>) -> Self {
        PersistentCache {
            db,
            memory: Mutex::default(),
        }
    }

    /// Looks up a cached result, first in memory, then in the store, and
    /// counts the lookup once: a hit when either tier answers, a miss
    /// otherwise.
    pub fn get(&self, key: &CacheKey) -> Option<CachedCaps> {
        let found = self.peek(key);
        let mut memory = self.memory.lock();
        match found {
            Some(_) => memory.hits += 1,
            None => memory.misses += 1,
        }
        found
    }

    /// Looks up a cached result like [`PersistentCache::get`] without
    /// counting it: the second look of a lookup that already counted. A
    /// result the store answers is promoted to the memory tier.
    pub fn peek(&self, key: &CacheKey) -> Option<CachedCaps> {
        if let Some(hit) = self.memory.lock().entries.get(key) {
            return Some(hit.clone());
        }
        let doc = self.db.get(RESULTS_COLLECTION, &key.to_string())?;
        let cached = match doc.get("caps")? {
            // Written by `put`: keep sharing its text.
            Json::Raw(text) => CachedCaps {
                caps: capset_from_json(&Json::parse(text).ok()?)?,
                text: Arc::clone(text),
            },
            tree => CachedCaps::new(capset_from_json(tree)?),
        };
        self.memory
            .lock()
            .entries
            .insert(key.clone(), cached.clone());
        Some(cached)
    }

    /// Stores a result under a key in both tiers (replacing any previous
    /// entry for the same key). Returns the CAPs' JSON text, encoded once
    /// and shared by both tiers.
    pub fn put(&self, key: &CacheKey, caps: &CapSet) -> Arc<str> {
        let cached = CachedCaps::new(caps.clone());
        let text = Arc::clone(&cached.text);
        let doc = Json::from_pairs([
            ("dataset", Json::from(key.dataset.as_str())),
            ("revision", Json::from(key.revision as i64)),
            ("trimmed", Json::from(key.trimmed as i64)),
            ("signature", Json::from(key.params.signature())),
            ("cap_count", Json::from(caps.len())),
            ("caps", Json::Raw(Arc::clone(&text))),
        ]);
        self.db.put(RESULTS_COLLECTION, key.to_string(), doc);
        self.memory.lock().entries.insert(key.clone(), cached);
        text
    }

    /// Removes every cached result for a dataset from both tiers. Returns
    /// how many store documents were removed.
    pub fn invalidate_dataset(&self, dataset: &str) -> usize {
        self.memory
            .lock()
            .entries
            .retain(|k, _| k.dataset != dataset);
        self.db
            .retain(RESULTS_COLLECTION, |doc| !of_dataset(doc, dataset))
    }

    /// Garbage-collects every result of `dataset` mined at a revision older
    /// than `current_revision`, in both tiers. Without this, the
    /// revision-partitioned store grows one dead generation per append —
    /// the stale-revision leak. Returns the total number of entries
    /// collected (memory + store).
    pub fn evict_superseded(&self, dataset: &str, current_revision: u64) -> usize {
        let from_memory = {
            let mut memory = self.memory.lock();
            let before = memory.entries.len();
            memory
                .entries
                .retain(|k, _| k.dataset != dataset || k.revision >= current_revision);
            before - memory.entries.len()
        };
        // Collect documents below the live revision, plus legacy documents
        // written before the `revision`/`trimmed` fields existed: no key
        // reaches them, so without this they would linger forever.
        let live = current_revision as f64;
        let from_store = self.db.retain(RESULTS_COLLECTION, |doc| {
            let missing = |field| doc.get(field).is_none_or(Json::is_null);
            let below = doc
                .get("revision")
                .and_then(Json::as_f64)
                .is_some_and(|r| r < live);
            !(of_dataset(doc, dataset) && (below || missing("revision") || missing("trimmed")))
        });
        self.memory.lock().evicted += from_memory + from_store;
        from_memory + from_store
    }

    /// Number of results stored in the database tier.
    pub fn stored_results(&self) -> usize {
        self.db.len(RESULTS_COLLECTION)
    }

    /// Lookup counters, with the memory tier's entry count.
    pub fn stats(&self) -> CacheStats {
        let memory = self.memory.lock();
        CacheStats {
            hits: memory.hits,
            misses: memory.misses,
            entries: memory.entries.len(),
            evicted: memory.evicted,
        }
    }

    /// The underlying database handle.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }
}

/// Whether a stored result was mined from `dataset`.
fn of_dataset(doc: &Json, dataset: &str) -> bool {
    doc.get("dataset").and_then(Json::as_str) == Some(dataset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::capset_to_json;
    use miscela_core::{Cap, CapMember, Direction, MiningParams};
    use miscela_model::{AttributeId, SensorIndex};

    fn sample_caps() -> CapSet {
        CapSet::from_caps(vec![Cap::new(
            vec![
                CapMember {
                    sensor: SensorIndex(0),
                    direction: Direction::Up,
                },
                CapMember {
                    sensor: SensorIndex(1),
                    direction: Direction::Up,
                },
            ],
            [AttributeId(0), AttributeId(1)].into_iter().collect(),
            vec![3, 5, 8],
        )])
    }

    fn key(dataset: &str, psi: usize) -> CacheKey {
        CacheKey::for_state(dataset, 0, 0, &MiningParams::default().with_psi(psi))
    }

    #[test]
    fn get_put_and_stats() {
        let cache = PersistentCache::new(Arc::new(Database::new()));
        let k = key("santander", 10);
        assert!(cache.get(&k).is_none());
        cache.put(&k, &CapSet::new());
        assert!(cache.get(&k).is_some());
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
    fn hit_rate_zero_without_lookups() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn concurrent_access() {
        let cache = Arc::new(PersistentCache::new(Arc::new(Database::new())));
        let mut handles = Vec::new();
        for t in 0..4 {
            let cache = Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                for i in 0..25 {
                    let k = key(&format!("d{t}"), i);
                    cache.put(&k, &CapSet::new());
                    assert!(cache.get(&k).is_some());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cache.stats().entries, 100);
        assert_eq!(cache.stats().hits, 100);
        assert_eq!(cache.stored_results(), 100);
    }

    #[test]
    fn put_get_round_trip() {
        let cache = PersistentCache::new(Arc::new(Database::new()));
        let key = CacheKey::for_state("santander", 0, 0, &MiningParams::default());
        assert!(cache.get(&key).is_none());
        cache.put(&key, &sample_caps());
        assert_eq!(cache.get(&key).unwrap().caps, sample_caps());
        assert_eq!(cache.stored_results(), 1);
        // Replacing the same key does not duplicate documents.
        cache.put(&key, &CapSet::new());
        assert_eq!(cache.stored_results(), 1);
        assert!(cache.get(&key).unwrap().caps.is_empty());
    }

    #[test]
    fn survives_memory_loss() {
        // Simulates a server restart: a new PersistentCache over the same
        // database still answers from the store tier.
        let db = Arc::new(Database::new());
        let key = CacheKey::for_state("santander", 0, 0, &MiningParams::default());
        {
            let cache = PersistentCache::new(Arc::clone(&db));
            cache.put(&key, &sample_caps());
        }
        let fresh = PersistentCache::new(Arc::clone(&db));
        let got = fresh.get(&key).expect("store tier should answer");
        assert_eq!(got.caps, sample_caps());
        // The store tier's answer counts as a hit and is promoted to the
        // memory tier, which answers the next lookup.
        assert!(fresh.get(&key).is_some());
        let stats = fresh.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 0, 1));
    }

    #[test]
    fn documents_share_the_text_and_trees_still_hit() {
        let db = Arc::new(Database::new());
        let key = CacheKey::for_state("santander", 0, 0, &MiningParams::default());
        let text = PersistentCache::new(Arc::clone(&db)).put(&key, &sample_caps());
        let doc = db.get(RESULTS_COLLECTION, &key.to_string()).unwrap();
        match doc.get("caps") {
            Some(Json::Raw(stored)) => assert!(Arc::ptr_eq(stored, &text)),
            other => panic!("caps should be the shared text, got {other:?}"),
        }
        // It serializes as the tree would, so files on disk do not change.
        let mut tree = doc.clone();
        tree.set("caps", capset_to_json(&sample_caps()));
        assert_eq!(doc.to_string_compact(), tree.to_string_compact());
        // A store loaded from disk holds the parsed tree instead.
        let loaded = Arc::new(Database::new());
        loaded.put(
            RESULTS_COLLECTION,
            key.to_string(),
            Json::parse(&doc.to_string_compact()).unwrap(),
        );
        let hit = PersistentCache::new(loaded).get(&key).unwrap();
        assert_eq!((hit.caps, hit.text), (sample_caps(), text));
    }

    #[test]
    fn documents_that_do_not_decode_miss() {
        let db = Arc::new(Database::new());
        let key = CacheKey::for_state("santander", 0, 0, &MiningParams::default());
        let cache = PersistentCache::new(Arc::clone(&db));
        for caps in [
            r#"[{"members":[]}]"#,
            "7",
            r#"[{"members":[{"sensor":-1,"direction":"+"}],"attributes":[],"timestamps":[]}]"#,
        ] {
            db.put(
                RESULTS_COLLECTION,
                key.to_string(),
                Json::from_pairs([("caps", Json::parse(caps).unwrap())]),
            );
            assert!(cache.get(&key).is_none(), "{caps}");
        }
        db.put(RESULTS_COLLECTION, key.to_string(), Json::object());
        assert!(cache.get(&key).is_none());
        assert_eq!((cache.stats().hits, cache.stats().misses), (0, 4));
    }

    #[test]
    fn distinct_parameters_are_distinct_entries() {
        let cache = PersistentCache::new(Arc::new(Database::new()));
        let k1 = CacheKey::for_state("santander", 0, 0, &MiningParams::default().with_psi(5));
        let k2 = CacheKey::for_state("santander", 0, 0, &MiningParams::default().with_psi(10));
        cache.put(&k1, &sample_caps());
        cache.put(&k2, &CapSet::new());
        assert_eq!(cache.stored_results(), 2);
        assert_eq!(cache.get(&k1).unwrap().caps.len(), 1);
        assert!(cache.get(&k2).unwrap().caps.is_empty());
    }

    #[test]
    fn revisions_partition_the_key_space() {
        let cache = PersistentCache::new(Arc::new(Database::new()));
        let params = MiningParams::default();
        let r1 = CacheKey::for_state("santander", 1, 0, &params);
        let r2 = CacheKey::for_state("santander", 2, 0, &params);
        cache.put(&r1, &sample_caps());
        // The appended dataset's revision misses even though name and
        // parameters match — versioned invalidation without any explicit
        // invalidate call.
        assert!(cache.get(&r2).is_none());
        cache.put(&r2, &CapSet::new());
        assert_eq!(cache.get(&r1).unwrap().caps, sample_caps());
        assert!(cache.get(&r2).unwrap().caps.is_empty());
        assert_eq!(cache.stored_results(), 2);
        // Dataset-level invalidation still clears every revision.
        assert_eq!(cache.invalidate_dataset("santander"), 2);
    }

    #[test]
    fn evict_superseded_collects_only_dead_revisions() {
        let cache = PersistentCache::new(Arc::new(Database::new()));
        let params = MiningParams::default();
        for r in 1..=3u64 {
            cache.put(
                &CacheKey::for_state("santander", r, 0, &params),
                &sample_caps(),
            );
        }
        cache.put(
            &CacheKey::for_state("china6", 1, 0, &params),
            &sample_caps(),
        );
        // Collect everything of santander below revision 3: two memory
        // entries and two store documents.
        assert_eq!(cache.evict_superseded("santander", 3), 4);
        assert!(cache
            .get(&CacheKey::for_state("santander", 2, 0, &params))
            .is_none());
        assert!(cache
            .get(&CacheKey::for_state("santander", 3, 0, &params))
            .is_some());
        // Other datasets are untouched.
        assert!(cache
            .get(&CacheKey::for_state("china6", 1, 0, &params))
            .is_some());
        assert_eq!(cache.stored_results(), 2);
        assert_eq!(cache.stats().evicted, 4);
        // Nothing further to collect.
        assert_eq!(cache.evict_superseded("santander", 3), 0);
        // Legacy documents written before the revision/trimmed fields
        // existed are unreachable by key; the GC must still collect them.
        let mut legacy = Json::object();
        legacy.set("dataset", Json::from("santander"));
        legacy.set("signature", Json::from("old"));
        cache
            .database()
            .put(RESULTS_COLLECTION, "legacy", legacy.clone());
        assert_eq!(cache.evict_superseded("santander", 3), 1);
        // The live santander revision and the china6 result both remain.
        assert_eq!(cache.stored_results(), 2);
        // A document with a live revision but no trim offset is legacy too.
        legacy.set("revision", Json::from(5i64));
        cache.database().put(RESULTS_COLLECTION, "legacy", legacy);
        assert_eq!(cache.evict_superseded("santander", 3), 1);
        assert_eq!(cache.stored_results(), 2);
    }

    #[test]
    fn evict_superseded_handles_multi_revision_jumps_after_replay() {
        // Crash recovery replays several committed append sessions in one
        // startup, so the live revision jumps by more than one step and the
        // GC runs against a cache whose memory tier is empty (the process
        // that filled it is gone). Every store document below the replayed
        // revision must go in a single sweep.
        let db = Arc::new(Database::new());
        let params = MiningParams::default();
        {
            let cache = PersistentCache::new(Arc::clone(&db));
            for r in 1..=4u64 {
                cache.put(
                    &CacheKey::for_state("santander", r, 0, &params),
                    &sample_caps(),
                );
            }
        }
        let fresh = PersistentCache::new(Arc::clone(&db));
        // Replay bumped 4 -> 7: revisions 1..=4 are all superseded at once.
        assert_eq!(fresh.evict_superseded("santander", 7), 4);
        assert_eq!(fresh.stored_results(), 0);
        for r in 1..=4u64 {
            assert!(fresh
                .get(&CacheKey::for_state("santander", r, 0, &params))
                .is_none());
        }
        // A result mined at the replayed revision is reachable again.
        let live = CacheKey::for_state("santander", 7, 0, &params);
        fresh.put(&live, &sample_caps());
        assert_eq!(fresh.evict_superseded("santander", 7), 0);
        assert_eq!(fresh.get(&live).unwrap().caps, sample_caps());
    }

    #[test]
    fn trim_offsets_partition_the_key_space() {
        let cache = PersistentCache::new(Arc::new(Database::new()));
        let params = MiningParams::default();
        let untrimmed = CacheKey::for_state("santander", 1, 0, &params);
        let trimmed = CacheKey::for_state("santander", 1, 256, &params);
        cache.put(&untrimmed, &sample_caps());
        // A post-trim window misses even at the same name/revision/params.
        assert!(cache.get(&trimmed).is_none());
        cache.put(&trimmed, &CapSet::new());
        assert_eq!(cache.get(&untrimmed).unwrap().caps, sample_caps());
        assert!(cache.get(&trimmed).unwrap().caps.is_empty());
        assert_eq!(cache.stored_results(), 2);
    }

    #[test]
    fn invalidate_dataset_clears_both_tiers() {
        let cache = PersistentCache::new(Arc::new(Database::new()));
        let k1 = CacheKey::for_state("santander", 0, 0, &MiningParams::default());
        let k2 = CacheKey::for_state("china6", 0, 0, &MiningParams::default());
        cache.put(&k1, &sample_caps());
        cache.put(&k2, &sample_caps());
        assert_eq!(cache.invalidate_dataset("santander"), 1);
        assert!(cache.get(&k1).is_none());
        assert!(cache.get(&k2).is_some());
        assert_eq!(cache.stored_results(), 1);
    }
}
