//! Store-backed cache: CAP results persisted as documents.
//!
//! This is the faithful counterpart of the paper's mechanism: results live
//! in a database collection (`cap_results`) keyed by dataset name and
//! parameter signature ([`miscela_core::MiningParams::signature`], the text
//! form of the parameters' identity), and the documents can be inspected
//! through the store's query API. Cached results survive a restart when a
//! durable service reopens over the saved store: recovery re-registers each
//! dataset at its revision, so a repeated request is answered without
//! re-mining. A stored document whose signature is not this exact text
//! (older stores wrote 6-decimal text) simply misses; dataset invalidation
//! and the revision GC still collect it.
//!
//! Each result is encoded once: the memory tier keeps its [`CachedCaps`],
//! and the stored document's `caps` field is the same shared text as a
//! [`Json::Raw`], so a document written to disk has the bytes a tree would
//! have written. A store loaded from disk holds `caps` as a parsed tree;
//! both forms serve hits.

use crate::codec::capset_from_json;
use crate::key::CacheKey;
use crate::memory::{CacheStats, CachedCaps, ResultCache};
use miscela_core::CapSet;
use miscela_store::{Database, Filter, Json};
use std::sync::Arc;

/// Name of the collection holding cached CAP results.
pub const RESULTS_COLLECTION: &str = "cap_results";

/// A two-level cache: an in-memory [`ResultCache`] in front of a
/// [`Database`] collection.
#[derive(Debug)]
pub struct PersistentCache {
    db: Arc<Database>,
    memory: ResultCache,
}

impl PersistentCache {
    /// Creates the cache over a shared database, declaring the indexes the
    /// lookups need.
    pub fn new(db: Arc<Database>) -> Self {
        db.create_collection(RESULTS_COLLECTION);
        db.create_index(RESULTS_COLLECTION, "dataset");
        db.create_index(RESULTS_COLLECTION, "signature");
        PersistentCache {
            db,
            memory: ResultCache::new(),
        }
    }

    /// Looks up a cached result, first in memory, then in the store. The
    /// memory tier counts the lookup as a hit or a miss.
    pub fn get(&self, key: &CacheKey) -> Option<CachedCaps> {
        self.memory.get(key).or_else(|| self.load(key))
    }

    /// Looks up a cached result like [`PersistentCache::get`] without
    /// counting a hit or a miss: the second look of a lookup that already
    /// counted.
    pub fn peek(&self, key: &CacheKey) -> Option<CachedCaps> {
        self.memory.peek(key).or_else(|| self.load(key))
    }

    /// Reads a result from the store tier and promotes it to the memory
    /// tier.
    fn load(&self, key: &CacheKey) -> Option<CachedCaps> {
        let doc = self.db.find_one(RESULTS_COLLECTION, &key_filter(key))?;
        let cached = match doc.get("caps")? {
            // Written by `put`: keep sharing its text.
            Json::Raw(text) => CachedCaps {
                caps: capset_from_json(&Json::parse(text).ok()?)?,
                text: Arc::clone(text),
            },
            tree => CachedCaps::new(capset_from_json(tree)?),
        };
        // Promote to the memory tier for subsequent lookups.
        self.memory.put(key.clone(), cached.clone());
        Some(cached)
    }

    /// Stores a result under a key (replacing any previous entry for the
    /// same key). Returns the CAPs' JSON text, encoded once and shared by
    /// both tiers.
    pub fn put(&self, key: &CacheKey, caps: &CapSet) -> Arc<str> {
        let cached = CachedCaps::new(caps.clone());
        let text = Arc::clone(&cached.text);
        self.db.delete_where(RESULTS_COLLECTION, &key_filter(key));
        let mut doc = Json::object();
        doc.set("dataset", Json::from(key.dataset.as_str()));
        doc.set("revision", Json::from(key.revision as i64));
        doc.set("trimmed", Json::from(key.trimmed as i64));
        doc.set("signature", Json::from(key.params.signature()));
        doc.set("cap_count", Json::from(caps.len()));
        doc.set("caps", Json::Raw(Arc::clone(&text)));
        self.db.insert(RESULTS_COLLECTION, doc);
        self.memory.put(key.clone(), cached);
        text
    }

    /// Removes every cached result for a dataset. Returns how many store
    /// documents were removed.
    pub fn invalidate_dataset(&self, dataset: &str) -> usize {
        self.memory.invalidate_dataset(dataset);
        self.db
            .delete_where(RESULTS_COLLECTION, &Filter::eq("dataset", dataset))
    }

    /// Garbage-collects every result of `dataset` mined at a revision older
    /// than `current_revision`, in both tiers. Without this, the
    /// revision-partitioned store grows one dead generation per append —
    /// the stale-revision leak. Returns the total number of entries
    /// collected (memory + store).
    pub fn evict_superseded(&self, dataset: &str, current_revision: u64) -> usize {
        let from_memory = self.memory.evict_superseded(dataset, current_revision);
        // Collect documents below the live revision, plus legacy documents
        // written before the `revision`/`trimmed` fields existed: those are
        // unreachable by `key_filter` (equality on a missing field never
        // matches) but `Filter::Lt` would never match them either, so
        // without the explicit `Exists` arms they would linger forever.
        let from_store = self.db.delete_where(
            RESULTS_COLLECTION,
            &Filter::And(vec![
                Filter::eq("dataset", dataset),
                Filter::Or(vec![
                    Filter::Lt("revision".to_string(), current_revision as f64),
                    Filter::Not(Box::new(Filter::Exists("revision".to_string()))),
                    Filter::Not(Box::new(Filter::Exists("trimmed".to_string()))),
                ]),
            ]),
        );
        self.memory.record_evictions(from_store);
        from_memory + from_store
    }

    /// Number of results stored in the database tier.
    pub fn stored_results(&self) -> usize {
        self.db.count(RESULTS_COLLECTION, &Filter::All)
    }

    /// In-memory tier statistics.
    pub fn stats(&self) -> CacheStats {
        self.memory.stats()
    }

    /// The underlying database handle.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }
}

/// The store filter selecting exactly one key's document. Documents written
/// before revisions (or the trim offset) existed lack those fields and are
/// simply never matched again; [`PersistentCache::evict_superseded`]
/// explicitly collects such field-less legacy documents (equality and `Lt`
/// both skip missing fields, so the GC matches on non-existence instead).
fn key_filter(key: &CacheKey) -> Filter {
    Filter::and([
        Filter::eq("dataset", key.dataset.as_str()),
        Filter::eq("revision", Json::from(key.revision as i64)),
        Filter::eq("trimmed", Json::from(key.trimmed as i64)),
        Filter::eq("signature", key.params.signature()),
    ])
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
        // The promotion into memory counts one miss then later hits.
        assert!(fresh.get(&key).is_some());
        assert!(fresh.stats().hits >= 1);
    }

    #[test]
    fn documents_share_the_text_and_trees_still_hit() {
        let db = Arc::new(Database::new());
        let key = CacheKey::for_state("santander", 0, 0, &MiningParams::default());
        let text = PersistentCache::new(Arc::clone(&db)).put(&key, &sample_caps());
        let doc = db.find_one(RESULTS_COLLECTION, &key_filter(&key)).unwrap();
        match doc.get("caps") {
            Some(Json::Raw(stored)) => assert!(Arc::ptr_eq(stored, &text)),
            other => panic!("caps should be the shared text, got {other:?}"),
        }
        // It serializes as the tree would, so files on disk do not change.
        let mut tree = doc.body.clone();
        tree.set("caps", capset_to_json(&sample_caps()));
        assert_eq!(doc.body.to_string_compact(), tree.to_string_compact());
        // A store loaded from disk holds the parsed tree instead.
        let loaded = Arc::new(Database::new());
        loaded.insert(
            RESULTS_COLLECTION,
            Json::parse(&doc.body.to_string_compact()).unwrap(),
        );
        let hit = PersistentCache::new(loaded).get(&key).unwrap();
        assert_eq!((hit.caps, hit.text), (sample_caps(), text));
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
        cache.database().insert(RESULTS_COLLECTION, legacy);
        assert_eq!(cache.evict_superseded("santander", 3), 1);
        // The live santander revision and the china6 result both remain.
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
