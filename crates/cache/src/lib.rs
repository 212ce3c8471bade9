//! # miscela-cache
//!
//! The caching mechanism of Miscela-V (Section 3.3 of the paper):
//!
//! > "Miscela may take a long time for finding CAPs depending on data and
//! > user-specified parameters. For efficient interactive analysis, Miscela-V
//! > caches CAP mining results and reuses the cached results if users specify
//! > the same parameter setting. [...] We store the name of the dataset,
//! > parameters, and CAPs (i.e., a set of sets of sensors) to the database.
//! > Before computing CAPs by Miscela, our system searches for CAPs with the
//! > same parameters and the name of the dataset from the database."
//!
//! [`CacheKey`] is (dataset name, revision, trim offset, parameters),
//! where [`miscela_core::MiningParams`]' `Eq` decides which parameter
//! settings are the same. [`PersistentCache`] is the result cache: a
//! memory tier with hit/miss statistics in front of JSON documents in a
//! [`miscela_store::Database`] collection (the MongoDB substitute), each
//! stored under one key text built from every field of its [`CacheKey`].
//! Cached results survive a restart when a durable service reopens over
//! the saved store: recovery brings each dataset back at its revision, so
//! its keys match again. Each entry is a [`CachedCaps`]: the CAPs plus
//! their JSON text, encoded once and shared by both tiers and the
//! responses.
//!
//! [`EvolvingSetsCache`] is the front-end companion: a per-series cache of
//! extraction results keyed by series content fingerprint and the
//! parameters steps (1)+(2) depend on, so re-mining with tweaked
//! search-side parameters (ψ, η, μ) skips segmentation and extraction
//! entirely. Entries retain the full extraction state (evolving sets plus
//! segmentation), and appended series reuse their cached *prefix* through
//! rolling-fingerprint keys instead of missing — the cache side of the
//! streaming append pipeline. [`CacheKey`] carries the dataset revision
//! and sliding-window trim offset, so results mined from superseded or
//! trimmed content become unreachable by key; the revision GC
//! ([`PersistentCache::evict_superseded`],
//! [`EvolvingSetsCache::collect_superseded`]) then reclaims those dead
//! entries instead of letting them leak until capacity pressure.
//!
//! # Example
//!
//! ```
//! use miscela_cache::{CacheKey, PersistentCache};
//! use miscela_core::{CapSet, MiningParams};
//! use miscela_store::Database;
//! use std::sync::Arc;
//!
//! let cache = PersistentCache::new(Arc::new(Database::new()));
//! let params = MiningParams::new().with_psi(20);
//! let key = CacheKey::for_state("santander", 0, 0, &params);
//!
//! assert!(cache.get(&key).is_none()); // miss: would trigger mining
//! let text = cache.put(&key, &CapSet::new());
//! assert_eq!(&*text, "[]"); // the CAPs' JSON, encoded once
//! let hit = cache.get(&key).unwrap(); // hit: mining skipped
//! assert!(Arc::ptr_eq(&hit.text, &text)); // both tiers share the text
//!
//! let stats = cache.stats();
//! assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
//! assert_eq!(cache.stored_results(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Nothing the cache reads (stored documents, JSON) may panic the process:
// a failure is a miss or a typed error.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod codec;
pub mod extraction;
pub mod key;
pub mod persistent;

pub use extraction::{EvolvingSetsCache, ExtractionCacheStats, DEFAULT_KEEP_GENERATIONS};
pub use key::CacheKey;
pub use persistent::{CacheStats, CachedCaps, PersistentCache};
