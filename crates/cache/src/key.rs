//! Cache keys: dataset name + revision + trim offset + parameters.

use miscela_core::MiningParams;
use std::fmt;

/// Identifies one cached mining result: the dataset it was mined from, the
/// dataset's revision and sliding-window trim offset at mining time, and
/// the exact parameter setting used.
///
/// The revision is the versioned-invalidation mechanism of the append-aware
/// pipeline: every append bumps the dataset's revision counter, so cached
/// results for older content become unreachable by key instead of relying
/// solely on explicit invalidation. The trim offset (total points the
/// retention window has dropped from the front) makes the key trim-aware as
/// defense in depth: even a caller that forgets to bump revisions on trim
/// can never serve a pre-trim result for a post-trim window.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Dataset name (the store key under which the dataset was uploaded).
    pub dataset: String,
    /// Dataset revision at mining time (0 when the caller does not track
    /// revisions).
    pub revision: u64,
    /// Total grid points the dataset's retention window had trimmed from
    /// the front at mining time (0 for unbounded datasets).
    pub trimmed: u64,
    /// The parameter setting; compared as [`MiningParams`]' `Eq` decides.
    pub params: MiningParams,
}

impl CacheKey {
    /// Builds the key for a dataset revision and trim offset.
    pub fn for_state(
        dataset: impl Into<String>,
        revision: u64,
        trimmed: u64,
        params: &MiningParams,
    ) -> Self {
        CacheKey {
            dataset: dataset.into(),
            revision,
            trimmed,
            params: params.clone(),
        }
    }
}

/// `{dataset}@r{revision}~{trimmed}::{signature}`: the key text a result
/// is stored under ([`crate::PersistentCache`]). It is one-to-one: the
/// signature holds no `:`, and the revision and trim offset are digits, so
/// reading from the right splits every text one way only.
impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}@r{}~{}::{}",
            self.dataset,
            self.revision,
            self.trimmed,
            self.params.signature()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_params_equal_keys() {
        let a = CacheKey::for_state("santander", 0, 0, &MiningParams::default());
        let b = CacheKey::for_state("santander", 0, 0, &MiningParams::default());
        assert_eq!(a, b);
        assert_eq!(a.to_string(), b.to_string());
        assert_eq!(a.revision, 0);
        assert_eq!(a.trimmed, 0);
    }

    #[test]
    fn different_params_dataset_revision_or_trim_differ() {
        let key = |dataset: &str, revision: u64, params: &MiningParams| {
            CacheKey::for_state(dataset, revision, 0, params)
        };
        let base = key("santander", 0, &MiningParams::default());
        let other_params = key("santander", 0, &MiningParams::default().with_psi(99));
        let other_dataset = key("china6", 0, &MiningParams::default());
        let other_revision = key("santander", 3, &MiningParams::default());
        let other_trim = CacheKey::for_state("santander", 0, 256, &MiningParams::default());
        assert_ne!(base, other_params);
        assert_ne!(base, other_dataset);
        assert_ne!(base, other_revision);
        assert_ne!(base, other_trim);
        assert!(other_revision.to_string().contains("@r3"));
        assert!(other_trim.to_string().contains("~256"));
    }
}
