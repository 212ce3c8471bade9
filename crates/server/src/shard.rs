//! The sharded storage spine behind [`crate::MiscelaService`].
//!
//! Every piece of per-dataset state the service owns — the dataset registry
//! with its revision counters, in-progress upload/append sessions, the
//! per-dataset extraction caches, durable WAL states, and the watch
//! sequence — lives in a crate-private `ShardedStore`: datasets are keyed by
//! `tenant/dataset` (the **default** tenant keeps the bare dataset name, so
//! every pre-tenancy key, URL, and durability directory is unchanged) and
//! hashed into a fixed set of `Shard`s, each with its own locks. Requests
//! touching different datasets land on different shards with high
//! probability and never contend; [`crate::MiscelaService`] itself is a
//! stateless facade holding only the store.
//!
//! Per-shard lock order (a request never takes locks from two shards):
//!
//! 1. `watch_seq` (watchers hold it from predicate check to park, so a
//!    revision bump can never slip between the two — the classic condvar
//!    discipline);
//! 2. `datasets` (read or write);
//! 3. `durable`, then — only from inside a durable closure — `appends`
//!    (the relog-inflight path);
//! 4. `uploads`/`appends`/`extraction` are leaf locks otherwise.
//!
//! Revision bumpers (register, finish-append, retention trims, delete)
//! release the `datasets` write lock **before** calling
//! `Shard::notify_watchers`, which takes `watch_seq`, increments it and
//! wakes the shard's condvar — so a bump never holds two locks at once and
//! a parked watcher always re-reads the registry after waking.
//!
//! Tenancy rides on the same keys: a `TenantState` per namespace holds
//! the exactly-once replay cache (so one noisy tenant can never evict
//! another tenant's idempotency keys), the [`TenantQuota`], and the
//! tenant's slice of the admission counters. Tenant names are restricted to
//! `[A-Za-z0-9_-]` so a scoped key can always be split unambiguously at its
//! first `/` and so each tenant's durability directory
//! (`<root>/tenants/<tenant>/`) survives the store layer's file-name
//! sanitization unchanged.

use miscela_cache::{EvolvingSetsCache, PersistentCache};
use miscela_model::Dataset;
use miscela_store::recovery::{DatasetLog, RecoveryStore};
use miscela_store::Database;
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::admission::AdmissionController;
use crate::append::AppendSession;
use crate::message::ApiError;
use crate::service::{ReplayOutcome, UploadSession};

/// The tenant every pre-tenancy route, client, and test lives in. Its
/// datasets keep bare names as store keys, bare URLs, and the root
/// durability directory — introducing tenancy changed nothing for it.
pub const DEFAULT_TENANT: &str = "default";

/// How many independent shards a store spreads its keys over unless
/// [`crate::MiscelaService::with_shards`] says otherwise.
pub const DEFAULT_SHARDS: usize = 16;

/// Subdirectory of the durability root holding one directory per
/// non-default tenant. The store layer only recognizes dataset directories
/// that contain a snapshot or WAL file, so this directory is invisible to
/// the default tenant's recovery scan.
pub(crate) const TENANTS_DIR: &str = "tenants";

/// Validates a tenant name: non-empty ASCII alphanumerics plus `_` and `-`.
/// The restriction is what makes scoped keys (`tenant/dataset`) splittable
/// at the first `/` and tenant durability directories fixpoints of the
/// store layer's file-name sanitization.
pub(crate) fn validate_tenant(tenant: &str) -> Result<(), ApiError> {
    if tenant.is_empty() {
        return Err(ApiError::BadRequest("tenant name is empty".to_string()));
    }
    if !tenant
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
    {
        return Err(ApiError::BadRequest(format!(
            "tenant name {tenant:?} is invalid: use ASCII letters, digits, '_' or '-'"
        )));
    }
    Ok(())
}

/// The store key for `name` in `tenant`: the bare name for the default
/// tenant (backward compatible with every pre-tenancy cache key and
/// admission key), `tenant/name` otherwise.
pub(crate) fn scoped_key(tenant: &str, name: &str) -> String {
    if tenant == DEFAULT_TENANT {
        name.to_string()
    } else {
        format!("{tenant}/{name}")
    }
}

/// The tenant a scoped key belongs to (dataset names never contain `/`, so
/// a key without one is the default tenant's).
pub(crate) fn key_tenant(key: &str) -> &str {
    key.split_once('/').map_or(DEFAULT_TENANT, |(t, _)| t)
}

/// FNV-1a over the scoped key — the same cheap spreading hash the resilient
/// client uses to seed its jitter.
fn fnv1a(key: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in key.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A registered dataset together with its revision counter.
#[derive(Debug, Clone)]
pub(crate) struct DatasetEntry {
    pub(crate) dataset: Arc<Dataset>,
    pub(crate) revision: u64,
}

/// One cached keyed response, tagged with the dataset it belongs to so key
/// reuse across datasets is a typed conflict (and so snapshots can persist
/// each dataset's slice of the cache). Lives in the owning tenant's
/// [`TenantState`], so dataset names here are tenant-local (unscoped).
#[derive(Debug, Clone)]
pub(crate) struct ReplayEntry {
    pub(crate) dataset: String,
    pub(crate) outcome: ReplayOutcome,
}

/// The exactly-once protocol state of **one tenant**: its bounded
/// replayed-response cache plus its dedup counters. Per-tenant by design —
/// a noisy tenant churning keys evicts only its own replay slots.
#[derive(Debug, Default)]
pub(crate) struct ProtocolState {
    pub(crate) entries: HashMap<String, ReplayEntry>,
    /// Insertion order for FIFO eviction (and for snapshot slices).
    pub(crate) order: VecDeque<String>,
    pub(crate) key_replays: u64,
    pub(crate) chunk_duplicates: u64,
    pub(crate) sequence_gaps: u64,
    pub(crate) stale_sessions: u64,
}

/// Resource limits for one tenant. `None` means unlimited (the default, so
/// the default tenant behaves exactly as before tenancy existed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TenantQuota {
    /// Most datasets the tenant may have registered at once.
    pub max_datasets: Option<usize>,
    /// Most grid timestamps any one dataset may retain. Enforced when a
    /// registration, a finished append, or a retention change would leave a
    /// dataset retaining more.
    pub max_retained_timestamps: Option<usize>,
    /// Capacity handed to the tenant's per-dataset extraction caches when
    /// they are first created (existing caches keep their capacity).
    pub max_cache_entries: Option<usize>,
}

/// One tenant's slice of the admission counters, maintained at the
/// service's admission call sites (the controller itself stays global — the
/// in-flight budget is a machine property, not a tenant one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TenantAdmissionStats {
    /// Requests from this tenant granted an admission permit.
    pub admitted: u64,
    /// Requests from this tenant shed by admission control.
    pub shed: u64,
    /// Requests from this tenant refused because their deadline expired
    /// while queued.
    pub deadline_expired: u64,
}

/// Everything the service tracks per tenant.
#[derive(Debug)]
pub(crate) struct TenantState {
    /// The tenant's exactly-once replay cache and dedup counters.
    pub(crate) protocol: Mutex<ProtocolState>,
    /// The tenant's resource limits.
    pub(crate) quota: RwLock<TenantQuota>,
    /// Admission permits granted to this tenant's requests.
    pub(crate) admitted: AtomicU64,
    /// This tenant's requests shed by admission control.
    pub(crate) shed: AtomicU64,
    /// This tenant's requests refused for an expired deadline while queued.
    pub(crate) deadline_expired: AtomicU64,
}

impl TenantState {
    fn new() -> Self {
        TenantState {
            protocol: Mutex::new(ProtocolState::default()),
            quota: RwLock::new(TenantQuota::default()),
            admitted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
        }
    }

    /// The tenant's admission-counter slice.
    pub(crate) fn admission_stats(&self) -> TenantAdmissionStats {
        TenantAdmissionStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
        }
    }
}

/// Durable bookkeeping for one dataset: its open WAL/snapshot log plus the
/// session counters that make replay idempotent.
pub(crate) struct DurableState {
    pub(crate) log: DatasetLog,
    /// Next append-session id to hand out (monotone per dataset).
    pub(crate) next_session: u64,
    /// Highest session id whose outcome is reflected in the resident
    /// dataset (or is stale) — the `applied_session` watermark written into
    /// snapshots.
    pub(crate) watermark: u64,
    /// `Dataset::sealed_timestamps()` when the current snapshot was taken;
    /// an append that seals further 256-point blocks triggers the next
    /// snapshot, keeping the WAL tail O(rows since last snapshot).
    pub(crate) sealed_at_snapshot: usize,
    /// Why the dataset is in read-only degraded mode (`None` when healthy):
    /// set when a WAL/snapshot write fails, cleared when a durable write
    /// succeeds again (the recovery probe re-snapshots to prove it).
    pub(crate) degraded: Option<String>,
}

/// The service's durability layer: the root [`RecoveryStore`] directory.
/// Per-dataset [`DurableState`]s live in the owning [`Shard`]'s `durable`
/// map; per-tenant subdirectories come from [`Durability::store_for`].
pub(crate) struct Durability {
    pub(crate) store: RecoveryStore,
}

impl Durability {
    /// The recovery store a tenant's datasets log to: the root directory
    /// for the default tenant (unchanged pre-tenancy layout),
    /// `<root>/tenants/<tenant>/` otherwise. All namespaces share the root
    /// store's sink opener, so one injected fail point covers every write.
    pub(crate) fn store_for(&self, tenant: &str) -> RecoveryStore {
        if tenant == DEFAULT_TENANT {
            self.store.clone()
        } else {
            self.store.namespace(Path::new(TENANTS_DIR).join(tenant))
        }
    }
}

/// One shard: an independent slice of every per-dataset map, with its own
/// locks and its own watch condvar. See the module docs for the lock order.
pub(crate) struct Shard {
    /// Registered datasets (scoped key → entry with revision counter).
    pub(crate) datasets: RwLock<HashMap<String, DatasetEntry>>,
    /// In-progress chunked uploads.
    pub(crate) uploads: Mutex<HashMap<String, UploadSession>>,
    /// In-progress append sessions.
    pub(crate) appends: Mutex<HashMap<String, AppendSession>>,
    /// One extraction cache per dataset (created on first mine).
    pub(crate) extraction: RwLock<HashMap<String, Arc<EvolvingSetsCache>>>,
    /// Durable WAL/snapshot state per dataset (durable services only).
    pub(crate) durable: Mutex<HashMap<String, DurableState>>,
    /// Bumped once per revision change on any dataset of this shard;
    /// watchers park on `watch_cv` holding this mutex from predicate check
    /// to wait, so no bump can slip between the two.
    pub(crate) watch_seq: Mutex<u64>,
    /// Where `/watch` long-polls park. `notify_all` on every bump: only the
    /// shard's cohabitants wake, re-check their dataset's revision, and
    /// re-park if it was a neighbor's bump.
    pub(crate) watch_cv: Condvar,
}

impl Shard {
    fn new() -> Self {
        Shard {
            datasets: RwLock::new(HashMap::new()),
            uploads: Mutex::new(HashMap::new()),
            appends: Mutex::new(HashMap::new()),
            extraction: RwLock::new(HashMap::new()),
            durable: Mutex::new(HashMap::new()),
            watch_seq: Mutex::new(0),
            watch_cv: Condvar::new(),
        }
    }

    /// Wakes every watcher parked on this shard. Callers must have released
    /// the shard's `datasets` lock first (lock order: `watch_seq` before
    /// `datasets`), which is also why a watcher that wakes always observes
    /// the bumped revision.
    pub(crate) fn notify_watchers(&self) {
        let mut seq = self.watch_seq.lock();
        *seq = seq.wrapping_add(1);
        drop(seq);
        self.watch_cv.notify_all();
    }
}

/// The unified store behind the service facade: the result cache (over
/// the shared database), the shard array, the tenant table, and the
/// cross-cutting singletons (durability root, session-id counter, admission
/// controller).
pub(crate) struct ShardedStore {
    pub(crate) cache: PersistentCache,
    pub(crate) shards: Vec<Shard>,
    pub(crate) tenants: RwLock<HashMap<String, Arc<TenantState>>>,
    pub(crate) durability: Option<Durability>,
    /// Session-id counter for non-durable services (durable services hand
    /// out per-dataset monotone ids from their WAL state instead).
    pub(crate) session_ids: AtomicU64,
    /// Admission control for the serving path (global: the in-flight cost
    /// budget models the machine, while per-dataset caps already key by
    /// scoped name and thus slice per tenant automatically).
    pub(crate) admission: AdmissionController,
}

impl ShardedStore {
    pub(crate) fn new(db: Arc<Database>, admission: AdmissionController, shards: usize) -> Self {
        ShardedStore {
            cache: PersistentCache::new(db),
            shards: (0..shards.max(1)).map(|_| Shard::new()).collect(),
            tenants: RwLock::new(HashMap::new()),
            durability: None,
            session_ids: AtomicU64::new(1),
            admission,
        }
    }

    /// Rebuilds the shard array with `shards` fresh shards. Only callable
    /// while the store is still exclusively owned (before any dataset is
    /// registered), which is how [`crate::MiscelaService::with_shards`]
    /// uses it.
    pub(crate) fn reshard(&mut self, shards: usize) {
        self.shards = (0..shards.max(1)).map(|_| Shard::new()).collect();
    }

    /// The shard owning a scoped key.
    pub(crate) fn shard(&self, key: &str) -> &Shard {
        &self.shards[(fnv1a(key) % self.shards.len() as u64) as usize]
    }

    /// The state for a tenant, created on first touch. Callers validate the
    /// tenant name first (every path goes through the service's scope
    /// construction).
    pub(crate) fn tenant_state(&self, tenant: &str) -> Arc<TenantState> {
        if let Some(state) = self.tenants.read().get(tenant) {
            return Arc::clone(state);
        }
        Arc::clone(
            self.tenants
                .write()
                .entry(tenant.to_string())
                .or_insert_with(|| Arc::new(TenantState::new())),
        )
    }

    /// A snapshot of every tenant the store has seen, for stats
    /// aggregation.
    pub(crate) fn tenant_states(&self) -> Vec<(String, Arc<TenantState>)> {
        self.tenants
            .read()
            .iter()
            .map(|(name, state)| (name.clone(), Arc::clone(state)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoped_keys_and_tenants() {
        assert_eq!(scoped_key(DEFAULT_TENANT, "santander"), "santander");
        assert_eq!(scoped_key("acme", "santander"), "acme/santander");
        assert_eq!(key_tenant("santander"), DEFAULT_TENANT);
        assert_eq!(key_tenant("acme/santander"), "acme");
        assert!(validate_tenant("acme-42_x").is_ok());
        assert!(validate_tenant("").is_err());
        assert!(validate_tenant("a/b").is_err());
        assert!(validate_tenant("sp ace").is_err());
    }

    #[test]
    fn shard_hashing_is_stable_and_in_range() {
        let store = ShardedStore::new(
            Arc::new(Database::new()),
            AdmissionController::new(crate::admission::AdmissionConfig::default()),
            4,
        );
        assert_eq!(store.shards.len(), 4);
        let a = store.shard("acme/santander") as *const Shard;
        let b = store.shard("acme/santander") as *const Shard;
        assert_eq!(a, b, "the same key must always map to the same shard");
        // Distinct keys spread (not all onto one shard).
        let hit: std::collections::HashSet<usize> = (0..64)
            .map(|i| (fnv1a(&format!("t/ds-{i}")) % 4) as usize)
            .collect();
        assert!(hit.len() > 1, "64 keys all hashed to one shard");
    }

    #[test]
    fn notify_watchers_bumps_the_sequence() {
        let shard = Shard::new();
        assert_eq!(*shard.watch_seq.lock(), 0);
        shard.notify_watchers();
        shard.notify_watchers();
        assert_eq!(*shard.watch_seq.lock(), 2);
    }

    #[test]
    fn tenant_state_is_created_once() {
        let store = ShardedStore::new(
            Arc::new(Database::new()),
            AdmissionController::new(crate::admission::AdmissionConfig::default()),
            2,
        );
        let a = store.tenant_state("acme");
        a.quota.write().max_datasets = Some(3);
        let b = store.tenant_state("acme");
        assert_eq!(b.quota.read().max_datasets, Some(3));
        assert_eq!(store.tenant_states().len(), 1);
    }
}
