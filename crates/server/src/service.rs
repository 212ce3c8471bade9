//! The Miscela-V service: uploads, dataset registry, cached mining.
//!
//! This is the component behind the API routes. [`MiscelaService`] is a
//! **stateless facade**: every piece of state lives in one sharded store
//! (see [`crate::shard`]). It still owns the request semantics:
//!
//! * the shared document store ([`Database`]), holding the dataset registry
//!   and the persistent CAP-result cache (Section 3.3: "data and CAPs are
//!   stored in databases");
//! * in-progress chunked uploads and append sessions, both speaking the
//!   10,000-line `data.csv` chunk
//!   protocol of Section 3.2 — an append session targets an *existing*
//!   dataset and extends it in place instead of building a fresh one;
//! * the sharded dataset table with per-dataset **revision counters**:
//!   once uploaded (or registered directly from a generator), a dataset can
//!   be mined repeatedly "without re-uploading by specifying the dataset
//!   name", and every append bumps the revision so cached results for
//!   superseded content become unreachable by key;
//! * **tenancy**: every operation is exactly one public method, and it
//!   takes the tenant name first. Tenants get disjoint dataset namespaces
//!   (keyed `tenant/name` in the store), their own replay caches,
//!   durability directories, quota ([`TenantQuota`], enforced with typed
//!   403s), and stats slices. Dataset names may not contain `/`, so no
//!   name in one tenant can reach another's. The default tenant
//!   ([`DEFAULT_TENANT`]) keeps bare keys, bare URLs and the root
//!   durability directory; the convenience of omitting it lives in the
//!   router, the client and the root `MiscelaV` facade, not here;
//! * the **watch** feed: [`MiscelaService::watch_in`] long-polls a
//!   dataset's revision on the owning shard's condvar, waking on append,
//!   retention and delete bumps instead of forcing clients to hammer
//!   `/mine`.
//!
//! The shard registry is the one owner of dataset metadata. Its entries'
//! store records (the `datasets` collection, which lets a reloaded store
//! serve persisted results for datasets that are not resident) are derived
//! and written by one function wherever a revision is installed.

use miscela_cache::{
    CacheKey, CacheStats, CachedCaps, EvolvingSetsCache, ExtractionCacheStats,
    DEFAULT_KEEP_GENERATIONS,
};
use miscela_core::{
    CancelToken, Miner, MiningError, MiningParams, MiningResult, SweepOutput, SweepStats,
};
use miscela_csv::chunk::{Chunk, ChunkedUploader};
use miscela_csv::loader::DatasetLoader;
use miscela_csv::location_csv::{self, LocationRow};
use miscela_csv::CsvError;
use miscela_model::{Dataset, RetentionPolicy};
use miscela_store::recovery::{DatasetLog, DurabilityStats, RecoveryStore};
use miscela_store::wal::SinkOpener;
use miscela_store::{Database, Filter, Json, StoreError};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::admission::{AdmissionConfig, AdmissionController, AdmissionStats, Permit};
use crate::append::{AppendSession, Screened};
use crate::durability::{self, WalOp};
use crate::message::ApiError;
use crate::shard::{
    key_tenant, scoped_key, validate_tenant, DatasetEntry, Durability, DurableState, ReplayEntry,
    ShardedStore, TenantAdmissionStats, TenantQuota, DEFAULT_SHARDS, DEFAULT_TENANT, TENANTS_DIR,
};

/// Name of the store collection recording uploaded datasets.
pub const DATASETS_COLLECTION: &str = "datasets";

/// Back-off hint attached to degraded-durability (503) responses, in
/// milliseconds.
pub const DEGRADED_RETRY_AFTER_MS: u64 = 250;

/// Fixed admission cost of applying a finished append session: the apply is
/// O(tail), so it is charged one unit regardless of dataset size.
const APPEND_COST: u64 = 1;

/// Capacity of each tenant's replayed-response cache: the tenant's oldest
/// keyed response is evicted once this many are cached. Retries arrive
/// close behind their originals, so a bounded FIFO is enough — a key
/// evicted here can only be retried so late that the client has long given
/// up. Per-tenant since the sharded-store refactor: one noisy tenant can no
/// longer evict another tenant's keys.
const REPLAY_CACHE_CAPACITY: usize = 512;

/// How many of a dataset's most recent keyed responses are persisted into
/// its snapshot, bounding snapshot growth while keeping every response a
/// reasonable client could still retry replayable across a crash.
const SNAPSHOT_REPLAY_LIMIT: usize = 32;

/// An in-progress chunked upload of one dataset, held under the dataset's
/// scoped key.
#[derive(Debug)]
pub(crate) struct UploadSession {
    /// `location.csv` and `attribute.csv`, parsed (and so validated) by the
    /// begin.
    locations: Vec<LocationRow>,
    attributes: Vec<String>,
    uploader: ChunkedUploader,
    started: Instant,
}

/// The outcome of one completed append session.
#[derive(Debug, Clone, PartialEq)]
pub struct AppendSummary {
    /// Dataset name.
    pub name: String,
    /// Grid points the append added.
    pub new_timestamps: usize,
    /// Measurement rows applied.
    pub measurements: usize,
    /// Grid points the dataset's retention policy trimmed right after the
    /// append (0 for unbounded datasets).
    pub trimmed_timestamps: usize,
    /// Total grid points after the append (and trim).
    pub timestamps: usize,
    /// The dataset's revision after the append.
    pub revision: u64,
}

/// The outcome of one retention-policy update.
#[derive(Debug, Clone, PartialEq)]
pub struct RetentionSummary {
    /// Dataset name.
    pub name: String,
    /// Grid points trimmed by applying the new policy immediately.
    pub trimmed_timestamps: usize,
    /// Total grid points trimmed from the front over the dataset's life.
    pub trimmed_total: usize,
    /// Total grid points after the trim.
    pub timestamps: usize,
    /// The dataset's revision (bumped when the policy trimmed anything).
    pub revision: u64,
}

/// Summary information about a registered dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSummary {
    /// Dataset name.
    pub name: String,
    /// Number of sensors.
    pub sensors: usize,
    /// Number of records.
    pub records: usize,
    /// Attribute names.
    pub attributes: Vec<String>,
}

/// The response payload cached for one caller-supplied idempotency key: a
/// retried mutation whose key is found here replays this outcome instead of
/// re-applying.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayOutcome {
    /// A `begin_upload` — acknowledged, no payload beyond success.
    UploadBegin,
    /// A `begin_append` — replays the session id the begin was assigned.
    Begin {
        /// The session id originally handed out.
        session: u64,
    },
    /// A `finish_append` — replays the full append summary.
    Finish {
        /// The summary originally acknowledged.
        summary: AppendSummary,
        /// Wall-clock nanoseconds of the original session.
        elapsed_ns: u64,
    },
    /// A `set_retention` — replays the retention summary.
    Retention {
        /// The summary originally acknowledged.
        summary: RetentionSummary,
    },
    /// A `finish_upload` / dataset registration — replays the summary.
    Register {
        /// The summary originally acknowledged.
        summary: DatasetSummary,
        /// Wall-clock nanoseconds of the original upload.
        elapsed_ns: u64,
    },
    /// A `delete_dataset` — acknowledged, no payload beyond success.
    Delete,
    /// A keyed `mine/sweep` — replays the serialized response body
    /// verbatim. Kept **in memory only**: `replay_entries_for` excludes
    /// this variant from the snapshot slice (the durability codec has no
    /// encoding for it, deliberately — sweep bodies can be large and are
    /// pure derived data), so after a restart a retried sweep re-mines
    /// instead of replaying. That is safe because a sweep mutates nothing.
    Sweep {
        /// The serialized JSON response body originally returned.
        body: String,
    },
}

/// Counters for the exactly-once request protocol, served by
/// `GET /protocol/stats`. The global view sums every tenant's slice;
/// [`MiscelaService::protocol_stats_in`] serves one tenant's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProtocolStats {
    /// Idempotency keys currently cached with their responses.
    pub cached_keys: usize,
    /// Mutations answered by replaying a cached keyed response.
    pub key_replays: u64,
    /// Duplicate chunk deliveries suppressed by the sequence watermark.
    pub chunk_duplicates: u64,
    /// Chunk deliveries rejected for skipping ahead of the watermark.
    pub sequence_gaps: u64,
    /// Chunk deliveries rejected for targeting a superseded session.
    pub stale_sessions: u64,
}

/// The acknowledgment for one sequenced `append_chunk`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkAck {
    /// Index of the chunk this ack covers.
    pub accepted: usize,
    /// Chunks still missing from the session at the time of this ack.
    pub missing: usize,
    /// The session's acknowledged-sequence watermark after this chunk.
    pub acked_seq: u64,
    /// Whether this ack was replayed for a duplicate delivery rather than
    /// freshly produced.
    pub replayed: bool,
}

/// The outcome of a (possibly replayed) `begin_append`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BeginAppendOutcome {
    /// The session id the client must echo on every sequenced chunk.
    pub session: u64,
    /// Whether an idempotency-key replay produced this outcome.
    pub replayed: bool,
}

/// The observable state of an in-progress append session, served by
/// `GET /datasets/{name}/append` so a reconnecting client can resume from
/// the server's watermark instead of resending everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendStatus {
    /// The open session's id.
    pub session: u64,
    /// Highest chunk sequence number the server has acknowledged.
    pub acked_seq: u64,
    /// Distinct chunks received so far.
    pub received: usize,
    /// Chunks still missing (0 once the announced total has arrived).
    pub missing: usize,
}

/// The outcome of one mining request.
#[derive(Debug, Clone)]
pub struct MineOutcome {
    /// The mining result (possibly served from the cache).
    pub result: MiningResult,
    /// The CAPs as compact JSON text, encoded once and shared with the
    /// result cache; responses embed it verbatim.
    pub caps_text: Arc<str>,
    /// Whether the CAPs came from the cache.
    pub cache_hit: bool,
    /// The dataset revision the result corresponds to.
    pub revision: u64,
    /// Wall-clock time spent serving the request.
    pub elapsed: Duration,
}

/// The outcome of one freshly served batch sweep
/// ([`MiscelaService::mine_sweep_in`]).
#[derive(Debug)]
pub struct SweepOutcome {
    /// Per-point results, in request order (duplicates share one result).
    pub results: Vec<MiningResult>,
    /// Per-point: the CAPs as compact JSON text, shared with the result
    /// cache (see [`MineOutcome::caps_text`]).
    pub caps_text: Vec<Arc<str>>,
    /// Per-point: whether the CAPs were served from the result cache.
    pub cache_hits: Vec<bool>,
    /// Planner statistics for the freshly mined remainder of the grid
    /// (default when every point was a cache hit).
    pub stats: SweepStats,
    /// The dataset revision all results correspond to.
    pub revision: u64,
    /// Wall-clock time spent serving the request.
    pub elapsed: Duration,
}

/// How a (possibly keyed) sweep submission was served.
#[derive(Debug)]
pub enum SweepServed {
    /// The serialized body of an earlier submission with the same
    /// idempotency key, to be replayed verbatim.
    Replayed(String),
    /// A freshly planned and mined sweep.
    Fresh(SweepOutcome),
}

/// What a `/watch` long-poll observed, served by
/// `GET /datasets/{name}/watch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchOutcome {
    /// The dataset's revision when the watch returned.
    pub revision: u64,
    /// Whether the revision differs from the watcher's `since_revision`
    /// (the envelope carries the new state; `false` means the deadline
    /// expired with nothing new).
    pub changed: bool,
    /// Grid timestamps currently retained.
    pub timestamps: usize,
    /// Total grid points trimmed from the front over the dataset's life.
    pub trimmed_total: usize,
    /// Whether the watch returned because its deadline expired.
    pub deadline_expired: bool,
}

/// One tenant's slice of the cache statistics, served by
/// `GET /tenants/{tenant}/cache/stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TenantCacheStats {
    /// Datasets the tenant has resident in the sharded registry.
    pub datasets: usize,
    /// The tenant's per-dataset extraction caches, aggregated.
    pub extraction: ExtractionCacheStats,
}

/// A validated request scope: the tenant, the tenant-local dataset name,
/// and the scoped store key the pair maps to. Every public operation
/// builds one from its tenant and name arguments; every internal method
/// takes one.
#[derive(Debug, Clone)]
struct Scope {
    tenant: String,
    name: String,
    key: String,
}

impl Scope {
    /// A validated scope: the tenant name must be well-formed and the
    /// dataset name must not contain `/` (reserved as the tenant/dataset
    /// separator in scoped keys — allowing it would let a default-tenant
    /// dataset named `"t/d"` collide with tenant `t`'s dataset `d`).
    fn new(tenant: &str, name: &str) -> Result<Scope, ApiError> {
        validate_tenant(tenant)?;
        if name.contains('/') {
            return Err(ApiError::BadRequest(format!(
                "dataset name {name:?} is invalid: '/' is reserved for tenant scoping"
            )));
        }
        Ok(Scope {
            tenant: tenant.to_string(),
            name: name.to_string(),
            key: scoped_key(tenant, name),
        })
    }
}

/// The Miscela-V application service: a stateless facade over the
/// sharded store holding every piece of state.
pub struct MiscelaService {
    store: ShardedStore,
}

/// Maps a store-layer durability failure into a typed API error. A failed
/// WAL/snapshot write means the dataset can no longer accept durable writes;
/// callers surface this as a retryable 503, and [`MiscelaService::durable`]
/// flips the dataset into read-only degraded mode until a probe re-arms it.
fn wal_err(e: StoreError) -> ApiError {
    ApiError::Unavailable {
        message: format!("durability: {e}"),
        retry_after_ms: DEGRADED_RETRY_AFTER_MS,
    }
}

/// The typed 404 for a dataset missing from the registry.
fn not_registered(name: &str) -> ApiError {
    ApiError::NotFound(format!("dataset {name:?} is not registered"))
}

/// The typed 404 for a chunk or finish with no append session open.
fn no_append(name: &str) -> ApiError {
    ApiError::NotFound(format!("no append in progress for {name:?}"))
}

/// The typed 404 for a dataset known only from its store record: cached
/// results stay servable, but a miss has no series to mine.
fn not_resident(name: &str) -> ApiError {
    ApiError::NotFound(format!("dataset {name:?} is not resident; re-upload it"))
}

/// Maps a cancelled or failed mine (`what` is "mine" or "sweep") into its
/// typed API error.
fn mining_err(what: &str, name: &str, e: MiningError) -> ApiError {
    match e {
        MiningError::Cancelled => {
            ApiError::DeadlineExceeded(format!("{what} of {name:?} was cancelled"))
        }
        MiningError::DeadlineExceeded => ApiError::DeadlineExceeded(format!(
            "{what} of {name:?} passed its deadline before completing"
        )),
        other => ApiError::Internal(other.to_string()),
    }
}

impl MiscelaService {
    /// Creates a service over a fresh in-memory database.
    pub fn new() -> Self {
        Self::with_database(Arc::new(Database::new()))
    }

    /// Creates a service over an existing (possibly persisted) database.
    pub fn with_database(db: Arc<Database>) -> Self {
        db.create_collection(DATASETS_COLLECTION);
        db.create_index(DATASETS_COLLECTION, "name");
        db.create_index(DATASETS_COLLECTION, "key");
        db.create_index(DATASETS_COLLECTION, "tenant");
        MiscelaService {
            store: ShardedStore::new(
                db,
                AdmissionController::new(AdmissionConfig::default()),
                DEFAULT_SHARDS,
            ),
        }
    }

    /// Replaces the admission-control configuration (builder style). Call
    /// before the service starts taking requests.
    pub fn with_admission(mut self, config: AdmissionConfig) -> Self {
        self.store.admission = AdmissionController::new(config);
        self
    }

    /// Replaces the shard count (builder style). Call before any dataset is
    /// registered — resharding rebuilds empty shards.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.store.reshard(shards);
        self
    }

    /// Creates a durable service over a fresh in-memory database: dataset
    /// registrations and append sessions are persisted to `dir` (snapshot +
    /// write-ahead log per dataset), and any state already under `dir` is
    /// recovered — snapshots reloaded, committed WAL sessions replayed with
    /// revision bumps, uncommitted sessions restored as in-progress.
    pub fn with_durability(dir: impl Into<PathBuf>) -> Result<Self, ApiError> {
        Self::new().attach_durability(RecoveryStore::open(dir))
    }

    /// Like [`MiscelaService::with_durability`], but over an existing
    /// database and writing through an injected [`SinkOpener`] — the hook
    /// the fault-injection harness uses to kill the durable write path at a
    /// precise byte.
    pub fn with_durability_opener(
        db: Arc<Database>,
        dir: impl Into<PathBuf>,
        opener: Arc<dyn SinkOpener>,
    ) -> Result<Self, ApiError> {
        Self::with_database(db).attach_durability(RecoveryStore::with_opener(dir, opener))
    }

    /// Recovers every dataset logged under `store` — the default tenant's
    /// at the root, each other tenant's under `tenants/<tenant>/` — and
    /// attaches the durability layer.
    fn attach_durability(mut self, store: RecoveryStore) -> Result<Self, ApiError> {
        let mut spaces: Vec<(String, RecoveryStore)> =
            vec![(DEFAULT_TENANT.to_string(), store.clone())];
        if let Ok(entries) = std::fs::read_dir(store.root().join(TENANTS_DIR)) {
            let mut tenants: Vec<String> = entries
                .filter_map(|e| e.ok())
                .filter(|e| e.path().is_dir())
                .filter_map(|e| e.file_name().to_str().map(|s| s.to_string()))
                .filter(|t| validate_tenant(t).is_ok())
                .collect();
            tenants.sort();
            for tenant in tenants {
                let space = store.namespace(Path::new(TENANTS_DIR).join(&tenant));
                spaces.push((tenant, space));
            }
        }
        for (tenant, space) in spaces {
            for name in space.dataset_names().map_err(wal_err)? {
                let log = space.dataset(&name).map_err(wal_err)?;
                self.recover(&Scope::new(&tenant, &name)?, log)?;
            }
        }
        self.store.durability = Some(Durability { store });
        Ok(self)
    }

    /// Recovers one dataset from its log: load the snapshot, replay the
    /// WAL's committed append sessions on top of it (bumping the revision
    /// once per replayed commit, exactly as the live path did), restore any
    /// uncommitted session as in-progress, and garbage-collect cached
    /// results keyed to the replayed-over revisions. Recovery itself is
    /// read-only unless the replay sealed new blocks or trimmed the window,
    /// in which case it compacts — so startup costs O(snapshot) + O(rows
    /// since last snapshot), never O(full append history).
    fn recover(&self, scope: &Scope, mut log: DatasetLog) -> Result<(), ApiError> {
        let replay_err = |e: CsvError| ApiError::Internal(format!("durability replay: {e}"));
        let Some(snapshot) = log.load_snapshot().map_err(wal_err)? else {
            // A WAL with no snapshot means the very first registration
            // crashed before its snapshot rename: nothing was ever
            // acknowledged for this dataset, so there is nothing to recover.
            return Ok(());
        };
        let restored = durability::restore_dataset(&snapshot.data)?;
        let applied = restored.applied_session;
        // Reinstall the snapshot's keyed responses first, then layer any
        // the WAL tail re-derives (begin/commit records below) on top — a
        // mutation retried across the crash replays its original response.
        for (key, outcome) in restored.replay {
            self.remember(Some(&key), scope, outcome);
        }
        let mut ds = restored.dataset;
        let mut revision = restored.revision;
        let records = log.take_replay();
        let mut state = DurableState {
            log,
            next_session: applied.saturating_add(1),
            watermark: applied,
            sealed_at_snapshot: ds.sealed_timestamps(),
            degraded: None,
        };
        let (mut replayed, mut replayed_trim) = (false, false);
        // The in-flight (begun, not committed) session, rebuilt by the live
        // path's own steps: every logged chunk is accepted, and a sequenced
        // one is acked as it was live.
        let mut open: Option<AppendSession> = None;
        for record in records {
            match durability::parse_op(&record)? {
                WalOp::Begin { session, key } => {
                    state.next_session = state.next_session.max(session.saturating_add(1));
                    // A begin at or below the snapshot's watermark is
                    // stale: its outcome is in the snapshot.
                    open = (session > applied).then(|| {
                        // A begin retried across the crash must replay the
                        // same session id.
                        let begun = ReplayOutcome::Begin { session };
                        self.remember(key.as_deref(), scope, begun);
                        AppendSession::new(&scope.name, session, key, true)
                    });
                }
                WalOp::Chunk {
                    session,
                    seq,
                    sequenced,
                    chunk,
                } => {
                    if let Some(s) = open.as_mut().filter(|s| s.session == session) {
                        s.accept(&chunk).map_err(replay_err)?;
                        if sequenced {
                            s.ack(session, seq, chunk.index);
                        }
                    }
                }
                WalOp::Commit {
                    session,
                    key,
                    summary,
                    elapsed_ns,
                } => {
                    state.next_session = state.next_session.max(session.saturating_add(1));
                    let Some(finished) = open.take().filter(|s| s.session == session) else {
                        continue;
                    };
                    let stats = finished.apply(&mut ds).map_err(replay_err)?;
                    replayed_trim |= stats.trimmed_timestamps > 0;
                    revision += 1;
                    replayed = true;
                    state.watermark = session;
                    if let (Some(k), Some(mut summary)) = (key, summary) {
                        // A finish retried across the crash must replay the
                        // original acknowledgment, not re-commit.
                        summary.name = scope.name.clone();
                        let finish = ReplayOutcome::Finish {
                            summary,
                            elapsed_ns,
                        };
                        self.remember(Some(&k), scope, finish);
                    }
                }
            }
        }
        let ds = Arc::new(ds);
        self.put_entry(scope, &ds, Some(revision));
        let shard = self.store.shard(&scope.key);
        if let Some(open) = open {
            shard.appends.lock().insert(scope.key.clone(), open);
        }
        if replayed {
            // Revision GC: results keyed to the revisions the replay
            // superseded are unreachable now.
            self.store.cache.evict_superseded(&scope.key, revision);
            if replayed_trim || ds.sealed_timestamps() > state.sealed_at_snapshot {
                // The replay sealed blocks (or trimmed): fold it into a
                // fresh snapshot, re-logging the in-flight session into the
                // reset WAL so its acked chunks stay durable.
                self.snapshot(scope, &mut state, &ds, revision)?;
            }
        }
        shard.durable.lock().insert(scope.key.clone(), state);
        Ok(())
    }

    /// Runs `f` against the durable state for `scope` (creating a fresh log
    /// on first use, in the tenant's durability directory). Returns `None`
    /// when durability is disabled.
    ///
    /// Lock discipline: only the owning shard's `durable` mutex is held
    /// while `f` runs; no caller holds the shard's uploads/appends mutex
    /// across this call (though `f` itself may briefly take `appends`, e.g.
    /// to re-log an in-flight session after a snapshot).
    fn durable<R>(
        &self,
        scope: &Scope,
        f: impl FnOnce(&mut DurableState) -> Result<R, ApiError>,
    ) -> Option<Result<R, ApiError>> {
        let d = self.store.durability.as_ref()?;
        let shard = self.store.shard(&scope.key);
        let mut states = shard.durable.lock();
        let state = match states.entry(scope.key.clone()) {
            Entry::Occupied(state) => state.into_mut(),
            Entry::Vacant(slot) => match d.store_for(&scope.tenant).dataset(&scope.name) {
                Ok(log) => slot.insert(DurableState {
                    log,
                    next_session: 1,
                    watermark: 0,
                    sealed_at_snapshot: 0,
                    degraded: None,
                }),
                Err(e) => return Some(Err(wal_err(e))),
            },
        };
        let result = f(state);
        // A failed durable write flips the dataset into read-only degraded
        // mode; any successful durable write proves the path works again.
        match &result {
            Ok(_) => state.degraded = None,
            Err(ApiError::Unavailable { message, .. }) => state.degraded = Some(message.clone()),
            Err(_) => {}
        }
        Some(result)
    }

    /// Re-logs the in-flight append session for `scope` (if any) into the
    /// WAL — called after a snapshot reset the log, so acknowledged chunks
    /// of a session that has not committed yet stay durable.
    fn relog_inflight(&self, scope: &Scope, state: &mut DurableState) -> Result<(), ApiError> {
        let appends = self.store.shard(&scope.key).appends.lock();
        let Some(records) = appends.get(&scope.key).map(AppendSession::wal_records) else {
            return Ok(());
        };
        drop(appends);
        for record in &records {
            state.log.log(record).map_err(wal_err)?;
        }
        state.log.commit().map_err(wal_err)
    }

    /// Installs a snapshot of `ds` at `revision` under the current
    /// watermark — compacting the WAL — and re-logs the in-flight append
    /// session (if any) into the reset log so its acknowledged chunks stay
    /// durable.
    fn snapshot(
        &self,
        scope: &Scope,
        state: &mut DurableState,
        ds: &Dataset,
        revision: u64,
    ) -> Result<(), ApiError> {
        state
            .log
            .install_snapshot(&durability::snapshot_data(
                ds,
                revision,
                state.watermark,
                &self.replay_entries_for(scope),
            ))
            .map_err(wal_err)?;
        state.sealed_at_snapshot = ds.sealed_timestamps();
        self.relog_inflight(scope, state)
    }

    /// Why a tenant's dataset is in read-only degraded mode, if it is: a
    /// WAL/snapshot write failed and the dataset stopped accepting durable
    /// writes until the recovery probe re-arms it. Reads and mines keep
    /// serving. An invalid tenant or dataset name reads as "not degraded".
    pub fn degraded_reason_in(&self, tenant: &str, name: &str) -> Option<String> {
        self.degraded(&Scope::new(tenant, name).ok()?)
    }

    fn degraded(&self, scope: &Scope) -> Option<String> {
        self.store.durability.as_ref()?;
        self.store
            .shard(&scope.key)
            .durable
            .lock()
            .get(&scope.key)
            .and_then(|s| s.degraded.clone())
    }

    /// Re-arms durability for `scope` if it is degraded: probes the write
    /// path by installing a fresh snapshot of the resident dataset and
    /// re-logging the in-flight append session. The snapshot keeps the
    /// existing applied-session watermark — advancing it would make an
    /// in-flight session look stale on replay and drop its acknowledged
    /// chunks. On success the dataset leaves read-only mode (cleared by
    /// [`MiscelaService::durable`]); on failure it stays degraded and the
    /// caller gets the typed retryable error.
    fn ensure_durable_writable(&self, scope: &Scope) -> Result<(), ApiError> {
        if self.degraded(scope).is_none() {
            return Ok(());
        }
        let entry = self.entry(scope)?;
        self.durable(scope, |state| {
            if state.degraded.is_none() {
                // Another request's probe won the race; nothing to re-arm.
                return Ok(());
            }
            self.snapshot(scope, state, &entry.dataset, entry.revision)
        })
        .unwrap_or(Ok(()))
    }

    /// Admission-control counters, served by `GET /admission/stats`.
    pub fn admission_stats(&self) -> AdmissionStats {
        self.store.admission.stats()
    }

    /// One tenant's slice of the admission counters, served by
    /// `GET /tenants/{tenant}/admission/stats`. The in-flight budget itself
    /// stays machine-global; this reports how the tenant fared against it.
    pub fn tenant_admission_stats(&self, tenant: &str) -> Result<TenantAdmissionStats, ApiError> {
        validate_tenant(tenant)?;
        Ok(self.store.tenant_state(tenant).admission_stats())
    }

    /// Admits one unit of work for `scope`, charging the tenant's counters
    /// on the way through (or the way out).
    fn admit(
        &self,
        scope: &Scope,
        cost: u64,
        deadline: Option<Instant>,
    ) -> Result<Permit<'_>, ApiError> {
        let tenant = self.store.tenant_state(&scope.tenant);
        match self.store.admission.admit(&scope.key, cost, deadline) {
            Ok(permit) => {
                tenant.admitted.fetch_add(1, Ordering::Relaxed);
                Ok(permit)
            }
            Err(e) => {
                match &e {
                    ApiError::Overloaded { .. } => tenant.shed.fetch_add(1, Ordering::Relaxed),
                    ApiError::DeadlineExceeded(_) => {
                        tenant.deadline_expired.fetch_add(1, Ordering::Relaxed)
                    }
                    _ => 0,
                };
                Err(e)
            }
        }
    }

    /// WAL/snapshot statistics for a tenant's dataset's durability log,
    /// served by `GET /datasets/{name}/durability`.
    pub fn durability_stats_in(
        &self,
        tenant: &str,
        name: &str,
    ) -> Result<DurabilityStats, ApiError> {
        let scope = Scope::new(tenant, name)?;
        if self.store.durability.is_none() {
            return Err(ApiError::NotFound(
                "durability is not enabled for this service".to_string(),
            ));
        }
        self.revision(&scope)?;
        let states = self.store.shard(&scope.key).durable.lock();
        let state = states.get(&scope.key).ok_or_else(|| {
            ApiError::NotFound(format!("dataset {:?} has no durability log", scope.name))
        })?;
        Ok(state.log.stats())
    }

    // ----- exactly-once protocol ----------------------------------------

    /// Counters for the exactly-once request protocol, served by
    /// `GET /protocol/stats` — every tenant's slice summed, so the global
    /// view reads as it did before tenancy existed.
    pub fn protocol_stats(&self) -> ProtocolStats {
        let mut total = ProtocolStats::default();
        for (_, tenant) in self.store.tenant_states() {
            let p = tenant.protocol.lock();
            total.cached_keys += p.entries.len();
            total.key_replays += p.key_replays;
            total.chunk_duplicates += p.chunk_duplicates;
            total.sequence_gaps += p.sequence_gaps;
            total.stale_sessions += p.stale_sessions;
        }
        total
    }

    /// One tenant's slice of the protocol counters, served by
    /// `GET /tenants/{tenant}/protocol/stats`.
    pub fn protocol_stats_in(&self, tenant: &str) -> Result<ProtocolStats, ApiError> {
        validate_tenant(tenant)?;
        let state = self.store.tenant_state(tenant);
        let p = state.protocol.lock();
        Ok(ProtocolStats {
            cached_keys: p.entries.len(),
            key_replays: p.key_replays,
            chunk_duplicates: p.chunk_duplicates,
            sequence_gaps: p.sequence_gaps,
            stale_sessions: p.stale_sessions,
        })
    }

    /// Looks up a caller-supplied idempotency key in the scope's tenant
    /// cache. `Ok(Some(outcome))` means the mutation already ran and the
    /// caller must replay `outcome` verbatim; reusing a key against a
    /// different dataset of the same tenant is a typed conflict.
    fn replay_lookup(
        &self,
        key: Option<&str>,
        scope: &Scope,
    ) -> Result<Option<ReplayOutcome>, ApiError> {
        let Some(key) = key else { return Ok(None) };
        let tenant = self.store.tenant_state(&scope.tenant);
        let mut p = tenant.protocol.lock();
        let Some(entry) = p.entries.get(key) else {
            return Ok(None);
        };
        if entry.dataset != scope.name {
            return Err(ApiError::Conflict(format!(
                "idempotency key {key:?} was already used for dataset {:?}",
                entry.dataset
            )));
        }
        let outcome = entry.outcome.clone();
        p.key_replays += 1;
        Ok(Some(outcome))
    }

    /// The conflict returned when a cached key's outcome is for a
    /// different operation than the one being retried.
    fn key_conflict(key: &str) -> ApiError {
        ApiError::Conflict(format!(
            "idempotency key {key:?} was already used for a different operation"
        ))
    }

    /// Caches the response for a keyed mutation in the scope's tenant cache
    /// (FIFO-bounded per tenant). No-op without a key.
    fn remember(&self, key: Option<&str>, scope: &Scope, outcome: ReplayOutcome) {
        let Some(key) = key else { return };
        let tenant = self.store.tenant_state(&scope.tenant);
        let mut p = tenant.protocol.lock();
        if p.entries
            .insert(
                key.to_string(),
                ReplayEntry {
                    dataset: scope.name.clone(),
                    outcome,
                },
            )
            .is_none()
        {
            p.order.push_back(key.to_string());
        }
        while p.entries.len() > REPLAY_CACHE_CAPACITY {
            let Some(evicted) = p.order.pop_front() else {
                break;
            };
            p.entries.remove(&evicted);
        }
    }

    /// Drops a dataset's keyed sweep bodies ([`ReplayOutcome::Sweep`]) and
    /// their keys from its tenant's replayed-response cache; a delete calls
    /// it. The bodies describe content that is gone, so they leave with it:
    /// a sweep retried after the delete gets the same typed 404 as an
    /// unkeyed one. Every other keyed outcome stays replayable.
    fn forget_sweeps(&self, scope: &Scope) {
        let tenant = self.store.tenant_state(&scope.tenant);
        let mut p = tenant.protocol.lock();
        let p = &mut *p;
        p.entries.retain(|_, entry| {
            entry.dataset != scope.name || !matches!(entry.outcome, ReplayOutcome::Sweep { .. })
        });
        let entries = &p.entries;
        p.order.retain(|key| entries.contains_key(key));
    }

    /// One dataset's slice of its tenant's replayed-response cache, oldest
    /// first, bounded to the most recent [`SNAPSHOT_REPLAY_LIMIT`] — this
    /// is what snapshots persist so keyed replay survives a crash. Sweep
    /// replays ([`ReplayOutcome::Sweep`]) are excluded: they are
    /// memory-only by design, so the durability codec never needs to
    /// encode them.
    fn replay_entries_for(&self, scope: &Scope) -> Vec<(String, ReplayOutcome)> {
        let tenant = self.store.tenant_state(&scope.tenant);
        let p = tenant.protocol.lock();
        let mut slice: Vec<(String, ReplayOutcome)> = p
            .order
            .iter()
            .filter_map(|key| {
                let entry = p.entries.get(key)?;
                (entry.dataset == scope.name
                    && !matches!(entry.outcome, ReplayOutcome::Sweep { .. }))
                .then(|| (key.clone(), entry.outcome.clone()))
            })
            .collect();
        if slice.len() > SNAPSHOT_REPLAY_LIMIT {
            slice.drain(..slice.len() - SNAPSHOT_REPLAY_LIMIT);
        }
        slice
    }

    /// The observable state of the in-progress append session for a
    /// tenant's dataset (`Ok(None)` when no session is open), so a
    /// reconnecting client can resume from the acked-sequence watermark.
    pub fn append_status_in(
        &self,
        tenant: &str,
        name: &str,
    ) -> Result<Option<AppendStatus>, ApiError> {
        let scope = Scope::new(tenant, name)?;
        self.revision(&scope)?;
        let appends = self.store.shard(&scope.key).appends.lock();
        Ok(appends.get(&scope.key).map(AppendSession::status))
    }

    /// The extraction cache serving one dataset (created on first use,
    /// sized by the owning tenant's cache-budget quota if one is set).
    fn extraction_for(&self, scope: &Scope) -> Arc<EvolvingSetsCache> {
        let shard = self.store.shard(&scope.key);
        if let Some(cache) = shard.extraction.read().get(&scope.key) {
            return Arc::clone(cache);
        }
        let budget = self
            .store
            .tenant_state(&scope.tenant)
            .quota
            .read()
            .max_cache_entries;
        Arc::clone(
            shard
                .extraction
                .write()
                .entry(scope.key.clone())
                .or_insert_with(|| {
                    Arc::new(match budget {
                        Some(capacity) => EvolvingSetsCache::with_capacity(capacity),
                        None => EvolvingSetsCache::new(),
                    })
                }),
        )
    }

    /// Ages one dataset's extraction cache by one revision and collects
    /// its superseded states.
    fn age_extraction(&self, scope: &Scope) {
        let cache = self.extraction_for(scope);
        cache.bump_generation();
        cache.collect_superseded(DEFAULT_KEEP_GENERATIONS);
    }

    /// The shared document store.
    pub fn database(&self) -> &Arc<Database> {
        &self.store.db
    }

    /// Cache statistics (in-memory tier).
    pub fn cache_stats(&self) -> CacheStats {
        self.store.cache.stats()
    }

    /// Extraction-cache statistics, aggregated over the per-dataset
    /// evolving-sets caches of every shard (and so every tenant).
    pub fn extraction_cache_stats(&self) -> ExtractionCacheStats {
        self.extraction_stats_where(|_| true)
    }

    /// The extraction-cache statistics of every dataset whose scoped key
    /// passes `keep`, summed.
    fn extraction_stats_where(&self, keep: impl Fn(&str) -> bool) -> ExtractionCacheStats {
        let mut total = ExtractionCacheStats::default();
        for shard in &self.store.shards {
            for (key, cache) in shard.extraction.read().iter() {
                if !keep(key) {
                    continue;
                }
                let s = cache.stats();
                total.hits += s.hits;
                total.misses += s.misses;
                total.prefix_hits += s.prefix_hits;
                total.prefix_misses += s.prefix_misses;
                total.entries += s.entries;
                total.evicted += s.evicted;
            }
        }
        total
    }

    /// One tenant's slice of the cache statistics — its resident dataset
    /// count plus its extraction caches aggregated — served by
    /// `GET /tenants/{tenant}/cache/stats`.
    pub fn tenant_cache_stats(&self, tenant: &str) -> Result<TenantCacheStats, ApiError> {
        validate_tenant(tenant)?;
        let datasets = self
            .store
            .shards
            .iter()
            .map(|shard| {
                shard
                    .datasets
                    .read()
                    .keys()
                    .filter(|key| key_tenant(key) == tenant)
                    .count()
            })
            .sum();
        Ok(TenantCacheStats {
            datasets,
            extraction: self.extraction_stats_where(|key| key_tenant(key) == tenant),
        })
    }

    // ----- tenancy -------------------------------------------------------

    /// A tenant's resource limits (all-`None` until set).
    pub fn quota(&self, tenant: &str) -> Result<TenantQuota, ApiError> {
        validate_tenant(tenant)?;
        Ok(*self.store.tenant_state(tenant).quota.read())
    }

    /// Installs a tenant's resource limits. Quotas are in-memory service
    /// policy: they are not persisted by the durability layer and reset on
    /// restart.
    pub fn set_quota(&self, tenant: &str, quota: TenantQuota) -> Result<(), ApiError> {
        validate_tenant(tenant)?;
        *self.store.tenant_state(tenant).quota.write() = quota;
        Ok(())
    }

    /// Enforces the tenant's registration-time quotas: a brand-new dataset
    /// must fit under `max_datasets`, and the registered content must fit
    /// under `max_retained_timestamps`.
    fn check_register_quota(&self, scope: &Scope, dataset: &Dataset) -> Result<(), ApiError> {
        let tenant = self.store.tenant_state(&scope.tenant);
        let max_datasets = tenant.quota.read().max_datasets;
        if let Some(max) = max_datasets {
            let exists = self
                .store
                .shard(&scope.key)
                .datasets
                .read()
                .contains_key(&scope.key);
            if !exists && tenant.dataset_count.load(Ordering::Relaxed) >= max {
                return Err(ApiError::QuotaExceeded(format!(
                    "tenant {:?} is at its quota of {max} datasets",
                    scope.tenant
                )));
            }
        }
        self.check_retained_quota(scope, dataset.timestamp_count())
    }

    /// Enforces `max_retained_timestamps` against a dataset state about to
    /// be installed (registration, append and retention paths).
    fn check_retained_quota(&self, scope: &Scope, timestamps: usize) -> Result<(), ApiError> {
        let quota = *self.store.tenant_state(&scope.tenant).quota.read();
        if let Some(max) = quota.max_retained_timestamps {
            if timestamps > max {
                return Err(ApiError::QuotaExceeded(format!(
                    "dataset {:?} would retain {timestamps} timestamps, over the tenant quota \
                     of {max}",
                    scope.name
                )));
            }
        }
        Ok(())
    }

    // ----- dataset registry --------------------------------------------

    /// Registers an already-built dataset into a tenant's namespace (the
    /// path used by the synthetic generators). Re-registering a name
    /// replaces the dataset, bumps its revision and invalidates its cached
    /// results. Tenant quotas apply, and on a durable service the
    /// registration is snapshotted before `Ok` — it survives a crash.
    ///
    /// An optional idempotency key makes the call retry-safe: a retry that
    /// carries the same key replays the original summary (`replayed =
    /// true`) instead of re-registering — re-registering would bump the
    /// revision and invalidate caches twice.
    pub fn register_dataset_keyed_in(
        &self,
        tenant: &str,
        dataset: Dataset,
        key: Option<&str>,
    ) -> Result<(DatasetSummary, bool), ApiError> {
        let scope = Scope::new(tenant, dataset.name())?;
        self.ensure_durable_writable(&scope)?;
        if let Some(outcome) = self.replay_lookup(key, &scope)? {
            return match outcome {
                ReplayOutcome::Register { summary, .. } => Ok((summary, true)),
                _ => Err(Self::key_conflict(key.unwrap_or_default())),
            };
        }
        self.register(&scope, dataset, key, 0)
            .map(|summary| (summary, false))
    }

    /// Installs `dataset` as a new revision of `scope` (registration and
    /// finished uploads): quota check, cache invalidation, registry entry
    /// and store record, keyed response, durable snapshot.
    fn register(
        &self,
        scope: &Scope,
        dataset: Dataset,
        key: Option<&str>,
        elapsed_ns: u64,
    ) -> Result<DatasetSummary, ApiError> {
        self.check_register_quota(scope, &dataset)?;
        self.store.cache.invalidate_dataset(&scope.key);
        // A re-registration is a revision bump like any other: age this
        // dataset's extraction tier so states of the replaced content can
        // be collected once nothing touches them anymore.
        self.age_extraction(scope);
        let dataset = Arc::new(dataset);
        let revision = self.put_entry(scope, &dataset, None);
        let summary = DatasetSummary {
            name: scope.name.clone(),
            sensors: dataset.sensor_count(),
            records: dataset.record_count(),
            attributes: dataset
                .attributes()
                .names()
                .map(|s| s.to_string())
                .collect(),
        };
        // Cache the keyed response before the durable snapshot below, so
        // the snapshot persists it and a retry replayed across a crash
        // still finds it.
        self.remember(
            key,
            scope,
            ReplayOutcome::Register {
                summary: summary.clone(),
                elapsed_ns,
            },
        );
        let shard = self.store.shard(&scope.key);
        self.durable(scope, |state| {
            // The replaced content makes any in-flight append session
            // meaningless (its begin/chunk records would not survive the
            // snapshot's WAL reset), so drop it: its `finish_append` will
            // report "no append in progress" instead of silently applying
            // to the new dataset while losing durability.
            drop(shard.appends.lock().remove(&scope.key));
            state.watermark = state.next_session - 1;
            self.snapshot(scope, state, &dataset, revision)
        })
        .unwrap_or(Ok(()))?;
        Ok(summary)
    }

    /// Puts `dataset` into the registry as `scope`'s entry — at `revision`,
    /// or one past the current entry's when `None` — counting a new
    /// dataset against its tenant, writes the store record and wakes the
    /// shard's watchers. Returns the installed revision.
    fn put_entry(&self, scope: &Scope, dataset: &Arc<Dataset>, revision: Option<u64>) -> u64 {
        let shard = self.store.shard(&scope.key);
        let revision = {
            let mut registry = shard.datasets.write();
            let revision =
                revision.unwrap_or_else(|| registry.get(&scope.key).map_or(0, |e| e.revision) + 1);
            let entry = DatasetEntry {
                dataset: Arc::clone(dataset),
                revision,
            };
            if registry.insert(scope.key.clone(), entry).is_none() {
                self.store
                    .tenant_state(&scope.tenant)
                    .dataset_count
                    .fetch_add(1, Ordering::Relaxed);
            }
            revision
        };
        self.write_record(scope, dataset, revision);
        // The datasets lock is released (see the shard lock order).
        shard.notify_watchers();
        revision
    }

    /// Swaps `ds` in as the content of `scope`'s dataset — the shared
    /// install step of finished appends and retention changes. The
    /// registry must still hold revision `base` (a concurrent
    /// re-registration or racing mutation is a typed error telling the
    /// caller to retry `what`, never silently overwritten). With `bump`,
    /// the revision advances: results of superseded revisions are evicted
    /// (already unreachable by key; collecting them keeps the store from
    /// growing one dead generation per append), the extraction tier ages,
    /// the store record is rewritten and the shard's watchers wake. Every
    /// step reads only O(1) dataset accessors, so an append stays O(tail).
    /// Returns the dataset's revision after the swap.
    fn install_revision(
        &self,
        scope: &Scope,
        base: u64,
        ds: &Arc<Dataset>,
        bump: bool,
        what: &str,
    ) -> Result<u64, ApiError> {
        let shard = self.store.shard(&scope.key);
        let revision = {
            let mut registry = shard.datasets.write();
            let entry = registry
                .get_mut(&scope.key)
                .ok_or_else(|| not_registered(&scope.name))?;
            if entry.revision != base {
                return Err(ApiError::BadRequest(format!(
                    "dataset {:?} changed while {what} was being applied \
                     (revision {base} -> {}); retry {what}",
                    scope.name, entry.revision
                )));
            }
            if bump {
                entry.revision += 1;
            }
            entry.dataset = Arc::clone(ds);
            entry.revision
        };
        if bump {
            self.store.cache.evict_superseded(&scope.key, revision);
            self.age_extraction(scope);
            self.write_record(scope, ds, revision);
            shard.notify_watchers();
        }
        Ok(revision)
    }

    /// Derives the `datasets` store record of one installed revision and
    /// writes it, replacing the previous one — the only writer of that
    /// collection's records. Reads only O(1) dataset accessors. `name`
    /// stays the tenant-local dataset name; `tenant` and the scoped `key`
    /// make the record addressable per namespace.
    fn write_record(&self, scope: &Scope, ds: &Dataset, revision: u64) {
        let mut doc = Json::object();
        doc.set("name", Json::from(ds.name()));
        doc.set("tenant", Json::from(scope.tenant.as_str()));
        doc.set("key", Json::from(scope.key.as_str()));
        doc.set("revision", Json::from(revision as i64));
        doc.set("trimmed", Json::from(ds.trimmed()));
        doc.set("sensors", Json::from(ds.sensor_count()));
        doc.set("records", Json::from(ds.record_count()));
        doc.set("timestamps", Json::from(ds.timestamp_count()));
        doc.set(
            "attributes",
            Json::Array(ds.attributes().names().map(Json::from).collect()),
        );
        let db = &self.store.db;
        db.delete_where(DATASETS_COLLECTION, &Filter::eq("key", scope.key.as_str()));
        db.insert(DATASETS_COLLECTION, doc);
    }

    /// Fetches a registered dataset from a tenant's namespace.
    pub fn dataset_in(&self, tenant: &str, name: &str) -> Result<Arc<Dataset>, ApiError> {
        self.entry(&Scope::new(tenant, name)?).map(|e| e.dataset)
    }

    /// The current revision counter of a tenant's registered dataset.
    /// Revisions start at 1 and bump on every re-registration and every
    /// completed append; the mining cache keys results by them. Datasets
    /// whose series are not resident (a reloaded store from a previous
    /// session) resolve through their store record, so cached results stay
    /// servable without a re-upload.
    pub fn dataset_revision_in(&self, tenant: &str, name: &str) -> Result<u64, ApiError> {
        self.revision(&Scope::new(tenant, name)?)
    }

    fn revision(&self, scope: &Scope) -> Result<u64, ApiError> {
        match self.entry(scope) {
            Ok(e) => Ok(e.revision),
            Err(_) => Ok(self.stored_version(scope)?.0),
        }
    }

    /// Resolves `(revision, trimmed)` for a dataset whose series are not
    /// resident, from its store record (datasets recorded before the trim
    /// field existed resolve as untrimmed).
    fn stored_version(&self, scope: &Scope) -> Result<(u64, u64), ApiError> {
        let doc = self
            .store
            .db
            .find_one(DATASETS_COLLECTION, &Filter::eq("key", scope.key.as_str()))
            .ok_or_else(|| not_registered(&scope.name))?;
        let revision = doc
            .get("revision")
            .and_then(|r| r.as_i64())
            .ok_or_else(|| not_registered(&scope.name))?;
        let trimmed = doc.get("trimmed").and_then(|t| t.as_i64()).unwrap_or(0);
        Ok((revision as u64, trimmed as u64))
    }

    /// `(revision, trimmed)` of a dataset's current state, from its
    /// registry entry when resident and its store record otherwise.
    fn version(&self, scope: &Scope, entry: Option<&DatasetEntry>) -> Result<(u64, u64), ApiError> {
        match entry {
            Some(e) => Ok((e.revision, e.dataset.trimmed() as u64)),
            None => self.stored_version(scope),
        }
    }

    fn entry(&self, scope: &Scope) -> Result<DatasetEntry, ApiError> {
        self.store
            .shard(&scope.key)
            .datasets
            .read()
            .get(&scope.key)
            .cloned()
            .ok_or_else(|| not_registered(&scope.name))
    }

    // ----- sliding-window retention --------------------------------------

    /// Installs a sliding-window retention policy on a tenant's registered
    /// dataset and applies it immediately. The policy then re-applies on
    /// every subsequent append; read it back with
    /// `dataset_in(..)?.retention()`.
    ///
    /// Like `finish_append`, the mutation happens on a copy-on-extend clone
    /// outside any lock (cheap: `Arc`-shared blocks) and is swapped in
    /// under a brief write lock with a revision re-check. When the
    /// immediate trim dropped anything the revision is bumped — trimmed
    /// content must never be served from cache — and superseded cache
    /// generations are collected.
    ///
    /// An optional idempotency key makes the call retry-safe: a retry
    /// carrying the same key replays the original summary (`replayed =
    /// true`) instead of re-applying — a blind retry would observe
    /// `trimmed_timestamps = 0` and a different revision.
    pub fn set_retention_keyed_in(
        &self,
        tenant: &str,
        name: &str,
        policy: RetentionPolicy,
        key: Option<&str>,
    ) -> Result<(RetentionSummary, bool), ApiError> {
        let scope = Scope::new(tenant, name)?;
        // A retention change is durable only through a snapshot write, so a
        // degraded dataset refuses it (typed, retryable) until re-armed —
        // its replay too, which waits for the probe's snapshot.
        self.ensure_durable_writable(&scope)?;
        if let Some(outcome) = self.replay_lookup(key, &scope)? {
            return match outcome {
                ReplayOutcome::Retention { summary } => Ok((summary, true)),
                _ => Err(Self::key_conflict(key.unwrap_or_default())),
            };
        }
        let base = self.entry(&scope)?;
        let mut ds = (*base.dataset).clone();
        ds.set_retention(policy);
        let trimmed = ds.trim_expired();
        // Retention time is also quota-check time: a window that still
        // retains more than the tenant's budget is a typed 403.
        self.check_retained_quota(&scope, ds.timestamp_count())?;
        let ds = Arc::new(ds);
        let revision = self.install_revision(
            &scope,
            base.revision,
            &ds,
            trimmed > 0,
            "the retention policy",
        )?;
        let summary = RetentionSummary {
            name: scope.name.clone(),
            trimmed_timestamps: trimmed,
            trimmed_total: ds.trimmed(),
            timestamps: ds.timestamp_count(),
            revision,
        };
        // Cache the keyed response before the durable snapshot so the
        // snapshot persists it for replay across a crash.
        self.remember(
            key,
            &scope,
            ReplayOutcome::Retention {
                summary: summary.clone(),
            },
        );
        // A retention change is only durable through a snapshot (there is
        // no WAL record for it), and a retention *trim* is exactly when the
        // WAL should compact — the trimmed history must not be replayed.
        self.durable(&scope, |state| self.snapshot(&scope, state, &ds, revision))
            .unwrap_or(Ok(()))?;
        Ok((summary, false))
    }

    /// Lists a tenant's registered datasets (from the store, so names
    /// uploaded by previous sessions appear even if their series are not
    /// resident).
    pub fn list_datasets_in(&self, tenant: &str) -> Result<Vec<DatasetSummary>, ApiError> {
        validate_tenant(tenant)?;
        Ok(self
            .store
            .db
            .find(DATASETS_COLLECTION, &Filter::eq("tenant", tenant))
            .into_iter()
            .filter_map(|doc| {
                Some(DatasetSummary {
                    name: doc.get("name")?.as_str()?.to_string(),
                    sensors: doc.get("sensors")?.as_i64()? as usize,
                    records: doc.get("records")?.as_i64()? as usize,
                    attributes: doc
                        .get("attributes")?
                        .as_array()?
                        .iter()
                        .filter_map(|a| a.as_str().map(|s| s.to_string()))
                        .collect(),
                })
            })
            .collect())
    }

    /// Removes a tenant's dataset and its cached results (including its
    /// extraction cache, whose states can never be valid for another
    /// dataset name), along with any in-flight upload/append session
    /// targeting it and its on-disk durability log.
    ///
    /// An optional idempotency key makes the call retry-safe: a retry
    /// carrying the same key replays the original acknowledgment
    /// (`replayed = true`) instead of reporting 404 for the already-deleted
    /// dataset. The delete entry lives only in the in-memory cache — the
    /// durability log is removed with the dataset — so across a crash a
    /// retried delete falls back to 404, which clients treat as
    /// confirmation.
    pub fn delete_dataset_keyed_in(
        &self,
        tenant: &str,
        name: &str,
        key: Option<&str>,
    ) -> Result<bool, ApiError> {
        let scope = Scope::new(tenant, name)?;
        if let Some(outcome) = self.replay_lookup(key, &scope)? {
            return match outcome {
                ReplayOutcome::Delete => Ok(true),
                _ => Err(Self::key_conflict(key.unwrap_or_default())),
            };
        }
        let shard = self.store.shard(&scope.key);
        let existed = shard.datasets.write().remove(&scope.key).is_some();
        if existed {
            self.store
                .tenant_state(&scope.tenant)
                .dataset_count
                .fetch_sub(1, Ordering::Relaxed);
        }
        shard.extraction.write().remove(&scope.key);
        shard.uploads.lock().remove(&scope.key);
        shard.appends.lock().remove(&scope.key);
        if let Some(d) = &self.store.durability {
            shard.durable.lock().remove(&scope.key);
            d.store_for(&scope.tenant)
                .remove_dataset(&scope.name)
                .map_err(wal_err)?;
        }
        let stored = self
            .store
            .db
            .delete_where(DATASETS_COLLECTION, &Filter::eq("key", scope.key.as_str()));
        self.store.cache.invalidate_dataset(&scope.key);
        self.forget_sweeps(&scope);
        if existed {
            // Wake parked watchers: they re-read the registry, find the
            // dataset gone, and return the typed `NotFound` close instead
            // of idling until their deadline.
            shard.notify_watchers();
        }
        if existed || stored > 0 {
            self.remember(key, &scope, ReplayOutcome::Delete);
            Ok(false)
        } else {
            Err(not_registered(&scope.name))
        }
    }

    // ----- chunked upload ------------------------------------------------

    /// Starts a chunked upload into a tenant's namespace: the client sends
    /// `location.csv` and `attribute.csv` up front, then streams `data.csv`
    /// chunks.
    ///
    /// An optional idempotency key makes the call retry-safe: a retry
    /// carrying the same key acknowledges without resetting the session
    /// (`replayed = true`) — a blind retried begin would discard every
    /// chunk accepted since the original.
    pub fn begin_upload_keyed_in(
        &self,
        tenant: &str,
        dataset: &str,
        location_csv_text: &str,
        attribute_csv_text: &str,
        key: Option<&str>,
    ) -> Result<bool, ApiError> {
        let scope = Scope::new(tenant, dataset)?;
        if let Some(outcome) = self.replay_lookup(key, &scope)? {
            return match outcome {
                ReplayOutcome::UploadBegin => Ok(true),
                _ => Err(Self::key_conflict(key.unwrap_or_default())),
            };
        }
        // Parse the two small files immediately so a typo fails fast.
        let locations = location_csv::parse_document(location_csv_text)
            .map_err(|e| ApiError::BadRequest(format!("location.csv: {e}")))?;
        let attributes = miscela_csv::attribute_csv::parse_document(attribute_csv_text)
            .map_err(|e| ApiError::BadRequest(format!("attribute.csv: {e}")))?;
        self.store.shard(&scope.key).uploads.lock().insert(
            scope.key.clone(),
            UploadSession {
                locations,
                attributes,
                uploader: ChunkedUploader::new(),
                started: Instant::now(),
            },
        );
        self.remember(key, &scope, ReplayOutcome::UploadBegin);
        Ok(false)
    }

    /// Accepts one `data.csv` chunk for an upload in progress. Returns the
    /// number of chunks still missing.
    pub fn upload_chunk_in(
        &self,
        tenant: &str,
        dataset: &str,
        chunk: &Chunk,
    ) -> Result<usize, ApiError> {
        let scope = Scope::new(tenant, dataset)?;
        let mut uploads = self.store.shard(&scope.key).uploads.lock();
        let session = uploads.get_mut(&scope.key).ok_or_else(|| {
            ApiError::NotFound(format!("no upload in progress for {:?}", scope.name))
        })?;
        session
            .uploader
            .accept(chunk)
            .map_err(|e| ApiError::BadRequest(format!("chunk {}: {e}", chunk.index)))?;
        Ok(session.uploader.missing().len())
    }

    /// Completes an upload: assembles the chunks, builds the dataset and
    /// registers it. Returns the dataset summary and the upload duration.
    ///
    /// An optional idempotency key makes the call retry-safe: a retry
    /// carrying the same key replays the original summary (`replayed =
    /// true`) instead of reporting "no upload in progress" — the original
    /// finish consumed the session.
    pub fn finish_upload_keyed_in(
        &self,
        tenant: &str,
        dataset: &str,
        key: Option<&str>,
    ) -> Result<(DatasetSummary, Duration, bool), ApiError> {
        let scope = Scope::new(tenant, dataset)?;
        self.ensure_durable_writable(&scope)?;
        if let Some(outcome) = self.replay_lookup(key, &scope)? {
            return match outcome {
                ReplayOutcome::Register {
                    summary,
                    elapsed_ns,
                } => Ok((summary, Duration::from_nanos(elapsed_ns), true)),
                _ => Err(Self::key_conflict(key.unwrap_or_default())),
            };
        }
        let session = self
            .store
            .shard(&scope.key)
            .uploads
            .lock()
            .remove(&scope.key)
            .ok_or_else(|| {
                ApiError::NotFound(format!("no upload in progress for {:?}", scope.name))
            })?;
        let elapsed = session.started.elapsed();
        let batches = session
            .uploader
            .finish()
            .map_err(|e| ApiError::BadRequest(e.to_string()))?;
        let ds = DatasetLoader::new(&scope.name)
            .assemble(&session.attributes, &session.locations, &batches)
            .map_err(|e| ApiError::BadRequest(e.to_string()))?;
        let summary = self.register(&scope, ds, key, elapsed.as_nanos() as u64)?;
        Ok((summary, elapsed, false))
    }

    // ----- chunked append -----------------------------------------------

    /// Starts an append session for a tenant's already-registered dataset,
    /// returning the session id the client must echo on every sequenced
    /// chunk. The client then streams `data.csv` chunks of new rows through
    /// [`MiscelaService::append_chunk_seq_in`] (or the unsequenced
    /// [`MiscelaService::append_chunk_in`]). Unlike an upload, no
    /// `location.csv`/`attribute.csv` are sent — the sensors must already
    /// exist.
    ///
    /// An optional idempotency key makes the call retry-safe: a retry
    /// carrying the same key replays the original session id (`replayed =
    /// true`) instead of reporting a conflict with the session it itself
    /// opened.
    pub fn begin_append_keyed_in(
        &self,
        tenant: &str,
        dataset: &str,
        key: Option<&str>,
    ) -> Result<BeginAppendOutcome, ApiError> {
        let scope = Scope::new(tenant, dataset)?;
        if let Some(outcome) = self.replay_lookup(key, &scope)? {
            return match outcome {
                ReplayOutcome::Begin { session } => Ok(BeginAppendOutcome {
                    session,
                    replayed: true,
                }),
                _ => Err(Self::key_conflict(key.unwrap_or_default())),
            };
        }
        // Fail fast when the target does not exist.
        self.entry(&scope)?;
        // A degraded dataset is read-only; probe the durable write path
        // (and re-arm it if it recovered) before opening a session.
        self.ensure_durable_writable(&scope)?;
        let shard = self.store.shard(&scope.key);
        // Reserve the session slot atomically: a second begin while one is
        // open is a typed conflict, not a silent replacement that would
        // orphan the first session's acknowledged chunks. The placeholder
        // (session id 0) is filled in — or removed — once the durable begin
        // record settles; the appends lock cannot be held across `durable`
        // (relog_inflight takes it inside the states lock), and a relogged
        // placeholder is benign on replay because session 0 is never above
        // the snapshot watermark.
        {
            let mut appends = shard.appends.lock();
            if appends.contains_key(&scope.key) {
                return Err(ApiError::Conflict(format!(
                    "an append session is already open for {:?}; \
                     finish it before beginning another",
                    scope.name
                )));
            }
            let durable = self.store.durability.is_some();
            let placeholder = AppendSession::new(&scope.name, 0, key.map(str::to_string), durable);
            appends.insert(scope.key.clone(), placeholder);
        }
        // On a durable service the session id and its begin record are made
        // durable before any chunk is accepted: a crash right after this
        // call restores the (empty) session on recovery.
        let session = match self.durable(&scope, |state| {
            let id = state.next_session;
            state
                .log
                .log(&durability::begin_record(id, key))
                .map_err(wal_err)?;
            state.log.commit().map_err(wal_err)?;
            state.next_session = id + 1;
            Ok(id)
        }) {
            Some(Ok(id)) => id,
            Some(Err(e)) => {
                shard.appends.lock().remove(&scope.key);
                return Err(e);
            }
            // Without durability, session ids come from the service-wide
            // counter: still unique, so a stale client is still detected.
            None => self.store.session_ids.fetch_add(1, Ordering::Relaxed),
        };
        if let Some(s) = shard.appends.lock().get_mut(&scope.key) {
            s.session = session;
        }
        self.remember(key, &scope, ReplayOutcome::Begin { session });
        Ok(BeginAppendOutcome {
            session,
            replayed: false,
        })
    }

    /// Accepts one unsequenced `data.csv` chunk for an append in progress —
    /// the same chunk envelope and parsing as
    /// [`MiscelaService::upload_chunk_in`]. Returns the number of chunks
    /// still missing. On a durable service the chunk is logged to the WAL
    /// and fsynced *before* this returns `Ok`.
    pub fn append_chunk_in(
        &self,
        tenant: &str,
        dataset: &str,
        chunk: &Chunk,
    ) -> Result<usize, ApiError> {
        let scope = Scope::new(tenant, dataset)?;
        Ok(self.accept_append_chunk(&scope, chunk, None)?.missing)
    }

    /// Accepts one sequenced append chunk: the client numbers each chunk
    /// delivery 1, 2, 3… within the session and echoes the session id from
    /// [`MiscelaService::begin_append_keyed_in`]. This makes chunk delivery
    /// exactly-once under loss, duplication and reordering:
    ///
    /// * `seq` at or below the acked watermark → the chunk was already
    ///   accepted (the ack got lost); the original acknowledgment is
    ///   replayed byte-identically and nothing is re-applied or re-logged;
    /// * `seq` more than one past the watermark → a gap (an earlier chunk
    ///   is still in flight); typed 412 carrying the watermark so the
    ///   client rewinds instead of blindly retrying;
    /// * a session id other than the open session's → the session is stale
    ///   (the server restarted it, or a registration dropped it); typed
    ///   412 telling the client which session is current.
    pub fn append_chunk_seq_in(
        &self,
        tenant: &str,
        dataset: &str,
        session_id: u64,
        seq: u64,
        chunk: &Chunk,
    ) -> Result<ChunkAck, ApiError> {
        let scope = Scope::new(tenant, dataset)?;
        if seq == 0 {
            return Err(ApiError::BadRequest(
                "chunk sequence numbers start at 1".to_string(),
            ));
        }
        self.accept_append_chunk(&scope, chunk, Some((session_id, seq)))
    }

    /// The live path of both append-chunk calls (`seq` carries a sequenced
    /// delivery's session id and number): screen and accept under the
    /// appends lock, write and fsync the WAL record outside it, then ack —
    /// so an acknowledged chunk survives a crash at any later point.
    fn accept_append_chunk(
        &self,
        scope: &Scope,
        chunk: &Chunk,
        seq: Option<(u64, u64)>,
    ) -> Result<ChunkAck, ApiError> {
        // A degraded dataset stops acknowledging chunks; the probe re-arms
        // the write path (re-logging every previously acknowledged chunk)
        // before any new chunk is accepted.
        self.ensure_durable_writable(scope)?;
        let shard = self.store.shard(&scope.key);
        let mut appends = shard.appends.lock();
        let session = appends
            .get_mut(&scope.key)
            .ok_or_else(|| no_append(&scope.name))?;
        if let Some(Err(screened)) = seq.map(|(id, seq)| session.screen(id, seq)) {
            // Count it once the appends lock (a leaf lock) is released.
            drop(appends);
            let tenant = self.store.tenant_state(&scope.tenant);
            let mut p = tenant.protocol.lock();
            let (counter, answer) = match screened {
                Screened::Duplicate(ack) => (&mut p.chunk_duplicates, Ok(ack)),
                Screened::Stale(e) => (&mut p.stale_sessions, Err(e)),
                Screened::Gap(e) => (&mut p.sequence_gaps, Err(e)),
            };
            *counter += 1;
            return answer;
        }
        let ack = session
            .accept(chunk)
            .map_err(|e| ApiError::BadRequest(format!("chunk {}: {e}", chunk.index)))?;
        let record = session.last_record(seq.map(|(_, seq)| seq));
        drop(appends);
        if let Some(record) = record {
            self.durable(scope, |state| {
                state.log.log(&record).map_err(wal_err)?;
                state.log.commit().map_err(wal_err)
            })
            .unwrap_or(Ok(()))?;
        }
        let Some((id, seq)) = seq else {
            return Ok(ack);
        };
        let mut appends = shard.appends.lock();
        let session = appends
            .get_mut(&scope.key)
            .ok_or_else(|| no_append(&scope.name))?;
        Ok(session.ack(id, seq, chunk.index))
    }

    /// Completes an append to a tenant's dataset: applies the assembled
    /// rows in place (grid and every series extended with missing-value
    /// fill), bumps the dataset revision, and drops cached results of the
    /// superseded revisions. Returns the summary and the session duration.
    ///
    /// An optional idempotency key makes the call retry-safe: a retry
    /// carrying the same key replays the original summary (`replayed =
    /// true`) instead of re-applying — the original finish consumed the
    /// session, so a blind retry would double-apply (or report "no append
    /// in progress" and leave the client unable to tell whether its rows
    /// committed). The keyed response is also carried in the session's WAL
    /// commit record, so the replay survives a crash between the commit
    /// and the retry.
    pub fn finish_append_keyed_in(
        &self,
        tenant: &str,
        dataset: &str,
        key: Option<&str>,
    ) -> Result<(AppendSummary, Duration, bool), ApiError> {
        let scope = Scope::new(tenant, dataset)?;
        self.ensure_durable_writable(&scope)?;
        if let Some(outcome) = self.replay_lookup(key, &scope)? {
            return match outcome {
                ReplayOutcome::Finish {
                    summary,
                    elapsed_ns,
                } => Ok((summary, Duration::from_nanos(elapsed_ns), true)),
                _ => Err(Self::key_conflict(key.unwrap_or_default())),
            };
        }
        // Applying the assembled rows is real work: it holds an admission
        // permit (fixed cost — the apply is O(tail)) so an append storm
        // cannot starve mines of budget. Admission happens before the
        // session is consumed, so a shed finish leaves the session intact
        // for a retry.
        let _permit = self.admit(&scope, APPEND_COST, None)?;
        let session = self
            .store
            .shard(&scope.key)
            .appends
            .lock()
            .remove(&scope.key)
            .ok_or_else(|| no_append(&scope.name))?;
        let elapsed = session.started.elapsed();
        let elapsed_ns = elapsed.as_nanos() as u64;
        let session_id = session.session;
        // Clone the Arc under a read lock and apply the append outside any
        // lock — the clone is a copy-on-extend view (series blocks stay
        // `Arc`-shared; only the mutable tails are copied), so this costs
        // O(tail), not O(dataset), no matter how old the dataset is.
        let base = self.entry(&scope)?;
        let mut ds = (*base.dataset).clone();
        let append = session
            .apply(&mut ds)
            .map_err(|e| ApiError::BadRequest(e.to_string()))?;
        // Append time is quota-check time: content over the tenant's
        // retained-timestamps budget is a typed 403. The session was
        // already consumed — the client trims (or raises the quota) and
        // begins a new append.
        self.check_retained_quota(&scope, ds.timestamp_count())?;
        let ds = Arc::new(ds);
        let revision = self.install_revision(&scope, base.revision, &ds, true, "the append")?;
        let summary = AppendSummary {
            name: scope.name.clone(),
            new_timestamps: append.new_timestamps,
            measurements: append.measurements,
            trimmed_timestamps: append.trimmed_timestamps,
            timestamps: ds.timestamp_count(),
            revision,
        };
        // The append is applied: cache the keyed response *before* the
        // durable commit, so a retry never re-applies. Should the commit
        // fail, the dataset degrades, and the retry's probe must snapshot
        // the applied state before the replay is served.
        self.remember(
            key,
            &scope,
            ReplayOutcome::Finish {
                summary: summary.clone(),
                elapsed_ns,
            },
        );
        // Durable commit: the session's commit record is fsynced before the
        // ack. When the append sealed new 256-point blocks (or trimmed the
        // window) a snapshot follows, compacting the WAL so recovery stays
        // O(rows since last snapshot).
        self.durable(&scope, |state| {
            state
                .log
                .log(&durability::commit_record(
                    session_id, key, &summary, elapsed_ns,
                ))
                .map_err(wal_err)?;
            state.log.commit().map_err(wal_err)?;
            state.watermark = session_id;
            if summary.trimmed_timestamps > 0 || ds.sealed_timestamps() > state.sealed_at_snapshot {
                self.snapshot(&scope, state, &ds, revision)?;
            }
            Ok(())
        })
        .unwrap_or(Ok(()))?;
        Ok((summary, elapsed, false))
    }

    /// Convenience driver: appends a full `data.csv` document of new rows
    /// to a tenant's dataset by splitting it into paper-sized chunks and
    /// driving the append-chunk protocol.
    pub fn append_documents_in(
        &self,
        tenant: &str,
        dataset: &str,
        data_csv_text: &str,
        chunk_lines: usize,
    ) -> Result<AppendSummary, ApiError> {
        self.begin_append_keyed_in(tenant, dataset, None)?;
        for chunk in miscela_csv::split_into_chunks(data_csv_text, chunk_lines) {
            self.append_chunk_in(tenant, dataset, &chunk)?;
        }
        let (summary, _, _) = self.finish_append_keyed_in(tenant, dataset, None)?;
        Ok(summary)
    }

    /// Convenience driver: uploads a full `data.csv` document into a
    /// tenant's namespace by splitting it into paper-sized chunks and
    /// driving the chunk protocol.
    pub fn upload_documents_in(
        &self,
        tenant: &str,
        dataset: &str,
        data_csv_text: &str,
        location_csv_text: &str,
        attribute_csv_text: &str,
        chunk_lines: usize,
    ) -> Result<DatasetSummary, ApiError> {
        self.begin_upload_keyed_in(tenant, dataset, location_csv_text, attribute_csv_text, None)?;
        for chunk in miscela_csv::split_into_chunks(data_csv_text, chunk_lines) {
            self.upload_chunk_in(tenant, dataset, &chunk)?;
        }
        let (summary, _, _) = self.finish_upload_keyed_in(tenant, dataset, None)?;
        Ok(summary)
    }

    // ----- mining ---------------------------------------------------------

    /// Mines a tenant's registered dataset — the one-point case of the
    /// serving path it shares with [`MiscelaService::mine_sweep_in`], under
    /// overload protection: cache lookup (Section 3.3) → cost-weighted
    /// admission (bounded queue, immediate shedding beyond it) →
    /// cancellable mine. The cache key carries the dataset's current
    /// revision, so results mined before an append can never be served
    /// for the appended content.
    ///
    /// `cancel` lets a caller abort the mine from another thread; `deadline`
    /// additionally bounds both queueing and mining time: the request fails
    /// with [`ApiError::DeadlineExceeded`] if it is still queued for
    /// admission at the deadline, and an in-flight mine aborts
    /// cooperatively within a bounded stride once it passes. Cache hits are
    /// served even past the deadline — they cost nothing. A cancelled or
    /// timed-out mine writes nothing into the result cache (only
    /// content-keyed per-series extraction states, which are valid for any
    /// retry), so a subsequent identical request recomputes and caches the
    /// complete result.
    pub fn mine_cancellable_in(
        &self,
        tenant: &str,
        dataset: &str,
        params: &MiningParams,
        deadline: Option<Instant>,
        cancel: &CancelToken,
    ) -> Result<MineOutcome, ApiError> {
        let scope = Scope::new(tenant, dataset)?;
        params
            .validate()
            .map_err(|e| ApiError::BadRequest(e.to_string()))?;
        let one = std::slice::from_ref(params);
        let served = self.serve(&scope, one, deadline, cancel, "mine")?;
        let cache_hit = served.cache_hits == [true];
        let caps_text = served.caps_text.into_iter().next();
        let result = SweepOutput {
            results: served.results,
            stats: served.stats,
        };
        Ok(MineOutcome {
            result: result.into_mine(),
            caps_text: caps_text.ok_or_else(|| ApiError::Internal("mine served nothing".into()))?,
            cache_hit,
            revision: served.revision,
            elapsed: served.elapsed,
        })
    }

    /// Serves a batch parameter sweep over a tenant's dataset: the whole
    /// ψ/η/μ grid as **one** scheduled job ([`Miner::mine_sweep`]) instead
    /// of one request per point.
    ///
    /// A keyed retry replays the original response body. Otherwise
    /// duplicate grid points are deduplicated server-side, and the distinct
    /// ones take the serving path of
    /// [`MiscelaService::mine_cancellable_in`], batch style: only the
    /// result-cache misses are mined, under a **single** admission permit
    /// charged at the per-mine cost times the number of misses (an all-hit
    /// sweep is admission-free, like a solo cache hit). Freshly mined
    /// points are cached individually, so a later solo mine of any grid
    /// point is a cache hit.
    ///
    /// The caller is responsible for serializing the fresh outcome and
    /// handing the body to [`MiscelaService::remember_sweep_in`] so retries
    /// can replay it.
    pub fn mine_sweep_in(
        &self,
        tenant: &str,
        dataset: &str,
        points: &[MiningParams],
        deadline: Option<Instant>,
        cancel: &CancelToken,
        key: Option<&str>,
    ) -> Result<SweepServed, ApiError> {
        let started = Instant::now();
        let scope = Scope::new(tenant, dataset)?;
        if let Some(outcome) = self.replay_lookup(key, &scope)? {
            return match outcome {
                ReplayOutcome::Sweep { body } => Ok(SweepServed::Replayed(body)),
                _ => Err(Self::key_conflict(key.unwrap_or_default())),
            };
        }
        if points.is_empty() {
            return Err(ApiError::BadRequest(
                "sweep requires at least one grid point".into(),
            ));
        }
        // Every point is validated before the dedup, so an invalid point
        // cannot hide behind an equal valid one (a tolerance out of range
        // with segmentation off is still out of range).
        for p in points {
            p.validate()
                .map_err(|e| ApiError::BadRequest(e.to_string()))?;
        }
        // Server-side dedup: equal grid points cost one cache lookup and at
        // most one mine, and always share one result.
        let mut index: HashMap<&MiningParams, usize> = HashMap::new();
        let mut unique: Vec<MiningParams> = Vec::new();
        let point_of: Vec<usize> = points
            .iter()
            .map(|p| {
                *index.entry(p).or_insert_with(|| {
                    unique.push(p.clone());
                    unique.len() - 1
                })
            })
            .collect();
        let mut out = self.serve(&scope, &unique, deadline, cancel, "sweep")?;
        if unique.len() < points.len() {
            out.results = point_of.iter().map(|&u| out.results[u].clone()).collect();
            out.caps_text = point_of.iter().map(|&u| out.caps_text[u].clone()).collect();
            out.cache_hits = point_of.iter().map(|&u| out.cache_hits[u]).collect();
        }
        // The miner only saw the cache-missing subset of the grid; report
        // the request's true shape (work counters stay as performed).
        out.stats.requested_points = points.len();
        out.stats.unique_points = unique.len();
        out.elapsed = started.elapsed();
        Ok(SweepServed::Fresh(out))
    }

    /// The serving path of both mining operations, for distinct, validated
    /// `points`: one counted result-cache lookup per point, one admission
    /// for the misses, one [`Miner::mine_sweep`] for those still missing
    /// after it. `what` ("mine" or "sweep") names the operation in errors.
    fn serve(
        &self,
        scope: &Scope,
        points: &[MiningParams],
        deadline: Option<Instant>,
        cancel: &CancelToken,
        what: &str,
    ) -> Result<SweepOutcome, ApiError> {
        let started = Instant::now();
        // One registry snapshot drives both the cache keys and the content
        // that is mined: deriving the revision and the dataset Arc from the
        // same `DatasetEntry` means a concurrent append can never make this
        // request cache one revision's CAPs under another revision's key
        // (its bumped entry simply is not this snapshot). Datasets whose
        // series are not resident (a reloaded store) have no entry but
        // still resolve a revision through their store record, so their
        // persisted results can be served from the cache without a
        // re-upload.
        let entry = self.entry(scope).ok();
        let (revision, trimmed) = self.version(scope, entry.as_ref())?;
        let keys: Vec<CacheKey> = points
            .iter()
            .map(|p| CacheKey::for_state(&scope.key, revision, trimmed, p))
            .collect();
        let mut cached: Vec<Option<CachedCaps>> =
            keys.iter().map(|k| self.store.cache.get(k)).collect();
        let misses = cached.iter().filter(|slot| slot.is_none()).count();
        let mut fresh = SweepOutput::default();
        if misses > 0 {
            let entry = entry.ok_or_else(|| not_resident(&scope.name))?;
            // Misses do real work: hold one cost-weighted admission permit
            // for the rest of the request, shedding (typed, retryable)
            // instead of queueing without bound.
            let cost = AdmissionController::mine_cost(&entry.dataset).saturating_mul(misses as u64);
            let _permit = self.admit(scope, cost, deadline)?;
            // An identical request may have filled some while this one
            // waited; serving them keeps the work bounded. This second look
            // counts no lookup of its own.
            let mut grid = Vec::new();
            for ((slot, key), p) in cached.iter_mut().zip(&keys).zip(points) {
                *slot = slot.take().or_else(|| self.store.cache.peek(key));
                if slot.is_none() {
                    grid.push(p.clone());
                }
            }
            if !grid.is_empty() {
                // The per-series extraction cache still lets unchanged
                // series skip steps (1)+(2) — the common case when only
                // search-side parameters (ψ, η, μ) were tweaked — and
                // appended series resume from their cached prefix states.
                let extraction = self.extraction_for(scope);
                let token = deadline.map_or_else(|| cancel.clone(), |d| cancel.with_deadline(d));
                fresh = Miner::mine_sweep(&entry.dataset, &grid, Some(&*extraction), &token)
                    .map_err(|e| mining_err(what, &scope.name, e))?;
            }
        }
        let cache_hits = cached.iter().map(Option::is_some).collect();
        let mut mined = fresh.results.into_iter();
        let mut results = Vec::with_capacity(points.len());
        let mut caps_text = Vec::with_capacity(points.len());
        for (slot, key) in cached.into_iter().zip(&keys) {
            let (result, text) = match slot {
                // The result cache stores CAPs only.
                Some(hit) => (
                    MiningResult {
                        caps: hit.caps,
                        ..Default::default()
                    },
                    hit.text,
                ),
                None => {
                    let result = mined.next().ok_or_else(|| {
                        ApiError::Internal(format!("{what} left a point unresolved"))
                    })?;
                    let text = self.store.cache.put(key, &result.caps);
                    (result, text)
                }
            };
            results.push(result);
            caps_text.push(text);
        }
        Ok(SweepOutcome {
            results,
            caps_text,
            cache_hits,
            stats: fresh.stats,
            revision,
            elapsed: started.elapsed(),
        })
    }

    /// Caches the serialized response body of a keyed sweep on a tenant's
    /// dataset so an identical retry replays it verbatim
    /// ([`ReplayOutcome::Sweep`]; memory-only — excluded from snapshot
    /// persistence). No-op without a key, and for an invalid tenant or
    /// dataset name (the serving call already rejected it).
    pub fn remember_sweep_in(&self, tenant: &str, dataset: &str, key: Option<&str>, body: String) {
        if let Ok(scope) = Scope::new(tenant, dataset) {
            self.remember(key, &scope, ReplayOutcome::Sweep { body });
        }
    }

    // ----- watch ---------------------------------------------------------

    /// Long-polls a tenant's dataset's revision: returns immediately when
    /// the current revision differs from `since_revision` (pass 0 — no real
    /// revision — to observe the current state), otherwise parks on the
    /// owning shard's condvar until an append, retention trim, delete or
    /// re-registration bumps it, or `deadline` passes (`changed = false`).
    /// A delete wakes parked watchers with the typed `NotFound` close.
    pub fn watch_in(
        &self,
        tenant: &str,
        name: &str,
        since_revision: u64,
        deadline: Instant,
    ) -> Result<WatchOutcome, ApiError> {
        let scope = Scope::new(tenant, name)?;
        let shard = self.store.shard(&scope.key);
        // Classic condvar discipline: hold `watch_seq` from predicate check
        // to park, so a bump (which takes `watch_seq` to increment it)
        // cannot slip between the registry read and the wait — the watcher
        // either sees the new revision now or is parked when the notify
        // lands. Comparison is `!=`, not `>`: a delete + re-register resets
        // revisions, and "different from what the watcher saw" is the
        // change signal.
        let mut seq = shard.watch_seq.lock();
        loop {
            let snapshot = shard
                .datasets
                .read()
                .get(&scope.key)
                .map(|e| (e.revision, e.dataset.timestamp_count(), e.dataset.trimmed()));
            let Some((revision, timestamps, trimmed_total)) = snapshot else {
                // The dataset is gone (or never existed): the typed close a
                // deleted dataset's watchers are woken into.
                return Err(ApiError::NotFound(format!(
                    "dataset {:?} is not registered (watch closed)",
                    scope.name
                )));
            };
            if revision != since_revision {
                return Ok(WatchOutcome {
                    revision,
                    changed: true,
                    timestamps,
                    trimmed_total,
                    deadline_expired: false,
                });
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(WatchOutcome {
                    revision,
                    changed: false,
                    timestamps,
                    trimmed_total,
                    deadline_expired: true,
                });
            }
            let (guard, _timed_out) = shard.watch_cv.wait_timeout(seq, deadline - now);
            seq = guard;
        }
    }
}

impl Default for MiscelaService {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miscela_csv::DatasetWriter;
    use miscela_datagen::SantanderGenerator;

    fn small_dataset() -> Dataset {
        SantanderGenerator::small().with_scale(0.02).generate()
    }

    fn quick_params() -> MiningParams {
        MiningParams::new()
            .with_epsilon(0.4)
            .with_eta_km(0.5)
            .with_psi(20)
            .with_mu(3)
            .with_segmentation(false)
    }

    fn register(svc: &MiscelaService, dataset: Dataset) -> DatasetSummary {
        svc.register_dataset_keyed_in(DEFAULT_TENANT, dataset, None)
            .unwrap()
            .0
    }

    fn mine(
        svc: &MiscelaService,
        dataset: &str,
        params: &MiningParams,
    ) -> Result<MineOutcome, ApiError> {
        svc.mine_cancellable_in(DEFAULT_TENANT, dataset, params, None, &CancelToken::never())
    }

    #[test]
    fn register_list_delete() {
        let svc = MiscelaService::new();
        assert!(svc.list_datasets_in(DEFAULT_TENANT).unwrap().is_empty());
        let summary = register(&svc, small_dataset());
        assert_eq!(summary.name, "santander");
        assert!(summary.sensors > 0);
        let listed = svc.list_datasets_in(DEFAULT_TENANT).unwrap();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0], summary);
        assert!(svc.dataset_in(DEFAULT_TENANT, "santander").is_ok());
        assert!(svc.dataset_in(DEFAULT_TENANT, "santander").is_ok());
        svc.delete_dataset_keyed_in(DEFAULT_TENANT, "santander", None)
            .unwrap();
        assert!(svc.dataset_in(DEFAULT_TENANT, "santander").is_err());
        assert!(svc
            .delete_dataset_keyed_in(DEFAULT_TENANT, "santander", None)
            .is_err());
    }

    #[test]
    fn mine_uses_cache_on_repeat_requests() {
        let svc = MiscelaService::new();
        register(&svc, small_dataset());
        let params = quick_params();
        let first = mine(&svc, "santander", &params).unwrap();
        assert!(!first.cache_hit);
        let second = mine(&svc, "santander", &params).unwrap();
        assert!(second.cache_hit);
        assert_eq!(second.result.caps, first.result.caps);
        // A different parameter setting misses the cache.
        let third = mine(&svc, "santander", &params.clone().with_psi(21)).unwrap();
        assert!(!third.cache_hit);
        // Unknown dataset and invalid parameters are rejected.
        assert!(mine(&svc, "nope", &params).is_err());
        assert!(mine(&svc, "santander", &MiningParams::new().with_psi(0)).is_err());
    }

    #[test]
    fn extraction_cache_skips_front_end_on_parameter_tweaks() {
        let svc = MiscelaService::new();
        register(&svc, small_dataset());
        let params = quick_params();
        let first = mine(&svc, "santander", &params).unwrap();
        assert_eq!(first.result.report.extraction_cache_hits, 0);
        let sensors = svc
            .dataset_in(DEFAULT_TENANT, "santander")
            .unwrap()
            .sensor_count();
        let stats = svc.extraction_cache_stats();
        // Two entries per series: the content key, plus the salted
        // origin-anchored alias that lets trimmed descendants recover the
        // pre-trim state.
        assert_eq!(
            (stats.hits, stats.misses, stats.entries),
            (0, sensors, 2 * sensors)
        );
        // A ψ tweak misses the result cache but hits the extraction cache
        // for every series — steps (1)+(2) are skipped entirely.
        let tweaked = mine(&svc, "santander", &params.clone().with_psi(25)).unwrap();
        assert!(!tweaked.cache_hit);
        assert_eq!(tweaked.result.report.extraction_cache_hits, sensors);
        // The cached front-end must not change the mined CAPs.
        let direct = Miner::new(params.clone().with_psi(25))
            .unwrap()
            .mine(&svc.dataset_in(DEFAULT_TENANT, "santander").unwrap())
            .unwrap();
        assert_eq!(tweaked.result.caps, direct.caps);
        // An ε change re-extracts (different extraction key).
        let new_eps = mine(&svc, "santander", &params.clone().with_epsilon(0.7)).unwrap();
        assert_eq!(new_eps.result.report.extraction_cache_hits, 0);
    }

    #[test]
    fn reregistering_invalidates_cache() {
        let svc = MiscelaService::new();
        register(&svc, small_dataset());
        let params = quick_params();
        let _ = mine(&svc, "santander", &params).unwrap();
        assert!(mine(&svc, "santander", &params).unwrap().cache_hit);
        // New upload under the same name: cached results must not survive.
        register(&svc, small_dataset());
        assert!(!mine(&svc, "santander", &params).unwrap().cache_hit);
    }

    #[test]
    fn chunked_upload_round_trip() {
        let generated = small_dataset();
        let writer = DatasetWriter::new();
        let data = writer.data_csv(&generated);
        let locations = writer.location_csv(&generated);
        let attributes = writer.attribute_csv(&generated);

        let svc = MiscelaService::new();
        svc.begin_upload_keyed_in(DEFAULT_TENANT, "uploaded", &locations, &attributes, None)
            .unwrap();
        let chunks = miscela_csv::split_into_chunks(&data, 1_000);
        assert!(chunks.len() > 1);
        for (i, chunk) in chunks.iter().enumerate() {
            let missing = svc
                .upload_chunk_in(DEFAULT_TENANT, "uploaded", chunk)
                .unwrap();
            assert_eq!(missing, chunks.len() - i - 1);
        }
        let (summary, _elapsed, _) = svc
            .finish_upload_keyed_in(DEFAULT_TENANT, "uploaded", None)
            .unwrap();
        assert_eq!(summary.sensors, generated.sensor_count());
        let uploaded = svc.dataset_in(DEFAULT_TENANT, "uploaded").unwrap();
        assert_eq!(uploaded.timestamp_count(), generated.timestamp_count());
        assert_eq!(uploaded.present_count(), generated.present_count());
    }

    #[test]
    fn upload_error_paths() {
        let svc = MiscelaService::new();
        // Chunk for an unknown upload.
        let chunk = miscela_csv::split_into_chunks("id,attribute,time,data\n", 10)
            .into_iter()
            .next();
        assert!(
            chunk.is_none()
                || svc
                    .upload_chunk_in(DEFAULT_TENANT, "ghost", &chunk.unwrap())
                    .is_err()
        );
        // Malformed location.csv fails at begin_upload.
        assert!(svc
            .begin_upload_keyed_in(DEFAULT_TENANT, "bad", "not,a,valid", "temperature\n", None)
            .is_err());
        // Finishing an upload that never started.
        assert!(svc
            .finish_upload_keyed_in(DEFAULT_TENANT, "ghost", None)
            .is_err());
        // Incomplete upload cannot be finished.
        let generated = small_dataset();
        let writer = DatasetWriter::new();
        svc.begin_upload_keyed_in(
            DEFAULT_TENANT,
            "partial",
            &writer.location_csv(&generated),
            &writer.attribute_csv(&generated),
            None,
        )
        .unwrap();
        let chunks = miscela_csv::split_into_chunks(&writer.data_csv(&generated), 2_000);
        svc.upload_chunk_in(DEFAULT_TENANT, "partial", &chunks[0])
            .unwrap();
        assert!(svc
            .finish_upload_keyed_in(DEFAULT_TENANT, "partial", None)
            .is_err());
    }

    #[test]
    fn append_session_extends_dataset_and_bumps_revision() {
        let full = small_dataset();
        let writer = DatasetWriter::new();
        let n = full.timestamp_count();
        let split_t = full.grid().at(n - 24).unwrap();
        let start = full.grid().start();
        let end = full.grid().range().end;
        let prefix = full.slice_time(start, split_t).unwrap();
        let tail = full.slice_time(split_t, end).unwrap();

        // Register the prefix through the real upload path, then stream the
        // tail through the append-chunk protocol.
        let svc = MiscelaService::new();
        svc.upload_documents_in(
            DEFAULT_TENANT,
            "santander",
            &writer.data_csv(&prefix),
            &writer.location_csv(&prefix),
            &writer.attribute_csv(&prefix),
            5_000,
        )
        .unwrap();
        assert_eq!(
            svc.dataset_revision_in(DEFAULT_TENANT, "santander")
                .unwrap(),
            1
        );
        let params = quick_params();
        let before = mine(&svc, "santander", &params).unwrap();
        assert_eq!(before.revision, 1);
        assert!(mine(&svc, "santander", &params).unwrap().cache_hit);

        svc.begin_append_keyed_in(DEFAULT_TENANT, "santander", None)
            .unwrap();
        let chunks = miscela_csv::split_into_chunks(&writer.data_csv(&tail), 100);
        assert!(chunks.len() > 1);
        for (i, chunk) in chunks.iter().enumerate() {
            let missing = svc
                .append_chunk_in(DEFAULT_TENANT, "santander", chunk)
                .unwrap();
            assert_eq!(missing, chunks.len() - i - 1);
        }
        let (summary, _elapsed, _) = svc
            .finish_append_keyed_in(DEFAULT_TENANT, "santander", None)
            .unwrap();
        assert_eq!(summary.new_timestamps, 24);
        assert_eq!(summary.timestamps, n);
        assert_eq!(summary.revision, 2);
        assert_eq!(
            svc.dataset_revision_in(DEFAULT_TENANT, "santander")
                .unwrap(),
            2
        );

        // The revision bump makes the pre-append cached result unreachable,
        // and the re-mine resumes extraction from cached prefix states.
        let after = mine(&svc, "santander", &params).unwrap();
        assert!(!after.cache_hit);
        assert_eq!(after.revision, 2);
        let report = &after.result.report;
        assert_eq!(
            report.extraction_cache_hits + report.extraction_prefix_hits,
            svc.dataset_in(DEFAULT_TENANT, "santander")
                .unwrap()
                .sensor_count()
        );
        assert!(report.extraction_prefix_hits > 0);
        assert!(svc.extraction_cache_stats().prefix_hits > 0);
        // Equivalence: identical CAPs to a cold mine of the full upload.
        let cold = MiscelaService::new();
        cold.upload_documents_in(
            DEFAULT_TENANT,
            "santander",
            &writer.data_csv(&full),
            &writer.location_csv(&full),
            &writer.attribute_csv(&full),
            5_000,
        )
        .unwrap();
        assert_eq!(
            after.result.caps,
            mine(&cold, "santander", &params).unwrap().result.caps
        );
        // The appended revision is itself cached now.
        assert!(mine(&svc, "santander", &params).unwrap().cache_hit);
    }

    #[test]
    fn append_error_paths() {
        let svc = MiscelaService::new();
        // Appending to an unregistered dataset fails at begin.
        assert!(svc
            .begin_append_keyed_in(DEFAULT_TENANT, "ghost", None)
            .is_err());
        register(&svc, small_dataset());
        // Chunk/finish without a session in progress.
        let chunk = miscela_csv::split_into_chunks("id,attribute,time,data\n", 10).pop();
        assert!(
            chunk.is_none()
                || svc
                    .append_chunk_in(DEFAULT_TENANT, "santander", &chunk.unwrap())
                    .is_err()
        );
        assert!(svc
            .finish_append_keyed_in(DEFAULT_TENANT, "santander", None)
            .is_err());
        // Rows inside the existing grid are rejected at finish and leave
        // the dataset untouched.
        let writer = DatasetWriter::new();
        let ds = svc.dataset_in(DEFAULT_TENANT, "santander").unwrap();
        let n = ds.timestamp_count();
        let stale_csv = writer.data_csv(&ds);
        drop(ds);
        assert!(svc
            .append_documents_in(DEFAULT_TENANT, "santander", &stale_csv, 10_000)
            .is_err());
        assert_eq!(
            svc.dataset_in(DEFAULT_TENANT, "santander")
                .unwrap()
                .timestamp_count(),
            n
        );
        assert_eq!(
            svc.dataset_revision_in(DEFAULT_TENANT, "santander")
                .unwrap(),
            1
        );
    }

    #[test]
    fn finish_append_shares_prefix_blocks_with_the_previous_revision() {
        // The deep-clone-per-append regression test: the dataset swapped in
        // by finish_append must share every pre-existing sealed series
        // block with the previous revision by pointer (`Arc::ptr_eq`
        // through `shares_blocks_with`) — appends extend, they never copy
        // the stable prefix.
        let full = SantanderGenerator::small().with_scale(0.04).generate();
        let n = full.timestamp_count();
        let split_t = full.grid().at(n - 8).unwrap();
        let prefix = full.slice_time(full.grid().start(), split_t).unwrap();
        let tail = full.slice_time(split_t, full.grid().range().end).unwrap();
        let writer = DatasetWriter::new();

        let svc = MiscelaService::new();
        svc.upload_documents_in(
            DEFAULT_TENANT,
            "santander",
            &writer.data_csv(&prefix),
            &writer.location_csv(&prefix),
            &writer.attribute_csv(&prefix),
            10_000,
        )
        .unwrap();
        let before = svc.dataset_in(DEFAULT_TENANT, "santander").unwrap();
        assert!(
            before.iter().next().unwrap().series.block_count() > 0,
            "fixture must be long enough to have sealed blocks"
        );
        let summary = svc
            .append_documents_in(DEFAULT_TENANT, "santander", &writer.data_csv(&tail), 10_000)
            .unwrap();
        assert_eq!(summary.new_timestamps, 8);
        assert_eq!(summary.trimmed_timestamps, 0);
        let after = svc.dataset_in(DEFAULT_TENANT, "santander").unwrap();
        for idx in before.indices() {
            let old = before.series(idx);
            let new = after.series(idx);
            assert_eq!(
                new.shares_blocks_with(old),
                old.block_count(),
                "append deep-copied the prefix of sensor {idx:?}"
            );
        }
    }

    #[test]
    fn retention_policy_trims_bumps_revision_and_stays_equivalent() {
        use miscela_model::{RetentionPolicy, SERIES_BLOCK_LEN};

        let svc = MiscelaService::new();
        register(&svc, small_dataset());
        let params = quick_params();
        let before = mine(&svc, "santander", &params).unwrap();
        assert_eq!(before.revision, 1);

        // A policy that trims nothing yet does not bump the revision.
        let n = svc
            .dataset_in(DEFAULT_TENANT, "santander")
            .unwrap()
            .timestamp_count();
        assert!(n > SERIES_BLOCK_LEN, "fixture must span multiple blocks");
        let noop = svc
            .set_retention_keyed_in(
                DEFAULT_TENANT,
                "santander",
                RetentionPolicy::keep_last(n),
                None,
            )
            .unwrap()
            .0;
        assert_eq!(noop.trimmed_timestamps, 0);
        assert_eq!(noop.revision, 1);
        assert!(mine(&svc, "santander", &params).unwrap().cache_hit);

        // A tight window trims whole blocks, bumps the revision, and makes
        // the pre-trim cached result unreachable.
        let tight = svc
            .set_retention_keyed_in(
                DEFAULT_TENANT,
                "santander",
                RetentionPolicy::keep_last(16),
                None,
            )
            .unwrap()
            .0;
        assert_eq!(tight.trimmed_timestamps, SERIES_BLOCK_LEN);
        assert_eq!(tight.trimmed_total, SERIES_BLOCK_LEN);
        assert_eq!(tight.timestamps, n - SERIES_BLOCK_LEN);
        assert_eq!(tight.revision, 2);
        assert_eq!(
            *svc.dataset_in(DEFAULT_TENANT, "santander")
                .unwrap()
                .retention(),
            RetentionPolicy::keep_last(16)
        );
        let after = mine(&svc, "santander", &params).unwrap();
        assert!(!after.cache_hit);
        assert_eq!(after.revision, 2);
        // Equivalence: the trimmed window mines identically to a cold
        // re-chunked copy of the same content.
        let ds = svc.dataset_in(DEFAULT_TENANT, "santander").unwrap();
        let twin = ds
            .slice_time(ds.grid().start(), ds.grid().range().end)
            .unwrap();
        let cold = Miner::new(params.clone()).unwrap().mine(&twin).unwrap();
        assert_eq!(after.result.caps, cold.caps);
        // The stale revision was garbage-collected from the result cache.
        assert!(svc.cache_stats().evicted > 0);
    }

    #[test]
    fn append_sessions_apply_retention_and_stay_equivalent() {
        use miscela_model::{RetentionPolicy, SERIES_BLOCK_LEN};

        // Stream a long waveform through a retained window over the *real*
        // upload/retention/append-session routes: after every append (with
        // its policy-driven trims), mining must equal a cold mine of the
        // retained window, and dead revisions must be collected instead of
        // accumulating.
        let source = SantanderGenerator::small().with_scale(0.12).generate();
        let total = source.timestamp_count();
        let window_end = SERIES_BLOCK_LEN + 40;
        let rounds = 8usize;
        let batch = 32usize;
        assert!(
            total > window_end + rounds * batch,
            "source too short: {total}"
        );
        let writer = DatasetWriter::new();
        let initial = source
            .slice_time(source.grid().start(), source.grid().at(window_end).unwrap())
            .unwrap();

        let svc = MiscelaService::new();
        svc.upload_documents_in(
            DEFAULT_TENANT,
            "stream",
            &writer.data_csv(&initial),
            &writer.location_csv(&initial),
            &writer.attribute_csv(&initial),
            10_000,
        )
        .unwrap();
        svc.set_retention_keyed_in(
            DEFAULT_TENANT,
            "stream",
            RetentionPolicy::keep_last(SERIES_BLOCK_LEN),
            None,
        )
        .unwrap();
        let params = quick_params();
        mine(&svc, "stream", &params).unwrap();

        let mut appended_through = window_end;
        let mut mirror_len = window_end;
        let mut total_trimmed = 0usize;
        for round in 0..rounds {
            let tail = source
                .slice_time(
                    source.grid().at(appended_through).unwrap(),
                    source.grid().at(appended_through + batch).unwrap(),
                )
                .unwrap();
            appended_through += batch;
            let summary = svc
                .append_documents_in(DEFAULT_TENANT, "stream", &writer.data_csv(&tail), 10_000)
                .unwrap();
            assert_eq!(summary.new_timestamps, batch);
            // Mirror the policy: trims are block-granular over the excess.
            mirror_len += batch;
            let expired = mirror_len - SERIES_BLOCK_LEN;
            let expect_trim = expired - expired % SERIES_BLOCK_LEN;
            assert_eq!(summary.trimmed_timestamps, expect_trim, "round {round}");
            mirror_len -= expect_trim;
            total_trimmed += expect_trim;
            assert_eq!(summary.timestamps, mirror_len);
            let warm = mine(&svc, "stream", &params).unwrap();
            assert_eq!(warm.revision, summary.revision);
            let ds = svc.dataset_in(DEFAULT_TENANT, "stream").unwrap();
            let twin = ds
                .slice_time(ds.grid().start(), ds.grid().range().end)
                .unwrap();
            let cold = Miner::new(params.clone()).unwrap().mine(&twin).unwrap();
            assert_eq!(
                warm.result.caps, cold.caps,
                "round {round} diverged from the cold window"
            );
            // The in-memory window stays bounded by the policy plus one
            // partial block.
            assert!(ds.timestamp_count() < 2 * SERIES_BLOCK_LEN + batch);
        }
        // The stream actually slid (at least one block-granular trim ran).
        assert!(total_trimmed >= SERIES_BLOCK_LEN);
        assert_eq!(
            svc.dataset_in(DEFAULT_TENANT, "stream").unwrap().trimmed(),
            total_trimmed
        );
        // Dead revisions were garbage-collected from the result cache: only
        // the live revision's entry remains stored.
        assert_eq!(svc.store.cache.stored_results(), 1);
        assert!(svc.cache_stats().evicted > 0);
    }

    #[test]
    fn busy_feeds_do_not_evict_quiet_datasets_extraction_states() {
        use miscela_datagen::{ChinaGenerator, ChinaProfile};

        // Extraction caches are per dataset: revision churn on one feed
        // must never garbage-collect the still-valid extraction states of
        // a quiet dataset.
        let svc = MiscelaService::new();
        register(&svc, small_dataset()); // busy feed "santander"
        let quiet = ChinaGenerator::small(ChinaProfile::China6)
            .with_scale(0.006)
            .generate();
        let quiet_sensors = quiet.sensor_count();
        register(&svc, quiet); // quiet dataset "china6"
        let params = quick_params();
        mine(&svc, "china6", &params).unwrap();

        // Churn the busy feed far past DEFAULT_KEEP_GENERATIONS.
        for _ in 0..(2 * miscela_cache::DEFAULT_KEEP_GENERATIONS + 2) {
            register(&svc, small_dataset());
        }

        // A psi tweak forces the extraction path for the quiet dataset:
        // every one of its series must still hit its cached state.
        let outcome = mine(&svc, "china6", &params.clone().with_psi(21)).unwrap();
        assert_eq!(
            outcome.result.report.extraction_cache_hits, quiet_sensors,
            "churn on the busy feed evicted the quiet dataset's states"
        );
    }

    #[test]
    fn retention_can_trim_to_a_tail_only_window() {
        use miscela_model::{RetentionPolicy, SERIES_BLOCK_LEN};

        // Edge fixture: a window tighter than one block trims *every*
        // sealed block, leaving only the mutable tail — the dataset must
        // survive (retention never empties the grid) and keep mining.
        let svc = MiscelaService::new();
        register(&svc, small_dataset());
        let n = svc
            .dataset_in(DEFAULT_TENANT, "santander")
            .unwrap()
            .timestamp_count();
        let summary = svc
            .set_retention_keyed_in(
                DEFAULT_TENANT,
                "santander",
                RetentionPolicy::keep_last(1),
                None,
            )
            .unwrap()
            .0;
        let ds = svc.dataset_in(DEFAULT_TENANT, "santander").unwrap();
        assert_eq!(ds.iter().next().unwrap().series.block_count(), 0);
        assert_eq!(ds.timestamp_count(), n - summary.trimmed_timestamps);
        assert_eq!(ds.timestamp_count(), n % SERIES_BLOCK_LEN);
        assert!(ds.timestamp_count() > 0);
        // The tail-only window still mines (equivalently to its cold twin).
        let params = quick_params();
        let warm = mine(&svc, "santander", &params).unwrap();
        let twin = ds
            .slice_time(ds.grid().start(), ds.grid().range().end)
            .unwrap();
        let cold = Miner::new(params.clone()).unwrap().mine(&twin).unwrap();
        assert_eq!(warm.result.caps, cold.caps);
    }

    #[test]
    fn upload_documents_convenience() {
        let generated = small_dataset();
        let writer = DatasetWriter::new();
        let svc = MiscelaService::new();
        let summary = svc
            .upload_documents_in(
                DEFAULT_TENANT,
                "conv",
                &writer.data_csv(&generated),
                &writer.location_csv(&generated),
                &writer.attribute_csv(&generated),
                miscela_csv::DEFAULT_CHUNK_LINES,
            )
            .unwrap();
        assert_eq!(summary.sensors, generated.sensor_count());
        assert_eq!(svc.list_datasets_in(DEFAULT_TENANT).unwrap().len(), 1);
    }

    #[test]
    fn finish_append_without_a_session_is_a_typed_not_found() {
        // Regression: finishing an append that was never begun must be a
        // typed NotFound, never a panic — including after the session was
        // cleared out from under the client by a delete or re-register.
        let svc = MiscelaService::new();
        let err = svc
            .finish_append_keyed_in(DEFAULT_TENANT, "ghost", None)
            .unwrap_err();
        assert!(matches!(err, ApiError::NotFound(_)), "{err:?}");
        register(&svc, small_dataset());
        let err = svc
            .finish_append_keyed_in(DEFAULT_TENANT, "santander", None)
            .unwrap_err();
        assert!(matches!(err, ApiError::NotFound(_)), "{err:?}");
        // delete_dataset clears the in-flight session.
        svc.begin_append_keyed_in(DEFAULT_TENANT, "santander", None)
            .unwrap();
        svc.delete_dataset_keyed_in(DEFAULT_TENANT, "santander", None)
            .unwrap();
        register(&svc, small_dataset());
        let err = svc
            .finish_append_keyed_in(DEFAULT_TENANT, "santander", None)
            .unwrap_err();
        assert!(matches!(err, ApiError::NotFound(_)), "{err:?}");
    }

    fn durable_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("miscela-service-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn append_status_reads_the_same_before_and_after_a_restart() {
        // `received` counts distinct chunks however they arrived, so a
        // durable session fed unsequenced chunks (which leave no sequenced
        // acks) reports the same counts live and after recovery.
        let full = small_dataset();
        let n = full.timestamp_count();
        let split_t = full.grid().at(n - 12).unwrap();
        let prefix = full.slice_time(full.grid().start(), split_t).unwrap();
        let tail = full.slice_time(split_t, full.grid().range().end).unwrap();
        let writer = DatasetWriter::new();
        let chunks = miscela_csv::split_into_chunks(&writer.data_csv(&tail), 40);
        assert!(chunks.len() > 2, "fixture must leave chunks missing");

        let dir = durable_dir("append-status");
        let live = {
            let svc = MiscelaService::with_durability(&dir).unwrap();
            svc.upload_documents_in(
                DEFAULT_TENANT,
                "santander",
                &writer.data_csv(&prefix),
                &writer.location_csv(&prefix),
                &writer.attribute_csv(&prefix),
                10_000,
            )
            .unwrap();
            svc.begin_append_keyed_in(DEFAULT_TENANT, "santander", None)
                .unwrap();
            for chunk in &chunks[..2] {
                svc.append_chunk_in(DEFAULT_TENANT, "santander", chunk)
                    .unwrap();
            }
            svc.append_status_in(DEFAULT_TENANT, "santander")
                .unwrap()
                .unwrap()
        };
        assert_eq!((live.received, live.missing), (2, chunks.len() - 2));
        let svc = MiscelaService::with_durability(&dir).unwrap();
        let restarted = svc
            .append_status_in(DEFAULT_TENANT, "santander")
            .unwrap()
            .unwrap();
        assert_eq!(
            (restarted.received, restarted.missing),
            (live.received, live.missing)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn acked_seq_reads_the_same_before_and_after_a_restart() {
        use miscela_model::RetentionPolicy;

        // Only sequenced chunks advance `acked_seq`. Recovery must rebuild
        // it from those alone — with or without a mid-session snapshot that
        // re-logs the session — and a recovered sequenced session must
        // still replay every duplicate ack. A re-sent chunk index under a
        // new sequence number is a new delivery, live and recovered.
        let full = small_dataset();
        let n = full.timestamp_count();
        let split_t = full.grid().at(n - 12).unwrap();
        let prefix = full.slice_time(full.grid().start(), split_t).unwrap();
        let tail = full.slice_time(split_t, full.grid().range().end).unwrap();
        let writer = DatasetWriter::new();
        let chunks = miscela_csv::split_into_chunks(&writer.data_csv(&tail), 40);
        assert!(chunks.len() > 3, "fixture must leave chunks missing");

        // (label, sequenced, chunk index of deliveries 1–3, retention
        // snapshot between deliveries 2 and 3)
        let scripts = [
            ("unsequenced", false, [0, 1, 2], true),
            ("sequenced", true, [0, 1, 2], true),
            ("reused-index", true, [0, 0, 1], false),
            ("reused-index-relog", true, [0, 0, 1], true),
        ];
        for (label, sequenced, indices, relog) in scripts {
            let dir = durable_dir(&format!("acked-seq-{label}"));
            let (live, live_acks) = {
                let svc = MiscelaService::with_durability(&dir).unwrap();
                svc.upload_documents_in(
                    DEFAULT_TENANT,
                    "santander",
                    &writer.data_csv(&prefix),
                    &writer.location_csv(&prefix),
                    &writer.attribute_csv(&prefix),
                    10_000,
                )
                .unwrap();
                let session = svc
                    .begin_append_keyed_in(DEFAULT_TENANT, "santander", None)
                    .unwrap()
                    .session;
                let mut acks = Vec::new();
                for (seq, index) in (1..).zip(indices) {
                    if seq == 3 && relog {
                        // A retention snapshot resets the WAL and re-logs
                        // the in-flight session.
                        svc.set_retention_keyed_in(
                            DEFAULT_TENANT,
                            "santander",
                            RetentionPolicy::keep_last(n),
                            None,
                        )
                        .unwrap();
                    }
                    if sequenced {
                        acks.push(
                            svc.append_chunk_seq_in(
                                DEFAULT_TENANT,
                                "santander",
                                session,
                                seq,
                                &chunks[index],
                            )
                            .unwrap(),
                        );
                    } else {
                        svc.append_chunk_in(DEFAULT_TENANT, "santander", &chunks[index])
                            .unwrap();
                    }
                }
                let status = svc
                    .append_status_in(DEFAULT_TENANT, "santander")
                    .unwrap()
                    .unwrap();
                (status, acks)
            };
            assert_eq!(live.acked_seq, if sequenced { 3 } else { 0 }, "{label}");
            let svc = MiscelaService::with_durability(&dir).unwrap();
            let restarted = svc
                .append_status_in(DEFAULT_TENANT, "santander")
                .unwrap()
                .unwrap();
            assert_eq!(restarted, live, "{label}");
            for ((seq, index), live_ack) in (1..).zip(indices).zip(live_acks) {
                let replayed = svc
                    .append_chunk_seq_in(
                        DEFAULT_TENANT,
                        "santander",
                        live.session,
                        seq,
                        &chunks[index],
                    )
                    .unwrap();
                let expected = ChunkAck {
                    acked_seq: 3,
                    replayed: true,
                    ..live_ack
                };
                assert_eq!(replayed, expected, "{label}: seq {seq}");
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn keyed_retries_replay_only_once_the_mutation_is_durable() {
        use miscela_model::RetentionPolicy;
        use miscela_store::wal::{FailPoint, FailingOpener, SinkOpener};

        // A keyed mutation whose durable write failed is applied in memory
        // and remembered. Its retry must not replay that outcome while the
        // disk is still dead: the degraded probe runs first, so the retry
        // gets the same typed 503 until the probe's snapshot has made the
        // mutation durable — then it replays, and a restart shows it.
        let full = small_dataset();
        let n = full.timestamp_count();
        let split_t = full.grid().at(n - 12).unwrap();
        let prefix = full.slice_time(full.grid().start(), split_t).unwrap();
        let tail = full.slice_time(split_t, full.grid().range().end).unwrap();
        let writer = DatasetWriter::new();

        let dir = durable_dir("keyed-degraded");
        let fail = FailPoint::unlimited();
        let opener: Arc<dyn SinkOpener> = Arc::new(FailingOpener::new(fail.clone()));
        let open = || {
            MiscelaService::with_durability_opener(
                Arc::new(Database::new()),
                &dir,
                Arc::clone(&opener),
            )
            .unwrap()
        };
        let dead_then_replayed = |what: &str, mutate: &dyn Fn() -> Result<bool, ApiError>| {
            fail.exhaust();
            for attempt in ["the call", "its keyed retry"] {
                let err = mutate().unwrap_err();
                assert!(
                    matches!(err, ApiError::Unavailable { .. }),
                    "{what}: {attempt} on a dead disk: {err:?}"
                );
            }
            fail.heal();
            assert!(
                mutate().unwrap(),
                "{what}: the retry after the heal replays"
            );
        };
        let revision = |svc: &MiscelaService| svc.dataset_revision_in(DEFAULT_TENANT, "santander");

        let svc = open();
        svc.upload_documents_in(
            DEFAULT_TENANT,
            "santander",
            &writer.data_csv(&prefix),
            &writer.location_csv(&prefix),
            &writer.attribute_csv(&prefix),
            10_000,
        )
        .unwrap();
        svc.begin_append_keyed_in(DEFAULT_TENANT, "santander", None)
            .unwrap();
        for chunk in miscela_csv::split_into_chunks(&writer.data_csv(&tail), 40) {
            svc.append_chunk_in(DEFAULT_TENANT, "santander", &chunk)
                .unwrap();
        }
        dead_then_replayed("finish_append", &|| {
            svc.finish_append_keyed_in(DEFAULT_TENANT, "santander", Some("finish"))
                .map(|(summary, _, replayed)| replayed && summary.revision == 2)
        });
        drop(svc);
        let svc = open();
        assert_eq!(revision(&svc).unwrap(), 2);
        let ds = svc.dataset_in(DEFAULT_TENANT, "santander").unwrap();
        assert_eq!(ds.timestamp_count(), n);
        assert_eq!(
            svc.append_status_in(DEFAULT_TENANT, "santander").unwrap(),
            None
        );

        // Trims one whole block, so the revision bumps.
        let policy = RetentionPolicy::keep_last(n - miscela_model::SERIES_BLOCK_LEN);
        dead_then_replayed("set_retention", &|| {
            svc.set_retention_keyed_in(DEFAULT_TENANT, "santander", policy, Some("retention"))
                .map(|(summary, replayed)| replayed && summary.revision == 3)
        });
        drop(svc);
        let svc = open();
        assert_eq!(revision(&svc).unwrap(), 3);
        let ds = svc.dataset_in(DEFAULT_TENANT, "santander").unwrap();
        assert_eq!(*ds.retention(), policy);
        assert_eq!(ds.timestamp_count(), n - miscela_model::SERIES_BLOCK_LEN);

        dead_then_replayed("register_dataset", &|| {
            svc.register_dataset_keyed_in(DEFAULT_TENANT, small_dataset(), Some("register"))
                .map(|(_, replayed)| replayed)
        });
        drop(svc);
        let svc = open();
        assert_eq!(revision(&svc).unwrap(), 4);
        let ds = svc.dataset_in(DEFAULT_TENANT, "santander").unwrap();
        assert_eq!(ds.timestamp_count(), n);

        // A finished upload registers through the same path.
        svc.begin_upload_keyed_in(
            DEFAULT_TENANT,
            "santander",
            &writer.location_csv(&prefix),
            &writer.attribute_csv(&prefix),
            None,
        )
        .unwrap();
        for chunk in miscela_csv::split_into_chunks(&writer.data_csv(&prefix), 10_000) {
            svc.upload_chunk_in(DEFAULT_TENANT, "santander", &chunk)
                .unwrap();
        }
        dead_then_replayed("finish_upload", &|| {
            svc.finish_upload_keyed_in(DEFAULT_TENANT, "santander", Some("upload"))
                .map(|(_, _, replayed)| replayed)
        });
        drop(svc);
        let svc = open();
        assert_eq!(revision(&svc).unwrap(), 5);
        let ds = svc.dataset_in(DEFAULT_TENANT, "santander").unwrap();
        assert_eq!(ds.timestamp_count(), n - 12);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_unacked_delivery_is_relogged_and_recovered_unacknowledged() {
        use miscela_store::wal::{FailPoint, FailingOpener};

        // A sequenced delivery accepted while the disk dies is never acked.
        // The probe re-logs it as unacknowledged, so a restart keeps its
        // rows but not its sequence number: the client's retry is taken in
        // order, as it would be live.
        let full = small_dataset();
        let n = full.timestamp_count();
        let split_t = full.grid().at(n - 12).unwrap();
        let prefix = full.slice_time(full.grid().start(), split_t).unwrap();
        let tail = full.slice_time(split_t, full.grid().range().end).unwrap();
        let writer = DatasetWriter::new();
        let chunks = miscela_csv::split_into_chunks(&writer.data_csv(&tail), 40);
        assert!(chunks.len() > 3, "fixture must leave chunks missing");

        let dir = durable_dir("unacked");
        let fail = FailPoint::unlimited();
        let opener = Arc::new(FailingOpener::new(fail.clone()));
        let svc = MiscelaService::with_durability_opener(Arc::new(Database::new()), &dir, opener)
            .unwrap();
        svc.upload_documents_in(
            DEFAULT_TENANT,
            "santander",
            &writer.data_csv(&prefix),
            &writer.location_csv(&prefix),
            &writer.attribute_csv(&prefix),
            10_000,
        )
        .unwrap();
        let session = svc
            .begin_append_keyed_in(DEFAULT_TENANT, "santander", None)
            .unwrap()
            .session;
        let deliver = |svc: &MiscelaService, seq: u64| {
            let chunk = &chunks[seq as usize - 1];
            svc.append_chunk_seq_in(DEFAULT_TENANT, "santander", session, seq, chunk)
        };
        let status = |svc: &MiscelaService| {
            svc.append_status_in(DEFAULT_TENANT, "santander")
                .unwrap()
                .unwrap()
        };
        deliver(&svc, 1).unwrap();
        fail.exhaust();
        let err = deliver(&svc, 2).unwrap_err();
        assert!(matches!(err, ApiError::Unavailable { .. }), "{err:?}");
        fail.heal();
        // The next delivery's probe re-arms the log, re-logging the session;
        // its screen then refuses the gap the unacked delivery left.
        let err = deliver(&svc, 3).unwrap_err();
        assert!(
            matches!(
                err,
                ApiError::SequenceGap {
                    expected_seq: 2,
                    ..
                }
            ),
            "{err:?}"
        );
        let live = status(&svc);
        assert_eq!((live.acked_seq, live.received), (1, 2));
        drop(svc);

        let svc = MiscelaService::with_durability(&dir).unwrap();
        assert_eq!(status(&svc), live);
        let retried = deliver(&svc, 2).unwrap();
        assert!(!retried.replayed);
        assert_eq!((retried.accepted, retried.acked_seq), (1, 2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_service_replays_committed_appends_after_restart() {
        let full = small_dataset();
        let n = full.timestamp_count();
        let split_t = full.grid().at(n - 12).unwrap();
        let prefix = full.slice_time(full.grid().start(), split_t).unwrap();
        let tail = full.slice_time(split_t, full.grid().range().end).unwrap();
        let writer = DatasetWriter::new();
        let tail_csv = writer.data_csv(&tail);
        let params = quick_params();

        let dir = durable_dir("replay");
        let before_caps;
        {
            let svc = MiscelaService::with_durability(&dir).unwrap();
            svc.upload_documents_in(
                DEFAULT_TENANT,
                "santander",
                &writer.data_csv(&prefix),
                &writer.location_csv(&prefix),
                &writer.attribute_csv(&prefix),
                10_000,
            )
            .unwrap();
            let summary = svc
                .append_documents_in(DEFAULT_TENANT, "santander", &tail_csv, 100)
                .unwrap();
            assert_eq!(summary.revision, 2);
            before_caps = mine(&svc, "santander", &params).unwrap().result.caps;
            // Drop without any shutdown hook: durability must not rely on one.
        }
        let svc = MiscelaService::with_durability(&dir).unwrap();
        assert_eq!(
            svc.dataset_revision_in(DEFAULT_TENANT, "santander")
                .unwrap(),
            2
        );
        assert_eq!(
            svc.dataset_in(DEFAULT_TENANT, "santander")
                .unwrap()
                .timestamp_count(),
            n
        );
        // The 12-point tail sealed no new block, so the session survived in
        // the WAL (not a snapshot) and was replayed record by record.
        let stats = svc
            .durability_stats_in(DEFAULT_TENANT, "santander")
            .unwrap();
        assert!(stats.replayed_records >= 3, "{stats:?}");
        assert_eq!(stats.snapshot_generation, 1);
        assert_eq!(stats.torn_bytes, 0);
        // Byte-identical mining outcome on the recovered dataset.
        let after = mine(&svc, "santander", &params).unwrap();
        assert!(!after.cache_hit);
        assert_eq!(after.revision, 2);
        assert_eq!(after.result.caps, before_caps);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_service_restores_uncommitted_sessions_across_restart() {
        use miscela_model::RetentionPolicy;

        let full = small_dataset();
        let n = full.timestamp_count();
        let split_t = full.grid().at(n - 12).unwrap();
        let prefix = full.slice_time(full.grid().start(), split_t).unwrap();
        let tail = full.slice_time(split_t, full.grid().range().end).unwrap();
        let writer = DatasetWriter::new();
        let chunks = miscela_csv::split_into_chunks(&writer.data_csv(&tail), 50);
        assert!(chunks.len() >= 2, "fixture must span several chunks");
        let params = quick_params();

        let dir = durable_dir("inflight");
        {
            let svc = MiscelaService::with_durability(&dir).unwrap();
            svc.upload_documents_in(
                DEFAULT_TENANT,
                "santander",
                &writer.data_csv(&prefix),
                &writer.location_csv(&prefix),
                &writer.attribute_csv(&prefix),
                10_000,
            )
            .unwrap();
            svc.begin_append_keyed_in(DEFAULT_TENANT, "santander", None)
                .unwrap();
            let (first, rest) = chunks.split_at(chunks.len() / 2);
            for chunk in first {
                svc.append_chunk_in(DEFAULT_TENANT, "santander", chunk)
                    .unwrap();
            }
            // A mid-session retention snapshot resets the WAL; the acked
            // chunks must be re-logged into it (relog_inflight) or the
            // session would be silently lost below.
            svc.set_retention_keyed_in(
                DEFAULT_TENANT,
                "santander",
                RetentionPolicy::keep_last(n),
                None,
            )
            .unwrap();
            for chunk in rest {
                svc.append_chunk_in(DEFAULT_TENANT, "santander", chunk)
                    .unwrap();
            }
            // Crash before finish_append.
        }
        let svc = MiscelaService::with_durability(&dir).unwrap();
        assert_eq!(
            svc.dataset_revision_in(DEFAULT_TENANT, "santander")
                .unwrap(),
            1
        );
        let (summary, _elapsed, _) = svc
            .finish_append_keyed_in(DEFAULT_TENANT, "santander", None)
            .unwrap();
        assert_eq!(summary.new_timestamps, 12);
        assert_eq!(summary.timestamps, n);
        assert_eq!(summary.revision, 2);
        // The restored session produced the same dataset (and CAPs) as an
        // uninterrupted twin driving the same appends.
        let twin = MiscelaService::new();
        twin.upload_documents_in(
            DEFAULT_TENANT,
            "santander",
            &writer.data_csv(&prefix),
            &writer.location_csv(&prefix),
            &writer.attribute_csv(&prefix),
            10_000,
        )
        .unwrap();
        twin.append_documents_in(DEFAULT_TENANT, "santander", &writer.data_csv(&tail), 50)
            .unwrap();
        assert_eq!(
            mine(&svc, "santander", &params).unwrap().result.caps,
            mine(&twin, "santander", &params).unwrap().result.caps
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn begin_append_while_open_is_a_typed_conflict() {
        let full = small_dataset();
        let n = full.timestamp_count();
        let split_t = full.grid().at(n - 12).unwrap();
        let prefix = full.slice_time(full.grid().start(), split_t).unwrap();
        let tail = full.slice_time(split_t, full.grid().range().end).unwrap();
        let writer = DatasetWriter::new();

        let svc = MiscelaService::new();
        svc.upload_documents_in(
            DEFAULT_TENANT,
            "santander",
            &writer.data_csv(&prefix),
            &writer.location_csv(&prefix),
            &writer.attribute_csv(&prefix),
            10_000,
        )
        .unwrap();
        svc.begin_append_keyed_in(DEFAULT_TENANT, "santander", None)
            .unwrap();
        let chunks = miscela_csv::split_into_chunks(&writer.data_csv(&tail), 50);
        svc.append_chunk_in(DEFAULT_TENANT, "santander", &chunks[0])
            .unwrap();
        // A second begin must not silently replace the open session (which
        // would orphan its acknowledged chunks).
        let err = svc
            .begin_append_keyed_in(DEFAULT_TENANT, "santander", None)
            .unwrap_err();
        assert!(matches!(err, ApiError::Conflict(_)), "{err:?}");
        assert!(!err.is_retryable());
        assert_eq!(err.status().as_u16(), 409);
        // The open session survived the rejected begin and finishes with
        // every chunk it acknowledged.
        for chunk in &chunks[1..] {
            svc.append_chunk_in(DEFAULT_TENANT, "santander", chunk)
                .unwrap();
        }
        let (summary, _elapsed, _) = svc
            .finish_append_keyed_in(DEFAULT_TENANT, "santander", None)
            .unwrap();
        assert_eq!(summary.new_timestamps, 12);
        // After the finish, a new session opens cleanly.
        svc.begin_append_keyed_in(DEFAULT_TENANT, "santander", None)
            .unwrap();
    }

    #[test]
    fn expired_deadline_is_typed_and_cache_hits_still_serve() {
        let svc = MiscelaService::new();
        register(&svc, small_dataset());
        let params = quick_params();
        // A cold mine whose deadline already passed is refused before any
        // work happens (typed, retryable).
        let expired = Some(Instant::now());
        let err = svc
            .mine_cancellable_in(
                DEFAULT_TENANT,
                "santander",
                &params,
                expired,
                &CancelToken::never(),
            )
            .unwrap_err();
        assert!(matches!(err, ApiError::DeadlineExceeded(_)), "{err:?}");
        assert!(err.is_retryable());
        // Nothing was cached by the refused request.
        let warm = mine(&svc, "santander", &params).unwrap();
        assert!(!warm.cache_hit);
        // A cache hit costs nothing, so it is served even past a deadline.
        let hit = svc
            .mine_cancellable_in(
                DEFAULT_TENANT,
                "santander",
                &params,
                Some(Instant::now()),
                &CancelToken::never(),
            )
            .unwrap();
        assert!(hit.cache_hit);
        assert_eq!(hit.result.caps, warm.result.caps);
    }

    #[test]
    fn cancelled_mine_leaves_cache_and_revisions_consistent() {
        let svc = MiscelaService::new();
        register(&svc, small_dataset());
        let params = quick_params();
        let revision = svc
            .dataset_revision_in(DEFAULT_TENANT, "santander")
            .unwrap();

        let cancelled = CancelToken::never();
        cancelled.cancel();
        let err = svc
            .mine_cancellable_in(DEFAULT_TENANT, "santander", &params, None, &cancelled)
            .unwrap_err();
        assert!(matches!(err, ApiError::DeadlineExceeded(_)), "{err:?}");

        // The aborted mine wrote nothing: no revision moved, no result was
        // cached, and an identical retry produces the same CAPs as a cold
        // twin service that never saw a cancellation.
        assert_eq!(
            svc.dataset_revision_in(DEFAULT_TENANT, "santander")
                .unwrap(),
            revision
        );
        let retry = mine(&svc, "santander", &params).unwrap();
        assert!(!retry.cache_hit);
        let twin = MiscelaService::new();
        register(&twin, small_dataset());
        assert_eq!(
            retry.result.caps,
            mine(&twin, "santander", &params).unwrap().result.caps
        );
    }

    #[test]
    fn each_distinct_point_counts_one_result_cache_lookup() {
        let svc = MiscelaService::new();
        register(&svc, small_dataset());
        let lookups = |svc: &MiscelaService| {
            let stats = svc.cache_stats();
            (stats.hits, stats.misses)
        };
        let p = quick_params();
        // A cold mine looks its key up once, before admission; the second
        // look after admission counts nothing.
        assert!(!mine(&svc, "santander", &p).unwrap().cache_hit);
        assert_eq!(lookups(&svc), (0, 1));
        assert!(mine(&svc, "santander", &p).unwrap().cache_hit);
        assert_eq!(lookups(&svc), (1, 1));
        // A sweep counts one lookup per distinct point: the cached point
        // once, each cold point once, repeats not at all.
        let (q, r) = (p.clone().with_psi(25), p.clone().with_psi(30));
        let points = [p.clone(), q.clone(), q, r, p];
        let SweepServed::Fresh(out) = svc
            .mine_sweep_in(
                DEFAULT_TENANT,
                "santander",
                &points,
                None,
                &CancelToken::never(),
                None,
            )
            .unwrap()
        else {
            panic!("an unkeyed sweep is never replayed");
        };
        assert_eq!(out.cache_hits, [true, false, false, false, true]);
        assert_eq!(lookups(&svc), (2, 3));
        assert!((svc.cache_stats().hit_rate() - 0.4).abs() < 1e-12);
    }

    /// Two sensors of different attributes about 110 m apart, each stepping
    /// 0 ↔ 1.0000002: every step evolves at ε = 1.0 and none at
    /// ε = 1.0000004, two rates that agree to six decimals.
    fn stepping_pair() -> Dataset {
        use miscela_model::{DatasetBuilder, GeoPoint, TimeGrid, TimeSeries, Timestamp};
        let n = 40;
        let mut b = DatasetBuilder::new("steps");
        let hour = miscela_model::Duration::hours(1);
        b.set_grid(TimeGrid::new(Timestamp::EPOCH, hour, n).unwrap());
        for (i, attr) in ["temperature", "traffic"].into_iter().enumerate() {
            let at = GeoPoint::new_unchecked(31.0, 121.0 + 0.001 * i as f64);
            let s = b.add_sensor(format!("s{i}"), attr, at).unwrap();
            let steps = (0..n).map(|t| (t % 2) as f64 * 1.0000002).collect();
            b.set_series(s, TimeSeries::from_values(steps)).unwrap();
        }
        b.build().unwrap()
    }

    /// The stepping pair's mining point at evolving rate `epsilon`.
    fn stepping_point(epsilon: f64) -> MiningParams {
        MiningParams::new()
            .with_epsilon(epsilon)
            .with_psi(5)
            .with_eta_km(1.0)
            .with_segmentation(false)
    }

    #[test]
    fn a_point_a_millionth_apart_misses_the_cache() {
        let svc = MiscelaService::new();
        let ds = stepping_pair();
        register(&svc, ds.clone());
        let (coarse, fine) = (stepping_point(1.0), stepping_point(1.0000004));
        assert!(!mine(&svc, "steps", &coarse).unwrap().result.caps.is_empty());
        let second = mine(&svc, "steps", &fine).unwrap();
        assert!(!second.cache_hit);
        let direct = Miner::new(fine).unwrap().mine(&ds).unwrap();
        assert!(direct.caps.is_empty());
        assert_eq!(second.result.caps, direct.caps);
    }

    #[test]
    fn a_sweep_keeps_points_a_millionth_apart() {
        let svc = MiscelaService::new();
        register(&svc, stepping_pair());
        let sweep = |points: &[MiningParams]| {
            svc.mine_sweep_in(
                DEFAULT_TENANT,
                "steps",
                points,
                None,
                &CancelToken::never(),
                None,
            )
        };
        let points = [stepping_point(1.0), stepping_point(1.0000004)];
        let Ok(SweepServed::Fresh(out)) = sweep(&points) else {
            panic!("an unkeyed sweep is served fresh");
        };
        assert_eq!(out.stats.unique_points, 2);
        assert!(!out.results[0].caps.is_empty());
        assert!(out.results[1].caps.is_empty());
        // A tolerance out of range is rejected even where it is not read,
        // so the invalid point cannot hide behind its valid twin.
        let hidden = points[0].clone().with_segmentation_error(1.5);
        assert_eq!(hidden, points[0]);
        assert!(matches!(
            sweep(&[points[0].clone(), hidden]),
            Err(ApiError::BadRequest(_))
        ));
    }

    #[test]
    fn huge_max_delay_mine_ends_within_its_deadline() {
        let svc = Arc::new(MiscelaService::new());
        register(&svc, small_dataset());
        let params = quick_params().with_max_delay(1_000_000_000_000);
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = Arc::clone(&svc);
        // On a thread, so that a mine which overruns fails the test instead
        // of hanging it.
        let mining = std::thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_millis(300);
            let _ = tx.send(worker.mine_cancellable_in(
                DEFAULT_TENANT,
                "santander",
                &params,
                Some(deadline),
                &CancelToken::never(),
            ));
        });
        let outcome = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the mine was still running 10 s after its 300 ms deadline");
        mining.join().unwrap();
        if let Err(e) = outcome {
            assert!(matches!(e, ApiError::DeadlineExceeded(_)), "{e:?}");
        }
        // The permit went back with the answer.
        assert_eq!(svc.admission_stats().in_flight, 0);
    }

    #[test]
    fn durable_paths_stay_typed_after_delete_and_reregister() {
        // Regression for the converted `expect("state just ensured")` site:
        // durable state is dropped by delete_dataset and lazily re-created
        // by the next durable write; every step must answer with typed
        // results, never a panic.
        let full = small_dataset();
        let n = full.timestamp_count();
        let split_t = full.grid().at(n - 12).unwrap();
        let prefix = full.slice_time(full.grid().start(), split_t).unwrap();
        let tail = full.slice_time(split_t, full.grid().range().end).unwrap();
        let writer = DatasetWriter::new();
        let upload = |svc: &MiscelaService| {
            svc.upload_documents_in(
                DEFAULT_TENANT,
                "santander",
                &writer.data_csv(&prefix),
                &writer.location_csv(&prefix),
                &writer.attribute_csv(&prefix),
                10_000,
            )
            .unwrap();
        };

        let dir = durable_dir("relazy");
        let svc = MiscelaService::with_durability(&dir).unwrap();
        upload(&svc);
        svc.begin_append_keyed_in(DEFAULT_TENANT, "santander", None)
            .unwrap();
        svc.delete_dataset_keyed_in(DEFAULT_TENANT, "santander", None)
            .unwrap();
        // The delete cleared the session and the durable state.
        let err = svc
            .begin_append_keyed_in(DEFAULT_TENANT, "santander", None)
            .unwrap_err();
        assert!(matches!(err, ApiError::NotFound(_)), "{err:?}");
        // Re-registering re-creates durable state on demand; append flows
        // work again end to end.
        upload(&svc);
        let summary = svc
            .append_documents_in(DEFAULT_TENANT, "santander", &writer.data_csv(&tail), 100)
            .unwrap();
        assert_eq!(summary.revision, 2);
        assert_eq!(summary.new_timestamps, 12);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn degraded_durability_serves_reads_and_recovers_without_losing_rows() {
        use miscela_store::wal::{FailPoint, FailingOpener};

        let full = small_dataset();
        let n = full.timestamp_count();
        let split_t = full.grid().at(n - 12).unwrap();
        let prefix = full.slice_time(full.grid().start(), split_t).unwrap();
        let tail = full.slice_time(split_t, full.grid().range().end).unwrap();
        let writer = DatasetWriter::new();
        let chunks = miscela_csv::split_into_chunks(&writer.data_csv(&tail), 30);
        assert!(chunks.len() >= 3, "fixture must span several chunks");
        let params = quick_params();

        let dir = durable_dir("degraded");
        let fail = FailPoint::unlimited();
        let opener = std::sync::Arc::new(FailingOpener::new(fail.clone()));
        let svc = MiscelaService::with_durability_opener(Arc::new(Database::new()), &dir, opener)
            .unwrap();
        svc.upload_documents_in(
            DEFAULT_TENANT,
            "santander",
            &writer.data_csv(&prefix),
            &writer.location_csv(&prefix),
            &writer.attribute_csv(&prefix),
            10_000,
        )
        .unwrap();
        svc.begin_append_keyed_in(DEFAULT_TENANT, "santander", None)
            .unwrap();
        svc.append_chunk_in(DEFAULT_TENANT, "santander", &chunks[0])
            .unwrap();

        // The disk dies between two acknowledged writes.
        fail.exhaust();
        let err = svc
            .append_chunk_in(DEFAULT_TENANT, "santander", &chunks[1])
            .unwrap_err();
        assert!(matches!(err, ApiError::Unavailable { .. }), "{err:?}");
        assert!(err.is_retryable());
        assert!(err.retry_after_ms().is_some());
        assert!(svc
            .degraded_reason_in(DEFAULT_TENANT, "santander")
            .is_some());

        // Read-only degraded mode: mines and reads keep serving...
        assert!(!mine(&svc, "santander", &params).unwrap().cache_hit);
        assert!(svc.dataset_in(DEFAULT_TENANT, "santander").is_ok());
        // ...while every durable write path answers typed and retryable.
        let err = svc
            .append_chunk_in(DEFAULT_TENANT, "santander", &chunks[1])
            .unwrap_err();
        assert!(matches!(err, ApiError::Unavailable { .. }), "{err:?}");
        let err = svc
            .set_retention_keyed_in(
                DEFAULT_TENANT,
                "santander",
                miscela_model::RetentionPolicy::keep_last(n),
                None,
            )
            .unwrap_err();
        assert!(matches!(err, ApiError::Unavailable { .. }), "{err:?}");
        let err = svc
            .finish_append_keyed_in(DEFAULT_TENANT, "santander", None)
            .unwrap_err();
        assert!(matches!(err, ApiError::Unavailable { .. }), "{err:?}");
        assert!(svc
            .degraded_reason_in(DEFAULT_TENANT, "santander")
            .is_some());

        // The disk recovers: the next write probes the path, re-arms
        // durability (re-snapshotting and re-logging the acked chunks) and
        // proceeds. No acknowledged row was lost.
        fail.heal();
        svc.append_chunk_in(DEFAULT_TENANT, "santander", &chunks[1])
            .unwrap();
        assert!(svc
            .degraded_reason_in(DEFAULT_TENANT, "santander")
            .is_none());
        for chunk in &chunks[2..] {
            svc.append_chunk_in(DEFAULT_TENANT, "santander", chunk)
                .unwrap();
        }
        let (summary, _elapsed, _) = svc
            .finish_append_keyed_in(DEFAULT_TENANT, "santander", None)
            .unwrap();
        assert_eq!(summary.new_timestamps, 12);
        assert_eq!(summary.revision, 2);
        drop(svc);

        // A restart replays the episode's outcome: every acknowledged row
        // is present and the CAPs match an undisturbed twin byte for byte.
        let svc = MiscelaService::with_durability(&dir).unwrap();
        assert_eq!(
            svc.dataset_revision_in(DEFAULT_TENANT, "santander")
                .unwrap(),
            2
        );
        assert_eq!(
            svc.dataset_in(DEFAULT_TENANT, "santander")
                .unwrap()
                .timestamp_count(),
            n
        );
        let twin = MiscelaService::new();
        register(&twin, small_dataset());
        assert_eq!(
            mine(&svc, "santander", &params).unwrap().result.caps,
            mine(&twin, "santander", &params).unwrap().result.caps
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tenants_are_isolated() {
        let svc = MiscelaService::new();
        svc.register_dataset_keyed_in("alice", small_dataset(), None)
            .unwrap();
        svc.register_dataset_keyed_in("bob", small_dataset(), None)
            .unwrap();
        register(&svc, small_dataset());
        // Each namespace lists only its own datasets.
        assert_eq!(svc.list_datasets_in("alice").unwrap().len(), 1);
        assert_eq!(svc.list_datasets_in("bob").unwrap().len(), 1);
        assert_eq!(svc.list_datasets_in(DEFAULT_TENANT).unwrap().len(), 1);
        // Deleting bob's copy touches neither alice's nor the default one.
        svc.delete_dataset_keyed_in("bob", "santander", None)
            .unwrap();
        assert!(svc.dataset_in("bob", "santander").is_err());
        assert!(svc.dataset_in("alice", "santander").is_ok());
        assert!(svc.dataset_in(DEFAULT_TENANT, "santander").is_ok());
        // The result cache is namespaced too: alice's warm entry does not
        // serve the identical default-tenant dataset.
        let params = quick_params();
        assert!(
            !svc.mine_cancellable_in("alice", "santander", &params, None, &CancelToken::never())
                .unwrap()
                .cache_hit
        );
        assert!(
            svc.mine_cancellable_in("alice", "santander", &params, None, &CancelToken::never())
                .unwrap()
                .cache_hit
        );
        assert!(!mine(&svc, "santander", &params).unwrap().cache_hit);
        // Invalid tenant names and scoped dataset names are typed 400s.
        assert!(matches!(
            svc.list_datasets_in("no/pe"),
            Err(ApiError::BadRequest(_))
        ));
        assert!(matches!(
            svc.dataset_in("alice", "a/b"),
            Err(ApiError::BadRequest(_))
        ));
    }

    #[test]
    fn quotas_are_enforced_with_typed_errors() {
        let generated = small_dataset();
        let writer = DatasetWriter::new();
        let svc = MiscelaService::new();
        svc.set_quota(
            "capped",
            TenantQuota {
                max_datasets: Some(1),
                ..TenantQuota::default()
            },
        )
        .unwrap();
        svc.register_dataset_keyed_in("capped", small_dataset(), None)
            .unwrap();
        // Replacing the existing dataset is not a new dataset: allowed.
        svc.register_dataset_keyed_in("capped", small_dataset(), None)
            .unwrap();
        // A second distinct dataset trips the count quota on the upload
        // path (the quota check runs at finish, against assembled content).
        svc.begin_upload_keyed_in(
            "capped",
            "second",
            &writer.location_csv(&generated),
            &writer.attribute_csv(&generated),
            None,
        )
        .unwrap();
        for chunk in miscela_csv::split_into_chunks(&writer.data_csv(&generated), 5_000) {
            svc.upload_chunk_in("capped", "second", &chunk).unwrap();
        }
        let err = svc
            .finish_upload_keyed_in("capped", "second", None)
            .unwrap_err();
        assert!(matches!(err, ApiError::QuotaExceeded(_)), "{err:?}");
        assert_eq!(err.status(), crate::StatusCode::Forbidden);
        // A retained-timestamps budget smaller than the dataset rejects the
        // register outright.
        svc.set_quota(
            "tiny",
            TenantQuota {
                max_retained_timestamps: Some(generated.timestamp_count() - 1),
                ..TenantQuota::default()
            },
        )
        .unwrap();
        let err = svc
            .register_dataset_keyed_in("tiny", small_dataset(), None)
            .unwrap_err();
        assert!(matches!(err, ApiError::QuotaExceeded(_)), "{err:?}");
        // Raising the budget unblocks the same register.
        svc.set_quota("tiny", TenantQuota::default()).unwrap();
        svc.register_dataset_keyed_in("tiny", small_dataset(), None)
            .unwrap();
        // The default tenant is unlimited unless configured, and quota
        // reads round-trip.
        assert_eq!(svc.quota("capped").unwrap().max_datasets, Some(1));
        assert_eq!(svc.quota(DEFAULT_TENANT).unwrap(), TenantQuota::default());
    }

    #[test]
    fn delete_drops_sweep_bodies_and_keeps_every_other_key_replayable() {
        let full = small_dataset();
        let writer = DatasetWriter::new();
        let n = full.timestamp_count();
        let split_t = full.grid().at(n - 24).unwrap();
        let prefix = full.slice_time(full.grid().start(), split_t).unwrap();
        let tail = full.slice_time(split_t, full.grid().range().end).unwrap();
        let svc = MiscelaService::new();
        let (t, d) = ("acme", "santander");
        svc.begin_upload_keyed_in(
            t,
            d,
            &writer.location_csv(&prefix),
            &writer.attribute_csv(&prefix),
            Some("up-begin"),
        )
        .unwrap();
        for chunk in miscela_csv::split_into_chunks(&writer.data_csv(&prefix), 5_000) {
            svc.upload_chunk_in(t, d, &chunk).unwrap();
        }
        let (registered, _, _) = svc.finish_upload_keyed_in(t, d, Some("up-finish")).unwrap();
        let begun = svc.begin_append_keyed_in(t, d, Some("ap-begin")).unwrap();
        for chunk in miscela_csv::split_into_chunks(&writer.data_csv(&tail), 5_000) {
            svc.append_chunk_in(t, d, &chunk).unwrap();
        }
        let (appended, _, _) = svc.finish_append_keyed_in(t, d, Some("ap-finish")).unwrap();
        let (retained, _) = svc
            .set_retention_keyed_in(t, d, RetentionPolicy::unbounded(), Some("retain"))
            .unwrap();
        let points = [quick_params(), quick_params().with_psi(30)];
        for key in ["sweep-1", "sweep-2"] {
            let served = svc
                .mine_sweep_in(t, d, &points, None, &CancelToken::never(), Some(key))
                .unwrap();
            assert!(matches!(served, SweepServed::Fresh(_)));
            svc.remember_sweep_in(t, d, Some(key), format!("{{\"body\":{key:?}}}"));
        }
        assert!(matches!(
            svc.mine_sweep_in(t, d, &points, None, &CancelToken::never(), Some("sweep-1")),
            Ok(SweepServed::Replayed(_))
        ));
        assert_eq!(svc.protocol_stats_in(t).unwrap().cached_keys, 7);

        assert!(!svc.delete_dataset_keyed_in(t, d, Some("delete")).unwrap());
        // The sweep bodies and their keys are gone, with no ghost keys
        // left in the eviction order.
        {
            let tenant = svc.store.tenant_state(t);
            let p = tenant.protocol.lock();
            assert_eq!(p.entries.len(), 6);
            assert_eq!(p.order.len(), 6);
            assert!(p.order.iter().all(|key| p.entries.contains_key(key)));
            assert!(!p.order.iter().any(|key| key.starts_with("sweep")));
        }
        // A keyed sweep retried after the delete fails like an unkeyed one.
        let unkeyed = svc.mine_sweep_in(t, d, &points, None, &CancelToken::never(), None);
        let retried =
            svc.mine_sweep_in(t, d, &points, None, &CancelToken::never(), Some("sweep-1"));
        assert!(matches!(unkeyed, Err(ApiError::NotFound(_))), "{unkeyed:?}");
        assert_eq!(retried.err(), unkeyed.err());
        // Every other keyed outcome still replays.
        assert!(svc.delete_dataset_keyed_in(t, d, Some("delete")).unwrap());
        assert!(svc
            .begin_upload_keyed_in(t, d, "", "", Some("up-begin"))
            .unwrap());
        let (summary, _, replayed) = svc.finish_upload_keyed_in(t, d, Some("up-finish")).unwrap();
        assert!(replayed);
        assert_eq!(summary, registered);
        let again = svc.begin_append_keyed_in(t, d, Some("ap-begin")).unwrap();
        assert!(again.replayed);
        assert_eq!(again.session, begun.session);
        let (summary, _, replayed) = svc.finish_append_keyed_in(t, d, Some("ap-finish")).unwrap();
        assert!(replayed);
        assert_eq!(summary, appended);
        let (summary, replayed) = svc
            .set_retention_keyed_in(t, d, RetentionPolicy::unbounded(), Some("retain"))
            .unwrap();
        assert!(replayed);
        assert_eq!(summary, retained);
    }

    #[test]
    fn per_tenant_replay_cache_is_isolated() {
        let svc = MiscelaService::new();
        // The same idempotency key in two tenants names two independent
        // operations; each replays only within its own namespace.
        let (_, replayed) = svc
            .register_dataset_keyed_in("a", small_dataset(), Some("k1"))
            .unwrap();
        assert!(!replayed);
        let (_, replayed) = svc
            .register_dataset_keyed_in("b", small_dataset(), Some("k1"))
            .unwrap();
        assert!(!replayed, "tenant b must not see tenant a's replay entry");
        let (_, replayed) = svc
            .register_dataset_keyed_in("a", small_dataset(), Some("k1"))
            .unwrap();
        assert!(replayed);
        // Protocol stats slice per tenant: only tenant a recorded a replay.
        assert_eq!(svc.protocol_stats_in("a").unwrap().key_replays, 1);
        assert_eq!(svc.protocol_stats_in("b").unwrap().key_replays, 0);
        // The service-wide view still sums across tenants.
        assert_eq!(svc.protocol_stats().key_replays, 1);
    }

    #[test]
    fn watch_sees_append_bump_without_polling() {
        let full = small_dataset();
        let writer = DatasetWriter::new();
        let n = full.timestamp_count();
        let split_t = full.grid().at(n - 24).unwrap();
        let start = full.grid().start();
        let end = full.grid().range().end;
        let prefix = full.slice_time(start, split_t).unwrap();
        let tail = full.slice_time(split_t, end).unwrap();
        let svc = MiscelaService::new();
        svc.upload_documents_in(
            DEFAULT_TENANT,
            "santander",
            &writer.data_csv(&prefix),
            &writer.location_csv(&prefix),
            &writer.attribute_csv(&prefix),
            5_000,
        )
        .unwrap();
        std::thread::scope(|s| {
            let watcher = s.spawn(|| {
                svc.watch_in(
                    DEFAULT_TENANT,
                    "santander",
                    1,
                    Instant::now() + Duration::from_secs(10),
                )
            });
            // Give the watcher a moment to park; even if it has not parked
            // yet, it observes the bumped revision on its first predicate
            // check, so this cannot flake either way.
            std::thread::sleep(Duration::from_millis(50));
            let summary = svc
                .append_documents_in(DEFAULT_TENANT, "santander", &writer.data_csv(&tail), 1_000)
                .unwrap();
            assert_eq!(summary.revision, 2);
            let out = watcher.join().unwrap().unwrap();
            assert!(out.changed);
            assert_eq!(out.revision, 2);
            assert!(!out.deadline_expired);
        });
    }

    #[test]
    fn watch_immediate_paths_and_deadline() {
        let svc = MiscelaService::new();
        register(&svc, small_dataset());
        // since_revision 0 never matches a real revision: immediate reply
        // carrying the current state.
        let out = svc
            .watch_in(DEFAULT_TENANT, "santander", 0, Instant::now())
            .unwrap();
        assert!(out.changed);
        assert_eq!(out.revision, 1);
        assert!(out.timestamps > 0);
        // An up-to-date watcher with an expired deadline reports unchanged.
        let out = svc
            .watch_in(DEFAULT_TENANT, "santander", 1, Instant::now())
            .unwrap();
        assert!(!out.changed);
        assert!(out.deadline_expired);
        assert_eq!(out.revision, 1);
        // A short real deadline parks and then times out.
        let before = Instant::now();
        let out = svc
            .watch_in(
                DEFAULT_TENANT,
                "santander",
                1,
                before + Duration::from_millis(40),
            )
            .unwrap();
        assert!(!out.changed);
        assert!(out.deadline_expired);
        assert!(before.elapsed() >= Duration::from_millis(40));
        // An unregistered dataset is the typed close.
        assert!(matches!(
            svc.watch_in(DEFAULT_TENANT, "ghost", 0, Instant::now()),
            Err(ApiError::NotFound(_))
        ));
    }

    #[test]
    fn delete_wakes_parked_watchers_with_typed_close() {
        let svc = MiscelaService::new();
        register(&svc, small_dataset());
        std::thread::scope(|s| {
            let watcher = s.spawn(|| {
                svc.watch_in(
                    DEFAULT_TENANT,
                    "santander",
                    1,
                    Instant::now() + Duration::from_secs(10),
                )
            });
            std::thread::sleep(Duration::from_millis(50));
            svc.delete_dataset_keyed_in(DEFAULT_TENANT, "santander", None)
                .unwrap();
            let err = watcher.join().unwrap().unwrap_err();
            assert!(matches!(err, ApiError::NotFound(_)), "{err:?}");
        });
    }

    #[test]
    fn durable_tenant_namespaces_survive_restart() {
        let dir = durable_dir("tenant-ns");
        let generated = small_dataset();
        let writer = DatasetWriter::new();
        let data = writer.data_csv(&generated);
        let locations = writer.location_csv(&generated);
        let attributes = writer.attribute_csv(&generated);
        {
            let svc = MiscelaService::with_durability(&dir).unwrap();
            svc.upload_documents_in("alice", "santander", &data, &locations, &attributes, 5_000)
                .unwrap();
            svc.upload_documents_in(
                DEFAULT_TENANT,
                "santander",
                &data,
                &locations,
                &attributes,
                5_000,
            )
            .unwrap();
        }
        // A fresh service over the same directory restores both namespaces
        // — alice's replica under tenants/alice, the default at the root —
        // without cross-listing.
        let svc = MiscelaService::with_durability(&dir).unwrap();
        assert_eq!(svc.list_datasets_in("alice").unwrap().len(), 1);
        assert_eq!(svc.list_datasets_in(DEFAULT_TENANT).unwrap().len(), 1);
        assert_eq!(svc.dataset_revision_in("alice", "santander").unwrap(), 1);
        assert_eq!(
            svc.dataset_in("alice", "santander").unwrap().record_count(),
            generated.record_count()
        );
        assert_eq!(
            svc.dataset_in(DEFAULT_TENANT, "santander")
                .unwrap()
                .record_count(),
            generated.record_count()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
