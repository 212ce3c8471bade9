//! Request routing: maps API requests onto [`MiscelaService`] calls and
//! serializes the outcomes as JSON responses.
//!
//! Routes (mirroring the original django URL configuration):
//!
//! | Method | Path | Purpose |
//! |--------|------|---------|
//! | GET    | `/datasets` | list registered datasets |
//! | GET    | `/datasets/{name}` | dataset statistics |
//! | DELETE | `/datasets/{name}` | remove a dataset and its cached results |
//! | POST   | `/datasets/{name}/upload/begin` | start a chunked upload (`location_csv`, `attribute_csv` in the body) |
//! | POST   | `/datasets/{name}/upload/chunk` | submit one `data.csv` chunk (`index`, `total`, `content`) |
//! | POST   | `/datasets/{name}/upload/finish` | assemble and register the dataset |
//! | POST   | `/datasets/{name}/append/begin` | start a chunked append of new rows to an existing dataset |
//! | POST   | `/datasets/{name}/append/chunk` | submit one append `data.csv` chunk (`index`, `total`, `content`, optional `session` + `seq`) |
//! | POST   | `/datasets/{name}/append/finish` | apply the appended rows in place and bump the revision |
//! | GET    | `/datasets/{name}/append` | in-progress append session status (session id, acked-sequence watermark) |
//! | GET    | `/datasets/{name}/retention` | current retention policy and window position |
//! | POST   | `/datasets/{name}/retention` | install a sliding-window retention policy |
//! | POST   | `/datasets/{name}/mine` | run CAP mining with the parameters in the body (revision-aware) |
//! | POST   | `/datasets/{name}/mine/sweep` | batch-mine a whole parameter grid (`points` array of parameter objects in the body; deduplicated server-side; admission-charged once for the job) |
//! | GET    | `/datasets/{name}/durability` | WAL/snapshot statistics (incl. degraded state) for a durable dataset |
//! | GET    | `/datasets/{name}/watch` | long-poll for a revision change (`since_revision`, optional `deadline_ms`) |
//! | GET    | `/admission/stats` | service-wide admission-control counters (admitted / shed / queued) |
//! | GET    | `/protocol/stats` | service-wide exactly-once protocol counters (key replays, duplicate suppression) |
//! | GET    | `/cache/stats` | service-wide result- and extraction-cache hit/miss statistics |
//!
//! # Tenancy
//!
//! Every route above (except the three service-wide stats routes) also
//! exists under a `/tenants/{tenant}` prefix and then operates on that
//! tenant's namespace: `POST /tenants/acme/datasets/d/mine` mines `acme`'s
//! dataset `d`, invisible to every other tenant. A bare path addresses the
//! built-in default tenant, so all pre-tenancy URLs keep working
//! unchanged. Tenant-scoped additions:
//!
//! | Method | Path | Purpose |
//! |--------|------|---------|
//! | GET    | `/tenants/{t}/quota` | the tenant's quota (`null` caps = unlimited) |
//! | POST   | `/tenants/{t}/quota` | set the quota (`max_datasets`, `max_retained_timestamps`, `max_cache_entries`) |
//! | GET    | `/tenants/{t}/admission/stats` | the tenant's slice of the admission counters |
//! | GET    | `/tenants/{t}/protocol/stats` | the tenant's exactly-once protocol counters |
//! | GET    | `/tenants/{t}/cache/stats` | the tenant's dataset count and extraction-cache counters |
//!
//! Quota violations are typed `403` responses; an invalid tenant name
//! (anything outside `[A-Za-z0-9_-]+`) is a `400`.
//!
//! # Retries and exactly-once mutations
//!
//! Every mutating route accepts an optional `idempotency_key` (string body
//! field; also honored as a query parameter on `DELETE`). Retrying a keyed
//! mutation replays the original response — flagged `"replayed": true` —
//! instead of applying twice. Append chunks are additionally protected by
//! per-session sequence numbers: a chunk body carrying `session` (from the
//! begin response) and `seq` (1, 2, 3… per delivery) gets its original ack
//! replayed when duplicated, and a typed `412` carrying `expected_session` /
//! `expected_seq` when it skips ahead or targets a superseded session, so a
//! reconnecting client resumes from the server's watermark.
//!
//! # Deadlines and overload responses
//!
//! `POST .../mine` accepts an optional `deadline_ms` query parameter: the
//! request must complete within that many milliseconds or it fails with
//! `504 deadline_exceeded` (cache hits are still served — they cost
//! nothing). Under load the serving path answers with typed errors rather
//! than queueing without bound:
//!
//! * `429` — admission control shed the request (budget/queue full);
//! * `503` — the dataset is in read-only degraded mode (durable writes
//!   failing); reads and mines keep serving;
//! * `504` — the request's deadline expired first;
//! * `409` — the request conflicts with current state (e.g. an append
//!   session is already open).
//!
//! Retryable responses (`429`/`503`) carry a `retry_after_ms` back-off hint
//! in the body, the JSON analogue of HTTP's `Retry-After` header.

use crate::message::{ApiError, ApiRequest, ApiResponse, Method};
use crate::service::{MiscelaService, SweepServed};
use crate::shard::{TenantQuota, DEFAULT_TENANT};
use miscela_core::{CancelToken, MiningParams};
use miscela_csv::chunk::Chunk;
use miscela_store::Json;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long `GET .../watch` parks when the request carries no
/// `deadline_ms`: a bounded default long-poll window, so an abandoned
/// watcher never pins a thread forever.
const DEFAULT_WATCH_DEADLINE: Duration = Duration::from_secs(30);

/// The API router.
pub struct Router {
    service: Arc<MiscelaService>,
}

impl Router {
    /// Creates a router over a service.
    pub fn new(service: Arc<MiscelaService>) -> Self {
        Router { service }
    }

    /// The underlying service.
    pub fn service(&self) -> &Arc<MiscelaService> {
        &self.service
    }

    /// Handles one request.
    pub fn handle(&self, request: &ApiRequest) -> ApiResponse {
        match self.dispatch(request) {
            Ok(resp) => resp,
            Err(e) => ApiResponse::from_error(&e),
        }
    }

    fn dispatch(&self, request: &ApiRequest) -> Result<ApiResponse, ApiError> {
        let segments = request.segments();
        // The service-wide stats routes are matched on the raw path first:
        // they aggregate across every tenant and take no tenant prefix.
        match (request.method, segments.as_slice()) {
            (Method::Get, ["admission", "stats"]) => return Ok(self.admission_stats()),
            (Method::Get, ["protocol", "stats"]) => return Ok(self.protocol_stats()),
            (Method::Get, ["cache", "stats"]) => return Ok(self.cache_stats()),
            _ => {}
        }
        // Every other route lives in a tenant namespace: a `/tenants/{t}`
        // prefix selects it, its absence selects the default tenant — so
        // every pre-tenancy URL keeps working unchanged.
        let (tenant, rest) = match segments.as_slice() {
            ["tenants", tenant, rest @ ..] => (*tenant, rest),
            rest => (DEFAULT_TENANT, rest),
        };
        self.dispatch_in(tenant, rest, request)
    }

    fn dispatch_in(
        &self,
        tenant: &str,
        segments: &[&str],
        request: &ApiRequest,
    ) -> Result<ApiResponse, ApiError> {
        match (request.method, segments) {
            (Method::Get, ["datasets"]) => self.list_datasets(tenant),
            (Method::Get, ["datasets", name]) => self.dataset_stats(tenant, name),
            (Method::Delete, ["datasets", name]) => {
                let replayed = self.service.delete_dataset_keyed_in(
                    tenant,
                    name,
                    key_from_request(request),
                )?;
                Ok(ApiResponse::ok(Json::from_pairs([
                    ("deleted", Json::from(*name)),
                    ("replayed", Json::from(replayed)),
                ])))
            }
            (Method::Post, ["datasets", name, "upload", "begin"]) => {
                self.begin_upload(tenant, name, request)
            }
            (Method::Post, ["datasets", name, "upload", "chunk"]) => {
                self.upload_chunk(tenant, name, request)
            }
            (Method::Post, ["datasets", name, "upload", "finish"]) => {
                self.finish_upload(tenant, name, request)
            }
            (Method::Post, ["datasets", name, "append", "begin"]) => {
                let outcome =
                    self.service
                        .begin_append_keyed_in(tenant, name, key_from_request(request))?;
                Ok(ApiResponse::created(Json::from_pairs([
                    ("append", Json::from(*name)),
                    ("session", Json::from(outcome.session as i64)),
                    ("replayed", Json::from(outcome.replayed)),
                ])))
            }
            (Method::Post, ["datasets", name, "append", "chunk"]) => {
                self.append_chunk(tenant, name, request)
            }
            (Method::Post, ["datasets", name, "append", "finish"]) => {
                self.finish_append(tenant, name, request)
            }
            (Method::Get, ["datasets", name, "append"]) => self.append_status(tenant, name),
            (Method::Get, ["datasets", name, "retention"]) => self.get_retention(tenant, name),
            (Method::Post, ["datasets", name, "retention"]) => {
                self.set_retention(tenant, name, request)
            }
            (Method::Get, ["datasets", name, "durability"]) => self.durability(tenant, name),
            (Method::Get, ["datasets", name, "watch"]) => self.watch(tenant, name, request),
            (Method::Post, ["datasets", name, "mine"]) => self.mine(tenant, name, request),
            (Method::Post, ["datasets", name, "mine", "sweep"]) => {
                self.mine_sweep(tenant, name, request)
            }
            (Method::Get, ["quota"]) => self.get_quota(tenant),
            (Method::Post, ["quota"]) => self.set_quota(tenant, request),
            (Method::Get, ["admission", "stats"]) => self.tenant_admission_stats(tenant),
            (Method::Get, ["protocol", "stats"]) => self.tenant_protocol_stats(tenant),
            (Method::Get, ["cache", "stats"]) => self.tenant_cache_stats(tenant),
            _ => Err(ApiError::NotFound(format!(
                "no route for {:?} {}",
                request.method, request.path
            ))),
        }
    }

    fn list_datasets(&self, tenant: &str) -> Result<ApiResponse, ApiError> {
        let datasets: Vec<Json> = self
            .service
            .list_datasets_in(tenant)?
            .into_iter()
            .map(|d| {
                Json::from_pairs([
                    ("name", Json::from(d.name)),
                    ("sensors", Json::from(d.sensors)),
                    ("records", Json::from(d.records)),
                    (
                        "attributes",
                        Json::Array(d.attributes.into_iter().map(Json::from).collect()),
                    ),
                ])
            })
            .collect();
        Ok(ApiResponse::ok(Json::from_pairs([(
            "datasets",
            Json::Array(datasets),
        )])))
    }

    fn dataset_stats(&self, tenant: &str, name: &str) -> Result<ApiResponse, ApiError> {
        let stats = self.service.dataset_in(tenant, name)?.stats();
        Ok(ApiResponse::ok(Json::from_pairs([
            ("name", Json::from(stats.name)),
            ("sensors", Json::from(stats.sensors)),
            ("records", Json::from(stats.records)),
            ("timestamps", Json::from(stats.timestamps)),
            ("mean_coverage", Json::from(stats.mean_coverage)),
            (
                "attributes",
                Json::Array(stats.attribute_names.into_iter().map(Json::from).collect()),
            ),
        ])))
    }

    fn begin_upload(
        &self,
        tenant: &str,
        name: &str,
        request: &ApiRequest,
    ) -> Result<ApiResponse, ApiError> {
        let location = body_str(request, "location_csv")?;
        let attributes = body_str(request, "attribute_csv")?;
        let replayed = self.service.begin_upload_keyed_in(
            tenant,
            name,
            location,
            attributes,
            key_from_request(request),
        )?;
        Ok(ApiResponse::created(Json::from_pairs([
            ("upload", Json::from(name)),
            ("replayed", Json::from(replayed)),
        ])))
    }

    fn upload_chunk(
        &self,
        tenant: &str,
        name: &str,
        request: &ApiRequest,
    ) -> Result<ApiResponse, ApiError> {
        let chunk = chunk_from_body(request)?;
        let missing = self.service.upload_chunk_in(tenant, name, &chunk)?;
        Ok(chunk_accepted(&chunk, missing))
    }

    fn finish_upload(
        &self,
        tenant: &str,
        name: &str,
        request: &ApiRequest,
    ) -> Result<ApiResponse, ApiError> {
        let (summary, elapsed, replayed) =
            self.service
                .finish_upload_keyed_in(tenant, name, key_from_request(request))?;
        Ok(ApiResponse::created(Json::from_pairs([
            ("name", Json::from(summary.name)),
            ("sensors", Json::from(summary.sensors)),
            ("records", Json::from(summary.records)),
            ("upload_seconds", Json::from(elapsed.as_secs_f64())),
            ("replayed", Json::from(replayed)),
        ])))
    }

    fn append_chunk(
        &self,
        tenant: &str,
        name: &str,
        request: &ApiRequest,
    ) -> Result<ApiResponse, ApiError> {
        let chunk = chunk_from_body(request)?;
        // A chunk carrying a sequence number speaks the exactly-once
        // protocol: its session id is required and its ack is replayable.
        if request.body.get("seq").is_some() {
            let session = body_u64(request, "session")?;
            let seq = body_u64(request, "seq")?;
            let ack = self
                .service
                .append_chunk_seq_in(tenant, name, session, seq, &chunk)?;
            return Ok(ApiResponse::ok(Json::from_pairs([
                ("accepted", Json::from(ack.accepted)),
                ("missing_chunks", Json::from(ack.missing)),
                ("acked_seq", Json::from(ack.acked_seq as i64)),
                ("replayed", Json::from(ack.replayed)),
            ])));
        }
        let missing = self.service.append_chunk_in(tenant, name, &chunk)?;
        Ok(chunk_accepted(&chunk, missing))
    }

    fn finish_append(
        &self,
        tenant: &str,
        name: &str,
        request: &ApiRequest,
    ) -> Result<ApiResponse, ApiError> {
        let (summary, elapsed, replayed) =
            self.service
                .finish_append_keyed_in(tenant, name, key_from_request(request))?;
        Ok(ApiResponse::ok(Json::from_pairs([
            ("name", Json::from(summary.name)),
            ("new_timestamps", Json::from(summary.new_timestamps)),
            ("measurements", Json::from(summary.measurements)),
            ("trimmed_timestamps", Json::from(summary.trimmed_timestamps)),
            ("timestamps", Json::from(summary.timestamps)),
            ("revision", Json::from(summary.revision as i64)),
            ("append_seconds", Json::from(elapsed.as_secs_f64())),
            ("replayed", Json::from(replayed)),
        ])))
    }

    fn append_status(&self, tenant: &str, name: &str) -> Result<ApiResponse, ApiError> {
        let status = self.service.append_status_in(tenant, name)?;
        Ok(match status {
            Some(s) => ApiResponse::ok(Json::from_pairs([
                ("name", Json::from(name)),
                ("open", Json::from(true)),
                ("session", Json::from(s.session as i64)),
                ("acked_seq", Json::from(s.acked_seq as i64)),
                ("received", Json::from(s.received)),
                ("missing_chunks", Json::from(s.missing)),
            ])),
            None => ApiResponse::ok(Json::from_pairs([
                ("name", Json::from(name)),
                ("open", Json::from(false)),
            ])),
        })
    }

    fn get_retention(&self, tenant: &str, name: &str) -> Result<ApiResponse, ApiError> {
        let ds = self.service.dataset_in(tenant, name)?;
        let policy = ds.retention();
        Ok(ApiResponse::ok(Json::from_pairs([
            ("name", Json::from(name)),
            (
                "max_timestamps",
                policy.max_timestamps.map(Json::from).unwrap_or(Json::Null),
            ),
            (
                "max_age_seconds",
                policy
                    .max_age
                    .map(|a| Json::from(a.as_secs()))
                    .unwrap_or(Json::Null),
            ),
            ("trimmed_total", Json::from(ds.trimmed())),
            ("timestamps", Json::from(ds.timestamp_count())),
        ])))
    }

    fn set_retention(
        &self,
        tenant: &str,
        name: &str,
        request: &ApiRequest,
    ) -> Result<ApiResponse, ApiError> {
        let policy = retention_from_json(&request.body)?;
        let (summary, replayed) =
            self.service
                .set_retention_keyed_in(tenant, name, policy, key_from_request(request))?;
        Ok(ApiResponse::ok(Json::from_pairs([
            ("name", Json::from(summary.name)),
            ("trimmed_timestamps", Json::from(summary.trimmed_timestamps)),
            ("trimmed_total", Json::from(summary.trimmed_total)),
            ("timestamps", Json::from(summary.timestamps)),
            ("revision", Json::from(summary.revision as i64)),
            ("replayed", Json::from(replayed)),
        ])))
    }

    fn durability(&self, tenant: &str, name: &str) -> Result<ApiResponse, ApiError> {
        let stats = self.service.durability_stats_in(tenant, name)?;
        Ok(ApiResponse::ok(Json::from_pairs([
            ("name", Json::from(name)),
            ("wal_records", Json::from(stats.wal_records as i64)),
            ("wal_bytes", Json::from(stats.wal_bytes as i64)),
            ("wal_pending", Json::from(stats.wal_pending as i64)),
            ("wal_syncs", Json::from(stats.wal_syncs as i64)),
            (
                "replayed_records",
                Json::from(stats.replayed_records as i64),
            ),
            ("torn_bytes", Json::from(stats.torn_bytes as i64)),
            (
                "snapshot_generation",
                Json::from(stats.snapshot_generation as i64),
            ),
            ("compactions", Json::from(stats.compactions as i64)),
            (
                "degraded",
                self.service
                    .degraded_reason_in(tenant, name)
                    .map(Json::from)
                    .unwrap_or(Json::Null),
            ),
        ])))
    }

    fn mine(
        &self,
        tenant: &str,
        name: &str,
        request: &ApiRequest,
    ) -> Result<ApiResponse, ApiError> {
        let params = params_from_json(&request.body)?;
        let deadline = deadline_from_query(request)?;
        let outcome = self.service.mine_cancellable_in(
            tenant,
            name,
            &params,
            deadline,
            &CancelToken::never(),
        )?;
        Ok(ApiResponse::ok(Json::from_pairs([
            ("dataset", Json::from(name)),
            ("revision", Json::from(outcome.revision as i64)),
            ("cache_hit", Json::from(outcome.cache_hit)),
            (
                "extraction_cache_hits",
                Json::from(outcome.result.report.extraction_cache_hits),
            ),
            (
                "extraction_prefix_hits",
                Json::from(outcome.result.report.extraction_prefix_hits),
            ),
            ("cap_count", Json::from(outcome.result.caps.len())),
            ("elapsed_seconds", Json::from(outcome.elapsed.as_secs_f64())),
            ("caps", Json::Raw(outcome.caps_text)),
        ])))
    }

    fn mine_sweep(
        &self,
        tenant: &str,
        name: &str,
        request: &ApiRequest,
    ) -> Result<ApiResponse, ApiError> {
        let raw = request
            .body
            .get("points")
            .and_then(|p| p.as_array())
            .ok_or_else(|| {
                ApiError::BadRequest("body must carry a `points` array of parameter objects".into())
            })?;
        let points = raw
            .iter()
            .map(params_from_json)
            .collect::<Result<Vec<MiningParams>, ApiError>>()?;
        let deadline = deadline_from_query(request)?;
        let key = key_from_request(request);
        let served = self.service.mine_sweep_in(
            tenant,
            name,
            &points,
            deadline,
            &CancelToken::never(),
            key,
        )?;
        let outcome = match served {
            SweepServed::Replayed(body) => {
                let mut doc = Json::parse(&body)
                    .map_err(|e| ApiError::Internal(format!("corrupt sweep replay body: {e}")))?;
                doc.set("replayed", Json::from(true));
                return Ok(ApiResponse::ok(doc));
            }
            SweepServed::Fresh(outcome) => outcome,
        };
        let results: Vec<Json> = outcome
            .results
            .iter()
            .zip(&outcome.cache_hits)
            .zip(outcome.caps_text)
            .map(|((result, &hit), text)| {
                Json::from_pairs([
                    ("cache_hit", Json::from(hit)),
                    ("cap_count", Json::from(result.caps.len())),
                    ("delayed_count", Json::from(result.delayed.len())),
                    ("caps", Json::Raw(text)),
                ])
            })
            .collect();
        let doc = Json::from_pairs([
            ("dataset", Json::from(name)),
            ("revision", Json::from(outcome.revision as i64)),
            ("requested_points", Json::from(points.len())),
            ("unique_points", Json::from(outcome.stats.unique_points)),
            (
                "extraction_classes",
                Json::from(outcome.stats.extraction_classes),
            ),
            ("graphs_built", Json::from(outcome.stats.graphs_built)),
            ("search_groups", Json::from(outcome.stats.search_groups)),
            ("elapsed_seconds", Json::from(outcome.elapsed.as_secs_f64())),
            ("replayed", Json::from(false)),
            ("results", Json::Array(results)),
        ]);
        if key.is_some() {
            self.service
                .remember_sweep_in(tenant, name, key, doc.to_string_compact());
        }
        Ok(ApiResponse::ok(doc))
    }

    fn watch(
        &self,
        tenant: &str,
        name: &str,
        request: &ApiRequest,
    ) -> Result<ApiResponse, ApiError> {
        let since = match request.query.get("since_revision") {
            Some(raw) => raw.parse().map_err(|_| {
                ApiError::BadRequest("since_revision must be a non-negative integer".into())
            })?,
            None => 0,
        };
        // A long poll always has a bound: an omitted deadline defaults to
        // the standard long-poll window rather than parking forever.
        let deadline = deadline_from_query(request)?
            .unwrap_or_else(|| Instant::now() + DEFAULT_WATCH_DEADLINE);
        let out = self.service.watch_in(tenant, name, since, deadline)?;
        Ok(ApiResponse::ok(Json::from_pairs([
            ("dataset", Json::from(name)),
            ("revision", Json::from(out.revision as i64)),
            ("changed", Json::from(out.changed)),
            ("timestamps", Json::from(out.timestamps)),
            ("trimmed_total", Json::from(out.trimmed_total)),
            ("deadline_expired", Json::from(out.deadline_expired)),
        ])))
    }

    fn get_quota(&self, tenant: &str) -> Result<ApiResponse, ApiError> {
        let quota = self.service.quota(tenant)?;
        Ok(ApiResponse::ok(quota_doc(tenant, &quota)))
    }

    fn set_quota(&self, tenant: &str, request: &ApiRequest) -> Result<ApiResponse, ApiError> {
        let quota = quota_from_json(&request.body)?;
        self.service.set_quota(tenant, quota)?;
        Ok(ApiResponse::ok(quota_doc(tenant, &quota)))
    }

    fn tenant_admission_stats(&self, tenant: &str) -> Result<ApiResponse, ApiError> {
        let stats = self.service.tenant_admission_stats(tenant)?;
        Ok(ApiResponse::ok(Json::from_pairs([
            ("tenant", Json::from(tenant)),
            ("admitted", Json::from(stats.admitted as i64)),
            ("shed", Json::from(stats.shed as i64)),
            (
                "deadline_expired",
                Json::from(stats.deadline_expired as i64),
            ),
        ])))
    }

    fn tenant_protocol_stats(&self, tenant: &str) -> Result<ApiResponse, ApiError> {
        let stats = self.service.protocol_stats_in(tenant)?;
        Ok(ApiResponse::ok(Json::from_pairs([
            ("tenant", Json::from(tenant)),
            ("cached_keys", Json::from(stats.cached_keys)),
            ("key_replays", Json::from(stats.key_replays as i64)),
            (
                "chunk_duplicates",
                Json::from(stats.chunk_duplicates as i64),
            ),
            ("sequence_gaps", Json::from(stats.sequence_gaps as i64)),
            ("stale_sessions", Json::from(stats.stale_sessions as i64)),
        ])))
    }

    fn tenant_cache_stats(&self, tenant: &str) -> Result<ApiResponse, ApiError> {
        let stats = self.service.tenant_cache_stats(tenant)?;
        Ok(ApiResponse::ok(Json::from_pairs([
            ("tenant", Json::from(tenant)),
            ("datasets", Json::from(stats.datasets)),
            (
                "extraction",
                Json::from_pairs([
                    ("hits", Json::from(stats.extraction.hits)),
                    ("misses", Json::from(stats.extraction.misses)),
                    ("prefix_hits", Json::from(stats.extraction.prefix_hits)),
                    ("prefix_misses", Json::from(stats.extraction.prefix_misses)),
                    ("entries", Json::from(stats.extraction.entries)),
                    ("evicted", Json::from(stats.extraction.evicted)),
                ]),
            ),
        ])))
    }

    fn admission_stats(&self) -> ApiResponse {
        let stats = self.service.admission_stats();
        ApiResponse::ok(Json::from_pairs([
            ("admitted", Json::from(stats.admitted as i64)),
            ("shed", Json::from(stats.shed as i64)),
            (
                "deadline_expired",
                Json::from(stats.deadline_expired as i64),
            ),
            ("in_flight", Json::from(stats.in_flight)),
            ("in_flight_cost", Json::from(stats.in_flight_cost as i64)),
            ("queued", Json::from(stats.queued)),
        ]))
    }

    fn protocol_stats(&self) -> ApiResponse {
        let stats = self.service.protocol_stats();
        ApiResponse::ok(Json::from_pairs([
            ("cached_keys", Json::from(stats.cached_keys)),
            ("key_replays", Json::from(stats.key_replays as i64)),
            (
                "chunk_duplicates",
                Json::from(stats.chunk_duplicates as i64),
            ),
            ("sequence_gaps", Json::from(stats.sequence_gaps as i64)),
            ("stale_sessions", Json::from(stats.stale_sessions as i64)),
        ]))
    }

    fn cache_stats(&self) -> ApiResponse {
        let stats = self.service.cache_stats();
        let extraction = self.service.extraction_cache_stats();
        ApiResponse::ok(Json::from_pairs([
            ("hits", Json::from(stats.hits)),
            ("misses", Json::from(stats.misses)),
            ("entries", Json::from(stats.entries)),
            ("evicted", Json::from(stats.evicted)),
            ("hit_rate", Json::from(stats.hit_rate())),
            (
                "extraction",
                Json::from_pairs([
                    ("hits", Json::from(extraction.hits)),
                    ("misses", Json::from(extraction.misses)),
                    ("prefix_hits", Json::from(extraction.prefix_hits)),
                    ("prefix_misses", Json::from(extraction.prefix_misses)),
                    ("entries", Json::from(extraction.entries)),
                    ("evicted", Json::from(extraction.evicted)),
                ]),
            ),
        ]))
    }
}

/// Parses mining parameters from a JSON body; unspecified fields keep the
/// defaults of [`MiningParams`].
pub fn params_from_json(body: &Json) -> Result<MiningParams, ApiError> {
    let mut params = MiningParams::default();
    if let Some(v) = body.get("epsilon") {
        params.epsilon = v
            .as_f64()
            .ok_or_else(|| ApiError::BadRequest("epsilon must be a number".into()))?;
    }
    if let Some(v) = body.get("eta_km") {
        params.eta_km = v
            .as_f64()
            .ok_or_else(|| ApiError::BadRequest("eta_km must be a number".into()))?;
    }
    if let Some(v) = body.get("mu") {
        params.mu = v
            .as_i64()
            .filter(|n| *n >= 0)
            .ok_or_else(|| ApiError::BadRequest("mu must be a non-negative integer".into()))?
            as usize;
    }
    if let Some(v) = body.get("psi") {
        params.psi = v
            .as_i64()
            .filter(|n| *n >= 0)
            .ok_or_else(|| ApiError::BadRequest("psi must be a non-negative integer".into()))?
            as usize;
    }
    if let Some(v) = body.get("min_attributes") {
        params.min_attributes = v.as_i64().filter(|n| *n >= 0).ok_or_else(|| {
            ApiError::BadRequest("min_attributes must be a non-negative integer".into())
        })? as usize;
    }
    if let Some(v) = body.get("segmentation") {
        params.segmentation = v
            .as_bool()
            .ok_or_else(|| ApiError::BadRequest("segmentation must be a boolean".into()))?;
    }
    if let Some(v) = body.get("max_delay") {
        params.max_delay = v.as_i64().filter(|n| *n >= 0).ok_or_else(|| {
            ApiError::BadRequest("max_delay must be a non-negative integer".into())
        })? as usize;
    }
    params
        .validate()
        .map_err(|e| ApiError::BadRequest(e.to_string()))?;
    Ok(params)
}

/// Parses a retention policy from a JSON body: optional `max_timestamps`
/// (positive integer) and `max_age_seconds` (non-negative integer); an
/// empty body means unbounded (retention disabled).
pub fn retention_from_json(body: &Json) -> Result<miscela_model::RetentionPolicy, ApiError> {
    let mut policy = miscela_model::RetentionPolicy::unbounded();
    if let Some(v) = body.get("max_timestamps") {
        let n = v.as_i64().filter(|n| *n > 0).ok_or_else(|| {
            ApiError::BadRequest("max_timestamps must be a positive integer".into())
        })?;
        policy.max_timestamps = Some(n as usize);
    }
    if let Some(v) = body.get("max_age_seconds") {
        let n = v.as_i64().filter(|n| *n >= 0).ok_or_else(|| {
            ApiError::BadRequest("max_age_seconds must be a non-negative integer".into())
        })?;
        policy.max_age = Some(miscela_model::Duration::seconds(n));
    }
    Ok(policy)
}

/// The JSON rendering of one tenant's quota: `null` means unlimited.
fn quota_doc(tenant: &str, quota: &TenantQuota) -> Json {
    let opt = |v: Option<usize>| v.map(Json::from).unwrap_or(Json::Null);
    Json::from_pairs([
        ("tenant", Json::from(tenant)),
        ("max_datasets", opt(quota.max_datasets)),
        (
            "max_retained_timestamps",
            opt(quota.max_retained_timestamps),
        ),
        ("max_cache_entries", opt(quota.max_cache_entries)),
    ])
}

/// Parses a tenant quota from a JSON body: each of `max_datasets`,
/// `max_retained_timestamps` and `max_cache_entries` is an optional
/// non-negative integer; absent or `null` means unlimited, so posting an
/// empty body clears every cap.
fn quota_from_json(body: &Json) -> Result<TenantQuota, ApiError> {
    let field = |name: &str| -> Result<Option<usize>, ApiError> {
        match body.get(name) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => {
                let n = v.as_i64().filter(|n| *n >= 0).ok_or_else(|| {
                    ApiError::BadRequest(format!("{name} must be a non-negative integer"))
                })?;
                Ok(Some(n as usize))
            }
        }
    };
    Ok(TenantQuota {
        max_datasets: field("max_datasets")?,
        max_retained_timestamps: field("max_retained_timestamps")?,
        max_cache_entries: field("max_cache_entries")?,
    })
}

/// Parses the optional `deadline_ms` query parameter into an absolute
/// deadline: the request must complete within that many milliseconds of
/// now, or it fails with a 504.
fn deadline_from_query(request: &ApiRequest) -> Result<Option<Instant>, ApiError> {
    let Some(raw) = request.query.get("deadline_ms") else {
        return Ok(None);
    };
    let ms: u64 = raw
        .parse()
        .map_err(|_| ApiError::BadRequest("deadline_ms must be a non-negative integer".into()))?;
    Ok(Some(Instant::now() + Duration::from_millis(ms)))
}

/// The optional idempotency key of a mutating request: the
/// `idempotency_key` string body field, or (for bodyless requests like
/// `DELETE`) the query parameter of the same name.
fn key_from_request(request: &ApiRequest) -> Option<&str> {
    request
        .body
        .get("idempotency_key")
        .and_then(|k| k.as_str())
        .or_else(|| request.query.get("idempotency_key").map(|k| k.as_str()))
}

/// Parses the shared chunk envelope (`index`, `total`, `content`) used by
/// both the upload and append chunk routes.
fn chunk_from_body(request: &ApiRequest) -> Result<Chunk, ApiError> {
    Ok(Chunk {
        index: body_u64(request, "index")? as usize,
        total: body_u64(request, "total")? as usize,
        content: body_str(request, "content")?.to_string(),
    })
}

/// The shared response for an accepted chunk.
fn chunk_accepted(chunk: &Chunk, missing: usize) -> ApiResponse {
    ApiResponse::ok(Json::from_pairs([
        ("accepted", Json::from(chunk.index)),
        ("missing_chunks", Json::from(missing)),
    ]))
}

fn body_str<'a>(request: &'a ApiRequest, field: &str) -> Result<&'a str, ApiError> {
    request
        .body
        .get(field)
        .and_then(|v| v.as_str())
        .ok_or_else(|| ApiError::BadRequest(format!("missing string field {field:?}")))
}

fn body_u64(request: &ApiRequest, field: &str) -> Result<u64, ApiError> {
    request
        .body
        .get(field)
        .and_then(|v| v.as_i64())
        .filter(|n| *n >= 0)
        .map(|n| n as u64)
        .ok_or_else(|| ApiError::BadRequest(format!("missing integer field {field:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::StatusCode;
    use miscela_csv::DatasetWriter;
    use miscela_datagen::SantanderGenerator;

    fn router_with_dataset() -> Router {
        let service = Arc::new(MiscelaService::new());
        service
            .register_dataset_keyed_in(
                DEFAULT_TENANT,
                SantanderGenerator::small().with_scale(0.02).generate(),
                None,
            )
            .unwrap();
        Router::new(Arc::new(MiscelaService::new()));
        Router::new(service)
    }

    fn mine_body(psi: usize) -> Json {
        Json::from_pairs([
            ("epsilon", Json::from(0.4)),
            ("eta_km", Json::from(0.5)),
            ("mu", Json::from(3i64)),
            ("psi", Json::from(psi)),
            ("segmentation", Json::from(false)),
        ])
    }

    #[test]
    fn list_and_stats_routes() {
        let router = router_with_dataset();
        let resp = router.handle(&ApiRequest::get("/datasets"));
        assert!(resp.is_success());
        assert_eq!(
            resp.body.get("datasets").unwrap().as_array().unwrap().len(),
            1
        );
        let resp = router.handle(&ApiRequest::get("/datasets/santander"));
        assert!(resp.is_success());
        assert!(resp.body.get("sensors").unwrap().as_i64().unwrap() > 0);
        let resp = router.handle(&ApiRequest::get("/datasets/ghost"));
        assert_eq!(resp.status, StatusCode::NotFound);
    }

    #[test]
    fn mine_route_reports_cache_hits() {
        let router = router_with_dataset();
        let req = ApiRequest::post("/datasets/santander/mine", mine_body(20));
        let first = router.handle(&req);
        assert!(first.is_success(), "{:?}", first.body);
        assert_eq!(first.body.get("cache_hit").unwrap().as_bool(), Some(false));
        let second = router.handle(&req);
        assert_eq!(second.body.get("cache_hit").unwrap().as_bool(), Some(true));
        assert_eq!(
            first.body.get("cap_count").unwrap().as_i64(),
            second.body.get("cap_count").unwrap().as_i64()
        );
        // Cache stats route reflects the hit.
        let stats = router.handle(&ApiRequest::get("/cache/stats"));
        assert!(stats.body.get("hits").unwrap().as_i64().unwrap() >= 1);
        // Invalid parameters produce a 400.
        let bad = router.handle(&ApiRequest::post(
            "/datasets/santander/mine",
            Json::from_pairs([("psi", Json::from(0i64))]),
        ));
        assert_eq!(bad.status, StatusCode::BadRequest);
    }

    #[test]
    fn sweep_route_matches_solo_mines_dedupes_and_replays() {
        let router = router_with_dataset();
        // One grid point is pre-mined solo, so the sweep finds it cached.
        let solo25 = router.handle(&ApiRequest::post("/datasets/santander/mine", mine_body(25)));
        assert!(solo25.is_success(), "{:?}", solo25.body);
        let sweep_body = || {
            Json::from_pairs([
                (
                    "points",
                    Json::Array(vec![mine_body(20), mine_body(25), mine_body(20)]),
                ),
                ("idempotency_key", Json::from("sweep-route-1")),
            ])
        };
        let req = ApiRequest::post("/datasets/santander/mine/sweep", sweep_body());
        let first = router.handle(&req);
        assert!(first.is_success(), "{:?}", first.body);
        assert_eq!(first.body.get("replayed").unwrap().as_bool(), Some(false));
        assert_eq!(
            first.body.get("requested_points").unwrap().as_i64(),
            Some(3)
        );
        // The duplicate ψ=20 point is deduplicated server-side.
        assert_eq!(first.body.get("unique_points").unwrap().as_i64(), Some(2));
        let results = first.body.get("results").unwrap().as_array().unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].get("cache_hit").unwrap().as_bool(), Some(false));
        assert_eq!(results[1].get("cache_hit").unwrap().as_bool(), Some(true));
        assert_eq!(
            results[0].to_string_compact(),
            results[2].to_string_compact()
        );
        // Per-point payloads are byte-identical to independent mines, and
        // the sweep populated the result cache for later solo mines.
        let solo20 = router.handle(&ApiRequest::post("/datasets/santander/mine", mine_body(20)));
        assert_eq!(solo20.body.get("cache_hit").unwrap().as_bool(), Some(true));
        assert_eq!(
            results[0].get("caps").unwrap().to_string_compact(),
            solo20.body.get("caps").unwrap().to_string_compact()
        );
        assert_eq!(
            results[1].get("caps").unwrap().to_string_compact(),
            solo25.body.get("caps").unwrap().to_string_compact()
        );
        // A keyed retry replays the original body verbatim.
        let retry = router.handle(&ApiRequest::post(
            "/datasets/santander/mine/sweep",
            sweep_body(),
        ));
        assert!(retry.is_success(), "{:?}", retry.body);
        assert_eq!(retry.body.get("replayed").unwrap().as_bool(), Some(true));
        assert_eq!(
            retry.body.get("results").unwrap().to_string_compact(),
            first.body.get("results").unwrap().to_string_compact()
        );
        let stats = router.handle(&ApiRequest::get("/protocol/stats"));
        assert!(stats.body.get("key_replays").unwrap().as_i64().unwrap() >= 1);
    }

    #[test]
    fn mine_and_sweep_bodies_are_the_bytes_a_tree_writes() {
        use miscela_cache::codec::capset_to_json;
        let router = router_with_dataset();
        let dataset = router
            .service()
            .dataset_in(DEFAULT_TENANT, "santander")
            .unwrap();
        // The CAPs of a cache-less mine, as a tree.
        let reference = |psi: usize| {
            let params = params_from_json(&mine_body(psi)).unwrap();
            let mined = miscela_core::Miner::new(params)
                .unwrap()
                .mine(&dataset)
                .unwrap();
            capset_to_json(&mined.caps)
        };
        // A body with one field replaced, serialized.
        let rebuilt = |body: &Json, field: &str, value: Json| {
            let mut tree = body.clone();
            tree.set(field, value);
            tree.to_string_compact()
        };
        let mine = ApiRequest::post("/datasets/santander/mine", mine_body(20));
        for expect_hit in [false, true] {
            let resp = router.handle(&mine);
            assert_eq!(
                resp.body.get("cache_hit").unwrap().as_bool(),
                Some(expect_hit)
            );
            assert_eq!(
                resp.body.to_string_compact(),
                rebuilt(&resp.body, "caps", reference(20))
            );
        }
        let psis = [25, 20, 25];
        let sweep = ApiRequest::post(
            "/datasets/santander/mine/sweep",
            Json::from_pairs([
                ("points", Json::Array(psis.map(mine_body).to_vec())),
                ("idempotency_key", Json::from("sweep-bytes")),
            ]),
        );
        let first = router.handle(&sweep).body;
        let results = first.get("results").unwrap().as_array().unwrap();
        let trees = results
            .iter()
            .zip(psis)
            .map(|(item, psi)| {
                let mut item = item.clone();
                item.set("caps", reference(psi));
                item
            })
            .collect();
        assert_eq!(
            first.to_string_compact(),
            rebuilt(&first, "results", Json::Array(trees))
        );
        // The keyed replay serves the same bytes, flagged as replayed.
        let replay = router.handle(&sweep).body;
        assert_eq!(replay.get("replayed").unwrap().as_bool(), Some(true));
        assert_eq!(
            rebuilt(&replay, "replayed", Json::from(false)),
            first.to_string_compact()
        );
    }

    #[test]
    fn sweep_route_deadline_admission_and_validation() {
        let router = router_with_dataset();
        // Missing / empty / invalid grids are 400s before any work.
        let bad = router.handle(&ApiRequest::post(
            "/datasets/santander/mine/sweep",
            Json::object(),
        ));
        assert_eq!(bad.status, StatusCode::BadRequest);
        let empty = router.handle(&ApiRequest::post(
            "/datasets/santander/mine/sweep",
            Json::from_pairs([("points", Json::Array(Vec::new()))]),
        ));
        assert_eq!(empty.status, StatusCode::BadRequest);
        let invalid = router.handle(&ApiRequest::post(
            "/datasets/santander/mine/sweep",
            Json::from_pairs([("points", Json::Array(vec![mine_body(0)]))]),
        ));
        assert_eq!(invalid.status, StatusCode::BadRequest);
        // An already-expired deadline on a cold sweep is a 504.
        let late = router.handle(
            &ApiRequest::post(
                "/datasets/santander/mine/sweep",
                Json::from_pairs([("points", Json::Array(vec![mine_body(20)]))]),
            )
            .with_query("deadline_ms", "0"),
        );
        assert_eq!(late.status, StatusCode::GatewayTimeout);
        // A whole grid is admitted as one job: the admission counter moves
        // by exactly one for a two-point cold sweep.
        let before = router
            .handle(&ApiRequest::get("/admission/stats"))
            .body
            .get("admitted")
            .unwrap()
            .as_i64()
            .unwrap();
        let fresh = router.handle(&ApiRequest::post(
            "/datasets/santander/mine/sweep",
            Json::from_pairs([("points", Json::Array(vec![mine_body(20), mine_body(30)]))]),
        ));
        assert!(fresh.is_success(), "{:?}", fresh.body);
        let after = router
            .handle(&ApiRequest::get("/admission/stats"))
            .body
            .get("admitted")
            .unwrap()
            .as_i64()
            .unwrap();
        assert_eq!(after, before + 1);
        // An all-cache-hit sweep is served without an admission charge,
        // even under an expired deadline (cache hits cost nothing).
        let warm = router.handle(
            &ApiRequest::post(
                "/datasets/santander/mine/sweep",
                Json::from_pairs([("points", Json::Array(vec![mine_body(20), mine_body(30)]))]),
            )
            .with_query("deadline_ms", "0"),
        );
        assert!(warm.is_success(), "{:?}", warm.body);
        let results = warm.body.get("results").unwrap().as_array().unwrap();
        assert!(results
            .iter()
            .all(|r| { r.get("cache_hit").unwrap().as_bool() == Some(true) }));
        let final_admitted = router
            .handle(&ApiRequest::get("/admission/stats"))
            .body
            .get("admitted")
            .unwrap()
            .as_i64()
            .unwrap();
        assert_eq!(final_admitted, after);
        // Unknown datasets are a 404.
        let ghost = router.handle(&ApiRequest::post(
            "/datasets/ghost/mine/sweep",
            Json::from_pairs([("points", Json::Array(vec![mine_body(20)]))]),
        ));
        assert_eq!(ghost.status, StatusCode::NotFound);
    }

    #[test]
    fn unknown_route_is_404() {
        let router = router_with_dataset();
        let resp = router.handle(&ApiRequest::get("/nope"));
        assert_eq!(resp.status, StatusCode::NotFound);
        let resp = router.handle(&ApiRequest::delete("/datasets/santander"));
        assert!(resp.is_success());
        let resp = router.handle(&ApiRequest::get("/datasets/santander"));
        assert_eq!(resp.status, StatusCode::NotFound);
    }

    #[test]
    fn upload_routes_round_trip() {
        let generated = SantanderGenerator::small().with_scale(0.02).generate();
        let writer = DatasetWriter::new();
        let data = writer.data_csv(&generated);
        let service = Arc::new(MiscelaService::new());
        let router = Router::new(service);

        let begin = router.handle(&ApiRequest::post(
            "/datasets/uploaded/upload/begin",
            Json::from_pairs([
                ("location_csv", Json::from(writer.location_csv(&generated))),
                (
                    "attribute_csv",
                    Json::from(writer.attribute_csv(&generated)),
                ),
            ]),
        ));
        assert_eq!(begin.status, StatusCode::Created);

        let chunks = miscela_csv::split_into_chunks(&data, 5_000);
        for chunk in &chunks {
            let resp = router.handle(&ApiRequest::post(
                "/datasets/uploaded/upload/chunk",
                Json::from_pairs([
                    ("index", Json::from(chunk.index)),
                    ("total", Json::from(chunk.total)),
                    ("content", Json::from(chunk.content.clone())),
                ]),
            ));
            assert!(resp.is_success(), "{:?}", resp.body);
        }
        let finish = router.handle(&ApiRequest::post(
            "/datasets/uploaded/upload/finish",
            Json::object(),
        ));
        assert_eq!(finish.status, StatusCode::Created);
        assert_eq!(
            finish.body.get("sensors").unwrap().as_i64().unwrap() as usize,
            generated.sensor_count()
        );
        // The uploaded dataset is now minable.
        let mined = router.handle(&ApiRequest::post("/datasets/uploaded/mine", mine_body(20)));
        assert!(mined.is_success());
        // Missing body fields produce a 400.
        let bad = router.handle(&ApiRequest::post(
            "/datasets/x/upload/chunk",
            Json::from_pairs([("index", Json::from(0i64))]),
        ));
        assert_eq!(bad.status, StatusCode::BadRequest);
    }

    #[test]
    fn append_routes_round_trip() {
        let full = SantanderGenerator::small().with_scale(0.02).generate();
        let split_t = full.grid().at(full.timestamp_count() - 12).unwrap();
        let prefix = full.slice_time(full.grid().start(), split_t).unwrap();
        let tail = full.slice_time(split_t, full.grid().range().end).unwrap();
        let writer = DatasetWriter::new();

        let service = Arc::new(MiscelaService::new());
        let router = Router::new(service);
        // Appending before the dataset exists is a 404.
        let missing = router.handle(&ApiRequest::post(
            "/datasets/santander/append/begin",
            Json::object(),
        ));
        assert_eq!(missing.status, StatusCode::NotFound);

        router
            .service()
            .upload_documents_in(
                DEFAULT_TENANT,
                "santander",
                &writer.data_csv(&prefix),
                &writer.location_csv(&prefix),
                &writer.attribute_csv(&prefix),
                10_000,
            )
            .unwrap();
        let mined = router.handle(&ApiRequest::post("/datasets/santander/mine", mine_body(20)));
        assert_eq!(mined.body.get("revision").unwrap().as_i64(), Some(1));

        let begin = router.handle(&ApiRequest::post(
            "/datasets/santander/append/begin",
            Json::object(),
        ));
        assert_eq!(begin.status, StatusCode::Created);
        for chunk in miscela_csv::split_into_chunks(&writer.data_csv(&tail), 1_000) {
            let resp = router.handle(&ApiRequest::post(
                "/datasets/santander/append/chunk",
                Json::from_pairs([
                    ("index", Json::from(chunk.index)),
                    ("total", Json::from(chunk.total)),
                    ("content", Json::from(chunk.content.clone())),
                ]),
            ));
            assert!(resp.is_success(), "{:?}", resp.body);
        }
        let finish = router.handle(&ApiRequest::post(
            "/datasets/santander/append/finish",
            Json::object(),
        ));
        assert!(finish.is_success(), "{:?}", finish.body);
        assert_eq!(
            finish.body.get("new_timestamps").unwrap().as_i64(),
            Some(12)
        );
        assert_eq!(finish.body.get("revision").unwrap().as_i64(), Some(2));

        // Re-mining sees the new revision and reports the prefix resumes;
        // the cache stats envelope mirrors the extraction counters.
        let remined = router.handle(&ApiRequest::post("/datasets/santander/mine", mine_body(20)));
        assert!(remined.is_success());
        assert_eq!(remined.body.get("revision").unwrap().as_i64(), Some(2));
        assert_eq!(
            remined.body.get("cache_hit").unwrap().as_bool(),
            Some(false)
        );
        let resumed = remined
            .body
            .get("extraction_prefix_hits")
            .unwrap()
            .as_i64()
            .unwrap();
        assert!(resumed > 0, "expected prefix resumes, got {remined:?}");
        let stats = router.handle(&ApiRequest::get("/cache/stats"));
        let extraction = stats.body.get("extraction").unwrap();
        assert!(extraction.get("prefix_hits").unwrap().as_i64().unwrap() >= resumed);
        // The appended grid end moved forward.
        let ds_stats = router.handle(&ApiRequest::get("/datasets/santander"));
        assert_eq!(
            ds_stats.body.get("timestamps").unwrap().as_i64().unwrap() as usize,
            full.timestamp_count()
        );
    }

    #[test]
    fn retention_routes_round_trip() {
        use miscela_model::SERIES_BLOCK_LEN;
        let router = router_with_dataset();
        // Defaults: unbounded, nothing trimmed.
        let got = router.handle(&ApiRequest::get("/datasets/santander/retention"));
        assert!(got.is_success(), "{:?}", got.body);
        assert!(got.body.get("max_timestamps").unwrap().is_null());
        assert_eq!(got.body.get("trimmed_total").unwrap().as_i64(), Some(0));
        let n = got.body.get("timestamps").unwrap().as_i64().unwrap();
        assert!(n as usize > SERIES_BLOCK_LEN);
        // Mine once so a result exists, then install a trimming policy.
        router.handle(&ApiRequest::post("/datasets/santander/mine", mine_body(20)));
        let set = router.handle(&ApiRequest::post(
            "/datasets/santander/retention",
            Json::from_pairs([("max_timestamps", Json::from(16i64))]),
        ));
        assert!(set.is_success(), "{:?}", set.body);
        assert_eq!(
            set.body.get("trimmed_timestamps").unwrap().as_i64(),
            Some(SERIES_BLOCK_LEN as i64)
        );
        assert_eq!(set.body.get("revision").unwrap().as_i64(), Some(2));
        // GET reflects the new policy and the advanced window.
        let got = router.handle(&ApiRequest::get("/datasets/santander/retention"));
        assert_eq!(got.body.get("max_timestamps").unwrap().as_i64(), Some(16));
        assert_eq!(
            got.body.get("trimmed_total").unwrap().as_i64(),
            Some(SERIES_BLOCK_LEN as i64)
        );
        // The revision GC shows up in /cache/stats.
        let remined = router.handle(&ApiRequest::post("/datasets/santander/mine", mine_body(20)));
        assert_eq!(remined.body.get("revision").unwrap().as_i64(), Some(2));
        let stats = router.handle(&ApiRequest::get("/cache/stats"));
        assert!(stats.body.get("evicted").unwrap().as_i64().unwrap() >= 1);
        assert!(stats
            .body
            .get("extraction")
            .unwrap()
            .get("evicted")
            .is_some());
        // Bad bodies and unknown datasets error.
        let bad = router.handle(&ApiRequest::post(
            "/datasets/santander/retention",
            Json::from_pairs([("max_timestamps", Json::from(0i64))]),
        ));
        assert_eq!(bad.status, StatusCode::BadRequest);
        let missing = router.handle(&ApiRequest::get("/datasets/ghost/retention"));
        assert_eq!(missing.status, StatusCode::NotFound);
    }

    #[test]
    fn durability_route_reports_wal_stats() {
        // Without durability the route is a 404 on any dataset.
        let router = router_with_dataset();
        let resp = router.handle(&ApiRequest::get("/datasets/santander/durability"));
        assert_eq!(resp.status, StatusCode::NotFound);

        let dir =
            std::env::temp_dir().join(format!("miscela-router-durability-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let service = Arc::new(MiscelaService::with_durability(&dir).unwrap());
        service
            .register_dataset_keyed_in(
                DEFAULT_TENANT,
                SantanderGenerator::small().with_scale(0.02).generate(),
                None,
            )
            .unwrap();
        let router = Router::new(service);

        let resp = router.handle(&ApiRequest::get("/datasets/santander/durability"));
        assert!(resp.is_success(), "{:?}", resp.body);
        assert_eq!(resp.body.get("name").unwrap().as_str(), Some("santander"));
        // Registration installed the first snapshot and left an empty WAL.
        assert_eq!(
            resp.body.get("snapshot_generation").unwrap().as_i64(),
            Some(1)
        );
        assert_eq!(resp.body.get("wal_records").unwrap().as_i64(), Some(0));
        assert_eq!(resp.body.get("wal_pending").unwrap().as_i64(), Some(0));
        assert_eq!(resp.body.get("torn_bytes").unwrap().as_i64(), Some(0));
        // An append session writes framed, fsynced records.
        router.handle(&ApiRequest::post(
            "/datasets/santander/append/begin",
            Json::object(),
        ));
        let resp = router.handle(&ApiRequest::get("/datasets/santander/durability"));
        assert!(resp.body.get("wal_records").unwrap().as_i64().unwrap() >= 1);
        assert!(resp.body.get("wal_bytes").unwrap().as_i64().unwrap() > 0);
        assert!(resp.body.get("wal_syncs").unwrap().as_i64().unwrap() >= 1);
        // Unknown datasets are still a 404.
        let missing = router.handle(&ApiRequest::get("/datasets/ghost/durability"));
        assert_eq!(missing.status, StatusCode::NotFound);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mine_deadline_and_admission_routes() {
        let router = router_with_dataset();
        // Malformed deadline is a 400 before any work happens.
        let bad = router.handle(
            &ApiRequest::post("/datasets/santander/mine", mine_body(20))
                .with_query("deadline_ms", "soon"),
        );
        assert_eq!(bad.status, StatusCode::BadRequest);
        // An already-expired deadline on a cold mine is a 504 with the
        // typed error body (no retry_after_ms: the hint is for 429/503).
        let late = router.handle(
            &ApiRequest::post("/datasets/santander/mine", mine_body(20))
                .with_query("deadline_ms", "0"),
        );
        assert_eq!(late.status, StatusCode::GatewayTimeout);
        assert!(late.body.get("error").is_some());
        assert!(late.body.get("retry_after_ms").is_none());
        // Without a deadline the mine completes and fills the cache...
        let warm = router.handle(&ApiRequest::post("/datasets/santander/mine", mine_body(20)));
        assert!(warm.is_success(), "{:?}", warm.body);
        // ...after which even an expired deadline is served from cache.
        let hit = router.handle(
            &ApiRequest::post("/datasets/santander/mine", mine_body(20))
                .with_query("deadline_ms", "0"),
        );
        assert!(hit.is_success(), "{:?}", hit.body);
        assert_eq!(hit.body.get("cache_hit").unwrap().as_bool(), Some(true));
        // The admission counters reflect the admitted mine and the expired
        // request.
        let stats = router.handle(&ApiRequest::get("/admission/stats"));
        assert!(stats.is_success());
        assert!(stats.body.get("admitted").unwrap().as_i64().unwrap() >= 1);
        assert!(
            stats
                .body
                .get("deadline_expired")
                .unwrap()
                .as_i64()
                .unwrap()
                >= 1
        );
        assert_eq!(stats.body.get("in_flight").unwrap().as_i64(), Some(0));
    }

    #[test]
    fn double_append_begin_is_a_409_conflict() {
        let router = router_with_dataset();
        let begin = ApiRequest::post("/datasets/santander/append/begin", Json::object());
        assert_eq!(router.handle(&begin).status, StatusCode::Created);
        let conflict = router.handle(&begin);
        assert_eq!(conflict.status, StatusCode::Conflict);
        assert!(conflict
            .body
            .get("error")
            .and_then(|e| e.as_str())
            .unwrap()
            .contains("already open"));
    }

    #[test]
    fn tenant_routes_are_namespaced() {
        let router = router_with_dataset();
        // The same dataset name registered under a tenant prefix is a
        // distinct dataset; bare URLs keep addressing the default tenant.
        router
            .service()
            .register_dataset_keyed_in(
                "acme",
                SantanderGenerator::small().with_scale(0.02).generate(),
                None,
            )
            .unwrap();
        let listed = router.handle(&ApiRequest::get("/tenants/acme/datasets"));
        assert!(listed.is_success(), "{:?}", listed.body);
        assert_eq!(
            listed
                .body
                .get("datasets")
                .unwrap()
                .as_array()
                .unwrap()
                .len(),
            1
        );
        let stats = router.handle(&ApiRequest::get("/tenants/acme/datasets/santander"));
        assert!(stats.is_success(), "{:?}", stats.body);
        // Deleting the tenant's copy leaves the default tenant's intact.
        let del = router.handle(&ApiRequest::delete("/tenants/acme/datasets/santander"));
        assert!(del.is_success(), "{:?}", del.body);
        let gone = router.handle(&ApiRequest::get("/tenants/acme/datasets/santander"));
        assert_eq!(gone.status, StatusCode::NotFound);
        let still = router.handle(&ApiRequest::get("/datasets/santander"));
        assert!(still.is_success(), "{:?}", still.body);
        // An invalid tenant name is a 400, and the explicit default prefix
        // aliases the bare path.
        let bad = router.handle(&ApiRequest::get("/tenants/no.pe/datasets"));
        assert_eq!(bad.status, StatusCode::BadRequest);
        let aliased = router.handle(&ApiRequest::get("/tenants/default/datasets/santander"));
        assert!(aliased.is_success(), "{:?}", aliased.body);
    }

    #[test]
    fn watch_route_reports_revisions_and_deadlines() {
        let router = router_with_dataset();
        // since_revision defaults to 0: an immediate changed reply carrying
        // the current revision.
        let resp = router.handle(&ApiRequest::get("/datasets/santander/watch"));
        assert!(resp.is_success(), "{:?}", resp.body);
        assert_eq!(resp.body.get("changed").unwrap().as_bool(), Some(true));
        assert_eq!(resp.body.get("revision").unwrap().as_i64(), Some(1));
        // An up-to-date watcher with a tiny deadline times out unchanged.
        let resp = router.handle(
            &ApiRequest::get("/datasets/santander/watch")
                .with_query("since_revision", "1")
                .with_query("deadline_ms", "5"),
        );
        assert!(resp.is_success(), "{:?}", resp.body);
        assert_eq!(resp.body.get("changed").unwrap().as_bool(), Some(false));
        assert_eq!(
            resp.body.get("deadline_expired").unwrap().as_bool(),
            Some(true)
        );
        // Unknown datasets close with a 404; malformed cursors are 400s.
        let resp = router.handle(&ApiRequest::get("/datasets/ghost/watch"));
        assert_eq!(resp.status, StatusCode::NotFound);
        let resp = router.handle(
            &ApiRequest::get("/datasets/santander/watch").with_query("since_revision", "x"),
        );
        assert_eq!(resp.status, StatusCode::BadRequest);
    }

    #[test]
    fn quota_routes_round_trip_and_enforce() {
        let router = router_with_dataset();
        // Defaults are unlimited.
        let got = router.handle(&ApiRequest::get("/tenants/capped/quota"));
        assert!(got.is_success(), "{:?}", got.body);
        assert!(got.body.get("max_datasets").unwrap().is_null());
        // Set a one-dataset cap and verify it reads back.
        let set = router.handle(&ApiRequest::post(
            "/tenants/capped/quota",
            Json::from_pairs([("max_datasets", Json::from(1i64))]),
        ));
        assert!(set.is_success(), "{:?}", set.body);
        let got = router.handle(&ApiRequest::get("/tenants/capped/quota"));
        assert_eq!(got.body.get("max_datasets").unwrap().as_i64(), Some(1));
        // The cap turns a second registration into a 403 on the upload
        // path.
        let generated = SantanderGenerator::small().with_scale(0.02).generate();
        let writer = DatasetWriter::new();
        router
            .service()
            .register_dataset_keyed_in("capped", generated.clone(), None)
            .unwrap();
        let upload = |name: &str| {
            let begin = router.handle(&ApiRequest::post(
                format!("/tenants/capped/datasets/{name}/upload/begin"),
                Json::from_pairs([
                    ("location_csv", Json::from(writer.location_csv(&generated))),
                    (
                        "attribute_csv",
                        Json::from(writer.attribute_csv(&generated)),
                    ),
                ]),
            ));
            assert!(begin.is_success(), "{:?}", begin.body);
            for chunk in miscela_csv::split_into_chunks(&writer.data_csv(&generated), 5_000) {
                let resp = router.handle(&ApiRequest::post(
                    format!("/tenants/capped/datasets/{name}/upload/chunk"),
                    Json::from_pairs([
                        ("index", Json::from(chunk.index)),
                        ("total", Json::from(chunk.total)),
                        ("content", Json::from(chunk.content.clone())),
                    ]),
                ));
                assert!(resp.is_success(), "{:?}", resp.body);
            }
            router.handle(&ApiRequest::post(
                format!("/tenants/capped/datasets/{name}/upload/finish"),
                Json::object(),
            ))
        };
        let denied = upload("second");
        assert_eq!(denied.status, StatusCode::Forbidden);
        assert!(denied
            .body
            .get("error")
            .and_then(|e| e.as_str())
            .unwrap()
            .contains("quota"));
        // Clearing the cap (empty body) lets the same upload through.
        let cleared = router.handle(&ApiRequest::post("/tenants/capped/quota", Json::object()));
        assert!(cleared.is_success(), "{:?}", cleared.body);
        let allowed = upload("third");
        assert_eq!(allowed.status, StatusCode::Created, "{:?}", allowed.body);
        // Malformed quota bodies are 400s.
        let bad = router.handle(&ApiRequest::post(
            "/tenants/capped/quota",
            Json::from_pairs([("max_datasets", Json::from("lots"))]),
        ));
        assert_eq!(bad.status, StatusCode::BadRequest);
    }

    #[test]
    fn tenant_stats_routes_slice_the_global_counters() {
        let router = router_with_dataset();
        router
            .service()
            .register_dataset_keyed_in(
                "acme",
                SantanderGenerator::small().with_scale(0.02).generate(),
                Some("k1"),
            )
            .unwrap();
        router
            .service()
            .register_dataset_keyed_in(
                "acme",
                SantanderGenerator::small().with_scale(0.02).generate(),
                Some("k1"),
            )
            .unwrap();
        let mined = router.handle(&ApiRequest::post(
            "/tenants/acme/datasets/santander/mine",
            mine_body(20),
        ));
        assert!(mined.is_success(), "{:?}", mined.body);
        // The tenant slices report acme's activity...
        let adm = router.handle(&ApiRequest::get("/tenants/acme/admission/stats"));
        assert!(adm.is_success(), "{:?}", adm.body);
        assert_eq!(adm.body.get("admitted").unwrap().as_i64(), Some(1));
        let proto = router.handle(&ApiRequest::get("/tenants/acme/protocol/stats"));
        assert_eq!(proto.body.get("key_replays").unwrap().as_i64(), Some(1));
        let cache = router.handle(&ApiRequest::get("/tenants/acme/cache/stats"));
        assert_eq!(cache.body.get("datasets").unwrap().as_i64(), Some(1));
        assert!(
            cache
                .body
                .get("extraction")
                .unwrap()
                .get("entries")
                .unwrap()
                .as_i64()
                .unwrap()
                > 0
        );
        // ...while a fresh tenant's slices are empty and the service-wide
        // routes aggregate across tenants.
        let other = router.handle(&ApiRequest::get("/tenants/other/admission/stats"));
        assert_eq!(other.body.get("admitted").unwrap().as_i64(), Some(0));
        let global = router.handle(&ApiRequest::get("/protocol/stats"));
        assert!(global.body.get("key_replays").unwrap().as_i64().unwrap() >= 1);
    }

    #[test]
    fn params_from_json_defaults_and_errors() {
        let p = params_from_json(&Json::object()).unwrap();
        assert_eq!(p, MiningParams::default());
        let p = params_from_json(&mine_body(42)).unwrap();
        assert_eq!(p.psi, 42);
        assert!(!p.segmentation);
        assert!(params_from_json(&Json::from_pairs([("epsilon", Json::from("x"))])).is_err());
        assert!(params_from_json(&Json::from_pairs([("mu", Json::from(0i64))])).is_err());
    }
}
