//! The resilient client and the chaos transport it is proven against.
//!
//! Serving exactly-once mutations (see [`crate::service`]) is only half the
//! protocol — this module is the other half, the side that runs on flaky
//! municipal networks:
//!
//! * [`Transport`] — the one-method seam between the client and the server:
//!   send a request, get a response or [`TransportError::Lost`]. In process
//!   the transport is a [`RouterTransport`] (never loses anything) or a
//!   [`SwappableRouter`] (the crash-test harness swaps in a freshly
//!   recovered router mid-workflow);
//! * [`ChaosTransport`] — a deterministic, seeded fault injector wrapping
//!   any transport: drops requests, drops responses *after* the server
//!   applied them (the dangerous half — the mutation happened, the client
//!   doesn't know), duplicates deliveries, and delays requests so they
//!   arrive late and out of order, with per-fault counters;
//! * [`ResilientClient`] — deadline-budgeted retries with exponential
//!   backoff + full jitter (via the vendored `rand` shim), `retry_after_ms`
//!   obedience, idempotency keys on every mutation, sequenced chunk
//!   deliveries, and automatic append resume from the server's
//!   acked-sequence watermark after a `412`.
//!
//! The client's sleeps are *virtual* by default — backoff time is
//! accumulated in [`ClientStats::slept_ms`] and checked against the retry
//! budget, but the thread does not block — so chaos tests run at full speed
//! while still proving the budget is never exceeded. Call
//! [`ResilientClient::with_real_sleep`] to actually sleep between retries.

use crate::message::{ApiRequest, ApiResponse, StatusCode};
use crate::router::Router;
use miscela_store::Json;
use parking_lot::Mutex;
use rand::{Rng, SeedableRng, StdRng};
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------------------
// transports
// ---------------------------------------------------------------------------

/// A transport-level delivery failure: the request or its response never
/// arrived. The caller cannot tell which — the mutation may or may not have
/// been applied — which is exactly why mutations carry idempotency keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The request or its response was lost in transit.
    Lost(String),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Lost(why) => write!(f, "delivery lost: {why}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// The seam between a client and a server: one delivery attempt.
pub trait Transport {
    /// Delivers one request and returns its response, or
    /// [`TransportError::Lost`] when either direction failed.
    fn send(&mut self, request: &ApiRequest) -> Result<ApiResponse, TransportError>;
}

/// The trivial in-process transport: every request reaches the router and
/// every response comes back.
pub struct RouterTransport {
    router: Arc<Router>,
}

impl RouterTransport {
    /// Wraps a router.
    pub fn new(router: Arc<Router>) -> Self {
        RouterTransport { router }
    }
}

impl Transport for RouterTransport {
    fn send(&mut self, request: &ApiRequest) -> Result<ApiResponse, TransportError> {
        Ok(self.router.handle(request))
    }
}

/// A transport whose router can be swapped mid-workflow — the seam the
/// crash-recovery tests use: kill the durable service, recover it from
/// disk, [`SwappableRouter::swap`] the recovered router in, and the client
/// reconnects to "the restarted server" without noticing.
#[derive(Clone)]
pub struct SwappableRouter {
    router: Arc<Mutex<Arc<Router>>>,
}

impl SwappableRouter {
    /// Wraps the initial router.
    pub fn new(router: Arc<Router>) -> Self {
        SwappableRouter {
            router: Arc::new(Mutex::new(router)),
        }
    }

    /// Replaces the router every subsequent send reaches.
    pub fn swap(&self, router: Arc<Router>) {
        *self.router.lock() = router;
    }

    /// The router currently being served.
    pub fn current(&self) -> Arc<Router> {
        Arc::clone(&self.router.lock())
    }
}

impl Transport for SwappableRouter {
    fn send(&mut self, request: &ApiRequest) -> Result<ApiResponse, TransportError> {
        let router = self.current();
        Ok(router.handle(request))
    }
}

// ---------------------------------------------------------------------------
// chaos transport
// ---------------------------------------------------------------------------

/// Fault probabilities for a [`ChaosTransport`]. Each delivery rolls once
/// against `drop_request` / `delay_request` / `duplicate_request` (in that
/// order, mutually exclusive) and, if a response came back, once against
/// `drop_response`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Probability the request vanishes entirely.
    pub drop_request: f64,
    /// Probability the request is delayed: the client sees a loss now, but
    /// the request arrives later — after newer requests — modelling
    /// reordering and stale duplicates arriving late.
    pub delay_request: f64,
    /// Probability the request is delivered twice back-to-back.
    pub duplicate_request: f64,
    /// Probability the response is dropped *after* the server processed
    /// the request — the mutation applied, the client saw a loss.
    pub drop_response: f64,
    /// Bound on simultaneously delayed requests; beyond it a would-be
    /// delay becomes a plain drop.
    pub max_delayed: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            drop_request: 0.0,
            delay_request: 0.0,
            duplicate_request: 0.0,
            drop_response: 0.0,
            max_delayed: 4,
        }
    }
}

impl ChaosConfig {
    /// Only request drops.
    pub fn request_drops(p: f64) -> Self {
        ChaosConfig {
            drop_request: p,
            ..Default::default()
        }
    }

    /// Only response drops (the dangerous direction: the server applied
    /// the mutation).
    pub fn response_drops(p: f64) -> Self {
        ChaosConfig {
            drop_response: p,
            ..Default::default()
        }
    }

    /// Only duplicated deliveries.
    pub fn duplicates(p: f64) -> Self {
        ChaosConfig {
            duplicate_request: p,
            ..Default::default()
        }
    }

    /// Only delayed/reordered deliveries.
    pub fn delays(p: f64) -> Self {
        ChaosConfig {
            delay_request: p,
            ..Default::default()
        }
    }

    /// Everything at once: a lossy storm in both directions.
    pub fn storm(p: f64) -> Self {
        ChaosConfig {
            drop_request: p,
            delay_request: p / 2.0,
            duplicate_request: p / 2.0,
            drop_response: p,
            max_delayed: 4,
        }
    }
}

/// Per-fault counters for one [`ChaosTransport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosStats {
    /// Requests delivered to the inner transport (incl. duplicates and
    /// late deliveries).
    pub delivered: u64,
    /// Requests dropped before reaching the server.
    pub dropped_requests: u64,
    /// Responses dropped after the server processed the request.
    pub dropped_responses: u64,
    /// Requests delivered twice.
    pub duplicated_requests: u64,
    /// Requests queued for late delivery.
    pub delayed_requests: u64,
    /// Delayed requests that later reached the server (out of order).
    pub late_deliveries: u64,
}

impl ChaosStats {
    /// Total injected faults, all classes.
    pub fn total_faults(&self) -> u64 {
        self.dropped_requests
            + self.dropped_responses
            + self.duplicated_requests
            + self.delayed_requests
    }
}

/// A deterministic, seeded fault injector wrapping any [`Transport`].
///
/// Responses of duplicated and late deliveries are discarded (no caller is
/// waiting for them) — what matters is that the *server* saw the duplicate
/// or stale request and must not double-apply it.
pub struct ChaosTransport<T: Transport> {
    inner: T,
    rng: StdRng,
    config: ChaosConfig,
    pending: Vec<ApiRequest>,
    stats: ChaosStats,
}

impl<T: Transport> ChaosTransport<T> {
    /// Wraps `inner`, injecting faults per `config`, deterministically for
    /// `seed`.
    pub fn new(inner: T, config: ChaosConfig, seed: u64) -> Self {
        ChaosTransport {
            inner,
            rng: StdRng::seed_from_u64(seed),
            config,
            pending: Vec::new(),
            stats: ChaosStats::default(),
        }
    }

    /// The per-fault counters so far.
    pub fn stats(&self) -> ChaosStats {
        self.stats
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// A mutable handle on the wrapped transport (the crash harness uses
    /// this to swap routers).
    pub fn inner_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    /// Delivers every still-delayed request (trailing chaos at the end of
    /// an episode, so the quiesced server state is deterministic).
    pub fn drain(&mut self) {
        self.flush_pending(true);
    }

    /// Delivers delayed requests: all of them when `all`, otherwise each
    /// with a coin flip — so some arrive now (after newer traffic, i.e.
    /// reordered) and some arrive even later.
    fn flush_pending(&mut self, all: bool) {
        let mut keep = Vec::new();
        for request in std::mem::take(&mut self.pending) {
            if all || self.rng.gen_bool(0.5) {
                let _ = self.inner.send(&request);
                self.stats.delivered += 1;
                self.stats.late_deliveries += 1;
            } else {
                keep.push(request);
            }
        }
        self.pending = keep;
    }
}

impl<T: Transport> Transport for ChaosTransport<T> {
    fn send(&mut self, request: &ApiRequest) -> Result<ApiResponse, TransportError> {
        // Older delayed traffic may land just before this request…
        self.flush_pending(false);
        let roll: f64 = self.rng.gen();
        let c = self.config;
        let outcome = if roll < c.drop_request {
            self.stats.dropped_requests += 1;
            Err(TransportError::Lost("request dropped".to_string()))
        } else if roll < c.drop_request + c.delay_request && self.pending.len() < c.max_delayed {
            self.stats.delayed_requests += 1;
            self.pending.push(request.clone());
            Err(TransportError::Lost(
                "request delayed past the client's patience".to_string(),
            ))
        } else if roll < c.drop_request + c.delay_request + c.duplicate_request {
            self.stats.duplicated_requests += 1;
            self.stats.delivered += 2;
            let _first = self.inner.send(request)?;
            self.inner.send(request)
        } else {
            self.stats.delivered += 1;
            self.inner.send(request)
        };
        // …or just after it (this is what reorders deliveries).
        self.flush_pending(false);
        let response = outcome?;
        if self.rng.gen::<f64>() < c.drop_response {
            self.stats.dropped_responses += 1;
            return Err(TransportError::Lost(
                "response dropped after the server processed the request".to_string(),
            ));
        }
        Ok(response)
    }
}

// ---------------------------------------------------------------------------
// resilient client
// ---------------------------------------------------------------------------

/// Retry behavior of a [`ResilientClient`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Give up after this many delivery attempts per request.
    pub max_attempts: u32,
    /// First backoff step, in milliseconds; doubles per attempt.
    pub base_backoff_ms: u64,
    /// Ceiling on one backoff step, in milliseconds.
    pub max_backoff_ms: u64,
    /// Total backoff budget per request, in milliseconds: the client never
    /// sleeps past it — it fails with [`ClientError::BudgetExceeded`]
    /// instead.
    pub budget_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 24,
            base_backoff_ms: 5,
            max_backoff_ms: 2_000,
            budget_ms: 30_000,
        }
    }
}

/// Why a [`ResilientClient`] request gave up.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientError {
    /// Retries exhausted the attempt count or the backoff budget before a
    /// definitive response arrived.
    BudgetExceeded {
        /// Delivery attempts made.
        attempts: u32,
        /// Total (virtual) backoff slept, in milliseconds.
        slept_ms: u64,
        /// The last failure seen.
        last: String,
    },
    /// The server answered with a non-retryable error.
    Failed {
        /// The response status.
        status: StatusCode,
        /// The error body.
        body: Json,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::BudgetExceeded {
                attempts,
                slept_ms,
                last,
            } => write!(
                f,
                "gave up after {attempts} attempts ({slept_ms}ms backoff): {last}"
            ),
            ClientError::Failed { status, body } => {
                write!(f, "server answered {status}: {}", body.to_string_compact())
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// Counters for one [`ResilientClient`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClientStats {
    /// Delivery attempts, including first tries.
    pub attempts: u64,
    /// Retries after a loss or a retryable status.
    pub retries: u64,
    /// Transport-level losses observed.
    pub losses: u64,
    /// Responses the server flagged `"replayed": true` — retries that
    /// would have double-applied without the idempotency protocol.
    pub replayed_responses: u64,
    /// Append-chunk resumes driven by a `412` watermark.
    pub resumes: u64,
    /// Total backoff, in milliseconds (virtual unless
    /// [`ResilientClient::with_real_sleep`]).
    pub slept_ms: u64,
    /// The most backoff any single request accumulated, in milliseconds —
    /// by construction never past [`RetryPolicy::budget_ms`].
    pub max_request_slept_ms: u64,
}

/// A client that makes a lossy transport safe to use: retries with
/// exponential backoff + full jitter, obeys `retry_after_ms` hints, stamps
/// idempotency keys on every mutation, numbers chunk deliveries, and
/// resumes appends from the server's acked watermark.
pub struct ResilientClient<T: Transport> {
    transport: T,
    policy: RetryPolicy,
    rng: StdRng,
    client_id: String,
    op_counter: u64,
    stats: ClientStats,
    real_sleep: bool,
    /// Path prefix selecting the tenant namespace: empty for the default
    /// tenant, `/tenants/{t}` after [`ResilientClient::with_tenant`].
    prefix: String,
}

impl<T: Transport> ResilientClient<T> {
    /// Creates a client over `transport`. `client_id` prefixes every
    /// idempotency key, so distinct clients never collide; the jitter rng
    /// is seeded from it for deterministic tests.
    pub fn new(transport: T, client_id: impl Into<String>) -> Self {
        let client_id = client_id.into();
        let seed = client_id.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
        ResilientClient {
            transport,
            policy: RetryPolicy::default(),
            rng: StdRng::seed_from_u64(seed),
            client_id,
            op_counter: 0,
            stats: ClientStats::default(),
            real_sleep: false,
            prefix: String::new(),
        }
    }

    /// Scopes every subsequent operation to a tenant's namespace by
    /// prefixing request paths with `/tenants/{tenant}` (builder style).
    /// Without it the client addresses the default tenant, exactly as
    /// before tenancy existed.
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.prefix = format!("/tenants/{}", tenant.into());
        self
    }

    /// Replaces the retry policy (builder style).
    pub fn with_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Makes backoff actually block the thread instead of only accounting
    /// virtually.
    pub fn with_real_sleep(mut self, real: bool) -> Self {
        self.real_sleep = real;
        self
    }

    /// The client's counters so far.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// The wrapped transport.
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// A mutable handle on the wrapped transport.
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// The next idempotency key: unique per client and operation, stable
    /// across the retries of that operation (the key is minted once and
    /// baked into the request that gets retried).
    fn next_key(&mut self, op: &str) -> String {
        self.op_counter += 1;
        format!("{}-{op}-{}", self.client_id, self.op_counter)
    }

    /// Sends one request until a definitive response arrives: retries
    /// transport losses and retryable statuses (`429`/`503`/`504`) with
    /// exponential backoff + full jitter, never sleeping past the policy's
    /// budget. Non-retryable error responses are returned as-is — the
    /// caller decides (the append path, for example, turns a `412` into a
    /// resume).
    pub fn request(&mut self, request: &ApiRequest) -> Result<ApiResponse, ClientError> {
        let mut slept_this_request = 0u64;
        let mut last = String::new();
        for attempt in 0..self.policy.max_attempts {
            self.stats.attempts += 1;
            if attempt > 0 {
                self.stats.retries += 1;
            }
            let hint = match self.transport.send(request) {
                Ok(response) => {
                    let retryable = matches!(
                        response.status,
                        StatusCode::TooManyRequests
                            | StatusCode::ServiceUnavailable
                            | StatusCode::GatewayTimeout
                    );
                    if !retryable {
                        if response
                            .body
                            .get("replayed")
                            .and_then(|r| r.as_bool())
                            .unwrap_or(false)
                        {
                            self.stats.replayed_responses += 1;
                        }
                        return Ok(response);
                    }
                    last = format!(
                        "{}: {}",
                        response.status,
                        response
                            .body
                            .get("error")
                            .and_then(|e| e.as_str())
                            .unwrap_or("retryable")
                    );
                    response
                        .body
                        .get("retry_after_ms")
                        .and_then(|r| r.as_i64())
                        .map(|r| r.max(0) as u64)
                        .unwrap_or(0)
                }
                Err(TransportError::Lost(why)) => {
                    self.stats.losses += 1;
                    last = why;
                    0
                }
            };
            // Full jitter over an exponentially growing cap, floored at the
            // server's own hint when it gave one.
            let cap = self
                .policy
                .max_backoff_ms
                .min(self.policy.base_backoff_ms << attempt.min(16));
            let backoff = hint + self.rng.gen_range(0..=cap);
            if slept_this_request + backoff > self.policy.budget_ms {
                return Err(ClientError::BudgetExceeded {
                    attempts: attempt + 1,
                    slept_ms: self.stats.slept_ms,
                    last,
                });
            }
            slept_this_request += backoff;
            self.stats.slept_ms += backoff;
            self.stats.max_request_slept_ms =
                self.stats.max_request_slept_ms.max(slept_this_request);
            if self.real_sleep && backoff > 0 {
                std::thread::sleep(Duration::from_millis(backoff));
            }
        }
        Err(ClientError::BudgetExceeded {
            attempts: self.policy.max_attempts,
            slept_ms: self.stats.slept_ms,
            last,
        })
    }

    /// Like [`ResilientClient::request`], but treats any non-success
    /// response as an error.
    fn request_success(&mut self, request: &ApiRequest) -> Result<ApiResponse, ClientError> {
        let response = self.request(request)?;
        if response.is_success() {
            Ok(response)
        } else {
            Err(ClientError::Failed {
                status: response.status,
                body: response.body,
            })
        }
    }

    // ----- high-level operations ---------------------------------------

    /// Registers a dataset by driving the full chunked-upload protocol:
    /// keyed begin, content-idempotent chunks, keyed finish. Returns the
    /// finish response body.
    pub fn register(
        &mut self,
        name: &str,
        location_csv: &str,
        attribute_csv: &str,
        data_csv: &str,
        chunk_lines: usize,
    ) -> Result<Json, ClientError> {
        let begin_key = self.next_key("upload-begin");
        self.request_success(&ApiRequest::post(
            format!("{}/datasets/{name}/upload/begin", self.prefix),
            Json::from_pairs([
                ("location_csv", Json::from(location_csv)),
                ("attribute_csv", Json::from(attribute_csv)),
                ("idempotency_key", Json::from(begin_key.as_str())),
            ]),
        ))?;
        for chunk in miscela_csv::split_into_chunks(data_csv, chunk_lines) {
            self.request_success(&ApiRequest::post(
                format!("{}/datasets/{name}/upload/chunk", self.prefix),
                Json::from_pairs([
                    ("index", Json::from(chunk.index)),
                    ("total", Json::from(chunk.total)),
                    ("content", Json::from(chunk.content)),
                ]),
            ))?;
        }
        let finish_key = self.next_key("upload-finish");
        let response = self.request_success(&ApiRequest::post(
            format!("{}/datasets/{name}/upload/finish", self.prefix),
            Json::from_pairs([("idempotency_key", Json::from(finish_key.as_str()))]),
        ))?;
        Ok(response.body)
    }

    /// Appends new `data.csv` rows by driving the exactly-once append
    /// protocol: keyed begin (replays the same session on retry),
    /// sequence-numbered chunks (duplicates suppressed server-side), `412`
    /// watermark resume, keyed finish (replays the summary instead of
    /// double-applying). Returns the finish response body.
    pub fn append(
        &mut self,
        name: &str,
        data_csv: &str,
        chunk_lines: usize,
    ) -> Result<Json, ClientError> {
        let begin_key = self.next_key("append-begin");
        let begin = self.request_success(&ApiRequest::post(
            format!("{}/datasets/{name}/append/begin", self.prefix),
            Json::from_pairs([("idempotency_key", Json::from(begin_key.as_str()))]),
        ))?;
        let mut session = begin
            .body
            .get("session")
            .and_then(|s| s.as_i64())
            .unwrap_or(0) as u64;
        let chunks = miscela_csv::split_into_chunks(data_csv, chunk_lines);
        let mut i = 0usize;
        while i < chunks.len() {
            let chunk = &chunks[i];
            let seq = i as u64 + 1;
            let response = self.request(&ApiRequest::post(
                format!("{}/datasets/{name}/append/chunk", self.prefix),
                Json::from_pairs([
                    ("index", Json::from(chunk.index)),
                    ("total", Json::from(chunk.total)),
                    ("content", Json::from(chunk.content.as_str())),
                    ("session", Json::from(session as i64)),
                    ("seq", Json::from(seq as i64)),
                ]),
            ))?;
            if response.status == StatusCode::PreconditionFailed {
                // The server told us exactly where it is: adopt its open
                // session and continue from its acked watermark.
                self.stats.resumes += 1;
                session = response
                    .body
                    .get("expected_session")
                    .and_then(|s| s.as_i64())
                    .unwrap_or(session as i64) as u64;
                let expected_seq = response
                    .body
                    .get("expected_seq")
                    .and_then(|s| s.as_i64())
                    .unwrap_or(1)
                    .max(1) as u64;
                i = (expected_seq - 1) as usize;
                continue;
            }
            if !response.is_success() {
                return Err(ClientError::Failed {
                    status: response.status,
                    body: response.body,
                });
            }
            i += 1;
        }
        let finish_key = self.next_key("append-finish");
        let response = self.request_success(&ApiRequest::post(
            format!("{}/datasets/{name}/append/finish", self.prefix),
            Json::from_pairs([("idempotency_key", Json::from(finish_key.as_str()))]),
        ))?;
        Ok(response.body)
    }

    /// Mines a dataset (read-only: safely retryable without a key).
    /// Returns the response body, including the serialized CapSet.
    pub fn mine(&mut self, name: &str, params: Json) -> Result<Json, ClientError> {
        let response = self.request_success(&ApiRequest::post(
            format!("{}/datasets/{name}/mine", self.prefix),
            params,
        ))?;
        Ok(response.body)
    }

    /// Batch-mines a whole parameter grid in one keyed request. `points`
    /// is an array of parameter objects (the same shape as a `mine` body);
    /// a retry after a lost response replays the original sweep body
    /// (flagged `"replayed": true`) instead of re-mining. Returns the
    /// response body.
    pub fn mine_sweep(&mut self, name: &str, points: Json) -> Result<Json, ClientError> {
        let key = self.next_key("sweep");
        let mut body = Json::object();
        body.set("points", points);
        body.set("idempotency_key", Json::from(key.as_str()));
        let response = self.request_success(&ApiRequest::post(
            format!("{}/datasets/{name}/mine/sweep", self.prefix),
            body,
        ))?;
        Ok(response.body)
    }

    /// Installs a retention policy with a keyed, exactly-once request.
    /// Returns the response body.
    pub fn set_retention(&mut self, name: &str, mut policy: Json) -> Result<Json, ClientError> {
        let key = self.next_key("retention");
        policy.set("idempotency_key", Json::from(key.as_str()));
        let response = self.request_success(&ApiRequest::post(
            format!("{}/datasets/{name}/retention", self.prefix),
            policy,
        ))?;
        Ok(response.body)
    }

    /// Deletes a dataset with a keyed request. A `404` on a retry counts
    /// as confirmation: the original delete applied, its response was
    /// lost, and the keyed replay entry did not survive (deletes remove
    /// the durability log that would have carried it).
    pub fn delete(&mut self, name: &str) -> Result<Json, ClientError> {
        let key = self.next_key("delete");
        let request = ApiRequest::delete(format!("{}/datasets/{name}", self.prefix))
            .with_query("idempotency_key", &key);
        let attempts_before = self.stats.attempts;
        let response = self.request(&request)?;
        if response.is_success() {
            return Ok(response.body);
        }
        if response.status == StatusCode::NotFound && self.stats.attempts > attempts_before + 1 {
            return Ok(Json::from_pairs([
                ("deleted", Json::from(name)),
                ("replayed", Json::from(true)),
            ]));
        }
        Err(ClientError::Failed {
            status: response.status,
            body: response.body,
        })
    }

    /// Long-polls a dataset's revision feed: returns once the revision
    /// differs from `since_revision` (pass the last revision this client
    /// observed; 0 to learn the current one) or after `deadline_ms` with
    /// `"changed": false`. Read-only and cursor-driven, so it is safely
    /// retryable without a key: a lost response just re-issues the same
    /// cursor and the next reply carries the same (or a newer) revision —
    /// the watcher resumes across faults without missing a bump. A `404`
    /// is the feed's typed close: the dataset was deleted.
    pub fn watch(
        &mut self,
        name: &str,
        since_revision: u64,
        deadline_ms: u64,
    ) -> Result<Json, ClientError> {
        let request = ApiRequest::get(format!("{}/datasets/{name}/watch", self.prefix))
            .with_query("since_revision", since_revision.to_string())
            .with_query("deadline_ms", deadline_ms.to_string());
        let response = self.request_success(&request)?;
        Ok(response.body)
    }

    /// The server-side status of an in-progress append session (if any).
    pub fn append_status(&mut self, name: &str) -> Result<Json, ClientError> {
        let response = self.request_success(&ApiRequest::get(format!(
            "{}/datasets/{name}/append",
            self.prefix
        )))?;
        Ok(response.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::MiscelaService;
    use miscela_csv::DatasetWriter;
    use miscela_datagen::SantanderGenerator;

    /// Prefix data/location/attribute CSVs plus a tail data CSV whose rows
    /// extend the prefix grid (appends must move the grid forward).
    fn small_csvs() -> (String, String, String, String) {
        let full = SantanderGenerator::small().with_scale(0.02).generate();
        let split_t = full.grid().at(full.timestamp_count() - 12).unwrap();
        let prefix = full.slice_time(full.grid().start(), split_t).unwrap();
        let tail = full.slice_time(split_t, full.grid().range().end).unwrap();
        let writer = DatasetWriter::new();
        (
            writer.data_csv(&prefix),
            writer.location_csv(&prefix),
            writer.attribute_csv(&prefix),
            writer.data_csv(&tail),
        )
    }

    fn fresh_router() -> Arc<Router> {
        Arc::new(Router::new(Arc::new(MiscelaService::new())))
    }

    #[test]
    fn clean_transport_round_trip() {
        let (data, locations, attributes, _tail) = small_csvs();
        let transport = RouterTransport::new(fresh_router());
        let mut client = ResilientClient::new(transport, "c0");
        let body = client
            .register("demo", &locations, &attributes, &data, 2_000)
            .unwrap();
        assert!(body.get("sensors").unwrap().as_i64().unwrap() > 0);
        assert_eq!(client.stats().retries, 0);
        let deleted = client.delete("demo").unwrap();
        assert_eq!(deleted.get("deleted").unwrap().as_str(), Some("demo"));
    }

    #[test]
    fn lossy_transport_converges_and_replays() {
        let (data, locations, attributes, tail) = small_csvs();
        let chaotic = ChaosTransport::new(
            RouterTransport::new(fresh_router()),
            ChaosConfig::storm(0.25),
            7,
        );
        let mut client = ResilientClient::new(chaotic, "c1");
        let body = client
            .register("demo", &locations, &attributes, &data, 1_000)
            .unwrap();
        assert!(body.get("sensors").unwrap().as_i64().unwrap() > 0);
        let appended = client.append("demo", &tail, 1_000).unwrap();
        assert_eq!(appended.get("revision").unwrap().as_i64(), Some(2));
        let stats = client.stats();
        assert!(stats.retries > 0, "storm must force retries: {stats:?}");
        assert!(
            client.transport().stats().total_faults() > 0,
            "chaos must actually inject faults"
        );
        // The budget was respected on every request.
        assert!(stats.slept_ms <= RetryPolicy::default().budget_ms * stats.attempts);
    }

    #[test]
    fn budget_is_a_hard_ceiling() {
        // A transport that loses everything: the client must give up
        // within its budget, not loop forever.
        struct BlackHole;
        impl Transport for BlackHole {
            fn send(&mut self, _request: &ApiRequest) -> Result<ApiResponse, TransportError> {
                Err(TransportError::Lost("void".to_string()))
            }
        }
        let mut client = ResilientClient::new(BlackHole, "c2").with_policy(RetryPolicy {
            max_attempts: 50,
            base_backoff_ms: 8,
            max_backoff_ms: 1_000,
            budget_ms: 100,
        });
        let err = client.request(&ApiRequest::get("/datasets")).unwrap_err();
        match err {
            ClientError::BudgetExceeded { slept_ms, .. } => {
                assert!(slept_ms <= 100, "slept {slept_ms}ms past the 100ms budget")
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn tenant_prefix_and_watch_survive_chaos() {
        let (data, locations, attributes, tail) = small_csvs();
        let router = fresh_router();
        let chaotic = ChaosTransport::new(
            RouterTransport::new(Arc::clone(&router)),
            ChaosConfig::storm(0.25),
            21,
        );
        let mut client = ResilientClient::new(chaotic, "c4").with_tenant("acme");
        client
            .register("demo", &locations, &attributes, &data, 1_000)
            .unwrap();
        // The dataset lives in acme's namespace only.
        assert_eq!(
            router.handle(&ApiRequest::get("/datasets/demo")).status,
            StatusCode::NotFound
        );
        assert!(router
            .handle(&ApiRequest::get("/tenants/acme/datasets/demo"))
            .is_success());
        // A stale cursor is answered immediately with the current revision,
        // through the lossy transport (retries re-issue the same cursor).
        let watched = client.watch("demo", 0, 1_000).unwrap();
        assert_eq!(watched.get("changed").unwrap().as_bool(), Some(true));
        assert_eq!(watched.get("revision").unwrap().as_i64(), Some(1));
        let appended = client.append("demo", &tail, 1_000).unwrap();
        assert_eq!(appended.get("revision").unwrap().as_i64(), Some(2));
        let watched = client.watch("demo", 1, 1_000).unwrap();
        assert_eq!(watched.get("changed").unwrap().as_bool(), Some(true));
        assert_eq!(watched.get("revision").unwrap().as_i64(), Some(2));
        // Watching a dataset that does not exist is the typed close.
        match client.watch("ghost", 0, 50).unwrap_err() {
            ClientError::Failed { status, .. } => assert_eq!(status, StatusCode::NotFound),
            other => panic!("expected a typed close, got {other:?}"),
        }
    }

    #[test]
    fn chaos_transport_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let (data, locations, attributes, _tail) = small_csvs();
            let chaotic = ChaosTransport::new(
                RouterTransport::new(fresh_router()),
                ChaosConfig::storm(0.3),
                seed,
            );
            let mut client = ResilientClient::new(chaotic, "c3");
            client
                .register("demo", &locations, &attributes, &data, 1_000)
                .unwrap();
            (client.transport().stats(), client.stats())
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11).0, run(12).0);
    }
}
