//! # miscela-server
//!
//! The API layer of Miscela-V. The original system exposes django REST
//! endpoints that the JavaScript front end calls; this crate reproduces that
//! layer as an in-process service so the request flow of Figure 2 —
//! *data upload → parameter input → CAP mining results → interactive
//! re-querying* — can be exercised, tested and benchmarked without a network
//! stack.
//!
//! * [`message`] — request/response envelopes (method, path, JSON body,
//!   status code), mirroring the HTTP shapes of the original API;
//! * [`admission`] — admission control for the serving path: a
//!   cost-weighted in-flight budget, per-dataset concurrency caps and a
//!   bounded wait queue, shedding excess load with typed retryable errors
//!   instead of queueing without bound;
//! * [`shard`] — the sharded storage spine (a crate-private store): every
//!   piece of per-dataset state (registry, caches, sessions, durability,
//!   watch sequence) keyed by `tenant/dataset` and hashed into independent
//!   shards with per-shard locks, plus per-tenant quotas and stats;
//! * [`service`] — [`service::MiscelaService`]: a stateless facade over the
//!   sharded store — dataset upload (including the 10,000-line chunked
//!   `data.csv` protocol), the dataset registry (the shard registry, the
//!   only dataset table), mining with the parameter-keyed result cache,
//!   result retrieval, and the `watch` long-poll feed;
//! * `append` (crate-private) — one append session's rules as four steps
//!   (screen a sequenced delivery, accept a chunk, ack it once its WAL record
//!   is fsynced, apply the finished session), shared by the live path, the
//!   WAL re-log and recovery;
//! * [`router`] — dispatches requests to the service and serializes responses
//!   as JSON, like the original URL configuration did;
//! * [`durability`] — the snapshot codec and WAL record vocabulary behind
//!   durable append sessions ([`service::MiscelaService::with_durability`]):
//!   `append_chunk` fsyncs a WAL record before acknowledging, `finish_append`
//!   commits, and service startup replays outstanding WAL tails;
//! * [`client`] — the resilient client ([`client::ResilientClient`]) that
//!   makes a lossy transport safe: deadline-budgeted retries with full
//!   jitter, idempotency keys on every mutation, sequence-numbered chunk
//!   deliveries and `412`-driven append resume — plus the deterministic
//!   [`client::ChaosTransport`] fault injector used to prove it.
//!
//! # Example
//!
//! The chunked upload flow of Section 3.2, end to end:
//!
//! ```
//! use miscela_csv::split_into_chunks;
//! use miscela_server::{MiscelaService, DEFAULT_TENANT};
//!
//! let service = MiscelaService::new();
//! let locations = "id,attribute,lat,lon\n\
//!                  s0,temperature,43.46,-3.80\n\
//!                  s1,light,43.47,-3.79\n";
//! let attributes = "temperature\nlight\n";
//! let data = "id,attribute,time,data\n\
//!             s0,temperature,2016-03-01 00:00:00,9.5\n\
//!             s0,temperature,2016-03-01 01:00:00,10.2\n\
//!             s1,light,2016-03-01 00:00:00,310\n\
//!             s1,light,2016-03-01 01:00:00,343\n";
//!
//! let tenant = DEFAULT_TENANT;
//! service.begin_upload_keyed_in(tenant, "demo", locations, attributes, None).unwrap();
//! for chunk in split_into_chunks(data, 2) {
//!     service.upload_chunk_in(tenant, "demo", &chunk).unwrap();
//! }
//! let (summary, _elapsed, _replayed) = service.finish_upload_keyed_in(tenant, "demo", None).unwrap();
//! assert_eq!(summary.sensors, 2);
//! assert_eq!(summary.records, 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Nothing a request carries may panic the server: every failure on the
// request path is a typed `ApiError`.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod admission;
mod append;
pub mod client;
pub mod durability;
pub mod message;
pub mod router;
pub mod service;
pub mod shard;

pub use admission::{AdmissionConfig, AdmissionController, AdmissionStats, Permit};
pub use client::{
    ChaosConfig, ChaosStats, ChaosTransport, ClientError, ClientStats, ResilientClient,
    RetryPolicy, RouterTransport, SwappableRouter, Transport, TransportError,
};
pub use message::{ApiError, ApiRequest, ApiResponse, Method, StatusCode};
pub use router::Router;
pub use service::{
    AppendStatus, AppendSummary, BeginAppendOutcome, ChunkAck, DatasetSummary, MineOutcome,
    MiscelaService, ProtocolStats, ReplayOutcome, SweepOutcome, SweepServed, TenantCacheStats,
    WatchOutcome,
};
pub use shard::{TenantAdmissionStats, TenantQuota, DEFAULT_SHARDS, DEFAULT_TENANT};
