//! The operations a user performs, over one of two paths.
//!
//! * [`Api::Wire`] is the measured path: a `ResilientClient` over the
//!   text [`WireTransport`](crate::wire::WireTransport) into the `Router`.
//! * [`Api::Traced`] replays the same operations by calling the functions
//!   the router calls, in the router's order, with a span around each call.
//!   It answers with the same response documents, so everything
//!   downstream (decoding, rendering, checks) is shared.

use crate::trace::Trace;
use crate::wire::WireTransport;
use miscela_cache::codec::capset_to_json;
use miscela_core::{CancelToken, CapSet, MiningParams, MiningReport};
use miscela_csv::chunk::{split_into_chunks, Chunk};
use miscela_model::Dataset;
use miscela_server::router::params_from_json;
use miscela_server::{ApiError, MiscelaService, ResilientClient, SweepServed, DEFAULT_TENANT};
use miscela_store::Json;
use miscela_viz::Dashboard;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Renders the top CAP's Figure-3 dashboard, as the client does after
/// every mine. Returns the SVG's length in bytes (0 with no CAPs).
pub fn render(trace: Option<&Trace>, dataset: &Dataset, caps: &CapSet) -> usize {
    crate::trace::span(trace, "viz.render", || {
        Dashboard::new(dataset, caps)
            .render_top()
            .map(|svg| svg.render().len())
            .unwrap_or(0)
    })
}

/// Work counters the traced path reads off each fresh mine's report.
#[derive(Debug, Default, Clone)]
pub struct MineFacts {
    /// Fresh (result-cache missing) mines, sweep groups counted once.
    pub fresh: u64,
    pub caps: Vec<f64>,
    pub largest_component: Vec<f64>,
    /// Series extractions looked up in the extraction cache.
    pub extraction_lookups: u64,
    pub extraction_hits: u64,
    pub prefix_hits: u64,
    pub trim_hits: u64,
    pub trim_fallbacks: u64,
}

impl MineFacts {
    pub fn merge(&mut self, other: &MineFacts) {
        self.fresh += other.fresh;
        self.caps.extend_from_slice(&other.caps);
        self.largest_component
            .extend_from_slice(&other.largest_component);
        self.extraction_lookups += other.extraction_lookups;
        self.extraction_hits += other.extraction_hits;
        self.prefix_hits += other.prefix_hits;
        self.trim_hits += other.trim_hits;
        self.trim_fallbacks += other.trim_fallbacks;
    }

    fn record(&mut self, report: &MiningReport, series: usize, caps: usize) {
        self.fresh += 1;
        self.caps.push(caps as f64);
        self.largest_component.push(report.largest_component as f64);
        self.extraction_lookups += series as u64;
        self.extraction_hits += report.extraction_cache_hits as u64;
        self.prefix_hits += report.extraction_prefix_hits as u64;
        self.trim_hits += report.extraction_trim_hits as u64;
        self.trim_fallbacks += report.extraction_trim_fallbacks as u64;
    }
}

pub struct Traced<'a> {
    svc: Arc<MiscelaService>,
    trace: &'a Trace,
    client_id: String,
    counter: u64,
    received: u64,
    facts: MineFacts,
}

pub enum Api<'a> {
    Wire(ResilientClient<WireTransport>, u64),
    Traced(Traced<'a>),
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

impl<'a> Api<'a> {
    pub fn wire(transport: WireTransport, client_id: &str) -> Self {
        Api::Wire(ResilientClient::new(transport, client_id), 0)
    }

    pub fn traced(svc: Arc<MiscelaService>, trace: &'a Trace, client_id: &str) -> Self {
        Api::Traced(Traced {
            svc,
            trace,
            client_id: client_id.to_string(),
            counter: 0,
            received: 0,
            facts: MineFacts::default(),
        })
    }

    pub fn trace(&self) -> Option<&'a Trace> {
        match self {
            Api::Wire(..) => None,
            Api::Traced(t) => Some(t.trace),
        }
    }

    /// Response bytes received since the last call.
    pub fn take_received(&mut self) -> u64 {
        match self {
            Api::Wire(client, seen) => {
                let now = client.transport().received();
                let delta = now - *seen;
                *seen = now;
                delta
            }
            Api::Traced(t) => std::mem::take(&mut t.received),
        }
    }

    /// Chunked upload: begin, chunks, finish.
    pub fn register(
        &mut self,
        name: &str,
        location_csv: &str,
        attribute_csv: &str,
        data_csv: &str,
        chunk_lines: usize,
    ) -> Result<Json, String> {
        match self {
            Api::Wire(c, _) => c
                .register(name, location_csv, attribute_csv, data_csv, chunk_lines)
                .map_err(err),
            Api::Traced(t) => t.register(name, location_csv, attribute_csv, data_csv, chunk_lines),
        }
    }

    pub fn mine(&mut self, name: &str, params: Json) -> Result<Json, String> {
        match self {
            Api::Wire(c, _) => c.mine(name, params).map_err(err),
            Api::Traced(t) => t.mine(name, params),
        }
    }

    pub fn sweep(&mut self, name: &str, points: Json) -> Result<Json, String> {
        match self {
            Api::Wire(c, _) => c.mine_sweep(name, points).map_err(err),
            Api::Traced(t) => t.sweep(name, points),
        }
    }

    pub fn delete(&mut self, name: &str) -> Result<Json, String> {
        match self {
            Api::Wire(c, _) => c.delete(name).map_err(err),
            Api::Traced(t) => t.delete(name),
        }
    }

    pub fn append(
        &mut self,
        name: &str,
        data_csv: &str,
        chunk_lines: usize,
    ) -> Result<Json, String> {
        match self {
            Api::Wire(c, _) => c.append(name, data_csv, chunk_lines).map_err(err),
            Api::Traced(t) => t.append(name, data_csv, chunk_lines),
        }
    }

    pub fn watch(&mut self, name: &str, since: u64, deadline_ms: u64) -> Result<Json, String> {
        match self {
            Api::Wire(c, _) => c.watch(name, since, deadline_ms).map_err(err),
            Api::Traced(t) => t.watch(name, since, deadline_ms),
        }
    }

    pub fn set_retention(&mut self, name: &str, policy: Json) -> Result<Json, String> {
        match self {
            Api::Wire(c, _) => c.set_retention(name, policy).map_err(err),
            Api::Traced(_) => Err("retention is set up over the wire only".into()),
        }
    }

    pub fn facts(&self) -> Option<&MineFacts> {
        match self {
            Api::Wire(..) => None,
            Api::Traced(t) => Some(&t.facts),
        }
    }
}

fn str_field<'j>(body: &'j Json, field: &str) -> Result<&'j str, ApiError> {
    body.get(field)
        .and_then(|v| v.as_str())
        .ok_or_else(|| ApiError::BadRequest(format!("missing string field {field:?}")))
}

fn u64_field(body: &Json, field: &str) -> Result<u64, ApiError> {
    body.get(field)
        .and_then(|v| v.as_i64())
        .filter(|n| *n >= 0)
        .map(|n| n as u64)
        .ok_or_else(|| ApiError::BadRequest(format!("missing integer field {field:?}")))
}

fn chunk_of(body: &Json) -> Result<Chunk, ApiError> {
    Ok(Chunk {
        index: u64_field(body, "index")? as usize,
        total: u64_field(body, "total")? as usize,
        content: str_field(body, "content")?.to_string(),
    })
}

fn key_of(body: &Json) -> Option<&str> {
    body.get("idempotency_key").and_then(|k| k.as_str())
}

impl Traced<'_> {
    fn next_key(&mut self, op: &str) -> String {
        self.counter += 1;
        format!("{}-{op}-{}", self.client_id, self.counter)
    }

    /// One request/response exchange: the request body goes through text,
    /// the handler runs the router's calls, the response goes back through
    /// text. Freeing each side's document is charged to its encode.
    fn call(
        &mut self,
        body: Json,
        handler: impl FnOnce(&Json) -> Result<Json, ApiError>,
    ) -> Result<Json, String> {
        let t = self.trace;
        let text = t.span("wire.encode", move || body.to_string_compact());
        let request = t.span("wire.decode", || Json::parse(&text)).map_err(err)?;
        drop(text);
        let response = handler(&request).map_err(err)?;
        let text = t.span("wire.encode", move || {
            drop(request);
            response.to_string_compact()
        });
        self.received += text.len() as u64;
        t.span("wire.decode", || Json::parse(&text)).map_err(err)
    }

    fn register(
        &mut self,
        name: &str,
        location_csv: &str,
        attribute_csv: &str,
        data_csv: &str,
        chunk_lines: usize,
    ) -> Result<Json, String> {
        let svc = Arc::clone(&self.svc);
        let t = self.trace;
        let begin_key = self.next_key("upload-begin");
        self.call(
            Json::from_pairs([
                ("location_csv", Json::from(location_csv)),
                ("attribute_csv", Json::from(attribute_csv)),
                ("idempotency_key", Json::from(begin_key.as_str())),
            ]),
            |b| {
                let replayed = t.span("service.upload", || {
                    svc.begin_upload_keyed_in(
                        DEFAULT_TENANT,
                        name,
                        str_field(b, "location_csv")?,
                        str_field(b, "attribute_csv")?,
                        key_of(b),
                    )
                })?;
                Ok(Json::from_pairs([
                    ("upload", Json::from(name)),
                    ("replayed", Json::from(replayed)),
                ]))
            },
        )?;
        let chunks = t.span("csv.split", || split_into_chunks(data_csv, chunk_lines));
        for chunk in chunks {
            self.call(
                Json::from_pairs([
                    ("index", Json::from(chunk.index)),
                    ("total", Json::from(chunk.total)),
                    ("content", Json::from(chunk.content)),
                ]),
                |b| {
                    let chunk = chunk_of(b)?;
                    let missing = t.span("service.upload", || {
                        svc.upload_chunk_in(DEFAULT_TENANT, name, &chunk)
                    })?;
                    Ok(Json::from_pairs([
                        ("accepted", Json::from(chunk.index)),
                        ("missing_chunks", Json::from(missing)),
                    ]))
                },
            )?;
        }
        let finish_key = self.next_key("upload-finish");
        self.call(
            Json::from_pairs([("idempotency_key", Json::from(finish_key.as_str()))]),
            |b| {
                let (summary, elapsed, replayed) = t.span("service.upload", || {
                    svc.finish_upload_keyed_in(DEFAULT_TENANT, name, key_of(b))
                })?;
                Ok(Json::from_pairs([
                    ("name", Json::from(summary.name)),
                    ("sensors", Json::from(summary.sensors)),
                    ("records", Json::from(summary.records)),
                    ("upload_seconds", Json::from(elapsed.as_secs_f64())),
                    ("replayed", Json::from(replayed)),
                ]))
            },
        )
    }

    fn mine(&mut self, name: &str, params: Json) -> Result<Json, String> {
        let svc = Arc::clone(&self.svc);
        let t = self.trace;
        let mut facts = std::mem::take(&mut self.facts);
        let out = self.call(params, |b| {
            let params = t.span("router.params", || params_from_json(b))?;
            let outcome = t.span("service.mine", || {
                let out = svc.mine_cancellable_in(
                    DEFAULT_TENANT,
                    name,
                    &params,
                    None,
                    &CancelToken::never(),
                );
                if let Ok(o) = &out {
                    if !o.cache_hit {
                        t.phases(&o.result.report);
                    }
                }
                out
            })?;
            if !outcome.cache_hit {
                let series = svc
                    .dataset_in(DEFAULT_TENANT, name)
                    .map(|d| d.sensor_count())
                    .unwrap_or(0);
                facts.record(&outcome.result.report, series, outcome.result.caps.len());
            }
            Ok(t.span("codec.encode", || {
                Json::from_pairs([
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
                    ("caps", capset_to_json(&outcome.result.caps)),
                ])
            }))
        });
        self.facts = facts;
        out
    }

    fn sweep(&mut self, name: &str, points: Json) -> Result<Json, String> {
        let svc = Arc::clone(&self.svc);
        let t = self.trace;
        let key = self.next_key("sweep");
        let mut facts = std::mem::take(&mut self.facts);
        let mut body = Json::object();
        body.set("points", points);
        body.set("idempotency_key", Json::from(key.as_str()));
        let out = self.call(body, |b| {
            let raw = b
                .get("points")
                .and_then(|p| p.as_array())
                .ok_or_else(|| ApiError::BadRequest("body must carry a `points` array".into()))?;
            let points = t.span("router.params", || {
                raw.iter()
                    .map(params_from_json)
                    .collect::<Result<Vec<MiningParams>, ApiError>>()
            })?;
            let key = key_of(b);
            let served = t.span("service.sweep", || {
                let out = svc.mine_sweep_in(
                    DEFAULT_TENANT,
                    name,
                    &points,
                    None,
                    &CancelToken::never(),
                    key,
                );
                if let Ok(SweepServed::Fresh(o)) = &out {
                    // Every fresh point carries the whole job's phase split.
                    if let Some(i) = o.cache_hits.iter().position(|hit| !hit) {
                        t.phases(&o.results[i].report);
                    }
                }
                out
            })?;
            let outcome = match served {
                SweepServed::Replayed(body) => {
                    return Json::parse(&body).map_err(|e| ApiError::Internal(e.to_string()))
                }
                SweepServed::Fresh(o) => o,
            };
            if let Some(i) = outcome.cache_hits.iter().position(|hit| !hit) {
                let series = svc
                    .dataset_in(DEFAULT_TENANT, name)
                    .map(|d| d.sensor_count())
                    .unwrap_or(0);
                let report = &outcome.results[i].report;
                facts.record(
                    report,
                    series * outcome.stats.extraction_classes,
                    outcome.results[i].caps.len(),
                );
            }
            let doc = t.span("codec.encode", || {
                let results: Vec<Json> = outcome
                    .results
                    .iter()
                    .zip(&outcome.cache_hits)
                    .map(|(result, &hit)| {
                        Json::from_pairs([
                            ("cache_hit", Json::from(hit)),
                            ("cap_count", Json::from(result.caps.len())),
                            ("delayed_count", Json::from(result.delayed.len())),
                            ("caps", capset_to_json(&result.caps)),
                        ])
                    })
                    .collect();
                Json::from_pairs([
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
                ])
            });
            // The router keeps the serialized body for keyed replays.
            let replay = t.span("wire.encode", || doc.to_string_compact());
            svc.remember_sweep_in(DEFAULT_TENANT, name, key, replay);
            Ok(doc)
        });
        self.facts = facts;
        out
    }

    fn delete(&mut self, name: &str) -> Result<Json, String> {
        let svc = Arc::clone(&self.svc);
        let t = self.trace;
        let key = self.next_key("delete");
        self.call(
            Json::from_pairs([("idempotency_key", Json::from(key.as_str()))]),
            |b| {
                let replayed = t.span("service.delete", || {
                    svc.delete_dataset_keyed_in(DEFAULT_TENANT, name, key_of(b))
                })?;
                Ok(Json::from_pairs([
                    ("deleted", Json::from(name)),
                    ("replayed", Json::from(replayed)),
                ]))
            },
        )
    }

    fn append(&mut self, name: &str, data_csv: &str, chunk_lines: usize) -> Result<Json, String> {
        let svc = Arc::clone(&self.svc);
        let t = self.trace;
        let begin_key = self.next_key("append-begin");
        let begin = self.call(
            Json::from_pairs([("idempotency_key", Json::from(begin_key.as_str()))]),
            |b| {
                let outcome = t.span("service.append", || {
                    svc.begin_append_keyed_in(DEFAULT_TENANT, name, key_of(b))
                })?;
                Ok(Json::from_pairs([
                    ("append", Json::from(name)),
                    ("session", Json::from(outcome.session as i64)),
                    ("replayed", Json::from(outcome.replayed)),
                ]))
            },
        )?;
        let session = begin.get("session").and_then(|s| s.as_i64()).unwrap_or(0);
        let chunks = t.span("csv.split", || split_into_chunks(data_csv, chunk_lines));
        for (i, chunk) in chunks.into_iter().enumerate() {
            self.call(
                Json::from_pairs([
                    ("index", Json::from(chunk.index)),
                    ("total", Json::from(chunk.total)),
                    ("content", Json::from(chunk.content)),
                    ("session", Json::from(session)),
                    ("seq", Json::from(i as i64 + 1)),
                ]),
                |b| {
                    let chunk = chunk_of(b)?;
                    let (session, seq) = (u64_field(b, "session")?, u64_field(b, "seq")?);
                    let ack = t.span("service.append", || {
                        svc.append_chunk_seq_in(DEFAULT_TENANT, name, session, seq, &chunk)
                    })?;
                    Ok(Json::from_pairs([
                        ("accepted", Json::from(ack.accepted)),
                        ("missing_chunks", Json::from(ack.missing)),
                        ("acked_seq", Json::from(ack.acked_seq as i64)),
                        ("replayed", Json::from(ack.replayed)),
                    ]))
                },
            )?;
        }
        let finish_key = self.next_key("append-finish");
        self.call(
            Json::from_pairs([("idempotency_key", Json::from(finish_key.as_str()))]),
            |b| {
                let (summary, elapsed, replayed) = t.span("service.append", || {
                    svc.finish_append_keyed_in(DEFAULT_TENANT, name, key_of(b))
                })?;
                Ok(Json::from_pairs([
                    ("name", Json::from(summary.name)),
                    ("new_timestamps", Json::from(summary.new_timestamps)),
                    ("measurements", Json::from(summary.measurements)),
                    ("trimmed_timestamps", Json::from(summary.trimmed_timestamps)),
                    ("timestamps", Json::from(summary.timestamps)),
                    ("revision", Json::from(summary.revision as i64)),
                    ("append_seconds", Json::from(elapsed.as_secs_f64())),
                    ("replayed", Json::from(replayed)),
                ]))
            },
        )
    }

    fn watch(&mut self, name: &str, since: u64, deadline_ms: u64) -> Result<Json, String> {
        let svc = Arc::clone(&self.svc);
        let t = self.trace;
        self.call(Json::object(), |_| {
            let deadline = Instant::now() + Duration::from_millis(deadline_ms);
            let out = t.span("service.watch", || {
                svc.watch_in(DEFAULT_TENANT, name, since, deadline)
            })?;
            Ok(Json::from_pairs([
                ("dataset", Json::from(name)),
                ("revision", Json::from(out.revision as i64)),
                ("changed", Json::from(out.changed)),
                ("timestamps", Json::from(out.timestamps)),
                ("trimmed_total", Json::from(out.trimmed_total)),
                ("deadline_expired", Json::from(out.deadline_expired)),
            ]))
        })
    }
}
