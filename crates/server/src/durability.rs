//! Durable append sessions: the snapshot codec and WAL record vocabulary.
//!
//! The service's durability layer (see [`crate::service::MiscelaService`])
//! persists each dataset as a *snapshot* — an exact JSON encoding of the
//! resident [`Dataset`] — plus a write-ahead log of the append-session
//! operations performed since that snapshot. This module owns both formats:
//!
//! * [`snapshot_data`] / [`restore_dataset`] encode a dataset losslessly
//!   (numbers round-trip through the store's exact [`Json`] number
//!   formatting, *not* the lossy CSV float format), together with its
//!   revision counter and the `applied_session` watermark that makes WAL
//!   replay idempotent across a crash between snapshot rename and WAL
//!   truncation;
//! * [`begin_record`] / [`chunk_record`] / [`commit_record`] build the WAL
//!   records logged by `begin_append` / `append_chunk` / `finish_append`,
//!   and [`parse_op`] decodes them for replay. Chunk records carry the raw
//!   `data.csv` chunk content, so replay funnels through exactly the same
//!   parser as the live path.

use crate::message::ApiError;
use crate::service::{AppendSummary, DatasetSummary, ReplayOutcome, RetentionSummary};
use miscela_csv::chunk::Chunk;
use miscela_model::{
    Dataset, DatasetBuilder, Duration, GeoPoint, RetentionPolicy, TimeGrid, TimeSeries, Timestamp,
};
use miscela_store::Json;

fn corrupt(what: &str) -> ApiError {
    ApiError::Internal(format!("durability snapshot is corrupt: {what}"))
}

/// Encodes a dataset as an exact snapshot payload.
///
/// `revision` is the registry revision the snapshot corresponds to;
/// `applied_session` is the highest committed append-session id whose rows
/// the snapshot already contains — replay skips sessions at or below it.
/// `replay` is the dataset's slice of the idempotency-key cache (bounded),
/// so a keyed mutation retried across a crash replays its original
/// response instead of re-applying.
pub fn snapshot_data(
    ds: &Dataset,
    revision: u64,
    applied_session: u64,
    replay: &[(String, ReplayOutcome)],
) -> Json {
    let mut doc = Json::object();
    doc.set("name", Json::from(ds.name()));
    doc.set("revision", Json::from(revision as i64));
    doc.set("applied_session", Json::from(applied_session as i64));
    if !replay.is_empty() {
        doc.set(
            "idempotency",
            Json::Array(
                replay
                    .iter()
                    .filter_map(|(key, outcome)| replay_entry_json(key, outcome))
                    .collect(),
            ),
        );
    }
    let mut grid = Json::object();
    grid.set("start", Json::from(ds.grid().start().epoch_seconds()));
    grid.set("interval", Json::from(ds.grid().interval().as_secs()));
    grid.set("len", Json::from(ds.grid().len()));
    doc.set("grid", grid);
    doc.set(
        "attributes",
        Json::Array(ds.attributes().names().map(Json::from).collect()),
    );
    let retention = ds.retention();
    let mut ret = Json::object();
    ret.set(
        "max_timestamps",
        retention
            .max_timestamps
            .map(Json::from)
            .unwrap_or(Json::Null),
    );
    ret.set(
        "max_age",
        retention
            .max_age
            .map(|d| Json::from(d.as_secs()))
            .unwrap_or(Json::Null),
    );
    doc.set("retention", ret);
    let mut sensors = Vec::with_capacity(ds.sensor_count());
    for ss in ds.iter() {
        let mut entry = Json::object();
        entry.set("id", Json::from(ss.sensor.id.as_str()));
        entry.set(
            "attribute",
            Json::from(ds.attributes().name_of(ss.sensor.attribute)),
        );
        entry.set("lat", Json::from(ss.sensor.location.lat));
        entry.set("lon", Json::from(ss.sensor.location.lon));
        entry.set(
            "values",
            Json::Array(
                ss.series
                    .iter()
                    .map(|v| v.map(Json::from).unwrap_or(Json::Null))
                    .collect(),
            ),
        );
        sensors.push(entry);
    }
    doc.set("sensors", Json::Array(sensors));
    doc
}

/// A dataset decoded from a snapshot payload.
#[derive(Debug)]
pub struct RestoredDataset {
    /// The rebuilt dataset (identical series content, attribute ids and
    /// sensor indices as the snapshotted original).
    pub dataset: Dataset,
    /// Registry revision the snapshot corresponds to.
    pub revision: u64,
    /// Highest committed append-session id already contained in the
    /// snapshot; WAL replay must skip sessions at or below this.
    pub applied_session: u64,
    /// The idempotency-key entries persisted with the snapshot, oldest
    /// first, to be reinstalled into the service's replayed-response cache.
    pub replay: Vec<(String, ReplayOutcome)>,
}

/// Decodes a snapshot payload written by [`snapshot_data`].
pub fn restore_dataset(data: &Json) -> Result<RestoredDataset, ApiError> {
    let name = data
        .get("name")
        .and_then(|n| n.as_str())
        .ok_or_else(|| corrupt("missing name"))?;
    let revision = data
        .get("revision")
        .and_then(|r| r.as_i64())
        .ok_or_else(|| corrupt("missing revision"))? as u64;
    let applied_session = data
        .get("applied_session")
        .and_then(|s| s.as_i64())
        .ok_or_else(|| corrupt("missing applied_session"))? as u64;
    let grid = data.get("grid").ok_or_else(|| corrupt("missing grid"))?;
    let start = grid
        .get("start")
        .and_then(|s| s.as_i64())
        .ok_or_else(|| corrupt("missing grid.start"))?;
    let interval = grid
        .get("interval")
        .and_then(|i| i.as_i64())
        .ok_or_else(|| corrupt("missing grid.interval"))?;
    let len = grid
        .get("len")
        .and_then(|l| l.as_i64())
        .ok_or_else(|| corrupt("missing grid.len"))? as usize;

    let mut builder = DatasetBuilder::new(name);
    builder.set_grid(
        TimeGrid::new(
            Timestamp::from_epoch_seconds(start),
            Duration::seconds(interval),
            len,
        )
        .map_err(|e| corrupt(&format!("grid: {e}")))?,
    );
    // Register attributes first, in snapshot order, so attribute ids match
    // the original dataset exactly (sensors only reference a subset when
    // some attribute lost its last sensor).
    if let Some(attrs) = data.get("attributes").and_then(|a| a.as_array()) {
        for attr in attrs {
            let name = attr
                .as_str()
                .ok_or_else(|| corrupt("non-string attribute"))?;
            builder.add_attribute(name);
        }
    }
    let sensors = data
        .get("sensors")
        .and_then(|s| s.as_array())
        .ok_or_else(|| corrupt("missing sensors"))?;
    for entry in sensors {
        let id = entry
            .get("id")
            .and_then(|i| i.as_str())
            .ok_or_else(|| corrupt("sensor missing id"))?;
        let attribute = entry
            .get("attribute")
            .and_then(|a| a.as_str())
            .ok_or_else(|| corrupt("sensor missing attribute"))?;
        let lat = entry
            .get("lat")
            .and_then(|l| l.as_f64())
            .ok_or_else(|| corrupt("sensor missing lat"))?;
        let lon = entry
            .get("lon")
            .and_then(|l| l.as_f64())
            .ok_or_else(|| corrupt("sensor missing lon"))?;
        // Checked before `add_sensor`, which allocates a series of the
        // grid's length: a corrupt `grid.len` must be an error, not an
        // allocation of that size.
        let values = entry
            .get("values")
            .and_then(|v| v.as_array())
            .ok_or_else(|| corrupt("sensor missing values"))?;
        if values.len() != len {
            return Err(corrupt(&format!(
                "sensor {id:?} has {} values for a {len}-point grid",
                values.len()
            )));
        }
        let idx = builder
            .add_sensor(id, attribute, GeoPoint::new_unchecked(lat, lon))
            .map_err(|e| corrupt(&format!("sensor {id:?}: {e}")))?;
        let options: Vec<Option<f64>> = values.iter().map(|v| v.as_f64()).collect();
        builder
            .set_series(idx, TimeSeries::from_options(&options))
            .map_err(|e| corrupt(&format!("sensor {id:?} series: {e}")))?;
    }
    if let Some(ret) = data.get("retention") {
        builder.set_retention(RetentionPolicy {
            max_timestamps: ret
                .get("max_timestamps")
                .and_then(|m| m.as_i64())
                .map(|m| m as usize),
            max_age: ret
                .get("max_age")
                .and_then(|m| m.as_i64())
                .map(Duration::seconds),
        });
    }
    let dataset = builder
        .build()
        .map_err(|e| corrupt(&format!("rebuild: {e}")))?;
    let mut replay = Vec::new();
    if let Some(entries) = data.get("idempotency").and_then(|e| e.as_array()) {
        for entry in entries {
            replay.push(parse_replay_entry(entry)?);
        }
    }
    Ok(RestoredDataset {
        dataset,
        revision,
        applied_session,
        replay,
    })
}

/// One decoded WAL record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// An append session was begun.
    Begin {
        /// Per-dataset session id (monotone).
        session: u64,
        /// The caller-supplied idempotency key, when the begin carried one:
        /// recovery reinstalls `key → Begin{session}` into the replayed-
        /// response cache so a retried begin replays the same session id.
        key: Option<String>,
    },
    /// A `data.csv` chunk was accepted (and acknowledged) for a session.
    Chunk {
        /// Session the chunk belongs to.
        session: u64,
        /// The chunk's per-session sequence number (for an unsequenced
        /// chunk, its position in the session).
        seq: u64,
        /// Whether the client sent the chunk with a sequence number. Only
        /// sequenced chunks advance the acked-sequence watermark, so
        /// recovery rebuilds it from these alone. Records written before
        /// the field existed read as sequenced, which is how such logs
        /// always recovered.
        sequenced: bool,
        /// The raw chunk, exactly as the client sent it.
        chunk: Chunk,
    },
    /// A session's rows were applied to the dataset.
    Commit {
        /// Session that committed.
        session: u64,
        /// The caller-supplied idempotency key, when the finish carried
        /// one.
        key: Option<String>,
        /// The acknowledged summary, carried so a finish retried across a
        /// crash replays the *original* response instead of re-committing.
        summary: Option<AppendSummary>,
        /// Wall-clock nanoseconds of the original append session, for the
        /// replayed response body.
        elapsed_ns: u64,
    },
}

/// Builds the WAL record for `begin_append`.
pub fn begin_record(session: u64, key: Option<&str>) -> Json {
    let mut doc = Json::from_pairs([
        ("op", Json::from("begin")),
        ("session", Json::from(session as i64)),
    ]);
    if let Some(key) = key {
        doc.set("key", Json::from(key));
    }
    doc
}

/// Builds the WAL record for one acknowledged `append_chunk`; `sequenced`
/// says whether the client sent it with a sequence number.
pub fn chunk_record(session: u64, seq: u64, sequenced: bool, chunk: &Chunk) -> Json {
    Json::from_pairs([
        ("op", Json::from("chunk")),
        ("session", Json::from(session as i64)),
        ("seq", Json::from(seq as i64)),
        ("sequenced", Json::from(sequenced)),
        ("index", Json::from(chunk.index)),
        ("total", Json::from(chunk.total)),
        ("content", Json::from(chunk.content.as_str())),
    ])
}

/// Builds the WAL record for a committed `finish_append`. The record
/// carries the acknowledged summary (and the idempotency key, when the
/// finish had one) so recovery can reinstall the replayed-response entry:
/// a finish retried after a crash replays this exact outcome.
pub fn commit_record(
    session: u64,
    key: Option<&str>,
    summary: &AppendSummary,
    elapsed_ns: u64,
) -> Json {
    let mut doc = Json::from_pairs([
        ("op", Json::from("commit")),
        ("session", Json::from(session as i64)),
        ("elapsed_ns", Json::from(elapsed_ns as i64)),
        ("new_timestamps", Json::from(summary.new_timestamps)),
        ("measurements", Json::from(summary.measurements)),
        ("trimmed_timestamps", Json::from(summary.trimmed_timestamps)),
        ("timestamps", Json::from(summary.timestamps)),
        ("revision", Json::from(summary.revision as i64)),
    ]);
    if let Some(key) = key {
        doc.set("key", Json::from(key));
    }
    doc
}

/// Decodes one WAL record for replay.
pub fn parse_op(record: &Json) -> Result<WalOp, ApiError> {
    let bad = |what: &str| ApiError::Internal(format!("durability WAL record is corrupt: {what}"));
    let op = record
        .get("op")
        .and_then(|o| o.as_str())
        .ok_or_else(|| bad("missing op"))?;
    let session = record
        .get("session")
        .and_then(|s| s.as_i64())
        .ok_or_else(|| bad("missing session"))? as u64;
    let key = record
        .get("key")
        .and_then(|k| k.as_str())
        .map(|k| k.to_string());
    match op {
        "begin" => Ok(WalOp::Begin { session, key }),
        "commit" => {
            // Records written before commits carried summaries decode with
            // `summary: None`; recovery then simply has no response to
            // replay for that session's key.
            let summary = record.get("revision").and_then(|r| r.as_i64()).map(|rev| {
                let field = |name: &str| {
                    record
                        .get(name)
                        .and_then(|v| v.as_i64())
                        .unwrap_or(0)
                        .max(0) as usize
                };
                AppendSummary {
                    name: String::new(),
                    new_timestamps: field("new_timestamps"),
                    measurements: field("measurements"),
                    trimmed_timestamps: field("trimmed_timestamps"),
                    timestamps: field("timestamps"),
                    revision: rev.max(0) as u64,
                }
            });
            let elapsed_ns = record
                .get("elapsed_ns")
                .and_then(|e| e.as_i64())
                .unwrap_or(0)
                .max(0) as u64;
            Ok(WalOp::Commit {
                session,
                key,
                summary,
                elapsed_ns,
            })
        }
        "chunk" => {
            // Never negative in a record this process wrote; rejecting
            // one also keeps `index + 1` below from overflowing.
            let count = |name: &str| {
                record
                    .get(name)
                    .and_then(|v| v.as_i64())
                    .and_then(|v| usize::try_from(v).ok())
                    .ok_or_else(|| bad(&format!("chunk {name} missing or negative")))
            };
            let index = count("index")?;
            let total = count("total")?;
            let content = record
                .get("content")
                .and_then(|c| c.as_str())
                .ok_or_else(|| bad("chunk missing content"))?
                .to_string();
            // Chunk records written before sequence numbers existed carry
            // no `seq`; they were only ever written in client order, so the
            // chunk's 1-based position (its index + 1) is the right
            // watermark.
            let seq = record
                .get("seq")
                .and_then(|s| s.as_i64())
                .map(|s| s.max(0) as u64)
                .unwrap_or(index as u64 + 1);
            let sequenced = record
                .get("sequenced")
                .and_then(|s| s.as_bool())
                .unwrap_or(true);
            Ok(WalOp::Chunk {
                session,
                seq,
                sequenced,
                chunk: Chunk {
                    index,
                    total,
                    content,
                },
            })
        }
        other => Err(bad(&format!("unknown op {other:?}"))),
    }
}

/// Serializes one idempotency-key cache entry for a snapshot.
///
/// Returns `None` for outcomes that are deliberately **not** persisted:
/// [`ReplayOutcome::Sweep`] bodies can be large and are pure derived data,
/// so a retried sweep after a restart re-mines instead of replaying (safe —
/// sweeps mutate nothing).
pub fn replay_entry_json(key: &str, outcome: &ReplayOutcome) -> Option<Json> {
    let mut doc = Json::object();
    doc.set("key", Json::from(key));
    match outcome {
        ReplayOutcome::UploadBegin => {
            doc.set("kind", Json::from("upload_begin"));
        }
        ReplayOutcome::Begin { session } => {
            doc.set("kind", Json::from("begin"));
            doc.set("session", Json::from(*session as i64));
        }
        ReplayOutcome::Finish {
            summary,
            elapsed_ns,
        } => {
            doc.set("kind", Json::from("finish"));
            doc.set("name", Json::from(summary.name.as_str()));
            doc.set("new_timestamps", Json::from(summary.new_timestamps));
            doc.set("measurements", Json::from(summary.measurements));
            doc.set("trimmed_timestamps", Json::from(summary.trimmed_timestamps));
            doc.set("timestamps", Json::from(summary.timestamps));
            doc.set("revision", Json::from(summary.revision as i64));
            doc.set("elapsed_ns", Json::from(*elapsed_ns as i64));
        }
        ReplayOutcome::Retention { summary } => {
            doc.set("kind", Json::from("retention"));
            doc.set("name", Json::from(summary.name.as_str()));
            doc.set("trimmed_timestamps", Json::from(summary.trimmed_timestamps));
            doc.set("trimmed_total", Json::from(summary.trimmed_total));
            doc.set("timestamps", Json::from(summary.timestamps));
            doc.set("revision", Json::from(summary.revision as i64));
        }
        ReplayOutcome::Register {
            summary,
            elapsed_ns,
        } => {
            doc.set("kind", Json::from("register"));
            doc.set("name", Json::from(summary.name.as_str()));
            doc.set("sensors", Json::from(summary.sensors));
            doc.set("records", Json::from(summary.records));
            doc.set(
                "attributes",
                Json::Array(
                    summary
                        .attributes
                        .iter()
                        .map(|a| Json::from(a.as_str()))
                        .collect(),
                ),
            );
            doc.set("elapsed_ns", Json::from(*elapsed_ns as i64));
        }
        ReplayOutcome::Delete => {
            doc.set("kind", Json::from("delete"));
        }
        ReplayOutcome::Sweep { .. } => return None,
    }
    Some(doc)
}

/// Decodes one idempotency-key cache entry from a snapshot.
pub fn parse_replay_entry(entry: &Json) -> Result<(String, ReplayOutcome), ApiError> {
    let bad = |what: &str| corrupt(&format!("idempotency entry: {what}"));
    let key = entry
        .get("key")
        .and_then(|k| k.as_str())
        .ok_or_else(|| bad("missing key"))?
        .to_string();
    let kind = entry
        .get("kind")
        .and_then(|k| k.as_str())
        .ok_or_else(|| bad("missing kind"))?;
    let field = |name: &str| entry.get(name).and_then(|v| v.as_i64()).unwrap_or(0).max(0) as usize;
    let name = || {
        entry
            .get("name")
            .and_then(|n| n.as_str())
            .unwrap_or_default()
            .to_string()
    };
    let outcome = match kind {
        "upload_begin" => ReplayOutcome::UploadBegin,
        "begin" => ReplayOutcome::Begin {
            session: field("session") as u64,
        },
        "finish" => ReplayOutcome::Finish {
            summary: AppendSummary {
                name: name(),
                new_timestamps: field("new_timestamps"),
                measurements: field("measurements"),
                trimmed_timestamps: field("trimmed_timestamps"),
                timestamps: field("timestamps"),
                revision: field("revision") as u64,
            },
            elapsed_ns: field("elapsed_ns") as u64,
        },
        "retention" => ReplayOutcome::Retention {
            summary: RetentionSummary {
                name: name(),
                trimmed_timestamps: field("trimmed_timestamps"),
                trimmed_total: field("trimmed_total"),
                timestamps: field("timestamps"),
                revision: field("revision") as u64,
            },
        },
        "register" => ReplayOutcome::Register {
            summary: DatasetSummary {
                name: name(),
                sensors: field("sensors"),
                records: field("records"),
                attributes: entry
                    .get("attributes")
                    .and_then(|a| a.as_array())
                    .map(|a| {
                        a.iter()
                            .filter_map(|v| v.as_str().map(|s| s.to_string()))
                            .collect()
                    })
                    .unwrap_or_default(),
            },
            elapsed_ns: field("elapsed_ns") as u64,
        },
        "delete" => ReplayOutcome::Delete,
        other => return Err(bad(&format!("unknown kind {other:?}"))),
    };
    Ok((key, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use miscela_model::{Duration, SensorId};

    fn awkward_dataset() -> Dataset {
        // Values chosen to break any lossy float formatting: snapshots must
        // round-trip them bit-exactly.
        let mut b = DatasetBuilder::new("awkward");
        let start = Timestamp::from_epoch_seconds(1_456_790_400);
        b.set_grid(TimeGrid::new(start, Duration::minutes(20), 5).unwrap());
        b.add_attribute("temperature");
        b.add_attribute("orphaned attribute");
        b.add_attribute("traffic");
        b.add_sensor(
            "s1",
            "temperature",
            GeoPoint::new_unchecked(43.4623, -3.80998),
        )
        .unwrap();
        let idx = b
            .add_sensor("s2", "traffic", GeoPoint::new_unchecked(43.0, -3.0))
            .unwrap();
        b.set_series(
            idx,
            TimeSeries::from_options(&[
                Some(0.1 + 0.2),
                None,
                Some(1.0 / 3.0),
                Some(-1.5e-300),
                Some(12345678.901234567),
            ]),
        )
        .unwrap();
        b.set_retention(RetentionPolicy {
            max_timestamps: Some(1024),
            max_age: Some(Duration::days(7)),
        });
        b.build().unwrap()
    }

    #[test]
    fn snapshot_round_trips_exactly() {
        let original = awkward_dataset();
        let replay = vec![
            ("c1-upload".to_string(), ReplayOutcome::UploadBegin),
            (
                "c1-begin-0".to_string(),
                ReplayOutcome::Begin { session: 3 },
            ),
            (
                "c1-finish-0".to_string(),
                ReplayOutcome::Finish {
                    summary: AppendSummary {
                        name: "awkward".to_string(),
                        new_timestamps: 4,
                        measurements: 9,
                        trimmed_timestamps: 1,
                        timestamps: 5,
                        revision: 7,
                    },
                    elapsed_ns: 1234,
                },
            ),
            (
                "c1-retention-0".to_string(),
                ReplayOutcome::Retention {
                    summary: RetentionSummary {
                        name: "awkward".to_string(),
                        trimmed_timestamps: 2,
                        trimmed_total: 6,
                        timestamps: 3,
                        revision: 8,
                    },
                },
            ),
            (
                "c1-register-0".to_string(),
                ReplayOutcome::Register {
                    summary: DatasetSummary {
                        name: "awkward".to_string(),
                        sensors: 2,
                        records: 10,
                        attributes: vec!["temperature".to_string(), "traffic".to_string()],
                    },
                    elapsed_ns: 77,
                },
            ),
            ("c1-delete-0".to_string(), ReplayOutcome::Delete),
        ];
        let data = snapshot_data(&original, 7, 3, &replay);
        // Through a serialize/parse cycle, as recovery reads it from disk.
        let data = Json::parse(&data.to_string_compact()).unwrap();
        let restored = restore_dataset(&data).unwrap();
        assert_eq!(restored.revision, 7);
        assert_eq!(restored.applied_session, 3);
        // The idempotency-key cache slice round-trips exactly, in order.
        assert_eq!(restored.replay, replay);
        let ds = restored.dataset;
        assert_eq!(ds.name(), original.name());
        assert_eq!(ds.grid(), original.grid());
        assert_eq!(ds.retention(), original.retention());
        // Attribute ids survive, including the attribute with no sensors.
        assert_eq!(
            ds.attributes().names().collect::<Vec<_>>(),
            original.attributes().names().collect::<Vec<_>>()
        );
        assert_eq!(
            ds.attributes().id_of("traffic"),
            original.attributes().id_of("traffic")
        );
        assert_eq!(ds.sensor_count(), original.sensor_count());
        for (a, b) in ds.iter().zip(original.iter()) {
            assert_eq!(a.sensor.id, b.sensor.id);
            assert_eq!(a.sensor.attribute, b.sensor.attribute);
            assert_eq!(a.sensor.location.lat, b.sensor.location.lat);
            assert_eq!(a.sensor.location.lon, b.sensor.location.lon);
            let av: Vec<Option<f64>> = a.series.iter().collect();
            let bv: Vec<Option<f64>> = b.series.iter().collect();
            assert_eq!(av, bv, "series for {:?} must be bit-exact", a.sensor.id);
        }
        let s2 = ds.index_of_id(&SensorId::new("s2")).unwrap();
        assert_eq!(ds.series(s2).get(0), Some(0.1 + 0.2));
        assert_eq!(ds.series(s2).get(3), Some(-1.5e-300));
    }

    #[test]
    fn sweep_replay_entries_are_not_persisted() {
        // Sweep replay bodies are deliberately memory-only: the snapshot
        // codec drops them, so a restart re-mines instead of replaying.
        assert_eq!(
            replay_entry_json(
                "c1-sweep-0",
                &ReplayOutcome::Sweep {
                    body: "{\"results\":[]}".to_string(),
                },
            ),
            None
        );
        let replay = vec![
            ("c1-upload".to_string(), ReplayOutcome::UploadBegin),
            (
                "c1-sweep-0".to_string(),
                ReplayOutcome::Sweep {
                    body: "{\"results\":[]}".to_string(),
                },
            ),
            ("c1-delete-0".to_string(), ReplayOutcome::Delete),
        ];
        let data = snapshot_data(&awkward_dataset(), 1, 0, &replay);
        let data = Json::parse(&data.to_string_compact()).unwrap();
        let restored = restore_dataset(&data).unwrap();
        // Only the durable entries survive, in order.
        assert_eq!(
            restored
                .replay
                .iter()
                .map(|(k, _)| k.as_str())
                .collect::<Vec<_>>(),
            vec!["c1-upload", "c1-delete-0"]
        );
    }

    #[test]
    fn wal_ops_round_trip() {
        assert_eq!(
            parse_op(&begin_record(4, None)).unwrap(),
            WalOp::Begin {
                session: 4,
                key: None
            }
        );
        assert_eq!(
            parse_op(&begin_record(4, Some("c7-begin-2"))).unwrap(),
            WalOp::Begin {
                session: 4,
                key: Some("c7-begin-2".to_string())
            }
        );
        let summary = AppendSummary {
            // The commit record intentionally does not persist the dataset
            // name — the WAL is per-dataset — so it decodes empty.
            name: String::new(),
            new_timestamps: 3,
            measurements: 6,
            trimmed_timestamps: 0,
            timestamps: 8,
            revision: 2,
        };
        assert_eq!(
            parse_op(&commit_record(9, Some("c7-finish-2"), &summary, 555)).unwrap(),
            WalOp::Commit {
                session: 9,
                key: Some("c7-finish-2".to_string()),
                summary: Some(summary.clone()),
                elapsed_ns: 555,
            }
        );
        let chunk = Chunk {
            index: 2,
            total: 5,
            content: "id,attribute,time,value\ns1,temperature,2016-03-01 00:00:00,9.5\n"
                .to_string(),
        };
        let parsed = parse_op(&chunk_record(4, 3, true, &chunk)).unwrap();
        assert_eq!(
            parsed,
            WalOp::Chunk {
                session: 4,
                seq: 3,
                sequenced: true,
                chunk: chunk.clone()
            }
        );
        // And through the on-disk serialization.
        let reparsed = Json::parse(&chunk_record(4, 3, false, &chunk).to_string_compact()).unwrap();
        assert_eq!(
            parse_op(&reparsed).unwrap(),
            WalOp::Chunk {
                session: 4,
                seq: 3,
                sequenced: false,
                chunk: chunk.clone()
            }
        );
        // Pre-sequence-number chunk records fall back to index + 1, and
        // records without the `sequenced` field read as sequenced.
        let mut legacy = chunk_record(4, 3, false, &chunk);
        legacy.set("seq", Json::Null);
        legacy.set("sequenced", Json::Null);
        assert_eq!(
            parse_op(&legacy).unwrap(),
            WalOp::Chunk {
                session: 4,
                seq: 3,
                sequenced: true,
                chunk
            }
        );
    }

    #[test]
    fn corrupt_snapshots_and_records_are_typed_errors() {
        assert!(matches!(
            restore_dataset(&Json::object()),
            Err(ApiError::Internal(_))
        ));
        assert!(matches!(
            parse_op(&Json::from_pairs([("op", Json::from("nope"))])),
            Err(ApiError::Internal(_))
        ));
        let mut missing_values = snapshot_data(&awkward_dataset(), 1, 0, &[]);
        missing_values.set("sensors", Json::Array(vec![Json::object()]));
        assert!(matches!(
            restore_dataset(&missing_values),
            Err(ApiError::Internal(_))
        ));
        assert!(matches!(
            parse_replay_entry(&Json::from_pairs([
                ("key", Json::from("k")),
                ("kind", Json::from("nope"))
            ])),
            Err(ApiError::Internal(_))
        ));
        // A grid length no sensor's values match is an error before any
        // series of that length is allocated.
        let mut huge_grid = snapshot_data(&awkward_dataset(), 1, 0, &[]);
        huge_grid.set(
            "grid",
            Json::from_pairs([
                ("start", Json::from(0i64)),
                ("interval", Json::from(60i64)),
                ("len", Json::Number(1e300)),
            ]),
        );
        assert!(matches!(
            restore_dataset(&huge_grid),
            Err(ApiError::Internal(_))
        ));
        // A negative chunk index or total is corrupt, not a huge count (an
        // index of -1 would overflow the `index + 1` sequence fallback).
        for field in ["index", "total"] {
            let empty = Chunk {
                index: 0,
                total: 1,
                content: String::new(),
            };
            let mut chunk = chunk_record(1, 1, true, &empty);
            chunk.set(field, Json::from(-1i64));
            assert!(matches!(parse_op(&chunk), Err(ApiError::Internal(_))));
        }
    }
}
