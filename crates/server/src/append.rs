//! One append session and its rules.
//!
//! [`AppendSession`] owns the rules of a chunked append (the 10,000-line
//! `data.csv` protocol of Section 3.2, aimed at an existing dataset) as four
//! steps: **screen** a sequenced delivery (refuse a stale session or a gap,
//! replay a duplicate's ack), **accept** a chunk, **ack** a sequenced
//! delivery once its WAL record is fsynced, and **apply** the finished
//! session to a dataset. The live chunk and finish paths call these steps;
//! so does recovery, which feeds every logged chunk record through accept
//! (and ack, when sequenced) and every commit through apply. The re-log
//! after a snapshot writes the accepted deliveries back in order, sequenced
//! only if acked, so a restarted session answers every later delivery as
//! the live one would.

use miscela_csv::chunk::{Chunk, ChunkedUploader};
use miscela_csv::{CsvError, DatasetLoader};
use miscela_model::{AppendStats, Dataset};
use miscela_store::Json;
use std::cmp::Ordering;
use std::time::Instant;

use crate::durability;
use crate::message::ApiError;
use crate::service::{AppendStatus, ChunkAck};

/// One accepted delivery, kept so a WAL reset can re-log it.
#[derive(Debug)]
struct Delivery {
    chunk: Chunk,
    /// The sequence number it was acknowledged under; `None` when it was
    /// unsequenced, or sequenced but its WAL record never settled.
    acked: Option<u64>,
}

/// The screen's answer to a sequenced delivery it does not take.
#[derive(Debug)]
pub(crate) enum Screened {
    /// At or below the watermark: the original ack, replayed.
    Duplicate(ChunkAck),
    /// For a session other than the open one (typed 412).
    Stale(ApiError),
    /// Past the next sequence number (typed 412).
    Gap(ApiError),
}

/// An in-progress chunked append, held under the dataset's scoped key. No
/// `location.csv`/`attribute.csv` accompany an append — the sensors must
/// already exist; only new `data.csv` rows stream in.
#[derive(Debug)]
pub(crate) struct AppendSession {
    /// The tenant-local dataset name, for the typed refusals.
    name: String,
    uploader: ChunkedUploader,
    pub(crate) started: Instant,
    /// Session id: per-dataset monotone on a durable service, from a
    /// service-wide counter otherwise.
    pub(crate) session: u64,
    /// The begin's idempotency key, re-logged with the begin record.
    key: Option<String>,
    /// Every accepted delivery in order; kept only on a durable service.
    deliveries: Option<Vec<Delivery>>,
    /// Highest sequence number acknowledged so far (0 = none).
    acked_seq: u64,
    /// `acks[seq - 1]` is the `(chunk index, chunks still missing)` that
    /// sequence number was first acknowledged with.
    acks: Vec<(usize, usize)>,
}

impl AppendSession {
    /// An empty session for dataset `name`; `durable` keeps its deliveries
    /// for re-logging.
    pub(crate) fn new(name: &str, session: u64, key: Option<String>, durable: bool) -> Self {
        AppendSession {
            name: name.to_string(),
            uploader: ChunkedUploader::new(),
            started: Instant::now(),
            session,
            key,
            deliveries: durable.then(Vec::new),
            acked_seq: 0,
            acks: Vec::new(),
        }
    }

    /// Screens delivery `seq` of `session`: `Ok` for the open session's
    /// next sequence number, the answer to give otherwise.
    pub(crate) fn screen(&self, session: u64, seq: u64) -> Result<(), Screened> {
        let (expected_session, expected_seq) = (self.session, self.acked_seq + 1);
        let refusal = |message| ApiError::SequenceGap {
            message,
            expected_session,
            expected_seq,
        };
        if session != expected_session {
            return Err(Screened::Stale(refusal(format!(
                "append session {session} for {:?} is stale; the open session is \
                 {expected_session}",
                self.name
            ))));
        }
        let replay = seq.checked_sub(1).and_then(|i| self.acks.get(i as usize));
        match (seq.cmp(&expected_seq), replay) {
            (Ordering::Equal, _) => Ok(()),
            (Ordering::Less, Some(&(accepted, missing))) => Err(Screened::Duplicate(ChunkAck {
                accepted,
                missing,
                acked_seq: self.acked_seq,
                replayed: true,
            })),
            // Past the next number, or 0, which no ack carries.
            _ => Err(Screened::Gap(refusal(format!(
                "chunk sequence gap for {:?}: got {seq}, expected {expected_seq}",
                self.name
            )))),
        }
    }

    /// Accepts `chunk` (a re-sent index replaces its earlier copy) and keeps
    /// the delivery, unacknowledged. Returns its ack before any watermark
    /// moves.
    pub(crate) fn accept(&mut self, chunk: &Chunk) -> Result<ChunkAck, CsvError> {
        self.uploader.accept(chunk)?;
        if let Some(deliveries) = &mut self.deliveries {
            deliveries.push(Delivery {
                chunk: chunk.clone(),
                acked: None,
            });
        }
        Ok(ChunkAck {
            accepted: chunk.index,
            missing: self.uploader.missing().len(),
            acked_seq: self.acked_seq,
            replayed: false,
        })
    }

    /// Acknowledges the accepted delivery of chunk `index` as `seq` of
    /// `session`, once its WAL record is fsynced. The watermark advances and
    /// the delivery is marked acked only when the screen would take it in
    /// order: a concurrent duplicate acked first leaves both as they are.
    pub(crate) fn ack(&mut self, session: u64, seq: u64, index: usize) -> ChunkAck {
        let missing = self.uploader.missing().len();
        if self.screen(session, seq).is_ok() {
            self.acked_seq = seq;
            self.acks.push((index, missing));
            let kept = self.deliveries.iter_mut().flatten().rev();
            if let Some(d) = kept
                .filter(|d| d.acked.is_none())
                .find(|d| d.chunk.index == index)
            {
                d.acked = Some(seq);
            }
        }
        ChunkAck {
            accepted: index,
            missing,
            acked_seq: self.acked_seq,
            replayed: false,
        }
    }

    /// Applies the finished session's rows to `ds`; every chunk must have
    /// arrived.
    pub(crate) fn apply(self, ds: &mut Dataset) -> Result<AppendStats, CsvError> {
        DatasetLoader::append(ds, &self.uploader.finish()?)
    }

    /// The session's observable state.
    pub(crate) fn status(&self) -> AppendStatus {
        AppendStatus {
            session: self.session,
            acked_seq: self.acked_seq,
            received: self.uploader.chunks_received(),
            missing: self.uploader.missing().len(),
        }
    }

    /// The WAL record of the delivery [`AppendSession::accept`] just kept,
    /// sequenced as `seq` when there is one; `None` when nothing is kept.
    pub(crate) fn last_record(&self, seq: Option<u64>) -> Option<Json> {
        let deliveries = self.deliveries.as_ref()?;
        let last = deliveries.last()?;
        Some(self.record(deliveries.len() as u64, seq, &last.chunk))
    }

    /// The records that re-log this session into a reset WAL: its begin,
    /// then every kept delivery in order, sequenced only if acked.
    pub(crate) fn wal_records(&self) -> Vec<Json> {
        let begin = durability::begin_record(self.session, self.key.as_deref());
        let deliveries = self.deliveries.iter().flatten().zip(1..);
        let chunks = deliveries.map(|(d, position)| self.record(position, d.acked, &d.chunk));
        std::iter::once(begin).chain(chunks).collect()
    }

    /// A chunk record of this session, sequenced as `seq` when there is one
    /// and numbered by its 1-based `position` among the kept deliveries
    /// otherwise.
    fn record(&self, position: u64, seq: Option<u64>, chunk: &Chunk) -> Json {
        durability::chunk_record(self.session, seq.unwrap_or(position), seq.is_some(), chunk)
    }
}
