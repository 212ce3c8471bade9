//! # miscela-store
//!
//! An embedded JSON document store: the reproduction's substitute for the
//! MongoDB instance used by Miscela-V (Section 3.4 of the paper).
//!
//! The paper's rationale for choosing a document store is that MISCELA
//! "returns a set of sets of sensors as CAPs that might include many sensors
//! (or empty), and its format is JSON. Since RDBMS is not suitable for
//! Miscela outputs, we select MongoDB to store datasets and CAP results."
//! The cache stores each result under the dataset name and parameters and
//! looks up that exact pair before mining (Section 3.3). This crate serves
//! that access pattern and no more:
//!
//! * a [`Database`] of named collections of JSON documents, each under a
//!   key the caller chooses: read by key, replaced by key, pruned by a
//!   predicate over the bodies;
//! * durable persistence of a whole [`Database`] to a directory of
//!   JSON-lines files ([`persist`]);
//! * a durability substrate for streaming appends: a checksummed
//!   write-ahead log ([`wal`]) plus snapshot/replay management
//!   ([`recovery`]) with a deterministic fault-injection hook
//!   ([`wal::FailPoint`]).
//!
//! JSON parsing/serialization is implemented in [`json`]; no external JSON
//! crate is used so the substrate stays self-contained.
//!
//! # Example
//!
//! ```
//! use miscela_store::{Database, Json};
//!
//! let db = Database::new();
//! db.put("caps", "santander", Json::parse(r#"{"cap_count":3}"#).unwrap());
//! db.put("caps", "china6", Json::parse(r#"{"cap_count":9}"#).unwrap());
//!
//! let doc = db.get("caps", "santander").unwrap();
//! assert_eq!(doc.get("cap_count").unwrap().as_i64(), Some(3));
//! // A put under a key replaces its document.
//! db.put("caps", "china6", Json::parse(r#"{"cap_count":0}"#).unwrap());
//! assert_eq!(db.len("caps"), 2);
//! // Retain prunes by body: drop the empty results.
//! let empty = Json::from(0i64);
//! assert_eq!(db.retain("caps", |doc| doc.get("cap_count") != Some(&empty)), 1);
//! assert_eq!(db.len("caps"), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Nothing the store reads (persisted files, WAL records, JSON) may panic
// the process: every failure is a typed error.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod database;
pub mod error;
pub mod json;
pub mod persist;
pub mod recovery;
pub mod wal;

pub use database::Database;
pub use error::StoreError;
pub use json::Json;
pub use recovery::{DatasetLog, DurabilityStats, RecoveryStore};
pub use wal::{DiskOpener, FailPoint, FailingOpener, SinkOpener, Wal};
