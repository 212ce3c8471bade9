//! # miscela-store
//!
//! An embedded JSON document store: the reproduction's substitute for the
//! MongoDB instance used by Miscela-V (Section 3.4 of the paper).
//!
//! The paper's rationale for choosing a document store is that MISCELA
//! "returns a set of sets of sensors as CAPs that might include many sensors
//! (or empty), and its format is JSON. Since RDBMS is not suitable for
//! Miscela outputs, we select MongoDB to store datasets and CAP results."
//! The same workload drives this crate's design:
//!
//! * named [`Collection`]s of schemaless JSON [`Document`]s,
//! * filter queries over (nested) document fields,
//! * optional secondary indexes for the fields the cache looks up
//!   (dataset name, parameter signature),
//! * durable persistence of a whole [`Database`] to a directory of
//!   JSON-lines files,
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
//! use miscela_store::{Database, Filter, Json};
//!
//! let db = Database::new();
//! db.create_collection("caps");
//! db.insert("caps", Json::parse(r#"{"dataset":"santander","cap_count":3}"#).unwrap());
//! db.insert("caps", Json::parse(r#"{"dataset":"china6","cap_count":9}"#).unwrap());
//!
//! let hits = db.find("caps", &Filter::eq("dataset", "santander"));
//! assert_eq!(hits.len(), 1);
//! assert_eq!(db.count("caps", &Filter::eq("cap_count", 9i64)), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Nothing the store reads (persisted files, WAL records, JSON) may panic
// the process: every failure is a typed error.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod collection;
pub mod database;
pub mod document;
pub mod error;
pub mod filter;
pub mod index;
pub mod json;
pub mod persist;
pub mod recovery;
pub mod wal;

pub use collection::Collection;
pub use database::Database;
pub use document::{Document, DocumentId};
pub use error::StoreError;
pub use filter::Filter;
pub use json::Json;
pub use persist::{load_with_report, LoadReport, SkippedRange};
pub use recovery::{DatasetLog, DurabilityStats, RecoveryStore};
pub use wal::{DiskOpener, FailPoint, FailingOpener, SinkOpener, Wal};
