//! # miscela-model
//!
//! Core data model for Miscela-RS, the Rust reproduction of the Miscela-V
//! smart-city analysis system (EDBT 2021).
//!
//! Smart-city data, as described in the paper, is produced by a set of
//! *sensors*. Each sensor:
//!
//! * measures exactly one *attribute* (temperature, traffic volume, PM2.5, ...),
//! * is located at a fixed geographic position (latitude / longitude),
//! * is synchronized with every other sensor: all sensors report at the same
//!   regular interval, and a sensor's value at a timestamp may be missing
//!   (`null` in the paper's `data.csv` format).
//!
//! This crate provides the vocabulary types shared by every other crate in
//! the workspace:
//!
//! * [`attribute`] — interned attribute names ([`Attribute`], [`AttributeId`],
//!   [`AttributeRegistry`]).
//! * [`sensor`] — sensor identity and metadata ([`SensorId`], [`Sensor`]).
//! * [`geo`] — geographic points, haversine distances, bounding boxes.
//! * [`time`] — timestamps, durations, and the regular [`time::TimeGrid`] that
//!   every series in a dataset shares.
//! * [`series`] — regular-interval time series with missing values, stored
//!   as structurally shared blocks (`Arc`'d immutable prefix blocks plus a
//!   mutable tail) so cloning and appending cost O(tail).
//! * [`retention`] — sliding-window [`RetentionPolicy`] bounding streaming
//!   datasets to a trailing window.
//! * [`dataset`] — a named collection of sensors and their series, mirroring
//!   the paper's uploaded dataset (`data.csv` + `location.csv` +
//!   `attribute.csv`).
//! * [`stats`] — summary statistics used by the Section-4 dataset table and
//!   the visualization layer.
//!
//! The crate is dependency-free so that every substrate (store, server,
//! mining engine, visualization) can share it cheaply.
//!
//! # Example
//!
//! ```
//! use miscela_model::{DatasetBuilder, Duration, GeoPoint, TimeGrid, TimeSeries, Timestamp};
//!
//! let mut builder = DatasetBuilder::new("demo");
//! let start = Timestamp::parse("2016-03-01 00:00:00").unwrap();
//! builder.set_grid(TimeGrid::new(start, Duration::hours(1), 4).unwrap());
//! let temp = builder
//!     .add_sensor("s0", "temperature", GeoPoint::new(43.46, -3.80).unwrap())
//!     .unwrap();
//! builder
//!     .set_series(temp, TimeSeries::from_values(vec![9.5, 10.1, 11.0, 11.6]))
//!     .unwrap();
//! let dataset = builder.build().unwrap();
//!
//! assert_eq!((dataset.sensor_count(), dataset.timestamp_count()), (1, 4));
//! assert_eq!(dataset.series(temp).get(2), Some(11.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Nothing a dataset holds may panic the process: a failure is a typed
// `ModelError`.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod attribute;
pub mod dataset;
pub mod error;
pub mod fingerprint;
pub mod geo;
pub mod retention;
pub mod sensor;
pub mod series;
pub mod stats;
pub mod time;

pub use attribute::{Attribute, AttributeId, AttributeRegistry};
pub use dataset::{
    AppendRow, AppendRowRef, AppendStats, Dataset, DatasetBuilder, SensorSeries, MAX_APPEND_BASES,
    MAX_APPEND_TIMESTAMPS,
};
pub use error::ModelError;
pub use fingerprint::{PrefixFingerprint, SeriesFingerprinter};
pub use geo::{BoundingBox, GeoPoint};
pub use retention::RetentionPolicy;
pub use sensor::{Sensor, SensorId, SensorIndex};
pub use series::{interpolate_in_place, TimeSeries, SERIES_BLOCK_LEN};
pub use stats::{DatasetStats, SeriesSummary};
pub use time::{Duration, TimeGrid, TimeRange, Timestamp};
