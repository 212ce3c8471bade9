//! # miscela-core
//!
//! The MISCELA correlated-attribute-pattern (CAP) mining engine: the primary
//! contribution reproduced by this workspace (Harada et al., MDM 2019, as
//! summarized in Section 2 of the EDBT 2021 Miscela-V paper).
//!
//! A **CAP** is a set of sensors such that
//!
//! 1. the sensors are *spatially connected*: every member is within the
//!    distance threshold η of another member (the induced subgraph of the
//!    η-proximity graph is connected),
//! 2. their measurements *co-evolve frequently*: there are at least ψ
//!    timestamps at which every member's measurement changes by at least the
//!    evolving rate ε (each member in its assigned direction),
//! 3. the member sensors measure at least two distinct attributes, and at
//!    most μ distinct attributes.
//!
//! The four pipeline steps of MISCELA (Section 2.2) map to modules:
//!
//! | Step | Module |
//! |------|--------|
//! | (1) linear segmentation | [`segmentation`] |
//! | (2) extracting evolving timestamps | [`evolving`] |
//! | (3) discovering spatially connected sensor sets | [`spatial`] |
//! | (4) CAP search over each connected set | [`search`] |
//!
//! [`miner::Miner`] runs the whole pipeline; [`baseline::NaiveMiner`] is the
//! unoptimized level-wise comparator used by the efficiency experiments;
//! [`delayed`] implements the time-delayed extension of the DPD 2020 paper.
//!
//! # Example
//!
//! Two spatially close sensors of different attributes whose series evolve
//! in lock-step form a CAP:
//!
//! ```
//! use miscela_core::{Miner, MiningParams};
//! use miscela_model::{DatasetBuilder, Duration, GeoPoint, TimeGrid, TimeSeries, Timestamp};
//!
//! let mut builder = DatasetBuilder::new("mini");
//! let start = Timestamp::parse("2016-03-01 00:00:00").unwrap();
//! let n = 48;
//! builder.set_grid(TimeGrid::new(start, Duration::hours(1), n).unwrap());
//! let wave: Vec<f64> = (0..n).map(|i| (i % 6) as f64).collect();
//! let temp = builder
//!     .add_sensor("a", "temperature", GeoPoint::new(43.0, -3.0).unwrap())
//!     .unwrap();
//! let light = builder
//!     .add_sensor("b", "light", GeoPoint::new(43.001, -3.0).unwrap())
//!     .unwrap();
//! builder.set_series(temp, TimeSeries::from_values(wave.clone())).unwrap();
//! builder.set_series(light, TimeSeries::from_values(wave)).unwrap();
//! let dataset = builder.build().unwrap();
//!
//! let params = MiningParams::new()
//!     .with_epsilon(0.5)
//!     .with_eta_km(1.0)
//!     .with_psi(10)
//!     .with_segmentation(false);
//! let result = Miner::new(params).unwrap().mine(&dataset).unwrap();
//! assert!(!result.caps.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// A mine over any dataset ends in a result or a typed `MiningError`; only
// a worker's own panic is propagated (`resume_unwind`).
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod baseline;
pub mod bitset;
pub mod cancel;
pub mod correlation;
pub mod delayed;
pub mod error;
pub mod evolving;
pub mod miner;
pub mod params;
pub mod pattern;
pub mod scheduler;
pub mod search;
pub mod segmentation;
pub mod spatial;

pub use bitset::{Bitset, BitsetRef};
pub use cancel::{CancelToken, CANCEL_CHECK_STRIDE};
pub use error::MiningError;
pub use evolving::{
    Direction, EvolvingCache, EvolvingSets, ExtractionKey, ExtractionState, SeriesFingerprinter,
};
pub use miner::{Miner, MiningReport, MiningResult, SweepOutput, SweepStats};
pub use params::{Extraction, MiningParams};
pub use pattern::{Cap, CapMember, CapSet};
pub use spatial::ProximityGraph;
