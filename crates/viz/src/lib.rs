//! # miscela-viz
//!
//! The visualization layer of Miscela-V, reproduced as a *headless*
//! rendering engine. The original front end is JavaScript + Google Maps in a
//! browser; the Rust interactive-web ecosystem cannot reproduce that
//! directly, so this crate reproduces its *semantics* as inspectable
//! artifacts:
//!
//! * [`map`] — sensor locations on a map (Figure 3 (A)/(B)): a Web-Mercator
//!   projection of the dataset's bounding box, one marker per sensor
//!   coloured by attribute, with the sensors correlated to a clicked sensor
//!   highlighted exactly as the paper describes ("When we click a sensor in
//!   the map, sensors are highlighted if their measurements are correlated
//!   to measurements of the clicked sensor");
//! * [`chart`] — temporal behaviour of measurements (Figure 3 (C)/(D)):
//!   multi-series line charts over a zoomable time window, with the CAP's
//!   co-evolving timestamps marked;
//! * [`interaction`] — the click-to-highlight / zoom state machine driving
//!   the two views;
//! * [`dashboard`] — the Figure-3 layout combining map and charts into a
//!   single SVG document;
//! * [`svg`], [`color`], [`projection`] — the drawing substrate (an SVG
//!   document builder, attribute colour palette, Mercator projection);
//! * [`ascii`] — terminal sparklines used by the runnable examples.
//!
//! # Example
//!
//! ```
//! use miscela_core::CapSet;
//! use miscela_model::{DatasetBuilder, Duration, GeoPoint, TimeGrid, TimeSeries, Timestamp};
//! use miscela_viz::{MapConfig, MapView};
//!
//! let mut builder = DatasetBuilder::new("mini");
//! let start = Timestamp::parse("2016-03-01 00:00:00").unwrap();
//! builder.set_grid(TimeGrid::new(start, Duration::hours(1), 2).unwrap());
//! let s = builder
//!     .add_sensor("s0", "temperature", GeoPoint::new(43.46, -3.80).unwrap())
//!     .unwrap();
//! builder.set_series(s, TimeSeries::from_values(vec![9.5, 10.1])).unwrap();
//! let dataset = builder.build().unwrap();
//!
//! let caps = CapSet::new();
//! let map = MapView::new(&dataset, &caps, MapConfig::default());
//! let svg = map.render(None).render();
//! assert!(svg.contains("<svg"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Rendering any dataset and CapSet ends in a document, never a panic.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod ascii;
pub mod chart;
pub mod color;
pub mod dashboard;
pub mod interaction;
pub mod map;
pub mod projection;
pub mod svg;

pub use chart::{ChartConfig, TimeSeriesChart};
pub use dashboard::Dashboard;
pub use interaction::{InteractionState, ZoomLevel};
pub use map::{MapConfig, MapView};
pub use svg::SvgDocument;
