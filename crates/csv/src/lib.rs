//! # miscela-csv
//!
//! The upload format of Miscela-V (Section 3.2 of the paper): a dataset is
//! uploaded as three CSV files —
//!
//! * `data.csv` — `id,attribute,time,data`, one row per (sensor, timestamp)
//!   measurement, with `null` for missing values;
//! * `location.csv` — `id,attribute,lat,lon`, one row per sensor;
//! * `attribute.csv` — one attribute name per line.
//!
//! Because `data.csv` "might be very large", the paper splits it into
//! 10,000-line chunks before sending each chunk to the server. The [`chunk`]
//! module reproduces that chunked-upload protocol; [`loader`] assembles the
//! three files (or a stream of chunks) into a [`miscela_model::Dataset`];
//! [`writer`] exports a dataset back to the same three files so every
//! generated dataset can round-trip through the real upload path.
//!
//! # Example
//!
//! ```
//! use miscela_csv::DatasetLoader;
//!
//! let data = "id,attribute,time,data\n\
//!             s0,temperature,2016-03-01 00:00:00,9.5\n\
//!             s0,temperature,2016-03-01 01:00:00,null\n\
//!             s1,traffic volume,2016-03-01 00:00:00,120\n\
//!             s1,traffic volume,2016-03-01 01:00:00,131\n";
//! let locations = "id,attribute,lat,lon\n\
//!                  s0,temperature,43.46,-3.80\n\
//!                  s1,traffic volume,43.47,-3.79\n";
//! let attributes = "temperature\ntraffic volume\n";
//!
//! let dataset = DatasetLoader::new("santander-mini")
//!     .load_documents(data, locations, attributes)
//!     .unwrap();
//! assert_eq!(dataset.sensor_count(), 2);
//! assert_eq!(dataset.timestamp_count(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Nothing an uploaded CSV holds may panic the process: every failure is a
// typed `CsvError`.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod attribute_csv;
pub mod chunk;
pub mod data_csv;
pub mod error;
pub mod loader;
pub mod location_csv;
pub mod reader;
pub mod writer;

pub use chunk::{split_into_chunks, ChunkedUploader, DEFAULT_CHUNK_LINES};
pub use error::CsvError;
pub use loader::DatasetLoader;
pub use reader::{parse_line, CsvReader};
pub use writer::DatasetWriter;
