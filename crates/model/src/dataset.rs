//! Datasets: a named collection of sensors and their aligned series.
//!
//! A [`Dataset`] corresponds to one uploaded dataset in Miscela-V — the
//! combination of the paper's `data.csv`, `location.csv` and `attribute.csv`.
//! All sensors share one [`TimeGrid`]; each sensor owns one [`TimeSeries`]
//! aligned to that grid.

use crate::attribute::{Attribute, AttributeId, AttributeRegistry};
use crate::error::ModelError;
use crate::geo::{BoundingBox, GeoPoint};
use crate::retention::RetentionPolicy;
use crate::sensor::{Sensor, SensorId, SensorIndex};
use crate::series::{TimeSeries, SERIES_BLOCK_LEN};
use crate::stats::DatasetStats;
use crate::time::{TimeGrid, Timestamp};
use std::collections::HashMap;

/// A sensor together with its measurement series (borrowed view).
#[derive(Debug, Clone, Copy)]
pub struct SensorSeries<'a> {
    /// Dense index of the sensor within the dataset.
    pub index: SensorIndex,
    /// Sensor metadata.
    pub sensor: &'a Sensor,
    /// Measurement series aligned to the dataset grid.
    pub series: &'a TimeSeries,
}

/// One measurement row submitted to [`Dataset::append_rows`]: the model-level
/// equivalent of a `data.csv` line arriving after the dataset was built.
#[derive(Debug, Clone, PartialEq)]
pub struct AppendRow {
    /// External sensor id.
    pub sensor: SensorId,
    /// Attribute name (must already be registered).
    pub attribute: String,
    /// Measurement timestamp; must lie on the grid spacing and beyond the
    /// current grid end.
    pub time: Timestamp,
    /// Measurement value (`None` for an explicit `null`).
    pub value: Option<f64>,
}

/// A borrowed measurement row for [`Dataset::append_rows_borrowed`]: the
/// zero-copy view an ingestion front-end (e.g. the csv crate's parsed
/// `data.csv` batches, whose rows borrow each batch's interned keys)
/// presents its rows as, without cloning the sensor id or attribute-name
/// strings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppendRowRef<'a> {
    /// External sensor id.
    pub sensor: &'a SensorId,
    /// Attribute name (must already be registered).
    pub attribute: &'a str,
    /// Measurement timestamp; must lie on the grid spacing and beyond the
    /// current grid end.
    pub time: Timestamp,
    /// Measurement value (`None` for an explicit `null`).
    pub value: Option<f64>,
}

/// The outcome of one [`Dataset::append_rows`] batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AppendStats {
    /// How many grid points the append added.
    pub new_timestamps: usize,
    /// How many measurement rows were applied.
    pub measurements: usize,
    /// How many leading grid points the dataset's [`RetentionPolicy`]
    /// trimmed right after the append (0 for unbounded datasets).
    pub trimmed_timestamps: usize,
}

/// How many append-base lengths a dataset remembers (see
/// [`Dataset::append_bases`]). Old bases beyond this are forgotten; callers
/// resuming from them simply fall back to a full recompute.
pub const MAX_APPEND_BASES: usize = 8;

/// Upper bound on how many grid points one [`Dataset::append_rows`] batch
/// may add. The grid is extended (and every series NaN-filled) up to the
/// latest appended timestamp, so without a cap a single row with a far
/// future timestamp — a year-off typo, or milliseconds passed as seconds —
/// would allocate `points × sensors × 8` bytes before anything notices.
/// One million points is ~114 years of hourly data: far beyond any real
/// batch, far below an allocation that could hurt.
pub const MAX_APPEND_TIMESTAMPS: usize = 1 << 20;

/// An immutable, fully-built dataset.
///
/// The one sanctioned mutation is [`Dataset::append_rows`], which extends
/// the grid and every series in place — existing indices and values are
/// never changed, which is the invariant the incremental re-mining path
/// builds on.
#[derive(Debug, Clone)]
pub struct Dataset {
    name: String,
    attributes: AttributeRegistry,
    sensors: Vec<Sensor>,
    series: Vec<TimeSeries>,
    grid: TimeGrid,
    id_index: HashMap<(SensorId, AttributeId), SensorIndex>,
    /// Grid lengths this dataset had before recent appends, oldest first.
    append_bases: Vec<usize>,
    /// Sliding-window retention applied after every append.
    retention: RetentionPolicy,
    /// Total grid points trimmed from the front since the dataset was built.
    trimmed: usize,
    /// Cumulative [`Dataset::trimmed`] totals recorded at recent trims,
    /// oldest first (the trim counterpart of `append_bases`).
    trim_bases: Vec<usize>,
}

impl Dataset {
    /// Dataset name (used as the cache / store key, per Section 3.2 of the
    /// paper: "we can use the dataset without re-uploading by specifying the
    /// dataset name").
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The shared time grid.
    pub fn grid(&self) -> &TimeGrid {
        &self.grid
    }

    /// The attribute registry.
    pub fn attributes(&self) -> &AttributeRegistry {
        &self.attributes
    }

    /// Number of sensors.
    pub fn sensor_count(&self) -> usize {
        self.sensors.len()
    }

    /// Number of timestamps on the grid.
    pub fn timestamp_count(&self) -> usize {
        self.grid.len()
    }

    /// Number of grid points covered by *sealed* series blocks: the largest
    /// multiple of [`SERIES_BLOCK_LEN`] not exceeding the grid length.
    /// Sealed blocks are immutable (`Arc`-shared across revisions), which
    /// makes this the natural alignment boundary for durability snapshots —
    /// a snapshot taken when a block seals never has to be rewritten by
    /// later appends to the open tail block.
    pub fn sealed_timestamps(&self) -> usize {
        self.grid.len() - self.grid.len() % SERIES_BLOCK_LEN
    }

    /// Total number of records (sensor, timestamp) pairs, counting missing
    /// values — this is how the paper's Section-4 record counts are defined
    /// (all timestamps × all sensors, with nulls where a sensor is silent).
    pub fn record_count(&self) -> usize {
        self.sensor_count() * self.timestamp_count()
    }

    /// Number of present (non-null) measurements.
    pub fn present_count(&self) -> usize {
        self.series.iter().map(|s| s.present_count()).sum()
    }

    /// Sensor metadata by dense index.
    pub fn sensor(&self, idx: SensorIndex) -> &Sensor {
        &self.sensors[idx.index()]
    }

    /// Series by dense index.
    pub fn series(&self, idx: SensorIndex) -> &TimeSeries {
        &self.series[idx.index()]
    }

    /// Sensor + series view by dense index.
    pub fn sensor_series(&self, idx: SensorIndex) -> SensorSeries<'_> {
        SensorSeries {
            index: idx,
            sensor: self.sensor(idx),
            series: self.series(idx),
        }
    }

    /// Looks up a sensor by its external id and attribute.
    pub fn index_of(&self, id: &SensorId, attribute: AttributeId) -> Option<SensorIndex> {
        self.id_index.get(&(id.clone(), attribute)).copied()
    }

    /// Looks up a sensor by external id, returning the first match of any
    /// attribute (convenient when ids are globally unique).
    pub fn index_of_id(&self, id: &SensorId) -> Option<SensorIndex> {
        self.sensors
            .iter()
            .position(|s| &s.id == id)
            .map(|i| SensorIndex(i as u32))
    }

    /// Iterates over all sensors with their series.
    pub fn iter(&self) -> impl Iterator<Item = SensorSeries<'_>> {
        self.sensors
            .iter()
            .enumerate()
            .map(|(i, sensor)| SensorSeries {
                index: SensorIndex(i as u32),
                sensor,
                series: &self.series[i],
            })
    }

    /// All dense sensor indices.
    pub fn indices(&self) -> impl Iterator<Item = SensorIndex> {
        (0..self.sensors.len() as u32).map(SensorIndex)
    }

    /// Sensors measuring a given attribute.
    pub fn sensors_with_attribute(
        &self,
        attribute: AttributeId,
    ) -> impl Iterator<Item = SensorSeries<'_>> {
        self.iter().filter(move |s| s.sensor.attribute == attribute)
    }

    /// Bounding box of all sensor locations (`None` when there are no
    /// sensors).
    pub fn bounding_box(&self) -> Option<BoundingBox> {
        BoundingBox::of(self.sensors.iter().map(|s| &s.location))
    }

    /// Summary statistics (Section-4 dataset table).
    pub fn stats(&self) -> DatasetStats {
        DatasetStats::of(self)
    }

    /// Restricts the dataset to the grid points falling inside
    /// `[start, end)`, producing a new dataset that shares sensor metadata.
    ///
    /// The COVID-19 demonstration scenario compares CAPs mined on the
    /// before/after windows of one dataset; this is the operation it uses.
    pub fn slice_time(&self, start: Timestamp, end: Timestamp) -> Result<Dataset, ModelError> {
        let range = crate::time::TimeRange::new(start, end)?;
        let (first, len) = self.grid.window(range);
        let grid = TimeGrid::new(
            self.grid.at(first).unwrap_or(start),
            self.grid.interval(),
            len,
        )?;
        let series = self
            .series
            .iter()
            .map(|s| s.window(first, len))
            .collect::<Vec<_>>();
        Ok(Dataset {
            name: format!("{}[{}..{})", self.name, start, end),
            attributes: self.attributes.clone(),
            sensors: self.sensors.clone(),
            series,
            grid,
            id_index: self.id_index.clone(),
            append_bases: Vec::new(),
            retention: self.retention,
            trimmed: 0,
            trim_bases: Vec::new(),
        })
    }

    /// Grid lengths this dataset had just before recent appends, oldest
    /// first (empty for a cold-built dataset). Incremental re-mining probes
    /// these, newest first, as candidate prefix lengths whose extraction
    /// state may still be cached; at most [`MAX_APPEND_BASES`] are kept.
    /// Bases are expressed in the *current* (post-trim) indexing: a trim
    /// rebases them and drops bases that fell out of the window entirely.
    pub fn append_bases(&self) -> &[usize] {
        &self.append_bases
    }

    /// The dataset's sliding-window retention policy.
    pub fn retention(&self) -> &RetentionPolicy {
        &self.retention
    }

    /// Installs a retention policy. The policy is applied on every
    /// subsequent [`Dataset::append_rows`]; call
    /// [`Dataset::trim_expired`] to apply it immediately.
    pub fn set_retention(&mut self, policy: RetentionPolicy) {
        self.retention = policy;
    }

    /// Total grid points trimmed from the front since the dataset was
    /// built. The grid start has advanced by this many intervals.
    pub fn trimmed(&self) -> usize {
        self.trimmed
    }

    /// Cumulative trimmed-point totals recorded at recent trims, oldest
    /// first (empty while nothing was ever trimmed; at most
    /// [`MAX_APPEND_BASES`] are kept). This is the trim counterpart of
    /// [`Dataset::append_bases`] — a diagnostic record of recent window
    /// slides for observability and tests. The incremental extraction
    /// layer does not need to consult it: trim safety comes from
    /// [`Dataset::append_bases`] being rebased (or dropped) on trim plus
    /// the content-fingerprint keying of extraction states — a slid
    /// window's shifted content simply misses every pre-trim prefix key,
    /// so the first post-trim extraction runs cold over the bounded
    /// window, re-caches it, and subsequent appends resume incrementally
    /// again.
    pub fn trim_bases(&self) -> &[usize] {
        &self.trim_bases
    }

    /// Applies the retention policy now: drops expired leading points from
    /// the window, rounded *down* to whole storage blocks
    /// ([`SERIES_BLOCK_LEN`]), so a trim is one `Arc` drop per block per
    /// series and retained data is never rewritten. Returns how many grid
    /// points were trimmed (0 when nothing has expired a full block yet).
    ///
    /// After a trim the grid start has advanced, every series index has
    /// shifted down by the returned amount, and
    /// [`Dataset::append_bases`] are rebased to the new indexing.
    pub fn trim_expired(&mut self) -> usize {
        let expired = self.retention.expired_points(&self.grid);
        let trim = expired - expired % SERIES_BLOCK_LEN;
        if trim == 0 {
            return 0;
        }
        debug_assert!(trim <= self.grid.len().saturating_sub(1));
        for s in &mut self.series {
            s.drop_front_blocks(trim / SERIES_BLOCK_LEN);
        }
        self.grid.advance(trim);
        self.append_bases = self
            .append_bases
            .iter()
            .filter(|&&b| b > trim)
            .map(|&b| b - trim)
            .collect();
        self.trimmed += trim;
        self.trim_bases.push(self.trimmed);
        if self.trim_bases.len() > MAX_APPEND_BASES {
            self.trim_bases.remove(0);
        }
        trim
    }

    /// Appends measurement rows beyond the current grid end, extending the
    /// grid and **all** series in place with missing-value fill.
    ///
    /// Every row is validated first — unknown sensors/attributes,
    /// timestamps that are off the grid spacing or not strictly beyond the
    /// existing grid, and batches that would grow the grid by more than
    /// [`MAX_APPEND_TIMESTAMPS`] points are rejected before anything is
    /// modified, so a failed append leaves the dataset untouched. The grid
    /// grows to cover the latest appended timestamp; grid points no row
    /// mentions stay missing for every sensor (the paper's `null`).
    ///
    /// Only the mutable series tails (and freshly sealed blocks) are
    /// written: the sealed prefix blocks stay `Arc`-shared with any clone
    /// taken before the append, so appending costs O(tail), not
    /// O(dataset). After a successful append the dataset's
    /// [`RetentionPolicy`] is applied ([`Dataset::trim_expired`]); the
    /// returned [`AppendStats::trimmed_timestamps`] reports what it
    /// trimmed.
    pub fn append_rows(&mut self, rows: &[AppendRow]) -> Result<AppendStats, ModelError> {
        let refs: Vec<AppendRowRef<'_>> = rows
            .iter()
            .map(|r| AppendRowRef {
                sensor: &r.sensor,
                attribute: &r.attribute,
                time: r.time,
                value: r.value,
            })
            .collect();
        self.append_rows_borrowed(&refs)
    }

    /// [`Dataset::append_rows`] over borrowed rows: the zero-copy entry
    /// point for ingestion front-ends that already own parsed rows (the
    /// csv loader routes through this, saving two `String` clones per
    /// ingested line).
    pub fn append_rows_borrowed(
        &mut self,
        rows: &[AppendRowRef<'_>],
    ) -> Result<AppendStats, ModelError> {
        if rows.is_empty() {
            return Ok(AppendStats::default());
        }
        let old_len = self.grid.len();
        let start = self.grid.start().epoch_seconds();
        let interval = self.grid.interval().as_secs();
        let mut resolved = Vec::with_capacity(rows.len());
        let mut new_len = old_len;
        // Append batches arrive overwhelmingly grouped by sensor (that is
        // how `data.csv` is written), so memoizing the previous row's
        // lookups turns the per-row hash-and-clone of the sensor/attribute
        // resolution into a string compare on the hot path.
        let mut last: Option<(&SensorId, &str, SensorIndex)> = None;
        for row in rows {
            let idx = match last {
                Some((id, attr, idx)) if id == row.sensor && attr == row.attribute => idx,
                _ => {
                    let attribute = self
                        .attributes
                        .id_of(row.attribute)
                        .ok_or_else(|| ModelError::UnknownAttribute(row.attribute.to_string()))?;
                    let idx = self
                        .id_index
                        .get(&(row.sensor.clone(), attribute))
                        .copied()
                        .ok_or_else(|| {
                            ModelError::UnknownSensor(format!("{}:{}", row.sensor, row.attribute))
                        })?;
                    last = Some((row.sensor, row.attribute, idx));
                    idx
                }
            };
            let off = row.time.epoch_seconds() - start;
            if off < 0 || off % interval != 0 {
                return Err(ModelError::TimestampOffGrid(row.time.format()));
            }
            let ti = (off / interval) as usize;
            if ti < old_len {
                return Err(ModelError::TimestampOffGrid(format!(
                    "{} does not extend the grid (append-only)",
                    row.time.format()
                )));
            }
            if ti - old_len >= MAX_APPEND_TIMESTAMPS {
                return Err(ModelError::TimestampOffGrid(format!(
                    "{} would grow the grid by {} points (max {MAX_APPEND_TIMESTAMPS} per append)",
                    row.time.format(),
                    ti + 1 - old_len
                )));
            }
            new_len = new_len.max(ti + 1);
            resolved.push((idx, ti, row.value));
        }
        let added = new_len - old_len;
        self.grid.extend(added);
        for s in &mut self.series {
            s.extend_missing(added);
        }
        for (idx, ti, value) in &resolved {
            match value {
                Some(v) => self.series[idx.index()].set(*ti, *v),
                None => self.series[idx.index()].clear(*ti),
            }
        }
        if self.append_bases.last() != Some(&old_len) {
            self.append_bases.push(old_len);
            if self.append_bases.len() > MAX_APPEND_BASES {
                self.append_bases.remove(0);
            }
        }
        let trimmed = if self.retention.is_unbounded() {
            0
        } else {
            self.trim_expired()
        };
        Ok(AppendStats {
            new_timestamps: added,
            measurements: resolved.len(),
            trimmed_timestamps: trimmed,
        })
    }
}

/// Incrementally builds a [`Dataset`].
///
/// The builder mirrors the paper's upload order: declare attributes
/// (`attribute.csv`), declare sensors (`location.csv`), then add measurements
/// (`data.csv`). Measurements for undeclared sensors are rejected, matching
/// the validation Miscela-V performs at upload time.
#[derive(Debug, Clone)]
pub struct DatasetBuilder {
    name: String,
    attributes: AttributeRegistry,
    sensors: Vec<Sensor>,
    id_index: HashMap<(SensorId, AttributeId), SensorIndex>,
    grid: Option<TimeGrid>,
    series: Vec<TimeSeries>,
    retention: RetentionPolicy,
}

impl DatasetBuilder {
    /// Creates a builder for a dataset with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        DatasetBuilder {
            name: name.into(),
            attributes: AttributeRegistry::new(),
            sensors: Vec::new(),
            id_index: HashMap::new(),
            grid: None,
            series: Vec::new(),
            retention: RetentionPolicy::unbounded(),
        }
    }

    /// Declares the sliding-window retention policy the built dataset will
    /// apply on appends. The policy is *not* applied to the initial build.
    pub fn set_retention(&mut self, policy: RetentionPolicy) -> &mut Self {
        self.retention = policy;
        self
    }

    /// Declares an attribute (idempotent) and returns its id.
    pub fn add_attribute(&mut self, name: &str) -> AttributeId {
        self.attributes.register(Attribute::new(name))
    }

    /// Attribute registry built so far.
    pub fn attributes(&self) -> &AttributeRegistry {
        &self.attributes
    }

    /// Declares the time grid shared by every series. Must be called before
    /// measurements are added.
    pub fn set_grid(&mut self, grid: TimeGrid) -> &mut Self {
        let len = grid.len();
        self.grid = Some(grid);
        for s in &mut self.series {
            if s.len() != len {
                *s = TimeSeries::missing(len);
            }
        }
        self
    }

    /// Declares a sensor; errors when the same `(id, attribute)` pair is
    /// declared twice.
    pub fn add_sensor(
        &mut self,
        id: impl Into<SensorId>,
        attribute_name: &str,
        location: GeoPoint,
    ) -> Result<SensorIndex, ModelError> {
        let id = id.into();
        let attribute = self.add_attribute(attribute_name);
        let key = (id.clone(), attribute);
        if self.id_index.contains_key(&key) {
            return Err(ModelError::DuplicateSensor(format!(
                "{id}:{attribute_name}"
            )));
        }
        let idx = SensorIndex(self.sensors.len() as u32);
        self.sensors.push(Sensor::new(id, attribute, location));
        let len = self.grid.as_ref().map(|g| g.len()).unwrap_or(0);
        self.series.push(TimeSeries::missing(len));
        self.id_index.insert(key, idx);
        Ok(idx)
    }

    /// Number of sensors declared so far.
    pub fn sensor_count(&self) -> usize {
        self.sensors.len()
    }

    /// The sensor declared with external id `id` for attribute
    /// `attribute_name`. Errors when the attribute or the sensor is unknown.
    pub fn resolve(&self, id: &SensorId, attribute_name: &str) -> Result<SensorIndex, ModelError> {
        let attribute = self
            .attributes
            .id_of(attribute_name)
            .ok_or_else(|| ModelError::UnknownAttribute(attribute_name.to_string()))?;
        self.id_index
            .get(&(id.clone(), attribute))
            .copied()
            .ok_or_else(|| ModelError::UnknownSensor(format!("{id}:{attribute_name}")))
    }

    /// Adds one measurement for the sensor with external id `id` and
    /// attribute `attribute_name` at timestamp `t`.
    ///
    /// Errors when the sensor is unknown, the grid has not been declared, or
    /// `t` does not lie on the grid.
    pub fn add_measurement(
        &mut self,
        id: &SensorId,
        attribute_name: &str,
        t: Timestamp,
        value: Option<f64>,
    ) -> Result<(), ModelError> {
        let idx = self.resolve(id, attribute_name)?;
        let grid = self
            .grid
            .as_ref()
            .ok_or_else(|| ModelError::EmptyDataset("grid not set".to_string()))?;
        let ti = grid
            .index_of(t)
            .ok_or_else(|| ModelError::TimestampOffGrid(t.format()))?;
        if let Some(v) = value {
            self.series[idx.index()].set(ti, v);
        } else {
            self.series[idx.index()].clear(ti);
        }
        Ok(())
    }

    /// Directly installs a full series for a sensor (used by the synthetic
    /// generators, which produce whole series at once).
    pub fn set_series(&mut self, idx: SensorIndex, series: TimeSeries) -> Result<(), ModelError> {
        let expected = self.grid.as_ref().map(|g| g.len()).unwrap_or(0);
        if series.len() != expected {
            return Err(ModelError::LengthMismatch {
                expected,
                actual: series.len(),
            });
        }
        self.series[idx.index()] = series;
        Ok(())
    }

    /// Finalizes the dataset. Errors when no grid was declared or there are
    /// no sensors.
    pub fn build(self) -> Result<Dataset, ModelError> {
        let grid = self
            .grid
            .ok_or_else(|| ModelError::EmptyDataset(format!("{}: grid not set", self.name)))?;
        if self.sensors.is_empty() {
            return Err(ModelError::EmptyDataset(format!(
                "{}: no sensors declared",
                self.name
            )));
        }
        for s in &self.series {
            if s.len() != grid.len() {
                return Err(ModelError::LengthMismatch {
                    expected: grid.len(),
                    actual: s.len(),
                });
            }
        }
        Ok(Dataset {
            name: self.name,
            attributes: self.attributes,
            sensors: self.sensors,
            series: self.series,
            grid,
            id_index: self.id_index,
            append_bases: Vec::new(),
            retention: self.retention,
            trimmed: 0,
            trim_bases: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    fn small_dataset() -> Dataset {
        let mut b = DatasetBuilder::new("test");
        let start = Timestamp::parse("2016-03-01 00:00:00").unwrap();
        b.set_grid(TimeGrid::new(start, Duration::hours(1), 4).unwrap());
        b.add_sensor("s1", "temperature", GeoPoint::new_unchecked(43.0, -3.0))
            .unwrap();
        b.add_sensor("s2", "traffic", GeoPoint::new_unchecked(43.001, -3.001))
            .unwrap();
        for (i, v) in [9.0, 10.0, 11.0, 12.0].iter().enumerate() {
            b.add_measurement(
                &SensorId::new("s1"),
                "temperature",
                start + Duration::hours(i as i64),
                Some(*v),
            )
            .unwrap();
        }
        b.add_measurement(
            &SensorId::new("s2"),
            "traffic",
            start + Duration::hours(1),
            Some(100.0),
        )
        .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn build_and_access() {
        let ds = small_dataset();
        assert_eq!(ds.name(), "test");
        assert_eq!(ds.sensor_count(), 2);
        assert_eq!(ds.timestamp_count(), 4);
        assert_eq!(ds.record_count(), 8);
        assert_eq!(ds.present_count(), 5);
        assert_eq!(ds.attributes().len(), 2);
        let i1 = ds
            .index_of(
                &SensorId::new("s1"),
                ds.attributes().id_of("temperature").unwrap(),
            )
            .unwrap();
        assert_eq!(ds.series(i1).get(2), Some(11.0));
        assert_eq!(ds.sensor(i1).id.as_str(), "s1");
        assert!(ds.index_of_id(&SensorId::new("s2")).is_some());
        assert!(ds.index_of_id(&SensorId::new("nope")).is_none());
    }

    #[test]
    fn sealed_timestamps_align_to_block_boundaries() {
        // 4 points: no block sealed yet.
        assert_eq!(small_dataset().sealed_timestamps(), 0);
        let mut b = DatasetBuilder::new("sealed");
        b.set_grid(
            TimeGrid::new(
                Timestamp::EPOCH,
                Duration::hours(1),
                SERIES_BLOCK_LEN * 2 + 7,
            )
            .unwrap(),
        );
        b.add_sensor("s1", "temperature", GeoPoint::new_unchecked(0.0, 0.0))
            .unwrap();
        let ds = b.build().unwrap();
        assert_eq!(ds.sealed_timestamps(), SERIES_BLOCK_LEN * 2);
        assert!(ds.sealed_timestamps() <= ds.timestamp_count());
    }

    #[test]
    fn duplicate_sensor_rejected() {
        let mut b = DatasetBuilder::new("dup");
        b.set_grid(TimeGrid::new(Timestamp::EPOCH, Duration::hours(1), 2).unwrap());
        b.add_sensor("s1", "temperature", GeoPoint::new_unchecked(0.0, 0.0))
            .unwrap();
        let err = b
            .add_sensor("s1", "temperature", GeoPoint::new_unchecked(0.0, 0.0))
            .unwrap_err();
        assert!(matches!(err, ModelError::DuplicateSensor(_)));
        // Same id with a different attribute is fine (paper footnote 2).
        assert!(b
            .add_sensor("s1", "humidity", GeoPoint::new_unchecked(0.0, 0.0))
            .is_ok());
    }

    #[test]
    fn measurement_validation() {
        let mut b = DatasetBuilder::new("val");
        let start = Timestamp::EPOCH;
        b.set_grid(TimeGrid::new(start, Duration::hours(1), 2).unwrap());
        b.add_sensor("s1", "temperature", GeoPoint::new_unchecked(0.0, 0.0))
            .unwrap();
        // Unknown attribute.
        assert!(matches!(
            b.add_measurement(&SensorId::new("s1"), "light", start, Some(1.0)),
            Err(ModelError::UnknownAttribute(_))
        ));
        // Unknown sensor.
        b.add_attribute("light");
        assert!(matches!(
            b.add_measurement(&SensorId::new("sX"), "light", start, Some(1.0)),
            Err(ModelError::UnknownSensor(_))
        ));
        // Off-grid timestamp.
        assert!(matches!(
            b.add_measurement(
                &SensorId::new("s1"),
                "temperature",
                start + Duration::minutes(30),
                Some(1.0)
            ),
            Err(ModelError::TimestampOffGrid(_))
        ));
        // Null measurement clears.
        b.add_measurement(&SensorId::new("s1"), "temperature", start, Some(5.0))
            .unwrap();
        b.add_measurement(&SensorId::new("s1"), "temperature", start, None)
            .unwrap();
        let ds = b.build().unwrap();
        assert_eq!(ds.series(SensorIndex(0)).get(0), None);
    }

    #[test]
    fn build_requires_grid_and_sensors() {
        let b = DatasetBuilder::new("no-grid");
        assert!(matches!(b.build(), Err(ModelError::EmptyDataset(_))));

        let mut b = DatasetBuilder::new("no-sensors");
        b.set_grid(TimeGrid::new(Timestamp::EPOCH, Duration::hours(1), 2).unwrap());
        assert!(matches!(b.build(), Err(ModelError::EmptyDataset(_))));
    }

    #[test]
    fn sensors_with_attribute_filter() {
        let ds = small_dataset();
        let temp = ds.attributes().id_of("temperature").unwrap();
        let v: Vec<_> = ds.sensors_with_attribute(temp).collect();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].sensor.id.as_str(), "s1");
    }

    #[test]
    fn bounding_box_covers_sensors() {
        let ds = small_dataset();
        let bb = ds.bounding_box().unwrap();
        assert!(bb.contains(&GeoPoint::new_unchecked(43.0005, -3.0005)));
    }

    #[test]
    fn slice_time_window() {
        let ds = small_dataset();
        let start = Timestamp::parse("2016-03-01 01:00:00").unwrap();
        let end = Timestamp::parse("2016-03-01 03:00:00").unwrap();
        let sliced = ds.slice_time(start, end).unwrap();
        assert_eq!(sliced.timestamp_count(), 2);
        assert_eq!(sliced.sensor_count(), 2);
        let i1 = sliced.index_of_id(&SensorId::new("s1")).unwrap();
        assert_eq!(sliced.series(i1).get(0), Some(10.0));
        assert_eq!(sliced.series(i1).get(1), Some(11.0));
        assert!(sliced.name().contains("test"));
    }

    fn append_row(id: &str, attr: &str, t: Timestamp, value: Option<f64>) -> AppendRow {
        AppendRow {
            sensor: SensorId::new(id),
            attribute: attr.to_string(),
            time: t,
            value,
        }
    }

    #[test]
    fn append_rows_extends_grid_and_fills_missing() {
        let mut ds = small_dataset();
        let start = Timestamp::parse("2016-03-01 00:00:00").unwrap();
        assert!(ds.append_bases().is_empty());
        // Append hours 5 and 6 for s1 only; hour 4 is mentioned by nobody.
        let stats = ds
            .append_rows(&[
                append_row("s1", "temperature", start + Duration::hours(5), Some(14.0)),
                append_row("s1", "temperature", start + Duration::hours(6), Some(15.0)),
            ])
            .unwrap();
        assert_eq!(stats.new_timestamps, 3);
        assert_eq!(stats.measurements, 2);
        assert_eq!(ds.timestamp_count(), 7);
        assert_eq!(ds.append_bases(), &[4]);
        let i1 = ds.index_of_id(&SensorId::new("s1")).unwrap();
        let i2 = ds.index_of_id(&SensorId::new("s2")).unwrap();
        // Existing prefix untouched.
        assert_eq!(ds.series(i1).get(2), Some(11.0));
        // The gap hour and the silent sensor are missing-filled.
        assert_eq!(ds.series(i1).get(4), None);
        assert_eq!(ds.series(i1).get(5), Some(14.0));
        assert_eq!(ds.series(i1).get(6), Some(15.0));
        assert_eq!(ds.series(i2).get(5), None);
        // A second append records a second base.
        ds.append_rows(&[append_row(
            "s2",
            "traffic",
            start + Duration::hours(7),
            Some(120.0),
        )])
        .unwrap();
        assert_eq!(ds.append_bases(), &[4, 7]);
        assert_eq!(ds.timestamp_count(), 8);
    }

    #[test]
    fn append_rows_validation_leaves_dataset_untouched() {
        let mut ds = small_dataset();
        let start = Timestamp::parse("2016-03-01 00:00:00").unwrap();
        let bad_batches: Vec<Vec<AppendRow>> = vec![
            // Unknown attribute.
            vec![append_row("s1", "light", start + Duration::hours(5), None)],
            // Unknown sensor.
            vec![append_row(
                "sX",
                "temperature",
                start + Duration::hours(5),
                None,
            )],
            // Off the grid spacing.
            vec![append_row(
                "s1",
                "temperature",
                start + Duration::minutes(90 + 4 * 60),
                Some(1.0),
            )],
            // Inside the existing grid (append-only).
            vec![append_row("s1", "temperature", start, Some(1.0))],
            // Runaway future timestamp (would NaN-fill gigabytes).
            vec![append_row(
                "s1",
                "temperature",
                start + Duration::hours(4 + MAX_APPEND_TIMESTAMPS as i64),
                Some(1.0),
            )],
            // One good row, one bad: nothing may be applied.
            vec![
                append_row("s1", "temperature", start + Duration::hours(9), Some(1.0)),
                append_row("sX", "temperature", start + Duration::hours(9), Some(1.0)),
            ],
        ];
        for batch in &bad_batches {
            assert!(ds.append_rows(batch).is_err(), "batch {batch:?}");
            assert_eq!(ds.timestamp_count(), 4);
            assert!(ds.append_bases().is_empty());
        }
        // Null values clear, and empty appends are no-ops.
        assert_eq!(ds.append_rows(&[]).unwrap(), AppendStats::default());
        ds.append_rows(&[append_row(
            "s1",
            "temperature",
            start + Duration::hours(4),
            None,
        )])
        .unwrap();
        assert_eq!(ds.timestamp_count(), 5);
        assert_eq!(ds.series(SensorIndex(0)).get(4), None);
    }

    #[test]
    fn append_bases_are_bounded_and_deduped() {
        let mut ds = small_dataset();
        let start = Timestamp::parse("2016-03-01 00:00:00").unwrap();
        for i in 0..(MAX_APPEND_BASES + 3) {
            ds.append_rows(&[append_row(
                "s1",
                "temperature",
                start + Duration::hours(4 + i as i64),
                Some(i as f64),
            )])
            .unwrap();
        }
        assert_eq!(ds.append_bases().len(), MAX_APPEND_BASES);
        // Oldest bases were dropped; the newest base is the length before
        // the final append.
        assert_eq!(*ds.append_bases().last().unwrap(), ds.timestamp_count() - 1);
        // Slicing resets lineage.
        let sliced = ds.slice_time(start, start + Duration::hours(3)).unwrap();
        assert!(sliced.append_bases().is_empty());
    }

    /// A 2-sensor dataset over `len` hourly points whose values are pure
    /// functions of the *absolute* grid step, so appended tails and trimmed
    /// windows can be recomputed exactly.
    fn streaming_dataset(len: usize) -> Dataset {
        let mut b = DatasetBuilder::new("stream");
        let start = Timestamp::parse("2016-03-01 00:00:00").unwrap();
        b.set_grid(TimeGrid::new(start, Duration::hours(1), len).unwrap());
        let s0 = b
            .add_sensor("s0", "temperature", GeoPoint::new_unchecked(43.0, -3.0))
            .unwrap();
        let s1 = b
            .add_sensor("s1", "humidity", GeoPoint::new_unchecked(43.001, -3.001))
            .unwrap();
        for (idx, s) in [(s0, 0usize), (s1, 1usize)] {
            let options: Vec<Option<f64>> = (0..len).map(|t| value_at(s, t)).collect();
            b.set_series(idx, TimeSeries::from_options(&options))
                .unwrap();
        }
        b.build().unwrap()
    }

    /// Sensor `s`'s value at absolute grid step `t` (`None` = missing).
    fn value_at(s: usize, t: usize) -> Option<f64> {
        match s {
            0 => Some((t as f64 * 0.17).sin() * 4.0),
            _ => (t % 5 != 2).then(|| (t as f64 * 0.05).cos() * 2.0 + 1.0),
        }
    }

    /// Append rows reproducing absolute steps `[from, to)` of the
    /// streaming fixture (every point mentioned, missing ones as explicit
    /// nulls, so the grid always grows through `to - 1`).
    fn streaming_rows(from: usize, to: usize) -> Vec<AppendRow> {
        let start = Timestamp::parse("2016-03-01 00:00:00").unwrap();
        let mut rows = Vec::new();
        for (s, (id, attr)) in [("s0", "temperature"), ("s1", "humidity")]
            .iter()
            .enumerate()
        {
            for t in from..to {
                rows.push(AppendRow {
                    sensor: SensorId::new(*id),
                    attribute: attr.to_string(),
                    time: start + Duration::hours(t as i64),
                    value: value_at(s, t),
                });
            }
        }
        rows
    }

    #[test]
    fn retention_trims_whole_blocks_on_append() {
        let mut ds = streaming_dataset(3 * SERIES_BLOCK_LEN);
        ds.set_retention(RetentionPolicy::keep_last(SERIES_BLOCK_LEN));
        assert_eq!(ds.trimmed(), 0);
        let n = ds.timestamp_count();
        let stats = ds.append_rows(&streaming_rows(n, n + 4)).unwrap();
        assert_eq!(stats.new_timestamps, 4);
        // 3*B + 4 points, window B => expired = 2*B + 4, block-rounded to 2*B.
        assert_eq!(stats.trimmed_timestamps, 2 * SERIES_BLOCK_LEN);
        assert_eq!(ds.timestamp_count(), SERIES_BLOCK_LEN + 4);
        assert_eq!(ds.trimmed(), 2 * SERIES_BLOCK_LEN);
        assert_eq!(ds.trim_bases(), &[2 * SERIES_BLOCK_LEN]);
        // The grid start advanced and absolute timestamps are preserved.
        let start = Timestamp::parse("2016-03-01 00:00:00").unwrap();
        assert_eq!(
            ds.grid().start(),
            start + Duration::hours(2 * SERIES_BLOCK_LEN as i64)
        );
        // Retained values match the absolute waveform at shifted indices.
        for s in 0..2 {
            let series = ds.series(SensorIndex(s as u32));
            for i in 0..ds.timestamp_count() {
                assert_eq!(
                    series.get(i),
                    value_at(s, i + 2 * SERIES_BLOCK_LEN),
                    "sensor {s} index {i}"
                );
            }
        }
        // append_bases were rebased: the pre-append length 3*B becomes B.
        assert_eq!(ds.append_bases(), &[SERIES_BLOCK_LEN]);
    }

    #[test]
    fn trim_expired_is_block_granular_and_never_empties() {
        let mut ds = streaming_dataset(SERIES_BLOCK_LEN + 10);
        // Sub-block expiry: nothing to trim yet.
        ds.set_retention(RetentionPolicy::keep_last(SERIES_BLOCK_LEN));
        assert_eq!(ds.trim_expired(), 0);
        assert!(ds.trim_bases().is_empty());
        // A window of 1 can trim at most the sealed blocks.
        ds.set_retention(RetentionPolicy::keep_last(1));
        assert_eq!(ds.trim_expired(), SERIES_BLOCK_LEN);
        assert_eq!(ds.timestamp_count(), 10);
        // Trimming again with everything expired leaves the tail: a trim
        // can never empty the dataset.
        assert_eq!(ds.trim_expired(), 0);
        assert_eq!(ds.timestamp_count(), 10);
        assert_eq!(ds.trimmed(), SERIES_BLOCK_LEN);
    }

    #[test]
    fn append_clone_shares_prefix_blocks() {
        // The finish_append regression shape: clone, append to the clone —
        // the stable prefix must stay pointer-shared (no deep copy).
        let ds = streaming_dataset(2 * SERIES_BLOCK_LEN + 20);
        let mut appended = ds.clone();
        let n = ds.timestamp_count();
        appended.append_rows(&streaming_rows(n, n + 8)).unwrap();
        for idx in ds.indices() {
            let before = ds.series(idx);
            let after = appended.series(idx);
            assert_eq!(
                after.shares_blocks_with(before),
                before.block_count(),
                "append copied the stable prefix of sensor {idx:?}"
            );
        }
        // The original is untouched.
        assert_eq!(ds.timestamp_count(), n);
    }

    #[test]
    fn slice_resets_trim_lineage() {
        let mut ds = streaming_dataset(2 * SERIES_BLOCK_LEN);
        ds.set_retention(RetentionPolicy::keep_last(SERIES_BLOCK_LEN));
        ds.trim_expired();
        assert_eq!(ds.trimmed(), SERIES_BLOCK_LEN);
        let sliced = ds
            .slice_time(ds.grid().start(), ds.grid().range().end)
            .unwrap();
        assert_eq!(sliced.trimmed(), 0);
        assert!(sliced.trim_bases().is_empty());
        // The policy itself is carried over.
        assert_eq!(*sliced.retention(), *ds.retention());
    }

    mod append_trim_proptest {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Random interleavings of appends and trims leave the dataset
            /// holding exactly the absolute-waveform window a naive mirror
            /// predicts — values, grid start, trim totals and base
            /// rebasing all agree.
            #[test]
            fn interleavings_match_naive_mirror(
                initial in 2usize..700,
                ops in proptest::collection::vec((any::<bool>(), 1usize..600), 1..8),
            ) {
                let mut ds = streaming_dataset(initial);
                // Mirror: absolute index of the window start + its length.
                let mut mirror_start = 0usize;
                let mut mirror_len = initial;
                for &(is_append, k) in &ops {
                    if is_append {
                        let k = k.min(200);
                        let abs_end = mirror_start + mirror_len;
                        let rows = streaming_rows(abs_end, abs_end + k);
                        let stats = ds.append_rows(&rows).unwrap();
                        prop_assert_eq!(stats.new_timestamps, k);
                        mirror_len += k;
                    } else {
                        let window = k;
                        ds.set_retention(RetentionPolicy::keep_last(window));
                        let trimmed = ds.trim_expired();
                        // Disarm the policy again so the mirror only has to
                        // model *explicit* trims, not append-time re-trims.
                        ds.set_retention(RetentionPolicy::unbounded());
                        let expired =
                            mirror_len.saturating_sub(window.max(1)).min(mirror_len - 1);
                        let expect = expired - expired % SERIES_BLOCK_LEN;
                        prop_assert_eq!(trimmed, expect);
                        mirror_start += expect;
                        mirror_len -= expect;
                    }
                    prop_assert_eq!(ds.timestamp_count(), mirror_len);
                    prop_assert_eq!(ds.trimmed(), mirror_start);
                    // Every retained value equals the absolute waveform.
                    for s in 0..2usize {
                        let series = ds.series(SensorIndex(s as u32));
                        for i in 0..mirror_len {
                            prop_assert_eq!(series.get(i), value_at(s, mirror_start + i));
                        }
                    }
                    // Grid start tracks the trim offset.
                    let start = Timestamp::parse("2016-03-01 00:00:00").unwrap();
                    prop_assert_eq!(
                        ds.grid().start(),
                        start + Duration::hours(mirror_start as i64)
                    );
                    // Bases stay within the window and below the length.
                    for &b in ds.append_bases() {
                        prop_assert!(b > 0 && b <= mirror_len);
                    }
                }
            }
        }
    }

    #[test]
    fn set_series_length_checked() {
        let mut b = DatasetBuilder::new("gen");
        b.set_grid(TimeGrid::new(Timestamp::EPOCH, Duration::hours(1), 3).unwrap());
        let idx = b
            .add_sensor("s1", "temperature", GeoPoint::new_unchecked(0.0, 0.0))
            .unwrap();
        assert!(b
            .set_series(idx, TimeSeries::from_values(vec![1.0, 2.0]))
            .is_err());
        assert!(b
            .set_series(idx, TimeSeries::from_values(vec![1.0, 2.0, 3.0]))
            .is_ok());
    }
}
