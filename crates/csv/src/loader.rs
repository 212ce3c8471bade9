//! Assembling the three upload files into a [`Dataset`].
//!
//! The paper requires that "timestamps must be the same time intervals"; the
//! loader therefore infers the dataset's regular [`TimeGrid`] from the
//! timestamps present in `data.csv` (minimum timestamp, greatest common
//! divisor of gaps) and rejects uploads whose timestamps cannot be laid on a
//! single regular grid.

use crate::attribute_csv;
use crate::data_csv::DataBatch;
use crate::error::CsvError;
use crate::location_csv::{self, LocationRow};
use miscela_model::{
    AppendRowRef, AppendStats, Dataset, DatasetBuilder, Duration, ModelError, SensorIndex,
    TimeGrid, TimeSeries, Timestamp, MAX_APPEND_TIMESTAMPS,
};

/// Builds [`Dataset`]s from upload files or pre-parsed rows.
#[derive(Debug, Clone)]
pub struct DatasetLoader {
    name: String,
    /// When set, the grid interval is forced instead of inferred.
    interval: Option<Duration>,
}

impl DatasetLoader {
    /// Creates a loader for a dataset with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        DatasetLoader {
            name: name.into(),
            interval: None,
        }
    }

    /// Forces the grid interval instead of inferring it from the data.
    pub fn with_interval(mut self, interval: Duration) -> Self {
        self.interval = Some(interval);
        self
    }

    /// Loads a dataset from the raw contents of the three upload files.
    pub fn load_documents(
        &self,
        data_csv: &str,
        location_csv: &str,
        attribute_csv: &str,
    ) -> Result<Dataset, CsvError> {
        let attributes = attribute_csv::parse_document(attribute_csv)?;
        let locations = location_csv::parse_document(location_csv)?;
        let data = DataBatch::parse(data_csv)?;
        self.assemble(&attributes, &locations, std::slice::from_ref(&data))
    }

    /// Assembles a dataset from pre-parsed files: `data` holds the
    /// `data.csv` batches in order (one per chunk on the chunked-upload
    /// path, which parses chunks as they arrive).
    ///
    /// Each batch's keys are resolved once, in order of first use, so the
    /// first row naming an unknown sensor or attribute is the one
    /// reported. Each sensor's series is then filled by grid index.
    pub fn assemble(
        &self,
        attributes: &[String],
        locations: &[LocationRow],
        data: &[DataBatch],
    ) -> Result<Dataset, CsvError> {
        if data.iter().all(DataBatch::is_empty) {
            return Err(CsvError::Empty("data.csv"));
        }
        let grid = self.infer_grid(data)?;
        let (start, interval, len) = (
            grid.start().epoch_seconds(),
            grid.interval().as_secs(),
            grid.len(),
        );
        let mut builder = DatasetBuilder::new(&self.name);
        builder.set_grid(grid);
        for a in attributes {
            builder.add_attribute(a);
        }
        for loc in locations {
            builder.add_attribute(&loc.attribute);
            builder
                .add_sensor(loc.id.clone(), &loc.attribute, loc.location)
                .map_err(CsvError::Model)?;
        }
        let mut values: Vec<Option<Vec<f64>>> = vec![None; builder.sensor_count()];
        for batch in data {
            let sensors = batch
                .keys()
                .iter()
                .map(|(id, attribute)| builder.resolve(id, attribute))
                .collect::<Result<Vec<_>, _>>()
                .map_err(CsvError::Model)?;
            for r in batch.readings() {
                // `infer_grid` put every timestamp on the grid.
                let ti = ((r.time.epoch_seconds() - start) / interval) as usize;
                let series =
                    values[sensors[r.key].index()].get_or_insert_with(|| vec![f64::NAN; len]);
                series[ti] = r.value.unwrap_or(f64::NAN);
            }
        }
        for (i, series) in values.into_iter().enumerate() {
            if let Some(series) = series {
                builder
                    .set_series(SensorIndex(i as u32), TimeSeries::from_values(series))
                    .map_err(CsvError::Model)?;
            }
        }
        builder.build().map_err(CsvError::Model)
    }

    /// Applies parsed `data.csv` batches to an **existing** dataset as an
    /// append: the grid and every series are extended in place with
    /// missing-value fill (the append-session counterpart of
    /// [`DatasetLoader::assemble`], sharing the same chunked-upload
    /// machinery — chunks are parsed by [`crate::chunk::ChunkedUploader`]
    /// exactly as for a cold upload, then land here instead of in a fresh
    /// builder).
    ///
    /// Sensors and attributes must already exist, every timestamp must lie
    /// on the dataset's grid spacing strictly beyond the current end, and a
    /// failed append leaves the dataset untouched.
    pub fn append(dataset: &mut Dataset, data: &[DataBatch]) -> Result<AppendStats, CsvError> {
        // The rows borrow the batches' interned keys: nothing is allocated
        // per row.
        let rows: Vec<AppendRowRef<'_>> = data.iter().flat_map(DataBatch::rows).collect();
        dataset.append_rows_borrowed(&rows).map_err(CsvError::Model)
    }

    /// Infers the regular grid covering all timestamps in `data`. A grid
    /// longer than [`MAX_APPEND_TIMESTAMPS`] points — the cap an append
    /// may grow a dataset by — is rejected before anything is allocated:
    /// three readings spread over a century at one-second spacing would
    /// otherwise ask for billions of points per sensor.
    fn infer_grid(&self, data: &[DataBatch]) -> Result<TimeGrid, CsvError> {
        let times = || {
            data.iter()
                .flat_map(DataBatch::readings)
                .map(|r| r.time.epoch_seconds())
        };
        let (first, last) =
            times().fold((i64::MAX, i64::MIN), |(lo, hi), t| (lo.min(t), hi.max(t)));
        let interval = match self.interval {
            Some(i) => i.as_secs(),
            None if first == last => Duration::hours(1).as_secs(),
            // GCD of all gaps from the first timestamp gives the finest
            // regular interval consistent with every observed timestamp
            // (an offset `g` already divides leaves it unchanged).
            None => times().fold(0, |g, t| {
                let off = t - first;
                if g != 0 && off % g == 0 {
                    g
                } else {
                    gcd(g, off)
                }
            }),
        };
        // Validate that every timestamp is on the grid; report the earliest
        // that is not.
        if let Some(t) = times().filter(|t| (t - first) % interval != 0).min() {
            return Err(CsvError::IrregularTimestamps(format!(
                "timestamp {} is not a multiple of {interval}s after {}",
                Timestamp::from_epoch_seconds(t),
                Timestamp::from_epoch_seconds(first),
            )));
        }
        let span = (last - first) / interval;
        if span >= MAX_APPEND_TIMESTAMPS as i64 {
            return Err(CsvError::Model(ModelError::TimestampOffGrid(format!(
                "{} would make the grid {} points long (max {MAX_APPEND_TIMESTAMPS})",
                Timestamp::from_epoch_seconds(last),
                span + 1
            ))));
        }
        let len = span as usize + 1;
        TimeGrid::new(
            Timestamp::from_epoch_seconds(first),
            Duration::seconds(interval),
            len,
        )
        .map_err(CsvError::Model)
    }
}

fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{split_into_chunks, Chunk, ChunkedUploader};
    use crate::data_csv;
    use crate::reader::CsvReader;
    use miscela_model::{ModelError, Sensor, SensorId};
    use std::collections::BTreeSet;

    const LOCATIONS: &str = "id,attribute,lat,lon\n\
s1,temperature,43.46192,-3.80176\n\
s2,traffic,43.46212,-3.79979\n";

    const ATTRIBUTES: &str = "temperature\ntraffic\n";

    fn data_doc() -> String {
        let mut s = String::from("id,attribute,time,data\n");
        for h in 0..6 {
            s.push_str(&format!(
                "s1,temperature,2016-03-01 {h:02}:00:00,{}\n",
                10.0 + h as f64
            ));
            if h != 3 {
                s.push_str(&format!(
                    "s2,traffic,2016-03-01 {h:02}:00:00,{}\n",
                    100.0 * h as f64
                ));
            }
        }
        s
    }

    #[test]
    fn loads_three_files() {
        let ds = DatasetLoader::new("santander-mini")
            .load_documents(&data_doc(), LOCATIONS, ATTRIBUTES)
            .unwrap();
        assert_eq!(ds.name(), "santander-mini");
        assert_eq!(ds.sensor_count(), 2);
        assert_eq!(ds.timestamp_count(), 6);
        assert_eq!(ds.grid().interval(), Duration::hours(1));
        let temp = ds.attributes().id_of("temperature").unwrap();
        let s1 = ds.index_of(&SensorId::new("s1"), temp).unwrap();
        assert_eq!(ds.series(s1).get(5), Some(15.0));
        // Missing traffic measurement at hour 3 stays null.
        let traffic = ds.attributes().id_of("traffic").unwrap();
        let s2 = ds.index_of(&SensorId::new("s2"), traffic).unwrap();
        assert_eq!(ds.series(s2).get(3), None);
        assert_eq!(ds.series(s2).get(2), Some(200.0));
    }

    #[test]
    fn grid_inference_handles_gaps() {
        // Timestamps at hours 0, 2, 4 => inferred interval is gcd = 2h? No:
        // gaps 2h and 4h, gcd 2h; but with a forced 1h interval we still accept.
        let data = "s1,temperature,2016-03-01 00:00:00,1\n\
s1,temperature,2016-03-01 02:00:00,2\n\
s1,temperature,2016-03-01 04:00:00,3\n";
        let ds = DatasetLoader::new("gaps")
            .load_documents(data, "s1,temperature,43.0,-3.0\n", "temperature\n")
            .unwrap();
        assert_eq!(ds.grid().interval(), Duration::hours(2));
        assert_eq!(ds.timestamp_count(), 3);

        let ds = DatasetLoader::new("gaps-forced")
            .with_interval(Duration::hours(1))
            .load_documents(data, "s1,temperature,43.0,-3.0\n", "temperature\n")
            .unwrap();
        assert_eq!(ds.timestamp_count(), 5);
        assert_eq!(ds.series(miscela_model::SensorIndex(0)).get(1), None);
    }

    #[test]
    fn irregular_timestamps_with_forced_interval_rejected() {
        let data = "s1,temperature,2016-03-01 00:00:00,1\n\
s1,temperature,2016-03-01 00:37:00,2\n";
        let err = DatasetLoader::new("bad")
            .with_interval(Duration::hours(1))
            .load_documents(data, "s1,temperature,43.0,-3.0\n", "temperature\n")
            .unwrap_err();
        assert!(matches!(err, CsvError::IrregularTimestamps(_)));
    }

    #[test]
    fn oversized_inferred_grid_is_rejected_before_allocating() {
        // One-second spacing across a century: ~3.2e9 grid points, which
        // `assemble` would have allocated for every sensor.
        let data = "s1,temperature,2000-01-01 00:00:00,1\n\
s1,temperature,2000-01-01 00:00:01,2\n\
s1,temperature,2100-01-01 00:00:00,3\n";
        let err = DatasetLoader::new("huge")
            .load_documents(data, "s1,temperature,43.0,-3.0\n", "temperature\n")
            .unwrap_err();
        match err {
            CsvError::Model(ModelError::TimestampOffGrid(msg)) => {
                assert!(msg.contains("2100-01-01 00:00:00"), "{msg}");
                assert!(msg.contains(&MAX_APPEND_TIMESTAMPS.to_string()), "{msg}");
            }
            other => panic!("expected a typed grid-length error, got {other:?}"),
        }
        // The longest allowed grid still loads.
        let start = Timestamp::parse("2000-01-01 00:00:00").unwrap();
        let end = start + Duration::seconds(MAX_APPEND_TIMESTAMPS as i64 - 1);
        let data = format!("s1,temperature,{start},1\ns1,temperature,{end},2\n");
        let ds = DatasetLoader::new("edge")
            .with_interval(Duration::seconds(1))
            .load_documents(&data, "s1,temperature,43.0,-3.0\n", "temperature\n")
            .unwrap();
        assert_eq!(ds.timestamp_count(), MAX_APPEND_TIMESTAMPS);
        // One point more is refused.
        let data = format!(
            "s1,temperature,{start},1\ns1,temperature,{},2\n",
            end + Duration::seconds(1)
        );
        assert!(DatasetLoader::new("over")
            .with_interval(Duration::seconds(1))
            .load_documents(&data, "s1,temperature,43.0,-3.0\n", "temperature\n")
            .is_err());
    }

    #[test]
    fn unknown_sensor_in_data_is_rejected() {
        let data = "sX,temperature,2016-03-01 00:00:00,1\n";
        let err = DatasetLoader::new("unknown")
            .load_documents(data, "s1,temperature,43.0,-3.0\n", "temperature\n")
            .unwrap_err();
        assert!(matches!(err, CsvError::Model(_)));
    }

    #[test]
    fn single_timestamp_defaults_to_one_hour() {
        let data = "s1,temperature,2016-03-01 00:00:00,1\n";
        let ds = DatasetLoader::new("single")
            .load_documents(data, "s1,temperature,43.0,-3.0\n", "temperature\n")
            .unwrap();
        assert_eq!(ds.timestamp_count(), 1);
        assert_eq!(ds.grid().interval(), Duration::hours(1));
    }

    #[test]
    fn append_extends_loaded_dataset_through_same_rows() {
        let mut ds = DatasetLoader::new("santander-mini")
            .load_documents(&data_doc(), LOCATIONS, ATTRIBUTES)
            .unwrap();
        assert_eq!(ds.timestamp_count(), 6);
        // An append chunk: two more hours for s1, one (with a null) for s2.
        let tail = "id,attribute,time,data\n\
s1,temperature,2016-03-01 06:00:00,16\n\
s1,temperature,2016-03-01 07:00:00,17\n\
s2,traffic,2016-03-01 06:00:00,null\n";
        let batch = DataBatch::parse(tail).unwrap();
        let stats = DatasetLoader::append(&mut ds, &[batch]).unwrap();
        assert_eq!(stats.new_timestamps, 2);
        assert_eq!(stats.measurements, 3);
        assert_eq!(ds.timestamp_count(), 8);
        let temp = ds.attributes().id_of("temperature").unwrap();
        let s1 = ds.index_of(&SensorId::new("s1"), temp).unwrap();
        assert_eq!(ds.series(s1).get(7), Some(17.0));
        // s2 was silent at hour 7: missing-filled.
        let traffic = ds.attributes().id_of("traffic").unwrap();
        let s2 = ds.index_of(&SensorId::new("s2"), traffic).unwrap();
        assert_eq!(ds.series(s2).get(6), None);
        assert_eq!(ds.series(s2).get(7), None);
        assert_eq!(ds.append_bases(), &[6]);
        // Rows inside the existing grid are rejected as an append.
        let stale = DataBatch::parse("s1,temperature,2016-03-01 02:00:00,9\n").unwrap();
        assert!(matches!(
            DatasetLoader::append(&mut ds, &[stale]),
            Err(CsvError::Model(_))
        ));
    }

    #[test]
    fn empty_data_is_error() {
        let err = DatasetLoader::new("empty")
            .load_documents("", LOCATIONS, ATTRIBUTES)
            .unwrap_err();
        assert!(matches!(err, CsvError::Empty("data.csv")));
    }

    // ----- chunk semantics against the row-at-a-time assembly ------------

    /// The row-at-a-time assembly the batch path replaced: every line
    /// through `parse_line`, the grid from a `BTreeSet` of timestamps, one
    /// `add_measurement` per row. Batch assembly must match it bit for bit,
    /// errors included.
    fn reference_load(
        data: &str,
        locations: &str,
        attributes: &str,
        interval: Option<Duration>,
    ) -> Result<Dataset, CsvError> {
        let attributes = attribute_csv::parse_document(attributes)?;
        let locations = location_csv::parse_document(locations)?;
        let mut rows = Vec::new();
        for (line, fields) in CsvReader::new(data) {
            let fields = fields?;
            if data_csv::is_header(&fields) {
                continue;
            }
            if fields.len() != 4 {
                return Err(CsvError::WrongFieldCount {
                    file: "data.csv",
                    line,
                    expected: 4,
                    actual: fields.len(),
                });
            }
            let time = Timestamp::parse(&fields[2]).map_err(|_| CsvError::BadField {
                file: "data.csv",
                line,
                field: "time",
                value: fields[2].clone(),
            })?;
            let value = data_csv::parse_value(&fields[3], line)?;
            rows.push((
                SensorId::new(fields[0].clone()),
                fields[1].trim().to_string(),
                time,
                value,
            ));
        }
        if rows.is_empty() {
            return Err(CsvError::Empty("data.csv"));
        }
        let times: BTreeSet<Timestamp> = rows.iter().map(|r| r.2).collect();
        let first = *times.iter().next().unwrap();
        let last = *times.iter().next_back().unwrap();
        let interval = interval.unwrap_or_else(|| {
            let g = times
                .iter()
                .fold(0, |g, t| gcd(g, t.epoch_seconds() - first.epoch_seconds()));
            if g == 0 {
                Duration::hours(1)
            } else {
                Duration::seconds(g)
            }
        });
        for t in &times {
            if (t.epoch_seconds() - first.epoch_seconds()) % interval.as_secs() != 0 {
                return Err(CsvError::IrregularTimestamps(format!(
                    "timestamp {t} is not a multiple of {}s after {first}",
                    interval.as_secs()
                )));
            }
        }
        let len =
            ((last.epoch_seconds() - first.epoch_seconds()) / interval.as_secs()) as usize + 1;
        let mut builder = DatasetBuilder::new("chunks");
        builder.set_grid(TimeGrid::new(first, interval, len)?);
        for a in &attributes {
            builder.add_attribute(a);
        }
        for loc in &locations {
            builder.add_sensor(loc.id.clone(), &loc.attribute, loc.location)?;
        }
        for (id, attribute, time, value) in &rows {
            builder.add_measurement(id, attribute, *time, *value)?;
        }
        Ok(builder.build()?)
    }

    /// Everything observable about a dataset: grid, attribute names, and
    /// each sensor with its values as raw bits (so `NaN` payloads count).
    type Observed = (TimeGrid, Vec<String>, Vec<(Sensor, Vec<u64>)>);

    fn bits(ds: &Dataset) -> Observed {
        let series = ds
            .iter()
            .map(|ss| {
                let values = ss.series.chunks().flatten().map(|v| v.to_bits()).collect();
                (ss.sensor.clone(), values)
            })
            .collect();
        (
            ds.grid().clone(),
            ds.attributes().names().map(str::to_string).collect(),
            series,
        )
    }

    const CHUNK_LOCATIONS: &str = "id,attribute,lat,lon\n\
s0,temperature,43.46,-3.80\n\
s1,temperature,43.47,-3.79\n\
s1,traffic,43.47,-3.79\n\
s2,traffic,43.48,-3.78\n\
idle,traffic,43.49,-3.77\n";

    const CHUNK_ATTRIBUTES: &str = "temperature\ntraffic\nhumidity\n";

    /// Sensor-major (`time_major = false`, how `DatasetWriter` writes) or
    /// time-major rows over 48 half-hourly points, with nulls, omitted
    /// rows, a value later overwritten by `null`, and `-nan`.
    fn chunk_doc(time_major: bool) -> String {
        let keys = [
            ("s0", "temperature"),
            ("s1", "temperature"),
            ("s1", "traffic"),
            ("s2", "traffic"),
        ];
        let mut rows = Vec::new();
        for (k, (id, attr)) in keys.iter().enumerate() {
            for i in 0..48 {
                let t =
                    Timestamp::parse("2016-03-01 00:00:00").unwrap() + Duration::minutes(30 * i);
                let value = match (i as usize + k) % 7 {
                    0 => "null".to_string(),
                    3 if k == 2 => continue,
                    5 if k == 3 => "-nan".to_string(),
                    _ => format!("{}", (i * 7 + k as i64) as f64 * 0.37),
                };
                rows.push((i, k, format!("{id},{attr},{},{value}", t.format())));
                if i == 11 {
                    rows.push((i, k, format!("{id},{attr},{},null", t.format())));
                }
            }
        }
        if time_major {
            rows.sort_by_key(|(i, k, _)| (*i, *k));
        }
        let mut doc = String::from("id,attribute,time,data\n");
        for (_, _, line) in rows {
            doc.push_str(&line);
            doc.push('\n');
        }
        doc
    }

    /// Accepts `order` (chunk indices, repeats allowed) and assembles.
    fn assemble_chunks(chunks: &[Chunk], order: &[usize]) -> Result<Dataset, CsvError> {
        let mut up = ChunkedUploader::new();
        for &i in order {
            up.accept(&chunks[i])?;
        }
        let attributes = attribute_csv::parse_document(CHUNK_ATTRIBUTES)?;
        let locations = location_csv::parse_document(CHUNK_LOCATIONS)?;
        DatasetLoader::new("chunks").assemble(&attributes, &locations, &up.finish()?)
    }

    #[test]
    fn out_of_order_and_resent_chunks_match_row_at_a_time_assembly() {
        for time_major in [false, true] {
            let doc = chunk_doc(time_major);
            let want =
                bits(&reference_load(&doc, CHUNK_LOCATIONS, CHUNK_ATTRIBUTES, None).unwrap());
            assert_eq!(want.0.interval(), Duration::minutes(30));
            let whole = DatasetLoader::new("chunks")
                .load_documents(&doc, CHUNK_LOCATIONS, CHUNK_ATTRIBUTES)
                .unwrap();
            assert_eq!(bits(&whole), want);
            for chunk_lines in [1, 7, 50, 1_000] {
                let chunks = split_into_chunks(&doc, chunk_lines);
                let n = chunks.len();
                let in_order: Vec<usize> = (0..n).collect();
                let reversed: Vec<usize> = (0..n).rev().collect();
                let resent: Vec<usize> = (0..n).chain((0..n).step_by(3)).collect();
                for order in [in_order, reversed, resent] {
                    let got = assemble_chunks(&chunks, &order).unwrap();
                    assert_eq!(
                        bits(&got),
                        want,
                        "time_major={time_major} lines={chunk_lines}"
                    );
                }
            }
        }
    }

    #[test]
    fn resent_chunk_replaces_the_earlier_rows_and_keys() {
        let doc = chunk_doc(false);
        let want = bits(&reference_load(&doc, CHUNK_LOCATIONS, CHUNK_ATTRIBUTES, None).unwrap());
        let mut chunks = split_into_chunks(&doc, 40);
        let original = chunks[1].clone();
        // A first copy of chunk 1 with other values, and with a row whose
        // key no chunk sent later uses and that would fail assembly.
        let mut stale = original.clone();
        stale.content = stale.content.replace(",null", ",1e9");
        stale
            .content
            .push_str("ghost,temperature,2016-03-01 00:00:00,1\n");
        chunks.push(stale);
        let stale_index = chunks.len() - 1;
        chunks[stale_index].index = 1;
        assert!(matches!(
            assemble_chunks(&chunks, &[0, stale_index, 2, 3, 4]),
            Err(CsvError::Model(ModelError::UnknownSensor(ref s))) if s == "ghost:temperature"
        ));
        let got = assemble_chunks(&chunks, &[stale_index, 0, 2, 1, 3, 4]).unwrap();
        assert_eq!(bits(&got), want);
    }

    #[test]
    fn every_rejection_keeps_its_error() {
        let doc = chunk_doc(false);
        let chunks = split_into_chunks(&doc, 40);
        let load = |data: &str| {
            let got = DatasetLoader::new("chunks").load_documents(
                data,
                CHUNK_LOCATIONS,
                CHUNK_ATTRIBUTES,
            );
            let want = reference_load(data, CHUNK_LOCATIONS, CHUNK_ATTRIBUTES, None);
            assert_eq!(got.as_ref().err(), want.as_ref().err(), "{data:?}");
            got.unwrap_err()
        };
        let with_line = |line: &str| format!("{}{line}\n{}", chunks[0].content, chunks[1].content);
        // Rows are rejected where they are parsed, with their line.
        assert!(matches!(
            load(&with_line("s0,temperature,2016-03-01 00:00:00")),
            CsvError::WrongFieldCount {
                line: 41,
                actual: 3,
                ..
            }
        ));
        assert!(matches!(
            load(&with_line("s0,temperature,2016-03-01 25:00:00,1")),
            CsvError::BadField {
                line: 41,
                field: "time",
                ..
            }
        ));
        assert!(matches!(
            load(&with_line("s0,temperature,2016-03-01 00:00:00,warm")),
            CsvError::BadField {
                line: 41,
                field: "data",
                ..
            }
        ));
        let bad_value = Chunk {
            index: 1,
            total: chunks.len(),
            content: "s0,temperature,2016-03-01 00:00:00,warm\n".into(),
        };
        assert!(matches!(
            ChunkedUploader::new().accept(&bad_value),
            Err(CsvError::BadField {
                line: 1,
                field: "data",
                ..
            })
        ));
        // Unknown keys: the first offending row in chunk order is named,
        // however the chunks arrived.
        let mut unknown = chunks.clone();
        unknown[1]
            .content
            .insert_str(0, "sB,temperature,2016-03-01 00:00:00,1\n");
        unknown[2]
            .content
            .insert_str(0, "sA,temperature,2016-03-01 00:00:00,1\n");
        let whole: String = unknown.iter().map(|c| c.content.as_str()).collect();
        let first_unknown = CsvError::Model(ModelError::UnknownSensor("sB:temperature".into()));
        assert_eq!(load(&whole), first_unknown);
        let reversed: Vec<usize> = (0..unknown.len()).rev().collect();
        assert_eq!(
            assemble_chunks(&unknown, &reversed).unwrap_err(),
            first_unknown
        );
        assert_eq!(
            load(&with_line("s0,pressure,2016-03-01 00:00:00,1")),
            CsvError::Model(ModelError::UnknownAttribute("pressure".into()))
        );
        assert_eq!(
            load(&with_line("idle,temperature,2016-03-01 00:00:00,1")),
            CsvError::Model(ModelError::UnknownSensor("idle:temperature".into()))
        );
        // A forced interval the timestamps do not fit names the earliest
        // misfit, as the row-at-a-time loader did.
        let hourly = DatasetLoader::new("chunks")
            .with_interval(Duration::hours(1))
            .load_documents(&doc, CHUNK_LOCATIONS, CHUNK_ATTRIBUTES)
            .unwrap_err();
        let reference = reference_load(
            &doc,
            CHUNK_LOCATIONS,
            CHUNK_ATTRIBUTES,
            Some(Duration::hours(1)),
        );
        assert_eq!(Err(hourly.clone()), reference.map(|_| ()));
        assert!(matches!(hourly, CsvError::IrregularTimestamps(ref m) if m.contains("00:30:00")));
        // An upload missing a chunk cannot finish.
        let mut up = ChunkedUploader::new();
        up.accept(&chunks[1]).unwrap();
        assert!(matches!(
            up.finish(),
            Err(CsvError::BadHeader { ref found, .. }) if found.contains("missing chunks [0")
        ));
    }
}
