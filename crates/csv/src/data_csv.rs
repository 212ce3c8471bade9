//! Parsing of `data.csv` into compact batches.
//!
//! Format (from the paper):
//!
//! ```text
//! id,attribute,time,data
//! 00000,temperature,2016-03-01 00:00:00,null
//! 00000,temperature,2016-03-01 01:00:00,9.87
//! ```
//!
//! The header row is optional: chunked uploads only carry it in the first
//! chunk, so the parser recognises and skips it wherever it appears.
//!
//! A document (or one upload chunk) parses into a [`DataBatch`]: the
//! distinct `(sensor id, attribute)` keys its rows name, interned once per
//! batch, plus one compact `(key, time, value)` reading per row. Upload,
//! append and WAL replay all parse through [`DataBatch::parse`].

use crate::error::CsvError;
use crate::reader::parse_line;
use miscela_model::{AppendRowRef, SensorId, Timestamp};
use std::collections::HashMap;

/// One measurement row of a [`DataBatch`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Reading {
    /// Index of the row's `(sensor id, attribute)` pair in
    /// [`DataBatch::keys`].
    pub(crate) key: usize,
    /// Measurement timestamp.
    pub(crate) time: Timestamp,
    /// Measured value; `None` corresponds to the literal `null`.
    pub(crate) value: Option<f64>,
}

/// The rows of one parsed `data.csv` document or chunk.
///
/// Keys are local to the batch: a re-sent chunk replaces its batch, keys
/// and all, so a key only a replaced chunk named is forgotten with it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DataBatch {
    keys: Vec<(SensorId, String)>,
    readings: Vec<Reading>,
}

impl DataBatch {
    /// Parses a whole `data.csv` document or chunk (header optional).
    ///
    /// Lines without a `"` are split in place, borrowing their fields; only
    /// quoted lines go through [`parse_line`]. Either way a line yields the
    /// same fields, so the same rows and the same errors.
    pub fn parse(content: &str) -> Result<DataBatch, CsvError> {
        let mut scanner = Scanner::default();
        for (i, line) in content.split('\n').enumerate() {
            let line = line.trim_end_matches('\r');
            if line.trim().is_empty() {
                continue;
            }
            let line_no = i + 1;
            match split_unquoted(line) {
                Some((fields, count)) => scanner.row(&fields, count, line_no)?,
                None => {
                    let owned = parse_line(line, line_no)?;
                    let mut fields = [""; 4];
                    for (slot, field) in fields.iter_mut().zip(&owned) {
                        *slot = field;
                    }
                    scanner.row(&fields, owned.len(), line_no)?;
                }
            }
        }
        Ok(scanner.batch)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.readings.len()
    }

    /// Whether the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.readings.is_empty()
    }

    /// The distinct `(sensor id, attribute)` pairs, in order of first use.
    pub fn keys(&self) -> &[(SensorId, String)] {
        &self.keys
    }

    /// The rows, in document order.
    pub(crate) fn readings(&self) -> &[Reading] {
        &self.readings
    }

    /// The rows in document order, with their keys resolved to strings.
    pub fn rows(&self) -> impl Iterator<Item = AppendRowRef<'_>> + '_ {
        self.readings.iter().map(move |r| {
            let (sensor, attribute) = &self.keys[r.key];
            AppendRowRef {
                sensor,
                attribute,
                time: r.time,
                value: r.value,
            }
        })
    }
}

/// Splits a line without quotes at its commas: the first four fields,
/// trimmed as [`parse_line`] trims them, and the field count. `None` when
/// the line holds a `"` and needs [`parse_line`].
fn split_unquoted(line: &str) -> Option<([&str; 4], usize)> {
    let mut fields = [""; 4];
    let mut count = 0;
    let mut start = 0;
    for (i, b) in line.bytes().enumerate() {
        match b {
            b'"' => return None,
            b',' => {
                if let Some(slot) = fields.get_mut(count) {
                    *slot = line[start..i].trim();
                }
                count += 1;
                start = i + 1;
            }
            _ => {}
        }
    }
    if let Some(slot) = fields.get_mut(count) {
        *slot = line[start..].trim();
    }
    Some((fields, count + 1))
}

/// Accumulates one [`DataBatch`], interning keys as rows arrive.
#[derive(Default)]
struct Scanner {
    batch: DataBatch,
    /// Key of every interned pair, by sensor id then attribute.
    index: HashMap<String, HashMap<String, usize>>,
    /// The previous row's key: `data.csv` is written sensor by sensor, so
    /// most rows repeat it and skip the hash lookups.
    last: Option<usize>,
}

impl Scanner {
    /// Adds the row whose first four fields are `fields` (of `count`).
    fn row(&mut self, fields: &[&str; 4], count: usize, line: usize) -> Result<(), CsvError> {
        if count != 4 {
            return Err(CsvError::WrongFieldCount {
                file: "data.csv",
                line,
                expected: 4,
                actual: count,
            });
        }
        if is_header(fields) {
            return Ok(());
        }
        let time = Timestamp::parse(fields[2]).map_err(|_| CsvError::BadField {
            file: "data.csv",
            line,
            field: "time",
            value: fields[2].to_string(),
        })?;
        let value = parse_value(fields[3], line)?;
        let key = self.intern(fields[0].trim(), fields[1].trim());
        self.batch.readings.push(Reading { key, time, value });
        Ok(())
    }

    fn intern(&mut self, id: &str, attribute: &str) -> usize {
        if let Some(k) = self.last {
            let (last_id, last_attribute) = &self.batch.keys[k];
            if last_id.as_str() == id && last_attribute == attribute {
                return k;
            }
        }
        let k = match self
            .index
            .get(id)
            .and_then(|by_attr| by_attr.get(attribute))
        {
            Some(&k) => k,
            None => {
                let k = self.batch.keys.len();
                self.batch
                    .keys
                    .push((SensorId::new(id), attribute.to_string()));
                self.index
                    .entry(id.to_string())
                    .or_default()
                    .insert(attribute.to_string(), k);
                k
            }
        };
        self.last = Some(k);
        k
    }
}

/// Whether a parsed row is the `id,attribute,time,data` header.
pub fn is_header<S: AsRef<str>>(fields: &[S]) -> bool {
    let names = ["id", "attribute", "time", "data"];
    fields.len() == names.len()
        && fields
            .iter()
            .zip(names)
            .all(|(field, name)| field.as_ref().eq_ignore_ascii_case(name))
}

/// Parses the value field: `null` (case-insensitive) or empty means missing.
pub fn parse_value(raw: &str, line: usize) -> Result<Option<f64>, CsvError> {
    let raw = raw.trim();
    if raw.is_empty() || raw.eq_ignore_ascii_case("null") || raw.eq_ignore_ascii_case("nan") {
        return Ok(None);
    }
    raw.parse::<f64>()
        .map(Some)
        .map_err(|_| CsvError::BadField {
            file: "data.csv",
            line,
            field: "data",
            value: raw.to_string(),
        })
}

/// Formats one row back into its CSV representation.
pub fn format_row(row: &AppendRowRef<'_>) -> String {
    let value = match row.value {
        Some(v) => format_float(v),
        None => "null".to_string(),
    };
    format!(
        "{},{},{},{}",
        row.sensor,
        row.attribute,
        row.time.format(),
        value
    )
}

/// Formats a float the way the paper's files do: plain decimal, no
/// exponent, trailing zeros trimmed.
pub fn format_float(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{:.1}", v)
    } else {
        let s = format!("{:.6}", v);
        let s = s.trim_end_matches('0');
        let s = s.trim_end_matches('.');
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "id,attribute,time,data\n\
00000,temperature,2016-03-01 00:00:00,null\n\
00000,temperature,2016-03-01 01:00:00,9.87\n\
00001,traffic,2016-03-01 00:00:00,120\n";

    #[test]
    fn parses_paper_sample() {
        let batch = DataBatch::parse(SAMPLE).unwrap();
        let rows: Vec<_> = batch.rows().collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].value, None);
        assert_eq!(rows[1].value, Some(9.87));
        assert_eq!(rows[1].attribute, "temperature");
        assert_eq!(rows[2].sensor.as_str(), "00001");
        assert_eq!(rows[2].time.format(), "2016-03-01 00:00:00");
        // Two distinct (sensor, attribute) pairs, interned once each.
        assert_eq!(batch.keys().len(), 2);
        let keys: Vec<usize> = batch.readings().iter().map(|r| r.key).collect();
        assert_eq!(keys, vec![0, 0, 1]);
    }

    #[test]
    fn header_detection() {
        assert!(is_header(&["id", "attribute", "time", "data"]));
        assert!(is_header(&["ID", "Attribute", "Time", "Data"]));
        assert!(!is_header(&["00000", "temperature", "t", "1"]));
        assert!(!is_header(&["id", "attribute", "time"]));
    }

    #[test]
    fn header_in_middle_is_skipped() {
        // A re-sent chunk may repeat the header.
        let doc = "00000,temperature,2016-03-01 00:00:00,1.0\nid,attribute,time,data\n00000,temperature,2016-03-01 01:00:00,2.0\n";
        assert_eq!(DataBatch::parse(doc).unwrap().len(), 2);
    }

    #[test]
    fn quoted_lines_take_the_full_parser() {
        let doc = "\"s,1\", temperature ,2016-03-01 00:00:00,\"1.5\"\n\
s2,\"say \"\"hi\"\"\",2016-03-01 00:00:00,2\n\
\"ID\",attribute,time,data\n";
        let batch = DataBatch::parse(doc).unwrap();
        let rows: Vec<_> = batch.rows().collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].sensor.as_str(), "s,1");
        assert_eq!(rows[0].attribute, "temperature");
        assert_eq!(rows[0].value, Some(1.5));
        assert_eq!(rows[1].attribute, "say \"hi\"");
        assert!(matches!(
            DataBatch::parse("\"s1,temperature,2016-03-01 00:00:00,1\n"),
            Err(CsvError::UnterminatedQuote { line: 1 })
        ));
    }

    #[test]
    fn interleaved_keys_are_interned_once() {
        let mut doc = String::new();
        for h in 0..3 {
            for s in ["a", "b", "a2"] {
                doc.push_str(&format!("{s},x,2016-03-01 {h:02}:00:00,{h}\r\n"));
            }
        }
        let batch = DataBatch::parse(&doc).unwrap();
        assert_eq!(batch.len(), 9);
        assert_eq!(batch.keys().len(), 3);
        let keys: Vec<usize> = batch.readings().iter().map(|r| r.key).collect();
        assert_eq!(keys, vec![0, 1, 2, 0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn null_and_empty_values() {
        assert_eq!(parse_value("null", 1).unwrap(), None);
        assert_eq!(parse_value("NULL", 1).unwrap(), None);
        assert_eq!(parse_value("", 1).unwrap(), None);
        assert_eq!(parse_value("3.5", 1).unwrap(), Some(3.5));
        assert!(parse_value("abc", 1).is_err());
    }

    #[test]
    fn wrong_field_count() {
        for (doc, actual) in [
            ("00000,temperature,2016-03-01 00:00:00\n", 3),
            ("00000,temperature,2016-03-01 00:00:00,1,2\n", 5),
            ("\"00000\",temperature,2016-03-01 00:00:00\n", 3),
        ] {
            assert!(matches!(
                DataBatch::parse(doc),
                Err(CsvError::WrongFieldCount { actual: a, line: 1, .. }) if a == actual
            ));
        }
    }

    #[test]
    fn bad_timestamp_and_value_report_their_line() {
        let doc = "\n00000,temperature,not-a-time,1.0\n";
        assert_eq!(
            DataBatch::parse(doc).unwrap_err(),
            CsvError::BadField {
                file: "data.csv",
                line: 2,
                field: "time",
                value: "not-a-time".into(),
            }
        );
        let doc = "00000,temperature,2016-03-01 00:00:00, abc \n";
        assert!(matches!(
            DataBatch::parse(doc),
            Err(CsvError::BadField { field: "data", line: 1, ref value, .. }) if value == "abc"
        ));
    }

    #[test]
    fn row_round_trip() {
        let batch = DataBatch::parse(SAMPLE).unwrap();
        for row in batch.rows() {
            let line = format_row(&row);
            let reparsed = DataBatch::parse(&line).unwrap();
            assert_eq!(reparsed.rows().next().unwrap(), row);
        }
    }

    #[test]
    fn float_formatting() {
        assert_eq!(format_float(9.87), "9.87");
        assert_eq!(format_float(120.0), "120.0");
        assert_eq!(format_float(0.123456789), "0.123457");
    }
}
