//! Timestamps, durations, time ranges and regular time grids.
//!
//! The paper's `data.csv` uses `YYYY-MM-DD HH:MM:SS` timestamps and requires
//! that "timestamps must be the same time intervals" — i.e. every sensor in a
//! dataset reports on the same regular grid. This module implements a small
//! proleptic-Gregorian calendar (no external date/time crate), a [`Timestamp`]
//! stored as seconds since the Unix epoch, and the [`TimeGrid`] that datasets
//! and series share.

use crate::error::ModelError;
use std::fmt;
use std::ops::{Add, Sub};

/// Seconds in one minute/hour/day, as `i64`.
pub const SECS_PER_MINUTE: i64 = 60;
/// Seconds in one hour.
pub const SECS_PER_HOUR: i64 = 3_600;
/// Seconds in one day.
pub const SECS_PER_DAY: i64 = 86_400;

/// A signed length of time in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub i64);

impl Duration {
    /// A duration of `n` seconds.
    pub const fn seconds(n: i64) -> Self {
        Duration(n)
    }
    /// A duration of `n` minutes.
    pub const fn minutes(n: i64) -> Self {
        Duration(n * SECS_PER_MINUTE)
    }
    /// A duration of `n` hours.
    pub const fn hours(n: i64) -> Self {
        Duration(n * SECS_PER_HOUR)
    }
    /// A duration of `n` days.
    pub const fn days(n: i64) -> Self {
        Duration(n * SECS_PER_DAY)
    }
    /// The duration in whole seconds.
    pub const fn as_secs(self) -> i64 {
        self.0
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        if s % SECS_PER_DAY == 0 {
            write!(f, "{}d", s / SECS_PER_DAY)
        } else if s % SECS_PER_HOUR == 0 {
            write!(f, "{}h", s / SECS_PER_HOUR)
        } else if s % SECS_PER_MINUTE == 0 {
            write!(f, "{}m", s / SECS_PER_MINUTE)
        } else {
            write!(f, "{s}s")
        }
    }
}

/// An absolute point in time: seconds since `1970-01-01 00:00:00` (UTC,
/// proleptic Gregorian, no leap seconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub i64);

/// Days from civil date algorithm (Howard Hinnant). Returns days since
/// 1970-01-01 for a (year, month, day) civil date.
fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = (m as i64 + 9) % 12; // Mar=0 .. Feb=11
    let doy = (153 * mp + 2) / 5 + d as i64 - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Inverse of [`days_from_civil`]: civil date for days since 1970-01-01.
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Number of days in a month of a given year.
fn days_in_month(year: i64, month: u32) -> u32 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if (year % 4 == 0 && year % 100 != 0) || year % 400 == 0 {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

impl Timestamp {
    /// The Unix epoch.
    pub const EPOCH: Timestamp = Timestamp(0);

    /// Creates a timestamp from raw epoch seconds.
    pub const fn from_epoch_seconds(secs: i64) -> Self {
        Timestamp(secs)
    }

    /// Epoch seconds.
    pub const fn epoch_seconds(self) -> i64 {
        self.0
    }

    /// Builds a timestamp from a civil date and time of day.
    ///
    /// Returns an error when any component is out of range (e.g. month 13,
    /// Feb 30, hour 24), including a year outside the paper's four-digit
    /// `YYYY` (`0000`–`9999`) — which also keeps the epoch-second
    /// arithmetic far from overflow.
    pub fn from_ymd_hms(
        year: i64,
        month: u32,
        day: u32,
        hour: u32,
        minute: u32,
        second: u32,
    ) -> Result<Self, ModelError> {
        let valid = (0..=9999).contains(&year)
            && (1..=12).contains(&month)
            && day >= 1
            && day <= days_in_month(year, month)
            && hour < 24
            && minute < 60
            && second < 60;
        if !valid {
            return Err(ModelError::InvalidTimestamp(format!(
                "{year:04}-{month:02}-{day:02} {hour:02}:{minute:02}:{second:02}"
            )));
        }
        let days = days_from_civil(year, month, day);
        Ok(Timestamp(
            days * SECS_PER_DAY
                + hour as i64 * SECS_PER_HOUR
                + minute as i64 * SECS_PER_MINUTE
                + second as i64,
        ))
    }

    /// Parses the paper's `YYYY-MM-DD HH:MM:SS` format. A bare `YYYY-MM-DD`
    /// is accepted as midnight. A `T` separator is also tolerated.
    ///
    /// Text in the exact 19-byte layout, which is every `data.csv`
    /// timestamp the system writes, is read by digit offsets; anything
    /// else, or a layout-shaped value [`Timestamp::from_ymd_hms`] rejects,
    /// takes the general path. Both give the same value or error.
    pub fn parse(s: &str) -> Result<Self, ModelError> {
        match Self::parse_fixed_layout(s) {
            Some(t) => Ok(t),
            None => Self::parse_general(s),
        }
    }

    /// Reads `YYYY-MM-DD HH:MM:SS` from fixed offsets, or `None` when `s`
    /// is not exactly that layout of ASCII digits or its fields are out of
    /// range.
    fn parse_fixed_layout(s: &str) -> Option<Self> {
        let &[y0, y1, y2, y3, b'-', mo0, mo1, b'-', d0, d1, b' ', h0, h1, b':', mi0, mi1, b':', s0, s1] =
            s.as_bytes()
        else {
            return None;
        };
        let digit = |b: u8| {
            let d = b.wrapping_sub(b'0');
            (d < 10).then_some(u32::from(d))
        };
        let pair = |hi: u8, lo: u8| Some(digit(hi)? * 10 + digit(lo)?);
        let year = pair(y0, y1)? * 100 + pair(y2, y3)?;
        Self::from_ymd_hms(
            i64::from(year),
            pair(mo0, mo1)?,
            pair(d0, d1)?,
            pair(h0, h1)?,
            pair(mi0, mi1)?,
            pair(s0, s1)?,
        )
        .ok()
    }

    /// The general parser behind [`Timestamp::parse`]: trims, splits the
    /// date from an optional time at a space or `T`, and reads each field
    /// with `str::parse`.
    fn parse_general(s: &str) -> Result<Self, ModelError> {
        let s = s.trim();
        let err = || ModelError::InvalidTimestamp(s.to_string());
        let (date_part, time_part) = match s.split_once(' ').or_else(|| s.split_once('T')) {
            Some((d, t)) => (d, Some(t)),
            None => (s, None),
        };
        let mut dit = date_part.split('-');
        let year: i64 = dit.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        let month: u32 = dit.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        let day: u32 = dit.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        if dit.next().is_some() {
            return Err(err());
        }
        let (hour, minute, second) = match time_part {
            None => (0, 0, 0),
            Some(t) => {
                let mut tit = t.split(':');
                let h: u32 = tit.next().ok_or_else(err)?.parse().map_err(|_| err())?;
                let m: u32 = tit.next().ok_or_else(err)?.parse().map_err(|_| err())?;
                let sec: u32 = match tit.next() {
                    Some(x) => x.parse().map_err(|_| err())?,
                    None => 0,
                };
                if tit.next().is_some() {
                    return Err(err());
                }
                (h, m, sec)
            }
        };
        Timestamp::from_ymd_hms(year, month, day, hour, minute, second).map_err(|_| err())
    }

    /// The civil date `(year, month, day)` of this timestamp.
    pub fn ymd(self) -> (i64, u32, u32) {
        civil_from_days(self.0.div_euclid(SECS_PER_DAY))
    }

    /// The time of day `(hour, minute, second)`.
    pub fn hms(self) -> (u32, u32, u32) {
        let sod = self.0.rem_euclid(SECS_PER_DAY);
        (
            (sod / SECS_PER_HOUR) as u32,
            ((sod % SECS_PER_HOUR) / SECS_PER_MINUTE) as u32,
            (sod % SECS_PER_MINUTE) as u32,
        )
    }

    /// Hour of day in `[0, 24)` as a float, including fractional minutes.
    /// Used by the diurnal-cycle data generators.
    pub fn hour_of_day(self) -> f64 {
        self.0.rem_euclid(SECS_PER_DAY) as f64 / SECS_PER_HOUR as f64
    }

    /// Day-of-week: 0 = Monday .. 6 = Sunday (1970-01-01 was a Thursday).
    pub fn weekday(self) -> u32 {
        let days = self.0.div_euclid(SECS_PER_DAY);
        ((days + 3).rem_euclid(7)) as u32
    }

    /// Whether the timestamp falls on a Saturday or Sunday.
    pub fn is_weekend(self) -> bool {
        self.weekday() >= 5
    }

    /// Formats as the paper's `YYYY-MM-DD HH:MM:SS`.
    pub fn format(self) -> String {
        let (y, mo, d) = self.ymd();
        let (h, mi, s) = self.hms();
        format!("{y:04}-{mo:02}-{d:02} {h:02}:{mi:02}:{s:02}")
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.format())
    }
}

impl Add<Duration> for Timestamp {
    type Output = Timestamp;
    fn add(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0 + rhs.0)
    }
}

impl Sub<Duration> for Timestamp {
    type Output = Timestamp;
    fn sub(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0 - rhs.0)
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = Duration;
    fn sub(self, rhs: Timestamp) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

/// A half-open time range `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimeRange {
    /// Inclusive start.
    pub start: Timestamp,
    /// Exclusive end.
    pub end: Timestamp,
}

impl TimeRange {
    /// Creates a range; errors when `end < start`.
    pub fn new(start: Timestamp, end: Timestamp) -> Result<Self, ModelError> {
        if end < start {
            return Err(ModelError::InvalidRange {
                start: start.0,
                end: end.0,
            });
        }
        Ok(TimeRange { start, end })
    }

    /// Length of the range.
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }

    /// Whether `t` lies in `[start, end)`.
    pub fn contains(&self, t: Timestamp) -> bool {
        t >= self.start && t < self.end
    }

    /// Intersection with another range, or `None` when disjoint.
    pub fn intersect(&self, other: &TimeRange) -> Option<TimeRange> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        (start < end).then_some(TimeRange { start, end })
    }
}

impl fmt::Display for TimeRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

/// A regular grid of timestamps: `start`, `start + interval`, ...,
/// `start + (len-1) * interval`.
///
/// Every series in a dataset shares the dataset's grid, which is what makes
/// the paper's definition of co-evolution ("change values simultaneously",
/// i.e. at the same grid index) well-defined.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TimeGrid {
    start: Timestamp,
    interval: Duration,
    len: usize,
}

impl TimeGrid {
    /// Creates a grid; the interval must be strictly positive and `len` may
    /// be zero (an empty grid).
    pub fn new(start: Timestamp, interval: Duration, len: usize) -> Result<Self, ModelError> {
        if interval.0 <= 0 {
            return Err(ModelError::InvalidInterval(interval.0));
        }
        Ok(TimeGrid {
            start,
            interval,
            len,
        })
    }

    /// Builds the grid covering `[start, end)` at the given interval.
    pub fn covering(range: TimeRange, interval: Duration) -> Result<Self, ModelError> {
        if interval.0 <= 0 {
            return Err(ModelError::InvalidInterval(interval.0));
        }
        let span = range.duration().0;
        let len = (span + interval.0 - 1) / interval.0;
        TimeGrid::new(range.start, interval, len.max(0) as usize)
    }

    /// First timestamp of the grid.
    pub fn start(&self) -> Timestamp {
        self.start
    }

    /// Grid interval.
    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the grid has no points.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Timestamp at index `i`, if in range.
    pub fn at(&self, i: usize) -> Option<Timestamp> {
        (i < self.len).then(|| Timestamp(self.start.0 + i as i64 * self.interval.0))
    }

    /// Index of timestamp `t` if it lies exactly on the grid and in range.
    pub fn index_of(&self, t: Timestamp) -> Option<usize> {
        let off = t.0 - self.start.0;
        if off < 0 || self.interval.0 <= 0 {
            return None;
        }
        if off % self.interval.0 != 0 {
            return None;
        }
        let idx = (off / self.interval.0) as usize;
        (idx < self.len).then_some(idx)
    }

    /// Index of the grid point at or immediately before `t`, clamped to the
    /// grid. Returns `None` for an empty grid or `t` before the start.
    pub fn floor_index(&self, t: Timestamp) -> Option<usize> {
        if self.len == 0 || t < self.start {
            return None;
        }
        let idx = ((t.0 - self.start.0) / self.interval.0) as usize;
        Some(idx.min(self.len - 1))
    }

    /// The last timestamp on the grid (`None` for an empty grid).
    pub fn end(&self) -> Option<Timestamp> {
        if self.len == 0 {
            None
        } else {
            self.at(self.len - 1)
        }
    }

    /// The covered range `[start, last + interval)`.
    pub fn range(&self) -> TimeRange {
        TimeRange {
            start: self.start,
            end: Timestamp(self.start.0 + self.len as i64 * self.interval.0),
        }
    }

    /// Iterates over all grid timestamps.
    pub fn iter(&self) -> impl Iterator<Item = Timestamp> + '_ {
        (0..self.len).map(move |i| Timestamp(self.start.0 + i as i64 * self.interval.0))
    }

    /// Extends the grid by `additional` points in place, keeping the start
    /// and interval. This is the grid half of the dataset append path: new
    /// sensor readings beyond the current end lengthen the grid without
    /// rebuilding it (existing indices, and therefore every index-keyed
    /// structure downstream, stay valid).
    pub fn extend(&mut self, additional: usize) {
        self.len += additional;
    }

    /// Advances the grid start by `points` intervals in place, shortening
    /// the grid accordingly (clamped to the grid length). This is the grid
    /// half of sliding-window retention: trimming the oldest points moves
    /// the window's left edge forward without touching the interval or the
    /// (index-shifted) remainder.
    pub fn advance(&mut self, points: usize) {
        let points = points.min(self.len);
        self.start = Timestamp(self.start.0 + points as i64 * self.interval.0);
        self.len -= points;
    }

    /// The sub-grid of indices whose timestamps fall in `range`.
    /// Returns `(first_index, len)`.
    pub fn window(&self, range: TimeRange) -> (usize, usize) {
        if self.len == 0 {
            return (0, 0);
        }
        let first = if range.start <= self.start {
            0
        } else {
            let off = range.start.0 - self.start.0;
            ((off + self.interval.0 - 1) / self.interval.0) as usize
        };
        if first >= self.len {
            return (self.len, 0);
        }
        let mut last = self.len;
        if range.end < self.range().end {
            let off = range.end.0 - self.start.0;
            if off <= 0 {
                return (first, 0);
            }
            last = ((off + self.interval.0 - 1) / self.interval.0) as usize;
            last = last.min(self.len);
        }
        (first, last.saturating_sub(first))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_roundtrip() {
        for &(y, m, d) in &[
            (1970, 1, 1),
            (2016, 3, 1),
            (2016, 2, 29),
            (2000, 2, 29),
            (1999, 12, 31),
            (2020, 6, 30),
            (2018, 10, 31),
        ] {
            let days = days_from_civil(y, m, d);
            assert_eq!(civil_from_days(days), (y, m, d), "roundtrip {y}-{m}-{d}");
        }
    }

    #[test]
    fn epoch_is_zero() {
        assert_eq!(Timestamp::from_ymd_hms(1970, 1, 1, 0, 0, 0).unwrap().0, 0);
    }

    #[test]
    fn parse_paper_format() {
        let t = Timestamp::parse("2016-03-01 00:00:00").unwrap();
        assert_eq!(t.format(), "2016-03-01 00:00:00");
        let t2 = Timestamp::parse("2016-03-01 01:00:00").unwrap();
        assert_eq!((t2 - t).as_secs(), 3600);
    }

    #[test]
    fn parse_date_only_and_t_separator() {
        let a = Timestamp::parse("2020-01-01").unwrap();
        let b = Timestamp::parse("2020-01-01T00:00:00").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.hms(), (0, 0, 0));
    }

    #[test]
    fn parse_rejects_garbage() {
        for s in [
            "",
            "hello",
            "2016-13-01 00:00:00",
            "2016-02-30 00:00:00",
            "2016-03-01 24:00:00",
            "2016-03-01 00:61:00",
            "2016/03/01",
        ] {
            assert!(Timestamp::parse(s).is_err(), "{s:?} should fail");
        }
    }

    #[test]
    fn years_outside_four_digits_are_typed_errors() {
        // A huge year would overflow the day-count multiplication (a
        // panic in debug builds, a wrapped instant in release).
        let huge = "99999999999999-01-01 00:00:00";
        assert_eq!(
            Timestamp::parse(huge),
            Err(ModelError::InvalidTimestamp(huge.to_string()))
        );
        for year in [-1, 10_000, i64::MIN, i64::MAX] {
            assert!(
                matches!(
                    Timestamp::from_ymd_hms(year, 1, 1, 0, 0, 0),
                    Err(ModelError::InvalidTimestamp(_))
                ),
                "year {year} should be rejected"
            );
        }
        assert!(Timestamp::parse("0000-01-01 00:00:00").is_ok());
        assert_eq!(
            Timestamp::parse("9999-12-31 23:59:59").unwrap().format(),
            "9999-12-31 23:59:59"
        );
    }

    #[test]
    fn fixed_layout_edges_match_the_general_parser() {
        for s in [
            "2016-03-01 00:00:00",
            "2016-02-29 23:59:59",
            "2015-02-29 00:00:00",
            "1900-02-29 00:00:00",
            "2000-02-29 00:00:00",
            "2016-03-01 24:00:00",
            "2016-03-01 00:00:60",
            "2016-00-01 00:00:00",
            "2016-13-01 00:00:00",
            "0000-01-01 00:00:00",
            "9999-12-31 23:59:59",
            "2016-03-01T00:00:00",
            "+016-03-01 00:00:00",
            "2016-03-01 00:00:0 ",
            " 2016-03-01 00:00:0",
        ] {
            assert_eq!(Timestamp::parse(s), Timestamp::parse_general(s), "{s:?}");
        }
        assert!(Timestamp::parse_fixed_layout("2016-02-29 23:59:59").is_some());
        for general_only in [
            "2016-03-01T00:00:00",
            "+016-03-01 00:00:00",
            "2015-02-29 00:00:00",
        ] {
            assert_eq!(Timestamp::parse_fixed_layout(general_only), None);
        }
    }

    mod fixed_layout_proptest {
        use super::*;
        use proptest::prelude::*;

        /// The layout's alphabet: digits, its separators, and the `T` and
        /// `+` the general parser also reads.
        const ALPHABET: &str = "[0-9\\- :T+]";

        /// A `YYYY-MM-DD HH:MM:SS` text whose fields are often out of
        /// range: Feb 29 of any year, month 00 and 13, hour 24, second 60,
        /// years 0000 and 9999.
        fn layout() -> impl Strategy<Value = String> {
            let year =
                prop_oneof!["0000", "9999", "1900", "2000", "2015", "2016", "2100", "[0-9]{4}"];
            let month = prop_oneof!["00", "02", "12", "13", "[0-1][0-9]", "[0-9]{2}"];
            let day = prop_oneof!["00", "28", "29", "30", "31", "32", "[0-3][0-9]"];
            let hour = prop_oneof!["00", "23", "24", "[0-2][0-9]", "[0-9]{2}"];
            let minute = prop_oneof!["59", "60", "[0-6][0-9]"];
            let second = prop_oneof!["59", "60", "61", "[0-6][0-9]", "[0-9]{2}"];
            let separator = prop_oneof![" ", " ", "T", ALPHABET];
            ((year, month, day), separator, (hour, minute, second))
                .prop_map(|((y, mo, d), sep, (h, mi, s))| format!("{y}-{mo}-{d}{sep}{h}:{mi}:{s}"))
        }

        /// 19-byte strings: any text over the alphabet, a layout text, or
        /// a layout text with one to three bytes replaced from the alphabet.
        fn nineteen_bytes() -> impl Strategy<Value = String> {
            let mutated = (
                layout(),
                proptest::collection::vec((0usize..19, ALPHABET), 1..4),
            )
                .prop_map(|(text, edits)| {
                    let mut bytes = text.into_bytes();
                    for (at, with) in edits {
                        bytes[at] = with.as_bytes()[0];
                    }
                    String::from_utf8(bytes).unwrap()
                });
            prop_oneof!["[0-9\\- :T+]{19}", layout(), mutated]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4096))]

            /// `parse` with its fixed-layout path returns exactly what the
            /// general parser returns, value or error.
            #[test]
            fn parse_matches_the_general_parser(s in nineteen_bytes()) {
                prop_assert_eq!(s.len(), 19);
                prop_assert_eq!(Timestamp::parse(&s), Timestamp::parse_general(&s), "{:?}", s);
            }
        }
    }

    #[test]
    fn format_parse_roundtrip() {
        let t = Timestamp::from_ymd_hms(2018, 10, 31, 23, 59, 59).unwrap();
        assert_eq!(Timestamp::parse(&t.format()).unwrap(), t);
    }

    #[test]
    fn weekday_and_weekend() {
        // 1970-01-01 was a Thursday (weekday 3).
        assert_eq!(Timestamp::EPOCH.weekday(), 3);
        // 2016-03-01 was a Tuesday.
        assert_eq!(Timestamp::parse("2016-03-01").unwrap().weekday(), 1);
        // 2016-03-05 was a Saturday.
        assert!(Timestamp::parse("2016-03-05").unwrap().is_weekend());
        assert!(!Timestamp::parse("2016-03-07").unwrap().is_weekend());
    }

    #[test]
    fn hour_of_day_fractional() {
        let t = Timestamp::parse("2016-03-01 06:30:00").unwrap();
        assert!((t.hour_of_day() - 6.5).abs() < 1e-9);
    }

    #[test]
    fn duration_display() {
        assert_eq!(Duration::days(2).to_string(), "2d");
        assert_eq!(Duration::hours(3).to_string(), "3h");
        assert_eq!(Duration::minutes(5).to_string(), "5m");
        assert_eq!(Duration::seconds(7).to_string(), "7s");
    }

    #[test]
    fn time_range_basics() {
        let a = Timestamp::parse("2016-03-01").unwrap();
        let b = Timestamp::parse("2016-04-01").unwrap();
        let r = TimeRange::new(a, b).unwrap();
        assert!(r.contains(a));
        assert!(!r.contains(b));
        assert_eq!(r.duration(), Duration::days(31));
        assert!(TimeRange::new(b, a).is_err());
    }

    #[test]
    fn time_range_intersection() {
        let t = |s: &str| Timestamp::parse(s).unwrap();
        let r1 = TimeRange::new(t("2020-01-01"), t("2020-03-01")).unwrap();
        let r2 = TimeRange::new(t("2020-02-01"), t("2020-06-30")).unwrap();
        let r3 = TimeRange::new(t("2020-04-01"), t("2020-05-01")).unwrap();
        let i = r1.intersect(&r2).unwrap();
        assert_eq!(i.start, t("2020-02-01"));
        assert_eq!(i.end, t("2020-03-01"));
        assert!(r1.intersect(&r3).is_none());
    }

    #[test]
    fn grid_indexing() {
        let start = Timestamp::parse("2016-03-01 00:00:00").unwrap();
        let grid = TimeGrid::new(start, Duration::hours(1), 24).unwrap();
        assert_eq!(grid.len(), 24);
        assert_eq!(grid.at(0), Some(start));
        assert_eq!(grid.at(23).unwrap().format(), "2016-03-01 23:00:00");
        assert_eq!(grid.at(24), None);
        assert_eq!(grid.index_of(start + Duration::hours(5)), Some(5));
        assert_eq!(grid.index_of(start + Duration::minutes(30)), None);
        assert_eq!(grid.index_of(start - Duration::hours(1)), None);
        assert_eq!(grid.index_of(start + Duration::hours(24)), None);
    }

    #[test]
    fn grid_rejects_bad_interval() {
        assert!(TimeGrid::new(Timestamp::EPOCH, Duration::seconds(0), 5).is_err());
        assert!(TimeGrid::new(Timestamp::EPOCH, Duration::seconds(-10), 5).is_err());
    }

    #[test]
    fn grid_covering_range() {
        let t = |s: &str| Timestamp::parse(s).unwrap();
        let r = TimeRange::new(t("2016-03-01"), t("2016-03-02")).unwrap();
        let g = TimeGrid::covering(r, Duration::hours(1)).unwrap();
        assert_eq!(g.len(), 24);
        assert_eq!(g.range().end, t("2016-03-02"));
    }

    #[test]
    fn grid_iter_and_end() {
        let g = TimeGrid::new(Timestamp::EPOCH, Duration::minutes(10), 3).unwrap();
        let ts: Vec<i64> = g.iter().map(|t| t.0).collect();
        assert_eq!(ts, vec![0, 600, 1200]);
        assert_eq!(g.end(), Some(Timestamp(1200)));
        let empty = TimeGrid::new(Timestamp::EPOCH, Duration::minutes(10), 0).unwrap();
        assert_eq!(empty.end(), None);
        assert!(empty.is_empty());
    }

    #[test]
    fn grid_window_selection() {
        let start = Timestamp::parse("2020-01-01").unwrap();
        let g = TimeGrid::new(start, Duration::days(1), 10).unwrap();
        // Whole range.
        assert_eq!(g.window(g.range()), (0, 10));
        // Middle slice: days 3..6.
        let r = TimeRange::new(start + Duration::days(3), start + Duration::days(6)).unwrap();
        assert_eq!(g.window(r), (3, 3));
        // Range entirely before the grid.
        let before = TimeRange::new(start - Duration::days(5), start - Duration::days(1)).unwrap();
        assert_eq!(g.window(before).1, 0);
        // Range entirely after the grid.
        let after = TimeRange::new(start + Duration::days(20), start + Duration::days(30)).unwrap();
        assert_eq!(g.window(after).1, 0);
    }

    #[test]
    fn floor_index_clamps() {
        let g = TimeGrid::new(Timestamp(0), Duration::seconds(10), 5).unwrap();
        assert_eq!(g.floor_index(Timestamp(-1)), None);
        assert_eq!(g.floor_index(Timestamp(0)), Some(0));
        assert_eq!(g.floor_index(Timestamp(25)), Some(2));
        assert_eq!(g.floor_index(Timestamp(1000)), Some(4));
    }
}
