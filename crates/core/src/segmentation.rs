//! Step (1) of MISCELA: linear segmentation.
//!
//! "We filter uninteresting data fluctuation by applying a linear
//! segmentation algorithm to time series data." (Section 2.2)
//!
//! The segmenter is greedy left-to-right: each segment is the straight line
//! joining its endpoints, extended as long as that line stays within the
//! error tolerance of every covered point. The smoothed series is the
//! reconstruction of those segments; small, noisy wiggles disappear while
//! genuine trends survive, which is exactly what the evolving-rate test
//! needs.
//!
//! # The O(n) feasible-slope cone
//!
//! The naive greedy test re-scans the whole segment on every one-point
//! extension (`max_deviation` over `[start, end]`), which is O(n·s²) for
//! mean segment length s — quadratic in segment length on smooth series,
//! exactly the shape segmentation is for. The implementation here is
//! incremental instead: a point `i` interior to the segment constrains the
//! endpoint-joining slope `m` to the interval
//! `[(vᵢ − tol − v₀)/dᵢ, (vᵢ + tol − v₀)/dᵢ]` (with `dᵢ = i − start`), so
//! the segment can absorb its next point iff the candidate slope lies in
//! the running intersection of those intervals — the *feasible slope cone*,
//! maintained as two scalars. Each extension test is O(1); the whole
//! segmentation is O(n).
//!
//! The pre-refactor sliding-window implementation is retained under
//! `#[cfg(test)]` ([`reference`]) as the equivalence oracle; fixture and
//! property tests assert both produce identical segmentations and identical
//! evolving sets downstream.
//!
//! # One flattening pass, one reconstruction
//!
//! A series is flattened once: one pass over its storage blocks in place
//! reads the value range and whether any value is missing, and the values
//! the cone loop runs over are then laid out as one slice, gaps
//! interpolated in place. The cold run ([`segment_series`]) and the front-trim
//! derivation ([`segment_series_trimmed`]) share that pass; the
//! derivation checks the range before it lays out any value. A cold
//! extraction reconstructs from the same slice when no value is missing.
//! `Segmentation::reconstruct_from` is the one reconstruction: it
//! evaluates exactly the grid range a caller asks for, reading the raw
//! values of that range for missingness. [`Segmentation::reconstruct`]
//! wraps it for a whole [`TimeSeries`].
//!
//! # Shared segment runs
//!
//! A [`Segmentation`] keeps its segments in `Arc`-shared runs of
//! [`SEGMENT_RUN_LEN`], sealed once full, plus one open run holding the
//! rest (the last segment included), and it records the value range of
//! the series it covers. A tail resume ([`segment_series_tail`]) only ever
//! replaces the last segment, so it shares every sealed run of its
//! predecessor, copies at most the open run, and reads the stored range
//! instead of rescanning the prefix: O(tail), not O(series). Cached
//! extraction states of successive revisions share all but their open
//! runs.

use miscela_model::TimeSeries;
use std::borrow::Cow;
use std::sync::Arc;

/// Segments per sealed run of a [`Segmentation`].
pub const SEGMENT_RUN_LEN: usize = 128;

/// One linear segment over grid indices `[start, end]` (inclusive).
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// First grid index of the segment.
    pub start: usize,
    /// Last grid index of the segment (inclusive).
    pub end: usize,
    /// Fitted value at `start`.
    pub start_value: f64,
    /// Fitted value at `end`.
    pub end_value: f64,
}

impl Segment {
    /// Value of the fitted line at grid index `i` (must lie within the
    /// segment).
    pub fn value_at(&self, i: usize) -> f64 {
        if self.end == self.start {
            return self.start_value;
        }
        let frac = (i - self.start) as f64 / (self.end - self.start) as f64;
        self.start_value + (self.end_value - self.start_value) * frac
    }

    /// Slope of the segment per grid step.
    pub fn slope(&self) -> f64 {
        if self.end == self.start {
            0.0
        } else {
            (self.end_value - self.start_value) / (self.end - self.start) as f64
        }
    }

    /// Number of grid points covered.
    pub fn len(&self) -> usize {
        self.end - self.start + 1
    }

    /// Whether the segment covers a single point.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Result of segmenting one series.
///
/// Segments live in sealed `Arc`-shared runs of exactly
/// [`SEGMENT_RUN_LEN`] plus one open run that holds the remaining ones and
/// always ends with the last segment (see the module docs).
#[derive(Debug, Clone)]
pub struct Segmentation {
    /// Sealed runs of exactly [`SEGMENT_RUN_LEN`] segments.
    runs: Vec<Arc<[Segment]>>,
    /// The open run: between 1 and [`SEGMENT_RUN_LEN`] segments, empty only
    /// when there are no segments at all.
    open: Vec<Segment>,
    /// Length of the original series.
    pub len: usize,
    /// Absolute deviation tolerance the segments were fitted against
    /// (`error_fraction` × value range). Stored so a front-trimmed window can
    /// prove its tolerance unchanged before splicing origin segments
    /// ([`segment_series_trimmed`]); excluded from equality because it is
    /// derived from the same inputs as the segments.
    pub tolerance: f64,
    /// `(min, max)` of the series' present values, `None` when none is
    /// present. Excluded from equality like `tolerance`.
    range: Option<(f64, f64)>,
}

impl PartialEq for Segmentation {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self.segment_count() == other.segment_count()
            && self.segments().eq(other.segments())
    }
}

impl Segmentation {
    /// An empty segmentation of a series of `len` points.
    fn empty(len: usize, tolerance: f64, range: Option<(f64, f64)>) -> Self {
        Segmentation {
            runs: Vec::new(),
            open: Vec::with_capacity(SEGMENT_RUN_LEN),
            len,
            tolerance,
            range,
        }
    }

    /// A segmentation holding `segments` in order (oracle and test
    /// fixtures).
    #[cfg(test)]
    pub(crate) fn from_segments(segments: Vec<Segment>, len: usize, tolerance: f64) -> Self {
        let mut seg = Segmentation::empty(len, tolerance, None);
        for s in segments {
            seg.push(s);
        }
        seg.finish()
    }

    /// Appends one segment, sealing the open run first when it is full.
    fn push(&mut self, segment: Segment) {
        if self.open.len() == SEGMENT_RUN_LEN {
            let full = std::mem::replace(&mut self.open, Vec::with_capacity(SEGMENT_RUN_LEN));
            self.runs.push(Arc::from(full));
        }
        self.open.push(segment);
    }

    /// Drops the open run's spare capacity: a finished segmentation may
    /// live for many revisions in the extraction cache.
    fn finish(mut self) -> Self {
        self.open.shrink_to_fit();
        self
    }

    /// The segments, in order.
    pub fn segments(&self) -> impl DoubleEndedIterator<Item = &Segment> + '_ {
        self.runs
            .iter()
            .flat_map(|run| run.iter())
            .chain(self.open.iter())
    }

    /// The segments from the first one covering grid index `i` (or lying
    /// past it) onwards; O(log runs + one run) to find.
    fn segments_covering_from(&self, i: usize) -> impl Iterator<Item = &Segment> + '_ {
        let first = self
            .runs
            .partition_point(|run| run.last().is_some_and(|s| s.end < i));
        self.runs[first..]
            .iter()
            .flat_map(|run| run.iter())
            .chain(self.open.iter())
            .skip_while(move |s| s.end < i)
    }

    /// The position of the segment starting at grid index `start`, if one
    /// does.
    fn position_of_start(&self, start: usize) -> Option<usize> {
        let run = self
            .runs
            .partition_point(|run| run.last().is_some_and(|s| s.start < start));
        let (segments, base) = match self.runs.get(run) {
            Some(sealed) => (&sealed[..], run * SEGMENT_RUN_LEN),
            None => (&self.open[..], self.runs.len() * SEGMENT_RUN_LEN),
        };
        segments
            .binary_search_by(|s| s.start.cmp(&start))
            .ok()
            .map(|pos| base + pos)
    }

    /// The segments from position `pos` onwards.
    fn segments_from_position(&self, pos: usize) -> impl Iterator<Item = &Segment> + '_ {
        let run = (pos / SEGMENT_RUN_LEN).min(self.runs.len());
        let skip = pos - run * SEGMENT_RUN_LEN;
        self.runs[run..]
            .iter()
            .flat_map(|run| run.iter())
            .chain(self.open.iter())
            .skip(skip)
    }

    /// The last segment, if any.
    pub(crate) fn last_segment(&self) -> Option<&Segment> {
        self.open.last()
    }

    /// Number of sealed runs.
    pub fn sealed_runs(&self) -> usize {
        self.runs.len()
    }

    /// How many leading sealed runs `self` and `other` share *by pointer*
    /// (`Arc::ptr_eq`): after a tail resume, every sealed run of the
    /// predecessor is still the same allocation.
    pub fn shares_runs_with(&self, other: &Segmentation) -> usize {
        self.runs
            .iter()
            .zip(other.runs.iter())
            .take_while(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }

    /// Reconstructs the smoothed series from the segments over the whole of
    /// `original`, the series they were fitted to: the one-series form of
    /// `Segmentation::reconstruct_from`. Indices that were missing in the
    /// original stay missing.
    pub fn reconstruct(&self, original: &TimeSeries) -> TimeSeries {
        TimeSeries::from_values(self.reconstruct_from(0, &original.contiguous()))
    }

    /// Reconstructs the smoothed values of grid indices exactly
    /// `[lo, lo + raw.len())` into a fresh buffer (`out[i - lo]`), reading
    /// `raw` (the original values of the same range) for missingness: an
    /// index missing in the original stays `NaN`. Where two segments share
    /// a breakpoint, the later one's value stands.
    ///
    /// Deliberately evaluates [`Segment::value_at`] per point (division and
    /// all): a hoisted per-segment reciprocal would be faster but rounds
    /// differently in the last bit, and the reconstruction must stay
    /// bit-identical to the pre-refactor pipeline so the segmentation
    /// equivalence oracles extend through the evolving sets downstream.
    pub(crate) fn reconstruct_from(&self, lo: usize, raw: &[f64]) -> Vec<f64> {
        let hi = lo + raw.len();
        let mut out = vec![f64::NAN; raw.len()];
        for seg in self.segments_covering_from(lo) {
            if seg.start >= hi {
                break;
            }
            for i in seg.start.max(lo)..(seg.end + 1).min(hi) {
                if !raw[i - lo].is_nan() {
                    out[i - lo] = seg.value_at(i);
                }
            }
        }
        out
    }

    /// Number of segments.
    pub fn segment_count(&self) -> usize {
        self.runs.len() * SEGMENT_RUN_LEN + self.open.len()
    }
}

/// The absolute deviation tolerance for `error_fraction` of a value range.
fn tolerance_of(error_fraction: f64, (min, max): (f64, f64)) -> f64 {
    error_fraction.max(0.0) * (max - min).max(1e-12)
}

/// A series flattened for step (1). One pass over its storage blocks in
/// place reads the value range and whether any value is missing, so a
/// caller can decide on the range before [`Flat::values`] lays out the
/// values the cone loop runs over.
pub(crate) struct Flat<'a> {
    series: &'a TimeSeries,
    /// `(min, max)` of the present values, `None` when none is present.
    /// Interpolation never leaves this range.
    range: Option<(f64, f64)>,
    /// Whether interpolation changes the values: some but not all are
    /// missing.
    gappy: bool,
}

impl<'a> Flat<'a> {
    /// Flattens `series`.
    pub(crate) fn new(series: &'a TimeSeries) -> Self {
        let n = series.len();
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut missing = 0usize;
        for chunk in series.chunks() {
            for &v in chunk {
                if v.is_nan() {
                    missing += 1;
                } else {
                    min = min.min(v);
                    max = max.max(v);
                }
            }
        }
        Flat {
            series,
            range: (missing < n).then_some((min, max)),
            gappy: missing > 0 && missing < n,
        }
    }

    /// The values the cone loop reads, as one slice: borrowed from a
    /// single-chunk series without gaps, otherwise copied once, with the
    /// gaps linearly interpolated in place.
    pub(crate) fn values(&self) -> Cow<'a, [f64]> {
        let mut values = self.series.contiguous();
        if self.gappy {
            miscela_model::interpolate_in_place(values.to_mut());
        }
        values
    }

    /// The raw values (`NaN` where missing) a reconstruction reads, given
    /// the cone loop's `values`: those same values when interpolation left
    /// them unchanged, so a cold extraction flattens the series once for
    /// both; otherwise the series' values laid out again.
    pub(crate) fn raw(&self, values: Cow<'a, [f64]>) -> Cow<'a, [f64]> {
        if self.gappy {
            self.series.contiguous()
        } else {
            values
        }
    }

    /// The cold segmentation of the flattened series ([`segment_series`])
    /// over `values`, the slice [`Flat::values`] laid out.
    pub(crate) fn segment(&self, values: &[f64], error_fraction: f64) -> Segmentation {
        let n = values.len();
        let Some(range) = self.range else {
            // Empty or entirely missing series: nothing to segment.
            return Segmentation::empty(n, 0.0, None).finish();
        };
        let tolerance = tolerance_of(error_fraction, range);
        let mut seg = Segmentation::empty(n, tolerance, Some(range));
        if n == 1 {
            seg.push(Segment {
                start: 0,
                end: 0,
                start_value: values[0],
                end_value: values[0],
            });
        } else {
            segment_values(values, tolerance, 0, 0, &mut seg);
        }
        seg.finish()
    }
}

/// Greedy linear segmentation of a series in O(n).
///
/// `error_fraction` is interpreted relative to the series' value range: an
/// error tolerance of `0.02` allows each segment to deviate from the data by
/// up to 2% of `max - min`. Missing values are linearly interpolated before
/// segmentation (and stay missing in the reconstruction); fully-present
/// single-chunk series are segmented straight off the raw value slice
/// without any copy.
pub fn segment_series(series: &TimeSeries, error_fraction: f64) -> Segmentation {
    let flat = Flat::new(series);
    flat.segment(&flat.values(), error_fraction)
}

/// Runs the greedy feasible-slope-cone loop over `values[from..]`, pushing
/// segments whose indices are offset by `base` (the absolute grid index of
/// `values[0]`). Factored out of [`segment_series`] so the full run and the
/// tail-resume path ([`segment_series_tail`]) execute the exact same float
/// operations — byte-identical segmentations are what the append
/// equivalence oracles assert.
fn segment_values(
    values: &[f64],
    tolerance: f64,
    base: usize,
    from: usize,
    segments: &mut Segmentation,
) {
    let n = values.len();
    let mut start = from;
    while start + 1 < n {
        let end = greedy_end(values, tolerance, start);
        segments.push(Segment {
            start: base + start,
            end: base + end,
            start_value: values[start],
            end_value: values[end],
        });
        start = end;
    }
}

/// Runs one feasible-slope-cone extension from `start` and returns the
/// greedy segment end. Factored out of [`segment_values`] so the
/// front-trim derivation ([`segment_series_trimmed`]) executes the exact
/// same float operations per produced segment as a cold run.
fn greedy_end(values: &[f64], tolerance: f64, start: usize) -> usize {
    let n = values.len();
    let v0 = values[start];
    // A two-point segment fits its endpoints exactly, so the first
    // candidate end is always accepted; from there the feasible slope
    // cone over the interior points decides each one-point extension in
    // O(1) amortized. The cone bounds are kept as fractions
    // (`num / den`, all denominators positive) and every comparison is
    // cross-multiplied, so the hot loop performs no division at all —
    // on noisy series the segments are short and per-point `divsd`
    // latency would otherwise dominate the whole front end.
    let mut end = start + 1;
    let mut lo_num = f64::NEG_INFINITY;
    let mut lo_den = 1.0f64;
    let mut hi_num = f64::INFINITY;
    let mut hi_den = 1.0f64;
    while end + 1 < n {
        // `end` becomes an interior point of the extended candidate:
        // tighten the cone with its slope interval
        // `[(v - tol - v0)/d, (v + tol - v0)/d]`.
        let d = (end - start) as f64;
        let lo_cand = values[end] - tolerance - v0;
        if lo_cand * lo_den > lo_num * d {
            lo_num = lo_cand;
            lo_den = d;
        }
        let hi_cand = values[end] + tolerance - v0;
        if hi_cand * hi_den < hi_num * d {
            hi_num = hi_cand;
            hi_den = d;
        }
        // Candidate slope `(values[end + 1] - v0) / (d + 1)` must lie
        // inside the cone.
        let m_num = values[end + 1] - v0;
        let m_den = d + 1.0;
        if m_num * lo_den < lo_num * m_den || m_num * hi_den > hi_num * m_den {
            break;
        }
        end += 1;
    }
    end
}

/// Tail-resume segmentation for an appended series: re-segments only from
/// the start of the last (unstable) segment of `prev`, reusing every
/// earlier segment verbatim.
///
/// `prev` must be the segmentation of the series' prefix of length
/// `old_len` (same `error_fraction`); the caller guarantees the first
/// `old_len` values are unchanged. Returns the new segmentation together
/// with `changed_from`, the first grid index whose smoothed reconstruction
/// may differ from `prev`'s (`0` when the resume conditions do not hold and
/// a full recompute ran; `series.len()` when nothing was appended).
///
/// The work is O(last segment + appended tail): the prefix's value range
/// comes from `prev`, every sealed segment run of `prev` is shared, and only
/// the open run is copied.
///
/// The greedy cone segmenter is left-to-right deterministic, so every
/// segment that closed on a failed extension test is final — only the last
/// segment (which closed by running out of data) can change. Resuming is
/// only byte-identical to a cold full run when the global context the
/// segmenter consults is itself unchanged, so the resume path falls back to
/// [`segment_series`] whenever the append could have shifted it:
///
/// * appended present values outside the prefix's `[min, max]` (they would
///   change the tolerance, which is relative to the value range);
/// * a trailing missing run in the prefix (its interpolation gains a right
///   neighbour and changes retroactively);
/// * an all-missing or sub-2-point prefix, or a `prev` that does not match
///   `old_len`.
pub fn segment_series_tail(
    series: &TimeSeries,
    error_fraction: f64,
    prev: &Segmentation,
    old_len: usize,
) -> (Segmentation, usize) {
    let n = series.len();
    let full = || (segment_series(series, error_fraction), 0);
    if prev.len != old_len || old_len < 2 || n < old_len {
        return full();
    }
    if n == old_len {
        return (prev.clone(), n);
    }
    // The prefix value range sets the tolerance of the cold run on the
    // prefix; `None` means an all-missing prefix.
    let Some((pmin, pmax)) = prev.range else {
        return full();
    };
    if series.raw(old_len - 1).is_nan() {
        // A trailing gap whose interpolation the append changes
        // retroactively.
        return full();
    }
    let Some(last) = prev.last_segment() else {
        return full();
    };
    if last.end + 1 != old_len {
        return full();
    }
    let resume = last.start;
    // The window needs a present left anchor so its interpolation matches
    // the full series' interpolation point-for-point.
    let Some(wstart) = (0..=resume).rev().find(|&i| !series.raw(i).is_nan()) else {
        return full();
    };
    // Materialize only the re-segmented window `[wstart, n)` — O(last
    // segment + appended tail), not O(series).
    let mut window = series.copy_range(wstart, n);
    // Appended values outside the prefix range change the tolerance (NaN
    // compares false on both sides, so missing appends never do).
    if window[old_len - wstart..]
        .iter()
        .any(|&v| v < pmin || v > pmax)
    {
        return full();
    }
    if window.iter().any(|v| v.is_nan()) {
        miscela_model::interpolate_in_place(&mut window);
    }
    let tolerance = tolerance_of(error_fraction, (pmin, pmax));
    let mut open = Vec::with_capacity(SEGMENT_RUN_LEN);
    open.extend_from_slice(&prev.open[..prev.open.len() - 1]);
    let mut seg = Segmentation {
        runs: prev.runs.clone(),
        open,
        len: n,
        tolerance,
        range: prev.range,
    };
    segment_values(&window, tolerance, wstart, resume - wstart, &mut seg);
    (seg.finish(), resume)
}

/// Derives the segmentation of a front-trimmed window from the segmentation
/// of its untrimmed origin, reusing origin segments instead of re-running
/// the cone loop over the whole window.
///
/// `prev` must be the segmentation of the origin window (length
/// `series.len() + dropped`, same `error_fraction`) whose first `dropped`
/// values were removed to produce `series`; the surviving values are
/// unchanged. Returns the new segmentation — byte-identical to a cold
/// [`segment_series`] run on `series` — together with `resync`, the first
/// trimmed-window index from which every remaining segment was spliced from
/// `prev` (rebased by `-dropped`). Smoothed reconstructions agree with the
/// origin's (shifted) from `resync` on, so an evolving-set derivation only
/// needs to rescan timestamps `<= resync`. `resync == series.len()` means no
/// splice happened and everything was recomputed (still byte-identical).
///
/// Returns `None` when reuse cannot be proven byte-identical — when the trim
/// changed the value range (and with it the tolerance every origin segment
/// was fitted against) or `prev` does not match the expected origin length.
///
/// Splice soundness: the greedy cone segmenter is memoryless — the segment
/// produced from index `i` depends only on `values[i..]` and the tolerance.
/// Interior interpolation anchors are pairs of present values, so
/// trimmed-window values at indices at or past the first present index equal
/// the origin's values shifted by `dropped` (only the leading gap, which
/// loses its left anchor, interpolates differently). Once the greedy run
/// reaches such an index whose origin image is an origin segment start, a
/// cold run would reproduce the origin's remaining segments verbatim, so
/// they are spliced without re-deriving them.
pub fn segment_series_trimmed(
    series: &TimeSeries,
    error_fraction: f64,
    prev: &Segmentation,
    dropped: usize,
) -> Option<(Segmentation, usize)> {
    let n = series.len();
    if prev.len != n + dropped {
        return None;
    }
    // The cold run's flattening pass reads the window's range; no value is
    // laid out before the range check below.
    let flat = Flat::new(series);
    let range = match flat.range {
        Some(range) if n >= 2 => range,
        // Degenerate windows are as cheap cold as derived.
        _ => return Some((flat.segment(&flat.values(), error_fraction), n)),
    };
    let tolerance = tolerance_of(error_fraction, range);
    if tolerance.to_bits() != prev.tolerance.to_bits() {
        // The trim changed the value range: every origin segment was fitted
        // against a different tolerance and none can be reused.
        return None;
    }
    let values: &[f64] = &flat.values();
    let first_present = (0..n).find(|&i| !series.raw(i).is_nan()).unwrap_or(n);
    let mut segments = Segmentation::empty(n, tolerance, Some(range));
    let mut start = 0usize;
    let mut resync = n;
    while start + 1 < n {
        // Resync test at the segment start: past the first present index the
        // window's (interpolated) values equal the origin's shifted by
        // `dropped`, so hitting an origin segment start means the rest of a
        // cold run is the origin's tail verbatim.
        if start >= first_present {
            if let Some(pos) = prev.position_of_start(start + dropped) {
                for s in prev.segments_from_position(pos) {
                    segments.push(Segment {
                        start: s.start - dropped,
                        end: s.end - dropped,
                        start_value: s.start_value,
                        end_value: s.end_value,
                    });
                }
                resync = start;
                break;
            }
        }
        let end = greedy_end(values, tolerance, start);
        segments.push(Segment {
            start,
            end,
            start_value: values[start],
            end_value: values[end],
        });
        start = end;
    }
    Some((segments.finish(), resync))
}

/// Convenience helper: smooths a series by segmentation and reconstruction.
/// With `error_fraction == 0.0` the series is returned unchanged (every
/// point is its own breakpoint).
pub fn smooth(series: &TimeSeries, error_fraction: f64) -> TimeSeries {
    if error_fraction <= 0.0 {
        return series.clone();
    }
    segment_series(series, error_fraction).reconstruct(series)
}

/// The pre-refactor sliding-window segmenter, retained verbatim as the
/// equivalence oracle for the O(n) feasible-slope-cone implementation. Only
/// compiled into test builds.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// Maximum absolute deviation between the observed values and the
    /// straight line joining the endpoints of `values[start..=end]`.
    fn max_deviation(values: &[f64], start: usize, end: usize) -> f64 {
        if end <= start + 1 {
            return 0.0;
        }
        let v0 = values[start];
        let v1 = values[end];
        let span = (end - start) as f64;
        let mut worst: f64 = 0.0;
        for (offset, v) in values[start..=end].iter().enumerate() {
            let fitted = v0 + (v1 - v0) * offset as f64 / span;
            worst = worst.max((v - fitted).abs());
        }
        worst
    }

    /// The original greedy sliding-window segmentation: O(n·s) per
    /// extension scan, O(n·s²) overall on smooth series.
    pub(crate) fn segment_series_reference(
        series: &TimeSeries,
        error_fraction: f64,
    ) -> Segmentation {
        let n = series.len();
        if n == 0 {
            return Segmentation::from_segments(Vec::new(), 0, 0.0);
        }
        let filled = series.interpolate_missing();
        if filled.present_count() == 0 {
            return Segmentation::from_segments(Vec::new(), n, 0.0);
        }
        let values: Vec<f64> = (0..n).map(|i| filled.get(i).unwrap_or(0.0)).collect();
        let range = {
            let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            (max - min).max(1e-12)
        };
        let tolerance = error_fraction.max(0.0) * range;

        let mut segments = Vec::new();
        let mut start = 0usize;
        let mut end = (start + 1).min(n - 1);
        while start < n {
            if start == n - 1 {
                segments.push(Segment {
                    start,
                    end: start,
                    start_value: values[start],
                    end_value: values[start],
                });
                break;
            }
            let mut best_end = end;
            while best_end + 1 < n && max_deviation(&values, start, best_end + 1) <= tolerance {
                best_end += 1;
            }
            segments.push(Segment {
                start,
                end: best_end,
                start_value: values[start],
                end_value: values[best_end],
            });
            start = best_end;
            if start == n - 1 {
                break;
            }
            end = start + 1;
        }

        Segmentation::from_segments(segments, n, tolerance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_line_is_one_segment() {
        let s = TimeSeries::from_values((0..50).map(|i| 2.0 * i as f64 + 1.0).collect());
        let seg = segment_series(&s, 0.01);
        assert_eq!(seg.segment_count(), 1);
        let rec = seg.reconstruct(&s);
        for i in 0..50 {
            assert!((rec.get(i).unwrap() - s.get(i).unwrap()).abs() < 1e-9);
        }
    }

    #[test]
    fn piecewise_line_finds_breakpoint() {
        // Up for 20 steps, down for 20 steps: expect ~2 segments.
        let mut values = Vec::new();
        for i in 0..20 {
            values.push(i as f64);
        }
        for i in 0..20 {
            values.push(19.0 - i as f64);
        }
        let s = TimeSeries::from_values(values);
        let seg = segment_series(&s, 0.02);
        assert!(seg.segment_count() <= 3, "got {}", seg.segment_count());
        assert!(seg.segment_count() >= 2);
    }

    #[test]
    fn noise_is_smoothed_away() {
        // A rising trend with small alternating noise: with a tolerance larger
        // than the noise, the reconstruction should be (nearly) monotone — the
        // spurious decreases introduced by the noise disappear.
        let n = 200;
        let s = TimeSeries::from_values(
            (0..n)
                .map(|i| i as f64 * 0.1 + if i % 2 == 0 { 0.2 } else { -0.2 })
                .collect(),
        );
        let smoothed = smooth(&s, 0.05);
        let decreases = |ts: &TimeSeries| {
            (1..ts.len())
                .filter_map(|i| ts.delta(i))
                .filter(|d| *d < -1e-9)
                .count()
        };
        assert!(decreases(&s) > 50);
        assert!(
            decreases(&smoothed) < decreases(&s) / 4,
            "smoothed still has {} decreases",
            decreases(&smoothed)
        );
    }

    #[test]
    fn large_jumps_survive_smoothing() {
        // A step function: the jump must not be smoothed away.
        let mut values = vec![0.0; 30];
        values.extend(vec![10.0; 30]);
        let s = TimeSeries::from_values(values);
        let smoothed = smooth(&s, 0.05);
        let max_delta = (1..smoothed.len())
            .filter_map(|i| smoothed.delta(i))
            .fold(0.0f64, |a, d| a.max(d.abs()));
        assert!(max_delta > 5.0, "jump was flattened to {max_delta}");
    }

    #[test]
    fn missing_values_stay_missing() {
        let s = TimeSeries::from_options(&[Some(1.0), None, Some(3.0), Some(4.0), None]);
        let seg = segment_series(&s, 0.1);
        let rec = seg.reconstruct(&s);
        assert_eq!(rec.len(), 5);
        assert!(!rec.is_present(1));
        assert!(!rec.is_present(4));
        assert!(rec.is_present(0));
    }

    #[test]
    fn fully_missing_series() {
        let s = TimeSeries::missing(10);
        let seg = segment_series(&s, 0.1);
        assert_eq!(seg.segment_count(), 0);
        let rec = seg.reconstruct(&s);
        assert_eq!(rec.present_count(), 0);
        assert_eq!(rec.len(), 10);
    }

    #[test]
    fn empty_and_single_point_series() {
        let empty = TimeSeries::from_values(vec![]);
        assert_eq!(segment_series(&empty, 0.1).segment_count(), 0);
        let single = TimeSeries::from_values(vec![5.0]);
        let seg = segment_series(&single, 0.1);
        assert_eq!(seg.segment_count(), 1);
        let only = seg.last_segment().unwrap();
        assert_eq!(only.len(), 1);
        assert_eq!(only.slope(), 0.0);
    }

    #[test]
    fn zero_error_returns_original() {
        let s = TimeSeries::from_values(vec![1.0, 5.0, 2.0, 8.0]);
        let out = smooth(&s, 0.0);
        assert_eq!(out, s);
    }

    #[test]
    fn segment_value_interpolation() {
        let seg = Segment {
            start: 10,
            end: 20,
            start_value: 0.0,
            end_value: 10.0,
        };
        assert!((seg.value_at(15) - 5.0).abs() < 1e-12);
        assert!((seg.slope() - 1.0).abs() < 1e-12);
        assert_eq!(seg.len(), 11);
    }

    /// Asserts the O(n) cone segmenter matches the retained oracle exactly:
    /// same segments, and identical evolving sets downstream of
    /// reconstruction.
    fn assert_matches_oracle(series: &TimeSeries, error_fraction: f64, epsilon: f64) {
        let fast = segment_series(series, error_fraction);
        let oracle = reference::segment_series_reference(series, error_fraction);
        assert_eq!(
            fast, oracle,
            "segmentations diverge (error_fraction={error_fraction})"
        );
        let fast_smoothed = fast.reconstruct(series);
        let oracle_smoothed = oracle.reconstruct(series);
        // Point-wise Option comparison: raw `PartialEq` would fail on the
        // NaN encoding of missing values (NaN != NaN).
        assert_eq!(fast_smoothed.len(), oracle_smoothed.len());
        for i in 0..fast_smoothed.len() {
            assert_eq!(fast_smoothed.get(i), oracle_smoothed.get(i), "index {i}");
        }
        let fast_ev = crate::evolving::extract_evolving(&fast_smoothed, epsilon);
        let oracle_ev = crate::evolving::extract_evolving(&oracle_smoothed, epsilon);
        assert_eq!(fast_ev, oracle_ev, "evolving sets diverge downstream");
    }

    #[test]
    fn cone_matches_oracle_on_fixtures() {
        let smooth_sine =
            TimeSeries::from_values((0..400).map(|i| (i as f64 * 0.05).sin() * 5.0).collect());
        let noisy_trend = TimeSeries::from_values(
            (0..300)
                .map(|i| i as f64 * 0.1 + if i % 2 == 0 { 0.3 } else { -0.3 })
                .collect(),
        );
        let step = {
            let mut v = vec![0.0; 40];
            v.extend(vec![10.0; 40]);
            TimeSeries::from_values(v)
        };
        let constant = TimeSeries::from_values(vec![3.25; 64]);
        let single = TimeSeries::from_values(vec![7.5]);
        let two = TimeSeries::from_values(vec![1.0, 4.0]);
        let all_missing = TimeSeries::missing(25);
        let nan_gaps = TimeSeries::from_options(
            &(0..120)
                .map(|i| {
                    if i % 11 == 3 || (40..47).contains(&i) {
                        None
                    } else {
                        Some((i as f64 * 0.2).cos() * 2.0 + i as f64 * 0.05)
                    }
                })
                .collect::<Vec<_>>(),
        );
        let leading_trailing_gaps = TimeSeries::from_options(&[
            None,
            None,
            Some(1.0),
            Some(2.0),
            Some(2.5),
            None,
            Some(4.0),
            None,
        ]);
        for series in [
            &smooth_sine,
            &noisy_trend,
            &step,
            &constant,
            &single,
            &two,
            &all_missing,
            &nan_gaps,
            &leading_trailing_gaps,
        ] {
            for error_fraction in [0.005, 0.02, 0.05, 0.2, 0.9] {
                assert_matches_oracle(series, error_fraction, 0.3);
            }
        }
    }

    mod equivalence_proptest {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// The O(n) cone segmenter and the retained sliding-window
            /// oracle produce identical segmentations — and identical
            /// evolving sets downstream — on randomized series with NaN
            /// gaps.
            #[test]
            fn cone_matches_oracle(
                values in proptest::collection::vec(-40.0f64..40.0, 1..160),
                gap_seed in 0usize..13,
                error_fraction in 0.001f64..0.25,
                epsilon in 0.01f64..2.0,
            ) {
                // Knock out a deterministic subset of points so NaN gaps
                // (and the interpolation path) are exercised too.
                let options: Vec<Option<f64>> = values
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| ((i * 7 + gap_seed) % 13 != 0).then_some(v))
                    .collect();
                let series = TimeSeries::from_options(&options);
                assert_matches_oracle(&series, error_fraction, epsilon);
            }
        }
    }

    /// Asserts the tail-resume segmentation of `series` split at `split`
    /// equals a cold full run, and that `changed_from` is honest (every
    /// smoothed value before it is identical to the prefix run's).
    fn assert_tail_matches_full(series: &TimeSeries, error_fraction: f64, split: usize) {
        let prefix = series.window(0, split);
        let prev = segment_series(&prefix, error_fraction);
        let (resumed, changed_from) = segment_series_tail(series, error_fraction, &prev, split);
        let cold = segment_series(series, error_fraction);
        assert_eq!(
            resumed, cold,
            "tail resume diverges (split={split}, error_fraction={error_fraction})"
        );
        let rec_prev = prev.reconstruct(&prefix);
        let rec_new = resumed.reconstruct(series);
        for i in 0..changed_from.min(split) {
            assert_eq!(rec_prev.get(i), rec_new.get(i), "changed_from lied at {i}");
        }
    }

    #[test]
    fn tail_resume_matches_full_on_fixtures() {
        let smooth_sine =
            TimeSeries::from_values((0..400).map(|i| (i as f64 * 0.05).sin() * 5.0).collect());
        let noisy_trend = TimeSeries::from_values(
            (0..300)
                .map(|i| i as f64 * 0.1 + if i % 2 == 0 { 0.3 } else { -0.3 })
                .collect(),
        );
        // A step in the appended tail: outside the prefix range for small
        // splits, exercising the tolerance-changed fallback.
        let late_step = {
            let mut v = vec![1.0; 80];
            v.extend(vec![10.0; 20]);
            TimeSeries::from_values(v)
        };
        let constant = TimeSeries::from_values(vec![3.25; 64]);
        let all_missing = TimeSeries::missing(25);
        let nan_gaps = TimeSeries::from_options(
            &(0..120)
                .map(|i| {
                    if i % 11 == 3 || (40..47).contains(&i) {
                        None
                    } else {
                        Some((i as f64 * 0.2).cos() * 2.0 + i as f64 * 0.05)
                    }
                })
                .collect::<Vec<_>>(),
        );
        // A trailing gap right at a split point (44/45/46 fall inside the
        // missing run), exercising the trailing-gap fallback.
        for series in [
            &smooth_sine,
            &noisy_trend,
            &late_step,
            &constant,
            &all_missing,
            &nan_gaps,
        ] {
            let n = series.len();
            for split in [
                0,
                1,
                2,
                3,
                n / 3,
                45,
                n.saturating_sub(2),
                n.saturating_sub(1),
                n,
            ] {
                let split = split.min(n);
                for error_fraction in [0.005, 0.05, 0.2] {
                    assert_tail_matches_full(series, error_fraction, split);
                }
            }
        }
    }

    #[test]
    fn tail_resume_shape_mismatches_fall_back() {
        let series =
            TimeSeries::from_values((0..100).map(|i| (i as f64 * 0.05).sin() * 5.0).collect());
        let cold = segment_series(&series, 0.05);
        // A prev whose recorded length disagrees with old_len falls back.
        let bogus = Segmentation::from_segments(Vec::new(), 7, 0.0);
        let (seg, changed_from) = segment_series_tail(&series, 0.05, &bogus, 50);
        assert_eq!(seg, cold);
        assert_eq!(changed_from, 0);
        // Nothing appended: the previous segmentation is returned verbatim.
        let (seg, changed_from) = segment_series_tail(&series, 0.05, &cold, 100);
        assert_eq!(seg, cold);
        assert_eq!(changed_from, 100);
    }

    /// Sawtooth plus a small deterministic residue. Both components repeat
    /// exactly (periods 12 and 13), so every suffix of at least 156 points
    /// attains the same value range bit-for-bit — the precondition for
    /// front-trim segment reuse.
    fn periodic_values(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i % 12) as f64) * 2.0 + ((i.wrapping_mul(2654435761)) % 13) as f64 * 0.01)
            .collect()
    }

    #[test]
    fn trimmed_derivation_matches_cold() {
        let n = 400;
        let mut vals = periodic_values(n);
        // Interior gaps exercise the interpolation-equivalence argument.
        for i in [30usize, 31, 77, 140, 141, 142, 320] {
            vals[i] = f64::NAN;
        }
        let series = TimeSeries::from_values(vals.clone());
        for error_fraction in [0.01, 0.05, 0.2] {
            let origin = segment_series(&series, error_fraction);
            for d in [0usize, 1, 5, 64, 128] {
                let trimmed = TimeSeries::from_values(vals[d..].to_vec());
                let cold = segment_series(&trimmed, error_fraction);
                let (derived, resync) =
                    segment_series_trimmed(&trimmed, error_fraction, &origin, d)
                        .unwrap_or_else(|| panic!("fell back for d={d} ef={error_fraction}"));
                assert_eq!(derived, cold);
                assert_eq!(derived.tolerance.to_bits(), cold.tolerance.to_bits());
                assert!(resync <= trimmed.len());
                if d == 0 {
                    // No trim: the whole origin splices back immediately.
                    assert_eq!(resync, 0);
                    assert_eq!(derived, origin);
                }
            }
        }
    }

    #[test]
    fn trimmed_derivation_survives_a_trimmed_leading_gap() {
        // The trim lands inside a gap: the new window starts with missing
        // values whose interpolation loses its left anchor. The derivation
        // must still match cold (the resync test refuses indices below the
        // first present one).
        let n = 380;
        let mut vals = periodic_values(n);
        for v in vals.iter_mut().take(70).skip(60) {
            *v = f64::NAN;
        }
        let series = TimeSeries::from_values(vals.clone());
        let origin = segment_series(&series, 0.05);
        for d in [61usize, 65, 69] {
            let trimmed = TimeSeries::from_values(vals[d..].to_vec());
            let cold = segment_series(&trimmed, 0.05);
            let (derived, _) = segment_series_trimmed(&trimmed, 0.05, &origin, d)
                .unwrap_or_else(|| panic!("fell back for d={d}"));
            assert_eq!(derived, cold);
        }
    }

    #[test]
    fn trimmed_derivation_falls_back_when_range_changes() {
        // The global max lives only in the dropped prefix, so the trimmed
        // window's tolerance differs and no origin segment can be reused.
        let mut vals: Vec<f64> = (0..100).map(|i| (i % 10) as f64).collect();
        vals[3] = 50.0;
        let series = TimeSeries::from_values(vals.clone());
        let origin = segment_series(&series, 0.05);
        let trimmed = TimeSeries::from_values(vals[10..].to_vec());
        assert!(segment_series_trimmed(&trimmed, 0.05, &origin, 10).is_none());
        // A prev whose recorded length disagrees with the trim also bails.
        assert!(segment_series_trimmed(&trimmed, 0.05, &origin, 9).is_none());
    }

    /// A noisy series whose first two points span its whole value range,
    /// so every append resumes instead of falling back, and which segments
    /// into several sealed runs.
    fn long_noisy(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| match i {
                0 => -10.0,
                1 => 10.0,
                _ => (i as f64 * 0.37).sin() * 3.0 + ((i * 7919) % 13) as f64 * 0.4,
            })
            .collect()
    }

    #[test]
    fn tail_resume_shares_every_sealed_run_with_its_predecessor() {
        let full = TimeSeries::from_values(long_noisy(3000));
        let mut len = 1500;
        let mut prev = segment_series(&full.window(0, len), 0.02);
        assert!(prev.sealed_runs() >= 2, "fixture must seal several runs");
        for step in [16, 16, 1, 300, 16, 700] {
            let series = full.window(0, len + step);
            let (resumed, changed_from) = segment_series_tail(&series, 0.02, &prev, len);
            assert!(changed_from > 0, "append of {step} fell back to a full run");
            assert_eq!(resumed, segment_series(&series, 0.02));
            assert_eq!(resumed.range, segment_series(&series, 0.02).range);
            // Every sealed run of the predecessor is the same allocation;
            // only the open run was copied.
            assert_eq!(resumed.shares_runs_with(&prev), prev.sealed_runs());
            assert!(resumed.sealed_runs() >= prev.sealed_runs());
            prev = resumed;
            len += step;
        }
    }

    #[test]
    fn trimmed_derivation_matches_cold_across_segment_runs() {
        let vals = periodic_values(3000);
        let series = TimeSeries::from_values(vals.clone());
        let origin = segment_series(&series, 0.05);
        assert!(origin.sealed_runs() >= 2, "fixture must seal several runs");
        for d in [1usize, 156, 256, 1000, 1700] {
            let trimmed = TimeSeries::from_values(vals[d..].to_vec());
            let (derived, resync) = segment_series_trimmed(&trimmed, 0.05, &origin, d)
                .unwrap_or_else(|| panic!("fell back for d={d}"));
            assert_eq!(derived, segment_series(&trimmed, 0.05), "d={d}");
            assert!(resync < trimmed.len(), "d={d} never resynced");
        }
    }

    mod tail_resume_proptest {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// For any series, NaN-gap pattern, and split point, resuming
            /// segmentation over the appended tail is byte-identical to a
            /// cold full run.
            #[test]
            fn tail_resume_matches_full(
                values in proptest::collection::vec(-40.0f64..40.0, 2..160),
                gap_seed in 0usize..13,
                error_fraction in 0.001f64..0.25,
                split_ppm in 0u32..1_000_000,
            ) {
                let options: Vec<Option<f64>> = values
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| ((i * 7 + gap_seed) % 13 != 0).then_some(v))
                    .collect();
                let series = TimeSeries::from_options(&options);
                let split = (series.len() as u64 * split_ppm as u64 / 1_000_000) as usize;
                assert_tail_matches_full(&series, error_fraction, split);
            }
        }
    }

    mod reconstruction_proptest {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// Reconstructing any window `[lo, hi)` from its own raw values
            /// gives that window of the whole-series reconstruction, bit for
            /// bit, for random gappy series across storage blocks and
            /// sealed segment runs: the ranges the tail resume and the trim
            /// derivation ask for. Every `lo` is tried, at a random width.
            #[test]
            fn window_reconstruction_matches_whole(
                values in proptest::collection::vec(-40.0f64..40.0, 0..700),
                gap_seed in 0usize..13,
                error_fraction in 0.001f64..0.25,
                width in 0usize..200,
            ) {
                let options: Vec<Option<f64>> = values
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| ((i * 7 + gap_seed) % 13 != 0).then_some(v))
                    .collect();
                let series = TimeSeries::from_options(&options);
                let seg = segment_series(&series, error_fraction);
                let raw = series.copy_values();
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let whole = bits(&seg.reconstruct(&series).copy_values());
                for lo in 0..=raw.len() {
                    let hi = (lo + width).min(raw.len());
                    prop_assert_eq!(
                        bits(&seg.reconstruct_from(lo, &raw[lo..hi])),
                        whole[lo..hi].to_vec(),
                        "window [{}, {})", lo, hi
                    );
                }
            }
        }
    }

    #[test]
    fn segments_cover_whole_series_contiguously() {
        let s = TimeSeries::from_values((0..97).map(|i| ((i as f64) * 0.3).sin() * 5.0).collect());
        let seg = segment_series(&s, 0.05);
        let segments: Vec<&Segment> = seg.segments().collect();
        assert_eq!(segments.first().unwrap().start, 0);
        assert_eq!(segments.last().unwrap().end, 96);
        for w in segments.windows(2) {
            assert_eq!(w[0].end, w[1].start, "segments must share breakpoints");
        }
        // Reconstruction error bounded by the tolerance (5% of range=10).
        let rec = seg.reconstruct(&s);
        for i in 0..97 {
            assert!((rec.get(i).unwrap() - s.get(i).unwrap()).abs() <= 0.5 + 1e-9);
        }
    }
}
