//! Regular-interval time series with missing values, stored as structurally
//! shared blocks.
//!
//! A [`TimeSeries`] stores one value per grid point of its dataset's
//! [`crate::time::TimeGrid`]. Missing measurements (the `null` entries of the
//! paper's `data.csv`) are represented internally as `NaN` and exposed as
//! `Option<f64>`, which keeps storage at 8 bytes per point — relevant because
//! the China6 dataset has close to seven million records.
//!
//! # Shared-block storage
//!
//! Values are held as a sequence of sealed, immutable, `Arc`-shared *blocks*
//! of exactly [`SERIES_BLOCK_LEN`] points followed by one mutable *tail* of
//! fewer than [`SERIES_BLOCK_LEN`] points:
//!
//! ```text
//! [ Arc(block 0) | Arc(block 1) | ... | Arc(block k-1) | tail ]
//!    256 values     256 values           256 values      < 256 values
//! ```
//!
//! Cloning a series bumps the block reference counts and copies only the
//! tail, so cloning is O(tail) instead of O(series) — the representation
//! that makes the streaming server's per-append dataset copy cheap
//! (structural sharing / copy-on-extend). Appending pushes onto the tail
//! and seals it into a new block whenever it reaches [`SERIES_BLOCK_LEN`];
//! sealed blocks of the stable prefix are never touched, which appending
//! code asserts via [`TimeSeries::shares_blocks_with`]. Writing *into* a
//! sealed block (the dataset-build path, or appended measurements landing
//! in a freshly sealed block) copies that one block on demand when — and
//! only when — it is actually shared.
//!
//! [`SERIES_BLOCK_LEN`] is a multiple of 64, so block boundaries always fall
//! on 64-bit bitset word boundaries — the property the word-level evolving
//! scan in `miscela-core` relies on to process blocks without copying them
//! into one contiguous buffer.
//!
//! Sliding-window retention drops expired *whole blocks* from the front
//! ([`TimeSeries::drop_front_blocks`]); freeing a block is one `Arc` drop,
//! so trimming is O(blocks dropped) and never rewrites retained data.
//!
//! # Block digests
//!
//! Each sealed block carries a lazily computed content digest: the hash
//! of its values that the rolling [`SeriesFingerprinter`] folds in for a
//! whole block. It is computed on first use and then shared by every
//! series revision holding the block. Any write into the block — in place
//! when unshared, or into the copy that copy-on-write makes — resets it,
//! so a digest never outlives the values it hashed. Fingerprints fold
//! these digests and hash raw values only inside the partial last group
//! ([`TimeSeries::prefix_fingerprints`]): O(blocks + tail), not O(len).

use crate::fingerprint::{block_digest, PrefixFingerprint, SeriesFingerprinter};
use std::borrow::Cow;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Number of values per sealed block: 256 points (a multiple of 64, so
/// blocks always cover whole bitset words downstream).
pub const SERIES_BLOCK_LEN: usize = 256;

/// One sealed block: exactly [`SERIES_BLOCK_LEN`] values and their
/// lazily computed digest.
#[derive(Clone)]
struct Block {
    values: Vec<f64>,
    /// `block_digest(&values)` once computed; every write resets it.
    digest: OnceLock<u128>,
}

impl Block {
    fn sealed(values: Vec<f64>) -> Arc<Block> {
        Arc::new(Block {
            values,
            digest: OnceLock::new(),
        })
    }

    fn digest(&self) -> u128 {
        *self.digest.get_or_init(|| block_digest(&self.values))
    }
}

/// A fixed-length series of optionally-missing measurements aligned to a
/// dataset-wide time grid, stored as `Arc`-shared blocks plus a mutable
/// tail (see the module docs).
#[derive(Clone, Default)]
pub struct TimeSeries {
    /// Sealed blocks of exactly [`SERIES_BLOCK_LEN`] values each.
    blocks: Vec<Arc<Block>>,
    /// The mutable tail: fewer than [`SERIES_BLOCK_LEN`] values.
    tail: Vec<f64>, // NaN encodes "missing"
    /// Rolling fingerprint of the whole blocks dropped from the front by
    /// sliding-window trims, in drop order. Continuing this digest over the
    /// retained values yields the fingerprint of the untrimmed *origin
    /// stream*, which is how a trimmed window stays addressable in
    /// content-keyed caches. Freshly built series (including windows and
    /// slices) start with an empty digest; equality ignores it.
    front: SeriesFingerprinter,
}

impl fmt::Debug for TimeSeries {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TimeSeries(len={}, present={}, blocks={})",
            self.len(),
            self.present_count(),
            self.blocks.len()
        )
    }
}

/// Element-wise value equality (`NaN != NaN`, matching the semantics the
/// pre-block representation inherited from `Vec<f64>`).
impl PartialEq for TimeSeries {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && self
                .chunks()
                .flatten()
                .zip(other.chunks().flatten())
                .all(|(a, b)| a == b)
    }
}

/// Linearly interpolates `NaN` runs in place: interior gaps between the
/// nearest present neighbours, leading/trailing gaps by extending the
/// nearest present value, an all-`NaN` slice untouched. This is the exact
/// missing-value fill of [`TimeSeries::interpolate_missing`], exposed on a
/// raw slice so the segmentation layer can fill an already-materialized
/// window without round-tripping through a second series.
pub fn interpolate_in_place(out: &mut [f64]) {
    let n = out.len();
    let mut i = 0usize;
    while i < n {
        if !out[i].is_nan() {
            i += 1;
            continue;
        }
        // Find gap [i, j)
        let mut j = i;
        while j < n && out[j].is_nan() {
            j += 1;
        }
        let left = if i > 0 { Some(out[i - 1]) } else { None };
        let right = if j < n { Some(out[j]) } else { None };
        match (left, right) {
            (Some(l), Some(r)) => {
                let gap = (j - i + 1) as f64;
                for (k, slot) in out.iter_mut().enumerate().take(j).skip(i) {
                    let frac = (k - i + 1) as f64 / gap;
                    *slot = l + (r - l) * frac;
                }
            }
            (Some(l), None) => {
                for slot in out.iter_mut().take(j).skip(i) {
                    *slot = l;
                }
            }
            (None, Some(r)) => {
                for slot in out.iter_mut().take(j).skip(i) {
                    *slot = r;
                }
            }
            (None, None) => {}
        }
        i = j;
    }
}

impl TimeSeries {
    /// A series of `len` missing values.
    pub fn missing(len: usize) -> Self {
        TimeSeries::from_values(vec![f64::NAN; len])
    }

    /// Builds a series from present values (no missing entries).
    pub fn from_values(mut values: Vec<f64>) -> Self {
        let sealed = (values.len() / SERIES_BLOCK_LEN) * SERIES_BLOCK_LEN;
        let tail = values.split_off(sealed);
        let blocks = values
            .chunks(SERIES_BLOCK_LEN)
            .map(|c| Block::sealed(c.to_vec()))
            .collect();
        TimeSeries {
            blocks,
            tail,
            front: SeriesFingerprinter::new(),
        }
    }

    /// Builds a series from optional values.
    pub fn from_options(values: &[Option<f64>]) -> Self {
        TimeSeries::from_values(values.iter().map(|v| v.unwrap_or(f64::NAN)).collect())
    }

    /// Number of grid points (present or missing).
    #[inline]
    pub fn len(&self) -> usize {
        self.blocks.len() * SERIES_BLOCK_LEN + self.tail.len()
    }

    /// Whether the series has no points at all.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty() && self.tail.is_empty()
    }

    /// Number of values covered by sealed blocks (always
    /// `len() - len() % SERIES_BLOCK_LEN`).
    #[inline]
    pub fn sealed_len(&self) -> usize {
        self.blocks.len() * SERIES_BLOCK_LEN
    }

    /// Number of sealed blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// How many leading sealed blocks `self` and `other` share *by pointer*
    /// (`Arc::ptr_eq`). This is the structural-sharing observable: after an
    /// append, every pre-existing sealed block must still be the same
    /// allocation — appends extend, they do not copy the stable prefix.
    pub fn shares_blocks_with(&self, other: &TimeSeries) -> usize {
        self.blocks
            .iter()
            .zip(other.blocks.iter())
            .take_while(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }

    /// Drops the first `count` sealed blocks — the sliding-window trim.
    /// Indices shift down by `count * SERIES_BLOCK_LEN`; each dropped block
    /// is released with one `Arc` drop (other series revisions sharing it
    /// keep it alive) after its digest is folded into the front digest.
    /// Panics when fewer than `count` blocks exist.
    pub fn drop_front_blocks(&mut self, count: usize) {
        assert!(
            count <= self.blocks.len(),
            "cannot drop {count} of {} blocks",
            self.blocks.len()
        );
        for block in &self.blocks[..count] {
            // The front only ever holds whole blocks, so it stays on a
            // group boundary.
            self.front.push_block(block.digest());
        }
        self.blocks.drain(..count);
    }

    /// Number of values dropped from the front of this series by
    /// [`TimeSeries::drop_front_blocks`] since it was built. Zero for a
    /// freshly constructed series (windows and slices reset lineage).
    pub fn dropped_front(&self) -> usize {
        self.front.len()
    }

    /// A clone of the front digest: the rolling fingerprint state of the
    /// [`TimeSeries::dropped_front`] values trimmed from this series.
    /// Resume it over the retained values (left to right) and its
    /// checkpoints are origin-stream fingerprints — the fingerprint the
    /// same extent would have had before any trim.
    pub fn front_digest(&self) -> SeriesFingerprinter {
        self.front.clone()
    }

    /// The content fingerprint of the whole series: equal for any two
    /// series holding the same values, however they were built, trimmed or
    /// written. O(blocks + tail) once the block digests are cached.
    pub fn fingerprint(&self) -> u128 {
        let mut fp = SeriesFingerprinter::new();
        for block in &self.blocks {
            fp.push_block(block.digest());
        }
        for &v in &self.tail {
            fp.push(v);
        }
        fp.checkpoint()
    }

    /// The fingerprints of the prefixes `[0, end)` for each `end` in
    /// `ends` (clamped to the length), plain and origin-anchored
    /// ([`PrefixFingerprint`]). Whole blocks before a prefix's last group
    /// fold their cached digests; only the values of that partial group
    /// are hashed, and ascending ends inside one group share one pass over
    /// them. Each prefix's `content` equals the fingerprint of that prefix
    /// as a series of its own, and its `origin` the fingerprint of the
    /// same extent of the untrimmed stream.
    pub fn prefix_fingerprints(&self, ends: &[usize]) -> Vec<PrefixFingerprint> {
        let trimmed = !self.front.is_empty();
        let mut content = SeriesFingerprinter::new();
        let mut origin = self.front.clone();
        let mut folded = 0usize;
        // The partial group being hashed: its index and the fingerprinter
        // over its first values.
        let mut partial: Option<(usize, SeriesFingerprinter)> = None;
        let mut out = Vec::with_capacity(ends.len());
        for &end in ends {
            let end = end.min(self.len());
            let group = end / SERIES_BLOCK_LEN;
            if group < folded {
                // Out of order: walk again from the start.
                content = SeriesFingerprinter::new();
                origin = self.front.clone();
                folded = 0;
            }
            while folded < group {
                let digest = self.blocks[folded].digest();
                content.push_block(digest);
                if trimmed {
                    origin.push_block(digest);
                }
                folded += 1;
            }
            let start = group * SERIES_BLOCK_LEN;
            let run = match &mut partial {
                Some((g, run)) if *g == group && start + run.len() <= end => run,
                slot => &mut slot.insert((group, SeriesFingerprinter::new())).1,
            };
            let values = match self.blocks.get(group) {
                Some(block) => &block.values[..],
                None => &self.tail[..],
            };
            for &v in &values[run.len()..end - start] {
                run.push(v);
            }
            let plain = content.checkpoint_with(run);
            out.push(PrefixFingerprint {
                end,
                content: plain,
                origin: if trimmed {
                    origin.checkpoint_with(run)
                } else {
                    plain
                },
            });
        }
        out
    }

    /// The storage chunks in order: every sealed block, then the tail (if
    /// non-empty). Chunk boundaries fall on multiples of
    /// [`SERIES_BLOCK_LEN`], hence on 64-bit word boundaries.
    pub fn chunks(&self) -> impl Iterator<Item = &[f64]> {
        self.blocks
            .iter()
            .map(|b| b.values.as_slice())
            .chain(std::iter::once(self.tail.as_slice()).filter(|t| !t.is_empty()))
    }

    /// The raw values as one contiguous slice, borrowed when the series
    /// occupies a single chunk and copied otherwise (missing values are
    /// `NaN`).
    pub fn contiguous(&self) -> Cow<'_, [f64]> {
        if self.blocks.is_empty() {
            Cow::Borrowed(&self.tail)
        } else if self.blocks.len() == 1 && self.tail.is_empty() {
            Cow::Borrowed(self.blocks[0].values.as_slice())
        } else {
            Cow::Owned(self.copy_range(0, self.len()))
        }
    }

    /// Copies all raw values into a fresh contiguous `Vec` (missing values
    /// are `NaN`).
    pub fn copy_values(&self) -> Vec<f64> {
        self.copy_range(0, self.len())
    }

    /// Copies the raw values of `[start, end)` (clamped to bounds) into a
    /// fresh contiguous `Vec`.
    pub fn copy_range(&self, start: usize, end: usize) -> Vec<f64> {
        let n = self.len();
        let start = start.min(n);
        let end = end.clamp(start, n);
        let mut out = Vec::with_capacity(end - start);
        let mut g = 0usize;
        for chunk in self.chunks() {
            let ce = g + chunk.len();
            if ce > start && g < end {
                let lo = start.saturating_sub(g);
                let hi = (end - g).min(chunk.len());
                out.extend_from_slice(&chunk[lo..hi]);
            }
            g = ce;
            if g >= end {
                break;
            }
        }
        out
    }

    /// Value at index `i`, `None` when missing or out of range.
    #[inline]
    pub fn get(&self, i: usize) -> Option<f64> {
        if i >= self.len() {
            return None;
        }
        let v = self.raw(i);
        (!v.is_nan()).then_some(v)
    }

    /// Raw value at index `i` (`NaN` when missing). Panics when out of range.
    #[inline]
    pub fn raw(&self, i: usize) -> f64 {
        let sealed = self.sealed_len();
        if i < sealed {
            self.blocks[i / SERIES_BLOCK_LEN].values[i % SERIES_BLOCK_LEN]
        } else {
            self.tail[i - sealed]
        }
    }

    /// Sets the value at index `i`. Panics when out of range. Writing into a
    /// sealed block copies that block first when it is shared with another
    /// series (copy-on-write, O([`SERIES_BLOCK_LEN`]) worst case); writes
    /// into the tail or an unshared block are in place. Either way the
    /// written block's digest is reset.
    pub fn set(&mut self, i: usize, value: f64) {
        let sealed = self.sealed_len();
        if i < sealed {
            let block = Arc::make_mut(&mut self.blocks[i / SERIES_BLOCK_LEN]);
            block.values[i % SERIES_BLOCK_LEN] = value;
            block.digest = OnceLock::new();
        } else {
            self.tail[i - sealed] = value;
        }
    }

    /// Marks index `i` as missing. Panics when out of range.
    pub fn clear(&mut self, i: usize) {
        self.set(i, f64::NAN);
    }

    /// Whether the value at `i` is present.
    #[inline]
    pub fn is_present(&self, i: usize) -> bool {
        i < self.len() && !self.raw(i).is_nan()
    }

    /// Number of present (non-missing) values.
    pub fn present_count(&self) -> usize {
        self.chunks().flatten().filter(|v| !v.is_nan()).count()
    }

    /// Number of missing values.
    pub fn missing_count(&self) -> usize {
        self.len() - self.present_count()
    }

    /// Iterates over `Option<f64>` values in grid order.
    pub fn iter(&self) -> impl Iterator<Item = Option<f64>> + '_ {
        self.chunks()
            .flatten()
            .map(|v| if v.is_nan() { None } else { Some(*v) })
    }

    /// Iterates over `(index, value)` for present values only.
    pub fn present(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.chunks()
            .flatten()
            .enumerate()
            .filter(|(_, v)| !v.is_nan())
            .map(|(i, v)| (i, *v))
    }

    /// The difference `x[i] - x[i-1]`, `None` when either side is missing or
    /// `i == 0`. This is the quantity compared against the evolving rate ε.
    #[inline]
    pub fn delta(&self, i: usize) -> Option<f64> {
        if i == 0 || i >= self.len() {
            return None;
        }
        let (prev, cur) = (self.raw(i - 1), self.raw(i));
        if prev.is_nan() || cur.is_nan() {
            None
        } else {
            Some(cur - prev)
        }
    }

    /// Minimum of present values.
    pub fn min(&self) -> Option<f64> {
        self.present().map(|(_, v)| v).fold(None, |acc, v| {
            Some(match acc {
                None => v,
                Some(a) => a.min(v),
            })
        })
    }

    /// Maximum of present values.
    pub fn max(&self) -> Option<f64> {
        self.present().map(|(_, v)| v).fold(None, |acc, v| {
            Some(match acc {
                None => v,
                Some(a) => a.max(v),
            })
        })
    }

    /// Mean of present values.
    pub fn mean(&self) -> Option<f64> {
        let mut n = 0usize;
        let mut sum = 0.0;
        for (_, v) in self.present() {
            n += 1;
            sum += v;
        }
        (n > 0).then(|| sum / n as f64)
    }

    /// Population standard deviation of present values.
    pub fn std_dev(&self) -> Option<f64> {
        let mean = self.mean()?;
        let mut n = 0usize;
        let mut sq = 0.0;
        for (_, v) in self.present() {
            n += 1;
            sq += (v - mean) * (v - mean);
        }
        (n > 0).then(|| (sq / n as f64).sqrt())
    }

    /// Extracts the sub-series `[first, first + len)`, clamped to bounds.
    /// The window is a fresh series (re-chunked from zero) — windows do not
    /// share blocks with their source.
    pub fn window(&self, first: usize, len: usize) -> TimeSeries {
        let first = first.min(self.len());
        let end = first.saturating_add(len).min(self.len());
        TimeSeries::from_values(self.copy_range(first, end))
    }

    /// Fills missing values by linear interpolation between the nearest
    /// present neighbours; leading/trailing gaps are filled by extending the
    /// nearest present value. A fully-missing series is left untouched.
    ///
    /// The MISCELA pipeline applies this before linear segmentation so that
    /// isolated nulls do not break the segmentation step.
    pub fn interpolate_missing(&self) -> TimeSeries {
        let mut out = self.copy_values();
        interpolate_in_place(&mut out);
        TimeSeries::from_values(out)
    }

    /// Appends `n` missing points in place, sealing the tail into shared
    /// blocks as it fills. This is the missing-value fill of the dataset
    /// append path: when the grid grows, every series is first padded with
    /// `null`s and the appended measurements then overwrite the points that
    /// actually arrived. Sealed prefix blocks are never touched.
    pub fn extend_missing(&mut self, n: usize) {
        self.tail.extend(std::iter::repeat_n(f64::NAN, n));
        self.seal_full_tail();
    }

    /// Seals the tail into blocks while it holds at least one full block of
    /// values, restoring the `tail.len() < SERIES_BLOCK_LEN` invariant.
    fn seal_full_tail(&mut self) {
        while self.tail.len() >= SERIES_BLOCK_LEN {
            let rest = self.tail.split_off(SERIES_BLOCK_LEN);
            let sealed = std::mem::replace(&mut self.tail, rest);
            self.blocks.push(Block::sealed(sealed));
        }
    }

    /// Fraction of values that are present, in `[0, 1]` (1.0 for empty).
    pub fn coverage(&self) -> f64 {
        if self.is_empty() {
            1.0
        } else {
            self.present_count() as f64 / self.len() as f64
        }
    }
}

impl FromIterator<Option<f64>> for TimeSeries {
    fn from_iter<T: IntoIterator<Item = Option<f64>>>(iter: T) -> Self {
        TimeSeries::from_values(iter.into_iter().map(|v| v.unwrap_or(f64::NAN)).collect())
    }
}

impl FromIterator<f64> for TimeSeries {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        TimeSeries::from_values(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let s = TimeSeries::from_options(&[Some(1.0), None, Some(3.0)]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.get(0), Some(1.0));
        assert_eq!(s.get(1), None);
        assert_eq!(s.get(2), Some(3.0));
        assert_eq!(s.get(3), None);
        assert_eq!(s.present_count(), 2);
        assert_eq!(s.missing_count(), 1);
        assert!((s.coverage() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn missing_series() {
        let s = TimeSeries::missing(5);
        assert_eq!(s.present_count(), 0);
        assert_eq!(s.mean(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.std_dev(), None);
    }

    #[test]
    fn set_and_clear() {
        let mut s = TimeSeries::missing(3);
        s.set(1, 2.5);
        assert_eq!(s.get(1), Some(2.5));
        assert!(s.is_present(1));
        s.clear(1);
        assert_eq!(s.get(1), None);
    }

    #[test]
    fn delta_handles_missing_and_bounds() {
        let s = TimeSeries::from_options(&[Some(1.0), Some(3.0), None, Some(7.0)]);
        assert_eq!(s.delta(0), None);
        assert_eq!(s.delta(1), Some(2.0));
        assert_eq!(s.delta(2), None); // current missing
        assert_eq!(s.delta(3), None); // previous missing
        assert_eq!(s.delta(4), None); // out of range
    }

    #[test]
    fn statistics() {
        let s = TimeSeries::from_values(vec![2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.mean(), Some(5.0));
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert!((s.std_dev().unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn window_clamps() {
        let s = TimeSeries::from_values(vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        let w = s.window(1, 3);
        assert_eq!(w.copy_values(), vec![1.0, 2.0, 3.0]);
        let w = s.window(3, 10);
        assert_eq!(w.copy_values(), vec![3.0, 4.0]);
        let w = s.window(9, 2);
        assert!(w.is_empty());
    }

    #[test]
    fn interpolation_fills_interior_gap() {
        let s = TimeSeries::from_options(&[Some(0.0), None, None, Some(3.0)]);
        let f = s.interpolate_missing();
        assert_eq!(f.get(1), Some(1.0));
        assert_eq!(f.get(2), Some(2.0));
        assert_eq!(f.missing_count(), 0);
    }

    #[test]
    fn interpolation_extends_edges() {
        let s = TimeSeries::from_options(&[None, Some(2.0), None]);
        let f = s.interpolate_missing();
        assert_eq!(f.get(0), Some(2.0));
        assert_eq!(f.get(2), Some(2.0));
    }

    #[test]
    fn interpolation_leaves_all_missing_untouched() {
        let s = TimeSeries::missing(4);
        let f = s.interpolate_missing();
        assert_eq!(f.present_count(), 0);
    }

    #[test]
    fn from_iterators() {
        let a: TimeSeries = vec![1.0, 2.0].into_iter().collect();
        assert_eq!(a.len(), 2);
        let b: TimeSeries = vec![Some(1.0), None].into_iter().collect();
        assert_eq!(b.present_count(), 1);
    }

    #[test]
    fn present_iterator_skips_missing() {
        let s = TimeSeries::from_options(&[Some(1.0), None, Some(3.0)]);
        let v: Vec<(usize, f64)> = s.present().collect();
        assert_eq!(v, vec![(0, 1.0), (2, 3.0)]);
        let all: Vec<Option<f64>> = s.iter().collect();
        assert_eq!(all, vec![Some(1.0), None, Some(3.0)]);
    }

    // ---- shared-block storage -------------------------------------------

    /// A multi-block fixture: 2 sealed blocks plus a 40-point tail.
    fn long_series() -> TimeSeries {
        TimeSeries::from_values(
            (0..2 * SERIES_BLOCK_LEN + 40)
                .map(|i| (i as f64 * 0.37).sin() * 3.0)
                .collect(),
        )
    }

    #[test]
    fn blocks_seal_at_block_len_and_chunks_are_aligned() {
        let s = long_series();
        assert_eq!(s.block_count(), 2);
        assert_eq!(s.sealed_len(), 2 * SERIES_BLOCK_LEN);
        let chunks: Vec<usize> = s.chunks().map(|c| c.len()).collect();
        assert_eq!(chunks, vec![SERIES_BLOCK_LEN, SERIES_BLOCK_LEN, 40]);
        // Values round-trip exactly through the chunked representation.
        let flat = s.copy_values();
        assert_eq!(flat.len(), s.len());
        for (i, v) in flat.iter().enumerate() {
            assert_eq!(s.raw(i), *v, "index {i}");
        }
        // Short series stay tail-only and borrow contiguously.
        let short = TimeSeries::from_values(vec![1.0; 40]);
        assert_eq!(short.block_count(), 0);
        assert!(matches!(short.contiguous(), Cow::Borrowed(_)));
        // An exactly-one-block series also borrows.
        let one = TimeSeries::from_values(vec![1.0; SERIES_BLOCK_LEN]);
        assert_eq!(one.block_count(), 1);
        assert!(one.tail.is_empty());
        assert!(matches!(one.contiguous(), Cow::Borrowed(_)));
        // Multi-chunk series materialize.
        assert!(matches!(s.contiguous(), Cow::Owned(_)));
        assert_eq!(&s.contiguous()[..], &flat[..]);
    }

    #[test]
    fn clones_share_blocks_and_extends_do_not_copy_the_prefix() {
        let mut s = long_series();
        let snapshot = s.clone();
        assert_eq!(snapshot.shares_blocks_with(&s), 2);
        // Extending the clone seals new blocks but the pre-existing sealed
        // prefix stays pointer-identical in both directions.
        s.extend_missing(SERIES_BLOCK_LEN);
        assert_eq!(s.block_count(), 3);
        assert_eq!(s.shares_blocks_with(&snapshot), 2);
        // Tail writes never touch shared blocks.
        let last = s.len() - 1;
        s.set(last, 42.0);
        assert_eq!(s.shares_blocks_with(&snapshot), 2);
        // Writing into a *shared* sealed block copies only that block.
        s.set(0, 99.0);
        assert_eq!(s.shares_blocks_with(&snapshot), 0);
        assert_eq!(s.shares_blocks_with(&snapshot.clone()), 0);
        assert_eq!(snapshot.get(0), long_series().get(0));
        assert_eq!(s.get(0), Some(99.0));
        // Block 1 is still shared by pointer even though block 0 diverged.
        assert!(Arc::ptr_eq(&s.blocks[1], &snapshot.blocks[1]));
    }

    #[test]
    fn drop_front_blocks_trims_the_window() {
        let mut s = long_series();
        let expect: Vec<f64> = s.copy_range(SERIES_BLOCK_LEN, s.len());
        let before = s.clone();
        s.drop_front_blocks(1);
        assert_eq!(s.len(), SERIES_BLOCK_LEN + 40);
        assert_eq!(s.copy_values(), expect);
        // The retained block is still shared with the pre-trim clone.
        assert!(Arc::ptr_eq(&s.blocks[0], &before.blocks[1]));
        s.drop_front_blocks(1);
        assert_eq!(s.len(), 40);
        assert_eq!(s.block_count(), 0);
    }

    #[test]
    fn drop_front_blocks_folds_block_digests_into_the_front() {
        let full = long_series();
        let mut s = full.clone();
        assert_eq!(s.dropped_front(), 0);
        s.drop_front_blocks(1);
        assert_eq!(s.dropped_front(), SERIES_BLOCK_LEN);
        s.drop_front_blocks(1);
        assert_eq!(s.dropped_front(), 2 * SERIES_BLOCK_LEN);
        // The front is the fold of the dropped blocks' digests, which is
        // what streaming their values would have produced.
        let mut folded = SeriesFingerprinter::new();
        let mut streamed = SeriesFingerprinter::new();
        for block in &full.blocks[..2] {
            folded.push_block(block.digest());
            for &v in &block.values {
                streamed.push(v);
            }
        }
        assert_eq!(s.front_digest(), folded);
        assert_eq!(s.front_digest(), streamed);
        // Continuing the front over the retained values reproduces the
        // origin-stream fingerprint: the trim is invisible to checkpoints.
        let mut resumed = s.front_digest();
        for chunk in s.chunks() {
            for &v in chunk {
                resumed.push(v);
            }
        }
        assert_eq!(resumed.checkpoint(), full.fingerprint());
        let at_end = s.prefix_fingerprints(&[s.len()]);
        assert_eq!(at_end[0].origin, full.fingerprint());
        assert_eq!(at_end[0].content, s.fingerprint());
        // Fresh constructions (windows included) reset lineage.
        assert_eq!(s.window(0, 10).dropped_front(), 0);
        assert_eq!(TimeSeries::from_values(s.copy_values()).dropped_front(), 0);
        // Equality ignores the digest.
        assert_eq!(s, TimeSeries::from_values(s.copy_values()));
    }

    #[test]
    fn writes_reset_the_block_digest() {
        let fresh = |s: &TimeSeries| TimeSeries::from_values(s.copy_values()).fingerprint();
        // In place: the block is unshared, so the write lands in it.
        let mut s = long_series();
        let before = s.fingerprint(); // caches every block digest
        let ptr = Arc::as_ptr(&s.blocks[1]);
        s.set(SERIES_BLOCK_LEN + 7, 123.5);
        assert_eq!(Arc::as_ptr(&s.blocks[1]), ptr, "write was not in place");
        assert_ne!(s.fingerprint(), before);
        assert_eq!(s.fingerprint(), fresh(&s));
        // Copy-on-write: the block is shared with a clone whose digest is
        // cached; the copy must not inherit it.
        let shared = s.clone();
        let shared_fp = shared.fingerprint();
        s.clear(3);
        assert!(!Arc::ptr_eq(&s.blocks[0], &shared.blocks[0]));
        assert_eq!(s.fingerprint(), fresh(&s));
        assert_eq!(shared.fingerprint(), shared_fp);
        assert_eq!(shared.fingerprint(), fresh(&shared));
        // Restoring the value restores the fingerprint.
        s.set(3, shared.raw(3));
        assert_eq!(s.fingerprint(), shared_fp);
    }

    #[test]
    fn prefix_fingerprints_match_prefixes_as_series() {
        let s = long_series();
        let ends = [
            0,
            1,
            100,
            SERIES_BLOCK_LEN,
            SERIES_BLOCK_LEN + 1,
            400,
            s.len(),
        ];
        let got = s.prefix_fingerprints(&ends);
        for (p, &end) in got.iter().zip(&ends) {
            assert_eq!(p.end, end);
            assert_eq!(p.content, s.window(0, end).fingerprint(), "end {end}");
            assert_eq!(p.origin, p.content);
        }
        // Unordered and out-of-range ends still answer correctly.
        let got = s.prefix_fingerprints(&[400, 5, s.len() + 9]);
        assert_eq!(got[0].content, s.window(0, 400).fingerprint());
        assert_eq!(got[1].content, s.window(0, 5).fingerprint());
        assert_eq!(got[2].end, s.len());
        assert_eq!(got[2].content, s.fingerprint());
    }

    mod fold_proptest {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Series grown by appends of random sizes, block-aligned
            /// trims and single-value writes: the folded fingerprints equal
            /// those of fresh copies — the whole series, every prefix, and
            /// the untrimmed origin stream.
            #[test]
            fn folded_fingerprints_match_fresh_copies(
                ops in proptest::collection::vec((0usize..4, 0usize..600, -5.0f64..5.0), 1..24),
                ends_ppm in proptest::collection::vec(0u32..1_000_000, 0..6),
            ) {
                let mut s = TimeSeries::default();
                // Every value the series ever held, trimmed ones included.
                let mut history: Vec<f64> = Vec::new();
                for &(kind, size, value) in &ops {
                    let front = s.dropped_front();
                    match kind {
                        0 | 1 => {
                            let old = s.len();
                            s.extend_missing(size);
                            history.extend(std::iter::repeat_n(f64::NAN, size));
                            for i in (old..s.len()).step_by(3) {
                                let v = value + i as f64 * 0.01;
                                s.set(i, v);
                                history[front + i] = v;
                            }
                        }
                        2 => s.drop_front_blocks(size % (s.block_count() + 1)),
                        _ if !s.is_empty() => {
                            let i = size % s.len();
                            s.set(i, value);
                            history[front + i] = value;
                        }
                        _ => {}
                    }
                }
                let copy = TimeSeries::from_values(s.copy_values());
                prop_assert_eq!(s.fingerprint(), copy.fingerprint());
                let n = s.len();
                let mut ends: Vec<usize> = ends_ppm
                    .iter()
                    .map(|&ppm| (n as u64 * ppm as u64 / 1_000_000) as usize)
                    .collect();
                ends.sort_unstable();
                ends.push(n);
                let front = s.dropped_front();
                for p in s.prefix_fingerprints(&ends) {
                    prop_assert_eq!(p.content, s.window(0, p.end).fingerprint());
                    let origin = TimeSeries::from_values(history[..front + p.end].to_vec());
                    prop_assert_eq!(p.origin, origin.fingerprint());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot drop")]
    fn drop_front_blocks_rejects_overshoot() {
        let mut s = long_series();
        s.drop_front_blocks(3);
    }

    #[test]
    fn copy_range_spans_chunks() {
        let s = long_series();
        let n = s.len();
        for (start, end) in [
            (0, n),
            (10, 20),
            (SERIES_BLOCK_LEN - 3, SERIES_BLOCK_LEN + 5),
            (2 * SERIES_BLOCK_LEN - 1, n),
            (n - 1, n),
            (n, n + 10),
            (7, 7),
        ] {
            let got = s.copy_range(start, end);
            let expect: Vec<f64> = (start.min(n)..end.min(n)).map(|i| s.raw(i)).collect();
            assert_eq!(got, expect, "range {start}..{end}");
        }
    }

    #[test]
    fn equality_is_element_wise_and_nan_sensitive() {
        let a = long_series();
        let b = long_series();
        assert_eq!(a, b);
        let mut c = long_series();
        c.set(SERIES_BLOCK_LEN + 3, 1234.5);
        assert_ne!(a, c);
        // NaN != NaN: a series with a missing value is not equal to itself's
        // clone under PartialEq, exactly like the old Vec<f64> derive.
        let mut d = long_series();
        d.clear(5);
        assert_ne!(d, d.clone());
        // Different lengths are never equal.
        assert_ne!(a, a.window(0, a.len() - 1));
    }

    #[test]
    fn interpolate_in_place_matches_interpolate_missing() {
        let fixtures = [
            vec![Some(0.0), None, None, Some(3.0)],
            vec![None, Some(2.0), None],
            vec![None, None],
            vec![Some(1.0)],
            (0..600)
                .map(|i| ((i * 3 + 1) % 7 != 0).then_some((i as f64 * 0.2).cos()))
                .collect::<Vec<_>>(),
        ];
        for options in &fixtures {
            let s = TimeSeries::from_options(options);
            let mut flat = s.copy_values();
            interpolate_in_place(&mut flat);
            let via_series = s.interpolate_missing();
            // Compare as Options: raw f64 equality would fail on NaN slots.
            let from_flat: Vec<Option<f64>> = TimeSeries::from_values(flat).iter().collect();
            let from_series: Vec<Option<f64>> = via_series.iter().collect();
            assert_eq!(from_flat, from_series);
        }
    }
}
