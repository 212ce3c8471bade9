//! Step (2) of MISCELA: extracting evolving timestamps.
//!
//! Measurements "co-evolve" when they increase/decrease at the same
//! timestamp; a change only counts when its magnitude is at least the
//! evolving rate ε ("If the amount of changes from the previous timestamp is
//! smaller than ε, the timestamps are evaluated as that the measurements do
//! not change", Section 2.1).
//!
//! For each sensor this module produces two [`Bitset`]s over grid indices:
//! the timestamps at which the measurement rises by at least ε and those at
//! which it falls by at least ε.
//!
//! # One extraction kernel
//!
//! Every path through steps (1)+(2) — a cold extraction
//! ([`extract_state`]), a rescan at another ε ([`extract_rescan`]), a tail
//! resume ([`extract_resume`]) and a front-trim derivation
//! ([`derive_trimmed`]) — ends in the same two jobs. With segmentation,
//! `Segmentation::reconstruct_from` rebuilds the smoothed values of
//! exactly the grid range the path rescans: the whole series, the tail
//! from the first changed word, or the prefix up to a trim's resync point.
//! Then one word-level delta scan reads values as consecutive
//! word-aligned chunks: that reconstructed window, or, without
//! segmentation, the series' storage blocks in place. A cold extraction
//! runs one flattening pass for both the segmenter and the
//! reconstruction, and no series is rebuilt from smoothed values. The
//! paths differ only in which words they keep: a resume copies the words
//! wholly below its first changed value, and a trim derivation
//! funnel-shifts the origin's words and rescans those up to its resync
//! point.

use crate::bitset::{shift_words_earlier, Bitset, BitsetRef};
use crate::params::Extraction;
use crate::segmentation::{self, Flat, Segmentation};
use miscela_model::TimeSeries;
use std::sync::Arc;

/// Direction of evolution at a timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Direction {
    /// The measurement increased by at least ε.
    Up,
    /// The measurement decreased by at least ε.
    Down,
}

impl Direction {
    /// Both directions, in a fixed order.
    pub const BOTH: [Direction; 2] = [Direction::Up, Direction::Down];

    /// The opposite direction.
    pub fn flip(self) -> Direction {
        match self {
            Direction::Up => Direction::Down,
            Direction::Down => Direction::Up,
        }
    }

    /// Short label used by displays and exports (`"+"` / `"-"`).
    pub fn symbol(self) -> &'static str {
        match self {
            Direction::Up => "+",
            Direction::Down => "-",
        }
    }
}

/// The evolving timestamps of one sensor.
///
/// Both direction sets live in **one contiguous word allocation** laid out
/// `[up words | down words]`, each half `len.div_ceil(64)` words long. The
/// support-count and evolving-scan inner loops stream over plain `&[u64]`
/// runs with no pointer chase between the two directions, which is what
/// lets the compiler autovectorize them (see the layout note in
/// ARCHITECTURE.md); callers read each half through a cheap, `Copy`
/// [`BitsetRef`] view instead of owning per-direction `Bitset`s.
#[derive(Debug, Clone, PartialEq)]
pub struct EvolvingSets {
    len: usize,
    words: Vec<u64>,
}

impl EvolvingSets {
    /// All-zero evolving sets over `len` grid positions.
    pub fn new(len: usize) -> Self {
        EvolvingSets {
            len,
            words: vec![0u64; 2 * len.div_ceil(64)],
        }
    }

    /// Builds the contiguous layout from two owned per-direction bitsets
    /// (whose capacities must match). Test and oracle code constructs sets
    /// bit-by-bit through [`Bitset`] and converts once at the end.
    pub fn from_bitsets(up: &Bitset, down: &Bitset) -> Self {
        assert_eq!(up.len(), down.len(), "direction capacity mismatch");
        let mut words = Vec::with_capacity(2 * up.view().words().len());
        words.extend_from_slice(up.view().words());
        words.extend_from_slice(down.view().words());
        EvolvingSets {
            len: up.len(),
            words,
        }
    }

    /// Words per direction half.
    fn half(&self) -> usize {
        self.words.len() / 2
    }

    /// The Up-direction bits.
    pub fn up(&self) -> BitsetRef<'_> {
        BitsetRef::from_words(self.len, &self.words[..self.half()])
    }

    /// The Down-direction bits.
    pub fn down(&self) -> BitsetRef<'_> {
        BitsetRef::from_words(self.len, &self.words[self.half()..])
    }

    /// The bits for a direction.
    pub fn for_direction(&self, dir: Direction) -> BitsetRef<'_> {
        match dir {
            Direction::Up => self.up(),
            Direction::Down => self.down(),
        }
    }

    /// Mutable `(up, down)` word halves, for the word-level scan writers.
    /// Callers must keep bits at positions `>= len` zero in both halves.
    fn halves_mut(&mut self) -> (&mut [u64], &mut [u64]) {
        let half = self.words.len() / 2;
        self.words.split_at_mut(half)
    }

    /// Total number of evolving timestamps (either direction).
    pub fn total(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of grid positions the bitsets cover.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitsets cover no grid positions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Extracts evolving timestamps from a (possibly already smoothed) series.
///
/// Timestamp `t` (for `t >= 1`) is Up-evolving when
/// `x[t] - x[t-1] >= epsilon` and Down-evolving when
/// `x[t-1] - x[t] >= epsilon`. Missing values never evolve. With
/// `epsilon == 0`, any strictly positive (negative) change counts.
pub fn extract_evolving(series: &TimeSeries, epsilon: f64) -> EvolvingSets {
    extract_state(series, Extraction::new(epsilon, false, 0.0)).sets
}

/// The word-level delta scan at a classification threshold
/// ([`Extraction::threshold`]): recomputes the words of `sets` from
/// `first_word` up to the last word the values reach and leaves every
/// other word untouched.
///
/// The values arrive as consecutive `chunks`, the first holding grid index
/// `base`. `base` must not exceed the first value the scan reads,
/// `(first_word * 64).max(1) - 1`, and every later chunk must start on a
/// 64-bit word boundary. A series' storage blocks qualify as they are
/// (sealed blocks are multiples of 64 long,
/// `miscela_model::SERIES_BLOCK_LEN`), so a raw series is scanned in place
/// with no contiguous copy; a reconstructed window is one chunk. Every
/// word's values then lie inside one chunk, except the left operand of
/// the first delta of a word that opens a chunk, which is carried across
/// the boundary in a register.
///
/// The accumulation is branchless: a missing value is `NaN`, so is any
/// delta it enters, and both comparisons (`delta >= threshold` for Up,
/// `-delta >= threshold` for Down) are false for `NaN`.
fn scan_words<'a>(
    sets: &mut EvolvingSets,
    chunks: impl IntoIterator<Item = &'a [f64]>,
    base: usize,
    first_word: usize,
    threshold: f64,
) {
    let classify = |delta: f64| (delta >= threshold, -delta >= threshold);
    let (up_words, down_words) = sets.halves_mut();
    let mut g = base; // grid index of the current chunk's first value
    let mut carry = f64::NAN; // the value at `g - 1`, once a chunk has passed
    for chunk in chunks {
        let end = g + chunk.len();
        for wi in (g / 64).max(first_word)..end.div_ceil(64) {
            let first = (wi * 64).max(1);
            let last = ((wi + 1) * 64).min(end);
            let (mut u, mut d) = (0u64, 0u64);
            // `from` is the grid index of the first pair's left operand.
            let from = if first == g {
                let (is_up, is_down) = classify(chunk[0] - carry);
                u |= u64::from(is_up) << (first & 63);
                d |= u64::from(is_down) << (first & 63);
                first
            } else {
                first - 1
            };
            // `windows(2)` keeps the inner loop free of bounds checks and
            // reuses each load as the next delta's subtrahend.
            for (k, pair) in chunk[from - g..last - g].windows(2).enumerate() {
                let (is_up, is_down) = classify(pair[1] - pair[0]);
                let bit = (from + 1 + k) & 63;
                u |= u64::from(is_up) << bit;
                d |= u64::from(is_down) << bit;
            }
            up_words[wi] = u;
            down_words[wi] = d;
        }
        carry = chunk.last().copied().unwrap_or(carry);
        g = end;
    }
}

/// The full front-end state of one series: the evolving sets plus the
/// segmentation they were derived from. Retaining the segmentation is what
/// makes extraction *resumable* — when the series is later appended to,
/// [`extract_resume`] re-segments only from the last unstable segment
/// boundary and extends the bitset words in place instead of recomputing
/// steps (1)+(2) from scratch — and lets an extraction of the same series
/// at another ε skip step (1) ([`extract_rescan`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractionState {
    /// The extracted evolving sets (what the search consumes).
    pub sets: EvolvingSets,
    /// The segmentation behind the smoothed series; `None` when
    /// segmentation was not effective for this extraction.
    pub segmentation: Option<Segmentation>,
}

impl ExtractionState {
    /// Number of grid points the state covers.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Whether the state covers no grid points.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }
}

/// Steps (1)+(2) for one series: linear segmentation when the extraction
/// has a tolerance, followed by evolving-timestamp extraction over the
/// smoothed series. The segmentation is retained so the result can later
/// seed [`extract_resume`]; callers that only need the evolving sets take
/// `.sets`.
pub fn extract_state(series: &TimeSeries, extraction: Extraction) -> ExtractionState {
    match extraction.tolerance() {
        Some(tolerance) => {
            // One flattening pass feeds the segmenter and the reconstruction.
            let flat = Flat::new(series);
            let values = flat.values();
            let seg = flat.segment(&values, tolerance);
            smoothed_state(seg, &flat.raw(values), extraction)
        }
        None => {
            let mut sets = EvolvingSets::new(series.len());
            scan_words(&mut sets, series.chunks(), 0, 0, extraction.threshold());
            ExtractionState {
                sets,
                segmentation: None,
            }
        }
    }
}

/// Step (2) over a whole series smoothed by `seg`: reconstructs it from
/// `raw`, the series' raw values, and scans every word.
fn smoothed_state(seg: Segmentation, raw: &[f64], extraction: Extraction) -> ExtractionState {
    let mut sets = EvolvingSets::new(seg.len);
    let values = seg.reconstruct_from(0, raw);
    scan_words(&mut sets, [&values[..]], 0, 0, extraction.threshold());
    ExtractionState {
        sets,
        segmentation: Some(seg),
    }
}

/// Step (2) alone for a series whose segmentation is already known: the
/// state of `series` under `extraction`, reconstructed and rescanned from
/// the segmentation of `sibling`, byte-identical to [`extract_state`].
///
/// `sibling` must be the [`ExtractionState`] of this same series under an
/// extraction with the **same** tolerance and any ε (the miner enforces
/// both with sibling keys, [`ExtractionKey::sibling`]): step (1) reads
/// only the series and its tolerance, so the segmentation is the one
/// [`extract_state`] would compute. The new state shares every sealed
/// segment run of the sibling. A state of another length or without a
/// segmentation cannot seed a rescan: the series is extracted cold.
pub fn extract_rescan(
    series: &TimeSeries,
    extraction: Extraction,
    sibling: &ExtractionState,
) -> ExtractionState {
    match (&sibling.segmentation, extraction.tolerance()) {
        (Some(seg), Some(_)) if seg.len == series.len() => {
            smoothed_state(seg.clone(), &series.contiguous(), extraction)
        }
        _ => extract_state(series, extraction),
    }
}

/// Tail-resume of steps (1)+(2) for an appended series.
///
/// `prev` must be the [`ExtractionState`] of this series' prefix of length
/// `prev.len()` under the **same** extraction; the caller
/// guarantees the prefix values are unchanged (the miner enforces this with
/// content fingerprints). The result is byte-identical to
/// [`extract_state`] on the full series — segmentation resumes from the
/// last unstable segment boundary (falling back to a full recompute when
/// the resume conditions of [`segmentation::segment_series_tail`] do not
/// hold), and the evolving bitsets are extended word-in-place: only words
/// at or beyond the first changed (smoothed) value are rescanned, so a
/// resume costs O(tail) rather than O(series).
pub fn extract_resume(
    series: &TimeSeries,
    extraction: Extraction,
    prev: &ExtractionState,
) -> ExtractionState {
    let n = series.len();
    let old_len = prev.len();
    if old_len > n || extraction.tolerance().is_some() != prev.segmentation.is_some() {
        // Shape or parameter mismatch: the state cannot seed a resume.
        return extract_state(series, extraction);
    }
    if old_len == n {
        return prev.clone();
    }
    let (segmentation, changed_from) = match (&prev.segmentation, extraction.tolerance()) {
        (Some(prev_seg), Some(tolerance)) => {
            let (seg, changed_from) =
                segmentation::segment_series_tail(series, tolerance, prev_seg, old_len);
            (Some(seg), changed_from)
        }
        _ => (None, old_len),
    };
    // Bit `t` depends only on values `t-1` and `t`: the words wholly below
    // `changed_from` carry over from `prev`, and the boundary word is
    // rescanned in full from values unchanged below `changed_from`, which
    // reproduces its low bits.
    let first_word = (changed_from / 64).min(prev.sets.half());
    let mut sets = EvolvingSets::new(n);
    let (up_words, down_words) = sets.halves_mut();
    up_words[..first_word].copy_from_slice(&prev.sets.up().words()[..first_word]);
    down_words[..first_word].copy_from_slice(&prev.sets.down().words()[..first_word]);
    let threshold = extraction.threshold();
    match &segmentation {
        // Smoothed values are reconstructed only where the scan reads them:
        // from one point before the first rescanned word on.
        Some(seg) => {
            let lo = (first_word * 64).max(1) - 1;
            let values = seg.reconstruct_from(lo, &series.copy_range(lo, n));
            scan_words(&mut sets, [&values[..]], lo, first_word, threshold);
        }
        None => scan_words(&mut sets, series.chunks(), 0, first_word, threshold),
    }
    ExtractionState { sets, segmentation }
}

/// Front-trim derivation of steps (1)+(2): converts the [`ExtractionState`]
/// of a series' untrimmed *origin* into the state of the trimmed window,
/// byte-identical to a cold [`extract_state`] on the window.
///
/// `origin` must be the state of the same value stream before its first
/// `dropped` values were removed, under the **same** extraction;
/// the surviving values are unchanged (the miner enforces both with
/// origin-anchored fingerprints, [`ExtractionKey::from_origin_fingerprint`]).
///
/// Evolving bit `t` depends only on values `t-1` and `t`, so the window's
/// bits past a resync point are the origin's shifted `dropped` positions
/// earlier — one funnel shift per direction half — and only the words up
/// to that point are rescanned. Without segmentation the resync point is
/// 0 (the new first timestamp has no predecessor), so one word is
/// rescanned. With segmentation the retained origin segmentation is
/// spliced via [`segmentation::segment_series_trimmed`], whose resync
/// point bounds the smoothed values the splice may change.
///
/// Returns `None` when the derivation cannot be proven byte-identical (no
/// trim, shape or parameter mismatch, or the trim changed the segmentation
/// tolerance); the caller falls back to a cold extraction.
pub fn derive_trimmed(
    series: &TimeSeries,
    extraction: Extraction,
    origin: &ExtractionState,
    dropped: usize,
) -> Option<ExtractionState> {
    let n = series.len();
    if dropped == 0
        || origin.len() != n + dropped
        || extraction.tolerance().is_some() != origin.segmentation.is_some()
    {
        return None;
    }
    let (segmentation, resync) = match (&origin.segmentation, extraction.tolerance()) {
        (Some(prev_seg), Some(tolerance)) => {
            let (seg, resync) =
                segmentation::segment_series_trimmed(series, tolerance, prev_seg, dropped)?;
            (Some(seg), resync)
        }
        _ => (None, 0),
    };
    let mut sets = EvolvingSets::new(n);
    let (up_words, down_words) = sets.halves_mut();
    shift_words_earlier(origin.sets.up().words(), up_words, dropped);
    shift_words_earlier(origin.sets.down().words(), down_words, dropped);
    // Rescan every word holding a timestamp `<= resync`.
    let raw = series.copy_range(0, ((resync + 1).div_ceil(64) * 64).min(n));
    let values = match &segmentation {
        Some(seg) => seg.reconstruct_from(0, &raw),
        None => raw,
    };
    scan_words(&mut sets, [&values[..]], 0, 0, extraction.threshold());
    Some(ExtractionState { sets, segmentation })
}

/// Cache key for one series' extraction result: a content fingerprint of
/// the series plus the [`Extraction`] steps (1)+(2) read.
///
/// Keying on the series *content* (not the dataset/sensor name) means a
/// re-uploaded dataset hits for every unchanged series and misses only for
/// the ones whose data actually changed, and that parameter changes which
/// do not affect extraction — ψ, η, μ, the delay bound — keep hitting.
///
/// Three key families share one key space, kept apart by salts: content
/// keys ([`ExtractionKey::from_fingerprint`]), origin-anchored keys of
/// trimmed series ([`ExtractionKey::from_origin_fingerprint`]) and sibling
/// keys, which leave ε out ([`ExtractionKey::sibling`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExtractionKey {
    /// 128-bit fingerprint of the series contents (bit patterns + length),
    /// salted for origin-anchored and sibling keys.
    pub fingerprint: u128,
    /// What steps (1)+(2) read of the parameters.
    pub extraction: Extraction,
}

impl ExtractionKey {
    /// Builds the content key from an already-computed content fingerprint
    /// (e.g. a [`miscela_model::PrefixFingerprint::content`] or a rolling
    /// [`SeriesFingerprinter`] checkpoint).
    pub fn from_fingerprint(fingerprint: u128, extraction: Extraction) -> Self {
        ExtractionKey {
            fingerprint,
            extraction,
        }
    }

    /// XOR salt separating **origin-anchored** keys from plain content keys.
    ///
    /// An origin key's fingerprint covers a series' *full history* —
    /// trimmed-away front included — while the state stored under it covers
    /// only the surviving window. An untrimmed series with identical full
    /// content computes the same raw fingerprint as its own content key; if
    /// the two families shared a key space, the shorter window state would
    /// answer (and evict) the untrimmed series' content probes. The salt
    /// keeps the domains disjoint.
    const ORIGIN_KEY_SALT: u128 = 0x9e37_79b9_7f4a_7c15_85eb_ca6b_27d4_eb2f;

    /// Builds the **origin-anchored** key for a front-trimmed series.
    ///
    /// `fingerprint` must be an origin-anchored fingerprint
    /// ([`miscela_model::PrefixFingerprint::origin`]: it covers the dropped
    /// front *and* the values after it), so it identifies a prefix of the
    /// series' full untrimmed history. States cached under
    /// origin keys are retrieved by later, deeper-trimmed windows of the
    /// same stream and converted via [`derive_trimmed`].
    pub fn from_origin_fingerprint(fingerprint: u128, extraction: Extraction) -> Self {
        Self::from_fingerprint(fingerprint ^ Self::ORIGIN_KEY_SALT, extraction)
    }

    /// XOR salt separating **sibling** keys from content and origin keys.
    /// A sibling key carries ε cleared, so without the salt the sibling key
    /// of a series would be its own content key at ε 0, and a state
    /// extracted at another ε would answer that content probe.
    const SIBLING_KEY_SALT: u128 = 0xc2b2_ae3d_27d4_eb4f_1656_67b1_9e37_79f9;

    /// Builds the **sibling** key of a series: its content fingerprint
    /// with ε cleared from the extraction, in a salted domain. Every
    /// extraction of one series at one tolerance shares it, so the state
    /// published under it lends its segmentation to an extraction of the
    /// series at any other ε ([`extract_rescan`]).
    pub fn sibling(fingerprint: u128, extraction: Extraction) -> Self {
        Self::from_fingerprint(
            fingerprint ^ Self::SIBLING_KEY_SALT,
            extraction.without_epsilon(),
        )
    }
}

pub use miscela_model::SeriesFingerprinter;

/// 128-bit content fingerprint over a series' length and raw value bit
/// patterns: the [`SeriesFingerprinter`] checkpoint of all its values,
/// computed from cached block digests plus the tail
/// ([`TimeSeries::fingerprint`]).
pub fn series_fingerprint(series: &TimeSeries) -> u128 {
    series.fingerprint()
}

/// A cache of per-series extraction states, consulted by
/// [`crate::Miner::mine_sweep`] (and so by every mine) so repeated mining
/// of unchanged series skips steps (1)+(2) entirely. Implemented by
/// `miscela-cache`'s `EvolvingSetsCache`; `Sync` because lookups happen
/// from the parallel extraction map's worker threads. States are shared as
/// `Arc`s: a hit is a reference bump, and the miner publishes one state
/// under several keys (content, origin-anchored and sibling) without
/// copying it.
pub trait EvolvingCache: Sync {
    /// The whole-content probe: the state cached under a series' content
    /// key. Counted as a hit or a miss.
    fn get(&self, key: &ExtractionKey) -> Option<Arc<ExtractionState>>;
    /// The prefix probe: the state cached under a pre-append prefix key (to
    /// seed [`extract_resume`]) or an origin-anchored key (to seed
    /// [`derive_trimmed`]). Counted as a prefix hit or a prefix miss.
    fn get_prefix(&self, key: &ExtractionKey) -> Option<Arc<ExtractionState>>;
    /// The sibling probe: the state cached under a sibling key (to seed
    /// [`extract_rescan`]). Counted neither as a hit nor as a prefix probe.
    fn get_sibling(&self, key: &ExtractionKey) -> Option<Arc<ExtractionState>>;
    /// Stores the state computed for a key.
    fn put(&self, key: ExtractionKey, state: Arc<ExtractionState>);
}

/// The pre-refactor per-timestamp extractor, retained verbatim as the
/// equivalence oracle for the word-level scan. Only compiled into test
/// builds.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// The original `delta()`-per-timestamp extraction loop.
    pub(crate) fn extract_evolving_reference(series: &TimeSeries, epsilon: f64) -> EvolvingSets {
        let n = series.len();
        let mut up = Bitset::new(n);
        let mut down = Bitset::new(n);
        for t in 1..n {
            if let Some(delta) = series.delta(t) {
                if epsilon > 0.0 {
                    if delta >= epsilon {
                        up.set(t);
                    } else if -delta >= epsilon {
                        down.set(t);
                    }
                } else {
                    if delta > 0.0 {
                        up.set(t);
                    }
                    if delta < 0.0 {
                        down.set(t);
                    }
                }
            }
        }
        EvolvingSets::from_bitsets(&up, &down)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_helpers() {
        assert_eq!(Direction::Up.flip(), Direction::Down);
        assert_eq!(Direction::Down.flip(), Direction::Up);
        assert_eq!(Direction::Up.symbol(), "+");
        assert_eq!(Direction::Down.symbol(), "-");
        assert_eq!(Direction::BOTH.len(), 2);
    }

    #[test]
    fn extraction_thresholds_on_epsilon() {
        // deltas: +1.0, +0.3, -1.0, -0.3, 0.0
        let s = TimeSeries::from_values(vec![0.0, 1.0, 1.3, 0.3, 0.0, 0.0]);
        let ev = extract_evolving(&s, 0.5);
        assert_eq!(ev.up().indices(), vec![1]);
        assert_eq!(ev.down().indices(), vec![3]);
        assert_eq!(ev.total(), 2);

        // With a smaller epsilon the 0.3-sized changes count too.
        let ev = extract_evolving(&s, 0.25);
        assert_eq!(ev.up().indices(), vec![1, 2]);
        assert_eq!(ev.down().indices(), vec![3, 4]);
    }

    #[test]
    fn zero_epsilon_counts_any_strict_change() {
        let s = TimeSeries::from_values(vec![1.0, 1.0, 1.001, 1.0]);
        let ev = extract_evolving(&s, 0.0);
        assert_eq!(ev.up().indices(), vec![2]);
        assert_eq!(ev.down().indices(), vec![3]);
    }

    #[test]
    fn larger_epsilon_never_increases_evolving_count() {
        let s = TimeSeries::from_values((0..100).map(|i| ((i as f64) * 0.7).sin() * 3.0).collect());
        let mut prev = usize::MAX;
        for eps in [0.0, 0.1, 0.5, 1.0, 2.0, 5.0] {
            let count = extract_evolving(&s, eps).total();
            assert!(count <= prev, "eps={eps} gave {count} > {prev}");
            prev = count;
        }
    }

    #[test]
    fn missing_values_do_not_evolve() {
        let s = TimeSeries::from_options(&[Some(0.0), None, Some(5.0), Some(0.0)]);
        let ev = extract_evolving(&s, 0.5);
        // t=1 and t=2 involve a missing value; only t=3 (5.0 -> 0.0) evolves.
        assert_eq!(ev.up().count(), 0);
        assert_eq!(ev.down().indices(), vec![3]);
    }

    #[test]
    fn first_timestamp_never_evolves() {
        let s = TimeSeries::from_values(vec![100.0, 100.0]);
        let ev = extract_evolving(&s, 0.1);
        assert!(!ev.up().get(0));
        assert!(!ev.down().get(0));
    }

    #[test]
    fn segmentation_suppresses_noise_evolution() {
        // Rising trend with alternating noise that would otherwise create
        // spurious Down events.
        let s = TimeSeries::from_values(
            (0..200)
                .map(|i| i as f64 * 0.1 + if i % 2 == 0 { 0.3 } else { -0.3 })
                .collect(),
        );
        let raw = extract_state(&s, Extraction::new(0.2, false, 0.05)).sets;
        let smoothed = extract_state(&s, Extraction::new(0.2, true, 0.05)).sets;
        assert!(raw.down().count() > 50);
        assert!(
            smoothed.down().count() < raw.down().count() / 4,
            "segmentation left {} down-events",
            smoothed.down().count()
        );
    }

    #[test]
    fn word_scan_matches_reference_on_fixtures() {
        let fixtures: Vec<TimeSeries> = vec![
            TimeSeries::from_values(vec![]),
            TimeSeries::from_values(vec![5.0]),
            TimeSeries::from_values(vec![1.0, 2.0]),
            TimeSeries::missing(100),
            TimeSeries::from_values((0..333).map(|i| ((i as f64) * 0.7).sin() * 3.0).collect()),
            // Cross-word boundaries with a gap pattern.
            TimeSeries::from_options(
                &(0..200)
                    .map(|i| (i % 7 != 2).then_some(((i * 37) % 17) as f64 * 0.5))
                    .collect::<Vec<_>>(),
            ),
            // Exactly 64 and 65 points (word-boundary lengths).
            TimeSeries::from_values((0..64).map(|i| (i % 5) as f64).collect()),
            TimeSeries::from_values((0..65).map(|i| (i % 5) as f64).collect()),
        ];
        for series in &fixtures {
            for eps in [0.0, 0.3, 1.0, 10.0] {
                let fast = extract_evolving(series, eps);
                let slow = reference::extract_evolving_reference(series, eps);
                assert_eq!(fast, slow, "eps={eps} on {series:?}");
            }
        }
    }

    mod equivalence_proptest {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// The branchless word-level scan and the retained
            /// per-timestamp oracle agree bit-for-bit on randomized series
            /// with NaN gaps and subnormal values, including epsilon == 0.
            /// Series reach past two storage-block boundaries, where the
            /// scan carries a delta's left operand across chunks.
            #[test]
            fn word_scan_matches_reference(
                values in proptest::collection::vec(-20.0f64..20.0, 0..700),
                gap_seed in 0usize..11,
                tiny_seed in 0usize..7,
                epsilon in prop_oneof![Just(0.0f64), 0.0f64..3.0],
            ) {
                // Runs of subnormals and signed zeros give subnormal and
                // signed-zero deltas.
                const TINY: [f64; 6] = [5e-324, -5e-324, 1e-310, -1e-310, 0.0, -0.0];
                let options: Vec<Option<f64>> = values
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| {
                        let v = if (i / 2 + tiny_seed) % 7 < 3 { TINY[i % 6] } else { v };
                        ((i * 5 + gap_seed) % 11 != 0).then_some(v)
                    })
                    .collect();
                let series = TimeSeries::from_options(&options);
                let fast = extract_evolving(&series, epsilon);
                let slow = reference::extract_evolving_reference(&series, epsilon);
                prop_assert_eq!(fast, slow);
            }
        }
    }

    /// Asserts that extraction resumed through a chain of append splits is
    /// byte-identical (sets *and* retained segmentation) to a cold
    /// [`extract_state`] at every step, with and without segmentation.
    fn assert_resume_chain(series: &TimeSeries, epsilon: f64, seg_error: f64, splits: &[usize]) {
        for seg_on in [false, true] {
            let x = Extraction::new(epsilon, seg_on, seg_error);
            let first = splits.first().copied().unwrap_or(0).min(series.len());
            let mut state = extract_state(&series.window(0, first), x);
            for &split in &splits[1..] {
                let split = split.min(series.len());
                let win = series.window(0, split);
                state = extract_resume(&win, x, &state);
                assert_eq!(
                    state,
                    extract_state(&win, x),
                    "resume diverged at split {split} (seg={seg_on})"
                );
            }
            state = extract_resume(series, x, &state);
            assert_eq!(
                state,
                extract_state(series, x),
                "final resume diverged (seg={seg_on})"
            );
        }
    }

    #[test]
    fn resume_matches_full_on_fixtures() {
        let fixtures: Vec<TimeSeries> = vec![
            TimeSeries::from_values(vec![]),
            TimeSeries::from_values(vec![5.0]),
            TimeSeries::from_values(vec![1.0, 2.0]),
            TimeSeries::missing(100),
            TimeSeries::from_values((0..333).map(|i| ((i as f64) * 0.7).sin() * 3.0).collect()),
            // Gap pattern crossing word boundaries.
            TimeSeries::from_options(
                &(0..200)
                    .map(|i| (i % 7 != 2).then_some(((i * 37) % 17) as f64 * 0.5))
                    .collect::<Vec<_>>(),
            ),
            // A level shift in the tail (tolerance-changed fallback).
            {
                let mut v: Vec<f64> = (0..90).map(|i| (i as f64 * 0.3).sin()).collect();
                v.extend((0..40).map(|i| 20.0 + (i as f64 * 0.3).cos()));
                TimeSeries::from_values(v)
            },
        ];
        for series in &fixtures {
            let n = series.len();
            // Splits straddling 64-bit word boundaries and degenerate ends.
            for splits in [
                vec![0, 1, n / 2],
                vec![63, 64, 65],
                vec![n.saturating_sub(1), n],
                vec![n / 4, n / 2, 3 * n / 4],
            ] {
                for eps in [0.0, 0.3, 1.0] {
                    assert_resume_chain(series, eps, 0.05, &splits);
                }
            }
        }
    }

    /// A gappy 3,000-point series long enough for several sealed segment
    /// runs at tolerance 0.02.
    fn many_runs_series() -> TimeSeries {
        TimeSeries::from_options(
            &(0..3000)
                .map(|i| {
                    ((i * 7 + 3) % 29 != 0)
                        .then_some((i as f64 * 0.37).sin() * 3.0 + ((i * 7919) % 13) as f64 * 0.4)
                })
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn resume_over_many_segment_runs_matches_full() {
        // Splits straddle word and block boundaries far from the start,
        // where the resume reconstructs and rescans only the changed window.
        let series = many_runs_series();
        for eps in [0.0, 0.5, 2.0] {
            assert_resume_chain(
                &series,
                eps,
                0.02,
                &[1500, 1516, 1532, 1535, 2047, 2048, 2600],
            );
        }
    }

    #[test]
    fn resume_with_mismatched_state_falls_back_to_full() {
        let series =
            TimeSeries::from_values((0..150).map(|i| ((i as f64) * 0.7).sin() * 3.0).collect());
        // State computed *with* segmentation must not seed a raw resume
        // (and vice versa); both fall back to a clean full extraction.
        let (raw, seg) = (
            Extraction::new(0.3, false, 0.0),
            Extraction::new(0.3, true, 0.05),
        );
        let seg_state = extract_state(&series.window(0, 100), seg);
        let raw_resumed = extract_resume(&series, raw, &seg_state);
        assert_eq!(raw_resumed, extract_state(&series, raw));
        let raw_state = extract_state(&series.window(0, 100), raw);
        let seg_resumed = extract_resume(&series, seg, &raw_state);
        assert_eq!(seg_resumed, extract_state(&series, seg));
        // A state longer than the series cannot resume either.
        let long_state = extract_state(&series, raw);
        let short = series.window(0, 80);
        assert_eq!(
            extract_resume(&short, raw, &long_state),
            extract_state(&short, raw)
        );
    }

    /// Asserts that rescanning `series` at `to` from its state at `from`
    /// (one tolerance) is byte-identical to a cold extraction at `to` and
    /// shares every sealed segment run of the state it came from.
    fn assert_rescan_matches(series: &TimeSeries, from: Extraction, to: Extraction) {
        let sibling = extract_state(series, from);
        let rescanned = extract_rescan(series, to, &sibling);
        assert_eq!(rescanned, extract_state(series, to));
        let (seg, sibling_seg) = (
            rescanned.segmentation.as_ref().expect("segmented"),
            sibling.segmentation.as_ref().expect("segmented"),
        );
        assert_eq!(seg.shares_runs_with(sibling_seg), sibling_seg.sealed_runs());
    }

    #[test]
    fn rescan_matches_full_over_many_segment_runs() {
        let series = many_runs_series();
        let at = |eps: f64| Extraction::new(eps, true, 0.02);
        assert!(
            extract_state(&series, at(0.5))
                .segmentation
                .is_some_and(|seg| seg.sealed_runs() >= 2),
            "fixture must span several sealed runs"
        );
        for (from, to) in [(0.5, 0.0), (0.0, 2.0), (2.0, 0.5)] {
            assert_rescan_matches(&series, at(from), at(to));
        }
    }

    #[test]
    fn rescan_with_mismatched_state_falls_back_to_full() {
        let series =
            TimeSeries::from_values((0..150).map(|i| ((i as f64) * 0.7).sin() * 3.0).collect());
        let seg = Extraction::new(0.3, true, 0.05);
        // A raw state has no segmentation to lend, a shorter state covers
        // another series, and a raw extraction has nothing to rescan.
        let raw_state = extract_state(&series, Extraction::new(0.6, false, 0.0));
        assert_eq!(
            extract_rescan(&series, seg, &raw_state),
            extract_state(&series, seg)
        );
        let short_state = extract_state(&series.window(0, 100), Extraction::new(0.6, true, 0.05));
        assert_eq!(
            extract_rescan(&series, seg, &short_state),
            extract_state(&series, seg)
        );
        let raw = Extraction::new(0.3, false, 0.0);
        let seg_state = extract_state(&series, Extraction::new(0.6, true, 0.05));
        assert_eq!(
            extract_rescan(&series, raw, &seg_state),
            extract_state(&series, raw)
        );
    }

    mod rescan_proptest {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// Rescanning a series at ε₂ from its segmented state at ε₁ ≠ ε₂
            /// (ε 0 included) is byte-identical to a cold extraction at ε₂,
            /// for random series, gap patterns and tolerances.
            #[test]
            fn rescan_matches_full(
                values in proptest::collection::vec(-20.0f64..20.0, 0..400),
                gap_seed in 0usize..11,
                eps_a in prop_oneof![Just(0.0f64), 0.0f64..3.0],
                eps_b in prop_oneof![Just(0.0f64), 0.0f64..3.0],
                seg_error in 0.001f64..0.25,
            ) {
                let eps_b = if eps_b == eps_a { eps_a + 1.0 } else { eps_b };
                let options: Vec<Option<f64>> = values
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| ((i * 5 + gap_seed) % 11 != 0).then_some(v))
                    .collect();
                let series = TimeSeries::from_options(&options);
                assert_rescan_matches(
                    &series,
                    Extraction::new(eps_a, true, seg_error),
                    Extraction::new(eps_b, true, seg_error),
                );
            }
        }
    }

    #[test]
    fn fingerprinter_checkpoints_match_whole_series_fingerprints() {
        let series = TimeSeries::from_options(
            &(0..130)
                .map(|i| (i % 9 != 4).then_some((i as f64 * 0.17).sin() * 2.0))
                .collect::<Vec<_>>(),
        );
        let mut fp = SeriesFingerprinter::new();
        assert!(fp.is_empty());
        for (i, &v) in series.copy_values().iter().enumerate() {
            assert_eq!(fp.checkpoint(), series_fingerprint(&series.window(0, i)));
            fp.push(v);
            assert_eq!(fp.len(), i + 1);
        }
        assert_eq!(fp.checkpoint(), series_fingerprint(&series));
        // Prefix fingerprints agree with fingerprints of materialized
        // prefixes.
        assert_eq!(
            series.prefix_fingerprints(&[77])[0].content,
            series_fingerprint(&series.window(0, 77))
        );
        // Different prefix lengths of a constant series still differ.
        let constant = TimeSeries::from_values(vec![1.0; 50]);
        assert_ne!(
            series_fingerprint(&constant.window(0, 10)),
            series_fingerprint(&constant.window(0, 11)),
        );
    }

    mod resume_proptest {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// Resuming extraction over one or two appended tails is
            /// byte-identical to cold extraction, for random series, gap
            /// patterns, epsilons and split points, with segmentation on
            /// and off. Series reach past two storage-block boundaries.
            #[test]
            fn resume_matches_full(
                values in proptest::collection::vec(-20.0f64..20.0, 0..700),
                gap_seed in 0usize..11,
                epsilon in 0.0f64..3.0,
                seg_error in 0.001f64..0.25,
                split_a_ppm in 0u32..1_000_000,
                split_b_ppm in 0u32..1_000_000,
            ) {
                let options: Vec<Option<f64>> = values
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| ((i * 5 + gap_seed) % 11 != 0).then_some(v))
                    .collect();
                let series = TimeSeries::from_options(&options);
                let n = series.len() as u64;
                let mut splits = [
                    (n * split_a_ppm as u64 / 1_000_000) as usize,
                    (n * split_b_ppm as u64 / 1_000_000) as usize,
                ];
                splits.sort_unstable();
                assert_resume_chain(&series, epsilon, seg_error, &splits);
            }
        }
    }

    #[test]
    fn trimmed_series_extract_identically_to_rechunked_copies() {
        // A sliding-window trim drops whole front blocks: the retained
        // storage stays word-aligned, so the chunked scan over the shared
        // blocks must agree bit-for-bit with a scan over a fresh
        // re-chunked copy of the same values — with and without
        // segmentation, at every trim depth.
        use miscela_model::SERIES_BLOCK_LEN;
        let full = TimeSeries::from_options(
            &(0..3 * SERIES_BLOCK_LEN + 70)
                .map(|i| ((i * 3 + 1) % 11 != 0).then_some((i as f64 * 0.21).sin() * 5.0))
                .collect::<Vec<_>>(),
        );
        for drop_blocks in [1usize, 2, 3] {
            let mut trimmed = full.clone();
            trimmed.drop_front_blocks(drop_blocks);
            let copy = TimeSeries::from_values(trimmed.copy_values());
            for eps in [0.0, 0.3, 1.0] {
                for (seg_on, seg_err) in [(false, 0.0), (true, 0.05)] {
                    let x = Extraction::new(eps, seg_on, seg_err);
                    let shared = extract_state(&trimmed, x);
                    let cold = extract_state(&copy, x);
                    assert_eq!(shared, cold, "drop={drop_blocks} eps={eps} seg={seg_on}");
                    // The content fingerprint is storage-independent too.
                    assert_eq!(series_fingerprint(&trimmed), series_fingerprint(&copy));
                }
            }
            // Appending after the trim resumes byte-identically as well.
            let mut appended = trimmed.clone();
            appended.extend_missing(40);
            for i in 0..40 {
                appended.set(trimmed.len() + i, (i as f64 * 0.4).cos() * 3.0);
            }
            let x = Extraction::new(0.3, true, 0.05);
            let prev = extract_state(&trimmed, x);
            let resumed = extract_resume(&appended, x, &prev);
            assert_eq!(resumed, extract_state(&appended, x));
        }
    }

    #[test]
    fn trim_derivation_matches_cold_extraction() {
        // Non-seg path: pure word arithmetic, no tolerance precondition.
        let vals: Vec<f64> = (0..400).map(|i| ((i as f64) * 0.7).sin() * 3.0).collect();
        let mut options: Vec<Option<f64>> = vals.iter().map(|&v| Some(v)).collect();
        for i in [5usize, 130, 131, 260] {
            options[i] = None;
        }
        let series = TimeSeries::from_options(&options);
        for eps in [0.0, 0.3, 1.0] {
            let x = Extraction::new(eps, false, 0.0);
            let origin = extract_state(&series, x);
            for d in [1usize, 63, 64, 65, 256, 399] {
                let trimmed = TimeSeries::from_options(&options[d..]);
                let derived = derive_trimmed(&trimmed, x, &origin, d)
                    .expect("non-seg derivation never falls back");
                assert_eq!(derived, extract_state(&trimmed, x), "eps={eps} d={d}");
            }
        }
    }

    #[test]
    fn trim_derivation_matches_cold_extraction_with_segmentation() {
        // Periodic fixture (periods 12 and 13): every suffix of at least
        // 156 points attains the same value range bit-for-bit, so the
        // segmentation tolerance survives the trim.
        let vals: Vec<f64> = (0..480usize)
            .map(|i| ((i % 12) as f64) * 2.0 + ((i.wrapping_mul(2654435761)) % 13) as f64 * 0.01)
            .collect();
        let series = TimeSeries::from_values(vals.clone());
        for eps in [0.0, 0.3, 1.0] {
            let x = Extraction::new(eps, true, 0.05);
            let origin = extract_state(&series, x);
            for d in [1usize, 64, 156, 300] {
                let trimmed = TimeSeries::from_values(vals[d..].to_vec());
                let derived = derive_trimmed(&trimmed, x, &origin, d)
                    .unwrap_or_else(|| panic!("fell back for eps={eps} d={d}"));
                assert_eq!(derived, extract_state(&trimmed, x), "eps={eps} d={d}");
            }
        }
    }

    #[test]
    fn trim_derivation_rejects_mismatches() {
        let vals: Vec<f64> = (0..100).map(|i| (i % 10) as f64).collect();
        let series = TimeSeries::from_values(vals.clone());
        let trimmed = TimeSeries::from_values(vals[10..].to_vec());
        let x = Extraction::new(0.5, false, 0.0);
        let raw = extract_state(&series, x);
        // No trim at all, a wrong trim depth, and a segmentation-parameter
        // mismatch all refuse to derive.
        assert!(derive_trimmed(&series, x, &raw, 0).is_none());
        assert!(derive_trimmed(&trimmed, x, &raw, 5).is_none());
        let seg = Extraction::new(0.5, true, 0.05);
        assert!(derive_trimmed(&trimmed, seg, &raw, 10).is_none());
        // Origin-anchored keys live in their own salted domain: the same
        // fingerprint never collides with its content key.
        let fp = series_fingerprint(&series);
        assert_ne!(
            ExtractionKey::from_origin_fingerprint(fp, x),
            ExtractionKey::from_fingerprint(fp, x),
        );
    }

    #[test]
    fn directional_bitsets_are_disjoint_for_positive_epsilon() {
        let s = TimeSeries::from_values((0..300).map(|i| ((i * 37) % 17) as f64 * 0.5).collect());
        let ev = extract_evolving(&s, 0.4);
        assert_eq!(ev.up().and_count(ev.down()), 0);
        assert_eq!(ev.for_direction(Direction::Up).count(), ev.up().count());
        assert_eq!(ev.for_direction(Direction::Down).count(), ev.down().count());
    }
}
