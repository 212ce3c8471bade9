//! Rolling content fingerprints over raw series values.
//!
//! [`SeriesFingerprinter`] is a two-stream FNV-1a accumulator over a value
//! stream cut into *groups* of [`SERIES_BLOCK_LEN`] values, counted from
//! stream position 0 — the same cut as a [`crate::TimeSeries`]' sealed
//! blocks. Each complete group is hashed on its own into a 128-bit group
//! digest, and that digest is folded into the outer streams; the values of
//! the final, partial group are hashed as they arrive. A complete group
//! therefore contributes the same bits whether its values were pushed one
//! by one or a sealed block's cached digest was folded in, which is what
//! lets a series fingerprint itself in O(blocks + tail) instead of
//! O(values) ([`crate::TimeSeries::prefix_fingerprints`]).
//!
//! The model layer uses the same accumulator to keep a *front digest* on
//! every [`crate::TimeSeries`]: the fingerprint state of the whole blocks
//! dropped by sliding-window trims. Continued over the retained values, it
//! yields the *origin-stream* fingerprint, as if no trim had happened — how
//! a trimmed window stays addressable in content-keyed caches.

use crate::series::SERIES_BLOCK_LEN;

const FNV_OFFSET_1: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_OFFSET_2: u64 = 0x9e37_79b9_7f4a_7c15;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The two FNV-1a streams: the second with a different offset basis and
/// bit-rotated input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Streams {
    h1: u64,
    h2: u64,
}

impl Streams {
    const START: Streams = Streams {
        h1: FNV_OFFSET_1,
        h2: FNV_OFFSET_2,
    };

    #[inline]
    fn mix(&mut self, word: u64) {
        self.h1 = (self.h1 ^ word).wrapping_mul(FNV_PRIME);
        self.h2 = (self.h2 ^ word.rotate_left(29)).wrapping_mul(FNV_PRIME);
    }

    fn digest(self) -> u128 {
        ((self.h1 as u128) << 64) | self.h2 as u128
    }

    /// Folds a group digest in: both halves pass through both streams.
    fn fold(&mut self, digest: u128) {
        self.mix((digest >> 64) as u64);
        self.mix(digest as u64);
    }

    /// Finalizes with the stream length, so prefixes of different lengths
    /// never collide trivially.
    fn finish(self, len: usize) -> u128 {
        let h1 = (self.h1 ^ len as u64).wrapping_mul(FNV_PRIME);
        let h2 = (self.h2 ^ (len as u64).rotate_left(32)).wrapping_mul(FNV_PRIME);
        ((h1 as u128) << 64) | h2 as u128
    }
}

/// The digest of one complete group of [`SERIES_BLOCK_LEN`] values: the
/// same bits a [`SeriesFingerprinter`] folds in when pushing them one by
/// one. Sealed series blocks cache it.
pub(crate) fn block_digest(values: &[f64]) -> u128 {
    let mut group = Streams::START;
    for &v in values {
        group.mix(v.to_bits());
    }
    group.digest()
}

/// Rolling two-stream FNV-1a fingerprinter over raw series values.
///
/// Values are streamed left to right and [`checkpoint`](Self::checkpoint)
/// yields the fingerprint of everything pushed so far (finalized with the
/// current length). This is the prefix-fingerprint scheme of the
/// append-aware extraction cache: the miner probes the cache with the
/// fingerprints of each recorded pre-append prefix for a reusable
/// extraction. See the module docs for how complete groups fold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesFingerprinter {
    /// Folded digests of every complete group.
    outer: Streams,
    /// The current partial group's values.
    group: Streams,
    len: usize,
}

impl SeriesFingerprinter {
    /// A fingerprinter over the empty prefix.
    pub fn new() -> Self {
        SeriesFingerprinter {
            outer: Streams::START,
            group: Streams::START,
            len: 0,
        }
    }

    /// Streams one raw value (`NaN` missing markers included, so presence
    /// patterns are part of the fingerprint).
    #[inline]
    pub fn push(&mut self, raw: f64) {
        self.group.mix(raw.to_bits());
        self.len += 1;
        if self.len.is_multiple_of(SERIES_BLOCK_LEN) {
            self.outer.fold(self.group.digest());
            self.group = Streams::START;
        }
    }

    /// Whether the stream ends on a group boundary, where a whole group's
    /// digest may be folded in ([`SeriesFingerprinter::push_block`]).
    pub(crate) fn at_group_boundary(&self) -> bool {
        self.len.is_multiple_of(SERIES_BLOCK_LEN)
    }

    /// Folds one complete group by its [`block_digest`]: the same result
    /// as pushing its [`SERIES_BLOCK_LEN`] values. Only valid
    /// [`at_group_boundary`](Self::at_group_boundary).
    pub(crate) fn push_block(&mut self, digest: u128) {
        debug_assert!(self.at_group_boundary(), "block folded mid-group");
        self.outer.fold(digest);
        self.len += SERIES_BLOCK_LEN;
    }

    /// Number of values streamed so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no values have been streamed yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The fingerprint of everything pushed so far. Two independent FNV-1a
    /// streams are finalized with the current length and packed into one
    /// `u128`. A single 64-bit FNV collision is constructible; colliding
    /// both streams simultaneously is not practically so, which is what
    /// lets the extraction cache trust a key hit and skip steps (1)+(2).
    pub fn checkpoint(&self) -> u128 {
        let mut outer = self.outer;
        if !self.at_group_boundary() {
            outer.fold(self.group.digest());
        }
        outer.finish(self.len)
    }

    /// The checkpoint this fingerprinter would give after `partial`'s
    /// values were pushed onto it. `self` must be at a group boundary and
    /// `partial` a fingerprinter started empty and fed fewer than
    /// [`SERIES_BLOCK_LEN`] values, so one partial run serves several
    /// seeds (a series' plain and origin-anchored fingerprints).
    pub(crate) fn checkpoint_with(&self, partial: &SeriesFingerprinter) -> u128 {
        debug_assert!(self.at_group_boundary() && partial.len < SERIES_BLOCK_LEN);
        let mut outer = self.outer;
        if partial.len > 0 {
            outer.fold(partial.group.digest());
        }
        outer.finish(self.len + partial.len)
    }
}

impl Default for SeriesFingerprinter {
    fn default() -> Self {
        Self::new()
    }
}

/// The fingerprints of one prefix `[0, end)` of a series
/// ([`crate::TimeSeries::prefix_fingerprints`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixFingerprint {
    /// Prefix length.
    pub end: usize,
    /// Fingerprint of the prefix's values: what a fresh series holding
    /// exactly those values fingerprints to.
    pub content: u128,
    /// Fingerprint of the series' dropped front followed by the prefix:
    /// the fingerprint this extent had in the untrimmed origin stream.
    /// Equal to `content` for a series that was never trimmed.
    pub origin: u128,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoints_depend_on_values_and_length() {
        let mut a = SeriesFingerprinter::new();
        assert!(a.is_empty());
        let empty = a.checkpoint();
        a.push(1.0);
        assert_eq!(a.len(), 1);
        assert_ne!(a.checkpoint(), empty);
        let one = a.checkpoint();
        a.push(1.0);
        // Same value again: length finalization still separates prefixes.
        assert_ne!(a.checkpoint(), one);
        // Streaming the same values reproduces the same checkpoint.
        let mut b = SeriesFingerprinter::new();
        b.push(1.0);
        b.push(1.0);
        assert_eq!(a.checkpoint(), b.checkpoint());
        assert_eq!(a, b);
    }

    #[test]
    fn nan_is_part_of_the_stream() {
        let mut a = SeriesFingerprinter::new();
        a.push(f64::NAN);
        let mut b = SeriesFingerprinter::new();
        b.push(0.0);
        assert_ne!(a.checkpoint(), b.checkpoint());
    }

    #[test]
    fn folded_groups_match_pushed_values() {
        let values: Vec<f64> = (0..2 * SERIES_BLOCK_LEN + 17)
            .map(|i| (i as f64 * 0.3).sin())
            .collect();
        let mut pushed = SeriesFingerprinter::new();
        for &v in &values {
            pushed.push(v);
        }
        let mut folded = SeriesFingerprinter::new();
        for group in values.chunks(SERIES_BLOCK_LEN) {
            if group.len() == SERIES_BLOCK_LEN {
                folded.push_block(block_digest(group));
            } else {
                for &v in group {
                    folded.push(v);
                }
            }
        }
        assert_eq!(folded, pushed);
        assert_eq!(folded.checkpoint(), pushed.checkpoint());
        // A partial run on a boundary-aligned seed checkpoints the same.
        let mut seed = SeriesFingerprinter::new();
        seed.push_block(block_digest(&values[..SERIES_BLOCK_LEN]));
        seed.push_block(block_digest(
            &values[SERIES_BLOCK_LEN..2 * SERIES_BLOCK_LEN],
        ));
        let mut partial = SeriesFingerprinter::new();
        for &v in &values[2 * SERIES_BLOCK_LEN..] {
            partial.push(v);
        }
        assert_eq!(seed.checkpoint_with(&partial), pushed.checkpoint());
        // Swapping two groups changes the fingerprint.
        let mut swapped = SeriesFingerprinter::new();
        swapped.push_block(block_digest(
            &values[SERIES_BLOCK_LEN..2 * SERIES_BLOCK_LEN],
        ));
        swapped.push_block(block_digest(&values[..SERIES_BLOCK_LEN]));
        assert_ne!(swapped.checkpoint(), seed.checkpoint());
    }
}
