//! Time-delayed correlated attribute patterns.
//!
//! Reference \[3\] of the demo paper (Harada et al., Distributed and Parallel
//! Databases 2020) extends MISCELA from *simultaneous* to *time-delayed*
//! co-evolution: sensor B's measurement evolves δ grid steps after sensor A's.
//! The wind-advection scenario of the China demonstration is exactly such a
//! case — a downwind station reacts to the same pollution plume a few hours
//! after the upwind one.
//!
//! This module mines pairwise delayed patterns: for every spatially close
//! pair of sensors with distinct attributes it finds the delay δ ∈
//! `0..=max_delay` and direction combination maximizing the number of
//! aligned evolving timestamps, and reports the pair when that count reaches
//! ψ. Delays of a whole grid or more align nothing, so the scan stops at
//! the grid's last step whatever `max_delay` asks for.

use crate::cancel::CancelToken;
use crate::error::MiningError;
use crate::evolving::{Direction, EvolvingSets};
use crate::params::MiningParams;
use crate::spatial::ProximityGraph;
use miscela_model::{AttributeId, SensorIndex};

/// A pairwise time-delayed CAP.
#[derive(Debug, Clone, PartialEq)]
pub struct DelayedCap {
    /// The leading sensor (evolves first).
    pub leader: SensorIndex,
    /// The following sensor (evolves `delay` steps later).
    pub follower: SensorIndex,
    /// Direction of the leader's evolution.
    pub leader_direction: Direction,
    /// Direction of the follower's evolution.
    pub follower_direction: Direction,
    /// Delay in grid steps (0 = simultaneous).
    pub delay: usize,
    /// Number of aligned evolving timestamps.
    pub support: usize,
}

impl DelayedCap {
    /// Whether the pattern is simultaneous (delay zero).
    pub fn is_simultaneous(&self) -> bool {
        self.delay == 0
    }
}

/// Mines pairwise delayed CAPs over all proximity edges.
///
/// For each close pair `(a, b)` with distinct attributes, both orderings
/// (a leads / b leads) and all delays `0..=params.max_delay` are scored; the
/// best (delay, directions) combination is reported when its support reaches
/// ψ. With `max_delay == 0` this degenerates to simultaneous pairwise CAPs.
///
/// The token is polled once per proximity edge, so a deadline bounds the
/// extension the way it bounds the search.
pub fn mine_delayed(
    evolving: &[EvolvingSets],
    attributes: &[AttributeId],
    graph: &ProximityGraph,
    params: &MiningParams,
    cancel: &CancelToken,
) -> Result<Vec<DelayedCap>, MiningError> {
    let mut out = Vec::new();
    let n = graph.sensor_count();
    for i in 0..n {
        let si = SensorIndex(i as u32);
        for &sj in graph.neighbors(si) {
            if sj <= si {
                continue;
            }
            cancel.check()?;
            if params.min_attributes >= 2 && attributes[si.index()] == attributes[sj.index()] {
                continue;
            }
            if let Some(cap) = best_delayed_pair(evolving, si, sj, params) {
                out.push(cap);
            }
        }
    }
    out.sort_by(|a, b| b.support.cmp(&a.support).then(a.leader.cmp(&b.leader)));
    Ok(out)
}

/// Finds the best delayed alignment for one pair, in either leading order.
///
/// Delays run up to `max_delay` or the series' last grid step, whichever
/// is smaller: a follower shifted by its whole length or more aligns no
/// timestamp, and ψ ≥ 1, so longer delays could never report. Candidates
/// are scored in (leading order, delay, leader direction, follower
/// direction) order and only a strictly higher support replaces the best,
/// so ties go to the first candidate.
pub fn best_delayed_pair(
    evolving: &[EvolvingSets],
    a: SensorIndex,
    b: SensorIndex,
    params: &MiningParams,
) -> Option<DelayedCap> {
    let mut best: Option<DelayedCap> = None;
    let last_step = evolving[a.index()]
        .len()
        .max(evolving[b.index()].len())
        .saturating_sub(1);
    let max_delay = params.max_delay.min(last_step);
    // At delay 0 the reversed order scores the same four counts as the
    // forward order, so it can never strictly win: it starts at delay 1.
    for (first_delay, leader, follower) in [(0, a, b), (1, b, a)] {
        for delay in first_delay..=max_delay {
            // Follower evolving at t+delay aligns with leader at t.
            let shifted = Direction::BOTH.map(|fd| {
                evolving[follower.index()]
                    .for_direction(fd)
                    .shift_earlier(delay)
            });
            for ld in Direction::BOTH {
                let lead_bits = evolving[leader.index()].for_direction(ld);
                for (fd, follow) in Direction::BOTH.into_iter().zip(&shifted) {
                    let support = lead_bits.and_count(follow.view());
                    if support >= params.psi && best.as_ref().is_none_or(|c| support > c.support) {
                        best = Some(DelayedCap {
                            leader,
                            follower,
                            leader_direction: ld,
                            follower_direction: fd,
                            delay,
                            support,
                        });
                    }
                }
            }
        }
    }
    best
}

/// The scan [`best_delayed_pair`] replaced — one follower shift per
/// candidate, and delay 0 scored in both orders — kept as its oracle.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    pub(crate) fn best_delayed_pair_reference(
        evolving: &[EvolvingSets],
        a: SensorIndex,
        b: SensorIndex,
        params: &MiningParams,
    ) -> Option<DelayedCap> {
        let mut best: Option<DelayedCap> = None;
        let last_step = evolving[a.index()]
            .len()
            .max(evolving[b.index()].len())
            .saturating_sub(1);
        for (leader, follower) in [(a, b), (b, a)] {
            for delay in 0..=params.max_delay.min(last_step) {
                for &ld in &Direction::BOTH {
                    for &fd in &Direction::BOTH {
                        let lead_bits = evolving[leader.index()].for_direction(ld);
                        let follow_shifted = evolving[follower.index()]
                            .for_direction(fd)
                            .shift_earlier(delay);
                        let support = lead_bits.and_count(follow_shifted.view());
                        if support < params.psi {
                            continue;
                        }
                        let better = best.as_ref().map(|c| support > c.support).unwrap_or(true);
                        if better {
                            best = Some(DelayedCap {
                                leader,
                                follower,
                                leader_direction: ld,
                                follower_direction: fd,
                                delay,
                                support,
                            });
                        }
                    }
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evolving::extract_evolving;
    use miscela_model::{GeoPoint, TimeSeries};

    fn pulse_series(n: usize, period: usize, shift: usize) -> TimeSeries {
        // A staircase that rises by 10 once per `period`, shifted by `shift`
        // steps. Using a monotone staircase (rather than an up/down pulse)
        // keeps the evolving events purely in the Up direction, so exactly
        // one delay aligns the two series.
        let mut level = 0.0;
        TimeSeries::from_values(
            (0..n)
                .map(|i| {
                    if (i + period - shift) % period == 2 {
                        level += 10.0;
                    }
                    level
                })
                .collect(),
        )
    }

    fn setup(
        series: &[TimeSeries],
        attrs: &[u16],
        params: &MiningParams,
    ) -> (Vec<EvolvingSets>, Vec<AttributeId>, ProximityGraph) {
        let evolving: Vec<EvolvingSets> = series
            .iter()
            .map(|s| extract_evolving(s, params.epsilon))
            .collect();
        let attributes: Vec<AttributeId> = attrs.iter().map(|&a| AttributeId(a)).collect();
        let points: Vec<GeoPoint> = (0..series.len())
            .map(|i| GeoPoint::new_unchecked(31.0, 121.0 + 0.001 * i as f64))
            .collect();
        let graph = ProximityGraph::from_points(&points, params.eta_km);
        (evolving, attributes, graph)
    }

    /// [`mine_delayed`] with a token that never fires.
    fn mine(
        evolving: &[EvolvingSets],
        attributes: &[AttributeId],
        graph: &ProximityGraph,
        params: &MiningParams,
    ) -> Vec<DelayedCap> {
        mine_delayed(evolving, attributes, graph, params, &CancelToken::never()).unwrap()
    }

    #[test]
    fn detects_known_delay() {
        let n = 200;
        let params = MiningParams::new()
            .with_epsilon(1.0)
            .with_psi(5)
            .with_max_delay(5)
            .with_segmentation(false);
        // Sensor 1 repeats sensor 0's pulses 3 steps later.
        let series = vec![pulse_series(n, 20, 0), pulse_series(n, 20, 3)];
        let (evolving, attrs, graph) = setup(&series, &[0, 1], &params);
        let caps = mine(&evolving, &attrs, &graph, &params);
        assert!(!caps.is_empty());
        let best = &caps[0];
        assert_eq!(best.delay, 3);
        assert_eq!(best.leader, SensorIndex(0));
        assert_eq!(best.follower, SensorIndex(1));
        assert_eq!(best.leader_direction, best.follower_direction);
        assert!(best.support >= 5);
        assert!(!best.is_simultaneous());
    }

    #[test]
    fn zero_max_delay_only_finds_simultaneous() {
        let n = 200;
        let params = MiningParams::new()
            .with_epsilon(1.0)
            .with_psi(5)
            .with_max_delay(0)
            .with_segmentation(false);
        let delayed_series = vec![pulse_series(n, 20, 0), pulse_series(n, 20, 3)];
        let (evolving, attrs, graph) = setup(&delayed_series, &[0, 1], &params);
        assert!(mine(&evolving, &attrs, &graph, &params).is_empty());

        let simultaneous = vec![pulse_series(n, 20, 0), pulse_series(n, 20, 0)];
        let (evolving, attrs, graph) = setup(&simultaneous, &[0, 1], &params);
        let caps = mine(&evolving, &attrs, &graph, &params);
        assert_eq!(caps.len(), 1);
        assert!(caps[0].is_simultaneous());
    }

    #[test]
    fn same_attribute_pairs_skipped_unless_allowed() {
        let n = 100;
        let params = MiningParams::new()
            .with_epsilon(1.0)
            .with_psi(3)
            .with_max_delay(2)
            .with_segmentation(false);
        let series = vec![pulse_series(n, 10, 0), pulse_series(n, 10, 0)];
        let (evolving, attrs, graph) = setup(&series, &[0, 0], &params);
        assert!(mine(&evolving, &attrs, &graph, &params).is_empty());
        let relaxed = params.clone().with_min_attributes(1);
        assert!(!mine(&evolving, &attrs, &graph, &relaxed).is_empty());
    }

    #[test]
    fn distant_pairs_not_considered() {
        let n = 100;
        let params = MiningParams::new()
            .with_epsilon(1.0)
            .with_psi(3)
            .with_max_delay(2)
            .with_eta_km(0.01)
            .with_segmentation(false);
        let series = vec![pulse_series(n, 10, 0), pulse_series(n, 10, 0)];
        // Points are ~110 m apart (0.001 deg of longitude at lat 31), which is
        // farther than eta = 10 m.
        let (evolving, attrs, graph) = setup(&series, &[0, 1], &params);
        assert!(mine(&evolving, &attrs, &graph, &params).is_empty());
    }

    #[test]
    fn delays_past_the_grid_change_nothing() {
        let n = 120;
        let series = vec![
            pulse_series(n, 20, 0),
            pulse_series(n, 20, 3),
            pulse_series(n, 15, 7),
        ];
        let mine_at = |max_delay: usize| {
            let params = MiningParams::new()
                .with_epsilon(1.0)
                .with_psi(2)
                .with_max_delay(max_delay)
                .with_segmentation(false);
            let (evolving, attrs, graph) = setup(&series, &[0, 1, 2], &params);
            mine(&evolving, &attrs, &graph, &params)
        };
        let at_grid = mine_at(n - 1);
        assert!(!at_grid.is_empty());
        assert_eq!(mine_at(10 * n), at_grid);
        assert_eq!(mine_at(usize::MAX), at_grid);
    }

    #[test]
    fn cancelled_token_stops_the_extension() {
        let params = MiningParams::new()
            .with_epsilon(1.0)
            .with_psi(5)
            .with_max_delay(usize::MAX)
            .with_segmentation(false);
        let series = vec![pulse_series(200, 20, 0), pulse_series(200, 20, 3)];
        let (evolving, attrs, graph) = setup(&series, &[0, 1], &params);
        let token = CancelToken::new();
        token.cancel();
        assert_eq!(
            mine_delayed(&evolving, &attrs, &graph, &params, &token),
            Err(MiningError::Cancelled)
        );
    }

    mod equivalence_proptest {
        use super::*;
        use crate::bitset::{Bitset, BitsetRef};
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// The one-shift-per-direction scan picks exactly the pair the
            /// retained per-candidate scan picks — ties included — on
            /// random sparse evolving sets, some of them delayed copies of
            /// each other, for delay bounds below, at and past the grid.
            #[test]
            fn best_pair_matches_reference(
                n in 1usize..150,
                bits in proptest::collection::vec(0u8..5, 600..601),
                lag in proptest::option::of(0usize..8),
                psi in 1usize..4,
            ) {
                let set = |k: usize| {
                    let mut b = Bitset::new(n);
                    for t in 0..n {
                        if bits[k * 150 + t] == 0 {
                            b.set(t);
                        }
                    }
                    b
                };
                let a = EvolvingSets::from_bitsets(&set(0), &set(1));
                // A delayed copy of `a` makes many delays and both orders
                // tie; otherwise `b` is independent.
                let (up, down) = match lag {
                    Some(lag) => {
                        let shift = |src: BitsetRef<'_>| {
                            let mut b = Bitset::new(n);
                            for t in src.indices() {
                                if t + lag < n {
                                    b.set(t + lag);
                                }
                            }
                            b
                        };
                        (shift(a.up()), shift(a.down()))
                    }
                    None => (set(2), set(3)),
                };
                let evolving = vec![a, EvolvingSets::from_bitsets(&up, &down)];
                for max_delay in [0, 1, 5, n - 1, n + 3] {
                    let params = MiningParams::new().with_psi(psi).with_max_delay(max_delay);
                    let (a, b) = (SensorIndex(0), SensorIndex(1));
                    prop_assert_eq!(
                        best_delayed_pair(&evolving, a, b, &params),
                        reference::best_delayed_pair_reference(&evolving, a, b, &params),
                        "max_delay {}", max_delay
                    );
                }
            }
        }
    }
}
