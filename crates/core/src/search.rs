//! Step (4) of MISCELA: the CAP search.
//!
//! "For each set of spatially close sensors, we search for CAPs. We
//! recursively conduct the CAP search with gradually expanding spatially
//! close sensors according to a tree structure for CAP mining."
//! (Section 2.2)
//!
//! The tree structure used here is the ESU enumeration of connected induced
//! subgraphs (each candidate sensor set is visited exactly once), combined
//! with two anti-monotone prunes:
//!
//! * **support**: the co-evolving timestamp set of a pattern only shrinks
//!   when a sensor is added, so a sensor set none of whose direction
//!   assignments reaches ψ co-evolving timestamps can never be extended into
//!   a CAP and its whole subtree is cut;
//! * **attributes**: the number of distinct attributes only grows, so a set
//!   already exceeding μ distinct attributes is cut.
//!
//! Each surviving sensor set is reported once, with the direction assignment
//! of maximum support.
//!
//! # The zero-allocation core
//!
//! The traversal is iterative (an explicit stack of frames instead of
//! recursion) and allocation-free in steady state: all per-step state lives
//! in [`SearchScratch`], a bundle of reusable arenas that grow to the
//! high-water mark of the search and are then recycled —
//!
//! * candidate timestamp sets are intersected into a pooled bitset arena
//!   ([`Bitset::assign_and`] into recycled buffers, never `clone()`),
//! * candidate direction assignments live in one flat `Vec<Direction>`
//!   sliced per frame,
//! * the ESU extension sets share one flat arena addressed by per-frame
//!   ranges with a consume-from-the-back cursor,
//! * the closed neighbourhood is an epoch-stamped mark array with an undo
//!   log (no `BTreeSet` clones), and
//! * the attribute set is a small sorted vector with per-frame undo.
//!
//! The pre-refactor recursive implementation is retained under `#[cfg(test)]`
//! (`reference`) as the equivalence oracle; property tests assert both
//! produce identical [`Cap`] sets.

use crate::bitset::{Bitset, BitsetRef};
use crate::cancel::{CancelToken, CANCEL_CHECK_STRIDE};
use crate::error::MiningError;
use crate::evolving::{Direction, EvolvingSets};
use crate::params::MiningParams;
use crate::pattern::{Cap, CapMember};
use crate::spatial::ProximityGraph;
use miscela_model::{AttributeId, SensorIndex};

/// Shared, read-only context for the CAP search.
pub struct SearchContext<'a> {
    /// Evolving timestamp sets per dense sensor index.
    pub evolving: &'a [EvolvingSets],
    /// Attribute per dense sensor index.
    pub attributes: &'a [AttributeId],
    /// η-proximity graph over the sensors.
    pub graph: &'a ProximityGraph,
    /// Mining parameters.
    pub params: &'a MiningParams,
}

/// A pool of recycled [`Bitset`] buffers with stack discipline.
///
/// `truncate` only moves the logical length; the underlying word buffers
/// stay allocated and are overwritten in place by the next push, so after
/// warm-up the search performs no heap allocation per extension step.
#[derive(Debug, Default)]
struct BitsetArena {
    slots: Vec<Bitset>,
    len: usize,
}

impl BitsetArena {
    fn len(&self) -> usize {
        self.len
    }

    fn clear(&mut self) {
        self.len = 0;
    }

    fn truncate(&mut self, len: usize) {
        debug_assert!(len <= self.len);
        self.len = len;
    }

    fn get(&self, i: usize) -> &Bitset {
        debug_assert!(i < self.len);
        &self.slots[i]
    }

    /// Pushes a copy of `src` into the next recycled slot.
    fn push_copy(&mut self, src: BitsetRef<'_>) {
        if self.len < self.slots.len() {
            self.slots[self.len].assign_from(src);
        } else {
            self.slots.push(src.to_bitset());
        }
        self.len += 1;
    }

    /// Pushes `slots[src_slot] & other` into the next recycled slot and
    /// returns the popcount of the result, computed in the same pass.
    fn push_and_counted(&mut self, src_slot: usize, other: BitsetRef<'_>) -> usize {
        debug_assert!(src_slot < self.len);
        if self.len >= self.slots.len() {
            self.slots.push(Bitset::default());
        }
        let (lo, hi) = self.slots.split_at_mut(self.len);
        let count = hi[0].assign_and_count(&lo[src_slot], other);
        self.len += 1;
        count
    }

    /// Discards the most recently pushed slot (buffer retained for reuse).
    fn pop(&mut self) {
        debug_assert!(self.len > 0);
        self.len -= 1;
    }
}

/// One suspended ESU extension step: ranges into the shared arenas instead
/// of owned sets, so pushing and popping a frame moves no heap memory.
#[derive(Debug, Clone, Copy)]
struct Frame {
    /// This frame's extension set occupies `ext[ext_start..]` at push time;
    /// `ext_cursor` consumes it from the back (replicating `Vec::pop` order
    /// of the recursive formulation).
    ext_start: usize,
    ext_cursor: usize,
    /// This frame's surviving candidates: `cand_count` bitsets starting at
    /// `cand_start` in the bitset arena, with direction assignments of
    /// length `depth` each, starting at `dirs_start` in the flat arena.
    cand_start: usize,
    cand_count: usize,
    dirs_start: usize,
    /// Number of sensors in the subset at this frame (= assignment length).
    depth: usize,
    /// Closed-neighbourhood marks added when entering this frame begin here
    /// in the undo log.
    closed_log_start: usize,
    /// The attribute inserted into the sorted attribute set when entering
    /// this frame, if it was new.
    added_attr: Option<AttributeId>,
}

/// Reusable scratch state for the CAP search.
///
/// One `SearchScratch` per worker thread; every arena grows to the
/// high-water mark of the searches it has served and is recycled across
/// seeds and components, so the steady-state search performs no heap
/// allocation besides the reported [`Cap`]s themselves.
#[derive(Debug, Default)]
pub struct SearchScratch {
    frames: Vec<Frame>,
    subset: Vec<SensorIndex>,
    /// Distinct attributes of the current subset, sorted ascending.
    attrs: Vec<AttributeId>,
    /// Flat arena of extension sets, per-frame ranges.
    ext: Vec<SensorIndex>,
    /// Flat arena of candidate direction assignments, `depth`-strided.
    dirs: Vec<Direction>,
    /// Pooled candidate timestamp bitsets.
    bits: BitsetArena,
    /// Support (popcount) per candidate, aligned with `bits`; cached at
    /// intersection time so emitting a pattern never re-counts.
    cand_counts: Vec<usize>,
    /// `closed_stamp[v] == epoch` ⇔ sensor v is in the closed neighbourhood
    /// of the current subset. Epoch-stamping makes the per-seed reset O(1).
    closed_stamp: Vec<u32>,
    /// Dense indices marked since the current seed's root, for frame undo.
    closed_log: Vec<u32>,
    epoch: u32,
}

impl SearchScratch {
    /// Creates an empty scratch. Arenas are grown on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Prepares the scratch for a new seed over a graph of `n` sensors.
    fn reset_for_seed(&mut self, n: usize) {
        self.frames.clear();
        self.subset.clear();
        self.attrs.clear();
        self.ext.clear();
        self.dirs.clear();
        self.bits.clear();
        self.cand_counts.clear();
        self.closed_log.clear();
        if self.closed_stamp.len() < n {
            self.closed_stamp.resize(n, 0);
        }
        if self.epoch == u32::MAX {
            self.closed_stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }
}

impl<'a> SearchContext<'a> {
    /// Mines all CAPs inside one spatially connected component.
    ///
    /// Convenience wrapper that allocates a fresh [`SearchScratch`]; batch
    /// callers (the parallel miner) hold one scratch per worker and call
    /// [`SearchContext::search_component_cancellable`] instead.
    pub fn search_component(&self, component: &[SensorIndex]) -> Vec<Cap> {
        let mut scratch = SearchScratch::new();
        let mut out = Vec::new();
        match self.search_component_cancellable(
            component,
            &mut scratch,
            &mut out,
            &CancelToken::never(),
        ) {
            Ok(()) => out,
            // A never-token cannot fire, so this arm is never taken.
            Err(_) => Vec::new(),
        }
    }

    /// Mines all CAPs inside one component, reusing `scratch` and appending
    /// results to `out`. The
    /// token is polled every [`CANCEL_CHECK_STRIDE`] ESU expansion steps, so
    /// an abort lands within a bounded stride of work. On `Err`, `out` may
    /// hold CAPs from already-completed seeds and must be discarded;
    /// `scratch` stays reusable (every seed resets it).
    pub fn search_component_cancellable(
        &self,
        component: &[SensorIndex],
        scratch: &mut SearchScratch,
        out: &mut Vec<Cap>,
        cancel: &CancelToken,
    ) -> Result<(), MiningError> {
        if component.len() < 2 {
            return Ok(());
        }
        for &seed in component {
            cancel.check()?;
            self.search_seed_cancellable(seed, scratch, out, cancel)?;
        }
        Ok(())
    }

    /// Runs the ESU pattern-tree search rooted at one seed sensor; see
    /// [`search_component_cancellable`](SearchContext::search_component_cancellable)
    /// for the abort contract.
    ///
    /// ESU uniqueness means the union over all seeds of a component equals
    /// [`SearchContext::search_component`]; the work-stealing scheduler uses
    /// this to split oversized components into independent per-seed units.
    pub fn search_seed_cancellable(
        &self,
        seed: SensorIndex,
        scratch: &mut SearchScratch,
        out: &mut Vec<Cap>,
        cancel: &CancelToken,
    ) -> Result<(), MiningError> {
        scratch.reset_for_seed(self.graph.sensor_count());

        // Seed candidates: the seed sensor in each direction that alone
        // already satisfies the support threshold.
        let mut cand_count = 0;
        for &dir in &Direction::BOTH {
            let bits = self.evolving[seed.index()].for_direction(dir);
            let support = bits.count();
            if support >= self.params.psi {
                scratch.bits.push_copy(bits);
                scratch.cand_counts.push(support);
                scratch.dirs.push(dir);
                cand_count += 1;
            }
        }
        if cand_count == 0 {
            return Ok(());
        }
        scratch.subset.push(seed);
        scratch.attrs.push(self.attributes[seed.index()]);

        // Closed neighbourhood of the root: the seed and all its neighbours.
        // The initial extension set is the neighbours beyond the seed (the
        // ESU ordering that guarantees uniqueness).
        let epoch = scratch.epoch;
        scratch.closed_stamp[seed.index()] = epoch;
        for &u in self.graph.neighbors(seed) {
            if u > seed {
                scratch.ext.push(u);
            }
            scratch.closed_stamp[u.index()] = epoch;
        }
        scratch.frames.push(Frame {
            ext_start: 0,
            ext_cursor: scratch.ext.len(),
            cand_start: 0,
            cand_count,
            dirs_start: 0,
            depth: 1,
            closed_log_start: 0,
            added_attr: None,
        });
        self.run(seed, scratch, out, cancel)
    }

    /// The iterative ESU traversal over the scratch arenas. Polls `cancel`
    /// every [`CANCEL_CHECK_STRIDE`] loop turns (each turn is one ESU
    /// expansion step or frame pop), bounding the abort latency of an
    /// in-flight search.
    fn run(
        &self,
        seed: SensorIndex,
        sc: &mut SearchScratch,
        out: &mut Vec<Cap>,
        cancel: &CancelToken,
    ) -> Result<(), MiningError> {
        let mut steps: usize = 0;
        loop {
            steps += 1;
            if steps.is_multiple_of(CANCEL_CHECK_STRIDE) {
                cancel.check()?;
            }
            let Some(top) = sc.frames.len().checked_sub(1) else {
                return Ok(()); // Every frame popped: this seed is done.
            };
            if sc.frames[top].ext_cursor == sc.frames[top].ext_start {
                // Frame exhausted: undo its arena growth and pop it.
                let Some(fr) = sc.frames.pop() else {
                    return Ok(());
                };
                if sc.frames.is_empty() {
                    return Ok(()); // Root popped: this seed is done.
                }
                sc.subset.pop();
                if let Some(a) = fr.added_attr {
                    if let Some(pos) = sc.attrs.iter().position(|&x| x == a) {
                        sc.attrs.remove(pos);
                    }
                }
                for &ui in &sc.closed_log[fr.closed_log_start..] {
                    sc.closed_stamp[ui as usize] = 0;
                }
                sc.closed_log.truncate(fr.closed_log_start);
                sc.ext.truncate(fr.ext_start);
                sc.bits.truncate(fr.cand_start);
                sc.cand_counts.truncate(fr.cand_start);
                sc.dirs.truncate(fr.dirs_start);
                continue;
            }
            sc.frames[top].ext_cursor -= 1;
            let f = sc.frames[top];
            let w = sc.ext[f.ext_cursor];

            // Attribute prune (checked before any arena growth).
            let w_attr = self.attributes[w.index()];
            let attr_is_new = !sc.attrs.contains(&w_attr);
            if sc.attrs.len() + usize::from(attr_is_new) > self.params.mu {
                continue;
            }

            // Support prune: extend every surviving candidate by w in both
            // directions; survivors are intersected into recycled slots.
            let child_cand_start = sc.bits.len();
            let child_dirs_start = sc.dirs.len();
            let child_depth = f.depth + 1;
            let mut child_count = 0;
            for ci in 0..f.cand_count {
                let slot = f.cand_start + ci;
                for &dir in &Direction::BOTH {
                    let w_bits = self.evolving[w.index()].for_direction(dir);
                    // Materialize-then-test: the intersection is written into
                    // the next recycled slot and counted in one pass; a
                    // pruned candidate just hands the slot back.
                    let support = sc.bits.push_and_counted(slot, w_bits);
                    if support >= self.params.psi {
                        sc.cand_counts.push(support);
                        let ds = f.dirs_start + ci * f.depth;
                        sc.dirs.extend_from_within(ds..ds + f.depth);
                        sc.dirs.push(dir);
                        child_count += 1;
                    } else {
                        sc.bits.pop();
                    }
                }
            }
            if child_count == 0 {
                sc.bits.truncate(child_cand_start);
                sc.cand_counts.truncate(child_cand_start);
                sc.dirs.truncate(child_dirs_start);
                continue;
            }

            sc.subset.push(w);
            if attr_is_new {
                let pos = sc.attrs.partition_point(|&a| a < w_attr);
                sc.attrs.insert(pos, w_attr);
            }

            // Report the pattern when the attribute constraint is met.
            if sc.subset.len() >= 2 && sc.attrs.len() >= self.params.min_attributes {
                out.push(emit(
                    sc,
                    child_cand_start,
                    child_count,
                    child_dirs_start,
                    child_depth,
                ));
            }

            // Exclusive-neighbourhood extension (ESU): the child inherits the
            // parent's remaining extension set plus the neighbours of w that
            // are beyond the seed and not already in the closed
            // neighbourhood; all neighbours of w become closed. When the size
            // bound is hit the child is pushed with an empty extension range
            // instead: it does no work and the next loop turn unwinds it
            // through the single frame-pop undo path above.
            let child_ext_start = sc.ext.len();
            let child_log_start = sc.closed_log.len();
            let size_bound_hit = self
                .params
                .max_sensors
                .is_some_and(|m| sc.subset.len() >= m);
            if !size_bound_hit {
                sc.ext.extend_from_within(f.ext_start..f.ext_cursor);
                for &u in self.graph.neighbors(w) {
                    let ui = u.index();
                    if sc.closed_stamp[ui] != sc.epoch {
                        if u > seed {
                            sc.ext.push(u);
                        }
                        sc.closed_stamp[ui] = sc.epoch;
                        sc.closed_log.push(ui as u32);
                    }
                }
            }
            // (w itself was marked closed when it entered an extension set.)
            sc.frames.push(Frame {
                ext_start: child_ext_start,
                ext_cursor: sc.ext.len(),
                cand_start: child_cand_start,
                cand_count: child_count,
                dirs_start: child_dirs_start,
                depth: child_depth,
                closed_log_start: child_log_start,
                added_attr: attr_is_new.then_some(w_attr),
            });
        }
    }
}

/// Builds the reported CAP for the current subset: the direction assignment
/// with maximum support wins; ties prefer the lexicographically smaller
/// assignment (identical to the recursive reference's `max_by` fold, which
/// keeps the later of two equal candidates).
fn emit(
    sc: &SearchScratch,
    cand_start: usize,
    cand_count: usize,
    dirs_start: usize,
    depth: usize,
) -> Cap {
    let dirs_of = |i: usize| &sc.dirs[dirs_start + i * depth..dirs_start + (i + 1) * depth];
    let mut best = 0usize;
    let mut best_count = sc.cand_counts[cand_start];
    for i in 1..cand_count {
        let count = sc.cand_counts[cand_start + i];
        let better = count > best_count || (count == best_count && dirs_of(i) <= dirs_of(best));
        if better {
            best = i;
            best_count = count;
        }
    }
    let members: Vec<CapMember> = sc
        .subset
        .iter()
        .zip(dirs_of(best))
        .map(|(&sensor, &direction)| CapMember { sensor, direction })
        .collect();
    let timestamps: Vec<u32> = sc
        .bits
        .get(cand_start + best)
        .indices()
        .into_iter()
        .map(|i| i as u32)
        .collect();
    Cap::from_sorted_parts(members, sc.attrs.clone(), timestamps)
}

/// The pre-refactor recursive CAP search, retained verbatim as the
/// equivalence oracle for the zero-allocation iterative core. Only compiled
/// into test builds.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use std::collections::BTreeSet;

    #[derive(Debug, Clone)]
    struct Candidate {
        directions: Vec<Direction>,
        bits: Bitset,
    }

    /// Mines all CAPs inside one component with the original recursive,
    /// clone-per-step implementation.
    pub(crate) fn search_component_recursive(
        ctx: &SearchContext<'_>,
        component: &[SensorIndex],
    ) -> Vec<Cap> {
        let mut out = Vec::new();
        if component.len() < 2 {
            return out;
        }
        for &seed in component.iter() {
            let seed_candidates: Vec<Candidate> = Direction::BOTH
                .iter()
                .filter_map(|&dir| {
                    let bits = ctx.evolving[seed.index()].for_direction(dir).to_bitset();
                    (bits.count() >= ctx.params.psi).then_some(Candidate {
                        directions: vec![dir],
                        bits,
                    })
                })
                .collect();
            if seed_candidates.is_empty() {
                continue;
            }
            let mut attrs = BTreeSet::new();
            attrs.insert(ctx.attributes[seed.index()]);
            let ext: Vec<SensorIndex> = ctx
                .graph
                .neighbors(seed)
                .iter()
                .copied()
                .filter(|&u| u > seed)
                .collect();
            let mut closed: BTreeSet<SensorIndex> = BTreeSet::new();
            closed.insert(seed);
            for &u in ctx.graph.neighbors(seed) {
                closed.insert(u);
            }
            extend(
                ctx,
                seed,
                &mut vec![seed],
                &closed,
                ext,
                &seed_candidates,
                &attrs,
                &mut out,
            );
        }
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn extend(
        ctx: &SearchContext<'_>,
        seed: SensorIndex,
        subset: &mut Vec<SensorIndex>,
        closed: &BTreeSet<SensorIndex>,
        mut ext: Vec<SensorIndex>,
        candidates: &[Candidate],
        attrs: &BTreeSet<AttributeId>,
        out: &mut Vec<Cap>,
    ) {
        if let Some(max) = ctx.params.max_sensors {
            if subset.len() >= max {
                return;
            }
        }
        while let Some(w) = ext.pop() {
            let w_attr = ctx.attributes[w.index()];
            let mut new_attrs = attrs.clone();
            new_attrs.insert(w_attr);
            if new_attrs.len() > ctx.params.mu {
                continue;
            }
            let mut new_candidates = Vec::new();
            for cand in candidates {
                for &dir in &Direction::BOTH {
                    let w_bits = ctx.evolving[w.index()].for_direction(dir).to_bitset();
                    if cand.bits.and_count(&w_bits) >= ctx.params.psi {
                        let mut bits = cand.bits.clone();
                        bits.and_assign(&w_bits);
                        let mut directions = cand.directions.clone();
                        directions.push(dir);
                        new_candidates.push(Candidate { directions, bits });
                    }
                }
            }
            if new_candidates.is_empty() {
                continue;
            }
            subset.push(w);
            if subset.len() >= 2 && new_attrs.len() >= ctx.params.min_attributes {
                out.push(emit_recursive(subset, &new_attrs, &new_candidates));
            }
            let mut new_ext = ext.clone();
            let mut new_closed = closed.clone();
            for &u in ctx.graph.neighbors(w) {
                if u > seed && !closed.contains(&u) {
                    new_ext.push(u);
                }
                new_closed.insert(u);
            }
            new_closed.insert(w);
            extend(
                ctx,
                seed,
                subset,
                &new_closed,
                new_ext,
                &new_candidates,
                &new_attrs,
                out,
            );
            subset.pop();
        }
    }

    fn emit_recursive(
        subset: &[SensorIndex],
        attrs: &BTreeSet<AttributeId>,
        candidates: &[Candidate],
    ) -> Cap {
        let best = candidates
            .iter()
            .max_by(|a, b| {
                a.bits
                    .count()
                    .cmp(&b.bits.count())
                    .then_with(|| b.directions.cmp(&a.directions))
            })
            .expect("emit called with at least one candidate");
        let members: Vec<CapMember> = subset
            .iter()
            .zip(&best.directions)
            .map(|(&sensor, &direction)| CapMember { sensor, direction })
            .collect();
        let timestamps: Vec<u32> = best.bits.indices().into_iter().map(|i| i as u32).collect();
        Cap::new(members, attrs.clone(), timestamps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evolving::extract_evolving;
    use crate::pattern::CapSet;
    use miscela_model::{GeoPoint, TimeSeries};
    use proptest::prelude::*;

    /// Builds a small synthetic scenario: `series[i]` is the series of sensor
    /// i, `attrs[i]` its attribute, all sensors within 200 m of each other
    /// unless `spread` is true (in which case sensor i is ~i km away).
    fn context_fixture(
        series: &[TimeSeries],
        attrs: &[u16],
        spread: bool,
        params: &MiningParams,
    ) -> (Vec<EvolvingSets>, Vec<AttributeId>, ProximityGraph) {
        let evolving: Vec<EvolvingSets> = series
            .iter()
            .map(|s| extract_evolving(s, params.epsilon))
            .collect();
        let attributes: Vec<AttributeId> = attrs.iter().map(|&a| AttributeId(a)).collect();
        let points: Vec<GeoPoint> = (0..series.len())
            .map(|i| {
                if spread {
                    GeoPoint::new_unchecked(43.46 + 0.01 * i as f64, -3.80)
                } else {
                    GeoPoint::new_unchecked(43.46 + 0.001 * i as f64, -3.80)
                }
            })
            .collect();
        let graph = ProximityGraph::from_points(&points, params.eta_km);
        (evolving, attributes, graph)
    }

    fn saw(n: usize, period: usize, amplitude: f64) -> TimeSeries {
        TimeSeries::from_values(
            (0..n)
                .map(|i| {
                    let phase = i % period;
                    if phase < period / 2 {
                        amplitude * phase as f64
                    } else {
                        amplitude * (period - phase) as f64
                    }
                })
                .collect(),
        )
    }

    fn flat(n: usize) -> TimeSeries {
        TimeSeries::from_values(vec![5.0; n])
    }

    #[test]
    fn finds_planted_two_sensor_cap() {
        let n = 100;
        let params = MiningParams::new()
            .with_epsilon(0.5)
            .with_eta_km(1.0)
            .with_psi(10)
            .with_mu(3)
            .with_segmentation(false);
        // Sensors 0 (temperature) and 1 (traffic) share the same sawtooth;
        // sensor 2 (temperature) is flat and never evolves.
        let series = vec![saw(n, 10, 1.0), saw(n, 10, 2.0), flat(n)];
        let (evolving, attributes, graph) = context_fixture(&series, &[0, 1, 0], false, &params);
        let ctx = SearchContext {
            evolving: &evolving,
            attributes: &attributes,
            graph: &graph,
            params: &params,
        };
        let comps = graph.components();
        assert_eq!(comps.len(), 1);
        let caps = ctx.search_component(&comps[0]);
        assert!(!caps.is_empty());
        // The pair {0, 1} must be among the results with both directions Up
        // or both Down (they co-evolve in the same direction).
        let pair = caps
            .iter()
            .find(|c| c.sensors() == vec![SensorIndex(0), SensorIndex(1)])
            .expect("pair {0,1} not found");
        assert!(pair.support >= 10);
        let d0 = pair.direction_of(SensorIndex(0)).unwrap();
        let d1 = pair.direction_of(SensorIndex(1)).unwrap();
        assert_eq!(d0, d1);
        // The flat sensor never appears.
        assert!(caps.iter().all(|c| !c.contains(SensorIndex(2))));
    }

    #[test]
    fn same_attribute_pairs_are_rejected_by_default() {
        let n = 60;
        let params = MiningParams::new()
            .with_epsilon(0.5)
            .with_psi(5)
            .with_segmentation(false);
        // Both sensors measure attribute 0.
        let series = vec![saw(n, 10, 1.0), saw(n, 10, 1.0)];
        let (evolving, attributes, graph) = context_fixture(&series, &[0, 0], false, &params);
        let ctx = SearchContext {
            evolving: &evolving,
            attributes: &attributes,
            graph: &graph,
            params: &params,
        };
        let caps = ctx.search_component(&graph.components()[0]);
        assert!(caps.is_empty());

        // Removing the restriction (min_attributes = 1) accepts them.
        let params1 = params.clone().with_min_attributes(1);
        let ctx1 = SearchContext {
            evolving: &evolving,
            attributes: &attributes,
            graph: &graph,
            params: &params1,
        };
        assert!(!ctx1.search_component(&graph.components()[0]).is_empty());
    }

    #[test]
    fn psi_prunes_weak_patterns() {
        let n = 40;
        // Series co-evolve at exactly 7 timestamps (one rise of the sawtooth
        // per period of 12 => ~3 rises of length ~5).
        let series = vec![saw(n, 12, 1.0), saw(n, 12, 1.0)];
        let base = MiningParams::new()
            .with_epsilon(0.5)
            .with_segmentation(false);
        let (evolving, attributes, graph) = context_fixture(&series, &[0, 1], false, &base);
        let count_with_psi = |psi: usize| {
            let params = base.clone().with_psi(psi);
            let ctx = SearchContext {
                evolving: &evolving,
                attributes: &attributes,
                graph: &graph,
                params: &params,
            };
            ctx.search_component(&graph.components()[0]).len()
        };
        assert!(count_with_psi(1) >= 1);
        assert_eq!(count_with_psi(1000), 0);
        // Monotone: more CAPs with smaller psi.
        assert!(count_with_psi(1) >= count_with_psi(10));
    }

    #[test]
    fn eta_splits_components_and_removes_caps() {
        let n = 80;
        let series = vec![saw(n, 10, 1.0), saw(n, 10, 1.0)];
        let params = MiningParams::new()
            .with_epsilon(0.5)
            .with_psi(5)
            .with_eta_km(0.05) // sensors are ~1.1 km apart in "spread" mode
            .with_segmentation(false);
        let (evolving, attributes, graph) = context_fixture(&series, &[0, 1], true, &params);
        let ctx = SearchContext {
            evolving: &evolving,
            attributes: &attributes,
            graph: &graph,
            params: &params,
        };
        let total: usize = graph
            .components()
            .iter()
            .map(|c| ctx.search_component(c).len())
            .sum();
        assert_eq!(total, 0, "distant sensors must not form CAPs");
    }

    #[test]
    fn mu_limits_attribute_count() {
        let n = 80;
        // Three sensors, three different attributes, all co-evolving.
        let series = vec![saw(n, 10, 1.0), saw(n, 10, 1.5), saw(n, 10, 2.0)];
        let base = MiningParams::new()
            .with_epsilon(0.4)
            .with_psi(5)
            .with_segmentation(false);
        let (evolving, attributes, graph) = context_fixture(&series, &[0, 1, 2], false, &base);
        let caps_for_mu = |mu: usize| {
            let params = base.clone().with_mu(mu).with_min_attributes(2.min(mu));
            let ctx = SearchContext {
                evolving: &evolving,
                attributes: &attributes,
                graph: &graph,
                params: &params,
            };
            ctx.search_component(&graph.components()[0])
        };
        let caps3 = caps_for_mu(3);
        assert!(
            caps3.iter().any(|c| c.size() == 3),
            "triple not found with mu=3"
        );
        let caps2 = caps_for_mu(2);
        assert!(caps2.iter().all(|c| c.attribute_count() <= 2));
        assert!(!caps2.iter().any(|c| c.size() == 3));
        // mu=3 finds at least as many CAPs as mu=2.
        assert!(caps3.len() >= caps2.len());
    }

    #[test]
    fn each_sensor_set_reported_once() {
        let n = 120;
        let series = vec![
            saw(n, 10, 1.0),
            saw(n, 10, 1.2),
            saw(n, 10, 1.4),
            saw(n, 10, 1.6),
        ];
        let params = MiningParams::new()
            .with_epsilon(0.4)
            .with_psi(5)
            .with_mu(4)
            .with_segmentation(false);
        let (evolving, attributes, graph) = context_fixture(&series, &[0, 1, 0, 1], false, &params);
        let ctx = SearchContext {
            evolving: &evolving,
            attributes: &attributes,
            graph: &graph,
            params: &params,
        };
        let caps = ctx.search_component(&graph.components()[0]);
        let mut keys: Vec<Vec<u32>> = caps.iter().map(|c| c.sensor_key()).collect();
        let before = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), before, "duplicate sensor sets reported");
        assert!(before > 0);
    }

    #[test]
    fn opposite_direction_correlation_is_found() {
        let n = 100;
        // Sensor 1 is the mirror image of sensor 0: when 0 rises, 1 falls.
        let up = saw(n, 10, 1.0);
        let down =
            TimeSeries::from_values(up.iter().map(|v| 10.0 - v.unwrap()).collect::<Vec<_>>());
        let params = MiningParams::new()
            .with_epsilon(0.5)
            .with_psi(10)
            .with_segmentation(false);
        let (evolving, attributes, graph) = context_fixture(&[up, down], &[0, 1], false, &params);
        let ctx = SearchContext {
            evolving: &evolving,
            attributes: &attributes,
            graph: &graph,
            params: &params,
        };
        let caps = ctx.search_component(&graph.components()[0]);
        let pair = caps
            .iter()
            .find(|c| c.size() == 2)
            .expect("anti-correlated pair not found");
        let d0 = pair.direction_of(SensorIndex(0)).unwrap();
        let d1 = pair.direction_of(SensorIndex(1)).unwrap();
        assert_eq!(d0, d1.flip());
    }

    #[test]
    fn max_sensors_bounds_pattern_size() {
        let n = 80;
        let series: Vec<TimeSeries> = (0..6).map(|_| saw(n, 10, 1.0)).collect();
        let params = MiningParams::new()
            .with_epsilon(0.5)
            .with_psi(5)
            .with_mu(6)
            .with_max_sensors(Some(3))
            .with_segmentation(false);
        let (evolving, attributes, graph) =
            context_fixture(&series, &[0, 1, 2, 3, 4, 5], false, &params);
        let ctx = SearchContext {
            evolving: &evolving,
            attributes: &attributes,
            graph: &graph,
            params: &params,
        };
        let caps = ctx.search_component(&graph.components()[0]);
        assert!(caps.iter().all(|c| c.size() <= 3));
        assert!(caps.iter().any(|c| c.size() == 3));
    }

    #[test]
    fn pre_cancelled_token_aborts_at_the_seed_boundary() {
        let n = 60;
        let series = vec![saw(n, 10, 1.0), saw(n, 10, 1.5)];
        let params = MiningParams::new()
            .with_epsilon(0.4)
            .with_psi(5)
            .with_segmentation(false);
        let (evolving, attributes, graph) = context_fixture(&series, &[0, 1], false, &params);
        let ctx = SearchContext {
            evolving: &evolving,
            attributes: &attributes,
            graph: &graph,
            params: &params,
        };
        let token = CancelToken::new();
        token.cancel();
        let mut scratch = SearchScratch::new();
        let mut out = Vec::new();
        let result = ctx.search_component_cancellable(
            &graph.components()[0],
            &mut scratch,
            &mut out,
            &token,
        );
        assert_eq!(result, Err(MiningError::Cancelled));
        assert!(out.is_empty());
        // The scratch remains reusable for a later uncancelled search.
        ctx.search_component_cancellable(
            &graph.components()[0],
            &mut scratch,
            &mut out,
            &CancelToken::never(),
        )
        .unwrap();
        assert!(!out.is_empty());
    }

    #[test]
    fn expired_deadline_aborts_a_large_search_within_the_stride() {
        // A clique of identical sensors makes the ESU tree enormous (every
        // subset of the clique survives the support prune), so a run to
        // completion would take far longer than this test is allowed to; the
        // expired deadline must cut it off at a stride boundary instead.
        let n = 120;
        let k = 14;
        let series: Vec<TimeSeries> = (0..k).map(|_| saw(n, 10, 1.0)).collect();
        let attrs: Vec<u16> = (0..k as u16).collect();
        let params = MiningParams::new()
            .with_epsilon(0.4)
            .with_psi(1)
            .with_mu(k)
            .with_max_sensors(None)
            .with_segmentation(false);
        let (evolving, attributes, graph) = context_fixture(&series, &attrs, false, &params);
        let ctx = SearchContext {
            evolving: &evolving,
            attributes: &attributes,
            graph: &graph,
            params: &params,
        };
        let token = CancelToken::new()
            .with_deadline(std::time::Instant::now() - std::time::Duration::from_millis(1));
        let mut scratch = SearchScratch::new();
        let mut out = Vec::new();
        // Driving one seed directly bypasses the component-loop boundary
        // check, so the abort below can only come from the in-loop stride
        // check — the deadline is already expired, so it fires at exactly
        // step CANCEL_CHECK_STRIDE.
        let result = ctx.search_seed_cancellable(SensorIndex(0), &mut scratch, &mut out, &token);
        assert_eq!(result, Err(MiningError::DeadlineExceeded));
    }

    // ---- Equivalence with the retained recursive reference ----

    /// Pseudo-random walk series; equal seeds give identical (and therefore
    /// perfectly correlated) series, distinct seeds decorrelate.
    fn lcg_series(n: usize, seed: u64) -> TimeSeries {
        let mut state = seed.wrapping_mul(2685821657736338717).wrapping_add(1);
        let mut vals = Vec::with_capacity(n);
        let mut v = 10.0;
        for _ in 0..n {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let step = ((state >> 33) % 5) as f64 - 2.0;
            v += step;
            vals.push(v);
        }
        TimeSeries::from_values(vals)
    }

    fn assert_search_equivalence(
        series: &[TimeSeries],
        attrs: &[u16],
        params: &MiningParams,
    ) -> usize {
        let (evolving, attributes, graph) = context_fixture(series, attrs, false, params);
        let ctx = SearchContext {
            evolving: &evolving,
            attributes: &attributes,
            graph: &graph,
            params,
        };
        let mut scratch = SearchScratch::new();
        let mut total = 0;
        for comp in graph.components() {
            // Fresh-scratch path.
            let optimized = CapSet::from_caps(ctx.search_component(comp));
            // Reused-scratch path must agree with the fresh-scratch path.
            let mut reused = Vec::new();
            ctx.search_component_cancellable(
                comp,
                &mut scratch,
                &mut reused,
                &CancelToken::never(),
            )
            .unwrap();
            assert_eq!(CapSet::from_caps(reused), optimized);
            // And both must equal the recursive reference exactly: same
            // sensor sets, same supports, same direction assignments, same
            // co-evolving timestamps.
            let reference = CapSet::from_caps(reference::search_component_recursive(&ctx, comp));
            assert_eq!(optimized, reference);
            total += optimized.len();
        }
        total
    }

    #[test]
    fn iterative_matches_recursive_on_planted_fixtures() {
        let n = 120;
        // Two correlated pairs across three attributes plus a flat sensor.
        let series = vec![
            saw(n, 10, 1.0),
            saw(n, 10, 1.5),
            saw(n, 14, 2.0),
            saw(n, 14, 1.1),
            flat(n),
        ];
        let params = MiningParams::new()
            .with_epsilon(0.4)
            .with_psi(5)
            .with_mu(3)
            .with_segmentation(false);
        let found = assert_search_equivalence(&series, &[0, 1, 2, 0, 1], &params);
        assert!(found > 0, "fixture found no CAPs at all");

        // Unbounded size, relaxed attribute restriction.
        let params = MiningParams::new()
            .with_epsilon(0.4)
            .with_psi(5)
            .with_mu(5)
            .with_min_attributes(1)
            .with_max_sensors(None)
            .with_segmentation(false);
        assert!(assert_search_equivalence(&series, &[0, 1, 2, 0, 1], &params) > 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The optimized iterative search and the retained recursive
        /// reference produce identical `CapSet`s (same sensor sets, supports,
        /// direction assignments, and timestamps) on randomized planted
        /// datasets.
        #[test]
        fn iterative_matches_recursive_on_random_datasets(
            seed_classes in proptest::collection::vec(1u64..5, 4..9),
            attr_classes in proptest::collection::vec(0u16..3, 4..9),
            psi in 4usize..10,
            mu in 2usize..4,
            max_sensors in 3usize..6,
        ) {
            let k = seed_classes.len().min(attr_classes.len());
            let n = 130;
            // Sensors sharing a seed class follow identical random walks and
            // therefore co-evolve; distinct classes decorrelate.
            let series: Vec<TimeSeries> =
                (0..k).map(|i| lcg_series(n, seed_classes[i])).collect();
            let attrs: Vec<u16> = attr_classes[..k].to_vec();
            let params = MiningParams::new()
                .with_epsilon(0.9)
                .with_eta_km(1.0)
                .with_psi(psi)
                .with_mu(mu)
                .with_max_sensors(Some(max_sensors))
                .with_segmentation(false);
            assert_search_equivalence(&series, &attrs, &params);
        }
    }
}
