//! The full MISCELA pipeline.
//!
//! [`Miner`] runs the four steps of Section 2.2 over a [`Dataset`]:
//! linear segmentation, evolving-timestamp extraction, spatially connected
//! component discovery, and the per-component CAP search. The result bundles
//! the [`CapSet`] with a [`MiningReport`] of per-step timings and sizes —
//! the report is what the Figure-2 pipeline experiment prints.
//!
//! The pipeline has one implementation, [`Miner::mine_sweep`], which plans
//! a whole parameter grid; a single mine ([`Miner::mine_cancellable`] and
//! its wrappers) is a one-point sweep whose result is moved out by
//! [`SweepOutput::into_mine`].
//!
//! Both parallel phases — the per-series extraction map of steps (1)+(2)
//! and the per-component CAP search of step (4) — run on the shared
//! work-stealing scheduler ([`crate::scheduler`]): work units are sorted by
//! estimated cost where costs are known, claimed through a shared atomic
//! cursor, and reassembled in unit order, so one giant component — the
//! realistic city-scale shape — no longer gates wall-clock time and the
//! output never depends on thread timing. Each phase fans out only when
//! its estimated work passes the scheduler's one threshold
//! ([`scheduler::workers_for`]). Each search worker owns one
//! reusable [`SearchScratch`], keeping the hot path allocation-free across
//! all the units it processes.
//!
//! With an [`EvolvingCache`] ([`Miner::mine_with_cache`], or any sweep
//! given one), per-series extraction states are keyed by series
//! fingerprint and extraction parameters, so interactive re-mining with
//! tweaked ψ/η/μ skips steps (1)+(2) entirely on unchanged series, and
//! re-mining at a new ε skips step (1): the series' cached segmentation
//! is reconstructed and rescanned at the new rate.

use crate::cancel::CancelToken;
use crate::delayed::{mine_delayed, DelayedCap};
use crate::error::MiningError;
use crate::evolving::{
    derive_trimmed, extract_rescan, extract_resume, extract_state, EvolvingCache, EvolvingSets,
    ExtractionKey, ExtractionState,
};
use crate::params::{Extraction, MiningParams};
use crate::pattern::{Cap, CapSet};
use crate::scheduler;
use crate::search::{SearchContext, SearchScratch};
use crate::spatial::ProximityGraph;
use miscela_model::{AttributeId, Dataset, PrefixFingerprint, SensorIndex, TimeSeries};
use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-step timings and intermediate sizes of one mining run.
#[derive(Debug, Clone, Default)]
pub struct MiningReport {
    /// Time spent in segmentation + evolving-timestamp extraction.
    pub extraction_time: Duration,
    /// Number of series whose extraction was served from the evolving-sets
    /// cache (always 0 for [`Miner::mine`], which runs cache-less).
    pub extraction_cache_hits: usize,
    /// Number of series whose extraction *resumed* from a cached prefix
    /// state — the appended-series path: the cache missed on the full
    /// content but hit on a pre-append prefix fingerprint, so only the
    /// appended tail was re-extracted.
    pub extraction_prefix_hits: usize,
    /// Number of series whose extraction was *derived* from the cached
    /// state of their untrimmed origin — the retained-window path: after a
    /// block-granular front trim, an origin-anchored fingerprint found the
    /// pre-trim state and [`derive_trimmed`] converted it by word shifts
    /// instead of a full re-extraction.
    pub extraction_trim_hits: usize,
    /// Number of series where an origin state was found after a trim but
    /// the derivation could not be proven byte-identical (e.g. the trim
    /// changed the segmentation tolerance), forcing a cold re-extraction.
    pub extraction_trim_fallbacks: usize,
    /// Number of series whose extraction was *rescanned* from the cached
    /// segmentation of the same series at another ε — the retuned-ε path:
    /// a sibling key found a state of the same content and tolerance, and
    /// [`extract_rescan`] reran step (2) over its segmentation instead of
    /// segmenting again.
    pub extraction_rescans: usize,
    /// Time spent building the proximity graph and its components.
    pub spatial_time: Duration,
    /// Time spent in the CAP search.
    pub search_time: Duration,
    /// Total number of evolving timestamps over all sensors (both
    /// directions).
    pub evolving_events: usize,
    /// Number of proximity edges.
    pub proximity_edges: usize,
    /// Number of connected components with at least two sensors.
    pub searchable_components: usize,
    /// Size of the largest component.
    pub largest_component: usize,
    /// Number of CAPs found.
    pub cap_count: usize,
}

impl MiningReport {
    /// Total wall time of the pipeline.
    pub fn total_time(&self) -> Duration {
        self.extraction_time + self.spatial_time + self.search_time
    }
}

/// The result of one mining run.
#[derive(Debug, Clone, Default)]
pub struct MiningResult {
    /// The discovered CAPs.
    pub caps: CapSet,
    /// Pairwise time-delayed CAPs (empty unless `max_delay > 0`).
    pub delayed: Vec<DelayedCap>,
    /// Pipeline statistics.
    pub report: MiningReport,
}

/// What the grid planner of [`Miner::mine_sweep`] shared across the batch,
/// plus the sweep-wide extraction cache counters (per-point reports carry
/// zeros for these — a cache probe happens once per extraction class, not
/// once per point).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Grid points requested (including duplicates).
    pub requested_points: usize,
    /// Distinct grid points after deduplication.
    pub unique_points: usize,
    /// Distinct extraction classes ([`MiningParams::extraction`]) — steps
    /// (1)+(2) ran once per class instead of once per point.
    pub extraction_classes: usize,
    /// Distinct η values — step (3) built one proximity graph per value.
    pub graphs_built: usize,
    /// Distinct searches — step (4) ran once per group of points that
    /// differ only in ψ, at the group's minimum ψ.
    pub search_groups: usize,
    /// Series extractions served whole from the evolving-sets cache.
    pub extraction_cache_hits: usize,
    /// Series extractions resumed from a cached pre-append prefix state.
    pub extraction_prefix_hits: usize,
    /// Series extractions derived from a cached pre-trim origin state.
    pub extraction_trim_hits: usize,
    /// Origin states found after a trim but not provably derivable,
    /// forcing a cold re-extraction.
    pub extraction_trim_fallbacks: usize,
    /// Series extractions rescanned from the cached segmentation of the
    /// same series at another ε.
    pub extraction_rescans: usize,
}

/// The result of one batch parameter sweep ([`Miner::mine_sweep`]):
/// one [`MiningResult`] per requested grid point (in request order,
/// duplicates sharing their unique point's result) plus the planner
/// statistics.
#[derive(Debug, Clone, Default)]
pub struct SweepOutput {
    /// Per-point results; `results[i]` corresponds to `points[i]`.
    pub results: Vec<MiningResult>,
    /// What the planner shared across the grid.
    pub stats: SweepStats,
}

impl SweepOutput {
    /// The result of a one-point sweep as a solo mine reports it: moved out
    /// of the sweep, with the sweep-wide extraction tallies copied into its
    /// report (a sweep's per-point reports carry zeros for them). A sweep
    /// of no points yields an empty result.
    pub fn into_mine(self) -> MiningResult {
        let mut result = self.results.into_iter().next().unwrap_or_default();
        let report = &mut result.report;
        report.extraction_cache_hits = self.stats.extraction_cache_hits;
        report.extraction_prefix_hits = self.stats.extraction_prefix_hits;
        report.extraction_trim_hits = self.stats.extraction_trim_hits;
        report.extraction_trim_fallbacks = self.stats.extraction_trim_fallbacks;
        report.extraction_rescans = self.stats.extraction_rescans;
        result
    }
}

/// Extraction cache counters shared across the scheduler workers of one
/// mine or sweep.
#[derive(Default)]
struct ExtractionTallies {
    cache_hits: AtomicUsize,
    prefix_hits: AtomicUsize,
    trim_hits: AtomicUsize,
    trim_fallbacks: AtomicUsize,
    rescans: AtomicUsize,
}

/// The MISCELA miner.
#[derive(Debug, Clone)]
pub struct Miner {
    params: MiningParams,
}

impl Miner {
    /// Creates a miner with the given parameters. The parameters are
    /// validated here so that invalid requests fail before any work is done.
    pub fn new(params: MiningParams) -> Result<Self, MiningError> {
        params.validate()?;
        Ok(Miner { params })
    }

    /// The miner's parameters.
    pub fn params(&self) -> &MiningParams {
        &self.params
    }

    /// Runs the full pipeline over a dataset.
    pub fn mine(&self, dataset: &Dataset) -> Result<MiningResult, MiningError> {
        self.mine_with_cache(dataset, None)
    }

    /// Runs the full pipeline, consulting `extraction_cache` (when given)
    /// for per-series evolving sets so steps (1)+(2) are skipped on series
    /// whose content and extraction parameters are unchanged. This is the
    /// entry point the server's interactive path uses: re-mining with
    /// tweaked ψ/η/μ pays only for the search.
    pub fn mine_with_cache(
        &self,
        dataset: &Dataset,
        extraction_cache: Option<&dyn EvolvingCache>,
    ) -> Result<MiningResult, MiningError> {
        self.mine_cancellable(dataset, extraction_cache, &CancelToken::never())
    }

    /// Cancellation-aware form of [`Miner::mine_with_cache`]: a one-point
    /// [`Miner::mine_sweep`]. The token is polled between pipeline phases,
    /// at every scheduler unit boundary, every [`crate::CANCEL_CHECK_STRIDE`]
    /// ESU expansion steps inside the search and once per proximity edge of
    /// the delayed extension, so an in-flight mine aborts within a bounded
    /// stride and returns [`MiningError::Cancelled`] /
    /// [`MiningError::DeadlineExceeded`].
    ///
    /// An aborted mine never produces a partial [`MiningResult`]; the only
    /// externally visible residue is extraction states already written to
    /// `extraction_cache`, which are keyed by series content + parameters
    /// and therefore remain correct for any later mine.
    pub fn mine_cancellable(
        &self,
        dataset: &Dataset,
        extraction_cache: Option<&dyn EvolvingCache>,
        cancel: &CancelToken,
    ) -> Result<MiningResult, MiningError> {
        Miner::mine_sweep(
            dataset,
            std::slice::from_ref(&self.params),
            extraction_cache,
            cancel,
        )
        .map(SweepOutput::into_mine)
    }

    /// Mines an entire parameter grid over one dataset as a single
    /// scheduled job, sharing every stage the grid permits.
    ///
    /// An interactive sweep over ψ/η/μ re-runs the pipeline once per grid
    /// point; almost all of that work is identical between points. This
    /// batch entry point plans the grid instead:
    ///
    /// * **extraction classes** — steps (1)+(2) depend only on
    ///   [`MiningParams::extraction`], which also keys the extraction
    ///   cache; each class extracts once, and all class×series
    ///   extractions fan through the shared scheduler as one
    ///   work-stealing batch, probing the extraction cache (when given)
    ///   for each series: full content, then a pre-append prefix to
    ///   resume from, then a pre-trim origin to derive from, then the same
    ///   content at another ε to rescan (only states segmented from
    ///   scratch are published for that last probe);
    /// * **one proximity graph per distinct η** — step (3) ignores every
    ///   other parameter;
    /// * **search groups** — distinct points that are equal with ψ cleared
    ///   share one step-(4) search, run at the group's minimum ψ. The search
    ///   consults ψ only as a support floor (candidate pruning and emit
    ///   gating) and supports are nonincreasing along ESU extension
    ///   paths, so the ψ_min run's caps are a superset of every member's
    ///   and filtering them by `support >= ψ` reproduces each member's
    ///   independent mine byte-for-byte ([`CapSet::from_caps`] applies a
    ///   ψ-independent total order). The same argument covers the delayed
    ///   extension: its per-edge best pair maximizes support before the ψ
    ///   floor is consulted, so the group result filters exactly.
    ///
    /// All search groups' work units (whole small components, per-seed
    /// subtrees of oversized ones) are tagged with their group, globally
    /// sorted by estimated cost, and claimed through **one** scheduler
    /// batch, so a cheap grid point's units backfill workers that would
    /// otherwise idle behind an expensive point.
    ///
    /// Equal grid points (`MiningParams`' `Eq`) share one result;
    /// `results[i]` always corresponds to `points[i]`. Each distinct
    /// point's result is moved out of its group's superset when it is the
    /// group's last member, so a one-point sweep copies no CAP. Per-point
    /// reports carry the sweep's *shared* phase timings (each point paid
    /// them once, together) and zero cache counters — the sweep-wide cache
    /// counters live in [`SweepStats`]. The token is polled as described
    /// on [`Miner::mine_cancellable`]; an aborted sweep leaves at most
    /// content-keyed extraction states in the cache, which remain correct
    /// for any later mine.
    pub fn mine_sweep(
        dataset: &Dataset,
        points: &[MiningParams],
        extraction_cache: Option<&dyn EvolvingCache>,
        cancel: &CancelToken,
    ) -> Result<SweepOutput, MiningError> {
        for p in points {
            p.validate()?;
        }
        if dataset.timestamp_count() < 2 {
            return Err(MiningError::DatasetTooSmall(dataset.timestamp_count()));
        }
        if points.is_empty() {
            return Ok(SweepOutput {
                results: Vec::new(),
                stats: SweepStats::default(),
            });
        }

        // Grid planning: collapse equal points, then factor the distinct
        // ones into the classes each pipeline stage reads.
        let (firsts, point_of) = partition(points);
        let unique: Vec<&MiningParams> = firsts.iter().map(|&i| &points[i]).collect();
        let (class_firsts, class_of) = partition(unique.iter().map(|p| p.extraction()));
        let classes: Vec<Extraction> = class_firsts
            .iter()
            .map(|&u| unique[u].extraction())
            .collect();

        // Steps (1)+(2): one scheduler batch over class × series.
        let t0 = Instant::now();
        let series: Vec<&TimeSeries> = dataset.iter().map(|ss| ss.series).collect();
        let n_series = series.len();
        let tallies = ExtractionTallies::default();
        let items: Vec<(Extraction, &TimeSeries)> = classes
            .iter()
            .flat_map(|&class| series.iter().map(move |&s| (class, s)))
            .collect();
        cancel.check()?;
        let flat = extract_all(
            &items,
            dataset.append_bases(),
            extraction_cache,
            cancel,
            &tallies,
        )?;
        let attributes: Vec<AttributeId> = dataset.iter().map(|ss| ss.sensor.attribute).collect();
        let extraction_time = t0.elapsed();

        // Step (3): one proximity graph per distinct η.
        let t1 = Instant::now();
        let (graph_firsts, graph_of) = partition(unique.iter().map(|p| p.eta_km.to_bits()));
        let mut graphs: Vec<ProximityGraph> = Vec::with_capacity(graph_firsts.len());
        for &u in &graph_firsts {
            cancel.check()?;
            graphs.push(ProximityGraph::build(dataset, unique[u].eta_km));
        }
        let spatial_time = t1.elapsed();

        // Search groups: distinct points equal with ψ cleared, searched once
        // at the group minimum.
        struct SweepGroup {
            /// Representative parameters with ψ lowered to the group min.
            params: MiningParams,
            class: usize,
            graph: usize,
        }
        let (group_firsts, group_of) = partition(unique.iter().map(|&p| MiningParams {
            psi: 0,
            ..p.clone()
        }));
        let mut groups: Vec<SweepGroup> = group_firsts
            .iter()
            .map(|&u| SweepGroup {
                params: unique[u].clone(),
                class: class_of[u],
                graph: graph_of[u],
            })
            .collect();
        for (p, &gi) in unique.iter().zip(&group_of) {
            let g = &mut groups[gi].params;
            g.psi = g.psi.min(p.psi);
        }

        // Step (4): every group's work units in one globally cost-sorted
        // scheduler batch, each unit tagged with its group so the caps can
        // be routed back.
        cancel.check()?;
        let t2 = Instant::now();
        let ctxs: Vec<SearchContext<'_>> = groups
            .iter()
            .map(|g| SearchContext {
                evolving: &flat[g.class * n_series..(g.class + 1) * n_series],
                attributes: &attributes,
                graph: &graphs[g.graph],
                params: &g.params,
            })
            .collect();
        let mut units: Vec<(usize, usize, WorkUnit<'_>)> = Vec::new();
        for (gi, ctx) in ctxs.iter().enumerate() {
            for comp in ctx.graph.components_at_least(2) {
                if comp.len() >= SPLIT_COMPONENT_SIZE {
                    // The ESU subtree rooted at a seed only explores sensors
                    // beyond it, so cost a seed as the suffix cost of its
                    // (ascending-sorted) component: the lowest seed, which
                    // owns the largest subtree, ranks like the whole
                    // component and starts first.
                    let mut suffix = 0usize;
                    for &seed in comp.iter().rev() {
                        suffix += ctx.graph.degree(seed) + 1;
                        units.push((suffix, gi, WorkUnit::Seed(seed)));
                    }
                } else {
                    units.push((
                        ctx.graph.estimated_search_cost(comp),
                        gi,
                        WorkUnit::Component(comp),
                    ));
                }
            }
        }
        // Largest units first: the expensive subtrees start immediately and
        // the cheap tail backfills idle workers.
        units.sort_by_key(|u| std::cmp::Reverse(u.0));
        let words = dataset.timestamp_count().div_ceil(64);
        let work: usize = ctxs
            .iter()
            .flat_map(|ctx| ctx.graph.components_at_least(2))
            .map(|comp| comp.len() * words)
            .sum();
        let tagged: Vec<(usize, Cap)> = scheduler::run_units_cancellable(
            &units,
            scheduler::workers_for(work),
            cancel,
            || (SearchScratch::new(), Vec::new()),
            |&(_, gi, ref unit), (scratch, tmp), out| {
                tmp.clear();
                match *unit {
                    WorkUnit::Component(comp) => {
                        ctxs[gi].search_component_cancellable(comp, scratch, tmp, cancel)?
                    }
                    WorkUnit::Seed(seed) => {
                        ctxs[gi].search_seed_cancellable(seed, scratch, tmp, cancel)?
                    }
                }
                out.extend(tmp.drain(..).map(|c| (gi, c)));
                Ok(())
            },
        )?;
        let mut group_caps: Vec<Vec<Cap>> = (0..groups.len()).map(|_| Vec::new()).collect();
        for (gi, cap) in tagged {
            group_caps[gi].push(cap);
        }
        let search_time = t2.elapsed();

        // Delayed extension once per group at ψ_min.
        let mut group_delayed: Vec<Vec<DelayedCap>> = Vec::with_capacity(groups.len());
        for (gi, g) in groups.iter().enumerate() {
            group_delayed.push(if g.params.max_delay > 0 {
                mine_delayed(
                    ctxs[gi].evolving,
                    &attributes,
                    &graphs[g.graph],
                    &g.params,
                    cancel,
                )?
            } else {
                Vec::new()
            });
        }

        // Per-point results: the ψ-filter of the owning group's superset.
        let mut members_left = vec![0usize; groups.len()];
        for &gi in &group_of {
            members_left[gi] += 1;
        }
        let mut unique_results: Vec<MiningResult> = Vec::with_capacity(unique.len());
        for (ui, p) in unique.iter().enumerate() {
            let gi = group_of[ui];
            let g = &groups[gi];
            members_left[gi] -= 1;
            let last = members_left[gi] == 0;
            let caps =
                CapSet::from_caps(at_least(&mut group_caps[gi], last, |c| c.support >= p.psi));
            let delayed = at_least(&mut group_delayed[gi], last, |d| d.support >= p.psi);
            let class_sets = &flat[g.class * n_series..(g.class + 1) * n_series];
            let graph = &graphs[g.graph];
            let report = MiningReport {
                extraction_time,
                spatial_time,
                search_time,
                extraction_cache_hits: 0,
                extraction_prefix_hits: 0,
                extraction_trim_hits: 0,
                extraction_trim_fallbacks: 0,
                extraction_rescans: 0,
                evolving_events: class_sets.iter().map(|e| e.total()).sum(),
                proximity_edges: graph.edge_count(),
                searchable_components: graph.components_at_least(2).count(),
                largest_component: graph
                    .components()
                    .iter()
                    .map(|c| c.len())
                    .max()
                    .unwrap_or(0),
                cap_count: caps.len(),
            };
            unique_results.push(MiningResult {
                caps,
                delayed,
                report,
            });
        }
        // Request order: the distinct order itself unless a point repeats.
        let results = if unique.len() == points.len() {
            unique_results
        } else {
            point_of
                .iter()
                .map(|&ui| unique_results[ui].clone())
                .collect()
        };
        Ok(SweepOutput {
            results,
            stats: SweepStats {
                requested_points: points.len(),
                unique_points: unique.len(),
                extraction_classes: classes.len(),
                graphs_built: graphs.len(),
                search_groups: groups.len(),
                extraction_cache_hits: tallies.cache_hits.into_inner(),
                extraction_prefix_hits: tallies.prefix_hits.into_inner(),
                extraction_trim_hits: tallies.trim_hits.into_inner(),
                extraction_trim_fallbacks: tallies.trim_fallbacks.into_inner(),
                extraction_rescans: tallies.rescans.into_inner(),
            },
        })
    }
}

/// Partitions `keys` into classes of equal keys, numbered in first-seen
/// order: returns the index of each class's first key and the class of
/// every key.
fn partition<K: Eq + Hash>(keys: impl IntoIterator<Item = K>) -> (Vec<usize>, Vec<usize>) {
    let mut firsts = Vec::new();
    let mut index: HashMap<K, usize> = HashMap::new();
    let class_of = keys
        .into_iter()
        .enumerate()
        .map(|(i, key)| {
            *index.entry(key).or_insert_with(|| {
                firsts.push(i);
                firsts.len() - 1
            })
        })
        .collect();
    (firsts, class_of)
}

/// The cache keys of one series under one extraction.
struct SeriesKeys {
    /// The extraction every key carries.
    extraction: Extraction,
    /// Fingerprints at each recorded pre-append length below the series
    /// length, then at the length itself.
    prints: Vec<PrefixFingerprint>,
    /// Content key of the whole series.
    key: ExtractionKey,
    /// Origin-anchored key of the whole series.
    origin_key: ExtractionKey,
    /// Sibling key of the whole series, when the extraction segments.
    sibling_key: Option<ExtractionKey>,
}

impl SeriesKeys {
    /// The series' prefix fingerprints (block digests folded, only partial
    /// groups hashed) give the full-content key, the checkpoint at every
    /// recorded pre-append length, the origin-anchored checkpoints at the
    /// same positions and, when the extraction segments, the sibling key.
    fn new(extraction: Extraction, s: &TimeSeries, append_bases: &[usize]) -> Self {
        let n = s.len();
        let mut ends: Vec<usize> = append_bases
            .iter()
            .copied()
            .filter(|&b| b > 0 && b < n)
            .collect();
        ends.push(n);
        let prints = s.prefix_fingerprints(&ends);
        // One fingerprint per end, so the last one is the whole series'.
        let whole = prints[prints.len() - 1];
        SeriesKeys {
            extraction,
            key: ExtractionKey::from_fingerprint(whole.content, extraction),
            origin_key: ExtractionKey::from_origin_fingerprint(whole.origin, extraction),
            sibling_key: extraction
                .tolerance()
                .map(|_| ExtractionKey::sibling(whole.content, extraction)),
            prints,
        }
    }

    /// The cache probe of steps (1)+(2) for one series: full content, then
    /// a content prefix to resume over the appended tail, then an origin
    /// state to derive the trimmed window from, then a sibling state to
    /// rescan at this ε.
    fn probe(&self, cache: &dyn EvolvingCache, tallies: &ExtractionTallies) -> Probe {
        if let Some(state) = cache.get(&self.key) {
            tallies.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Probe::Hit(state.sets.clone());
        }
        Probe::Extract(if let Some(prev) = self.lookup_prefix_state(cache) {
            Plan::Resume(prev)
        } else if let Some((origin, at)) = self.lookup_origin_state(cache) {
            Plan::Trim { origin, at }
        } else if let Some(sibling) = self.lookup_sibling_state(cache) {
            Plan::Rescan(sibling)
        } else {
            Plan::Cold
        })
    }

    /// Probes the extraction cache with prefix-fingerprint checkpoints below
    /// the full length, newest first, for a state that can seed a
    /// tail-resume.
    fn lookup_prefix_state(&self, cache: &dyn EvolvingCache) -> Option<Arc<ExtractionState>> {
        let prefixes = &self.prints[..self.prints.len() - 1];
        for p in prefixes.iter().rev() {
            let key = ExtractionKey::from_fingerprint(p.content, self.extraction);
            if let Some(state) = cache.get_prefix(&key) {
                if state.len() == p.end {
                    return Some(state);
                }
            }
        }
        None
    }

    /// Probes the extraction cache with origin-anchored checkpoints, newest
    /// first, for the state of this series' untrimmed origin: one longer
    /// than the checkpoint's window position `at`, so `at` values of the
    /// window end where its last `origin.len() - at` were dropped.
    fn lookup_origin_state(
        &self,
        cache: &dyn EvolvingCache,
    ) -> Option<(Arc<ExtractionState>, usize)> {
        for p in self.prints.iter().rev() {
            let key = ExtractionKey::from_origin_fingerprint(p.origin, self.extraction);
            let Some(origin) = cache.get_prefix(&key) else {
                continue;
            };
            // Equal length means identical content to our prefix — the
            // content-keyed probes already cover that; shorter cannot seed
            // a derivation.
            if origin.len() > p.end {
                return Some((origin, p.end));
            }
        }
        None
    }

    /// Probes the extraction cache with the sibling key for a state of the
    /// same content and tolerance at another ε, whose segmentation can
    /// seed a rescan.
    fn lookup_sibling_state(&self, cache: &dyn EvolvingCache) -> Option<Arc<ExtractionState>> {
        cache.get_sibling(self.sibling_key.as_ref()?)
    }

    /// Runs `plan` for the series and publishes the fresh state under its
    /// content key and its origin-anchored key (full history, salted
    /// domain), so later deeper-trimmed windows of this stream can derive
    /// from it. A state segmented from scratch also goes under the sibling
    /// key, for extractions of the series at other ε. One `Arc` goes under
    /// every key: the cache shares the state, it never copies it.
    fn extract_and_publish(
        &self,
        s: &TimeSeries,
        plan: &Plan,
        cache: &dyn EvolvingCache,
        tallies: &ExtractionTallies,
    ) -> EvolvingSets {
        let state = Arc::new(run_plan(self.extraction, s, plan, tallies));
        cache.put(self.key, Arc::clone(&state));
        cache.put(self.origin_key, Arc::clone(&state));
        if let (Plan::Cold, Some(sibling_key)) = (plan, self.sibling_key) {
            cache.put(sibling_key, Arc::clone(&state));
        }
        state.sets.clone()
    }
}

/// Runs what the probe left: a tail resume, a trim derivation (a
/// checkpoint below the full length yields a prefix state which is then
/// resumed over the appended tail — the trim-then-append case), a rescan
/// over a sibling's segmentation or a cold extraction. A
/// found-but-underivable origin counts a fallback and extracts cold.
fn run_plan(
    extraction: Extraction,
    s: &TimeSeries,
    plan: &Plan,
    tallies: &ExtractionTallies,
) -> ExtractionState {
    match plan {
        Plan::Cold => extract_state(s, extraction),
        Plan::Resume(prev) => {
            tallies.prefix_hits.fetch_add(1, Ordering::Relaxed);
            extract_resume(s, extraction, prev)
        }
        Plan::Trim { origin, at } => {
            let dropped = origin.len() - at;
            let derived = if *at == s.len() {
                derive_trimmed(s, extraction, origin, dropped)
            } else {
                derive_trimmed(&s.window(0, *at), extraction, origin, dropped)
                    .map(|st| extract_resume(s, extraction, &st))
            };
            match derived {
                Some(state) => {
                    tallies.trim_hits.fetch_add(1, Ordering::Relaxed);
                    state
                }
                None => {
                    tallies.trim_fallbacks.fetch_add(1, Ordering::Relaxed);
                    extract_state(s, extraction)
                }
            }
        }
        Plan::Rescan(sibling) => {
            tallies.rescans.fetch_add(1, Ordering::Relaxed);
            extract_rescan(s, extraction, sibling)
        }
    }
}

/// What the cache probe left to do for one series.
enum Probe {
    /// Served whole from the cache.
    Hit(EvolvingSets),
    /// Left to extract.
    Extract(Plan),
}

/// How a series the cache did not serve whole gets extracted.
enum Plan {
    /// From scratch.
    Cold,
    /// Resumed over the appended tail from a cached prefix state.
    Resume(Arc<ExtractionState>),
    /// Derived from the cached state of the untrimmed origin, whose first
    /// `at` surviving values end the window prefix it covers.
    Trim {
        origin: Arc<ExtractionState>,
        at: usize,
    },
    /// Reconstructed and rescanned from the cached segmentation of the
    /// same content at another ε.
    Rescan(Arc<ExtractionState>),
}

impl Plan {
    /// Whether the plan costs O(series) rather than O(tail).
    fn is_whole_series(&self) -> bool {
        !matches!(self, Plan::Resume(_))
    }
}

/// Steps (1)+(2) for every `(extraction, series)` item — the extraction
/// phase of [`Miner::mine_sweep`], one extraction per class. The cache is
/// probed for every item first; the items left then run on
/// [`scheduler::workers_for`] workers of their estimated work, counting
/// only series that need a cold extraction, a trim derivation or a rescan
/// (a resume is O(tail)). Without a cache every series is
/// extracted cold and nothing is retained.
fn extract_all(
    items: &[(Extraction, &TimeSeries)],
    append_bases: &[usize],
    cache: Option<&dyn EvolvingCache>,
    cancel: &CancelToken,
    tallies: &ExtractionTallies,
) -> Result<Vec<EvolvingSets>, MiningError> {
    let grid_words = |&(_, s): &(Extraction, &TimeSeries)| s.len().div_ceil(64);
    let Some(cache) = cache else {
        let work = items.iter().map(grid_words).sum();
        return scheduler::parallel_map_cancellable(
            items,
            scheduler::workers_for(work),
            cancel,
            |&(x, s)| Ok(extract_state(s, x).sets),
        );
    };
    let keys: Vec<SeriesKeys> = items
        .iter()
        .map(|&(x, s)| SeriesKeys::new(x, s, append_bases))
        .collect();
    // Probe in item order. An item repeating the content of one still
    // pending in this batch (`None`) is probed only after the batch has
    // published that state — where a serial extraction would have probed
    // it — so it hits instead of extracting the same content twice.
    let mut pending_keys: HashSet<ExtractionKey> = HashSet::new();
    let probes: Vec<Option<Probe>> = keys
        .iter()
        .map(|k| {
            if pending_keys.contains(&k.key) {
                return None;
            }
            let probe = k.probe(cache, tallies);
            if matches!(probe, Probe::Extract(_)) {
                pending_keys.insert(k.key);
            }
            Some(probe)
        })
        .collect();
    let pending: Vec<(usize, &Plan)> = probes
        .iter()
        .enumerate()
        .filter_map(|(i, probe)| match probe {
            Some(Probe::Extract(plan)) => Some((i, plan)),
            _ => None,
        })
        .collect();
    let work: usize = pending
        .iter()
        .filter(|(_, plan)| plan.is_whole_series())
        .map(|&(i, _)| grid_words(&items[i]))
        .sum();
    let mut extracted = scheduler::parallel_map_cancellable(
        &pending,
        scheduler::workers_for(work),
        cancel,
        |&(i, plan)| Ok(keys[i].extract_and_publish(items[i].1, plan, cache, tallies)),
    )?
    .into_iter();
    let mut out = Vec::with_capacity(items.len());
    for ((probe, k), &(_, s)) in probes.into_iter().zip(&keys).zip(items) {
        out.push(match probe {
            Some(Probe::Hit(sets)) => sets,
            Some(Probe::Extract(_)) => extracted.next().unwrap_or_else(|| EvolvingSets::new(0)),
            None => match k.probe(cache, tallies) {
                Probe::Hit(sets) => sets,
                // Evicted in the meantime: extract it here.
                Probe::Extract(plan) => k.extract_and_publish(s, &plan, cache, tallies),
            },
        });
    }
    Ok(out)
}

/// Components at or above this many sensors are split into one work unit
/// per ESU seed, so the subtrees of a single giant component can be mined
/// by many workers concurrently. ESU uniqueness makes the per-seed searches
/// independent: their union is exactly the per-component result.
const SPLIT_COMPONENT_SIZE: usize = 32;

/// One claimable unit of CAP-search work.
enum WorkUnit<'c> {
    /// A whole (small) spatially connected component.
    Component(&'c [SensorIndex]),
    /// A single ESU seed of an oversized component.
    Seed(SensorIndex),
}

/// The items of a search group's ψ_min superset that `keep` accepts,
/// moved out of the superset for the group's `last` member and copied for
/// the others.
fn at_least<T: Clone>(superset: &mut Vec<T>, last: bool, keep: impl Fn(&T) -> bool) -> Vec<T> {
    if last {
        let mut own = std::mem::take(superset);
        own.retain(keep);
        own
    } else {
        superset.iter().filter(|x| keep(x)).cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miscela_model::{
        DatasetBuilder, Duration as ModelDuration, GeoPoint, TimeGrid, TimeSeries, Timestamp,
    };

    /// Builds a dataset with `clusters` spatial clusters; within each
    /// cluster, sensors 0 and 1 co-evolve (different attributes) and sensor 2
    /// is uncorrelated noise.
    fn clustered_dataset(clusters: usize, n: usize) -> Dataset {
        let mut b = DatasetBuilder::new("clustered");
        let start = Timestamp::parse("2016-03-01 00:00:00").unwrap();
        b.set_grid(TimeGrid::new(start, ModelDuration::hours(1), n).unwrap());
        let saw = |amp: f64, period: usize| -> TimeSeries {
            TimeSeries::from_values(
                (0..n)
                    .map(|i| {
                        let phase = i % period;
                        if phase < period / 2 {
                            amp * phase as f64
                        } else {
                            amp * (period - phase) as f64
                        }
                    })
                    .collect(),
            )
        };
        let noise = |seed: usize| -> TimeSeries {
            TimeSeries::from_values(
                (0..n)
                    .map(|i| (((i * 2654435761 + seed * 97) % 13) as f64) * 0.01)
                    .collect(),
            )
        };
        for c in 0..clusters {
            let base_lat = 43.4 + 0.1 * c as f64;
            let temp = b
                .add_sensor(
                    format!("t{c}"),
                    "temperature",
                    GeoPoint::new_unchecked(base_lat, -3.80),
                )
                .unwrap();
            let traffic = b
                .add_sensor(
                    format!("v{c}"),
                    "traffic",
                    GeoPoint::new_unchecked(base_lat + 0.001, -3.80),
                )
                .unwrap();
            let hum = b
                .add_sensor(
                    format!("h{c}"),
                    "humidity",
                    GeoPoint::new_unchecked(base_lat + 0.002, -3.80),
                )
                .unwrap();
            b.set_series(temp, saw(1.0, 12)).unwrap();
            b.set_series(traffic, saw(20.0, 12)).unwrap();
            b.set_series(hum, noise(c)).unwrap();
        }
        b.build().unwrap()
    }

    fn params() -> MiningParams {
        MiningParams::new()
            .with_epsilon(0.5)
            .with_eta_km(1.0)
            .with_psi(10)
            .with_mu(3)
            .with_segmentation(false)
    }

    /// The sequential reference the planner and scheduler are checked
    /// against: steps (1)–(4) and the delayed extension for one point, in
    /// order, on the calling thread, with no cache, grid planning or work
    /// units. Its report fills the counters the oracles compare.
    fn sequential_mine(ds: &Dataset, p: &MiningParams) -> MiningResult {
        let evolving: Vec<EvolvingSets> = ds
            .iter()
            .map(|ss| extract_state(ss.series, p.extraction()).sets)
            .collect();
        let attributes: Vec<AttributeId> = ds.iter().map(|ss| ss.sensor.attribute).collect();
        let graph = ProximityGraph::build(ds, p.eta_km);
        let ctx = SearchContext {
            evolving: &evolving,
            attributes: &attributes,
            graph: &graph,
            params: p,
        };
        let mut caps = Vec::new();
        for comp in graph.components_at_least(2) {
            caps.extend(ctx.search_component(comp));
        }
        let caps = CapSet::from_caps(caps);
        let delayed = if p.max_delay > 0 {
            mine_delayed(&evolving, &attributes, &graph, p, &CancelToken::never()).unwrap()
        } else {
            Vec::new()
        };
        MiningResult {
            report: MiningReport {
                evolving_events: evolving.iter().map(|e| e.total()).sum(),
                proximity_edges: graph.edge_count(),
                cap_count: caps.len(),
                ..MiningReport::default()
            },
            caps,
            delayed,
        }
    }

    #[test]
    fn rejects_invalid_params_and_tiny_datasets() {
        assert!(Miner::new(MiningParams::new().with_psi(0)).is_err());
        let miner = Miner::new(params()).unwrap();
        let mut b = DatasetBuilder::new("tiny");
        b.set_grid(TimeGrid::new(Timestamp::EPOCH, ModelDuration::hours(1), 1).unwrap());
        b.add_sensor("s", "temperature", GeoPoint::new_unchecked(0.0, 0.0))
            .unwrap();
        let ds = b.build().unwrap();
        assert!(matches!(
            miner.mine(&ds),
            Err(MiningError::DatasetTooSmall(1))
        ));
    }

    #[test]
    fn finds_planted_caps_per_cluster() {
        let ds = clustered_dataset(3, 240);
        let miner = Miner::new(params()).unwrap();
        let result = miner.mine(&ds).unwrap();
        // Each cluster contributes (at least) the temperature/traffic pair.
        assert!(result.caps.len() >= 3, "found {}", result.caps.summary());
        let temp = ds.attributes().id_of("temperature").unwrap();
        let traffic = ds.attributes().id_of("traffic").unwrap();
        let pairs = result.caps.with_attributes(&[temp, traffic]);
        assert!(pairs.len() >= 3);
        // The humidity noise sensors never co-evolve strongly enough.
        let hum = ds.attributes().id_of("humidity").unwrap();
        assert_eq!(result.caps.with_attribute(hum).count(), 0);
        // Report is filled in.
        assert_eq!(result.report.cap_count, result.caps.len());
        assert_eq!(result.report.searchable_components, 3);
        assert_eq!(result.report.largest_component, 3);
        assert!(result.report.proximity_edges >= 3);
        assert!(result.report.evolving_events > 0);
        assert!(result.report.total_time() >= result.report.search_time);
        // No delayed patterns requested.
        assert!(result.delayed.is_empty());
    }

    #[test]
    fn delayed_patterns_returned_when_requested() {
        let ds = clustered_dataset(1, 240);
        let miner = Miner::new(params().with_max_delay(2).with_psi(5)).unwrap();
        let result = miner.mine(&ds).unwrap();
        assert!(!result.delayed.is_empty());
        // The simultaneous temperature/traffic pair should be among them with
        // delay 0.
        assert!(result.delayed.iter().any(|d| d.is_simultaneous()));
    }

    #[test]
    fn segmentation_reduces_or_preserves_cap_count_on_noisy_data() {
        // Noisy sensors: without segmentation the noise creates spurious
        // co-evolution; with segmentation the count must not increase.
        let n = 300;
        let mut b = DatasetBuilder::new("noisy");
        b.set_grid(TimeGrid::new(Timestamp::EPOCH, ModelDuration::hours(1), n).unwrap());
        let noisy = |seed: u64| -> TimeSeries {
            let mut state = seed;
            TimeSeries::from_values(
                (0..n)
                    .map(|i| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let noise = ((state >> 33) % 100) as f64 / 100.0 - 0.5;
                        (i as f64 * 0.01) + noise
                    })
                    .collect(),
            )
        };
        for (i, attr) in ["temperature", "traffic", "light", "humidity"]
            .iter()
            .enumerate()
        {
            let idx = b
                .add_sensor(
                    format!("s{i}"),
                    attr,
                    GeoPoint::new_unchecked(43.46 + 0.0005 * i as f64, -3.80),
                )
                .unwrap();
            b.set_series(idx, noisy(i as u64 + 1)).unwrap();
        }
        let ds = b.build().unwrap();
        let base = params().with_epsilon(0.3).with_psi(5);
        let without = Miner::new(base.clone().with_segmentation(false))
            .unwrap()
            .mine(&ds)
            .unwrap();
        let with = Miner::new(base.with_segmentation(true).with_segmentation_error(0.05))
            .unwrap()
            .mine(&ds)
            .unwrap();
        assert!(
            with.caps.len() <= without.caps.len(),
            "segmentation increased CAPs: {} -> {}",
            without.caps.len(),
            with.caps.len()
        );
    }

    #[test]
    fn work_stealing_split_matches_sequential_on_giant_component() {
        // One 60-sensor chain component — above SPLIT_COMPONENT_SIZE, so the
        // scheduler decomposes it into per-seed work units. The result must
        // be identical to the sequential per-component search, and stable
        // across runs regardless of thread timing. The fixture is shared
        // with the `search_scaling` bench so both exercise the same shape.
        let ds = miscela_datagen::chain_component(60, 240);
        let p = params().with_psi(20).with_max_sensors(Some(3));
        let miner = Miner::new(p.clone()).unwrap();
        let result = miner.mine(&ds).unwrap();
        assert_eq!(result.report.searchable_components, 1);
        assert!(
            result.report.largest_component >= SPLIT_COMPONENT_SIZE,
            "fixture must exercise the per-seed split path"
        );
        assert!(!result.caps.is_empty());
        // Deterministic across runs.
        assert_eq!(miner.mine(&ds).unwrap().caps, result.caps);
        // Identical to the sequential per-component search.
        assert_eq!(sequential_mine(&ds, &p).caps, result.caps);
    }

    #[test]
    fn mine_with_cache_is_equivalent_and_reports_hits() {
        use std::sync::Mutex;

        #[derive(Default)]
        struct MapCache(Mutex<HashMap<ExtractionKey, Arc<ExtractionState>>>);
        impl EvolvingCache for MapCache {
            fn get(&self, key: &ExtractionKey) -> Option<Arc<ExtractionState>> {
                self.0.lock().unwrap().get(key).cloned()
            }
            fn get_prefix(&self, _key: &ExtractionKey) -> Option<Arc<ExtractionState>> {
                None
            }
            fn get_sibling(&self, _key: &ExtractionKey) -> Option<Arc<ExtractionState>> {
                None
            }
            fn put(&self, key: ExtractionKey, state: Arc<ExtractionState>) {
                self.0.lock().unwrap().insert(key, state);
            }
        }

        let ds = clustered_dataset(2, 240);
        let cache = MapCache::default();
        let miner = Miner::new(params().with_segmentation(true)).unwrap();
        let cold = miner.mine_with_cache(&ds, Some(&cache)).unwrap();
        // Content-keyed lookups dedupe even within one run: the two
        // clusters share identical temperature and traffic waveforms, so
        // the second cluster's copies hit the entries the first just put.
        assert_eq!(cold.report.extraction_cache_hits, 2);
        let warm = miner.mine_with_cache(&ds, Some(&cache)).unwrap();
        assert_eq!(warm.report.extraction_cache_hits, ds.sensor_count());
        let uncached = miner.mine(&ds).unwrap();
        assert_eq!(uncached.report.extraction_cache_hits, 0);
        assert_eq!(cold.caps, uncached.caps);
        assert_eq!(warm.caps, uncached.caps);
        // A search-side parameter tweak reuses every cached extraction.
        let tweaked = Miner::new(params().with_segmentation(true).with_psi(5))
            .unwrap()
            .mine_with_cache(&ds, Some(&cache))
            .unwrap();
        assert_eq!(tweaked.report.extraction_cache_hits, ds.sensor_count());
    }

    /// A minimal state-retaining extraction cache for the append/trim
    /// equivalence tests.
    #[derive(Default)]
    struct StateCache(std::sync::Mutex<HashMap<ExtractionKey, Arc<ExtractionState>>>);

    impl EvolvingCache for StateCache {
        fn get(&self, key: &ExtractionKey) -> Option<Arc<ExtractionState>> {
            self.0.lock().unwrap().get(key).cloned()
        }
        fn get_prefix(&self, key: &ExtractionKey) -> Option<Arc<ExtractionState>> {
            self.get(key)
        }
        fn get_sibling(&self, key: &ExtractionKey) -> Option<Arc<ExtractionState>> {
            self.get(key)
        }
        fn put(&self, key: ExtractionKey, state: Arc<ExtractionState>) {
            self.0.lock().unwrap().insert(key, state);
        }
    }

    #[test]
    fn append_resume_mines_identical_caps_and_reports_prefix_hits() {
        use miscela_model::AppendRow;

        // The clustered fixture's series are pure functions of the index,
        // so the 200-timestamp build is exactly the prefix of the
        // 240-timestamp build — appending the tail rows must reproduce the
        // full dataset's content.
        let full = clustered_dataset(2, 240);
        let mut appended = clustered_dataset(2, 200);
        let mut rows: Vec<AppendRow> = Vec::new();
        for ss in full.iter() {
            let attribute = full.attributes().name_of(ss.sensor.attribute).to_string();
            for i in 200..240 {
                if let Some(v) = ss.series.get(i) {
                    rows.push(AppendRow {
                        sensor: ss.sensor.id.clone(),
                        attribute: attribute.clone(),
                        time: full.grid().at(i).unwrap(),
                        value: Some(v),
                    });
                }
            }
        }
        let stats = appended.append_rows(&rows).unwrap();
        assert_eq!(stats.new_timestamps, 40);
        assert_eq!(appended.append_bases(), &[200]);

        for p in [
            params(),
            params()
                .with_segmentation(true)
                .with_segmentation_error(0.05),
        ] {
            let cache = StateCache::default();
            let miner = Miner::new(p).unwrap();
            let before = miner
                .mine_with_cache(&clustered_dataset(2, 200), Some(&cache))
                .unwrap();
            assert_eq!(before.report.extraction_prefix_hits, 0);
            let warm = miner.mine_with_cache(&appended, Some(&cache)).unwrap();
            // Clusters share the temperature/traffic waveforms, so the
            // second cluster's copies hit the full-content entries the
            // first cluster just stored; every other sensor resumes from
            // its own prefix state.
            assert_eq!(
                warm.report.extraction_cache_hits + warm.report.extraction_prefix_hits,
                appended.sensor_count()
            );
            assert!(warm.report.extraction_prefix_hits >= 4);
            // Equivalence oracle: identical CAPs to a cold full mine of
            // the equivalent cold-built dataset.
            let cold = miner.mine(&full).unwrap();
            assert_eq!(warm.caps, cold.caps);
            assert_eq!(miner.mine(&appended).unwrap().caps, cold.caps);
            // Re-mining the appended dataset is now a pure content hit.
            let again = miner.mine_with_cache(&appended, Some(&cache)).unwrap();
            assert_eq!(again.report.extraction_cache_hits, appended.sensor_count());
            assert_eq!(again.caps, cold.caps);
        }
    }

    #[test]
    fn new_epsilon_rescans_the_cached_segmentation() {
        // One cluster: three distinct series, long enough for sealed
        // segment runs at these tolerances.
        let ds = clustered_dataset(1, 1600);
        let at = |eps: f64, tolerance: f64| {
            params()
                .with_epsilon(eps)
                .with_psi(5)
                .with_segmentation(true)
                .with_segmentation_error(tolerance)
        };
        let cache = StateCache::default();
        let mine = |p: &MiningParams| {
            let warm = Miner::new(p.clone())
                .unwrap()
                .mine_with_cache(&ds, Some(&cache))
                .unwrap();
            assert_eq!(
                warm.caps,
                Miner::new(p.clone()).unwrap().mine(&ds).unwrap().caps,
                "{} diverged from a cache-less mine",
                p.signature()
            );
            warm.report
        };
        assert_eq!(mine(&at(0.5, 0.05)).extraction_rescans, 0);
        // Each new ε at the cached tolerance rescans every series; a new
        // tolerance segments from scratch.
        for (eps, tolerance, rescans) in [
            (0.0, 0.05, ds.sensor_count()),
            (2.0, 0.05, ds.sensor_count()),
            (0.5, 0.1, 0),
        ] {
            let report = mine(&at(eps, tolerance));
            assert_eq!(
                report.extraction_rescans, rescans,
                "ε {eps}, tol {tolerance}"
            );
            assert_eq!(report.extraction_cache_hits, 0);
            assert_eq!(report.extraction_prefix_hits, 0);
        }
        // The retuned states share every sealed segment run of the state
        // they were rescanned from.
        for ss in ds.iter() {
            let state = |p: MiningParams| {
                let key = ExtractionKey::from_fingerprint(ss.series.fingerprint(), p.extraction());
                cache.get(&key).expect("cached state")
            };
            let first = state(at(0.5, 0.05));
            let first = first.segmentation.as_ref().expect("segmented");
            assert!(first.sealed_runs() >= 1, "fixture must seal a segment run");
            for eps in [0.0, 2.0] {
                let retuned = state(at(eps, 0.05));
                let retuned = retuned.segmentation.as_ref().expect("segmented");
                assert_eq!(retuned.shares_runs_with(first), first.sealed_runs());
            }
        }
    }

    #[test]
    fn append_trim_interleavings_mine_identical_to_cold_window() {
        use miscela_model::{AppendRow, RetentionPolicy, SERIES_BLOCK_LEN};

        // Source waveform long enough to feed every append; the working
        // dataset streams through a window of it under appends and
        // block-granular trims. After every operation, mining the shared
        // (trimmed, resumed) storage with a warm cache must be
        // byte-identical to cold-mining a freshly re-chunked copy of the
        // retained window.
        let source = clustered_dataset(2, 3 * SERIES_BLOCK_LEN + 200);
        let append_rows = |from_abs: usize, to_abs: usize| -> Vec<AppendRow> {
            let mut rows = Vec::new();
            for ss in source.iter() {
                let attribute = source.attributes().name_of(ss.sensor.attribute).to_string();
                for abs in from_abs..to_abs {
                    rows.push(AppendRow {
                        sensor: ss.sensor.id.clone(),
                        attribute: attribute.clone(),
                        time: source.grid().at(abs).expect("abs on source grid"),
                        value: ss.series.get(abs),
                    });
                }
            }
            rows
        };

        for p in [
            params(),
            params()
                .with_segmentation(true)
                .with_segmentation_error(0.05),
        ] {
            let x = p.extraction();
            let segmenting = p.segmentation;
            let miner = Miner::new(p).unwrap();
            let cache = StateCache::default();
            let mut ds = source
                .slice_time(
                    source.grid().start(),
                    source.grid().at(SERIES_BLOCK_LEN + 60).unwrap(),
                )
                .unwrap();
            miner.mine_with_cache(&ds, Some(&cache)).unwrap();

            // (append k) and (trim keep_last w) interleavings; windows are
            // chosen so trims actually drop blocks.
            let ops: [(bool, usize); 6] = [
                (true, 40),
                (false, SERIES_BLOCK_LEN + 20),
                (true, 30),
                (true, SERIES_BLOCK_LEN),
                (false, SERIES_BLOCK_LEN / 2),
                (true, 12),
            ];
            for &(is_append, k) in &ops {
                let trimmed_before = ds.trimmed();
                if is_append {
                    let from = ds.trimmed() + ds.timestamp_count();
                    let rows = append_rows(from, from + k);
                    ds.append_rows(&rows).unwrap();
                } else {
                    ds.set_retention(RetentionPolicy::keep_last(k));
                    ds.trim_expired();
                    ds.set_retention(RetentionPolicy::unbounded());
                }
                let warm = miner.mine_with_cache(&ds, Some(&cache)).unwrap();
                // The fixture's value ranges recur in every retained
                // window, so the trim derivation must never fall back to a
                // cold re-extraction...
                assert_eq!(
                    warm.report.extraction_trim_fallbacks, 0,
                    "append={is_append} k={k} fell back"
                );
                // ...and a window whose front was actually dropped must be
                // served by it (block-granular retention may leave a small
                // keep-target untrimmed).
                if ds.trimmed() > trimmed_before {
                    assert!(
                        warm.report.extraction_trim_hits > 0,
                        "trim to {k} derived no extraction from origin states"
                    );
                }
                // Cold twin: the same retained window, re-chunked from
                // zero with no lineage and no cache.
                let twin = ds
                    .slice_time(ds.grid().start(), ds.grid().range().end)
                    .unwrap();
                assert_eq!(twin.timestamp_count(), ds.timestamp_count());
                let cold = miner.mine(&twin).unwrap();
                assert_eq!(
                    warm.caps, cold.caps,
                    "append={is_append} k={k} diverged from the cold window"
                );
                // The cache-less path over the shared storage agrees too.
                assert_eq!(miner.mine(&ds).unwrap().caps, cold.caps);
                // Only cold extractions publish under the sibling key:
                // resumed and trim-derived states never do.
                let r = &warm.report;
                let cold_extractions = ds.sensor_count()
                    - r.extraction_cache_hits
                    - r.extraction_prefix_hits
                    - r.extraction_trim_hits
                    - r.extraction_trim_fallbacks
                    - r.extraction_rescans;
                let published: HashSet<ExtractionKey> = ds
                    .iter()
                    .map(|ss| ExtractionKey::sibling(ss.series.fingerprint(), x))
                    .filter(|key| cache.get(key).is_some())
                    .collect();
                assert_eq!(
                    published.len(),
                    if segmenting { cold_extractions } else { 0 },
                    "append={is_append} k={k} published a sibling for a derived state"
                );
            }

            // Trim *and* append between two mines: the origin probe lands on
            // a pre-append checkpoint, derives the prefix state, and resumes
            // it over the appended tail. Grow the window past a block
            // boundary first so the trim has a sealed block to drop.
            let from = ds.trimmed() + ds.timestamp_count();
            ds.append_rows(&append_rows(from, from + SERIES_BLOCK_LEN))
                .unwrap();
            miner.mine_with_cache(&ds, Some(&cache)).unwrap();
            let trimmed_before = ds.trimmed();
            ds.set_retention(RetentionPolicy::keep_last(SERIES_BLOCK_LEN / 2));
            ds.trim_expired();
            ds.set_retention(RetentionPolicy::unbounded());
            assert!(
                ds.trimmed() > trimmed_before,
                "combined scenario must actually drop a block"
            );
            let from = ds.trimmed() + ds.timestamp_count();
            ds.append_rows(&append_rows(from, from + 25)).unwrap();
            let warm = miner.mine_with_cache(&ds, Some(&cache)).unwrap();
            assert_eq!(warm.report.extraction_trim_fallbacks, 0);
            assert!(
                warm.report.extraction_trim_hits > 0,
                "combined trim+append derived no extraction from origin states"
            );
            let twin = ds
                .slice_time(ds.grid().start(), ds.grid().range().end)
                .unwrap();
            assert_eq!(warm.caps, miner.mine(&twin).unwrap().caps);
        }
    }

    #[test]
    fn cancelled_and_expired_mines_return_typed_errors() {
        let ds = clustered_dataset(2, 240);
        let miner = Miner::new(params()).unwrap();
        let cache = StateCache::default();
        let token = CancelToken::new();
        token.cancel();
        assert_eq!(
            miner
                .mine_cancellable(&ds, Some(&cache), &token)
                .unwrap_err(),
            MiningError::Cancelled
        );
        let expired = CancelToken::new().with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(
            miner.mine_cancellable(&ds, None, &expired).unwrap_err(),
            MiningError::DeadlineExceeded
        );
    }

    #[test]
    fn mine_cancelled_mid_extraction_leaves_cache_consistent() {
        // A cache wrapper that fires the cancel token from inside the N-th
        // extraction-state put: the mine deterministically aborts at the next
        // unit boundary with the cache only partially populated.
        struct CancellingCache {
            inner: StateCache,
            token: CancelToken,
            cancel_after: usize,
            puts: AtomicUsize,
        }
        impl EvolvingCache for CancellingCache {
            fn get(&self, key: &ExtractionKey) -> Option<Arc<ExtractionState>> {
                self.inner.get(key)
            }
            fn get_prefix(&self, key: &ExtractionKey) -> Option<Arc<ExtractionState>> {
                self.inner.get_prefix(key)
            }
            fn get_sibling(&self, key: &ExtractionKey) -> Option<Arc<ExtractionState>> {
                self.inner.get_sibling(key)
            }
            fn put(&self, key: ExtractionKey, state: Arc<ExtractionState>) {
                if self.puts.fetch_add(1, Ordering::Relaxed) + 1 == self.cancel_after {
                    self.token.cancel();
                }
                self.inner.put(key, state);
            }
        }

        let ds = clustered_dataset(2, 240);
        let miner = Miner::new(params()).unwrap();
        let baseline = miner.mine(&ds).unwrap();
        let token = CancelToken::new();
        let cache = CancellingCache {
            inner: StateCache::default(),
            token: token.clone(),
            cancel_after: 2,
            puts: AtomicUsize::new(0),
        };
        assert_eq!(
            miner
                .mine_cancellable(&ds, Some(&cache), &token)
                .unwrap_err(),
            MiningError::Cancelled
        );
        // The abort left some extraction states behind; they are keyed by
        // content + parameters, so the identical retry over the same cache
        // must reproduce the cold-mine CAPs exactly.
        assert!(cache.inner.0.lock().unwrap().len() >= 2);
        let retry = miner
            .mine_cancellable(&ds, Some(&cache), &CancelToken::never())
            .unwrap();
        assert_eq!(retry.caps, baseline.caps);
    }

    #[test]
    fn sweep_matches_independent_mines_and_shares_work() {
        let ds = clustered_dataset(3, 240);
        let grid: Vec<MiningParams> = vec![
            params().with_psi(5),
            params().with_psi(30),
            params().with_psi(5).with_eta_km(5.0),
            params().with_psi(30).with_eta_km(5.0),
            params().with_psi(5).with_mu(2),
            params().with_psi(30), // duplicate of an earlier point
            params().with_psi(5).with_max_delay(2),
            // Above every support, so the ψ filter must empty it: copied
            // from its group's superset here, and taken from it (the
            // group's last member) at the end of the grid.
            params().with_psi(500).with_max_delay(2),
            params().with_psi(30).with_max_delay(2),
            params()
                .with_psi(5)
                .with_segmentation(true)
                .with_segmentation_error(0.05),
            params().with_psi(500),
        ];
        let out = Miner::mine_sweep(&ds, &grid, None, &CancelToken::never()).unwrap();
        assert_eq!(out.results.len(), grid.len());
        // Byte-identity oracle: every grid point against the sequential
        // reference — including points whose search ran at a lower group ψ.
        for (p, r) in grid.iter().zip(&out.results) {
            let solo = sequential_mine(&ds, p);
            assert_eq!(r.caps, solo.caps, "sweep diverged for {}", p.signature());
            assert_eq!(
                r.delayed,
                solo.delayed,
                "delayed diverged for {}",
                p.signature()
            );
            assert_eq!(r.report.cap_count, solo.report.cap_count);
            assert_eq!(r.report.proximity_edges, solo.report.proximity_edges);
            assert_eq!(r.report.evolving_events, solo.report.evolving_events);
        }
        // The planner shared what the grid permits.
        assert_eq!(out.stats.requested_points, grid.len());
        assert_eq!(out.stats.unique_points, grid.len() - 1);
        assert_eq!(out.stats.extraction_classes, 2); // ε shared; one seg class
        assert_eq!(out.stats.graphs_built, 2); // η ∈ {1.0, 5.0}
                                               // Groups: base {ψ5,ψ30,ψ500}, η5 {ψ5,ψ30}, μ2 {ψ5},
                                               // delay {ψ5,ψ500,ψ30}, seg {ψ5}.
        assert_eq!(out.stats.search_groups, 5);
        // ψ-monotonicity is visible inside one group.
        assert!(out.results[0].caps.len() >= out.results[1].caps.len());
    }

    #[test]
    fn sweep_uses_and_populates_the_extraction_cache() {
        let ds = clustered_dataset(2, 240);
        let grid = vec![params().with_psi(5), params().with_psi(30)];
        let miner = Miner::new(params()).unwrap();

        // A solo mine's cache entries serve the whole sweep class.
        let cache = StateCache::default();
        miner.mine_with_cache(&ds, Some(&cache)).unwrap();
        let out = Miner::mine_sweep(&ds, &grid, Some(&cache), &CancelToken::never()).unwrap();
        assert_eq!(out.stats.extraction_cache_hits, ds.sensor_count());
        for (p, r) in grid.iter().zip(&out.results) {
            assert_eq!(r.caps, sequential_mine(&ds, p).caps);
        }

        // A cold sweep leaves the cache warm for a follow-up solo mine; the
        // clusters' duplicate waveforms already hit within the run.
        let cache2 = StateCache::default();
        let out2 = Miner::mine_sweep(&ds, &grid, Some(&cache2), &CancelToken::never()).unwrap();
        assert_eq!(out2.stats.extraction_cache_hits, 2);
        let warm = miner.mine_with_cache(&ds, Some(&cache2)).unwrap();
        assert_eq!(warm.report.extraction_cache_hits, ds.sensor_count());
    }

    #[test]
    fn sweep_validates_rejects_and_handles_empty_grids() {
        let ds = clustered_dataset(1, 240);
        let out = Miner::mine_sweep(&ds, &[], None, &CancelToken::never()).unwrap();
        assert!(out.results.is_empty());
        assert_eq!(out.stats, SweepStats::default());
        // One invalid point fails the whole job before any work is done.
        assert!(matches!(
            Miner::mine_sweep(
                &ds,
                &[params(), params().with_psi(0)],
                None,
                &CancelToken::never()
            ),
            Err(MiningError::InvalidParameter { .. })
        ));
        // Tiny datasets are rejected like in the solo path.
        let mut b = DatasetBuilder::new("tiny");
        b.set_grid(TimeGrid::new(Timestamp::EPOCH, ModelDuration::hours(1), 1).unwrap());
        b.add_sensor("s", "temperature", GeoPoint::new_unchecked(0.0, 0.0))
            .unwrap();
        let tiny = b.build().unwrap();
        assert!(matches!(
            Miner::mine_sweep(&tiny, &[params()], None, &CancelToken::never()),
            Err(MiningError::DatasetTooSmall(1))
        ));
        // A pre-cancelled token aborts before any unit runs.
        let token = CancelToken::new();
        token.cancel();
        assert_eq!(
            Miner::mine_sweep(&ds, &[params()], None, &token).unwrap_err(),
            MiningError::Cancelled
        );
    }

    #[test]
    fn sweep_cancelled_mid_extraction_leaves_cache_consistent() {
        // Fires the cancel token from inside the N-th extraction-state put,
        // mirroring the solo-mine cancellation test: the sweep aborts at the
        // next unit boundary with the cache only partially populated.
        struct CancellingCache {
            inner: StateCache,
            token: CancelToken,
            cancel_after: usize,
            puts: AtomicUsize,
        }
        impl EvolvingCache for CancellingCache {
            fn get(&self, key: &ExtractionKey) -> Option<Arc<ExtractionState>> {
                self.inner.get(key)
            }
            fn get_prefix(&self, key: &ExtractionKey) -> Option<Arc<ExtractionState>> {
                self.inner.get_prefix(key)
            }
            fn get_sibling(&self, key: &ExtractionKey) -> Option<Arc<ExtractionState>> {
                self.inner.get_sibling(key)
            }
            fn put(&self, key: ExtractionKey, state: Arc<ExtractionState>) {
                if self.puts.fetch_add(1, Ordering::Relaxed) + 1 == self.cancel_after {
                    self.token.cancel();
                }
                self.inner.put(key, state);
            }
        }

        let ds = clustered_dataset(2, 240);
        let grid = vec![
            params().with_psi(5),
            params().with_psi(30),
            params().with_psi(5).with_epsilon(0.25),
        ];
        let token = CancelToken::new();
        let cache = CancellingCache {
            inner: StateCache::default(),
            token: token.clone(),
            cancel_after: 7, // inside the second extraction class
            puts: AtomicUsize::new(0),
        };
        assert_eq!(
            Miner::mine_sweep(&ds, &grid, Some(&cache), &token).unwrap_err(),
            MiningError::Cancelled
        );
        // The abort left content-keyed states behind; the identical retry
        // over the same cache must match the sequential reference exactly.
        assert!(cache.inner.0.lock().unwrap().len() >= 2);
        let retry = Miner::mine_sweep(&ds, &grid, Some(&cache), &CancelToken::never()).unwrap();
        for (p, r) in grid.iter().zip(&retry.results) {
            assert_eq!(r.caps, sequential_mine(&ds, p).caps);
        }
    }

    /// Two sensors of different attributes about 110 m apart, each stepping
    /// 0 ↔ 1.0000002: every step evolves at ε = 1.0 and none at
    /// ε = 1.0000004, two rates that agree to six decimals.
    fn stepping_pair() -> Dataset {
        let n = 40;
        let mut b = DatasetBuilder::new("steps");
        b.set_grid(TimeGrid::new(Timestamp::EPOCH, ModelDuration::hours(1), n).unwrap());
        for (i, attr) in ["temperature", "traffic"].into_iter().enumerate() {
            let at = GeoPoint::new_unchecked(31.0, 121.0 + 0.001 * i as f64);
            let s = b.add_sensor(format!("s{i}"), attr, at).unwrap();
            let steps = (0..n).map(|t| (t % 2) as f64 * 1.0000002).collect();
            b.set_series(s, TimeSeries::from_values(steps)).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn sweep_keeps_points_apart_below_a_millionth() {
        let ds = stepping_pair();
        let grid: Vec<MiningParams> = [1.0, 1.0000004]
            .into_iter()
            .map(|eps| params().with_epsilon(eps).with_psi(5))
            .collect();
        let out = Miner::mine_sweep(&ds, &grid, None, &CancelToken::never()).unwrap();
        for (p, r) in grid.iter().zip(&out.results) {
            let direct = Miner::new(p.clone()).unwrap().mine(&ds).unwrap();
            assert_eq!(r.caps, direct.caps, "sweep diverged for {}", p.signature());
        }
        assert!(!out.results[0].caps.is_empty());
        assert!(out.results[1].caps.is_empty());
        assert_eq!(out.stats.unique_points, 2);
    }

    #[test]
    fn psi_and_eta_monotonicity_end_to_end() {
        let ds = clustered_dataset(2, 240);
        let count = |p: MiningParams| Miner::new(p).unwrap().mine(&ds).unwrap().caps.len();
        // Smaller psi => at least as many CAPs (Section 2.1).
        assert!(count(params().with_psi(5)) >= count(params().with_psi(30)));
        // Larger eta => at least as many CAPs.
        assert!(count(params().with_eta_km(5.0)) >= count(params().with_eta_km(0.05)));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// `mine_sweep` over random grids — duplicated, unsorted points
        /// mixing every parameter axis — matches the per-point sequential
        /// reference exactly, both cold and again warm over the cache the
        /// cold sweep populated.
        #[test]
        fn sweep_equivalence_on_random_grids(
            specs in proptest::collection::vec(
                (0usize..4, 0usize..3, 0usize..2, 0usize..2, 0usize..2),
                1..7,
            ),
        ) {
            let psis = [3usize, 8, 20, 45];
            let etas = [0.05f64, 1.0, 5.0];
            let ds = clustered_dataset(2, 120);
            let grid: Vec<MiningParams> = specs
                .iter()
                .map(|&(pi, ei, mi, si, di)| {
                    let p = params()
                        .with_psi(psis[pi])
                        .with_eta_km(etas[ei])
                        .with_mu([2, 3][mi])
                        .with_max_delay([0, 2][di]);
                    if si == 1 {
                        p.with_segmentation(true).with_segmentation_error(0.05)
                    } else {
                        p
                    }
                })
                .collect();
            let solos: Vec<MiningResult> = grid.iter().map(|p| sequential_mine(&ds, p)).collect();
            let cache = StateCache::default();
            for pass in 0..2 {
                let out =
                    Miner::mine_sweep(&ds, &grid, Some(&cache), &CancelToken::never()).unwrap();
                assert_eq!(out.results.len(), grid.len());
                for ((p, solo), r) in grid.iter().zip(&solos).zip(&out.results) {
                    assert_eq!(
                        r.caps,
                        solo.caps,
                        "pass {pass} diverged for {}",
                        p.signature()
                    );
                    assert_eq!(r.delayed, solo.delayed);
                }
                if pass == 1 {
                    // The cold pass left one content entry per class ×
                    // series; the warm pass must be served entirely from
                    // them.
                    assert_eq!(
                        out.stats.extraction_cache_hits,
                        out.stats.extraction_classes * ds.sensor_count()
                    );
                }
            }
        }
    }
}
