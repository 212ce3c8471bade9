//! Shared fixtures for the benchmark harness and the paper-figure
//! experiment binaries.
//!
//! Every experiment supports two sizes: the default *bench scale* (fast
//! enough for CI and `cargo bench` on a laptop) and `--paper-scale`
//! (matching the record counts of Section 4). The scale is controlled by
//! the functions here so benches and experiments stay consistent.
//!
//! # Example
//!
//! ```
//! use miscela_bench::{santander_bench, santander_params};
//!
//! let dataset = santander_bench();
//! assert!(dataset.sensor_count() > 0);
//! assert!(santander_params().validate().is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod overload;

use miscela_cache::EvolvingSetsCache;
use miscela_core::evolving::{EvolvingCache, ExtractionKey, ExtractionState};
use miscela_core::MiningParams;
use miscela_datagen::{ChinaGenerator, ChinaProfile, CovidGenerator, SantanderGenerator};
use miscela_model::{AppendRow, Dataset, DatasetBuilder, RetentionPolicy, TimeGrid, TimeSeries};
use std::sync::Arc;

/// Whether `--paper-scale` was passed on the command line.
pub fn paper_scale_requested() -> bool {
    std::env::args().any(|a| a == "--paper-scale")
}

/// The Santander stand-in at bench scale (a few dozen sensors, a few weeks).
pub fn santander_bench() -> Dataset {
    SantanderGenerator::small().with_scale(0.04).generate()
}

/// The Santander stand-in at the requested scale.
pub fn santander(paper_scale: bool) -> Dataset {
    if paper_scale {
        SantanderGenerator::paper_scale().generate()
    } else {
        santander_bench()
    }
}

/// The China6 stand-in at the requested scale.
pub fn china6(paper_scale: bool) -> Dataset {
    if paper_scale {
        ChinaGenerator::paper_scale(ChinaProfile::China6).generate()
    } else {
        ChinaGenerator::small(ChinaProfile::China6)
            .with_scale(0.006)
            .generate()
    }
}

/// The China13 stand-in at the requested scale.
pub fn china13(paper_scale: bool) -> Dataset {
    if paper_scale {
        ChinaGenerator::paper_scale(ChinaProfile::China13).generate()
    } else {
        ChinaGenerator::small(ChinaProfile::China13)
            .with_scale(0.006)
            .generate()
    }
}

/// The COVID-19 generator at the requested scale (the paper-scale dataset is
/// already small).
pub fn covid(paper_scale: bool) -> CovidGenerator {
    if paper_scale {
        CovidGenerator::paper_scale()
    } else {
        CovidGenerator::small()
    }
}

/// Splits a dataset into its first `len - tail` timestamps plus the append
/// rows reproducing the final `tail` timestamps: appending the rows to the
/// returned prefix rebuilds the original content exactly. This is the
/// fixture shape of the `streaming_append` bench (E16) and of
/// `bench_snapshot`'s `append_remine_ns` measurement.
///
/// # Panics
///
/// Panics when `tail` is zero or not smaller than the dataset's timestamp
/// count.
pub fn split_for_append(dataset: &Dataset, tail: usize) -> (Dataset, Vec<AppendRow>) {
    let n = dataset.timestamp_count();
    assert!(tail > 0 && tail < n, "tail {tail} out of range for {n}");
    let split = n - tail;
    let split_t = dataset.grid().at(split).expect("split on grid");
    let prefix = dataset
        .slice_time(dataset.grid().start(), split_t)
        .expect("prefix slice");
    let mut rows = Vec::new();
    for ss in dataset.iter() {
        let attribute = dataset
            .attributes()
            .name_of(ss.sensor.attribute)
            .to_string();
        for i in split..n {
            if let Some(v) = ss.series.get(i) {
                rows.push(AppendRow {
                    sensor: ss.sensor.id.clone(),
                    attribute: attribute.clone(),
                    time: dataset.grid().at(i).expect("index on grid"),
                    value: Some(v),
                });
            }
        }
    }
    // `append_rows` grows the grid only to the latest *mentioned*
    // timestamp; if the final grid point(s) are missing for every sensor,
    // emit one explicit null row at the last timestamp so the reassembled
    // dataset covers the full grid — otherwise the benchmark would quietly
    // time a shorter, non-equivalent workload.
    let last_t = dataset.grid().at(n - 1).expect("last index on grid");
    if !rows.iter().any(|r| r.time == last_t) {
        let ss = dataset.iter().next().expect("non-empty dataset");
        rows.push(AppendRow {
            sensor: ss.sensor.id.clone(),
            attribute: dataset
                .attributes()
                .name_of(ss.sensor.attribute)
                .to_string(),
            time: last_t,
            value: None,
        });
    }
    (prefix, rows)
}

/// Replicates a dataset's waveform `copies` times along the time axis:
/// the result has the same sensors and grid start/interval but `copies ×`
/// the timestamps, with series values repeating periodically (missing
/// patterns included). This synthesizes a *long-history* variant of a
/// bench dataset without changing its per-window statistics — the fixture
/// behind the retained-window streaming benchmarks.
///
/// # Panics
///
/// Panics when `copies` is zero or the dataset is empty.
pub fn extend_history(dataset: &Dataset, copies: usize) -> Dataset {
    assert!(copies >= 1, "need at least one copy");
    let n = dataset.timestamp_count();
    assert!(n > 0, "cannot extend an empty dataset");
    let mut b = DatasetBuilder::new(dataset.name());
    b.set_grid(
        TimeGrid::new(
            dataset.grid().start(),
            dataset.grid().interval(),
            n * copies,
        )
        .expect("valid grid"),
    );
    for ss in dataset.iter() {
        let idx = b
            .add_sensor(
                ss.sensor.id.clone(),
                dataset.attributes().name_of(ss.sensor.attribute),
                ss.sensor.location,
            )
            .expect("unique sensors");
        let base = ss.series.copy_values();
        let mut values = Vec::with_capacity(n * copies);
        for _ in 0..copies {
            values.extend_from_slice(&base);
        }
        b.set_series(idx, TimeSeries::from_values(values))
            .expect("grid length");
    }
    b.build().expect("extend_history build")
}

/// A long-history dataset already slid behind a retained window:
/// [`extend_history`] with `copies` of the waveform, a
/// `RetentionPolicy::keep_last(window)` installed, and the policy applied
/// once — the in-memory state a streaming server reaches after feeding
/// `copies × window` points through a bounded dataset. Because trims are
/// block-granular the retained length may exceed `window` by a partial
/// block.
pub fn retained_history(dataset: &Dataset, copies: usize, window: usize) -> Dataset {
    let mut ds = extend_history(dataset, copies);
    ds.set_retention(RetentionPolicy::keep_last(window));
    ds.trim_expired();
    ds
}

/// Append rows continuing `target`'s feed for `tail` more timestamps,
/// sampling values periodically from `source`'s waveform (absolute step
/// `a` takes `source` at `a % source.len`). `target` must descend from
/// [`extend_history`]`(source, ..)` (possibly trimmed/appended) so its
/// absolute step count is `target.trimmed() + target.timestamp_count()`.
/// The final timestamp is always mentioned (with an explicit null if the
/// waveform is missing there), so the grid grows by exactly `tail`.
pub fn periodic_append_rows(source: &Dataset, target: &Dataset, tail: usize) -> Vec<AppendRow> {
    assert!(tail > 0, "tail must be positive");
    let period = source.timestamp_count();
    let interval = source.grid().interval();
    let next_t = target.grid().range().end;
    let abs_base = target.trimmed() + target.timestamp_count();
    let mut rows = Vec::new();
    for ss in source.iter() {
        let attribute = source.attributes().name_of(ss.sensor.attribute).to_string();
        for j in 0..tail {
            if let Some(v) = ss.series.get((abs_base + j) % period) {
                rows.push(AppendRow {
                    sensor: ss.sensor.id.clone(),
                    attribute: attribute.clone(),
                    time: next_t + miscela_model::Duration::seconds(interval.as_secs() * j as i64),
                    value: Some(v),
                });
            }
        }
    }
    let last_t = next_t + miscela_model::Duration::seconds(interval.as_secs() * (tail as i64 - 1));
    if !rows.iter().any(|r| r.time == last_t) {
        let ss = source.iter().next().expect("non-empty dataset");
        rows.push(AppendRow {
            sensor: ss.sensor.id.clone(),
            attribute: source.attributes().name_of(ss.sensor.attribute).to_string(),
            time: last_t,
            value: None,
        });
    }
    rows
}

/// A read-only view over an [`EvolvingSetsCache`]: lookups pass through,
/// stores are dropped. Append benchmarks warm a cache with the *prefix*
/// extraction states once and then iterate behind this view, so every
/// iteration faces the same cache a live server would on a fresh append —
/// full-content miss, prefix-state hit — instead of the second iteration
/// degenerating into a pure content hit.
pub struct ReadOnlyExtractionCache<'a>(pub &'a EvolvingSetsCache);

impl EvolvingCache for ReadOnlyExtractionCache<'_> {
    fn get(&self, key: &ExtractionKey) -> Option<Arc<ExtractionState>> {
        self.0.get(key)
    }
    fn get_prefix(&self, key: &ExtractionKey) -> Option<Arc<ExtractionState>> {
        self.0.get_prefix(key)
    }
    fn get_sibling(&self, key: &ExtractionKey) -> Option<Arc<ExtractionState>> {
        self.0.get_sibling(key)
    }
    fn put(&self, _key: ExtractionKey, _state: Arc<ExtractionState>) {}
}

/// The default mining parameters used across benches for the Santander data.
pub fn santander_params() -> MiningParams {
    MiningParams::new()
        .with_epsilon(0.4)
        .with_eta_km(0.5)
        .with_mu(3)
        .with_psi(20)
        .with_segmentation(false)
}

/// The default mining parameters used across benches for the China data.
pub fn china_params() -> MiningParams {
    MiningParams::new()
        .with_epsilon(1.0)
        .with_eta_km(250.0)
        .with_mu(2)
        .with_psi(40)
        .with_max_sensors(Some(2))
        .with_segmentation(false)
}

/// The china-scale ψ/η/μ benchmark grid for the batch-sweep experiment:
/// 4 ψ × 4 η × 3 μ = 48 points over [`china_params`]-style settings.
///
/// The shape is deliberately sweep-friendly in the way real tuning grids
/// are: all points share one extraction class (same ε, segmentation off),
/// only 4 distinct η values need a spatial graph, and each (η, μ) cell
/// collapses to a single ψ_min search group, so the batch miner runs
/// 12 searches instead of 48.
pub fn sweep_grid() -> Vec<MiningParams> {
    let mut grid = Vec::with_capacity(48);
    for &psi in &[36usize, 40, 44, 48] {
        for &eta in &[150.0f64, 250.0, 350.0, 450.0] {
            for &mu in &[1usize, 2, 3] {
                grid.push(
                    china_params()
                        .with_psi(psi)
                        .with_eta_km(eta)
                        .with_mu(mu)
                        .with_min_attributes(1),
                );
            }
        }
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_nonempty_and_params_valid() {
        assert!(santander_bench().sensor_count() > 0);
        assert!(santander_params().validate().is_ok());
        assert!(china_params().validate().is_ok());
        assert!(!paper_scale_requested());
    }

    #[test]
    fn retained_history_slides_the_window_and_appends_continue_it() {
        let base = santander_bench();
        let n = base.timestamp_count();
        let long = extend_history(&base, 3);
        assert_eq!(long.timestamp_count(), 3 * n);
        // The waveform repeats (spot-check one sensor across copies).
        let ss = base.iter().next().unwrap();
        let idx = long.index_of_id(&ss.sensor.id).unwrap();
        for i in (0..n).step_by(37) {
            assert_eq!(long.series(idx).get(n + i), ss.series.get(i));
        }
        let retained = retained_history(&base, 3, n);
        assert!(retained.timestamp_count() >= n);
        assert!(retained.timestamp_count() < 3 * n);
        assert_eq!(
            retained.trimmed() + retained.timestamp_count(),
            3 * n,
            "window plus trimmed must cover the full history"
        );
        // Continuing the feed appends exactly `tail` new grid points.
        let mut appended = retained.clone();
        let rows = periodic_append_rows(&base, &retained, 8);
        let stats = appended.append_rows(&rows).unwrap();
        assert_eq!(stats.new_timestamps, 8);
    }
}
