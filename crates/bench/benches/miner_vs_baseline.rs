//! Experiment E7: MISCELA's pattern-tree search vs the naive level-wise
//! baseline (the paper's "efficient algorithm" claim, Section 2.2).
//! Expected shape: MISCELA wins at every size and the gap grows with the
//! number of sensors.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use miscela_bench::{santander_bench, santander_params};
use miscela_core::baseline::NaiveMiner;
use miscela_core::evolving::extract_state;
use miscela_core::{Miner, ProximityGraph};
use miscela_model::AttributeId;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let full = santander_bench();
    let params = santander_params().with_max_sensors(Some(3));
    let mut group = c.benchmark_group("miner_vs_baseline");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));

    for &fraction in &[0.3f64, 0.6, 1.0] {
        // Use a spatial prefix of the dataset by restricting eta? Simpler:
        // mine the full dataset but scale psi so the work changes; instead we
        // slice the time range, which scales the evolving-extraction work and
        // keeps results comparable.
        let timestamps = ((full.timestamp_count() as f64) * fraction) as usize;
        let range = full.grid().range();
        let end = full
            .grid()
            .at(timestamps.saturating_sub(1))
            .unwrap_or(range.end);
        let ds = full.slice_time(range.start, end).unwrap();
        let label = format!("{}ts", ds.timestamp_count());

        group.bench_with_input(BenchmarkId::new("miscela", &label), &ds, |b, ds| {
            let miner = Miner::new(params.clone()).unwrap();
            b.iter(|| miner.mine(ds).unwrap().caps.len());
        });
        group.bench_with_input(BenchmarkId::new("naive", &label), &ds, |b, ds| {
            b.iter(|| {
                let evolving: Vec<_> = ds
                    .iter()
                    .map(|ss| extract_state(ss.series, params.extraction()).sets)
                    .collect();
                let attributes: Vec<AttributeId> =
                    ds.iter().map(|ss| ss.sensor.attribute).collect();
                let graph = ProximityGraph::build(ds, params.eta_km);
                NaiveMiner {
                    evolving: &evolving,
                    attributes: &attributes,
                    graph: &graph,
                    params: &params,
                }
                .mine()
                .len()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
