//! Experiment E8: the caching mechanism (Section 3.3). Cold requests run the
//! miner; warm requests with identical parameters are answered from the
//! cache. Expected shape: the warm path is orders of magnitude faster.

use criterion::{criterion_group, criterion_main, Criterion};
use miscela_bench::{santander_bench, santander_params};
use miscela_core::CancelToken;
use miscela_server::{MiscelaService, DEFAULT_TENANT};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_speedup");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));

    group.bench_function("cold_mine", |b| {
        let ds = santander_bench();
        let params = santander_params();
        b.iter_with_setup(
            || {
                let svc = MiscelaService::new();
                svc.register_dataset_keyed_in(DEFAULT_TENANT, ds.clone(), None)
                    .unwrap();
                svc
            },
            |svc| {
                let out = svc
                    .mine_cancellable_in(
                        DEFAULT_TENANT,
                        "santander",
                        &params,
                        None,
                        &CancelToken::never(),
                    )
                    .unwrap();
                assert!(!out.cache_hit);
                out.result.caps.len()
            },
        );
    });

    group.bench_function("warm_cache_hit", |b| {
        let svc = MiscelaService::new();
        svc.register_dataset_keyed_in(DEFAULT_TENANT, santander_bench(), None)
            .unwrap();
        let params = santander_params();
        let _ = svc
            .mine_cancellable_in(
                DEFAULT_TENANT,
                "santander",
                &params,
                None,
                &CancelToken::never(),
            )
            .unwrap();
        b.iter(|| {
            let out = svc
                .mine_cancellable_in(
                    DEFAULT_TENANT,
                    "santander",
                    &params,
                    None,
                    &CancelToken::never(),
                )
                .unwrap();
            assert!(out.cache_hit);
            out.result.caps.len()
        });
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
