//! Experiment E2 (Figure 2): the end-to-end interactive pipeline — upload,
//! parameter input, mining, cached re-query — measured as one unit, plus the
//! individual mining stages via MiningReport (printed by the fig2_pipeline
//! binary).

use criterion::{criterion_group, criterion_main, Criterion};
use miscela_bench::{santander_bench, santander_params};
use miscela_core::CancelToken;
use miscela_csv::{split_into_chunks, DatasetWriter, DEFAULT_CHUNK_LINES};
use miscela_server::{MiscelaService, DEFAULT_TENANT};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let ds = santander_bench();
    let writer = DatasetWriter::new();
    let data = writer.data_csv(&ds);
    let locations = writer.location_csv(&ds);
    let attributes = writer.attribute_csv(&ds);
    let params = santander_params();

    let mut group = c.benchmark_group("pipeline");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));

    group.bench_function("upload_mine_requery", |b| {
        b.iter(|| {
            let svc = MiscelaService::new();
            svc.begin_upload_keyed_in(DEFAULT_TENANT, "santander", &locations, &attributes, None)
                .unwrap();
            for chunk in split_into_chunks(&data, DEFAULT_CHUNK_LINES) {
                svc.upload_chunk_in(DEFAULT_TENANT, "santander", &chunk)
                    .unwrap();
            }
            svc.finish_upload_keyed_in(DEFAULT_TENANT, "santander", None)
                .unwrap();
            let first = svc
                .mine_cancellable_in(
                    DEFAULT_TENANT,
                    "santander",
                    &params,
                    None,
                    &CancelToken::never(),
                )
                .unwrap();
            let second = svc
                .mine_cancellable_in(
                    DEFAULT_TENANT,
                    "santander",
                    &params,
                    None,
                    &CancelToken::never(),
                )
                .unwrap();
            assert!(second.cache_hit);
            first.result.caps.len()
        });
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
