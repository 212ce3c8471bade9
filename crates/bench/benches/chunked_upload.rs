//! Experiment E9: chunked data.csv upload (Section 3.2). Compares ingest of
//! the same document split into the paper's 10,000-line chunks against a
//! single monolithic chunk, across record counts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use miscela_bench::santander_bench;
use miscela_csv::{split_into_chunks, DatasetWriter};
use miscela_server::{MiscelaService, DEFAULT_TENANT};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let ds = santander_bench();
    let writer = DatasetWriter::new();
    let data = writer.data_csv(&ds);
    let locations = writer.location_csv(&ds);
    let attributes = writer.attribute_csv(&ds);
    let lines = data.lines().count();

    let mut group = c.benchmark_group("chunked_upload");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    group.throughput(Throughput::Elements(lines as u64));

    for &chunk_lines in &[10_000usize, 2_000, usize::MAX] {
        let label = if chunk_lines == usize::MAX {
            "monolithic".to_string()
        } else {
            format!("{chunk_lines}-line-chunks")
        };
        group.bench_with_input(
            BenchmarkId::new("upload", label),
            &chunk_lines,
            |b, &chunk_lines| {
                b.iter(|| {
                    let svc = MiscelaService::new();
                    svc.begin_upload_keyed_in(
                        DEFAULT_TENANT,
                        "bench",
                        &locations,
                        &attributes,
                        None,
                    )
                    .unwrap();
                    for chunk in split_into_chunks(&data, chunk_lines.min(lines + 1)) {
                        svc.upload_chunk_in(DEFAULT_TENANT, "bench", &chunk)
                            .unwrap();
                    }
                    let (summary, _, _) = svc
                        .finish_upload_keyed_in(DEFAULT_TENANT, "bench", None)
                        .unwrap();
                    summary.records
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
