//! Experiment E2 (Figure 2): the system overview pipeline — data upload,
//! parameter input, CAP mining, interactive re-query — with per-stage
//! timings.

use miscela_bench::{paper_scale_requested, santander, santander_params};
use miscela_core::CancelToken;
use miscela_csv::{split_into_chunks, DatasetWriter, DEFAULT_CHUNK_LINES};
use miscela_server::{MiscelaService, DEFAULT_TENANT};
use std::time::Instant;

fn main() {
    let ds = santander(paper_scale_requested());
    println!("== Figure 2: Miscela-V pipeline (upload -> parameters -> results -> re-query) ==");

    let writer = DatasetWriter::new();
    let t0 = Instant::now();
    let data = writer.data_csv(&ds);
    let locations = writer.location_csv(&ds);
    let attributes = writer.attribute_csv(&ds);
    println!(
        "export to csv:        {:8.1} ms ({} data.csv lines)",
        t0.elapsed().as_secs_f64() * 1e3,
        data.lines().count()
    );

    let svc = MiscelaService::new();
    let t1 = Instant::now();
    svc.begin_upload_keyed_in(DEFAULT_TENANT, "santander", &locations, &attributes, None)
        .unwrap();
    let chunks = split_into_chunks(&data, DEFAULT_CHUNK_LINES);
    let n_chunks = chunks.len();
    for chunk in chunks {
        svc.upload_chunk_in(DEFAULT_TENANT, "santander", &chunk)
            .unwrap();
    }
    let (summary, _, _) = svc
        .finish_upload_keyed_in(DEFAULT_TENANT, "santander", None)
        .unwrap();
    println!(
        "chunked upload:       {:8.1} ms ({n_chunks} chunks, {} sensors, {} records)",
        t1.elapsed().as_secs_f64() * 1e3,
        summary.sensors,
        summary.records
    );

    let params = santander_params();
    let t2 = Instant::now();
    let first = svc
        .mine_cancellable_in(
            DEFAULT_TENANT,
            "santander",
            &params,
            None,
            &CancelToken::never(),
        )
        .unwrap();
    println!(
        "mining (cold):        {:8.1} ms ({}; extraction {:.1} ms, spatial {:.1} ms, search {:.1} ms)",
        t2.elapsed().as_secs_f64() * 1e3,
        first.result.caps.summary(),
        first.result.report.extraction_time.as_secs_f64() * 1e3,
        first.result.report.spatial_time.as_secs_f64() * 1e3,
        first.result.report.search_time.as_secs_f64() * 1e3,
    );

    let t3 = Instant::now();
    let second = svc
        .mine_cancellable_in(
            DEFAULT_TENANT,
            "santander",
            &params,
            None,
            &CancelToken::never(),
        )
        .unwrap();
    println!(
        "re-query (cached):    {:8.3} ms (cache hit: {})",
        t3.elapsed().as_secs_f64() * 1e3,
        second.cache_hit
    );
    let stats = svc.cache_stats();
    println!(
        "cache stats: {} hits / {} misses ({} entries)",
        stats.hits, stats.misses, stats.entries
    );
}
