//! Concurrent load generator for the overload-protected serving path.
//!
//! Builds an in-process [`MiscelaService`] with a deliberately tight
//! admission budget (two concurrent mines, a four-deep wait queue), uploads
//! the Santander bench dataset, and storms it with concurrent mining
//! clients whose parameters cycle through distinct cache keys and whose
//! deadline mix includes tight wall-clock deadlines — roughly a 4×
//! oversubscription of the admission budget. The storm is the
//! `bench_snapshot` `overload` scenario at larger scale, and prints the
//! same [`LoadSummary`] JSON: p50/p99 latency of completed requests, shed
//! rate, deadline expirations and goodput.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p miscela-bench --bin load_generator [-- --out PATH]
//! ```
//!
//! Without `--out` the summary goes to stdout only. `MISCELA_OVERLOAD_SMOKE=1`
//! shrinks the storm for CI smoke runs. Latencies are wall-clock and
//! machine-dependent; the *shape* (bounded p99 for admitted requests, typed
//! shedding beyond the queue) is the invariant worth reading.
//!
//! `--subscribers` switches to the watch/subscribe storm: long-poll
//! watchers parked across many datasets while a bumper drives revision
//! bumps, run on a single-shard store and on the default sharded store
//! back to back, printing the contended-vs-sharded wall clocks, the
//! speedup, and the bump-to-wakeup latency percentiles.
//!
//! [`LoadSummary`]: miscela_bench::overload::LoadSummary
//! [`MiscelaService`]: miscela_server::MiscelaService

use miscela_bench::overload::{run_load, run_sharded_comparison, LoadConfig, SubscriberConfig};
use miscela_bench::{santander_bench, santander_params};
use miscela_csv::DatasetWriter;
use miscela_server::{AdmissionConfig, MiscelaService, DEFAULT_SHARDS, DEFAULT_TENANT};
use miscela_store::Json;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let smoke = std::env::var_os("MISCELA_OVERLOAD_SMOKE").is_some();

    // `--subscribers` runs the watch/subscribe storm instead of the mining
    // storm: a fleet of long-poll watchers parked across many datasets
    // while a bumper drives revision bumps, on a single-shard store and on
    // the default sharded store back to back. The printed JSON is the same
    // `sharded` comparison `bench_snapshot` embeds: contended vs sharded
    // wall clock, the wakeup-latency percentiles, and the speedup the
    // sharded condvars buy by waking only the bumped shard's cohort.
    if args.iter().any(|a| a == "--subscribers") {
        let cfg = SubscriberConfig {
            datasets: if smoke { 4 } else { 8 },
            watchers_per_dataset: if smoke { 4 } else { 8 },
            bumps_per_dataset: if smoke { 5 } else { 25 },
            ..SubscriberConfig::default()
        };
        let cmp = run_sharded_comparison(&cfg, DEFAULT_SHARDS, if smoke { 2 } else { 5 });
        for arm in [&cmp.contended, &cmp.sharded] {
            assert!(
                arm.wakeups >= arm.watchers,
                "a watcher missed its final revision: {arm:?}"
            );
        }
        let doc = Json::from_pairs([
            ("scenario", Json::String("subscriber_storm".to_string())),
            ("summary", cmp.to_json()),
        ]);
        let text = doc.to_string_pretty();
        println!("{text}");
        if let Some(path) = out_path {
            std::fs::write(&path, text + "\n").expect("failed to write summary");
            eprintln!("wrote {path}");
        }
        return;
    }

    let dataset = santander_bench();
    let writer = DatasetWriter::new();
    let svc = MiscelaService::new().with_admission(AdmissionConfig {
        max_cost_units: 2,
        max_per_dataset: 2,
        max_queue_depth: 4,
        max_queue_wait: Duration::from_millis(250),
        retry_after_ms: 50,
    });
    svc.upload_documents_in(
        DEFAULT_TENANT,
        "santander",
        &writer.data_csv(&dataset),
        &writer.location_csv(&dataset),
        &writer.attribute_csv(&dataset),
        10_000,
    )
    .expect("bench upload");

    // `--sweeps` mixes batch parameter-sweep requests into the storm:
    // every 4th request of each client becomes a 4-point ψ-grid sweep,
    // admission-charged once at grid-scaled cost, so batch jobs compete
    // with solo mines for the same tight budget.
    let sweeps = args.iter().any(|a| a == "--sweeps");
    let cfg = LoadConfig {
        clients: if smoke { 6 } else { 12 },
        requests_per_client: if smoke { 4 } else { 16 },
        param_variants: if smoke { 4 } else { 12 },
        deadline_every: 4,
        deadline: Duration::from_millis(if smoke { 20 } else { 50 }),
        sweep_every: if sweeps { 4 } else { 0 },
        sweep_points: 4,
    };
    let summary = run_load(&svc, "santander", &santander_params(), &cfg);
    let stats = svc.admission_stats();
    assert_eq!(stats.in_flight, 0, "permits leaked: {stats:?}");
    assert_eq!(stats.queued, 0, "waiters leaked: {stats:?}");
    if sweeps {
        assert!(
            summary.sweeps > 0 || summary.shed + summary.deadline_exceeded > 0,
            "sweep traffic neither completed nor was shed: {summary:?}"
        );
    }

    let scenario = if sweeps {
        "santander_bench_4x_sweeps"
    } else {
        "santander_bench_4x"
    };
    let doc = Json::from_pairs([
        ("scenario", Json::String(scenario.to_string())),
        ("clients", Json::Number(cfg.clients as f64)),
        (
            "requests_per_client",
            Json::Number(cfg.requests_per_client as f64),
        ),
        ("admitted", Json::Number(stats.admitted as f64)),
        ("summary", summary.to_json()),
    ]);
    let text = doc.to_string_pretty();
    println!("{text}");
    if let Some(path) = out_path {
        std::fs::write(&path, text + "\n").expect("failed to write summary");
        eprintln!("wrote {path}");
    }
}
