//! Machine-readable pipeline-timing snapshot.
//!
//! Runs the full mining pipeline at fixed bench scales, records the median
//! per-step timings over several repeats, and writes them as JSON — the perf
//! trajectory baseline committed as `BENCH_pipeline.json` so future PRs can
//! compare search-phase numbers against a recorded reference.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p miscela-bench --bin bench_snapshot [-- --out PATH]
//! ```
//!
//! The default output path is `BENCH_pipeline.json` in the working
//! directory. `MISCELA_BENCH_SMOKE=1` reduces the repeat count for CI smoke
//! runs. Timings are nanoseconds; they are machine-dependent and meaningful
//! as *relative* step weights and as a trajectory on comparable hardware.
//!
//! Schema 2 adds `append_remine_ns` per scale: the median cost of appending
//! a small batch ([`APPEND_TAIL`] timestamps) to the scale's dataset and
//! re-mining it with the extraction cache warmed with the prefix states —
//! the streaming-append path the `streaming_append` bench studies in depth.
//!
//! Schema 3 adds the retained-window pair: `append_retained_ns` measures
//! the same small append on a dataset that has streamed
//! [`HISTORY_COPIES`]× its window of history behind a sliding
//! `RetentionPolicy` (structurally shared blocks, block-granular trims),
//! and `append_window_ns` on a cold-built dataset holding only that
//! window. The two medians matching is the O(tail) claim: append+re-mine
//! cost does not depend on how much history the dataset has ever seen.
//!
//! Schema 4 adds the durability pair: `recovery_replay_ns` is the median
//! cost of constructing a durable service over a directory whose WAL holds
//! one committed [`RECOVERY_TAIL`]-timestamp append session beyond the
//! snapshot (snapshot load + session replay), and `recovery_snapshot_ns`
//! the same over a directory with a fresh snapshot and an empty WAL. Their
//! difference is the replay cost of the tail alone — recovery is O(rows
//! since the last snapshot), never O(append history), because sealing a
//! 256-point block compacts the WAL into a new snapshot.
//!
//! Schema 5 adds the top-level `overload` object: one bounded storm of
//! concurrent mining clients against a deliberately tight admission budget
//! (the `load_generator` scenario at snapshot scale), summarized as
//! completed/shed/deadline counters, p50/p99 latency of completed
//! requests, shed rate and goodput. Counters are load-dependent; the
//! invariant is that every refused request was a *typed retryable* error
//! (the harness fails the run otherwise).
//!
//! Schema 7 adds the top-level `sweep` object: the china-scale 4×4×3
//! ψ/η/μ tuning grid mined as one batch (`Miner::mine_sweep`) vs as a
//! per-point loop, back-to-back in each repeat, reported as
//! `sweep_batch_ns` / `sweep_loop_ns` medians plus the plan shape (one
//! extraction class, 4 graphs, 12 search groups). The harness asserts
//! every batch point byte-identical to its independent mine before
//! timing; `identical: true` records that the check ran.
//!
//! Schema 8 adds the top-level `sharded` object: the watch/subscribe storm
//! (many long-poll watchers parked across many datasets while a bumper
//! drives revision bumps) run against a single-shard store — one lock, one
//! condvar, every bump wakes every parked watcher — and against the
//! default sharded store, alternating arms over several rounds and
//! reporting each arm's least-disturbed wall clock, the speedup between
//! them, and the sharded arm's bump-to-wakeup p99.
//!
//! Schema 6 adds the top-level `chaos` object: the full register → append
//! → mine workflow driven by the resilient client through a seeded lossy
//! storm (request drops, response drops, duplicated and delayed
//! deliveries), summarized as client retry counters, the server's
//! duplicate-suppression hits (idempotency-key replays + sequence-number
//! chunk dedup), and goodput — the fraction of delivery attempts that were
//! first tries rather than retries. The harness fails the run if the storm
//! injected no faults or the server suppressed no repeats.

use miscela_bench::overload::{run_load, run_sharded_comparison, LoadConfig, SubscriberConfig};
use miscela_bench::{
    china6, periodic_append_rows, retained_history, santander_bench, santander_params,
    split_for_append, ReadOnlyExtractionCache,
};
use miscela_cache::EvolvingSetsCache;
use miscela_core::{Miner, MiningParams, MiningReport};
use miscela_csv::DatasetWriter;
use miscela_model::{AppendRow, Dataset, RetentionPolicy, SERIES_BLOCK_LEN};
use miscela_server::client::{ChaosConfig, ChaosTransport, ResilientClient, RouterTransport};
use miscela_server::{AdmissionConfig, MiscelaService, Router, DEFAULT_TENANT};
use miscela_store::{Database, Json};
use std::sync::Arc;
use std::time::Duration;

/// How many trailing timestamps the `append_remine_ns` measurement appends.
const APPEND_TAIL: usize = 8;

/// How many timestamps the `recovery_replay_ns` measurement leaves in the
/// WAL beyond the last snapshot.
const RECOVERY_TAIL: usize = 8;

/// How many copies of the waveform the retained-window measurements stream
/// through the bounded dataset before timing.
const HISTORY_COPIES: usize = 10;

/// Median of a sample vector (ns). The vector is sorted in place.
fn median_ns(samples: &mut [u128]) -> u128 {
    samples.sort_unstable();
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2
    }
}

/// Runs the miner `repeats` times and reports the median-per-step timings
/// together with the (run-invariant) pipeline statistics.
fn snapshot_scale(name: &str, dataset: &Dataset, params: &MiningParams, repeats: usize) -> Json {
    let miner = Miner::new(params.clone()).expect("snapshot params must validate");
    let mut extraction: Vec<u128> = Vec::with_capacity(repeats);
    let mut spatial: Vec<u128> = Vec::with_capacity(repeats);
    let mut search: Vec<u128> = Vec::with_capacity(repeats);
    let mut last: Option<MiningReport> = None;
    for _ in 0..repeats {
        let result = miner.mine(dataset).expect("snapshot mining failed");
        extraction.push(result.report.extraction_time.as_nanos());
        spatial.push(result.report.spatial_time.as_nanos());
        search.push(result.report.search_time.as_nanos());
        last = Some(result.report);
    }
    let report = last.expect("at least one repeat");
    let extraction = median_ns(&mut extraction);
    let spatial = median_ns(&mut spatial);
    let search = median_ns(&mut search);

    // Streaming-append measurement: warm the extraction cache with the
    // prefix states once, then time append + incremental re-mine. The
    // cache is frozen behind a read-only view so every repeat faces a
    // fresh-append cache shape (full-content miss, prefix-state hit).
    let (prefix, rows) = split_for_append(dataset, APPEND_TAIL);
    let append_remine = measure_append(&miner, &prefix, &rows, repeats);

    // Retained-window pair: the same append on a 10×-history dataset slid
    // behind a retention window, and on a cold twin of just the window.
    let window = dataset.timestamp_count();
    let long = retained_history(dataset, HISTORY_COPIES, window);
    let mut short = long
        .slice_time(long.grid().start(), long.grid().range().end)
        .expect("window twin");
    short.set_retention(RetentionPolicy::unbounded());
    // One row batch generated from the long dataset's feed position and
    // appended to both arms: `short` holds the identical window content on
    // the identical grid, so the pair is apples-to-apples.
    let retained_rows = periodic_append_rows(dataset, &long, APPEND_TAIL);
    let append_retained = measure_append(&miner, &long, &retained_rows, repeats);
    let append_window = measure_append(&miner, &short, &retained_rows, repeats);

    // Durability pair: recovery with a WAL tail to replay vs. a snapshot
    // alone.
    let (recovery_replay, recovery_snapshot) = measure_recovery(name, dataset, repeats);

    Json::from_pairs([
        ("name", Json::String(name.to_string())),
        ("sensors", Json::Number(dataset.sensor_count() as f64)),
        ("timestamps", Json::Number(dataset.timestamp_count() as f64)),
        ("extraction_ns", Json::Number(extraction as f64)),
        ("spatial_ns", Json::Number(spatial as f64)),
        ("search_ns", Json::Number(search as f64)),
        (
            "total_ns",
            Json::Number((extraction + spatial + search) as f64),
        ),
        ("append_remine_ns", Json::Number(append_remine as f64)),
        ("append_retained_ns", Json::Number(append_retained as f64)),
        ("append_window_ns", Json::Number(append_window as f64)),
        ("recovery_replay_ns", Json::Number(recovery_replay as f64)),
        (
            "recovery_snapshot_ns",
            Json::Number(recovery_snapshot as f64),
        ),
        (
            "evolving_events",
            Json::Number(report.evolving_events as f64),
        ),
        (
            "proximity_edges",
            Json::Number(report.proximity_edges as f64),
        ),
        (
            "searchable_components",
            Json::Number(report.searchable_components as f64),
        ),
        (
            "largest_component",
            Json::Number(report.largest_component as f64),
        ),
        ("cap_count", Json::Number(report.cap_count as f64)),
    ])
}

/// Warms the extraction cache on `base`, freezes it, then reports the
/// median cost over `repeats` of `clone + append_rows + mine_with_cache` —
/// the cost of absorbing one new batch into a live dataset.
fn measure_append(miner: &Miner, base: &Dataset, rows: &[AppendRow], repeats: usize) -> u128 {
    let cache = EvolvingSetsCache::new();
    miner
        .mine_with_cache(base, Some(&cache))
        .expect("warm mine failed");
    let frozen = ReadOnlyExtractionCache(&cache);
    let mut samples: Vec<u128> = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let mut appended = base.clone();
        let t = std::time::Instant::now();
        appended.append_rows(rows).expect("snapshot append failed");
        miner
            .mine_with_cache(&appended, Some(&frozen))
            .expect("snapshot append re-mine failed");
        samples.push(t.elapsed().as_nanos());
    }
    median_ns(&mut samples)
}

/// Prepares two durable-service directories — one whose WAL holds a
/// committed [`RECOVERY_TAIL`]-timestamp append session beyond the
/// snapshot, one with a snapshot alone — and reports the median cost of
/// recovering each (constructing a service over the directory with a fresh
/// in-memory database). The tail window is placed clear of the 256-point
/// block boundary so the committing append does not itself compact the WAL.
fn measure_recovery(name: &str, dataset: &Dataset, repeats: usize) -> (u128, u128) {
    let n = dataset.timestamp_count();
    let split = [n - RECOVERY_TAIL, n - 2 * RECOVERY_TAIL]
        .into_iter()
        .find(|m| m % SERIES_BLOCK_LEN + RECOVERY_TAIL < SERIES_BLOCK_LEN)
        .expect("two adjacent tail windows cannot both cross a block boundary");
    let grid = dataset.grid();
    let prefix = dataset
        .slice_time(grid.start(), grid.at(split).expect("split on grid"))
        .expect("prefix slice");
    let tail_end = if split + RECOVERY_TAIL == n {
        grid.range().end
    } else {
        grid.at(split + RECOVERY_TAIL).expect("tail end on grid")
    };
    let tail = dataset
        .slice_time(grid.at(split).expect("split on grid"), tail_end)
        .expect("tail slice");
    let writer = DatasetWriter::new();
    let base = std::env::temp_dir()
        .join(format!("miscela-bench-recovery-{}", std::process::id()))
        .join(name);
    let _ = std::fs::remove_dir_all(&base);
    let replay_dir = base.join("replay");
    let snapshot_dir = base.join("snapshot");
    for dir in [&replay_dir, &snapshot_dir] {
        let svc = MiscelaService::with_durability(dir).expect("durable service");
        svc.upload_documents_in(
            DEFAULT_TENANT,
            "bench",
            &writer.data_csv(&prefix),
            &writer.location_csv(&prefix),
            &writer.attribute_csv(&prefix),
            10_000,
        )
        .expect("bench upload");
        if dir == &replay_dir {
            svc.append_documents_in(DEFAULT_TENANT, "bench", &writer.data_csv(&tail), 10_000)
                .expect("bench append");
        }
    }
    let mut replay_ns: Vec<u128> = Vec::with_capacity(repeats);
    let mut snapshot_ns: Vec<u128> = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let t = std::time::Instant::now();
        let svc =
            MiscelaService::with_database_and_durability(Arc::new(Database::new()), &replay_dir)
                .expect("recovery with a WAL tail");
        replay_ns.push(t.elapsed().as_nanos());
        let stats = svc
            .durability_stats_in(DEFAULT_TENANT, "bench")
            .expect("durability stats");
        assert!(
            stats.replayed_records >= 3,
            "recovery had no WAL tail to replay: {stats:?}"
        );
        let t = std::time::Instant::now();
        let svc =
            MiscelaService::with_database_and_durability(Arc::new(Database::new()), &snapshot_dir)
                .expect("recovery from a snapshot alone");
        snapshot_ns.push(t.elapsed().as_nanos());
        let stats = svc
            .durability_stats_in(DEFAULT_TENANT, "bench")
            .expect("durability stats");
        assert_eq!(
            stats.replayed_records, 0,
            "the snapshot-only directory had WAL records: {stats:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&base);
    (median_ns(&mut replay_ns), median_ns(&mut snapshot_ns))
}

/// One bounded overload storm against a tight admission budget: the
/// `load_generator` scenario at snapshot scale, reported as the schema-5
/// `overload` object.
fn snapshot_overload(dataset: &Dataset, smoke: bool) -> Json {
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
        "overload",
        &writer.data_csv(dataset),
        &writer.location_csv(dataset),
        &writer.attribute_csv(dataset),
        10_000,
    )
    .expect("overload upload");
    let cfg = LoadConfig {
        clients: if smoke { 4 } else { 8 },
        requests_per_client: if smoke { 4 } else { 8 },
        param_variants: if smoke { 4 } else { 8 },
        deadline_every: 4,
        deadline: Duration::from_millis(if smoke { 20 } else { 50 }),
        ..LoadConfig::default()
    };
    let summary = run_load(&svc, "overload", &santander_params(), &cfg);
    let stats = svc.admission_stats();
    assert_eq!(stats.in_flight, 0, "overload storm leaked permits");
    Json::from_pairs([
        ("scenario", Json::String("santander_bench_4x".to_string())),
        ("clients", Json::Number(cfg.clients as f64)),
        (
            "requests_per_client",
            Json::Number(cfg.requests_per_client as f64),
        ),
        ("admitted", Json::Number(stats.admitted as f64)),
        ("summary", summary.to_json()),
    ])
}

/// The china-scale ψ/η/μ grid mined as one batch vs as a per-point loop,
/// back-to-back in each repeat, reported as the schema-7 `sweep` object.
/// In smoke mode the grid shrinks to 2×2×2 so CI stays bounded; the
/// committed snapshot uses the full 4×4×3 grid.
fn snapshot_sweep(dataset: &Dataset, repeats: usize, smoke: bool) -> Json {
    let grid: Vec<MiningParams> = if smoke {
        miscela_bench::sweep_grid()
            .into_iter()
            .filter(|p| p.psi <= 40 && p.eta_km <= 250.0 && p.mu <= 2)
            .collect()
    } else {
        miscela_bench::sweep_grid()
    };
    let cancel = miscela_core::CancelToken::never();

    // Correctness gate before any timing: every grid point of the batch
    // sweep must be byte-identical to an independent mine.
    let batch = Miner::mine_sweep(dataset, &grid, None, &cancel).expect("sweep failed");
    for (p, got) in grid.iter().zip(&batch.results) {
        let solo = Miner::new(p.clone())
            .expect("grid point must validate")
            .mine(dataset)
            .expect("solo mine failed");
        assert_eq!(got.caps, solo.caps, "sweep diverged at {}", p.signature());
        assert_eq!(got.delayed, solo.delayed, "delayed diverged");
    }
    let stats = batch.stats;

    let miners: Vec<Miner> = grid
        .iter()
        .map(|p| Miner::new(p.clone()).expect("grid point must validate"))
        .collect();
    let mut batch_ns: Vec<u128> = Vec::with_capacity(repeats);
    let mut loop_ns: Vec<u128> = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let t = std::time::Instant::now();
        let out = Miner::mine_sweep(dataset, &grid, None, &cancel).expect("sweep failed");
        batch_ns.push(t.elapsed().as_nanos());
        assert_eq!(out.results.len(), grid.len());
        let t = std::time::Instant::now();
        for m in &miners {
            m.mine(dataset).expect("loop mine failed");
        }
        loop_ns.push(t.elapsed().as_nanos());
    }
    let batch_med = median_ns(&mut batch_ns);
    let loop_med = median_ns(&mut loop_ns);
    Json::from_pairs([
        ("scenario", Json::String("china6_bench_grid".to_string())),
        ("grid_points", Json::Number(grid.len() as f64)),
        (
            "extraction_classes",
            Json::Number(stats.extraction_classes as f64),
        ),
        ("graphs_built", Json::Number(stats.graphs_built as f64)),
        ("search_groups", Json::Number(stats.search_groups as f64)),
        ("sweep_batch_ns", Json::Number(batch_med as f64)),
        ("sweep_loop_ns", Json::Number(loop_med as f64)),
        (
            "speedup",
            Json::Number(loop_med as f64 / (batch_med as f64).max(1.0)),
        ),
        ("identical", Json::Bool(true)),
    ])
}

/// The watch/subscribe storm on a single-shard store vs the default
/// sharded store, reported as the schema-8 `sharded` object. Both arms run
/// the identical storm; the contended arm's single condvar wakes every
/// parked watcher on every bump, which is exactly the thundering herd the
/// per-shard condvars eliminate.
fn snapshot_sharded(smoke: bool) -> Json {
    let cfg = SubscriberConfig {
        datasets: if smoke { 4 } else { 8 },
        watchers_per_dataset: if smoke { 4 } else { 8 },
        bumps_per_dataset: if smoke { 5 } else { 25 },
        ..SubscriberConfig::default()
    };
    let cmp = run_sharded_comparison(
        &cfg,
        miscela_server::DEFAULT_SHARDS,
        if smoke { 2 } else { 5 },
    );
    for arm in [&cmp.contended, &cmp.sharded] {
        assert!(
            arm.wakeups >= arm.watchers,
            "a watcher missed its final revision: {arm:?}"
        );
    }
    cmp.to_json()
}

/// One lossy storm through the resilient client: register → append → mine
/// at snapshot scale over a seeded [`ChaosTransport`], reported as the
/// schema-6 `chaos` object.
fn snapshot_chaos(dataset: &Dataset, smoke: bool) -> Json {
    let writer = DatasetWriter::new();
    let n = dataset.timestamp_count();
    let grid = dataset.grid();
    let split_t = grid.at(n - 16).expect("split on grid");
    let prefix = dataset
        .slice_time(grid.start(), split_t)
        .expect("prefix slice");
    let tail = dataset
        .slice_time(split_t, grid.range().end)
        .expect("tail slice");

    let service = Arc::new(MiscelaService::new());
    let router = Arc::new(Router::new(Arc::clone(&service)));
    let storm = if smoke { 0.15 } else { 0.25 };
    let chaos = ChaosTransport::new(RouterTransport::new(router), ChaosConfig::storm(storm), 42);
    let mut client = ResilientClient::new(chaos, "bench-chaos");

    let t = std::time::Instant::now();
    client
        .register(
            "chaos",
            &writer.location_csv(&prefix),
            &writer.attribute_csv(&prefix),
            &writer.data_csv(&prefix),
            2_000,
        )
        .expect("chaos register must converge");
    client
        .append("chaos", &writer.data_csv(&tail), 500)
        .expect("chaos append must converge");
    let mined = client
        .mine(
            "chaos",
            Json::from_pairs([
                ("epsilon", Json::from(0.4)),
                ("eta_km", Json::from(0.5)),
                ("mu", Json::from(3i64)),
                ("psi", Json::from(20usize)),
                ("segmentation", Json::from(false)),
            ]),
        )
        .expect("chaos mine must converge");
    let workflow_ns = t.elapsed().as_nanos();
    client.transport_mut().drain();

    let cs = client.stats();
    let fs = client.transport().stats();
    let ps = service.protocol_stats();
    let suppressed = ps.key_replays + ps.chunk_duplicates + ps.stale_sessions;
    assert!(fs.total_faults() > 0, "chaos storm injected no faults");
    assert!(
        suppressed > 0,
        "chaos storm exercised no duplicate suppression: {ps:?}"
    );
    assert!(
        mined.get("cap_count").and_then(|c| c.as_i64()).is_some(),
        "chaos mine returned no cap count"
    );
    // Useful fraction of delivery attempts: first tries over all attempts.
    let goodput = (cs.attempts - cs.retries) as f64 / cs.attempts.max(1) as f64;
    Json::from_pairs([
        (
            "scenario",
            Json::String("santander_bench_storm".to_string()),
        ),
        ("storm_probability", Json::Number(storm)),
        ("seed", Json::Number(42.0)),
        ("workflow_ns", Json::Number(workflow_ns as f64)),
        ("attempts", Json::Number(cs.attempts as f64)),
        ("retries", Json::Number(cs.retries as f64)),
        ("losses", Json::Number(cs.losses as f64)),
        (
            "replayed_responses",
            Json::Number(cs.replayed_responses as f64),
        ),
        ("faults_injected", Json::Number(fs.total_faults() as f64)),
        ("key_replays", Json::Number(ps.key_replays as f64)),
        ("chunk_duplicates", Json::Number(ps.chunk_duplicates as f64)),
        ("sequence_gaps", Json::Number(ps.sequence_gaps as f64)),
        ("duplicate_suppressions", Json::Number(suppressed as f64)),
        ("goodput", Json::Number(goodput)),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_pipeline.json".to_string());
    let repeats = if std::env::var_os("MISCELA_BENCH_SMOKE").is_some() {
        2
    } else {
        5
    };

    let santander = santander_bench();
    let china = china6(false);
    let china_params = miscela_bench::china_params();
    // The two `*_seg` scales enable linear segmentation, making
    // `extraction_ns` cover the full step-(1)+(2) front end (the
    // feasible-slope-cone segmenter plus the word-level evolving scan); the
    // plain scales isolate the scan.
    let scales = vec![
        snapshot_scale("santander_bench", &santander, &santander_params(), repeats),
        snapshot_scale(
            "santander_bench_seg",
            &santander,
            &santander_params()
                .with_segmentation(true)
                .with_segmentation_error(0.02),
            repeats,
        ),
        snapshot_scale("china6_bench", &china, &china_params, repeats),
        snapshot_scale(
            "china6_bench_seg",
            &china,
            &china_params
                .clone()
                .with_segmentation(true)
                .with_segmentation_error(0.02),
            repeats,
        ),
    ];

    let smoke = std::env::var_os("MISCELA_BENCH_SMOKE").is_some();
    let overload = snapshot_overload(&santander, smoke);
    let chaos = snapshot_chaos(&santander, smoke);
    let sweep = snapshot_sweep(&china, repeats, smoke);
    let sharded = snapshot_sharded(smoke);

    let doc = Json::from_pairs([
        ("schema", Json::Number(8.0)),
        ("unit", Json::String("nanoseconds".to_string())),
        ("repeats", Json::Number(repeats as f64)),
        ("overload", overload),
        ("chaos", chaos),
        ("sweep", sweep),
        ("sharded", sharded),
        (
            "note",
            Json::String(
                "Median per-step pipeline timings at fixed bench scales; \
                 regenerate with `cargo run --release -p miscela-bench --bin bench_snapshot`."
                    .to_string(),
            ),
        ),
        ("scales", Json::Array(scales)),
    ]);
    let text = doc.to_string_pretty();
    println!("{text}");
    std::fs::write(&out_path, text + "\n").expect("failed to write snapshot");
    eprintln!("wrote {out_path}");
}
