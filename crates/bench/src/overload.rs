//! The shared overload-load harness behind the `load_generator` binary and
//! `bench_snapshot`'s schema-5 `overload` summary.
//!
//! [`run_load`] drives a [`MiscelaService`] with `clients` concurrent mining
//! clients, each issuing `requests_per_client` requests whose parameters
//! cycle through `param_variants` distinct cache keys (so the storm mixes
//! cold mines, cache hits and — once the admission budget fills — shed
//! requests). Every `deadline_every`-th request carries a wall-clock
//! deadline. The harness classifies each response (completed, cache hit,
//! shed, deadline exceeded), records admitted-request latency, and folds
//! the storm into a [`LoadSummary`]: p50/p99 latency of admitted requests,
//! shed rate and goodput.
//!
//! Any response that is neither success nor a *typed retryable* overload
//! error fails the run — the harness doubles as a check that the serving
//! path never leaks panics or untyped errors under pressure.

use miscela_core::{CancelToken, MiningParams};
use miscela_model::{Dataset, DatasetBuilder, GeoPoint, SensorId, TimeGrid, Timestamp};
use miscela_server::{ApiError, MiscelaService, SweepServed, DEFAULT_TENANT};
use miscela_store::Json;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Shape of one load storm.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent client threads.
    pub clients: usize,
    /// Requests each client issues.
    pub requests_per_client: usize,
    /// Distinct parameter variants (distinct result-cache keys) the
    /// clients cycle through. `1` makes every request after the first a
    /// cache hit; larger values keep the miner busy.
    pub param_variants: usize,
    /// Every n-th request of each client carries a deadline (`0` = never).
    pub deadline_every: usize,
    /// The deadline attached to deadline-carrying requests.
    pub deadline: Duration,
    /// Every n-th request of each client is a batch parameter sweep over
    /// [`LoadConfig::sweep_points`] ψ-variants instead of a solo mine
    /// (`0` = never). Sweeps go through the same admission gate, charged
    /// once at grid-scaled cost, so they compete with solo mines for the
    /// budget.
    pub sweep_every: usize,
    /// Grid points per sweep request.
    pub sweep_points: usize,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            clients: 8,
            requests_per_client: 8,
            param_variants: 6,
            deadline_every: 4,
            deadline: Duration::from_millis(50),
            sweep_every: 0,
            sweep_points: 4,
        }
    }
}

/// Outcome counters and latency percentiles of one load storm.
#[derive(Debug, Clone)]
pub struct LoadSummary {
    /// Requests issued in total.
    pub requests: u64,
    /// Requests that returned a mining result.
    pub completed: u64,
    /// Completed requests served from the result cache.
    pub cache_hits: u64,
    /// Requests shed by admission control ([`ApiError::Overloaded`]).
    pub shed: u64,
    /// Requests that hit their deadline ([`ApiError::DeadlineExceeded`]).
    pub deadline_exceeded: u64,
    /// Completed requests that were batch sweeps.
    pub sweeps: u64,
    /// Median latency of completed requests, nanoseconds.
    pub completed_p50_ns: u128,
    /// 99th-percentile latency of completed requests, nanoseconds.
    pub completed_p99_ns: u128,
    /// Wall-clock duration of the whole storm, nanoseconds.
    pub wall_ns: u128,
    /// Completed requests per wall-clock second.
    pub goodput_per_sec: f64,
    /// Fraction of requests shed or expired instead of served.
    pub shed_rate: f64,
}

impl LoadSummary {
    /// The summary as a JSON object (the shape `bench_snapshot` embeds and
    /// `load_generator` prints).
    pub fn to_json(&self) -> Json {
        Json::from_pairs([
            ("requests", Json::Number(self.requests as f64)),
            ("completed", Json::Number(self.completed as f64)),
            ("cache_hits", Json::Number(self.cache_hits as f64)),
            ("shed", Json::Number(self.shed as f64)),
            (
                "deadline_exceeded",
                Json::Number(self.deadline_exceeded as f64),
            ),
            ("sweeps", Json::Number(self.sweeps as f64)),
            (
                "completed_p50_ns",
                Json::Number(self.completed_p50_ns as f64),
            ),
            (
                "completed_p99_ns",
                Json::Number(self.completed_p99_ns as f64),
            ),
            ("wall_ns", Json::Number(self.wall_ns as f64)),
            ("goodput_per_sec", Json::Number(self.goodput_per_sec)),
            ("shed_rate", Json::Number(self.shed_rate)),
        ])
    }
}

/// The percentile of a sorted-in-place sample vector (nearest-rank on the
/// zero-based index). Empty samples report 0.
pub fn percentile_ns(samples: &mut [u128], pct: u32) -> u128 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let idx = (samples.len() - 1) * pct as usize / 100;
    samples[idx]
}

/// The `v`-th parameter variant of `base`: a distinct result-cache key with
/// near-identical mining cost (epsilon nudged by a hair per variant).
pub fn param_variant(base: &MiningParams, v: usize) -> MiningParams {
    base.clone().with_epsilon(base.epsilon + 0.0005 * v as f64)
}

/// Runs one load storm against `dataset` on `svc` and summarizes it.
///
/// # Panics
///
/// Panics when the service answers with anything other than a mining
/// result or a typed retryable overload error — an untyped failure under
/// load is exactly the bug this harness exists to catch.
pub fn run_load(
    svc: &MiscelaService,
    dataset: &str,
    base: &MiningParams,
    cfg: &LoadConfig,
) -> LoadSummary {
    #[derive(Default)]
    struct Tally {
        completed: u64,
        cache_hits: u64,
        shed: u64,
        deadline_exceeded: u64,
        sweeps: u64,
        latencies_ns: Vec<u128>,
    }
    let tally = Mutex::new(Tally::default());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..cfg.clients {
            let tally = &tally;
            scope.spawn(move || {
                let mut local = Tally::default();
                for j in 0..cfg.requests_per_client {
                    let params = param_variant(base, (client + j) % cfg.param_variants.max(1));
                    let deadline = (cfg.deadline_every > 0 && j % cfg.deadline_every == 0)
                        .then(|| Instant::now() + cfg.deadline);
                    let sweep = cfg.sweep_every > 0 && j % cfg.sweep_every == 0;
                    let outcome = if sweep {
                        // ψ-variants of the same base: one extraction
                        // class and one spatial graph, the sweep-friendly
                        // shape real tuning grids have.
                        let points: Vec<MiningParams> = (0..cfg.sweep_points.max(1))
                            .map(|v| params.clone().with_psi(params.psi + v))
                            .collect();
                        let t = Instant::now();
                        svc.mine_sweep_in(
                            DEFAULT_TENANT,
                            dataset,
                            &points,
                            deadline,
                            &CancelToken::never(),
                            None,
                        )
                        .map(|served| match served {
                            SweepServed::Replayed(_) => {
                                unreachable!("keyless sweep cannot replay")
                            }
                            SweepServed::Fresh(out) => {
                                (out.cache_hits.iter().all(|&h| h), t.elapsed())
                            }
                        })
                    } else {
                        svc.mine_cancellable_in(
                            DEFAULT_TENANT,
                            dataset,
                            &params,
                            deadline,
                            &CancelToken::never(),
                        )
                        .map(|out| (out.cache_hit, out.elapsed))
                    };
                    match outcome {
                        Ok((cache_hit, elapsed)) => {
                            local.completed += 1;
                            local.cache_hits += u64::from(cache_hit);
                            local.sweeps += u64::from(sweep);
                            local.latencies_ns.push(elapsed.as_nanos());
                        }
                        Err(e @ ApiError::Overloaded { .. }) => {
                            assert!(e.is_retryable() && e.retry_after_ms().is_some());
                            local.shed += 1;
                        }
                        Err(e @ ApiError::DeadlineExceeded(_)) => {
                            assert!(e.is_retryable());
                            local.deadline_exceeded += 1;
                        }
                        Err(e) => panic!("untyped failure under load: {e:?}"),
                    }
                }
                let mut tally = tally.lock().unwrap();
                tally.completed += local.completed;
                tally.cache_hits += local.cache_hits;
                tally.shed += local.shed;
                tally.deadline_exceeded += local.deadline_exceeded;
                tally.sweeps += local.sweeps;
                tally.latencies_ns.extend(local.latencies_ns);
            });
        }
    });
    let wall_ns = started.elapsed().as_nanos();
    let mut tally = tally.into_inner().unwrap();
    let requests = (cfg.clients * cfg.requests_per_client) as u64;
    let refused = tally.shed + tally.deadline_exceeded;
    LoadSummary {
        requests,
        completed: tally.completed,
        cache_hits: tally.cache_hits,
        shed: tally.shed,
        deadline_exceeded: tally.deadline_exceeded,
        sweeps: tally.sweeps,
        completed_p50_ns: percentile_ns(&mut tally.latencies_ns, 50),
        completed_p99_ns: percentile_ns(&mut tally.latencies_ns, 99),
        wall_ns,
        goodput_per_sec: tally.completed as f64 / (wall_ns as f64 / 1e9).max(1e-9),
        shed_rate: refused as f64 / requests.max(1) as f64,
    }
}

/// Shape of one watch/subscribe storm: a fleet of watchers parked on the
/// long-poll feed while one bumper drives revision bumps through every
/// dataset.
#[derive(Debug, Clone)]
pub struct SubscriberConfig {
    /// Tiny datasets registered for the storm (hashed across shards).
    pub datasets: usize,
    /// Watcher threads parked on each dataset's watch feed.
    pub watchers_per_dataset: usize,
    /// Revision bumps driven through each dataset.
    pub bumps_per_dataset: usize,
    /// Long-poll deadline each watch call carries.
    pub watch_deadline: Duration,
}

impl Default for SubscriberConfig {
    fn default() -> Self {
        SubscriberConfig {
            datasets: 8,
            watchers_per_dataset: 8,
            bumps_per_dataset: 25,
            watch_deadline: Duration::from_millis(500),
        }
    }
}

/// Outcome counters and wakeup latencies of one subscriber storm.
#[derive(Debug, Clone)]
pub struct SubscriberSummary {
    /// Datasets the storm registered and bumped.
    pub datasets: u64,
    /// Watcher threads parked across all datasets.
    pub watchers: u64,
    /// Revision bumps driven in total.
    pub bumps: u64,
    /// `changed` watch replies observed across all watchers.
    pub wakeups: u64,
    /// Median bump-to-wakeup latency, nanoseconds.
    pub wakeup_p50_ns: u128,
    /// 99th-percentile bump-to-wakeup latency, nanoseconds.
    pub wakeup_p99_ns: u128,
    /// Wall-clock duration of the storm (bumps plus watcher drain).
    pub wall_ns: u128,
    /// Revision bumps per wall-clock second.
    pub bumps_per_sec: f64,
}

impl SubscriberSummary {
    /// The summary as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::from_pairs([
            ("datasets", Json::Number(self.datasets as f64)),
            ("watchers", Json::Number(self.watchers as f64)),
            ("bumps", Json::Number(self.bumps as f64)),
            ("wakeups", Json::Number(self.wakeups as f64)),
            ("wakeup_p50_ns", Json::Number(self.wakeup_p50_ns as f64)),
            ("wakeup_p99_ns", Json::Number(self.wakeup_p99_ns as f64)),
            ("wall_ns", Json::Number(self.wall_ns as f64)),
            ("bumps_per_sec", Json::Number(self.bumps_per_sec)),
        ])
    }
}

/// A minimal registrable dataset (two sensors, four timestamps) whose
/// re-registration is a near-free revision bump — the storm's cost is the
/// watcher wakeups, not the content swap.
pub fn tiny_watch_dataset(name: &str) -> Dataset {
    let mut b = DatasetBuilder::new(name);
    let grid =
        TimeGrid::new(Timestamp::EPOCH, miscela_model::Duration::hours(1), 4).expect("tiny grid");
    b.set_grid(grid.clone());
    b.add_sensor("s1", "temperature", GeoPoint::new_unchecked(43.0, -3.0))
        .expect("tiny sensor");
    b.add_sensor("s2", "traffic", GeoPoint::new_unchecked(43.001, -3.001))
        .expect("tiny sensor");
    let s1 = SensorId::from("s1");
    let s2 = SensorId::from("s2");
    for i in 0..grid.len() {
        let t = grid.at(i).expect("grid point");
        b.add_measurement(&s1, "temperature", t, Some(10.0 + i as f64))
            .expect("tiny measurement");
        b.add_measurement(&s2, "traffic", t, Some(100.0 - i as f64))
            .expect("tiny measurement");
    }
    b.build().expect("tiny dataset")
}

/// Runs one subscriber storm against `svc` and summarizes it.
///
/// Registers [`SubscriberConfig::datasets`] tiny datasets, parks
/// [`SubscriberConfig::watchers_per_dataset`] watcher threads on each
/// dataset's watch feed, then drives
/// [`SubscriberConfig::bumps_per_dataset`] revision bumps round-robin
/// through every dataset. Each bump is stamped just before it publishes,
/// so a watcher waking on revision `r` can report the bump-to-wakeup
/// latency for `r` exactly. Watchers run a pure watch loop — no mining,
/// no polling reads — and exit once they have observed the final revision.
///
/// # Panics
///
/// Panics when a watch call fails: the storm only ever bumps revisions of
/// registered datasets, so any error is a wakeup-path bug.
pub fn run_subscriber_storm(svc: &MiscelaService, cfg: &SubscriberConfig) -> SubscriberSummary {
    let final_rev = 1 + cfg.bumps_per_dataset as u64;
    let datasets: Vec<Dataset> = (0..cfg.datasets)
        .map(|d| tiny_watch_dataset(&format!("ws-{d}")))
        .collect();
    for ds in &datasets {
        svc.register_dataset_keyed_in(DEFAULT_TENANT, ds.clone(), None)
            .expect("register watched dataset");
    }
    // bump_times[d][r] is the instant just before the bump that published
    // revision r of dataset d; written before the bump, so any watcher
    // that can see revision r can also see its stamp.
    let bump_times: Vec<Mutex<Vec<Option<Instant>>>> = (0..cfg.datasets)
        .map(|_| Mutex::new(vec![None; final_rev as usize + 1]))
        .collect();
    let latencies = Mutex::new(Vec::new());
    // Bumping only starts once every watcher is at its first watch call:
    // otherwise on a busy machine the bumps can outrun thread spawning and
    // the wall clock measures spawn latency instead of wakeup traffic.
    let ready = AtomicUsize::new(0);
    let mut started = Instant::now();
    std::thread::scope(|scope| {
        for (d, ds) in datasets.iter().enumerate() {
            for _ in 0..cfg.watchers_per_dataset {
                let latencies = &latencies;
                let bump_times = &bump_times;
                let ready = &ready;
                scope.spawn(move || {
                    let mut local: Vec<u128> = Vec::new();
                    let mut last = 1u64;
                    let mut first = true;
                    while last < final_rev {
                        if std::mem::take(&mut first) {
                            ready.fetch_add(1, Ordering::SeqCst);
                        }
                        let deadline = Instant::now() + cfg.watch_deadline;
                        match svc.watch_in(DEFAULT_TENANT, ds.name(), last, deadline) {
                            Ok(out) => {
                                if out.changed {
                                    let woke = Instant::now();
                                    let stamp =
                                        bump_times[d].lock().unwrap()[out.revision as usize];
                                    let stamp = stamp.expect("observed revision was stamped");
                                    local.push(woke.duration_since(stamp).as_nanos());
                                    last = out.revision;
                                }
                            }
                            Err(e) => panic!("watch failed during subscriber storm: {e:?}"),
                        }
                    }
                    latencies.lock().unwrap().extend(local);
                });
            }
        }
        let total = cfg.datasets * cfg.watchers_per_dataset;
        while ready.load(Ordering::SeqCst) < total {
            std::thread::yield_now();
        }
        // Give the announced watchers a beat to actually park.
        std::thread::sleep(Duration::from_millis(5));
        started = Instant::now();
        for r in 2..=final_rev {
            for (d, ds) in datasets.iter().enumerate() {
                bump_times[d].lock().unwrap()[r as usize] = Some(Instant::now());
                svc.register_dataset_keyed_in(DEFAULT_TENANT, ds.clone(), None)
                    .expect("re-register watched dataset");
            }
        }
    });
    let wall_ns = started.elapsed().as_nanos();
    let mut latencies = latencies.into_inner().unwrap();
    let bumps = (cfg.datasets * cfg.bumps_per_dataset) as u64;
    SubscriberSummary {
        datasets: cfg.datasets as u64,
        watchers: (cfg.datasets * cfg.watchers_per_dataset) as u64,
        bumps,
        wakeups: latencies.len() as u64,
        wakeup_p50_ns: percentile_ns(&mut latencies, 50),
        wakeup_p99_ns: percentile_ns(&mut latencies, 99),
        wall_ns,
        bumps_per_sec: bumps as f64 / (wall_ns as f64 / 1e9).max(1e-9),
    }
}

/// The identical subscriber storm run against a single-shard store (one
/// lock, one condvar — every bump wakes every parked watcher) and a
/// sharded store (bumps wake only the target shard's cohort), on fresh
/// services.
#[derive(Debug, Clone)]
pub struct ShardedComparison {
    /// Shard count of the contended arm (always 1).
    pub contended_shards: usize,
    /// Shard count of the sharded arm.
    pub sharded_shards: usize,
    /// Storm summary on the single-shard store.
    pub contended: SubscriberSummary,
    /// Storm summary on the sharded store.
    pub sharded: SubscriberSummary,
    /// `contended.wall_ns / sharded.wall_ns`.
    pub speedup: f64,
}

impl ShardedComparison {
    /// The comparison as a JSON object (the shape `bench_snapshot` embeds
    /// as the schema-8 `sharded` object).
    pub fn to_json(&self) -> Json {
        Json::from_pairs([
            (
                "contended_shards",
                Json::Number(self.contended_shards as f64),
            ),
            ("sharded_shards", Json::Number(self.sharded_shards as f64)),
            (
                "contended_wall_ns",
                Json::Number(self.contended.wall_ns as f64),
            ),
            ("sharded_wall_ns", Json::Number(self.sharded.wall_ns as f64)),
            ("speedup", Json::Number(self.speedup)),
            (
                "watch_wakeup_p99_ns",
                Json::Number(self.sharded.wakeup_p99_ns as f64),
            ),
            ("contended", self.contended.to_json()),
            ("sharded", self.sharded.to_json()),
        ])
    }
}

/// Runs the subscriber storm on a single-shard store and on a
/// `sharded_shards`-shard store, alternating arms for `repeats` rounds on
/// fresh services, and reports each arm's least-disturbed (minimum-wall)
/// round — storm walls are tens of milliseconds, so a single scheduler
/// hiccup would otherwise swamp the comparison. On any core count the
/// single-shard arm pays the thundering herd: every bump wakes every
/// parked watcher in the process, each of which re-checks its predicate
/// and parks again, while the sharded arm wakes only the watchers sharing
/// the bumped dataset's shard.
pub fn run_sharded_comparison(
    cfg: &SubscriberConfig,
    sharded_shards: usize,
    repeats: usize,
) -> ShardedComparison {
    let best = |best: Option<SubscriberSummary>, run: SubscriberSummary| match best {
        Some(b) if b.wall_ns <= run.wall_ns => Some(b),
        _ => Some(run),
    };
    let mut contended: Option<SubscriberSummary> = None;
    let mut sharded: Option<SubscriberSummary> = None;
    for _ in 0..repeats.max(1) {
        let svc = MiscelaService::new().with_shards(1);
        contended = best(contended, run_subscriber_storm(&svc, cfg));
        let svc = MiscelaService::new().with_shards(sharded_shards);
        sharded = best(sharded, run_subscriber_storm(&svc, cfg));
    }
    let contended = contended.expect("at least one round");
    let sharded = sharded.expect("at least one round");
    let speedup = contended.wall_ns as f64 / (sharded.wall_ns as f64).max(1.0);
    ShardedComparison {
        contended_shards: 1,
        sharded_shards,
        contended,
        sharded,
        speedup,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miscela_server::AdmissionConfig;

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut s: Vec<u128> = (1..=100).collect();
        assert_eq!(percentile_ns(&mut s, 50), 50);
        assert_eq!(percentile_ns(&mut s, 99), 99);
        assert_eq!(percentile_ns(&mut s, 100), 100);
        assert_eq!(percentile_ns(&mut [], 99), 0);
    }

    #[test]
    fn variants_produce_distinct_cache_keys() {
        let base = crate::santander_params();
        let a = param_variant(&base, 0);
        let b = param_variant(&base, 3);
        assert_eq!(a.epsilon, base.epsilon);
        assert!(b.epsilon > a.epsilon);
    }

    #[test]
    fn a_small_storm_accounts_for_every_request() {
        let ds = crate::santander_bench();
        let writer = miscela_csv::DatasetWriter::new();
        let svc = MiscelaService::new().with_admission(AdmissionConfig {
            max_queue_wait: Duration::from_millis(500),
            ..AdmissionConfig::default()
        });
        svc.upload_documents_in(
            DEFAULT_TENANT,
            "santander",
            &writer.data_csv(&ds),
            &writer.location_csv(&ds),
            &writer.attribute_csv(&ds),
            10_000,
        )
        .unwrap();
        let cfg = LoadConfig {
            clients: 3,
            requests_per_client: 3,
            param_variants: 2,
            deadline_every: 0,
            deadline: Duration::from_millis(50),
            sweep_every: 3,
            sweep_points: 3,
        };
        let summary = run_load(&svc, "santander", &crate::santander_params(), &cfg);
        assert_eq!(summary.requests, 9);
        assert_eq!(
            summary.completed + summary.shed + summary.deadline_exceeded,
            9
        );
        assert!(summary.completed >= 1);
        // Every client's j=0 request was a 3-point sweep; each either
        // completed or was refused with a typed error, never dropped.
        assert!(summary.sweeps + summary.shed + summary.deadline_exceeded >= 3);
        let text = summary.to_json().to_string();
        assert!(text.contains("\"completed_p99_ns\""));
        assert!(text.contains("\"sweeps\""));
    }

    #[test]
    fn a_small_subscriber_storm_wakes_every_watcher() {
        let cfg = SubscriberConfig {
            datasets: 2,
            watchers_per_dataset: 2,
            bumps_per_dataset: 3,
            watch_deadline: Duration::from_millis(200),
        };
        let svc = MiscelaService::new();
        let summary = run_subscriber_storm(&svc, &cfg);
        assert_eq!(summary.datasets, 2);
        assert_eq!(summary.watchers, 4);
        assert_eq!(summary.bumps, 6);
        // Every watcher observed at least the final revision of its
        // dataset, so there are at least as many wakeups as watchers.
        assert!(summary.wakeups >= summary.watchers);
        assert!(summary.wakeup_p99_ns >= summary.wakeup_p50_ns);
        let cmp = run_sharded_comparison(&cfg, miscela_server::DEFAULT_SHARDS, 1);
        assert_eq!(cmp.contended_shards, 1);
        assert!(cmp.speedup > 0.0);
        let text = cmp.to_json().to_string();
        assert!(text.contains("\"contended_wall_ns\""));
        assert!(text.contains("\"watch_wakeup_p99_ns\""));
    }
}
