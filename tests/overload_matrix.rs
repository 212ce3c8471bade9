//! The overload/chaos matrix: the proof harness for the serving path's
//! overload protection (deadlines, cooperative cancellation, admission
//! control and graceful degradation).
//!
//! Four properties are exercised end to end through the public service
//! API, each with deterministic fault injection — synchronization is by
//! observable state (admission stats, done flags, fail-point toggles),
//! never by sleeping:
//!
//! 1. With the admission budget held by an in-flight mine, a competing
//!    request is shed with a typed retryable [`ApiError::Overloaded`]
//!    carrying the configured back-off hint; cancelling the in-flight mine
//!    returns a typed [`ApiError::DeadlineExceeded`] and leaves the result
//!    cache clean — the re-mine recomputes and matches an undisturbed
//!    twin's CapSet byte for byte.
//! 2. Under a ~4× oversubscribed storm of cold mines, every response is
//!    either a result or a typed retryable error, admitted-request p99
//!    latency stays bounded by the queue-wait cap plus a generous multiple
//!    of the single-mine baseline, and the controller drains back to zero
//!    in-flight cost.
//! 3. A mid-append durability failure (disk "filling" via
//!    [`FailPoint::exhaust`]) flips the dataset into degraded read-only
//!    mode: appends and retention changes answer with typed retryable
//!    [`ApiError::Unavailable`], mines and reads keep serving, healing the
//!    disk re-arms durability, and a crash + recovery in the middle of the
//!    episode loses no acknowledged row — the final dataset mines
//!    byte-identically to an uninterrupted twin.
//! 4. A concurrent storm interleaving mines, an append feed, retention
//!    flips and delete/re-register churn on a second dataset completes
//!    without deadlock, keeps append revisions strictly monotonic, and the
//!    post-storm re-mine equals a cold twin's mine byte for byte.

use miscela_v::miscela_cache::codec::capset_to_json;
use miscela_v::miscela_core::{CancelToken, CapSet, MiningParams};
use miscela_v::miscela_csv::chunk::Chunk;
use miscela_v::miscela_csv::{split_into_chunks, DatasetWriter};
use miscela_v::miscela_datagen::SantanderGenerator;
use miscela_v::miscela_model::{Dataset, RetentionPolicy};
use miscela_v::miscela_server::{
    AdmissionConfig, ApiError, MineOutcome, MiscelaService, DEFAULT_TENANT,
};
use miscela_v::miscela_store::wal::{FailPoint, FailingOpener};
use miscela_v::miscela_store::Database;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const DATASET: &str = "santander";

fn generate(scale: f64) -> Dataset {
    SantanderGenerator::small().with_scale(scale).generate()
}

fn base_params() -> MiningParams {
    MiningParams::new()
        .with_epsilon(0.4)
        .with_eta_km(0.5)
        .with_psi(20)
        .with_mu(3)
        .with_segmentation(false)
}

/// The `v`-th parameter variant: a distinct result-cache key with
/// near-identical mining cost.
fn variant(v: usize) -> MiningParams {
    base_params().with_epsilon(0.4 + 0.0005 * v as f64)
}

fn mine(svc: &MiscelaService, name: &str, params: &MiningParams) -> Result<MineOutcome, ApiError> {
    svc.mine_cancellable_in(DEFAULT_TENANT, name, params, None, &CancelToken::never())
}

fn upload(svc: &MiscelaService, name: &str, ds: &Dataset) {
    let writer = DatasetWriter::new();
    svc.upload_documents_in(
        DEFAULT_TENANT,
        name,
        &writer.data_csv(ds),
        &writer.location_csv(ds),
        &writer.attribute_csv(ds),
        10_000,
    )
    .expect("fixture upload");
}

fn matrix_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("miscela-overload-matrix-{}", std::process::id()))
        .join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn percentile(samples: &mut [u128], pct: usize) -> u128 {
    assert!(!samples.is_empty());
    samples.sort_unstable();
    samples[(samples.len() - 1) * pct / 100]
}

/// Property 1: shedding is typed while the budget is held, and a cancelled
/// mine leaves the cache in a state where the retry recomputes an answer
/// byte-identical to an undisturbed twin's.
#[test]
fn held_budget_sheds_typed_and_cancelled_mine_re_mines_identically() {
    // A dataset big enough that a cold mine stays observably in flight.
    let ds = generate(0.2);
    let retry_after_ms = 75;
    let svc = MiscelaService::new().with_admission(AdmissionConfig {
        max_cost_units: 64,
        max_per_dataset: 1,
        max_queue_depth: 0,
        max_queue_wait: Duration::from_millis(250),
        retry_after_ms,
    });
    upload(&svc, DATASET, &ds);
    let twin = MiscelaService::new();
    upload(&twin, DATASET, &ds);

    // Catch a cold mine in flight (observed through admission stats), shed
    // a competitor against it, then cancel it. If the mine finishes before
    // we observe it — or between observation and the competing request —
    // the attempt is inconclusive and the next variant retries.
    let mut caught = None;
    for v in 0..40 {
        let params = variant(v);
        let token = CancelToken::new();
        let done = AtomicBool::new(false);
        let (observed, shed, mined) = std::thread::scope(|scope| {
            let miner = scope.spawn(|| {
                let r = svc.mine_cancellable_in(DEFAULT_TENANT, DATASET, &params, None, &token);
                done.store(true, Ordering::SeqCst);
                r
            });
            let mut observed = false;
            while !done.load(Ordering::SeqCst) {
                if svc.admission_stats().in_flight > 0 {
                    observed = true;
                    break;
                }
                std::thread::yield_now();
            }
            let shed = observed.then(|| mine(&svc, DATASET, &variant(1000 + v)));
            token.cancel();
            (observed, shed, miner.join().expect("miner thread panicked"))
        });
        if let (true, Some(Err(shed_err)), Err(mine_err)) = (observed, shed, mined) {
            caught = Some((v, shed_err, mine_err));
            break;
        }
    }
    let (v, shed_err, mine_err) = caught.expect("40 attempts never caught a cold mine in flight");

    assert!(
        matches!(shed_err, ApiError::Overloaded { .. }),
        "competitor was not shed as Overloaded: {shed_err:?}"
    );
    assert!(shed_err.is_retryable());
    // The hint is load-adaptive: at least the configured base, scaled up by
    // the held budget and any queued waiters, never past the 20× ceiling.
    let hint = shed_err.retry_after_ms().expect("shed carries a hint");
    assert!(
        (retry_after_ms..=retry_after_ms * 20).contains(&hint),
        "adaptive hint {hint}ms outside [{retry_after_ms}, {}]",
        retry_after_ms * 20
    );
    assert!(
        matches!(mine_err, ApiError::DeadlineExceeded(_)),
        "cancelled mine was not typed: {mine_err:?}"
    );
    assert!(mine_err.is_retryable());

    let stats = svc.admission_stats();
    assert!(stats.shed >= 1, "shed not accounted: {stats:?}");
    assert_eq!(stats.in_flight, 0, "permits leaked: {stats:?}");
    assert_eq!(stats.queued, 0, "waiters leaked: {stats:?}");

    // The cancelled mine must not have cached a partial result: the retry
    // recomputes (no cache hit) and matches the undisturbed twin exactly.
    let retry = mine(&svc, DATASET, &variant(v)).expect("retry after cancel");
    assert!(!retry.cache_hit, "cancelled mine left a cache entry");
    let expected = mine(&twin, DATASET, &variant(v)).expect("twin mine");
    assert_eq!(
        capset_to_json(&retry.result.caps).to_string(),
        capset_to_json(&expected.result.caps).to_string(),
        "re-mine after cancellation diverged from the undisturbed twin"
    );
    let again = mine(&svc, DATASET, &variant(v)).expect("second retry");
    assert!(again.cache_hit, "completed retry did not cache");
}

/// Property 1b, fully race-free: an already-expired deadline cancels a mine
/// at its first boundary check, deterministically, and the retry still
/// matches a cold twin byte for byte.
#[test]
fn expired_deadline_cancels_deterministically_and_retry_matches_twin() {
    let ds = generate(0.02);
    let svc = MiscelaService::new();
    upload(&svc, DATASET, &ds);
    let twin = MiscelaService::new();
    upload(&twin, DATASET, &ds);

    let err = svc
        .mine_cancellable_in(
            DEFAULT_TENANT,
            DATASET,
            &base_params(),
            Some(Instant::now()),
            &CancelToken::never(),
        )
        .expect_err("expired deadline must not mine");
    assert!(matches!(err, ApiError::DeadlineExceeded(_)), "{err:?}");
    assert!(err.is_retryable());

    let retry = mine(&svc, DATASET, &base_params()).expect("retry");
    assert!(!retry.cache_hit);
    let expected = mine(&twin, DATASET, &base_params()).expect("twin");
    assert_eq!(
        capset_to_json(&retry.result.caps).to_string(),
        capset_to_json(&expected.result.caps).to_string(),
    );
}

/// Property 2: a ~4× oversubscribed storm of cold mines yields only typed
/// outcomes, bounded admitted latency, and a fully drained controller.
#[test]
fn oversubscribed_storm_bounds_admitted_latency() {
    let ds = generate(0.05);
    let queue_wait = Duration::from_millis(250);
    let svc = MiscelaService::new().with_admission(AdmissionConfig {
        max_cost_units: 2,
        max_per_dataset: 2,
        max_queue_depth: 4,
        max_queue_wait: queue_wait,
        retry_after_ms: 50,
    });
    upload(&svc, DATASET, &ds);

    // Single-mine baseline on an idle service (variant no storm client uses).
    let baseline = mine(&svc, DATASET, &variant(5000))
        .expect("baseline mine")
        .elapsed;

    let clients = 8;
    let per_client = 6;
    let latencies = Mutex::new(Vec::new());
    let refused = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for c in 0..clients {
            let latencies = &latencies;
            let refused = &refused;
            let svc = &svc;
            scope.spawn(move || {
                for j in 0..per_client {
                    // Every request a distinct cold variant: no cache hits,
                    // every request faces admission.
                    match mine(svc, DATASET, &variant(c * per_client + j)) {
                        Ok(out) => latencies.lock().unwrap().push(out.elapsed.as_nanos()),
                        Err(e) => {
                            assert!(e.is_retryable(), "untyped storm failure: {e:?}");
                            refused.lock().unwrap().push(e);
                        }
                    }
                }
            });
        }
    });
    let mut latencies = latencies.into_inner().unwrap();
    let refused = refused.into_inner().unwrap();
    assert_eq!(
        latencies.len() + refused.len(),
        clients * per_client,
        "storm lost requests"
    );
    assert!(!latencies.is_empty(), "storm admitted nothing");

    // Admitted requests wait at most `queue_wait` and then mine alongside
    // at most one other cold mine; 50× the idle baseline (floored at 1 ms)
    // is a deliberately generous contention allowance — the property is
    // boundedness, not a precise latency target.
    let p99 = percentile(&mut latencies, 99);
    let bound = queue_wait + 50 * baseline.max(Duration::from_millis(1));
    assert!(
        p99 <= bound.as_nanos(),
        "admitted p99 {p99}ns exceeds bound {}ns (baseline {baseline:?})",
        bound.as_nanos()
    );

    let stats = svc.admission_stats();
    assert_eq!(stats.in_flight, 0, "permits leaked: {stats:?}");
    assert_eq!(stats.in_flight_cost, 0, "cost leaked: {stats:?}");
    assert_eq!(stats.queued, 0, "waiters leaked: {stats:?}");
    assert_eq!(
        stats.shed + stats.deadline_expired,
        refused.len() as u64,
        "refusal accounting diverged: {stats:?}"
    );
}

/// Property 3: a degraded durability episode mid-append — including a crash
/// and recovery inside the episode — serves reads throughout, answers
/// writes with typed retryable errors, re-arms on heal, and loses no
/// acknowledged row.
#[test]
fn degraded_episode_keeps_acked_rows_across_crash() {
    let full = generate(0.02);
    let n = full.timestamp_count();
    let tail_len = 24;
    let split_t = full.grid().at(n - tail_len).unwrap();
    let prefix = full.slice_time(full.grid().start(), split_t).unwrap();
    let tail = full.slice_time(split_t, full.grid().range().end).unwrap();
    let writer = DatasetWriter::new();
    let chunks: Vec<Chunk> = split_into_chunks(&writer.data_csv(&tail), 120);
    assert!(chunks.len() >= 3, "tail must span several chunks");

    // The uninterrupted twin: same upload + append on a plain service.
    let twin = MiscelaService::new();
    upload(&twin, DATASET, &prefix);
    twin.begin_append_keyed_in(DEFAULT_TENANT, DATASET, None)
        .unwrap();
    for chunk in &chunks {
        twin.append_chunk_in(DEFAULT_TENANT, DATASET, chunk)
            .unwrap();
    }
    twin.finish_append_keyed_in(DEFAULT_TENANT, DATASET, None)
        .unwrap();
    let expected = mine(&twin, DATASET, &base_params()).unwrap().result.caps;

    let dir = matrix_dir("degraded");
    let fail = FailPoint::unlimited();
    let opener = Arc::new(FailingOpener::new(fail.clone()));
    let mut svc =
        MiscelaService::with_durability_opener(Arc::new(Database::new()), &dir, opener).unwrap();
    upload(&svc, DATASET, &prefix);
    svc.begin_append_keyed_in(DEFAULT_TENANT, DATASET, None)
        .unwrap();

    let crash_at = chunks.len() - 1;
    for (i, chunk) in chunks.iter().enumerate() {
        if i == 1 {
            // The disk "fills": the next durable write fails and the
            // dataset degrades to read-only.
            fail.exhaust();
            let err = svc
                .append_chunk_in(DEFAULT_TENANT, DATASET, chunk)
                .unwrap_err();
            assert!(matches!(err, ApiError::Unavailable { .. }), "{err:?}");
            assert!(err.is_retryable());
            assert!(err.retry_after_ms().is_some());
            let reason = svc.degraded_reason_in(DEFAULT_TENANT, DATASET);
            assert!(reason.is_some(), "failed write did not degrade");

            // Degraded mode is read-only, not down: mines and stats serve.
            mine(&svc, DATASET, &base_params()).expect("degraded mine");
            svc.dataset_in(DEFAULT_TENANT, DATASET)
                .expect("degraded read");
            // Every durable write path answers typed while degraded.
            let err = svc
                .set_retention_keyed_in(
                    DEFAULT_TENANT,
                    DATASET,
                    RetentionPolicy::keep_last(100_000),
                    None,
                )
                .unwrap_err();
            assert!(matches!(err, ApiError::Unavailable { .. }), "{err:?}");

            // The disk recovers; the probe re-arms durability and the
            // retried chunk lands.
            fail.heal();
            svc.append_chunk_in(DEFAULT_TENANT, DATASET, chunk)
                .expect("retry after heal");
            assert_eq!(
                svc.degraded_reason_in(DEFAULT_TENANT, DATASET),
                None,
                "heal did not re-arm"
            );
        } else {
            svc.append_chunk_in(DEFAULT_TENANT, DATASET, chunk)
                .expect("append chunk");
        }
        if i == crash_at - 1 {
            // Crash in the middle of the session, after the degraded
            // episode: recovery must replay every acknowledged chunk.
            drop(svc);
            svc = MiscelaService::with_durability(&dir).unwrap();
            assert_eq!(svc.degraded_reason_in(DEFAULT_TENANT, DATASET), None);
        }
    }
    let (summary, _, _) = svc
        .finish_append_keyed_in(DEFAULT_TENANT, DATASET, None)
        .expect("finish after episode");
    assert_eq!(summary.revision, 2);

    // One more restart: everything acknowledged must survive recovery and
    // mine identically to the uninterrupted twin.
    drop(svc);
    let svc = MiscelaService::with_durability(&dir).unwrap();
    let recovered = svc.dataset_in(DEFAULT_TENANT, DATASET).unwrap();
    assert_eq!(
        recovered.timestamp_count(),
        n,
        "degraded episode lost acknowledged rows"
    );
    let caps: CapSet = mine(&svc, DATASET, &base_params()).unwrap().result.caps;
    assert_eq!(
        capset_to_json(&caps).to_string(),
        capset_to_json(&expected).to_string(),
        "recovered dataset mined differently from the uninterrupted twin"
    );
    let _ = std::fs::remove_dir_all(&dir);
    // The per-process matrix directory is removed by its only user, and
    // only once empty: removing it from another test raced this one's
    // restarts.
    if let Some(base) = dir.parent() {
        let _ = std::fs::remove_dir(base);
    }
}

/// Property 4 (the concurrency stress satellite): mines, an append feed,
/// retention flips and delete/re-register churn interleaved across threads
/// — no deadlock, strictly monotonic append revisions, and a post-storm
/// re-mine byte-identical to a cold twin fed the same batches.
#[test]
fn concurrent_storm_stays_consistent() {
    let full = generate(0.02);
    let n = full.timestamp_count();
    let batch_count = 4;
    let tail_len = 8 * batch_count;
    let writer = DatasetWriter::new();
    let grid = full.grid();
    let prefix = full
        .slice_time(grid.start(), grid.at(n - tail_len).unwrap())
        .unwrap();
    let batches: Vec<String> = (0..batch_count)
        .map(|b| {
            let lo = n - tail_len + 8 * b;
            let hi_t = if lo + 8 == n {
                grid.range().end
            } else {
                grid.at(lo + 8).unwrap()
            };
            writer.data_csv(&full.slice_time(grid.at(lo).unwrap(), hi_t).unwrap())
        })
        .collect();

    let svc = MiscelaService::new();
    upload(&svc, DATASET, &prefix);
    let scratch = generate(0.01);

    let mine_rounds = 24;
    let churn_rounds = 8;
    let finish_revisions = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        let svc = &svc;
        // Two mining clients with disjoint variant ranges.
        for t in 0..2usize {
            scope.spawn(move || {
                for j in 0..mine_rounds {
                    match mine(svc, DATASET, &variant(t * mine_rounds + j)) {
                        Ok(out) => assert!(out.revision >= 1),
                        Err(e) => assert!(e.is_retryable(), "untyped mine failure: {e:?}"),
                    }
                }
            });
        }
        // The append feed: batches in order. A finish shed by admission
        // leaves the session open (the retried begin sees Conflict and the
        // chunks replay idempotently); a finish that lost a revision race
        // consumed the session without applying it, so the whole round
        // restarts cleanly.
        let finish_revisions = &finish_revisions;
        let batches = &batches;
        scope.spawn(move || {
            for batch in batches {
                let chunks = split_into_chunks(batch, 100);
                let revision = loop {
                    match svc.begin_append_keyed_in(DEFAULT_TENANT, DATASET, None) {
                        Ok(_) | Err(ApiError::Conflict(_)) => {}
                        Err(e) if e.is_retryable() => {
                            std::thread::yield_now();
                            continue;
                        }
                        Err(e) => panic!("append begin failed: {e:?}"),
                    }
                    for chunk in &chunks {
                        svc.append_chunk_in(DEFAULT_TENANT, DATASET, chunk)
                            .expect("append chunk");
                    }
                    match svc.finish_append_keyed_in(DEFAULT_TENANT, DATASET, None) {
                        Ok((summary, _, _)) => break summary.revision,
                        Err(ApiError::BadRequest(msg)) if msg.contains("retry the append") => {
                            std::thread::yield_now();
                        }
                        Err(e) if e.is_retryable() => std::thread::yield_now(),
                        Err(e) => panic!("append finish failed: {e:?}"),
                    }
                };
                finish_revisions.lock().unwrap().push(revision);
            }
        });
        // Retention flips that never trim (the window exceeds any content
        // the storm produces), ending on unbounded so the twin matches.
        // A flip racing an append finish loses the revision re-check with
        // a "retry" response; the flip simply retries.
        scope.spawn(move || {
            let flip = |policy: fn() -> RetentionPolicy| loop {
                match svc.set_retention_keyed_in(DEFAULT_TENANT, DATASET, policy(), None) {
                    Ok(_) => break,
                    Err(ApiError::BadRequest(msg)) if msg.contains("retry") => {
                        std::thread::yield_now();
                    }
                    Err(e) if e.is_retryable() => std::thread::yield_now(),
                    Err(e) => panic!("retention flip failed: {e:?}"),
                }
            };
            for _ in 0..churn_rounds {
                flip(|| RetentionPolicy::keep_last(1_000_000));
                flip(RetentionPolicy::unbounded);
            }
        });
        // Delete/re-register churn on a second dataset.
        let scratch = &scratch;
        scope.spawn(move || {
            for _ in 0..churn_rounds {
                upload(svc, "scratch", scratch);
                match mine(svc, "scratch", &base_params()) {
                    Ok(_) => {}
                    Err(e) => assert!(e.is_retryable(), "scratch mine failed: {e:?}"),
                }
                svc.delete_dataset_keyed_in(DEFAULT_TENANT, "scratch", None)
                    .expect("scratch delete");
            }
        });
    });

    let finish_revisions = finish_revisions.into_inner().unwrap();
    assert_eq!(finish_revisions.len(), batch_count);
    assert!(
        finish_revisions.windows(2).all(|w| w[0] < w[1]),
        "append revisions were not strictly monotonic: {finish_revisions:?}"
    );
    assert_eq!(
        svc.dataset_in(DEFAULT_TENANT, DATASET)
            .unwrap()
            .timestamp_count(),
        n
    );

    // Post-storm re-mine equals a cold twin fed the same batches in order.
    let twin = MiscelaService::new();
    upload(&twin, DATASET, &prefix);
    for batch in &batches {
        twin.append_documents_in(DEFAULT_TENANT, DATASET, batch, 100)
            .unwrap();
    }
    let post = mine(&svc, DATASET, &variant(9999)).unwrap().result.caps;
    let cold = mine(&twin, DATASET, &variant(9999)).unwrap().result.caps;
    assert_eq!(
        capset_to_json(&post).to_string(),
        capset_to_json(&cold).to_string(),
        "post-storm re-mine diverged from the cold twin"
    );
}
