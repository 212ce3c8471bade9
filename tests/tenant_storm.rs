//! Multi-tenant storm over the sharded store: M tenants × K datasets with
//! concurrent appends, mines, watches, retention trims and deletes.
//!
//! What the storm must prove:
//!
//! * **Monotonic revisions** — every writer and every watcher observes a
//!   strictly increasing revision sequence per dataset; no bump is lost or
//!   reordered across shard locks.
//! * **Watch, not poll** — a subscriber learns of an append-driven revision
//!   bump through `watch` alone; the watcher threads issue zero mine calls
//!   (counted and asserted).
//! * **Typed close** — deleting a dataset wakes its parked watchers with
//!   the `NotFound` close instead of leaving them parked until deadline.
//! * **No cross-tenant visibility** — each tenant's listing contains
//!   exactly its own datasets, and each dataset's content matches the
//!   tenant's own ingest, not a neighbour's.
//! * **Deterministic content** — after the storm, re-mining every
//!   surviving dataset equals a cold twin rebuilt from the same documents
//!   on a fresh single-tenant service, byte for byte.

use miscela_v::miscela_core::{CancelToken, MiningParams};
use miscela_v::miscela_csv::DatasetWriter;
use miscela_v::miscela_datagen::SantanderGenerator;
use miscela_v::miscela_model::{Dataset, RetentionPolicy};
use miscela_v::miscela_server::message::ApiError;
use miscela_v::miscela_server::{MiscelaService, DEFAULT_TENANT};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

const TENANTS: [&str; 3] = ["acme", "globex", "initech"];
const DATASETS_PER_TENANT: usize = 3;
const APPENDS_PER_DATASET: usize = 3;
/// Timestamps fed to the dataset by each append slice.
const APPEND_STEP: usize = 8;

fn quick_params() -> MiningParams {
    MiningParams::new()
        .with_epsilon(0.4)
        .with_eta_km(0.5)
        .with_psi(20)
        .with_mu(3)
        .with_segmentation(false)
}

/// Deterministic per-(tenant, dataset) content: each gets a different
/// sensor scale, so cross-tenant leakage would be visible as a wrong
/// record count or CAP set, not silently identical data.
fn full_dataset(tenant_idx: usize, ds_idx: usize) -> Dataset {
    let scale = 0.02 + 0.004 * (tenant_idx * DATASETS_PER_TENANT + ds_idx) as f64;
    SantanderGenerator::small().with_scale(scale).generate()
}

/// The deterministic ingest plan for one dataset: the prefix documents to
/// register, the tail documents to append (in order), and whether a
/// retention trim follows.
struct Plan {
    name: String,
    location_csv: String,
    attribute_csv: String,
    prefix_csv: String,
    tail_csvs: Vec<String>,
    trim_to: Option<usize>,
    expected_records: usize,
}

fn plan_for(tenant_idx: usize, ds_idx: usize) -> Plan {
    let full = full_dataset(tenant_idx, ds_idx);
    let writer = DatasetWriter::new();
    let n = full.timestamp_count();
    let grid = full.grid();
    let mut cuts = Vec::new();
    for a in (0..=APPENDS_PER_DATASET).rev() {
        cuts.push(grid.at(n - a * APPEND_STEP - 1).unwrap());
    }
    let prefix = full.slice_time(grid.start(), cuts[0]).unwrap();
    let tail_csvs = (0..APPENDS_PER_DATASET)
        .map(|i| {
            let upper = if i + 1 == APPENDS_PER_DATASET {
                grid.range().end
            } else {
                cuts[i + 1]
            };
            writer.data_csv(&full.slice_time(cuts[i], upper).unwrap())
        })
        .collect();
    Plan {
        name: format!("d{ds_idx}"),
        location_csv: writer.location_csv(&prefix),
        attribute_csv: writer.attribute_csv(&prefix),
        prefix_csv: writer.data_csv(&prefix),
        tail_csvs,
        // The middle dataset of every tenant gets a post-storm retention
        // trim; the last one gets deleted under parked watchers.
        trim_to: (ds_idx == 1).then_some(n - APPEND_STEP),
        expected_records: full.record_count(),
    }
}

/// Runs the plan's mutations against a service, retrying typed overload
/// sheds (the storm intentionally runs many writers over one admission
/// budget). Returns the revision after each mutation.
fn run_plan(svc: &MiscelaService, tenant: &str, plan: &Plan) -> Vec<u64> {
    let mut revisions = Vec::new();
    svc.upload_documents_in(
        tenant,
        &plan.name,
        &plan.prefix_csv,
        &plan.location_csv,
        &plan.attribute_csv,
        5_000,
    )
    .unwrap();
    revisions.push(svc.dataset_revision_in(tenant, &plan.name).unwrap());
    for tail in &plan.tail_csvs {
        let summary = loop {
            match svc.append_documents_in(tenant, &plan.name, tail, 1_000) {
                Ok(summary) => break summary,
                Err(ApiError::Overloaded { .. }) => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(other) => panic!("append failed: {other:?}"),
            }
        };
        revisions.push(summary.revision);
    }
    if let Some(keep) = plan.trim_to {
        let mut policy = RetentionPolicy::unbounded();
        policy.max_timestamps = Some(keep);
        let (summary, _) = svc
            .set_retention_keyed_in(tenant, &plan.name, policy, None)
            .unwrap();
        if summary.trimmed_timestamps > 0 {
            revisions.push(summary.revision);
        }
    }
    revisions
}

#[test]
fn tenant_storm_keeps_namespaces_isolated_and_revisions_monotonic() {
    let svc = MiscelaService::new();
    let plans: Vec<Vec<Plan>> = (0..TENANTS.len())
        .map(|t| (0..DATASETS_PER_TENANT).map(|d| plan_for(t, d)).collect())
        .collect();

    let done = AtomicBool::new(false);
    // Watchers never mine; this counter existing (and staying zero) makes
    // the "revision bumps arrive via watch, not mine polls" claim explicit.
    let watcher_mine_polls = AtomicU64::new(0);
    let watch_bumps = AtomicU64::new(0);
    let typed_closes = AtomicU64::new(0);
    // Watchers that have seen at least one revision. A watcher counts a
    // close only after a revision, so the deletes wait for every watcher
    // to get here: a dataset whose writer finishes last may otherwise be
    // deleted before its watcher ever polled it.
    let primed_watchers = AtomicU64::new(0);
    let watchers = (TENANTS.len() * DATASETS_PER_TENANT) as u64;

    std::thread::scope(|s| {
        // One watcher per (tenant, dataset): a pure watch loop that must
        // observe a strictly increasing revision sequence and, for the
        // deleted dataset, end in the typed close.
        for (t, tenant) in TENANTS.iter().enumerate() {
            for plan in &plans[t] {
                let svc = &svc;
                let done = &done;
                let watch_bumps = &watch_bumps;
                let typed_closes = &typed_closes;
                let primed_watchers = &primed_watchers;
                let name = plan.name.clone();
                s.spawn(move || {
                    let mut last = 0u64;
                    loop {
                        let deadline = Instant::now() + Duration::from_millis(200);
                        match svc.watch_in(tenant, &name, last, deadline) {
                            Ok(out) => {
                                if out.changed {
                                    assert!(
                                        out.revision > last,
                                        "watcher saw revision go {last} -> {} on \
                                         {tenant}/{name}",
                                        out.revision
                                    );
                                    if last == 0 {
                                        primed_watchers.fetch_add(1, Ordering::Relaxed);
                                    }
                                    last = out.revision;
                                    watch_bumps.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            Err(ApiError::NotFound(msg)) => {
                                // Before registration the dataset is absent;
                                // only a close after a bump counts as the
                                // delete waking parked watchers.
                                if last > 0 {
                                    assert!(msg.contains("watch closed"), "{msg}");
                                    typed_closes.fetch_add(1, Ordering::Relaxed);
                                    return;
                                }
                                std::thread::sleep(Duration::from_millis(1));
                            }
                            Err(other) => panic!("watch failed: {other:?}"),
                        }
                        if done.load(Ordering::Relaxed) {
                            return;
                        }
                    }
                });
            }
        }
        // A few miners reading whatever exists mid-storm: mines must never
        // affect revisions and shed/miss errors are expected noise.
        for (t, tenant) in TENANTS.iter().enumerate() {
            let svc = &svc;
            let done = &done;
            let name = plans[t][0].name.clone();
            s.spawn(move || {
                let params = quick_params();
                while !done.load(Ordering::Relaxed) {
                    match svc.mine_cancellable_in(
                        tenant,
                        &name,
                        &params,
                        None,
                        &CancelToken::never(),
                    ) {
                        Ok(_)
                        | Err(ApiError::NotFound(_))
                        | Err(ApiError::Overloaded { .. })
                        | Err(ApiError::DeadlineExceeded(_)) => {}
                        Err(other) => panic!("mine failed: {other:?}"),
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            });
        }
        // Writers: the full deterministic ingest per dataset, concurrently
        // across all tenants, asserting strictly monotonic revisions.
        let mut writers = Vec::new();
        for (t, tenant) in TENANTS.iter().enumerate() {
            for plan in &plans[t] {
                let svc = &svc;
                writers.push(s.spawn(move || {
                    let revisions = run_plan(svc, tenant, plan);
                    assert!(
                        revisions.windows(2).all(|w| w[1] > w[0]),
                        "revisions not strictly monotonic on {tenant}/{}: {revisions:?}",
                        plan.name
                    );
                }));
            }
        }
        for w in writers {
            w.join().unwrap();
        }
        // Waits for `reached` with a deadline. On a timeout it releases the
        // watcher and miner threads first, so the scope can join them and
        // the test fails with the message instead of hanging.
        let wait_until = |what: &str, reached: &dyn Fn() -> bool| {
            let deadline = Instant::now() + Duration::from_secs(30);
            while !reached() {
                if Instant::now() >= deadline {
                    done.store(true, Ordering::Relaxed);
                    panic!("timed out after 30 s waiting for {what}");
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        // All writers done: once every watcher has seen a revision, delete
        // every tenant's last dataset while its watcher is parked, then
        // wait for those watchers' typed closes.
        wait_until("every watcher to see a revision", &|| {
            primed_watchers.load(Ordering::Relaxed) == watchers
        });
        for (t, tenant) in TENANTS.iter().enumerate() {
            svc.delete_dataset_keyed_in(tenant, &plans[t][DATASETS_PER_TENANT - 1].name, None)
                .unwrap();
        }
        wait_until("every deleted dataset's watcher to close", &|| {
            typed_closes.load(Ordering::Relaxed) == TENANTS.len() as u64
        });
        done.store(true, Ordering::Relaxed);
    });

    assert_eq!(watcher_mine_polls.load(Ordering::Relaxed), 0);
    assert!(
        watch_bumps.load(Ordering::Relaxed) >= (TENANTS.len() * DATASETS_PER_TENANT) as u64,
        "watchers must observe append-driven bumps: {}",
        watch_bumps.load(Ordering::Relaxed)
    );
    assert_eq!(
        typed_closes.load(Ordering::Relaxed),
        TENANTS.len() as u64,
        "every deleted dataset must close its parked watcher with NotFound"
    );

    // No cross-tenant visibility: each namespace lists exactly its own
    // surviving datasets, with that tenant's own content.
    for (t, tenant) in TENANTS.iter().enumerate() {
        let mut names: Vec<String> = svc
            .list_datasets_in(tenant)
            .unwrap()
            .into_iter()
            .map(|d| d.name)
            .collect();
        names.sort();
        let expected: Vec<String> = (0..DATASETS_PER_TENANT - 1)
            .map(|d| format!("d{d}"))
            .collect();
        assert_eq!(names, expected, "tenant {tenant} sees a wrong listing");
        // The untouched dataset's record count matches this tenant's own
        // generated content (every tenant's differs by construction).
        let ds = svc.dataset_in(tenant, &plans[t][0].name).unwrap();
        assert_eq!(
            ds.record_count(),
            plans[t][0].expected_records,
            "tenant {tenant} is serving someone else's bytes"
        );
    }

    // Deterministic content: post-storm re-mines equal cold twins rebuilt
    // from the same documents on a fresh default-tenant service.
    let params = quick_params();
    for (t, tenant) in TENANTS.iter().enumerate() {
        for plan in plans[t].iter().take(DATASETS_PER_TENANT - 1) {
            let twin_svc = MiscelaService::new();
            run_plan(&twin_svc, "default", plan);
            let warm = svc
                .mine_cancellable_in(tenant, &plan.name, &params, None, &CancelToken::never())
                .unwrap();
            let cold = twin_svc
                .mine_cancellable_in(
                    DEFAULT_TENANT,
                    &plan.name,
                    &params,
                    None,
                    &CancelToken::never(),
                )
                .unwrap();
            assert_eq!(
                warm.result.caps, cold.result.caps,
                "storm-surviving {tenant}/{} diverged from its cold twin",
                plan.name
            );
            assert_eq!(warm.revision, cold.revision);
        }
    }
}
