//! The chaos-transport matrix (the exactly-once serving proof harness).
//!
//! Every fault class a lossy network can inject — request loss, response
//! loss (the mutation applied, the ack vanished), duplicated delivery,
//! delayed/reordered delivery, and a storm of all four — is driven through
//! the full client workflow: register via chunked upload, append a tail,
//! mine, install a retention policy, re-mine, then register-and-delete a
//! second dataset. The client is the real [`ResilientClient`] (budgeted
//! retries, idempotency keys, sequence-numbered chunks, `412` resume); the
//! chaos is a seeded deterministic [`ChaosTransport`].
//!
//! After each episode the surviving server state must be **byte-identical**
//! to an undisturbed twin that ran the same workflow over a perfect
//! transport: the dataset snapshot encoding, the revision counter (retries
//! that double-applied would inflate it), and the re-mined CapSet JSON.
//! One more episode crashes the durable server mid-append — after it
//! applied a request but before the response got out — recovers the
//! directory from disk, and swaps the recovered router in behind the
//! client's back; the retries must land on the restart and still converge
//! to the twin. Each fault class runs three seeds.

use miscela_v::miscela_csv::{split_into_chunks, DatasetWriter};
use miscela_v::miscela_datagen::SantanderGenerator;
use miscela_v::miscela_server::client::{
    ChaosConfig, ChaosTransport, ResilientClient, RouterTransport, SwappableRouter, Transport,
    TransportError,
};
use miscela_v::miscela_server::durability::snapshot_data;
use miscela_v::miscela_server::message::{ApiRequest, ApiResponse};
use miscela_v::miscela_server::{MiscelaService, Router, DEFAULT_TENANT};
use miscela_v::miscela_store::Json;
use std::path::PathBuf;
use std::sync::Arc;

const DATASET: &str = "santander";
const EPHEMERAL: &str = "ephemeral";

struct Fixture {
    location_csv: String,
    attribute_csv: String,
    prefix_csv: String,
    tail_csv: String,
    full_timestamps: usize,
}

fn fixture() -> Fixture {
    let full = SantanderGenerator::small().with_scale(0.02).generate();
    let n = full.timestamp_count();
    let split_t = full.grid().at(n - 60).unwrap();
    let prefix = full.slice_time(full.grid().start(), split_t).unwrap();
    let tail = full.slice_time(split_t, full.grid().range().end).unwrap();
    let writer = DatasetWriter::new();
    let tail_csv = writer.data_csv(&tail);
    assert!(
        split_into_chunks(&tail_csv, 200).len() >= 2,
        "tail must span several sequence-numbered chunks"
    );
    Fixture {
        location_csv: writer.location_csv(&prefix),
        attribute_csv: writer.attribute_csv(&prefix),
        prefix_csv: writer.data_csv(&prefix),
        tail_csv,
        full_timestamps: n,
    }
}

fn mine_body() -> Json {
    Json::from_pairs([
        ("epsilon", Json::from(0.4)),
        ("eta_km", Json::from(0.5)),
        ("mu", Json::from(3i64)),
        ("psi", Json::from(20usize)),
        ("segmentation", Json::from(false)),
    ])
}

/// Everything the workflow observed plus the server state it left behind.
/// Two runs are "the same outcome" iff these compare equal — the snapshot
/// field is the byte-exact durability encoding of the final dataset.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    register_sensors: i64,
    append_revision: i64,
    caps_after_append: String,
    retention_revision: i64,
    trimmed_timestamps: i64,
    caps_after_retention: String,
    final_revision: u64,
    final_snapshot: String,
    ephemeral_gone: bool,
}

/// The full workflow through a resilient client: register → append → mine
/// → retention → re-mine on the main dataset, register → delete on a
/// second one.
fn run_workflow<T: Transport>(client: &mut ResilientClient<T>, fx: &Fixture) -> WorkflowObs {
    let registered = client
        .register(
            DATASET,
            &fx.location_csv,
            &fx.attribute_csv,
            &fx.prefix_csv,
            2_000,
        )
        .expect("register must converge");
    let appended = client
        .append(DATASET, &fx.tail_csv, 200)
        .expect("append must converge");
    let mined = client
        .mine(DATASET, mine_body())
        .expect("mine must converge");
    let retention = client
        .set_retention(
            DATASET,
            Json::from_pairs([(
                "max_timestamps",
                Json::from((fx.full_timestamps - 24) as i64),
            )]),
        )
        .expect("retention must converge");
    let remined = client
        .mine(DATASET, mine_body())
        .expect("re-mine must converge");
    client
        .register(
            EPHEMERAL,
            &fx.location_csv,
            &fx.attribute_csv,
            &fx.prefix_csv,
            2_000,
        )
        .expect("ephemeral register must converge");
    client
        .delete(EPHEMERAL)
        .expect("ephemeral delete must converge");
    WorkflowObs {
        register_sensors: registered.get("sensors").unwrap().as_i64().unwrap(),
        append_revision: appended.get("revision").unwrap().as_i64().unwrap(),
        caps_after_append: mined.get("caps").unwrap().to_string_compact(),
        retention_revision: retention.get("revision").unwrap().as_i64().unwrap(),
        trimmed_timestamps: retention
            .get("trimmed_timestamps")
            .unwrap()
            .as_i64()
            .unwrap(),
        caps_after_retention: remined.get("caps").unwrap().to_string_compact(),
    }
}

struct WorkflowObs {
    register_sensors: i64,
    append_revision: i64,
    caps_after_append: String,
    retention_revision: i64,
    trimmed_timestamps: i64,
    caps_after_retention: String,
}

/// Folds the client-observed responses together with the server's final
/// state into one comparable value.
fn outcome(obs: WorkflowObs, service: &MiscelaService) -> Outcome {
    let ds = service
        .dataset_in(DEFAULT_TENANT, DATASET)
        .expect("dataset must survive");
    let revision = service
        .dataset_revision_in(DEFAULT_TENANT, DATASET)
        .unwrap();
    Outcome {
        register_sensors: obs.register_sensors,
        append_revision: obs.append_revision,
        caps_after_append: obs.caps_after_append,
        retention_revision: obs.retention_revision,
        trimmed_timestamps: obs.trimmed_timestamps,
        caps_after_retention: obs.caps_after_retention,
        final_revision: revision,
        final_snapshot: snapshot_data(&ds, revision, 0, &[]).to_string(),
        ephemeral_gone: service.dataset_in(DEFAULT_TENANT, EPHEMERAL).is_err(),
    }
}

/// The undisturbed twin: the same workflow over a perfect transport.
fn undisturbed(fx: &Fixture) -> Outcome {
    let service = Arc::new(MiscelaService::new());
    let router = Arc::new(Router::new(Arc::clone(&service)));
    let mut client = ResilientClient::new(RouterTransport::new(router), "twin");
    let obs = run_workflow(&mut client, fx);
    assert_eq!(client.stats().retries, 0, "the twin saw no faults");
    outcome(obs, &service)
}

fn chaos_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("miscela-chaos-matrix-{}", std::process::id()))
        .join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn seeds() -> Vec<u64> {
    vec![11, 29, 47]
}

/// One lossy episode: the workflow through seeded chaos against a fresh
/// in-memory server, asserted byte-identical to the twin.
fn run_chaos_episode(
    fx: &Fixture,
    expected: &Outcome,
    label: &str,
    config: ChaosConfig,
    seed: u64,
) {
    let service = Arc::new(MiscelaService::new());
    let router = Arc::new(Router::new(Arc::clone(&service)));
    let chaos = ChaosTransport::new(RouterTransport::new(router), config, seed);
    let mut client = ResilientClient::new(chaos, format!("{label}-{seed}"));
    let obs = run_workflow(&mut client, fx);
    // Trailing chaos: deliver every still-delayed request before judging
    // the final state — stale deliveries must be no-ops too.
    client.transport_mut().drain();
    let got = outcome(obs, &service);
    assert_eq!(
        &got, expected,
        "{label}/{seed}: chaos run diverged from the undisturbed twin"
    );
    let faults = client.transport().stats();
    assert!(
        faults.total_faults() > 0,
        "{label}/{seed}: episode injected no faults — tighten probabilities"
    );
    // Only losses are client-visible (a duplicated delivery still returns
    // a response), so retries are asserted only when a loss occurred.
    let retries = client.stats();
    if faults.dropped_requests + faults.dropped_responses + faults.delayed_requests > 0 {
        assert!(
            retries.retries > 0,
            "{label}/{seed}: losses were injected but the client never retried"
        );
    }
    let protocol = service.protocol_stats();
    let suppressed = protocol.key_replays + protocol.chunk_duplicates + protocol.stale_sessions;
    // Whenever the server saw a repeated delivery (response lost after the
    // apply, duplicated request, or a stale delayed delivery), the dedup
    // machinery must have absorbed it.
    if faults.dropped_responses + faults.duplicated_requests + faults.late_deliveries > 0 {
        assert!(
            suppressed > 0,
            "{label}/{seed}: server saw repeats but suppressed none: {protocol:?} / {faults:?}"
        );
    }
}

#[test]
fn request_loss_converges_to_the_twin() {
    let fx = fixture();
    let expected = undisturbed(&fx);
    for seed in seeds() {
        run_chaos_episode(
            &fx,
            &expected,
            "drop-req",
            ChaosConfig::request_drops(0.3),
            seed,
        );
    }
}

#[test]
fn response_loss_converges_to_the_twin() {
    let fx = fixture();
    let expected = undisturbed(&fx);
    for seed in seeds() {
        run_chaos_episode(
            &fx,
            &expected,
            "drop-resp",
            ChaosConfig::response_drops(0.3),
            seed,
        );
    }
}

#[test]
fn duplicated_delivery_converges_to_the_twin() {
    let fx = fixture();
    let expected = undisturbed(&fx);
    for seed in seeds() {
        run_chaos_episode(
            &fx,
            &expected,
            "duplicate",
            ChaosConfig::duplicates(0.3),
            seed,
        );
    }
}

#[test]
fn delayed_and_reordered_delivery_converges_to_the_twin() {
    let fx = fixture();
    let expected = undisturbed(&fx);
    for seed in seeds() {
        run_chaos_episode(&fx, &expected, "delay", ChaosConfig::delays(0.3), seed);
    }
}

#[test]
fn full_storm_converges_to_the_twin() {
    let fx = fixture();
    let expected = undisturbed(&fx);
    for seed in seeds() {
        run_chaos_episode(&fx, &expected, "storm", ChaosConfig::storm(0.25), seed);
    }
}

// ---------------------------------------------------------------------------
// mid-chaos crash + recovery
// ---------------------------------------------------------------------------

/// A transport that kills the durable server once, at the worst moment:
/// right after it applied a chosen append chunk but before the response
/// got out. The directory is recovered through the real disk opener into a
/// fresh database and the recovered router is swapped in behind the
/// client's back.
struct CrashOnce {
    inner: SwappableRouter,
    dir: PathBuf,
    crash_on_seq: i64,
    crashed: bool,
}

impl Transport for CrashOnce {
    fn send(&mut self, request: &ApiRequest) -> Result<ApiResponse, TransportError> {
        let response = self.inner.send(request)?;
        let is_target = !self.crashed
            && request.path.ends_with("/append/chunk")
            && request.body.get("seq").and_then(|s| s.as_i64()) == Some(self.crash_on_seq);
        if is_target {
            self.crashed = true;
            let service = MiscelaService::with_durability(&self.dir)
                .expect("mid-chaos recovery must succeed");
            self.inner.swap(Arc::new(Router::new(Arc::new(service))));
            return Err(TransportError::Lost(
                "server crashed after applying the request, before responding".to_string(),
            ));
        }
        Ok(response)
    }
}

#[test]
fn mid_chaos_crash_and_recovery_converges_to_the_twin() {
    let fx = fixture();
    let expected = undisturbed(&fx);
    let dir = chaos_dir("crash");
    let service = Arc::new(MiscelaService::with_durability(&dir).expect("durable service"));
    let swappable = SwappableRouter::new(Arc::new(Router::new(Arc::clone(&service))));
    let crash = CrashOnce {
        inner: swappable.clone(),
        dir: dir.clone(),
        crash_on_seq: 2,
        crashed: false,
    };
    let chaos = ChaosTransport::new(crash, ChaosConfig::storm(0.15), 101);
    let mut client = ResilientClient::new(chaos, "crash-episode");
    let obs = run_workflow(&mut client, &fx);
    client.transport_mut().drain();
    assert!(
        client.transport().inner().crashed,
        "the crash point was never reached — the workflow must append ≥ 2 chunks"
    );
    // Judge the *recovered* server (the one the swap installed), plus one
    // more restart: the post-crash writes must themselves be durable.
    let recovered = swappable.current();
    let got = outcome(obs, recovered.service());
    assert_eq!(
        got, expected,
        "crash episode diverged from the undisturbed twin"
    );
    let protocol = recovered.service().protocol_stats();
    assert!(
        protocol.key_replays + protocol.chunk_duplicates + protocol.stale_sessions > 0,
        "the crash retry must have exercised dedup on the recovered server: {protocol:?}"
    );
    drop(recovered);
    let reopened = MiscelaService::with_durability(&dir).expect("final restart");
    let ds = reopened
        .dataset_in(DEFAULT_TENANT, DATASET)
        .expect("dataset survives restart");
    let revision = reopened
        .dataset_revision_in(DEFAULT_TENANT, DATASET)
        .unwrap();
    assert_eq!(
        snapshot_data(&ds, revision, 0, &[]).to_string(),
        expected.final_snapshot,
        "post-crash state must survive one more recovery byte-identically"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
