//! Cross-crate integration tests: the full Miscela-V pipeline from CSV
//! upload through mining, caching and visualization.

use miscela_v::miscela_cache::codec::capset_to_json;
use miscela_v::miscela_core::baseline::NaiveMiner;
use miscela_v::miscela_core::evolving::extract_state;
use miscela_v::miscela_core::{CancelToken, CapSet, Miner, MiningParams, ProximityGraph};
use miscela_v::miscela_csv::{split_into_chunks, DatasetWriter};
use miscela_v::miscela_datagen::{CovidGenerator, PlantedGenerator, SantanderGenerator};
use miscela_v::miscela_model::AttributeId;
use miscela_v::miscela_server::{
    ApiError, ApiRequest, MineOutcome, MiscelaService, Router, DEFAULT_TENANT,
};
use miscela_v::miscela_store::wal::DiskOpener;
use miscela_v::miscela_store::{persist, Database, Json};
use miscela_v::miscela_viz::{Dashboard, MapConfig, MapView};
use miscela_v::MiscelaV;
use std::path::Path;
use std::sync::Arc;

fn quick_params() -> MiningParams {
    MiningParams::new()
        .with_epsilon(0.4)
        .with_eta_km(0.5)
        .with_psi(20)
        .with_mu(3)
        .with_segmentation(false)
}

#[test]
fn csv_export_upload_mine_visualize_round_trip() {
    // Generate -> export to the paper's three files -> chunked upload through
    // the API -> mine -> render, all through public interfaces.
    let generated = SantanderGenerator::small().with_scale(0.02).generate();
    let writer = DatasetWriter::new();
    let system = MiscelaV::new();
    let summary = system
        .upload(
            "uploaded",
            &writer.data_csv(&generated),
            &writer.location_csv(&generated),
            &writer.attribute_csv(&generated),
        )
        .expect("upload succeeds");
    assert_eq!(summary.sensors, generated.sensor_count());

    let outcome = system.mine("uploaded", &quick_params()).unwrap();
    assert!(!outcome.result.caps.is_empty());

    // The same parameters on the directly registered dataset find the same
    // CAP count (the CSV round trip loses only float formatting precision).
    system.register_dataset(generated).unwrap();
    let direct = system.mine("santander", &quick_params()).unwrap();
    assert_eq!(direct.result.caps.len(), outcome.result.caps.len());

    // Visualization layers accept the result.
    let ds = system
        .service()
        .dataset_in(DEFAULT_TENANT, "uploaded")
        .unwrap();
    let dash = Dashboard::new(&ds, &outcome.result.caps);
    let svg = dash.render_top().expect("at least one CAP").render();
    assert!(svg.contains("<svg"));
    let map = MapView::new(&ds, &outcome.result.caps, MapConfig::default());
    assert_eq!(map.markers(None).len(), ds.sensor_count());
}

#[test]
fn miscela_and_naive_baseline_agree_on_generated_data() {
    let ds = SantanderGenerator::small()
        .with_scale(0.02)
        .with_seed(5)
        .generate();
    let params = quick_params().with_max_sensors(Some(3));
    let result = Miner::new(params.clone()).unwrap().mine(&ds).unwrap();

    let evolving: Vec<_> = ds
        .iter()
        .map(|ss| extract_state(ss.series, params.extraction()).sets)
        .collect();
    let attributes: Vec<AttributeId> = ds.iter().map(|ss| ss.sensor.attribute).collect();
    let graph = ProximityGraph::build(&ds, params.eta_km);
    let naive = NaiveMiner {
        evolving: &evolving,
        attributes: &attributes,
        graph: &graph,
        params: &params,
    }
    .mine();

    let keys = |set: &CapSet| -> Vec<(Vec<u32>, usize)> {
        set.dedup_by_sensors()
            .caps()
            .iter()
            .map(|c| (c.sensor_key(), c.support))
            .collect()
    };
    assert!(!result.caps.is_empty());
    assert_eq!(keys(&result.caps), keys(&naive));
}

#[test]
fn planted_patterns_survive_the_whole_pipeline() {
    let gen = PlantedGenerator {
        groups: 2,
        group_size: 3,
        noise_sensors: 3,
        timestamps: 300,
        events_per_group: 40,
        seed: 3,
    };
    let (ds, truth) = gen.generate();
    let writer = DatasetWriter::new();
    let system = MiscelaV::new();
    system
        .upload(
            "planted",
            &writer.data_csv(&ds),
            &writer.location_csv(&ds),
            &writer.attribute_csv(&ds),
        )
        .unwrap();
    let params = MiningParams::new()
        .with_epsilon(5.0)
        .with_eta_km(1.0)
        .with_psi(15)
        .with_mu(3)
        .with_segmentation(false);
    let outcome = system.mine("planted", &params).unwrap();
    let uploaded = system
        .service()
        .dataset_in(DEFAULT_TENANT, "planted")
        .unwrap();
    for planted in &truth {
        let expected: std::collections::BTreeSet<&str> =
            planted.sensor_ids.iter().map(|s| s.as_str()).collect();
        let found = outcome.result.caps.caps().iter().any(|cap| {
            let names: std::collections::BTreeSet<&str> = cap
                .sensors()
                .iter()
                .map(|&idx| uploaded.sensor(idx).id.as_str())
                .collect();
            names == expected
        });
        assert!(
            found,
            "planted group {:?} lost in the pipeline",
            planted.sensor_ids
        );
    }
}

/// Registers the small Santander dataset on `service`, mines it once at
/// `quick_params` (a cache miss), and saves the service's store to
/// `store_dir`.
fn mine_and_save(service: &MiscelaService, store_dir: &Path) -> MineOutcome {
    let ds = SantanderGenerator::small().with_scale(0.02).generate();
    service
        .register_dataset_keyed_in(DEFAULT_TENANT, ds, None)
        .unwrap();
    let outcome = mine_santander(service).unwrap();
    assert!(!outcome.cache_hit);
    persist::save(service.database(), store_dir).unwrap();
    outcome
}

fn mine_santander(service: &MiscelaService) -> Result<MineOutcome, ApiError> {
    service.mine_cancellable_in(
        DEFAULT_TENANT,
        "santander",
        &quick_params(),
        None,
        &CancelToken::never(),
    )
}

/// A durable service over `db`, recovering whatever `durable_dir` holds.
fn durable_over(db: Database, durable_dir: &Path) -> MiscelaService {
    MiscelaService::with_durability_opener(Arc::new(db), durable_dir, Arc::new(DiskOpener)).unwrap()
}

#[test]
fn cache_survives_store_persistence() {
    // Section 3.3: cached results survive across sessions. A durable
    // service mines once and its store is saved; a service reopened over
    // the loaded store and the same durability directory recovers the
    // dataset at its revision, so the repeated request is a hit served from
    // the persisted cache.
    let dir = std::env::temp_dir().join(format!("miscela-integration-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (store_dir, durable_dir) = (dir.join("store"), dir.join("durable"));

    let first = mine_and_save(&durable_over(Database::new(), &durable_dir), &store_dir);
    // On disk the document holds the bytes the tree encoding writes.
    let saved = std::fs::read_to_string(store_dir.join("cap_results.jsonl")).unwrap();
    let tree = capset_to_json(&first.result.caps).to_string_compact();
    assert!(saved.contains(&format!("\"caps\":{tree},")), "{saved}");

    let service = durable_over(persist::load(&store_dir).unwrap(), &durable_dir);
    let outcome = mine_santander(&service).unwrap();
    assert!(outcome.cache_hit);
    // The store tier answered the one lookup, and it counts as a hit.
    let stats = service.cache_stats();
    assert_eq!((stats.hits, stats.misses), (1, 0));
    assert_eq!(outcome.result.caps, first.result.caps);
    // The reloaded document holds a parsed tree; it serves the same text.
    assert_eq!(outcome.caps_text, first.caps_text);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_loaded_store_serves_only_registered_datasets() {
    // The shard registry is the only dataset table: a loaded store still
    // holds the cached results of a dataset no durability directory
    // recovers, but nothing serves them.
    let dir = std::env::temp_dir().join(format!(
        "miscela-integration-unregistered-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store_dir = dir.join("store");
    mine_and_save(&MiscelaService::new(), &store_dir);

    let service = durable_over(persist::load(&store_dir).unwrap(), &dir.join("empty"));
    let err = mine_santander(&service).unwrap_err();
    assert!(matches!(err, ApiError::NotFound(_)), "{err:?}");
    let err = service
        .dataset_revision_in(DEFAULT_TENANT, "santander")
        .unwrap_err();
    assert!(matches!(err, ApiError::NotFound(_)), "{err:?}");
    assert!(service.list_datasets_in(DEFAULT_TENANT).unwrap().is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn covid_before_after_changes_patterns_end_to_end() {
    let gen = CovidGenerator::small();
    let ds = gen.generate();
    let params = MiningParams::new()
        .with_epsilon(0.8)
        .with_eta_km(2.0)
        .with_psi(30)
        .with_segmentation(false);
    let analysis = miscela_v::analysis::before_after(&ds, gen.lockdown(), &params).unwrap();
    assert!(analysis.after_means["NO2"] < analysis.before_means["NO2"]);
    assert!(analysis.after_means["O3"] > analysis.before_means["O3"]);
    assert!(!analysis.before.is_empty());
    // The traffic-driven NO2 <-> PM2.5 coupling weakens after the lockdown
    // (normalized by window length, since the windows differ in size).
    let no2 = ds.attributes().id_of("NO2").unwrap();
    let pm25 = ds.attributes().id_of("PM2.5").unwrap();
    let rate = |caps: &CapSet, len: usize| {
        caps.with_attributes(&[no2, pm25])
            .iter()
            .map(|c| c.support)
            .max()
            .unwrap_or(0) as f64
            / len.max(1) as f64
    };
    let before_ds_len = ds
        .grid()
        .window(
            miscela_v::miscela_model::TimeRange::new(ds.grid().range().start, gen.lockdown())
                .unwrap(),
        )
        .1;
    let after_ds_len = ds.timestamp_count() - before_ds_len;
    assert!(
        rate(&analysis.before, before_ds_len) > rate(&analysis.after, after_ds_len) + 0.05,
        "NO2/PM2.5 coupling did not weaken"
    );
}

#[test]
fn api_router_full_session() {
    // A scripted interactive session through the request/response API.
    let service = Arc::new(MiscelaService::new());
    let router = Router::new(Arc::clone(&service));
    let generated = SantanderGenerator::small().with_scale(0.02).generate();
    let writer = DatasetWriter::new();

    let resp = router.handle(&ApiRequest::post(
        "/datasets/s1/upload/begin",
        Json::from_pairs([
            ("location_csv", Json::from(writer.location_csv(&generated))),
            (
                "attribute_csv",
                Json::from(writer.attribute_csv(&generated)),
            ),
        ]),
    ));
    assert!(resp.is_success());
    for chunk in split_into_chunks(&writer.data_csv(&generated), 3_000) {
        assert!(router
            .handle(&ApiRequest::post(
                "/datasets/s1/upload/chunk",
                Json::from_pairs([
                    ("index", Json::from(chunk.index)),
                    ("total", Json::from(chunk.total)),
                    ("content", Json::from(chunk.content)),
                ]),
            ))
            .is_success());
    }
    assert!(router
        .handle(&ApiRequest::post(
            "/datasets/s1/upload/finish",
            Json::object()
        ))
        .is_success());

    let mine = Json::from_pairs([
        ("epsilon", Json::from(0.4)),
        ("eta_km", Json::from(0.5)),
        ("psi", Json::from(20i64)),
        ("segmentation", Json::from(false)),
    ]);
    let first = router.handle(&ApiRequest::post("/datasets/s1/mine", mine.clone()));
    assert!(first.is_success());
    let second = router.handle(&ApiRequest::post("/datasets/s1/mine", mine));
    assert_eq!(second.body.get("cache_hit").unwrap().as_bool(), Some(true));
    let stats = router.handle(&ApiRequest::get("/cache/stats"));
    assert!(stats.body.get("hits").unwrap().as_i64().unwrap() >= 1);
}
