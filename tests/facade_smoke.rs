//! Smoke test for the `miscela-v` facade: register a generated dataset,
//! mine it with the default parameters, and check that the resulting CAP
//! set round-trips through the parameter-keyed cache.

use miscela_v::miscela_core::MiningParams;
use miscela_v::miscela_datagen::PlantedGenerator;
use miscela_v::MiscelaV;

#[test]
fn register_mine_and_cache_roundtrip_with_default_params() {
    let system = MiscelaV::new();
    let (dataset, planted) = PlantedGenerator::new().generate();
    let name = dataset.name().to_string();

    let summary = system.register_dataset(dataset).unwrap();
    assert_eq!(summary.name, name);
    assert!(summary.sensors > 0);
    assert!(!planted.is_empty());

    let params = MiningParams::default();
    let first = system.mine(&name, &params).unwrap();
    assert!(!first.cache_hit);
    assert!(
        !first.result.caps.is_empty(),
        "default params found no CAPs in planted data"
    );

    // The same request must be answered from the cache with an equal CapSet.
    let second = system.mine(&name, &params).unwrap();
    assert!(second.cache_hit);
    assert_eq!(second.result.caps, first.result.caps);

    // A different parameter setting must not collide with the cached entry.
    let other = system
        .mine(&name, &MiningParams::new().with_psi(params.psi + 5))
        .unwrap();
    assert!(!other.cache_hit);
}
