//! Quickstart: generate a small city-scale dataset, mine CAPs, and inspect
//! the result — the minimal end-to-end use of the public API.
//!
//! Run with: `cargo run --example quickstart`

use miscela_v::miscela_core::MiningParams;
use miscela_v::miscela_datagen::SantanderGenerator;
use miscela_v::miscela_server::DEFAULT_TENANT;
use miscela_v::miscela_viz::ascii::sparkline;
use miscela_v::MiscelaV;

fn main() {
    // 1. Build the system and register a dataset (here: the synthetic
    //    Santander stand-in at a small scale; `upload` would take the three
    //    CSV files instead).
    let system = MiscelaV::new();
    let dataset = SantanderGenerator::small().with_scale(0.03).generate();
    let summary = system.register_dataset(dataset).unwrap();
    println!(
        "registered dataset {:?}: {} sensors, {} records, attributes: {}",
        summary.name,
        summary.sensors,
        summary.records,
        summary.attributes.join(", ")
    );

    // 2. Choose mining parameters (Section 2.1 of the paper): evolving rate,
    //    distance threshold, attribute bound and minimum support.
    let params = MiningParams::new()
        .with_epsilon(0.4)
        .with_eta_km(0.5)
        .with_mu(3)
        .with_psi(20)
        .with_segmentation(false);

    // 3. Mine. The first request computes; repeating the same parameters is
    //    answered from the cache.
    let outcome = system.mine("santander", &params).expect("mining succeeds");
    println!(
        "mined {} (cache hit: {}, {:.1} ms)",
        outcome.result.caps.summary(),
        outcome.cache_hit,
        outcome.elapsed.as_secs_f64() * 1000.0
    );

    // 4. Look at the strongest CAP: which sensors, which attributes, and how
    //    their measurements move together.
    let ds = system
        .service()
        .dataset_in(DEFAULT_TENANT, "santander")
        .unwrap();
    if let Some(cap) = outcome.result.caps.caps().first() {
        println!("\nstrongest CAP: {cap}");
        for &sensor in &cap.sensors() {
            let ss = ds.sensor_series(sensor);
            let attr = ds.attributes().name_of(ss.sensor.attribute);
            println!(
                "  {:>10} {:12} {}",
                ss.sensor.id.to_string(),
                attr,
                sparkline(&ss.series.window(0, 24 * 7), 72)
            );
        }
        // The partners that would be highlighted when clicking the first
        // member on the map.
        let clicked = cap.sensors()[0];
        let partners = system
            .correlated_sensors("santander", &outcome.result.caps, clicked)
            .unwrap();
        println!(
            "\nclicking sensor {} highlights {} correlated sensors",
            ds.sensor(clicked).id,
            partners.len()
        );
    }

    // 5. Re-run with the same parameters: served from the cache.
    let again = system.mine("santander", &params).unwrap();
    println!(
        "\nrepeat request: cache hit = {}, {:.3} ms",
        again.cache_hit,
        again.elapsed.as_secs_f64() * 1000.0
    );
}
