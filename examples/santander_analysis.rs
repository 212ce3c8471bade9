//! The "Santander dataset: a single city data analysis" scenario
//! (Section 4): find temperature↔traffic and light↔temperature correlations
//! and render the Figure-3 style dashboard to an SVG file.
//!
//! Run with: `cargo run --example santander_analysis`

use miscela_v::analysis::named_pairs;
use miscela_v::miscela_core::evolving::extract_evolving;
use miscela_v::miscela_core::{correlation, MiningParams};
use miscela_v::miscela_datagen::SantanderGenerator;
use miscela_v::miscela_server::DEFAULT_TENANT;
use miscela_v::MiscelaV;

fn main() {
    let system = MiscelaV::new();
    let dataset = SantanderGenerator::small().with_scale(0.05).generate();
    let stats = dataset.stats();
    println!("{stats}");
    system.register_dataset(dataset).unwrap();

    let params = MiningParams::new()
        .with_epsilon(0.4)
        .with_eta_km(0.5)
        .with_mu(3)
        .with_psi(30)
        .with_segmentation(true)
        .with_segmentation_error(0.02);
    let outcome = system.mine("santander", &params).expect("mining succeeds");
    let caps = &outcome.result.caps;
    println!("found {}", caps.summary());

    let ds = system
        .service()
        .dataset_in(DEFAULT_TENANT, "santander")
        .unwrap();

    // Which attribute pairs are correlated, and how often? (The paper:
    // "we can find correlated patterns among temperatures and traffic
    // volumes and among light and temperature".)
    println!("\nattribute pairs appearing in CAPs:");
    for ((a, b), count) in named_pairs(&ds, caps) {
        println!("  {a:12} <-> {b:12}  in {count} CAPs");
    }

    // Inspect one temperature/traffic CAP in detail, Figure-1 style.
    let temp = ds.attributes().id_of("temperature").unwrap();
    let traffic = ds.attributes().id_of("traffic").unwrap();
    if let Some(cap) = caps.with_attributes(&[temp, traffic]).first() {
        println!("\nexample temperature/traffic CAP: {cap}");
        let sensors = cap.sensors();
        // Extract each member once; score pairs from the precomputed sets.
        let evolving: Vec<_> = sensors
            .iter()
            .map(|&s| extract_evolving(ds.series(s), params.epsilon))
            .collect();
        for (k, pair) in sensors.windows(2).enumerate() {
            let a = ds.sensor_series(pair[0]);
            let b = ds.sensor_series(pair[1]);
            let r = correlation::pearson(a.series, b.series).unwrap_or(f64::NAN);
            let score = correlation::co_evolution_score_sets(&evolving[k], &evolving[k + 1]);
            println!(
                "  {} ({}) vs {} ({}): pearson {:.2}, co-evolution score {:.2}, distance {:.2} km",
                a.sensor.id,
                ds.attributes().name_of(a.sensor.attribute),
                b.sensor.id,
                ds.attributes().name_of(b.sensor.attribute),
                r,
                score,
                a.sensor.location.distance_km(&b.sensor.location),
            );
        }
    }

    // Render the Figure-3 dashboard for the strongest CAP.
    if let Some(doc) = system.dashboard("santander", caps).unwrap() {
        let path = std::env::temp_dir().join("miscela_santander_dashboard.svg");
        std::fs::write(&path, doc.render()).expect("write SVG");
        println!("\ndashboard written to {}", path.display());
    }
}
