//! Extraction front-end scaling: MISCELA steps (1)+(2) — linear
//! segmentation and evolving-timestamp extraction — swept over series
//! length × sensor count, with segmentation on and off.
//!
//! The `BENCH_pipeline.json` baseline showed the front-end overtaking the
//! step-(4) search as the dominant pipeline cost; this bench isolates it.
//! The `raw`/`raw_gapped` rows measure the word-level evolving scan alone
//! on noise-dominated series (the real-dataset shape, where the old
//! per-timestamp `Option`-and-threshold branches mispredicted); the
//! `segmented` rows exercise the O(n) feasible-slope-cone segmenter on
//! smooth-with-noise series (the shape where the old sliding-window
//! segmentation was O(n·s²)).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use miscela_core::evolving::extract_state;
use miscela_core::Extraction;
use miscela_model::TimeSeries;
use std::time::Duration;

/// Sine trend plus pseudorandom noise of amplitude `noise`. With `noise`
/// comparable to the evolving rate the up/down/neither outcome of each
/// timestamp is unpredictable, as it is for real sensor data. `gaps`
/// additionally knocks out a pseudorandom ~9% of points (sensor dropouts).
fn fixture(sensors: usize, len: usize, noise: f64, gaps: bool) -> Vec<TimeSeries> {
    (0..sensors)
        .map(|s| {
            (0..len)
                .map(|i| {
                    let t = i as f64 * 0.05 + s as f64;
                    let h = (i.wrapping_mul(0x9E37_79B9) ^ s.wrapping_mul(0x85EB_CA6B))
                        .wrapping_mul(0xC2B2_AE35);
                    let v = t.sin() * 5.0 + ((h >> 7) % 100) as f64 * 0.01 * noise;
                    (!gaps || (h >> 15) % 11 != 0).then_some(v)
                })
                .collect()
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("extraction_scaling");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));

    for &(sensors, len) in &[(16usize, 336usize), (64, 336), (16, 2688)] {
        let noisy = fixture(sensors, len, 1.6, false);
        let noisy_gapped = fixture(sensors, len, 1.6, true);
        let smooth = fixture(sensors, len, 0.4, false);
        let label = format!("{sensors}x{len}");
        group.bench_with_input(BenchmarkId::new("raw", &label), &noisy, |b, series| {
            b.iter(|| {
                series
                    .iter()
                    .map(|s| {
                        extract_state(s, Extraction::new(0.4, false, 0.0))
                            .sets
                            .total()
                    })
                    .sum::<usize>()
            });
        });
        group.bench_with_input(
            BenchmarkId::new("raw_gapped", &label),
            &noisy_gapped,
            |b, series| {
                b.iter(|| {
                    series
                        .iter()
                        .map(|s| {
                            extract_state(s, Extraction::new(0.4, false, 0.0))
                                .sets
                                .total()
                        })
                        .sum::<usize>()
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("segmented", &label),
            &smooth,
            |b, series| {
                b.iter(|| {
                    series
                        .iter()
                        .map(|s| {
                            extract_state(s, Extraction::new(0.4, true, 0.05))
                                .sets
                                .total()
                        })
                        .sum::<usize>()
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
