//! End-to-end benchmark of MISCELA-V.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload explore|feed --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! Runs one workload under one seed, checks every output, and prints the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of a traced
//! replay (`--trace 1`). The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. `--smoke`
//! shrinks every input to a seconds-long run that exercises every check
//! and prints every metric name; it is not a measurement. See README.md.

mod api;
mod explore;
mod feed;
mod layers;
mod stats;
mod trace;
mod wire;

use stats::Report;
use std::time::Instant;

/// Where runs leave their outputs (span files, the feed's durable
/// directory while it runs), relative to the working directory.
pub const OUT_DIR: &str = ".bench_run";

/// One invocation's settings.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// How many times set-up runs; `setup_s` is their median.
    pub setups: usize,
    pub process_start: Instant,
}

const USAGE: &str = "usage: --workload explore|feed --seed N --seconds S --trace 0|1 [--smoke]";

fn parse_args(process_start: Instant) -> Result<Run, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, false);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "explore" && workload != "feed" {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Run {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        smoke,
        setups: if smoke { 2 } else { 3 },
        process_start,
    })
}

fn run_workload(run: &Run) -> Report {
    let mut report = Report::default();
    match run.workload.as_str() {
        "explore" => explore::run(run, &mut report),
        _ => feed::run(run, &mut report),
    }
    report
}

/// A number as JSON: all its digits, and never NaN or infinity.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    let process_start = Instant::now();
    let run = match parse_args(process_start) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!(
        "host: available_parallelism {}, cpu {:?}, workload {}, seed {}, seconds {}, trace {}{}",
        stats::available_parallelism(),
        stats::cpu_model(),
        run.workload,
        run.seed,
        run.seconds,
        run.trace as u8,
        if run.smoke {
            ", smoke size (not a measurement)"
        } else {
            ""
        }
    );
    let report = run_workload(&run);
    for (name, m) in &report.metrics {
        println!(
            "metric {name:<28} {:>14.4} {:<12} n={}",
            m.value, m.unit, m.samples
        );
    }
    for (kind, (attempted, failed)) in &report.ops {
        println!("ops {kind:<14} attempted {attempted:>7} failed {failed}");
    }
    for m in &report.mismatches {
        println!("mismatch: {m}");
    }
    let failed = report.failed();
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, m)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0 && report.mismatches.is_empty(),
        report.attempted().max(1),
        failed,
        metrics.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use miscela_store::Json;

    /// The (name, unit) pairs `BENCHMARK.json` declares under `section`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let field =
            |m: &Json, key: &str| m.get(key).and_then(|v| v.as_str()).expect(key).to_string();
        doc.get(section)
            .and_then(|v| v.as_array())
            .expect("a metric list")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    /// A smoke-size run passes every check and prints exactly the declared
    /// metrics, in order and with their units.
    fn smoke(workload: &str, trace: bool) {
        let run = Run {
            workload: workload.to_string(),
            seed: 3,
            seconds: 1.0,
            trace,
            smoke: true,
            setups: 2,
            process_start: Instant::now(),
        };
        let report = run_workload(&run);
        assert!(report.mismatches.is_empty(), "{:?}", report.mismatches);
        assert_eq!(report.failed(), 0, "{:?}", report.ops);
        let printed: Vec<(String, String)> = report
            .metrics
            .iter()
            .map(|(name, m)| (name.clone(), m.unit.to_string()))
            .collect();
        let section = if trace { "per_layer" } else { "end_to_end" };
        assert_eq!(printed, declared(section));
        if !trace {
            for (name, m) in &report.metrics {
                assert!(m.value > 0.0, "{name} read {}", m.value);
            }
        }
    }

    #[test]
    fn explore_smoke() {
        smoke("explore", false);
        smoke("explore", true);
    }

    #[test]
    fn feed_smoke() {
        smoke("feed", false);
        smoke("feed", true);
    }
}
