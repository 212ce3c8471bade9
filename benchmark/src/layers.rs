//! The per-layer metrics of a traced run. Both workloads print every
//! metric; a layer a workload never calls reads 0. Each metric's sample
//! count (`n=` in the printed table) is its base: the lookups behind a
//! hit ratio, the mines behind a per-mine count, the traced operations
//! behind a per-operation count.

use crate::api::MineFacts;
use crate::stats::{median, Report};
use crate::trace::{self, LayerTimes, Span};
use crate::Run;

/// Counters a workload measures around its traced phase.
#[derive(Debug, Default)]
pub struct Counters {
    /// Traced operations (root spans).
    pub ops: usize,
    pub result_lookups: u64,
    pub result_hits: u64,
    pub admitted_per_op: f64,
    pub shed_per_op: f64,
    pub response_kb: f64,
    pub svg_kb: f64,
    pub batches: u64,
    pub syncs_per_batch: f64,
    pub wal_kb_per_batch: f64,
    pub installs_per_batch: f64,
    pub replayed_per_reopen: f64,
    pub overhead_pct: f64,
}

fn ratio(part: u64, base: u64) -> f64 {
    if base == 0 {
        0.0
    } else {
        part as f64 / base as f64
    }
}

pub fn put_layers(out: &mut Report, layers: &LayerTimes, facts: &MineFacts, c: Counters) {
    let n = |layer: &str| layers.per_op.get(layer).map_or(0, |v| v.len());
    let put_ms = |out: &mut Report, metric: &str, layer: &str| {
        out.put(metric, layers.median_ms(layer), "ms", n(layer));
    };
    put_ms(out, "wire.encode_ms", "wire.encode");
    put_ms(out, "wire.decode_ms", "wire.decode");
    out.put("wire.response_kb", c.response_kb, "KiB", c.ops);
    put_ms(out, "codec.encode_ms", "codec.encode");
    put_ms(out, "codec.decode_ms", "codec.decode");
    put_ms(out, "router.params_ms", "router.params");

    // The service's own share of a mine or sweep: the call minus the miner
    // phases (cache lookup and put, admission, registry).
    let mut service: Vec<f64> = Vec::new();
    for layer in ["service.mine", "service.sweep"] {
        service.extend(layers.per_op.get(layer).into_iter().flatten());
    }
    out.put("service.self_ms", median(&service), "ms", service.len());
    out.put(
        "cache.result_hit_ratio",
        ratio(c.result_hits, c.result_lookups),
        "ratio",
        c.result_lookups as usize,
    );
    out.put("admission.admitted", c.admitted_per_op, "count/op", c.ops);
    out.put("admission.shed", c.shed_per_op, "count/op", c.ops);

    let fresh = facts.fresh.max(1) as f64;
    put_ms(out, "core.extraction_ms", "core.extraction");
    out.put(
        "cache.extraction_hit_ratio",
        ratio(facts.extraction_hits, facts.extraction_lookups),
        "ratio",
        facts.extraction_lookups as usize,
    );
    out.put(
        "cache.prefix_hits",
        facts.prefix_hits as f64 / fresh,
        "count/mine",
        facts.fresh as usize,
    );
    out.put(
        "cache.trim_hits",
        facts.trim_hits as f64 / fresh,
        "count/mine",
        facts.fresh as usize,
    );
    out.put(
        "cache.trim_fallbacks",
        facts.trim_fallbacks as f64 / fresh,
        "count/mine",
        facts.fresh as usize,
    );
    put_ms(out, "core.spatial_ms", "core.spatial");
    put_ms(out, "core.search_ms", "core.search");
    out.put(
        "core.caps_per_mine",
        median(&facts.caps),
        "count",
        facts.caps.len(),
    );
    out.put(
        "core.largest_component",
        median(&facts.largest_component),
        "count",
        facts.largest_component.len(),
    );

    put_ms(out, "service.upload_ms", "service.upload");
    put_ms(out, "service.append_ms", "service.append");
    let batches = c.batches as usize;
    out.put(
        "wal.syncs_per_batch",
        c.syncs_per_batch,
        "count/batch",
        batches,
    );
    out.put("wal.kb_per_batch", c.wal_kb_per_batch, "KiB/batch", batches);
    out.put(
        "snapshot.installs",
        c.installs_per_batch,
        "count/batch",
        batches,
    );
    out.put(
        "recovery.replayed_records",
        c.replayed_per_reopen,
        "count/reopen",
        n("durability.reopen"),
    );
    put_ms(out, "durability.reopen_ms", "durability.reopen");
    put_ms(out, "service.watch_wait_ms", "service.watch");
    put_ms(out, "viz.render_ms", "viz.render");
    out.put("viz.svg_kb", c.svg_kb, "KiB", n("viz.render"));

    out.put("trace.overhead_pct", c.overhead_pct, "%", c.ops);
    out.put("trace.coverage_pct", layers.coverage_pct(), "%", c.ops);
}

/// Writes the spans next to the run's other outputs and says where.
pub fn write(run: &Run, threads: &[(u32, Vec<Span>)]) {
    let dir = std::path::Path::new(crate::OUT_DIR);
    let path = dir.join(format!("spans-{}-{}.jsonl", run.workload, run.seed));
    let written = std::fs::create_dir_all(dir).and_then(|_| trace::write_spans(&path, threads));
    match written {
        Ok(()) => println!(
            "trace: {} spans written to {}",
            threads.iter().map(|(_, s)| s.len()).sum::<usize>(),
            path.display()
        ),
        Err(e) => println!("trace: spans not written: {e}"),
    }
}
