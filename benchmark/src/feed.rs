//! `feed`: a durable city feed with one live dashboard.
//!
//! The Santander stand-in is uploaded into a durable service behind a
//! `keep_last` retention window. One client thread then loops: the feed
//! appends a fixed-size batch of hourly readings for every sensor through
//! `ResilientClient::append` (idempotency keys, sequenced chunks), and the
//! dashboard sees the new revision through `/watch`, re-mines, decodes and
//! renders it. After the live phase the durable directory is reopened
//! repeatedly.
//!
//! The loop is closed and single-threaded: the next batch goes out once
//! the dashboard has rendered the last one. With a separate writer thread
//! on a fixed schedule and a reader thread, per-run medians on a 2-vCPU
//! guest swung by 15-40% between runs of the same code: the two threads'
//! mines and appends contended, and every batch woke idle vCPUs. A busy
//! single thread keeps the run-to-run spread near that of `explore`.

use crate::api::{render, Api, MineFacts};
use crate::stats::{median, Report, Samples};
use crate::trace::{self, span, Trace};
use crate::wire::WireTransport;
use crate::Run;
use miscela_bench::periodic_append_rows;
use miscela_cache::codec::{capset_from_json, capset_to_json};
use miscela_core::{CapSet, Miner, MiningParams};
use miscela_csv::DatasetWriter;
use miscela_datagen::SantanderGenerator;
use miscela_model::{Dataset, RetentionPolicy};
use miscela_server::durability::snapshot_data;
use miscela_server::{MiscelaService, Router, DEFAULT_TENANT};
use miscela_store::wal::WalSink;
use miscela_store::{Database, DiskOpener, Json, SinkOpener};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hourly timestamps per batch: a 256-point block seals every 16 batches.
const BATCH_TIMESTAMPS: usize = 16;
const APPEND_CHUNK_LINES: usize = 300;
const UPLOAD_CHUNK_LINES: usize = 20_000;
/// Retained window, in timestamps.
const WINDOW: usize = 1024;
const WATCH_DEADLINE_MS: u64 = 100;
const WARM_BATCHES: usize = 8;
const REOPENS: usize = 10;
/// A traced run alternates traced and untraced windows of this length.
const TRACE_WINDOW: Duration = Duration::from_millis(1000);

/// The feed's dataset name. It is the only input the seed changes: it
/// moves the dataset to another shard of the store without changing the
/// work (see [`source`]).
fn dataset_name(run: &Run) -> String {
    format!("santander-{}", run.seed)
}

/// The live dashboard's mining point; ψ is a support count, so the smoke
/// size's shorter window lowers it.
fn point(run: &Run) -> MiningParams {
    MiningParams::new()
        .with_epsilon(0.4)
        .with_psi(if run.smoke { 100 } else { 300 })
        .with_eta_km(0.3)
        .with_mu(3)
}

fn point_body(run: &Run) -> Json {
    let p = point(run);
    Json::from_pairs([
        ("epsilon", Json::from(p.epsilon)),
        ("psi", Json::from(p.psi)),
        ("eta_km", Json::from(p.eta_km)),
        ("mu", Json::from(p.mu)),
    ])
}

/// Durable files are written through the production file sinks into the
/// run directory, but a sync returns at once, as it does on tmpfs: on a
/// shared virtual disk the device flush swung append latency by tens of
/// percent between runs. The service still calls every sync
/// (`wal.syncs_per_batch` counts them); only the device wait is gone.
struct TmpfsSyncs;

struct TmpfsSink(Box<dyn WalSink>);

impl WalSink for TmpfsSink {
    fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
        self.0.write_all(buf)
    }

    fn sync(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl SinkOpener for TmpfsSyncs {
    fn open_append(&self, path: &Path) -> std::io::Result<Box<dyn WalSink>> {
        Ok(Box::new(TmpfsSink(DiskOpener.open_append(path)?)))
    }

    fn open_truncate(&self, path: &Path) -> std::io::Result<Box<dyn WalSink>> {
        Ok(Box::new(TmpfsSink(DiskOpener.open_truncate(path)?)))
    }
}

/// Opens (or recovers) a durable service over `dir`.
fn open_durable(dir: &Path) -> Result<MiscelaService, miscela_server::ApiError> {
    MiscelaService::with_durability_opener(Arc::new(Database::new()), dir, Arc::new(TmpfsSyncs))
}

/// The feed's waveform: the Santander stand-in. Every seed replays the
/// same stream: shifting its phase by even an hour changed the CAPs and so
/// the work per batch by several percent, which a seed must not do.
fn source(smoke: bool) -> Dataset {
    let scale = if smoke { 0.05 } else { 0.25 };
    SantanderGenerator::small().with_scale(scale).generate()
}

/// A client-side copy of the live dataset, advanced batch by batch the
/// way the server advances it: the data source the batches come from, and
/// the data the dashboard draws.
#[derive(Clone)]
struct Mirror(Dataset);

impl Mirror {
    fn new(source: &Dataset) -> Self {
        let mut dataset = source.clone();
        dataset.set_retention(RetentionPolicy::keep_last(WINDOW));
        dataset.trim_expired();
        Mirror(dataset)
    }

    /// Appends the next batch and returns its `data.csv`.
    fn advance(&mut self, source: &Dataset) -> String {
        let rows = periodic_append_rows(source, &self.0, BATCH_TIMESTAMPS);
        let first = self.0.grid().range().end;
        self.0.append_rows(&rows).expect("batch appends");
        let tail = self
            .0
            .slice_time(first, self.0.grid().range().end)
            .expect("batch tail");
        let csv = DatasetWriter::new().data_csv(&tail);
        self.0.trim_expired();
        csv
    }
}

fn decode(trace: Option<&Trace>, body: Json) -> Option<(u64, CapSet)> {
    span(trace, "codec.decode", move || {
        let revision = body.get("revision")?.as_i64()? as u64;
        let caps = capset_from_json(body.get("caps")?)?;
        drop(body);
        Some((revision, caps))
    })
}

struct Env {
    source: Dataset,
    dir: PathBuf,
    svc: Arc<MiscelaService>,
    router: Arc<Router>,
    mirror: Mirror,
    /// Revision after set-up: batch k (from 0) must land as r0 + k + 1.
    r0: u64,
}

impl Env {
    fn wire_api<'a>(&self, client: &str) -> Api<'a> {
        Api::wire(WireTransport::new(Arc::clone(&self.router)), client)
    }
}

/// Generation, durable upload, retention, and a few untimed batches.
fn set_up(run: &Run, dir: PathBuf) -> Result<Env, String> {
    let name = dataset_name(run);
    let source = source(run.smoke);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let svc = Arc::new(open_durable(&dir).map_err(|e| e.to_string())?);
    let router = Arc::new(Router::new(Arc::clone(&svc)));
    let writer = DatasetWriter::new();
    let mut env = Env {
        mirror: Mirror::new(&source),
        source,
        dir,
        svc,
        router,
        r0: 0,
    };
    let mut api = env.wire_api("feed-setup");
    api.register(
        &name,
        &writer.location_csv(&env.source),
        &writer.attribute_csv(&env.source),
        &writer.data_csv(&env.source),
        UPLOAD_CHUNK_LINES,
    )?;
    api.set_retention(
        &name,
        Json::from_pairs([("max_timestamps", Json::from(WINDOW))]),
    )?;
    for _ in 0..WARM_BATCHES {
        let csv = env.mirror.advance(&env.source);
        api.append(&name, &csv, APPEND_CHUNK_LINES)?;
        let body = api.mine(&name, point_body(run))?;
        let (_, caps) = decode(None, body).ok_or("undecodable warm-up mine")?;
        render(None, &env.mirror.0, &caps);
    }
    env.r0 = env
        .svc
        .dataset_revision_in(DEFAULT_TENANT, &name)
        .map_err(|e| e.to_string())?;
    Ok(env)
}

/// Whether the moment `at` falls in a traced window of a traced run.
fn traced_window(run: &Run, t0: Instant, at: Instant) -> bool {
    run.trace && (at.saturating_duration_since(t0).as_millis() / TRACE_WINDOW.as_millis()) % 2 == 1
}

/// What the live phase observed.
#[derive(Default)]
struct Live {
    /// Append sent → finish acked.
    write: Samples,
    /// Mine sent → dashboard rendered.
    read: Samples,
    /// Append sent → dashboard of its revision rendered, split by whether
    /// the batch ran in a traced window.
    fresh_plain: Samples,
    fresh_traced: Samples,
    revisions: Vec<u64>,
    calls: u64,
    failed: u64,
    /// Traced runs only: WAL bytes and syncs over the batches.
    wal_bytes: u64,
    wal_syncs: u64,
    svg_kb: Vec<f64>,
    response_kb: Vec<f64>,
    caps: Vec<f64>,
    last: Option<(u64, CapSet)>,
}

impl Live {
    fn fresh(&self) -> Samples {
        let mut all = self.fresh_plain.clone();
        all.0.extend_from_slice(&self.fresh_traced.0);
        all
    }
}

/// One batch: append it, see the new revision through `/watch`, re-mine
/// and render. Returns the rendered revision and CapSet.
fn batch(
    run: &Run,
    name: &str,
    feed: &mut Api,
    dashboard: &mut Api,
    mirror: &Mirror,
    csv: &str,
    log: &mut Live,
) -> Option<(u64, CapSet)> {
    let sent = Instant::now();
    let appended = match feed.trace() {
        Some(t) => t.op("append", || feed.append(name, csv, APPEND_CHUNK_LINES)),
        None => feed.append(name, csv, APPEND_CHUNK_LINES),
    };
    log.calls += 1;
    let revision = appended.ok()?.get("revision")?.as_i64()? as u64;
    log.write.push(sent.elapsed());
    log.revisions.push(revision);
    let t = dashboard.trace();
    let since = revision - 1;
    let watched = match t {
        Some(t) => t.op("watch", || dashboard.watch(name, since, WATCH_DEADLINE_MS)),
        None => dashboard.watch(name, since, WATCH_DEADLINE_MS),
    };
    log.calls += 1;
    if watched.ok()?.get("revision")?.as_i64()? as u64 != revision {
        return None;
    }
    let start = Instant::now();
    let mut cycle = || -> Option<(u64, CapSet, usize)> {
        let body = dashboard.mine(name, point_body(run)).ok()?;
        let (revision, caps) = decode(t, body)?;
        let svg = render(t, &mirror.0, &caps);
        Some((revision, caps, svg))
    };
    let served = match t {
        Some(t) => t.op("fresh", &mut cycle),
        None => cycle(),
    };
    let done = Instant::now();
    log.calls += 1;
    let (mined, caps, svg) = served?;
    if mined != revision {
        return None;
    }
    log.read.push(done - start);
    let fresh = if t.is_some() {
        &mut log.fresh_traced
    } else {
        &mut log.fresh_plain
    };
    fresh.push(done - sent);
    log.svg_kb.push(svg as f64 / 1024.0);
    log.response_kb
        .push(dashboard.take_received() as f64 / 1024.0);
    log.caps.push(caps.len() as f64);
    Some((revision, caps))
}

/// The live phase: batches until `end`, on the calling thread.
fn live(run: &Run, env: &Env, end: Instant, trace: &Trace) -> (Live, MineFacts) {
    let name = dataset_name(run);
    let mut log = Live::default();
    let mut feed_plain = env.wire_api("feed");
    let mut dashboard_plain = env.wire_api("dashboard");
    let mut feed_traced = Api::traced(Arc::clone(&env.svc), trace, "feed-traced");
    let mut dashboard_traced = Api::traced(Arc::clone(&env.svc), trace, "dashboard-traced");
    let mut mirror = env.mirror.clone();
    let mut stats = env.svc.durability_stats_in(DEFAULT_TENANT, &name).ok();
    let t0 = Instant::now();
    while Instant::now() < end {
        // Preparing the batch is the data source's work, not the system's.
        let csv = mirror.advance(&env.source);
        let (feed, dashboard) = if traced_window(run, t0, Instant::now()) {
            (&mut feed_traced, &mut dashboard_traced)
        } else {
            (&mut feed_plain, &mut dashboard_plain)
        };
        match batch(run, &name, feed, dashboard, &mirror, &csv, &mut log) {
            Some(shown) => log.last = Some(shown),
            None => log.failed += 1,
        }
        if run.trace {
            let now = env.svc.durability_stats_in(DEFAULT_TENANT, &name).ok();
            if let (Some(before), Some(after)) = (&stats, &now) {
                // A compaction restarts the log; count what the new one holds.
                log.wal_bytes += if after.wal_bytes >= before.wal_bytes {
                    after.wal_bytes - before.wal_bytes
                } else {
                    after.wal_bytes
                };
                log.wal_syncs += after.wal_syncs.saturating_sub(before.wal_syncs);
            }
            stats = now;
        }
    }
    let mut facts = feed_traced.facts().cloned().unwrap_or_default();
    if let Some(f) = dashboard_traced.facts() {
        facts.merge(f);
    }
    (log, facts)
}

/// A fresh durable directory, unique within the process too.
fn run_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let i = NEXT.fetch_add(1, Ordering::Relaxed);
    Path::new(crate::OUT_DIR).join(format!("feed-{}-{i}", std::process::id()))
}

pub fn run(run: &Run, out: &mut Report) {
    let name = dataset_name(run);
    let mut setups = Vec::new();
    let mut env = None;
    for i in 0..run.setups {
        let began = if i == 0 {
            run.process_start
        } else {
            Instant::now()
        };
        if let Some(old) = env.take() {
            let old: Env = old;
            let dir = old.dir.clone();
            drop(old);
            let _ = std::fs::remove_dir_all(dir);
        }
        match set_up(run, run_dir()) {
            Ok(e) => env = Some(e),
            Err(e) => {
                out.mismatch("setup", format!("set-up failed: {e}"));
                return;
            }
        }
        setups.push(began.elapsed().as_secs_f64());
    }
    let env = env.expect("at least one set-up");
    let fs = crate::stats::fs_type(&env.dir);
    println!(
        "inputs: Santander stand-in, {} sensors x {} timestamps retained (window {WINDOW}), {BATCH_TIMESTAMPS} timestamps per batch",
        env.source.sensor_count(),
        env.mirror.0.timestamp_count(),
    );
    println!(
        "host: durable directory {} on {fs}, syncs return at once as on tmpfs",
        env.dir.display()
    );

    let trace = Trace::new(run.process_start, 0);
    let admission_before = env.svc.admission_stats();
    let cache_before = env.svc.cache_stats();
    let durability_before = env.svc.durability_stats_in(DEFAULT_TENANT, &name).ok();
    let t0 = Instant::now();
    let (log, facts) = live(run, &env, t0 + Duration::from_secs_f64(run.seconds), &trace);
    let elapsed = t0.elapsed();
    let admission_after = env.svc.admission_stats();
    let cache_after = env.svc.cache_stats();
    let durability_after = env.svc.durability_stats_in(DEFAULT_TENANT, &name).ok();

    // Checks, after timing: every batch applied exactly once, the live
    // dataset re-mines like a cold mine of its window, and every reopened
    // service holds the same dataset.
    let batches = log.revisions.len() as u64;
    out.ops
        .insert("batch".into(), (batches + log.failed, log.failed));
    let exactly_once = log
        .revisions
        .iter()
        .enumerate()
        .all(|(k, &r)| r == env.r0 + k as u64 + 1);
    let final_revision = env
        .svc
        .dataset_revision_in(DEFAULT_TENANT, &name)
        .unwrap_or(0);
    if exactly_once && final_revision == env.r0 + batches {
        out.attempt("exactly-once", true);
    } else {
        out.mismatch(
            "exactly-once",
            format!(
                "revision {final_revision} after {batches} batches from {}",
                env.r0
            ),
        );
    }
    let live = env
        .svc
        .dataset_in(DEFAULT_TENANT, &name)
        .expect("live dataset");
    let window = live
        .slice_time(live.grid().start(), live.grid().range().end)
        .expect("retained window");
    let cold = Miner::new(point(run))
        .and_then(|m| m.mine(&window))
        .expect("cold mine");
    match &log.last {
        Some((revision, caps))
            if *revision == final_revision
                && capset_to_json(caps).to_string_compact()
                    == capset_to_json(&cold.caps).to_string_compact() =>
        {
            out.attempt("live-remine", true)
        }
        _ => out.mismatch(
            "live-remine",
            "the last rendered CapSet differs from a cold mine of the final window".into(),
        ),
    }
    let expected = snapshot_data(&live, final_revision, 0, &[]).to_string_compact();
    let live_timestamps = live.timestamp_count();
    drop(live);
    let (dir, r0) = (env.dir.clone(), env.r0);
    // Every handle on the service goes before the directory is reopened.
    drop(env);

    let mut recover = Samples::default();
    let mut replayed = 0u64;
    for _ in 0..REOPENS {
        let started = Instant::now();
        let open = || open_durable(&dir);
        let reopened = if run.trace {
            trace.op("reopen", || trace.span("durability.reopen", open))
        } else {
            open()
        };
        recover.push(started.elapsed());
        let same = reopened.ok().and_then(|svc| {
            replayed += svc
                .durability_stats_in(DEFAULT_TENANT, &name)
                .map(|s| s.replayed_records)
                .unwrap_or(0);
            let ds = svc.dataset_in(DEFAULT_TENANT, &name).ok()?;
            let revision = svc.dataset_revision_in(DEFAULT_TENANT, &name).ok()?;
            Some(
                revision == final_revision
                    && snapshot_data(&ds, revision, 0, &[]).to_string_compact() == expected,
            )
        });
        if same == Some(true) {
            out.attempt("reopen", true);
        } else {
            out.mismatch("reopen", "a reopened service holds another dataset".into());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let peak_rss = crate::stats::peak_rss_mb();

    let fresh = log.fresh();
    println!(
        "inputs: {batches} batches from revision {r0}, {live_timestamps} retained timestamps at the end, per response CAPs median {:.0}, KB median {:.0}",
        median(&log.caps),
        median(&log.response_kb),
    );
    println!(
        "inputs: largest component {} (cold mine of the final window)",
        cold.report.largest_component
    );
    for (name, s) in [
        ("append", &log.write),
        ("read", &log.read),
        ("fresh", &fresh),
        ("recover", &recover),
    ] {
        let tail = s.tail_pct();
        println!(
            "latency {name:<8} p50 {:8.3} ms  p{tail} {:8.3} ms  n={}",
            s.pct_ms(50),
            s.pct_ms(tail),
            s.len()
        );
    }

    if !run.trace {
        out.put("setup_s", median(&setups), "s", setups.len());
        out.put("peak_rss_mb", peak_rss, "MiB", 1);
        out.put(
            "ops_per_s",
            log.calls as f64 / elapsed.as_secs_f64(),
            "1/s",
            log.calls as usize,
        );
        out.put("write_p50_ms", log.write.pct_ms(50), "ms", log.write.len());
        out.put("read_p50_ms", log.read.pct_ms(50), "ms", log.read.len());
        out.put("fresh_p50_ms", fresh.pct_ms(50), "ms", fresh.len());
        return;
    }

    let threads = vec![trace.into_spans()];
    let layers = trace::layer_times(&threads);
    let traced_ops = layers.op_ms.values().map(|v| v.len()).sum::<usize>();
    let all_ops = log.calls.max(1) as f64;
    let installs = match (&durability_before, &durability_after) {
        (Some(b), Some(a)) => a.snapshot_generation.saturating_sub(b.snapshot_generation),
        _ => 0,
    };
    let per_batch = |v: u64| v as f64 / batches.max(1) as f64;
    let plain_p50 = log.fresh_plain.pct_ms(50);
    crate::layers::put_layers(
        out,
        &layers,
        &facts,
        crate::layers::Counters {
            ops: traced_ops,
            result_lookups: ((cache_after.hits + cache_after.misses)
                - (cache_before.hits + cache_before.misses)) as u64,
            result_hits: (cache_after.hits - cache_before.hits) as u64,
            admitted_per_op: (admission_after.admitted - admission_before.admitted) as f64
                / all_ops,
            shed_per_op: (admission_after.shed - admission_before.shed) as f64 / all_ops,
            response_kb: median(&log.response_kb),
            svg_kb: median(&log.svg_kb),
            batches,
            syncs_per_batch: per_batch(log.wal_syncs),
            wal_kb_per_batch: per_batch(log.wal_bytes) / 1024.0,
            installs_per_batch: per_batch(installs),
            replayed_per_reopen: replayed as f64 / REOPENS as f64,
            overhead_pct: 100.0 * (log.fresh_traced.pct_ms(50) - plain_p50) / plain_p50.max(1e-9),
        },
    );
    println!(
        "trace: {traced_ops} traced ops, fresh p50 untraced {:.3} ms (n={}) traced {:.3} ms (n={})",
        plain_p50,
        log.fresh_plain.len(),
        log.fresh_traced.pct_ms(50),
        log.fresh_traced.len()
    );
    crate::layers::write(run, &threads);
}
