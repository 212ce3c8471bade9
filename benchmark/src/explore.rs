//! `explore`: one analyst exploring a country, as a closed loop with one
//! client thread.
//!
//! Each session uploads the China6 stand-in through the chunked upload
//! routes, runs a seeded script that interleaves cold mines (a new ε),
//! retunes (new ψ/η/μ at an ε already used), revisits (a point already
//! mined) and small ψ×η sweeps, and deletes the dataset. After every
//! request the client decodes the CAPs and renders the top CAP's Figure-3
//! dashboard.

use crate::api::{render, Api, MineFacts};
use crate::stats::{median, Report, Samples};
use crate::trace::{self, span, Span, Trace};
use crate::wire::WireTransport;
use crate::Run;
use miscela_cache::codec::{capset_from_json, capset_to_json};
use miscela_core::evolving::Direction;
use miscela_core::{CapSet, Miner, MiningParams};
use miscela_csv::DatasetWriter;
use miscela_datagen::{ChinaGenerator, ChinaProfile};
use miscela_model::Dataset;
use miscela_server::{MiscelaService, Router};
use miscela_store::Json;
use rand::{Rng, SeedableRng, StdRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const DATASET: &str = "china6";
/// ε pool: the first use of each in a session is a cold mine.
const EPS: [f64; 5] = [1.5, 1.75, 2.0, 2.25, 2.5];
/// ψ offsets above each ε's base support (see [`psi_base`]).
const PSI_STEP: [usize; 3] = [0, 10, 20];
/// η pool: 150 km gives small components, 250 km one giant component.
const ETA: [f64; 3] = [150.0, 200.0, 250.0];
const MU: [usize; 2] = [3, 4];
const UPLOAD_CHUNK_LINES: usize = 10_000;

/// The smallest ψ used at an ε. Support falls as ε rises, so the base
/// falls with it; this keeps every response between ~20 KB and ~1 MB.
fn psi_base(e: usize) -> usize {
    140 - 10 * e
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Point {
    e: usize,
    p: usize,
    h: usize,
    m: usize,
}

impl Point {
    /// ψ is a support count, so the smoke size's shorter series scale it
    /// down by the same factor.
    fn psi(&self, smoke: bool) -> usize {
        let psi = psi_base(self.e) + PSI_STEP[self.p];
        if smoke {
            psi / 3
        } else {
            psi
        }
    }

    fn params(&self, smoke: bool) -> MiningParams {
        MiningParams::new()
            .with_epsilon(EPS[self.e])
            .with_psi(self.psi(smoke))
            .with_eta_km(ETA[self.h])
            .with_mu(MU[self.m])
    }

    fn body(&self, smoke: bool) -> Json {
        Json::from_pairs([
            ("epsilon", Json::from(EPS[self.e])),
            ("psi", Json::from(self.psi(smoke))),
            ("eta_km", Json::from(ETA[self.h])),
            ("mu", Json::from(MU[self.m])),
        ])
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Cold,
    Retune,
    Revisit,
    Sweep,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Cold => "cold",
            Kind::Retune => "retune",
            Kind::Revisit => "revisit",
            Kind::Sweep => "sweep",
        }
    }
}

#[derive(Debug, Clone)]
struct Request {
    kind: Kind,
    points: Vec<Point>,
}

/// One item of a session's content, before it is ordered.
#[derive(Debug, Clone, Copy)]
enum Item {
    /// A single-point mine: the first point at each ε is the cold mine,
    /// the second (always after it) the retune.
    Mine(Point),
    /// Mine again the single point with this index.
    Revisit(usize),
    /// A 2 ψ × 2 η sweep at an ε the session already used.
    Sweep([Point; 4]),
}

/// Distinct session contents; a run repeats them in turn, so runs that
/// finish a different number of sessions still serve the same mix.
const CONTENTS: usize = 3;

/// Session `i`'s content: two single points at each ε, revisits of six of
/// them, and two sweeps. The content depends on `i` alone, so every seed
/// does the same work; the seed only orders it.
fn session_items(i: usize, smoke: bool) -> Vec<Item> {
    let i = i % CONTENTS;
    let eps = if smoke { 2 } else { EPS.len() };
    let mut singles = Vec::new();
    for e in 0..eps {
        // Each content and ε gets its own (ψ, η, μ) cell.
        let c = i * EPS.len() + e;
        let (p, h, m) = (c % 3, (c / 3) % 3, (c / 9) % 2);
        singles.push(Point { e, p, h, m });
        singles.push(Point {
            e,
            p: (p + 1) % 3,
            h: (h + 1) % 3,
            m: (m + 1) % 2,
        });
    }
    let mut items: Vec<Item> = singles.iter().map(|&p| Item::Mine(p)).collect();
    let revisits = if smoke { 2 } else { 6 };
    // 3 is coprime to the 10 singles, so the six targets are distinct.
    items.extend((0..revisits).map(|k| Item::Revisit((i + 3 * k) % singles.len())));
    let sweeps: &[usize] = if smoke { &[0] } else { &[0, 2] };
    for &offset in sweeps {
        let e = (i + offset) % eps;
        let m = i % 2;
        // Skip the ψ of the single point sharing this μ, so no grid point
        // was mined before; η stays at 150/200 km to bound the response.
        let taken = singles
            .iter()
            .find(|p| p.e == e && p.m == m)
            .map_or(0, |p| p.p);
        let ps: Vec<usize> = (0..3).filter(|&p| p != taken).collect();
        items.push(Item::Sweep(
            [(ps[0], 0), (ps[0], 1), (ps[1], 0), (ps[1], 1)].map(|(p, h)| Point { e, p, h, m }),
        ));
    }
    items
}

/// Orders a session's content: a seeded shuffle, then repeatedly the
/// first item whose prerequisites hold (a retune after its ε's cold mine,
/// a revisit after its target, a sweep after its ε's cold mine). Which
/// point is cold, retuned or revisited is fixed by the content, so every
/// seed serves the same requests in another order.
fn session_script(i: usize, rng: &mut StdRng, smoke: bool) -> Vec<Request> {
    let items = session_items(i, smoke);
    let singles: Vec<Point> = items
        .iter()
        .filter_map(|it| match it {
            Item::Mine(p) => Some(*p),
            _ => None,
        })
        .collect();
    let mut pending = items;
    for k in (1..pending.len()).rev() {
        pending.swap(k, rng.gen_range(0..=k));
    }
    let mut used: Vec<usize> = Vec::new();
    let mut mined: Vec<Point> = Vec::new();
    let mut script = Vec::with_capacity(pending.len());
    while !pending.is_empty() {
        let next = pending
            .iter()
            .position(|it| match it {
                Item::Mine(p) => {
                    let first = singles.iter().find(|q| q.e == p.e).expect("own ε");
                    first == p || mined.contains(first)
                }
                Item::Revisit(j) => mined.contains(&singles[*j]),
                Item::Sweep(g) => used.contains(&g[0].e),
            })
            .expect("every ε's cold mine is always ready");
        let request = match pending.remove(next) {
            Item::Mine(p) => Request {
                kind: if used.contains(&p.e) {
                    Kind::Retune
                } else {
                    Kind::Cold
                },
                points: vec![p],
            },
            Item::Revisit(j) => Request {
                kind: Kind::Revisit,
                points: vec![singles[j]],
            },
            Item::Sweep(g) => Request {
                kind: Kind::Sweep,
                points: g.to_vec(),
            },
        };
        for p in &request.points {
            if !used.contains(&p.e) {
                used.push(p.e);
            }
            if !mined.contains(p) {
                mined.push(*p);
            }
        }
        script.push(request);
    }
    script
}

/// A structural FNV-1a digest of a CapSet: equal digests mean equal
/// CapSets, and so byte-identical encodings.
fn digest(caps: &CapSet) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(caps.len() as u64);
    for cap in caps.caps() {
        eat(cap.members.len() as u64);
        for m in &cap.members {
            eat(m.sensor.0 as u64);
            eat((m.direction == Direction::Up) as u64);
        }
        eat(cap.attributes.len() as u64);
        for a in &cap.attributes {
            eat(a.0 as u64);
        }
        eat(cap.support as u64);
        eat(cap.timestamps.len() as u64);
        for &t in &cap.timestamps {
            eat(t as u64);
        }
    }
    h
}

/// The analyst's copy of the data and the CSVs it uploads.
struct Fixture {
    smoke: bool,
    dataset: Dataset,
    location_csv: String,
    attribute_csv: String,
    data_csv: String,
}

fn fixture(smoke: bool) -> Fixture {
    let scale = if smoke { 0.01 } else { 0.05 };
    let dataset = ChinaGenerator::small(ChinaProfile::China6)
        .with_scale(scale)
        .generate();
    let writer = DatasetWriter::new();
    Fixture {
        smoke,
        location_csv: writer.location_csv(&dataset),
        attribute_csv: writer.attribute_csv(&dataset),
        data_csv: writer.data_csv(&dataset),
        dataset,
    }
}

/// What the timed phase observed.
#[derive(Default)]
struct Log {
    kinds: BTreeMap<&'static str, Samples>,
    read: Samples,
    fresh: Samples,
    calls: u64,
    /// Digest of the first served CapSet per point; later serves must
    /// match it, and so must the reference.
    served: BTreeMap<Point, u64>,
    served_checks: u64,
    response_kb: Vec<f64>,
    caps_per_response: Vec<f64>,
    svg_kb: Vec<f64>,
}

/// Decodes every CapSet of a response, dropping the document inside the
/// span.
fn decode(trace: Option<&Trace>, body: Json, sweep: bool) -> Option<Vec<CapSet>> {
    span(trace, "codec.decode", move || {
        let caps = if sweep {
            body.get("results")?
                .as_array()?
                .iter()
                .map(|r| capset_from_json(r.get("caps")?))
                .collect::<Option<Vec<_>>>()
        } else {
            capset_from_json(body.get("caps")?).map(|c| vec![c])
        };
        drop(body);
        caps
    })
}

/// Runs one session. Returns after the delete; stops issuing requests
/// once `deadline` has passed.
fn session(
    api: &mut Api,
    fx: &Fixture,
    script: &[Request],
    deadline: Option<Instant>,
    log: &mut Log,
    report: &mut Report,
) {
    let trace = api.trace();
    let op = |kind: &'static str, f: &mut dyn FnMut() -> bool| -> bool {
        match trace {
            Some(t) => t.op(kind, f),
            None => f(),
        }
    };
    let began = Instant::now();
    let mut error = None;
    let uploaded = op("upload", &mut || {
        api.register(
            DATASET,
            &fx.location_csv,
            &fx.attribute_csv,
            &fx.data_csv,
            UPLOAD_CHUNK_LINES,
        )
        .map_err(|e| error = Some(e))
        .is_ok()
    });
    log.calls += 1;
    if let Some(e) = error {
        report.mismatch("upload", format!("upload failed: {e}"));
        return;
    }
    report.attempt("upload", uploaded);
    log.kinds.entry("upload").or_default().push(began.elapsed());
    api.take_received();
    let mut first = true;
    for request in script {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        let sweep = request.kind == Kind::Sweep;
        let start = Instant::now();
        let mut svg = 0;
        let mut served = Err(String::new());
        op(request.kind.name(), &mut || {
            let body = if sweep {
                let points = Json::Array(request.points.iter().map(|p| p.body(fx.smoke)).collect());
                api.sweep(DATASET, points)
            } else {
                api.mine(DATASET, request.points[0].body(fx.smoke))
            };
            served = body.and_then(|b| decode(trace, b, sweep).ok_or("undecodable CAPs".into()));
            if let Ok(sets) = &served {
                svg = render(trace, &fx.dataset, &sets[0]);
            }
            served.is_ok()
        });
        let elapsed = start.elapsed();
        log.calls += 1;
        let sets = match served {
            Ok(sets) => sets,
            Err(e) => {
                report.mismatch(request.kind.name(), format!("{:?}: {e}", request.points));
                continue;
            }
        };
        log.kinds
            .entry(request.kind.name())
            .or_default()
            .push(elapsed);
        log.read.push(elapsed);
        if first {
            log.fresh.push(began.elapsed());
            first = false;
        }
        log.response_kb.push(api.take_received() as f64 / 1024.0);
        log.svg_kb.push(svg as f64 / 1024.0);
        let mut ok = sets.len() == request.points.len();
        for (point, caps) in request.points.iter().zip(&sets) {
            log.caps_per_response.push(caps.len() as f64);
            log.served_checks += 1;
            ok &= *log.served.entry(*point).or_insert_with(|| digest(caps)) == digest(caps);
        }
        if ok {
            report.attempt(request.kind.name(), true);
        } else {
            report.mismatch(
                request.kind.name(),
                format!(
                    "{:?} served a CapSet that differs from its first serve",
                    request.points
                ),
            );
        }
    }
    let started = Instant::now();
    let deleted = op("delete", &mut || api.delete(DATASET).is_ok());
    log.calls += 1;
    report.attempt("delete", deleted);
    if deleted {
        log.kinds
            .entry("delete")
            .or_default()
            .push(started.elapsed());
    }
}

/// A served-but-not-yet-timed environment: service, router and client.
struct Env {
    fx: Fixture,
    svc: Arc<MiscelaService>,
    router: Arc<Router>,
}

impl Env {
    fn wire_api<'a>(&self, client: &str) -> Api<'a> {
        Api::wire(WireTransport::new(Arc::clone(&self.router)), client)
    }
}

/// Generation, upload and one untimed warm-up session.
fn set_up(run: &Run, rng: &mut StdRng, report: &mut Report) -> Env {
    let fx = fixture(run.smoke);
    let svc = Arc::new(MiscelaService::new());
    let router = Arc::new(Router::new(Arc::clone(&svc)));
    let env = Env { fx, svc, router };
    let mut api = env.wire_api("analyst-setup");
    let mut warm = Log::default();
    let script = session_script(0, rng, run.smoke);
    session(&mut api, &env.fx, &script, None, &mut warm, report);
    env
}

pub fn run(run: &Run, out: &mut Report) {
    let mut rng = StdRng::seed_from_u64(run.seed);
    let mut setups = Vec::new();
    let mut warm_report = Report::default();
    let mut env = None;
    for i in 0..run.setups {
        let began = if i == 0 {
            run.process_start
        } else {
            Instant::now()
        };
        env = Some(set_up(run, &mut rng, &mut warm_report));
        setups.push(began.elapsed().as_secs_f64());
    }
    let env = env.expect("at least one set-up");
    if warm_report.failed() > 0 {
        out.mismatch("setup", format!("warm-up failed: {:?}", warm_report.ops));
    }
    let fx = &env.fx;
    println!(
        "inputs: China6 stand-in, {} sensors x {} timestamps, data.csv {:.1} MiB in {}-line chunks",
        fx.dataset.sensor_count(),
        fx.dataset.timestamp_count(),
        fx.data_csv.len() as f64 / (1 << 20) as f64,
        UPLOAD_CHUNK_LINES
    );

    // Timed phase. A traced run alternates sessions between the measured
    // path and the traced path, so the tracing overhead is read off one
    // process under the same conditions.
    let trace = Trace::new(run.process_start, 0);
    let mut log = Log::default();
    let mut traced_log = Log::default();
    let (mut plain_time, mut traced_time) = (Duration::ZERO, Duration::ZERO);
    let mut facts = MineFacts::default();
    let admission_before = env.svc.admission_stats();
    let cache_before = env.svc.cache_stats();
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(run.seconds);
    // One client per path for the whole run: idempotency keys stay unique.
    let mut plain = env.wire_api("analyst");
    let mut traced = Api::traced(Arc::clone(&env.svc), &trace, "analyst-traced");
    let mut n = 0usize;
    while Instant::now() < deadline {
        let script = session_script(n + 1, &mut rng, run.smoke);
        let started = Instant::now();
        if run.trace && n % 2 == 1 {
            session(
                &mut traced,
                fx,
                &script,
                Some(deadline),
                &mut traced_log,
                out,
            );
            traced_time += started.elapsed();
        } else {
            session(&mut plain, fx, &script, Some(deadline), &mut log, out);
            plain_time += started.elapsed();
        }
        n += 1;
    }
    if let Some(f) = traced.facts() {
        facts.merge(f);
    }
    drop(traced);
    let elapsed = t0.elapsed();
    let admission_after = env.svc.admission_stats();
    let cache_after = env.svc.cache_stats();
    let peak_rss = crate::stats::peak_rss_mb();

    // Checks, after timing: every distinct point against a cache-less mine.
    let mut largest: BTreeMap<usize, usize> = BTreeMap::new();
    let mut served = std::mem::take(&mut log.served);
    for (p, d) in std::mem::take(&mut traced_log.served) {
        if *served.entry(p).or_insert(d) != d {
            out.mismatch("reference", format!("{p:?} differs between the two paths"));
        }
    }
    // The reference's encoding must decode to a CapSet whose digest equals
    // both the reference's and the one served: then the served bytes and
    // the reference bytes are the same.
    let mut reference_kb = Vec::new();
    for (point, served_digest) in &served {
        let reference = Miner::new(point.params(fx.smoke))
            .and_then(|m| m.mine(&fx.dataset))
            .expect("reference mine");
        let bytes = capset_to_json(&reference.caps).to_string_compact();
        let round_trip = Json::parse(&bytes).ok().and_then(|j| capset_from_json(&j));
        reference_kb.push(bytes.len() as f64 / 1024.0);
        let e = largest.entry(point.h).or_default();
        *e = (*e).max(reference.report.largest_component);
        let expected = digest(&reference.caps);
        if round_trip.is_some_and(|r| digest(&r) == expected) && expected == *served_digest {
            out.attempt("reference", true);
        } else {
            out.mismatch(
                "reference",
                format!("{point:?}: served CapSet differs from a cache-less mine"),
            );
        }
    }

    println!(
        "inputs: largest component by eta {}; {} distinct points, reference CapSet KB median {:.0} max {:.0}",
        largest
            .iter()
            .map(|(h, n)| format!("{}km={n}", ETA[*h]))
            .collect::<Vec<_>>()
            .join(" "),
        served.len(),
        median(&reference_kb),
        reference_kb.iter().cloned().fold(0.0, f64::max)
    );
    println!(
        "inputs: per response CAPs median {:.0} max {:.0}, KB median {:.0} max {:.0}; {} served CapSets checked",
        median(&log.caps_per_response),
        log.caps_per_response.iter().cloned().fold(0.0, f64::max),
        median(&log.response_kb),
        log.response_kb.iter().cloned().fold(0.0, f64::max),
        log.served_checks + traced_log.served_checks
    );
    for (kind, s) in &log.kinds {
        let tail = s.tail_pct();
        println!(
            "latency {kind:<8} p50 {:8.3} ms  p{tail} {:8.3} ms  n={}",
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
        let upload = log.kinds.get("upload").cloned().unwrap_or_default();
        out.put("write_p50_ms", upload.pct_ms(50), "ms", upload.len());
        out.put("read_p50_ms", log.read.pct_ms(50), "ms", log.read.len());
        out.put("fresh_p50_ms", log.fresh.pct_ms(50), "ms", log.fresh.len());
        return;
    }

    let threads: Vec<(u32, Vec<Span>)> = vec![trace.into_spans()];
    let layers = trace::layer_times(&threads);
    let plain_rate = log.calls as f64 / plain_time.as_secs_f64().max(1e-9);
    let traced_rate = traced_log.calls as f64 / traced_time.as_secs_f64().max(1e-9);
    let traced_ops = layers.op_ms.values().map(|v| v.len()).sum::<usize>();
    let admitted = admission_after.admitted - admission_before.admitted;
    let shed = admission_after.shed - admission_before.shed;
    let lookups =
        (cache_after.hits + cache_after.misses) - (cache_before.hits + cache_before.misses);
    let hits = cache_after.hits - cache_before.hits;
    let all_ops = (log.calls + traced_log.calls).max(1) as f64;
    crate::layers::put_layers(
        out,
        &layers,
        &facts,
        crate::layers::Counters {
            ops: traced_ops,
            result_lookups: lookups as u64,
            result_hits: hits as u64,
            admitted_per_op: admitted as f64 / all_ops,
            shed_per_op: shed as f64 / all_ops,
            response_kb: median(&traced_log.response_kb),
            svg_kb: median(&traced_log.svg_kb),
            overhead_pct: 100.0 * (plain_rate - traced_rate) / plain_rate.max(1e-9),
            ..Default::default()
        },
    );
    println!(
        "trace: {} traced ops, ops/s untraced {:.2} traced {:.2}",
        traced_ops, plain_rate, traced_rate
    );
    crate::layers::write(run, &threads);
}
