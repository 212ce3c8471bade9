//! The crash-recovery kill-point matrix (the durability proof harness).
//!
//! A probe run first records the byte boundary of every durable write the
//! append workflow performs (snapshot installs and WAL records alike,
//! through one shared [`FailPoint`]). From those boundaries the matrix
//! derives kill budgets that land *at* every framing boundary (the next
//! write dies), one byte *before* it (the record tears mid-frame) and one
//! byte *after* the previous one (the record tears at its first byte) —
//! plus budget 0, the crash before anything was ever written.
//!
//! For every budget the workflow — register via chunked upload, begin an
//! append session, stream the tail chunks, finish — runs against a durable
//! service whose sinks die at that byte. The op that observes the simulated
//! crash errors; the driver then "restarts the process": a fresh service
//! (fresh in-memory database) recovers the same directory through the
//! normal disk opener and the client retries the failed op, exactly as a
//! real uploader would. At the end the recovered dataset must mine to a
//! CapSet byte-identical to an uninterrupted twin's: no acknowledged chunk
//! may be lost, no torn tail may be replayed.
//!
//! The fixture's tail deliberately crosses the 256-point series-block
//! boundary, so the finishing append seals a block and triggers the
//! snapshot + WAL-compaction path mid-matrix.
//!
//! `MISCELA_RECOVERY_SMOKE=1` strides the budget list (every 5th point,
//! keeping the first and last) for a bounded CI smoke run.

use miscela_v::miscela_cache::codec::capset_to_json;
use miscela_v::miscela_core::{CancelToken, CapSet, MiningParams};
use miscela_v::miscela_csv::chunk::Chunk;
use miscela_v::miscela_csv::{split_into_chunks, DatasetWriter};
use miscela_v::miscela_datagen::SantanderGenerator;
use miscela_v::miscela_model::SERIES_BLOCK_LEN;
use miscela_v::miscela_server::{ApiError, MiscelaService, DEFAULT_TENANT};
use miscela_v::miscela_store::wal::{FailPoint, FailingOpener};
use miscela_v::miscela_store::Database;
use std::path::PathBuf;
use std::sync::Arc;

const DATASET: &str = "santander";
const PREFIX_LEN: usize = 240;

struct Fixture {
    location_csv: String,
    attribute_csv: String,
    prefix_csv: String,
    tail_chunks: Vec<Chunk>,
    full_timestamps: usize,
}

fn fixture() -> Fixture {
    let full = SantanderGenerator::small().with_scale(0.02).generate();
    let n = full.timestamp_count();
    assert!(
        PREFIX_LEN < SERIES_BLOCK_LEN && n > SERIES_BLOCK_LEN,
        "fixture must cross the block boundary during the append (n = {n})"
    );
    let split_t = full.grid().at(PREFIX_LEN).unwrap();
    let prefix = full.slice_time(full.grid().start(), split_t).unwrap();
    let tail = full.slice_time(split_t, full.grid().range().end).unwrap();
    let writer = DatasetWriter::new();
    let tail_chunks = split_into_chunks(&writer.data_csv(&tail), 200);
    assert!(tail_chunks.len() >= 2, "tail must span several chunks");
    Fixture {
        location_csv: writer.location_csv(&prefix),
        attribute_csv: writer.attribute_csv(&prefix),
        prefix_csv: writer.data_csv(&prefix),
        tail_chunks,
        full_timestamps: n,
    }
}

fn quick_params() -> MiningParams {
    MiningParams::new()
        .with_epsilon(0.4)
        .with_eta_km(0.5)
        .with_psi(20)
        .with_mu(3)
        .with_segmentation(false)
}

/// One client-visible step of the append workflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Upload,
    Begin,
    Chunk(usize),
    Finish,
}

fn script(fx: &Fixture) -> Vec<Op> {
    let mut ops = vec![Op::Upload, Op::Begin];
    ops.extend((0..fx.tail_chunks.len()).map(Op::Chunk));
    ops.push(Op::Finish);
    ops
}

/// The idempotency key the workflow's finish carries: the same key on the
/// original attempt and on the post-recovery retry, exactly as a real
/// client that never saw the first acknowledgement would resend it.
const FINISH_KEY: &str = "recovery-matrix-finish";

fn run_op(svc: &MiscelaService, fx: &Fixture, op: Op) -> Result<(), ApiError> {
    match op {
        Op::Upload => svc
            .upload_documents_in(
                DEFAULT_TENANT,
                DATASET,
                &fx.prefix_csv,
                &fx.location_csv,
                &fx.attribute_csv,
                10_000,
            )
            .map(|_| ()),
        Op::Begin => svc
            .begin_append_keyed_in(DEFAULT_TENANT, DATASET, None)
            .map(|_| ()),
        Op::Chunk(i) => svc
            .append_chunk_in(DEFAULT_TENANT, DATASET, &fx.tail_chunks[i])
            .map(|_| ()),
        Op::Finish => svc
            .finish_append_keyed_in(DEFAULT_TENANT, DATASET, Some(FINISH_KEY))
            .map(|_| ()),
    }
}

fn matrix_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("miscela-recovery-matrix-{}", std::process::id()))
        .join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The uninterrupted twin: the same workflow on a plain in-memory service.
fn uninterrupted_caps(fx: &Fixture) -> CapSet {
    let svc = MiscelaService::new();
    for op in script(fx) {
        run_op(&svc, fx, op).expect("uninterrupted run must succeed");
    }
    assert_eq!(
        svc.dataset_in(DEFAULT_TENANT, DATASET)
            .unwrap()
            .timestamp_count(),
        fx.full_timestamps
    );
    svc.mine_cancellable_in(
        DEFAULT_TENANT,
        DATASET,
        &quick_params(),
        None,
        &CancelToken::never(),
    )
    .unwrap()
    .result
    .caps
}

/// Probe run: the full workflow through a never-tripping fail point,
/// recording the cumulative byte boundary of every durable write.
fn probe_boundaries(fx: &Fixture) -> Vec<u64> {
    let dir = matrix_dir("probe");
    let fail = FailPoint::unlimited();
    let opener = Arc::new(FailingOpener::new(fail.clone()));
    let svc =
        MiscelaService::with_durability_opener(Arc::new(Database::new()), &dir, opener).unwrap();
    for op in script(fx) {
        run_op(&svc, fx, op).expect("probe run must succeed");
    }
    let boundaries = fail.write_boundaries();
    assert!(
        boundaries.len() >= 6,
        "expected several durable writes, saw {boundaries:?}"
    );
    boundaries
}

/// Kill budgets derived from the probe's write boundaries: before, inside
/// and exactly at every framing boundary.
fn kill_budgets(boundaries: &[u64]) -> Vec<u64> {
    let mut budgets = std::collections::BTreeSet::new();
    budgets.insert(0);
    let mut prev = 0u64;
    for &b in boundaries {
        if b > prev + 1 {
            budgets.insert(prev + 1); // first byte of this write persists
        }
        if b > prev {
            budgets.insert(b - 1); // all but the last byte persists
        }
        budgets.insert(b); // the write completes; the *next* one dies
        prev = b;
    }
    let budgets: Vec<u64> = budgets.into_iter().collect();
    if std::env::var("MISCELA_RECOVERY_SMOKE").is_ok_and(|v| v == "1") {
        let last = *budgets.last().unwrap();
        let mut smoke: Vec<u64> = budgets.iter().copied().step_by(5).collect();
        if smoke.last() != Some(&last) {
            smoke.push(last);
        }
        smoke
    } else {
        budgets
    }
}

/// Runs the workflow with a crash at `budget` bytes, restarts, resumes, and
/// returns the recovered dataset's mined CapSet.
fn run_with_kill(fx: &Fixture, budget: u64) -> CapSet {
    let dir = matrix_dir(&format!("kill-{budget}"));
    let fail = FailPoint::after_bytes(budget);
    let opener = Arc::new(FailingOpener::new(fail.clone()));
    let mut svc =
        MiscelaService::with_durability_opener(Arc::new(Database::new()), &dir, opener).unwrap();
    let ops = script(fx);
    let mut killed = false;
    let mut i = 0;
    while i < ops.len() {
        match run_op(&svc, fx, ops[i]) {
            Ok(()) => i += 1,
            Err(e) => {
                assert!(
                    !killed,
                    "budget {budget}: second failure after the restart at {:?}: {e:?}",
                    ops[i]
                );
                assert!(
                    fail.tripped(),
                    "budget {budget}: {:?} failed without the fail point tripping: {e:?}",
                    ops[i]
                );
                killed = true;
                // "Restart the process": recover the directory through the
                // real disk opener into a fresh in-memory database, then
                // retry the op whose acknowledgement never arrived.
                svc = MiscelaService::with_database_and_durability(Arc::new(Database::new()), &dir)
                    .unwrap();
                if ops[i] == Op::Finish {
                    // The retried finish carries the same idempotency key
                    // as the attempt whose acknowledgement never arrived,
                    // so it must succeed either way the crash landed: if
                    // the commit record died with the process, the session
                    // (restored from the WAL) is applied now; if the
                    // commit was durable, the *original response* is
                    // replayed from the recovered watermark — never a
                    // NotFound, never a double-apply.
                    let (summary, _elapsed, replayed) = svc
                        .finish_append_keyed_in(DEFAULT_TENANT, DATASET, Some(FINISH_KEY))
                        .unwrap_or_else(|e| {
                            panic!(
                                "budget {budget}: keyed finish retry failed after recovery: {e:?}"
                            )
                        });
                    assert_eq!(
                        summary.timestamps, fx.full_timestamps,
                        "budget {budget}: finish retry (replayed: {replayed}) reported wrong rows"
                    );
                    assert_eq!(
                        summary.revision, 2,
                        "budget {budget}: finish retry (replayed: {replayed}) double-applied"
                    );
                } else if let Err(e) = run_op(&svc, fx, ops[i]) {
                    panic!(
                        "budget {budget}: retry of {:?} failed after recovery: {e:?}",
                        ops[i]
                    )
                }
                i += 1;
            }
        }
    }
    // A final restart regardless of where (or whether) the kill landed:
    // whatever the workflow acknowledged must survive one more recovery.
    drop(svc);
    let svc =
        MiscelaService::with_database_and_durability(Arc::new(Database::new()), &dir).unwrap();
    assert_eq!(
        svc.dataset_in(DEFAULT_TENANT, DATASET)
            .unwrap()
            .timestamp_count(),
        fx.full_timestamps,
        "budget {budget}: recovery lost acknowledged rows"
    );
    let caps = svc
        .mine_cancellable_in(
            DEFAULT_TENANT,
            DATASET,
            &quick_params(),
            None,
            &CancelToken::never(),
        )
        .unwrap()
        .result
        .caps;
    let _ = std::fs::remove_dir_all(&dir);
    caps
}

#[test]
fn every_kill_point_recovers_the_acknowledged_state() {
    let fx = fixture();
    let expected = uninterrupted_caps(&fx);
    let expected_json = capset_to_json(&expected).to_string();
    let boundaries = probe_boundaries(&fx);
    let budgets = kill_budgets(&boundaries);
    for &budget in &budgets {
        let caps = run_with_kill(&fx, budget);
        assert_eq!(
            caps, expected,
            "budget {budget}: recovered CapSet diverged from the uninterrupted twin"
        );
        assert_eq!(
            capset_to_json(&caps).to_string(),
            expected_json,
            "budget {budget}: recovered CapSet serialization diverged"
        );
    }
    let base = std::env::temp_dir().join(format!("miscela-recovery-matrix-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
}
