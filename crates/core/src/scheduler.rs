//! Shared work-stealing scheduler for the mining pipeline.
//!
//! Both parallel phases of the pipeline — the per-series extraction map of
//! steps (1)+(2) and the per-component/per-seed CAP search of step (4) —
//! have the same shape: a fixed slice of independent work units of uneven
//! cost, workers that each own a reusable scratch state, and a result that
//! must not depend on thread timing. [`run_units_cancellable`] implements
//! that shape once, and [`parallel_map_cancellable`] is its scratch-free
//! form:
//!
//! * units are claimed through a shared **atomic cursor** — work stealing
//!   rather than a static split, so a fast worker drains the tail instead
//!   of idling behind a slow one (callers sort units most-expensive-first
//!   when costs are known);
//! * each worker builds one scratch value and reuses it across every unit
//!   it claims, preserving the allocation-free steady state of the search
//!   core;
//! * results are reassembled in **unit order**, so the output is
//!   deterministic regardless of which worker ran which unit;
//! * the [`CancelToken`] is polled at every unit boundary and the first
//!   error aborts the batch, so a cancelled or failed phase stops within
//!   one unit.

use crate::cancel::CancelToken;
use crate::error::MiningError;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Number of workers the host offers (`available_parallelism`, 1 on error).
pub fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Estimated work, in 64-point grid words, below which a phase runs on the
/// caller's thread: spawning and joining scoped workers costs tens of
/// microseconds each, more than such a phase saves by splitting.
pub const PARALLEL_WORK_WORDS: usize = 1 << 12;

/// The fan-out rule both mining phases share: every available worker once
/// a phase's estimated work reaches [`PARALLEL_WORK_WORDS`], otherwise one
/// (no thread is spawned). Extraction estimates the grid words of the
/// series that need a cold extraction or a trim derivation after the cache
/// probe; the search estimates component size × grid words. Either way
/// the output is the same: units are reassembled in unit order.
pub fn workers_for(work_words: usize) -> usize {
    if work_words >= PARALLEL_WORK_WORDS {
        available_workers()
    } else {
        1
    }
}

/// Runs every unit in `units` through `run`, on up to `workers` threads
/// claiming units through a shared atomic cursor.
///
/// `new_scratch` is called once per worker; the scratch value is reused
/// across all units that worker claims. Results are concatenated in unit
/// order (not completion order), so the output equals the serial
/// `for unit in units { run(unit, scratch, out)? }` regardless of thread
/// timing. With `workers <= 1` (or a single unit) no threads are spawned.
///
/// The token is polled at every unit boundary, `run` may fail, and the
/// first error (from any worker) aborts the whole batch: remaining workers
/// stop claiming units at their next boundary, so the abort latency is
/// bounded by one unit, and partial results are discarded. A worker's
/// panic is propagated to the caller unchanged.
pub fn run_units_cancellable<U, S, R, NS, RU>(
    units: &[U],
    workers: usize,
    cancel: &CancelToken,
    new_scratch: NS,
    run: RU,
) -> Result<Vec<R>, MiningError>
where
    U: Sync,
    R: Send,
    NS: Fn() -> S + Sync,
    RU: Fn(&U, &mut S, &mut Vec<R>) -> Result<(), MiningError> + Sync,
{
    let run = |unit: &U, scratch: &mut S, out: &mut Vec<R>| {
        cancel.check()?;
        run(unit, scratch, out)
    };
    if units.is_empty() {
        return Ok(Vec::new());
    }
    let workers = workers.clamp(1, units.len());
    if workers == 1 {
        let mut scratch = new_scratch();
        let mut out = Vec::new();
        for unit in units {
            run(unit, &mut scratch, &mut out)?;
        }
        return Ok(out);
    }

    let cursor = AtomicUsize::new(0);
    // First error poisons the batch: other workers observe the flag at
    // their next unit boundary and stop claiming work.
    let poisoned = AtomicBool::new(false);
    let mut indexed: Vec<(usize, Vec<R>)> = Vec::with_capacity(units.len());
    let mut first_error: Option<MiningError> = None;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..workers {
            handles.push(scope.spawn(|| {
                let mut scratch = new_scratch();
                let mut local: Vec<(usize, Vec<R>)> = Vec::new();
                loop {
                    if poisoned.load(Ordering::Acquire) {
                        break;
                    }
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= units.len() {
                        break;
                    }
                    let mut out = Vec::new();
                    if let Err(e) = run(&units[i], &mut scratch, &mut out) {
                        poisoned.store(true, Ordering::Release);
                        return Err(e);
                    }
                    local.push((i, out));
                }
                Ok(local)
            }));
        }
        for h in handles {
            match h.join() {
                Ok(Ok(local)) => indexed.extend(local),
                Ok(Err(e)) => {
                    first_error.get_or_insert(e);
                }
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    if let Some(e) = first_error {
        return Err(e);
    }
    indexed.sort_by_key(|(i, _)| *i);
    Ok(indexed.into_iter().flat_map(|(_, out)| out).collect())
}

/// Order-preserving parallel map over a slice: `out[i] == f(&items[i])`,
/// computed by up to `workers` work-stealing threads. The scratch-free
/// form of [`run_units_cancellable`] used by the extraction front-end: the
/// token is polled before each item and the first `Err` from `f` (or the
/// token) aborts the map.
pub fn parallel_map_cancellable<T, R, F>(
    items: &[T],
    workers: usize,
    cancel: &CancelToken,
    f: F,
) -> Result<Vec<R>, MiningError>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> Result<R, MiningError> + Sync,
{
    run_units_cancellable(
        items,
        workers,
        cancel,
        || (),
        |item, (), out| {
            out.push(f(item)?);
            Ok(())
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn empty_and_single_unit() {
        let never = CancelToken::never();
        let out: Result<Vec<i32>, _> =
            run_units_cancellable(&[] as &[i32], 8, &never, || (), |_, (), _| unreachable!());
        assert_eq!(out, Ok(Vec::new()));
        let out = parallel_map_cancellable(&[7], 8, &never, |&x| Ok(x * 2));
        assert_eq!(out, Ok(vec![14]));
    }

    #[test]
    fn preserves_unit_order_across_workers() {
        let items: Vec<usize> = (0..500).collect();
        for workers in [1, 2, 4, 8] {
            let out =
                parallel_map_cancellable(&items, workers, &CancelToken::never(), |&i| Ok(i * i));
            assert_eq!(out, Ok(items.iter().map(|&i| i * i).collect::<Vec<_>>()));
        }
    }

    #[test]
    fn units_can_emit_zero_or_many_results() {
        let items: Vec<usize> = (0..100).collect();
        let out = run_units_cancellable(
            &items,
            4,
            &CancelToken::never(),
            || (),
            |&i, (), out| {
                for _ in 0..(i % 3) {
                    out.push(i);
                }
                Ok(())
            },
        );
        let expected: Vec<usize> = items.iter().flat_map(|&i| vec![i; i % 3]).collect();
        assert_eq!(out, Ok(expected));
    }

    #[test]
    fn scratch_is_reused_within_a_worker() {
        // Each worker's scratch counts the units it ran; the counts must sum
        // to the unit total and every scratch must have been built by
        // `new_scratch`.
        let built = AtomicUsize::new(0);
        let items: Vec<usize> = (0..200).collect();
        let out = run_units_cancellable(
            &items,
            4,
            &CancelToken::never(),
            || {
                built.fetch_add(1, Ordering::Relaxed);
                0usize
            },
            |&i, count, out| {
                *count += 1;
                out.push((i, *count));
                Ok(())
            },
        )
        .expect("no failures injected");
        assert_eq!(out.len(), items.len());
        // Unit order is preserved even though per-worker counts interleave.
        assert!(out.iter().enumerate().all(|(idx, &(i, _))| idx == i));
        let builds = built.load(Ordering::Relaxed);
        assert!((1..=4).contains(&builds), "scratch built {builds} times");
        // A counter above 1 proves a scratch served more than one unit; the
        // counters can never exceed the unit total.
        assert!(out.iter().map(|&(_, c)| c).max().unwrap() <= items.len());
        assert!(out.iter().map(|&(_, c)| c).max().unwrap() > 1);
    }

    #[test]
    fn pre_cancelled_token_aborts_before_any_unit_runs() {
        let token = CancelToken::new();
        token.cancel();
        let ran = AtomicUsize::new(0);
        for workers in [1, 4] {
            let out = parallel_map_cancellable(&[1, 2, 3], workers, &token, |&x: &i32| {
                ran.fetch_add(1, Ordering::Relaxed);
                Ok(x)
            });
            assert_eq!(out, Err(MiningError::Cancelled));
        }
        assert_eq!(ran.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn first_unit_error_poisons_the_batch() {
        // A mid-batch error aborts the run; workers stop claiming units, so
        // far fewer than all units run (exact count depends on timing, but
        // the serial path is deterministic).
        let items: Vec<usize> = (0..1000).collect();
        let ran = AtomicUsize::new(0);
        let out = parallel_map_cancellable(&items, 1, &CancelToken::never(), |&i| {
            ran.fetch_add(1, Ordering::Relaxed);
            if i == 5 {
                Err(MiningError::Cancelled)
            } else {
                Ok(i)
            }
        });
        assert_eq!(out, Err(MiningError::Cancelled));
        assert_eq!(ran.load(Ordering::Relaxed), 6);
        let out = parallel_map_cancellable(&items, 4, &CancelToken::never(), |&i| {
            if i == 5 {
                Err(MiningError::DeadlineExceeded)
            } else {
                Ok(i)
            }
        });
        assert_eq!(out, Err(MiningError::DeadlineExceeded));
    }

    #[test]
    fn cancellable_success_matches_infallible_output() {
        let items: Vec<usize> = (0..300).collect();
        let sequential: Vec<usize> = items.iter().map(|&i| i * 7).collect();
        for workers in [1, 3, 8] {
            let cancellable =
                parallel_map_cancellable(&items, workers, &CancelToken::never(), |&i| Ok(i * 7))
                    .expect("no failures injected");
            assert_eq!(cancellable, sequential);
        }
    }

    #[test]
    fn fan_out_follows_the_work_estimate() {
        assert_eq!(workers_for(0), 1);
        assert_eq!(workers_for(PARALLEL_WORK_WORDS - 1), 1);
        assert_eq!(workers_for(PARALLEL_WORK_WORDS), available_workers());
    }

    #[test]
    fn worker_count_is_clamped() {
        let never = CancelToken::never();
        for workers in [1000, 0] {
            let out = parallel_map_cancellable(&[1, 2], workers, &never, |&x: &i32| Ok(x + 1));
            assert_eq!(out, Ok(vec![2, 3]));
        }
        assert!(available_workers() >= 1);
    }
}
