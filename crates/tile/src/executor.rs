//! A small work-stealing executor for per-tile jobs.
//!
//! The paper runs same-stage (and, in the refine pass, same-colour) tiles on
//! separate GPUs; here each worker is an OS thread. On a single-core host
//! the executor still exercises the identical scheduling structure, which
//! the speedup model in `ilt-core` builds on.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

use ilt_telemetry as tele;
use ilt_telemetry::fault;

/// How long an injected `tile.slow` fault stalls a job attempt. Long enough
/// to trip a short job deadline, short enough to keep fault drills fast.
const INJECTED_SLOWDOWN: Duration = Duration::from_millis(25);

/// Runs one job inside a `job` span tagged with the job and worker index,
/// and feeds its wall time into the `executor.job_us` histogram. The span
/// nests under whatever span is active on the calling thread (workers adopt
/// the submitting thread's span via [`tele::parent_scope`]).
fn traced_job<T, F: Fn(usize) -> T>(job: &F, i: usize, worker: usize) -> T {
    let mut span = tele::span(tele::names::JOB);
    span.add_field("job", i);
    span.add_field("worker", worker);
    let out = job(i);
    let seconds = span.end();
    tele::record_value("executor.job_us", (seconds * 1e6) as u64);
    out
}

/// Attempts [`TileExecutor::run_recoverable`] gives each tile job (the
/// first run counts).
const RETRY_ATTEMPTS: usize = 2;

/// Backoff slept after a tile job's first failed attempt; it doubles with
/// each further failed attempt.
const RETRY_BACKOFF: Duration = Duration::from_millis(5);

/// Backoff to sleep after failed attempt number `attempt` (1-based):
/// `RETRY_BACKOFF * 2^(attempt-1)`, saturating.
fn backoff_for(attempt: usize) -> Duration {
    RETRY_BACKOFF.saturating_mul(1u32 << (attempt - 1).min(16) as u32)
}

/// A tile job that panicked on every attempt it was given.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileFailure {
    /// Index of the failed tile job.
    pub tile: usize,
    /// Number of attempts made before giving up.
    pub attempts: usize,
    /// The final panic message (stringified payload).
    pub message: String,
}

impl std::fmt::Display for TileFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "tile {} failed after {} attempt{}: {}",
            self.tile,
            self.attempts,
            if self.attempts == 1 { "" } else { "s" },
            self.message
        )
    }
}

impl std::error::Error for TileFailure {}

/// Stringifies a panic payload (the common `String`/`&str` cases).
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs per-index jobs across a fixed number of worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileExecutor {
    workers: usize,
}

impl TileExecutor {
    /// Creates an executor with `workers` threads (0 is treated as 1).
    pub fn new(workers: usize) -> Self {
        TileExecutor {
            workers: workers.max(1),
        }
    }

    /// A sequential executor.
    pub fn sequential() -> Self {
        TileExecutor { workers: 1 }
    }

    /// Number of worker threads.
    #[inline]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Evaluates `job(i)` for `i in 0..count`, returning results in index
    /// order. Jobs are claimed dynamically, so stragglers do not idle other
    /// workers.
    ///
    /// # Panics
    ///
    /// Re-raises the first panicking job's payload on the calling thread.
    /// Other workers stop claiming new jobs, the pool winds down cleanly
    /// (no deadlock, no poisoned state), and the executor remains usable
    /// for subsequent `run` calls.
    pub fn run<T, F>(&self, count: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.dispatch(count, |i, worker| traced_job(&job, i, worker))
    }

    /// Moves each of `parts` to exactly one worker and runs `job` on it:
    /// how a whole-clip fold hands disjoint row ranges of one layout to the
    /// workers. Unlike [`run`](Self::run) no `job` span is recorded (the
    /// caller's own span times the call), and a single part, or a single
    /// worker, runs on the calling thread with no dispatch at all.
    ///
    /// # Panics
    ///
    /// Re-raises the first panicking part's payload, like
    /// [`run`](Self::run).
    pub fn run_parts<P, F>(&self, parts: Vec<P>, job: F)
    where
        P: Send,
        F: Fn(P) + Sync,
    {
        if self.workers == 1 || parts.len() <= 1 {
            parts.into_iter().for_each(job);
            return;
        }
        let parts: Vec<Mutex<Option<P>>> = parts.into_iter().map(|p| Mutex::new(Some(p))).collect();
        self.dispatch(parts.len(), |k, _| {
            let part = parts[k].lock().unwrap_or_else(|e| e.into_inner()).take();
            job(part.expect("each part is claimed once"));
        });
    }

    /// The pool behind [`run`](Self::run) and [`run_parts`](Self::run_parts):
    /// evaluates `job(i, worker)` for `i in 0..count` and returns the results
    /// in index order.
    fn dispatch<T, F>(&self, count: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, usize) -> T + Sync,
    {
        if self.workers == 1 || count <= 1 {
            return (0..count).map(|i| job(i, 0)).collect();
        }
        // What the caller knows about the job: its context record — trace
        // id (so spans stay attributable to the submitting job/request),
        // profiling stage (so worker allocations keep billing to the stage
        // that spawned them) and deadline (so jobs keep honouring it
        // off-thread) — and its innermost open span (so per-job spans
        // attach to it instead of becoming roots). Each worker re-installs
        // both.
        let context = tele::context::current();
        let parent = tele::current_span();
        let next = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        // First panic payload wins; it is re-raised after the pool drains.
        let panicked: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
        let (sender, receiver) = mpsc::channel::<(usize, T)>();
        std::thread::scope(|scope| {
            let mut threads = Vec::with_capacity(self.workers.min(count));
            for worker in 0..self.workers.min(count) {
                let sender = sender.clone();
                let next = &next;
                let stop = &stop;
                let panicked = &panicked;
                let job = &job;
                threads.push(scope.spawn(move || {
                    let _context = tele::context::scope(|c| c, context);
                    // Dropped first, which flushes this worker's counters
                    // into the sink before the scope joins it.
                    let _parent = tele::parent_scope(parent);
                    loop {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        // AssertUnwindSafe: on panic the payload is
                        // re-raised to the caller and no partial results
                        // escape, so no broken invariant is observable.
                        match catch_unwind(AssertUnwindSafe(|| job(i, worker))) {
                            // The receiver outlives the scope; send cannot
                            // fail unless a sibling panicked first.
                            Ok(value) => {
                                if sender.send((i, value)).is_err() {
                                    break;
                                }
                            }
                            Err(payload) => {
                                stop.store(true, Ordering::Relaxed);
                                let mut slot = panicked.lock().unwrap_or_else(|e| e.into_inner());
                                slot.get_or_insert(payload);
                                break;
                            }
                        }
                    }
                }));
            }
            // Join each thread outright: the scope alone only waits for the
            // closures to return, and a thread still running its exit
            // (thread-local destructors, handing its malloc arena back)
            // when the next call spawns makes that call's threads take
            // fresh arenas, each of which keeps freed memory of its own.
            for thread in threads {
                if let Err(payload) = thread.join() {
                    let mut slot = panicked.lock().unwrap_or_else(|e| e.into_inner());
                    slot.get_or_insert(payload);
                }
            }
        });
        drop(sender);
        if let Some(payload) = panicked.into_inner().unwrap_or_else(|e| e.into_inner()) {
            resume_unwind(payload);
        }
        let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
        for (i, value) in receiver {
            slots[i] = Some(value);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every index produced a result"))
            .collect()
    }

    /// Recoverable variant over an explicit set of tile indices (e.g. one
    /// colour band of a partition): `job` receives each **tile index**, not
    /// its position in the slice, and results align with `indices`. Each
    /// attempt runs under `catch_unwind`; a panicking attempt is retried
    /// once, after a 5 ms backoff (two attempts in all). A job that
    /// panics on every attempt yields `Err(TileFailure)` in its slot —
    /// carrying its tile index — instead of taking down the whole run, so
    /// callers can substitute a degraded per-tile answer.
    ///
    /// This is also where the `tile.panic` / `tile.slow` fault-injection
    /// points live (see `ilt_telemetry::fault`): injection happens inside the attempt,
    /// so an injected panic exercises exactly the retry and degradation
    /// machinery a real one would.
    pub fn run_recoverable<T, F>(&self, indices: &[usize], job: F) -> Vec<Result<T, TileFailure>>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.run(indices.len(), |k| {
            let tile = indices[k];
            let mut attempt = 0;
            loop {
                attempt += 1;
                if fault::should_fire(fault::points::TILE_SLOW) {
                    std::thread::sleep(INJECTED_SLOWDOWN);
                }
                // AssertUnwindSafe: a panicking attempt's partial state is
                // dropped and either retried from scratch or surfaced as a
                // TileFailure; no partial result escapes.
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    if fault::should_fire(fault::points::TILE_PANIC) {
                        panic!(
                            "{} tile.panic (tile {tile}, attempt {attempt})",
                            fault::INJECTED_PANIC_PREFIX
                        );
                    }
                    job(tile)
                }));
                match outcome {
                    Ok(value) => return Ok(value),
                    Err(payload) => {
                        tele::counter_add("executor.tile_panics", 1);
                        if attempt >= RETRY_ATTEMPTS {
                            return Err(TileFailure {
                                tile,
                                attempts: attempt,
                                message: panic_text(payload.as_ref()),
                            });
                        }
                        tele::counter_add("executor.tile_retries", 1);
                        std::thread::sleep(backoff_for(attempt));
                    }
                }
            }
        })
    }
}

impl Default for TileExecutor {
    fn default() -> Self {
        TileExecutor::sequential()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn sequential_and_parallel_agree() {
        let seq = TileExecutor::sequential().run(10, |i| i * i);
        let par = TileExecutor::new(4).run(10, |i| i * i);
        assert_eq!(seq, par);
        assert_eq!(seq, (0..10).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn results_are_index_ordered_despite_stealing() {
        let out = TileExecutor::new(3).run(32, |i| {
            // Make early jobs slow so later jobs finish first.
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            i
        });
        assert_eq!(out, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let _ = TileExecutor::new(4).run(100, |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn zero_workers_treated_as_one() {
        let e = TileExecutor::new(0);
        assert_eq!(e.workers(), 1);
        assert_eq!(e.run(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn empty_job_list() {
        let out: Vec<usize> = TileExecutor::new(4).run(0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn default_is_sequential() {
        assert_eq!(TileExecutor::default().workers(), 1);
    }

    #[test]
    fn run_parts_hands_each_part_to_one_call() {
        for workers in [1usize, 2, 5] {
            let mut data = vec![0usize; 10];
            let parts: Vec<(usize, &mut [usize])> = data.chunks_mut(3).enumerate().collect();
            TileExecutor::new(workers).run_parts(parts, |(k, chunk)| {
                for v in chunk {
                    *v += k + 1;
                }
            });
            assert_eq!(data, [1, 1, 1, 2, 2, 2, 3, 3, 3, 4], "{workers} workers");
        }
    }

    #[test]
    fn run_parts_reraises_a_panicking_part() {
        fault::quiet_injected_panics();
        let outcome = catch_unwind(|| {
            TileExecutor::new(2).run_parts(vec![0, 1, 2], |k| {
                if k == 1 {
                    panic!("{} part {k}", fault::INJECTED_PANIC_PREFIX);
                }
            })
        });
        let payload = outcome.expect_err("the part's panic reaches the caller");
        assert!(panic_text(payload.as_ref()).contains("part 1"));
    }

    #[test]
    fn retry_backoff_doubles_per_failed_attempt() {
        assert_eq!(backoff_for(1), Duration::from_millis(5));
        assert_eq!(backoff_for(2), Duration::from_millis(10));
        assert_eq!(backoff_for(3), Duration::from_millis(20));
    }

    #[test]
    fn recoverable_matches_run_when_nothing_panics() {
        let e = TileExecutor::new(3);
        let all: Vec<usize> = (0..8).collect();
        let out = e.run_recoverable(&all, |i| i * 3);
        let values: Vec<usize> = out.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(values, (0..8).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn recoverable_retries_flaky_jobs_to_success() {
        fault::quiet_injected_panics();
        let attempts: Vec<AtomicUsize> = (0..6).map(|_| AtomicUsize::new(0)).collect();
        let all: Vec<usize> = (0..6).collect();
        let out = TileExecutor::new(2).run_recoverable(&all, |i| {
            let n = attempts[i].fetch_add(1, Ordering::Relaxed);
            // Even tiles fail on their first attempt, then succeed.
            if i % 2 == 0 && n < 1 {
                panic!("{} flaky tile {i}", fault::INJECTED_PANIC_PREFIX);
            }
            i
        });
        for (i, r) in out.iter().enumerate() {
            assert_eq!(*r.as_ref().unwrap(), i);
        }
        for (i, a) in attempts.iter().enumerate() {
            let expected = if i % 2 == 0 { 2 } else { 1 };
            assert_eq!(a.load(Ordering::Relaxed), expected, "tile {i}");
        }
    }

    #[test]
    fn recoverable_surfaces_persistent_failures_without_aborting_others() {
        fault::quiet_injected_panics();
        let all: Vec<usize> = (0..10).collect();
        let out = TileExecutor::new(4).run_recoverable(&all, |i| {
            if i == 7 {
                panic!("{} always broken", fault::INJECTED_PANIC_PREFIX);
            }
            i * i
        });
        for (i, r) in out.iter().enumerate() {
            if i == 7 {
                let failure = r.as_ref().unwrap_err();
                assert_eq!(failure.tile, 7);
                assert_eq!(failure.attempts, 2);
                assert!(failure.message.contains("always broken"));
                assert!(failure.to_string().contains("after 2 attempts"));
            } else {
                assert_eq!(*r.as_ref().unwrap(), i * i);
            }
        }
    }

    #[test]
    fn recoverable_sequential_and_parallel_agree() {
        fault::quiet_injected_panics();
        let all: Vec<usize> = (0..9).collect();
        let run = |workers: usize| -> Vec<Result<usize, usize>> {
            TileExecutor::new(workers)
                .run_recoverable(&all, |i| {
                    if i % 4 == 1 {
                        panic!("{} tile {i}", fault::INJECTED_PANIC_PREFIX);
                    }
                    i
                })
                .into_iter()
                .map(|r| r.map_err(|f| f.tile))
                .collect()
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn recoverable_passes_tile_indices_and_reports_them_in_failures() {
        fault::quiet_injected_panics();
        let band = [4usize, 7, 11];
        let out = TileExecutor::new(2).run_recoverable(&band, |i| {
            if i == 7 {
                panic!("{} tile {i}", fault::INJECTED_PANIC_PREFIX);
            }
            i * 10
        });
        assert_eq!(*out[0].as_ref().unwrap(), 40);
        assert_eq!(out[1].as_ref().unwrap_err().tile, 7);
        assert_eq!(*out[2].as_ref().unwrap(), 110);
    }

    #[test]
    fn deadline_propagates_to_worker_threads() {
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        let _scope = tele::deadline::scope(Some(deadline));
        let seen = TileExecutor::new(4).run(8, |_| tele::deadline::current());
        assert!(seen.iter().all(|d| *d == Some(deadline)));
    }

    #[test]
    fn trace_propagates_to_worker_threads() {
        let (id, _scope) = tele::new_trace_scope();
        let seen = TileExecutor::new(4).run(8, |_| tele::current_trace());
        assert!(seen.iter().all(|t| *t == Some(id)), "{seen:?}");
    }

    #[test]
    fn stage_propagates_to_worker_threads() {
        let _scope = ilt_prof::stage_scope(ilt_prof::Stage::Refine);
        let seen = TileExecutor::new(4).run(8, |_| ilt_prof::current_stage());
        assert!(
            seen.iter().all(|s| *s == ilt_prof::Stage::Refine),
            "{seen:?}"
        );
    }

    #[test]
    fn scopes_of_different_fields_restore_independently() {
        use ilt_prof::{current_stage, stage_scope, Stage};
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        // A stage scope opened inside a deadline scope and dropped after it.
        let outer = tele::deadline::scope(Some(deadline));
        let inner = stage_scope(Stage::Fine);
        drop(outer);
        assert_eq!(tele::deadline::current(), None);
        assert_eq!(current_stage(), Stage::Fine, "stage outlives the deadline");
        drop(inner);
        assert_eq!(current_stage(), Stage::Untagged);
        assert_eq!(tele::deadline::current(), None);
        // And the other way round, with a trace scope in between.
        let outer = stage_scope(Stage::Coarse);
        let (id, trace) = tele::new_trace_scope();
        let inner = tele::deadline::scope(Some(deadline));
        drop(outer);
        assert_eq!(current_stage(), Stage::Untagged);
        assert_eq!(tele::deadline::current(), Some(deadline));
        assert_eq!(tele::current_trace(), Some(id));
        drop(inner);
        drop(trace);
        assert_eq!(tele::context::current(), tele::context::Context::default());
    }

    #[test]
    fn a_workers_install_restores_that_threads_previous_record() {
        let (outer_id, _outer_trace) = tele::new_trace_scope();
        let _outer_stage = ilt_prof::stage_scope(ilt_prof::Stage::Coarse);
        let submitted = tele::context::current();
        std::thread::spawn(move || {
            // This thread is already inside another job when it picks up
            // work for `submitted`.
            let (own_id, _own_trace) = tele::new_trace_scope();
            let _own_stage = ilt_prof::stage_scope(ilt_prof::Stage::Refine);
            let own = tele::context::current();
            {
                let _installed = tele::context::scope(|c| c, submitted);
                assert_eq!(tele::current_trace(), Some(outer_id));
                assert_eq!(ilt_prof::current_stage(), ilt_prof::Stage::Coarse);
            }
            assert_eq!(tele::context::current(), own);
            assert_eq!(tele::current_trace(), Some(own_id));
        })
        .join()
        .unwrap();
        assert_eq!(tele::context::current(), submitted);
    }
}
