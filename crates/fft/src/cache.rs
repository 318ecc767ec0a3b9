//! A process-wide plan cache: one [`FftPlan`] / [`RfftPlan`] per transform
//! length, shared behind an `Arc`, plus autotuned layout parameters.
//!
//! Plan construction is cheap (`O(n)`), but the workspace creates one
//! [`crate::Fft2d`] per simulator and a long-lived service creates
//! simulators per job — without sharing, every job would rebuild identical
//! twiddle tables. The caches are keyed by length only (plans are
//! direction-agnostic), live behind `OnceLock<Mutex<...>>`, and hand
//! out `Arc` clones, so a hit is one lock acquisition and one refcount
//! bump. Hits and misses feed the `fft.plan_cache.hit` / `.miss`
//! telemetry counters.
//!
//! ## Autotuning
//!
//! The 2-D transforms have two tunable layout knobs that matter on real
//! machines but have no effect on the computed values: the blocked
//! transpose tile edge and the number of rows handed to a pool worker per
//! work item. [`tuned_params`] measures the candidates once per
//! `(size, thread budget)` pair at first use and persists the winner here,
//! next to the plans it tunes for.
//!
//! Because the knobs only change *iteration order of data movement* and
//! *which worker runs which row*, any tuning outcome preserves the
//! bit-identity guarantees of the transforms.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::complex::Complex;
use crate::error::FftError;
use crate::fft2d::{transpose_square_block, DEFAULT_ROW_BATCH, DEFAULT_TRANSPOSE_BLOCK};
use crate::plan::{Direction, FftPlan};
use crate::rfft::RfftPlan;

static PLANS: OnceLock<Mutex<HashMap<usize, Arc<FftPlan>>>> = OnceLock::new();
static RPLANS: OnceLock<Mutex<HashMap<usize, Arc<RfftPlan>>>> = OnceLock::new();
static TUNED: OnceLock<Mutex<HashMap<(usize, usize), TunedParams>>> = OnceLock::new();

/// Returns the shared plan for transforms of length `len`, building it on
/// first use.
///
/// # Errors
///
/// Returns [`FftError::NonPowerOfTwo`] for invalid lengths (never cached).
pub fn shared_plan(len: usize) -> Result<Arc<FftPlan>, FftError> {
    let cache = PLANS.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(plan) = map.get(&len) {
        ilt_telemetry::counter_add("fft.plan_cache.hit", 1);
        return Ok(Arc::clone(plan));
    }
    // Build while holding the lock: construction is O(n) and racing
    // builders would waste more than they save.
    let plan = Arc::new(FftPlan::new(len)?);
    map.insert(len, Arc::clone(&plan));
    ilt_telemetry::counter_add("fft.plan_cache.miss", 1);
    Ok(plan)
}

/// Returns the shared real-input plan for transforms of real length `len`,
/// building it on first use. The embedded half-length complex plan comes
/// from [`shared_plan`], so the twiddle tables are shared with any complex
/// transforms of the same length.
///
/// # Errors
///
/// Returns [`FftError::NonPowerOfTwo`] for lengths that are not a power of
/// two of at least 2 (never cached).
pub fn shared_rplan(len: usize) -> Result<Arc<RfftPlan>, FftError> {
    let cache = RPLANS.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(plan) = map.get(&len) {
        ilt_telemetry::counter_add("fft.plan_cache.hit", 1);
        return Ok(Arc::clone(plan));
    }
    let plan = Arc::new(RfftPlan::new(len)?);
    map.insert(len, Arc::clone(&plan));
    ilt_telemetry::counter_add("fft.plan_cache.miss", 1);
    Ok(plan)
}

/// Number of distinct plans currently cached across both the complex and
/// real caches (diagnostics only).
pub fn cached_plan_count() -> usize {
    let complex = PLANS
        .get()
        .map(|c| c.lock().unwrap_or_else(|e| e.into_inner()).len())
        .unwrap_or(0);
    let real = RPLANS
        .get()
        .map(|c| c.lock().unwrap_or_else(|e| e.into_inner()).len())
        .unwrap_or(0);
    complex + real
}

/// Estimated resident bytes of all cached plans: the complex plans' full
/// tables plus the real plans' post-processing tables. A real plan's
/// embedded half-length complex plan lives in the complex cache, so it is
/// counted exactly once. Diagnostics only (`/debug/caches`).
pub fn cached_plan_bytes() -> u64 {
    let complex: u64 = PLANS
        .get()
        .map(|c| {
            c.lock()
                .unwrap_or_else(|e| e.into_inner())
                .values()
                .map(|plan| plan.estimated_bytes())
                .sum()
        })
        .unwrap_or(0);
    let real: u64 = RPLANS
        .get()
        .map(|c| {
            c.lock()
                .unwrap_or_else(|e| e.into_inner())
                .values()
                .map(|plan| plan.estimated_bytes())
                .sum()
        })
        .unwrap_or(0);
    complex + real
}

/// Layout parameters tuned per `(transform size, inner-thread budget)`.
///
/// Both knobs affect only memory traffic and work distribution, never the
/// arithmetic, so any value yields bit-identical transform results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TunedParams {
    /// Edge length of the blocked-transpose tiles.
    pub block: usize,
    /// Rows per pooled work item in batched 1-D row passes.
    pub row_batch: usize,
}

impl Default for TunedParams {
    fn default() -> Self {
        TunedParams {
            block: DEFAULT_TRANSPOSE_BLOCK,
            row_batch: DEFAULT_ROW_BATCH,
        }
    }
}

/// Returns the tuned layout parameters for square `n x n` transforms under
/// an inner-thread budget of `threads`, measuring the candidates on first
/// use and persisting the winner for the life of the process. Each actual
/// measurement bumps the `fft.autotune.runs` counter.
pub fn tuned_params(n: usize, threads: usize) -> TunedParams {
    let key = (n, threads.max(1));
    let cache = TUNED.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(p) = cache.lock().unwrap_or_else(|e| e.into_inner()).get(&key) {
        return *p;
    }
    // Measure without holding the lock: autotuning runs transforms, and a
    // worker thread doing the same could otherwise deadlock on re-entry.
    let params = measure_params(n, key.1);
    cache
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(key, params);
    params
}

/// Snapshot of every tuned `(size, threads) -> params` entry, sorted, for
/// report emission.
pub fn tuned_summary() -> Vec<(usize, usize, TunedParams)> {
    let mut out: Vec<(usize, usize, TunedParams)> = TUNED
        .get()
        .map(|c| {
            c.lock()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .map(|(&(n, t), &p)| (n, t, p))
                .collect()
        })
        .unwrap_or_default();
    out.sort_unstable_by_key(|&(n, t, _)| (n, t));
    out
}

fn measure_params(n: usize, threads: usize) -> TunedParams {
    let mut params = TunedParams::default();
    if n < 2 {
        return params;
    }
    ilt_telemetry::counter_add("fft.autotune.runs", 1);
    let mut buf: Vec<Complex> = (0..n * n)
        .map(|i| Complex::new(i as f64 * 0.37, i as f64 * 0.11))
        .collect();
    let mut best = (f64::INFINITY, params.block);
    for cand in [16usize, 32, 64] {
        let cand = cand.min(n);
        // One warmup sweep, then best-of-3 timed sweeps.
        transpose_square_block(&mut buf, n, cand);
        let mut fastest = f64::INFINITY;
        for _ in 0..3 {
            let t0 = Instant::now();
            transpose_square_block(&mut buf, n, cand);
            fastest = fastest.min(t0.elapsed().as_secs_f64());
        }
        if fastest < best.0 {
            best = (fastest, cand);
        }
        if cand == n {
            break;
        }
    }
    params.block = best.1;
    // Row batching only matters when a pool actually splits the rows.
    if threads > 1 {
        if let Ok(plan) = shared_plan(n) {
            let pool = ilt_par::InnerPool::new(threads);
            let mut best = (f64::INFINITY, params.row_batch);
            for cand in [1usize, 2, 4] {
                if cand > n {
                    break;
                }
                let run = |data: &mut [Complex]| {
                    pool.for_each_chunk_mut(data, n * cand, |_, rows| {
                        for row in rows.chunks_exact_mut(n) {
                            plan.transform(row, Direction::Forward)
                                .expect("row length matches plan by construction");
                        }
                    });
                };
                run(&mut buf); // warmup
                let mut fastest = f64::INFINITY;
                for _ in 0..3 {
                    let t0 = Instant::now();
                    run(&mut buf);
                    fastest = fastest.min(t0.elapsed().as_secs_f64());
                }
                if fastest < best.0 {
                    best = (fastest, cand);
                }
            }
            params.row_batch = best.1;
        }
    }
    params
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_length_shares_one_plan() {
        let a = shared_plan(64).unwrap();
        let b = shared_plan(64).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.len(), 64);
        assert!(cached_plan_count() >= 1);
        // Bit reversal: the 28 swaps of the 56 non-palindromic indices and
        // the 16-quad read order; stage-major twiddles: (64 - 4) complex
        // values per direction.
        assert_eq!(a.estimated_bytes(), 28 * 8 + 16 * 4 + 2 * (64 - 4) * 16);
        assert!(cached_plan_bytes() >= a.estimated_bytes());
    }

    #[test]
    fn same_length_shares_one_rplan() {
        let a = shared_rplan(64).unwrap();
        let b = shared_rplan(64).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.len(), 64);
        // The rplan's own tables (not the shared half plan) are counted.
        assert!(cached_plan_bytes() >= a.estimated_bytes());
    }

    #[test]
    fn invalid_lengths_error_and_are_not_cached() {
        assert!(shared_plan(12).is_err());
        assert!(shared_rplan(12).is_err());
        assert!(shared_rplan(1).is_err());
        let before = cached_plan_count();
        assert!(shared_plan(12).is_err());
        assert_eq!(cached_plan_count(), before);
    }

    #[test]
    fn shared_plan_transforms_like_a_fresh_plan() {
        use crate::complex::Complex;
        let shared = shared_plan(32).unwrap();
        let fresh = FftPlan::new(32).unwrap();
        let data: Vec<Complex> = (0..32)
            .map(|i| Complex::new((i as f64 * 0.3).sin(), (i as f64 * 0.7).cos()))
            .collect();
        let mut a = data.clone();
        let mut b = data;
        shared.forward(&mut a).unwrap();
        fresh.forward(&mut b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn tuned_params_are_cached_and_sane() {
        let a = tuned_params(32, 1);
        let b = tuned_params(32, 1);
        assert_eq!(a, b);
        assert!(a.block >= 1 && a.block <= 64);
        assert!(a.row_batch >= 1);
        assert!(tuned_summary()
            .iter()
            .any(|&(n, t, p)| { n == 32 && t == 1 && p == a }));
    }

    #[test]
    fn tuned_params_with_threads_pick_valid_batch() {
        let p = tuned_params(16, 2);
        assert!(p.row_batch >= 1 && 16 % p.row_batch == 0);
    }
}
