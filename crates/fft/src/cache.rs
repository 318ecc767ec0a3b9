//! A process-wide plan cache: one [`FftPlan`] / [`RfftPlan`] per element
//! type and transform length, shared behind an `Arc`.
//!
//! Plan construction is cheap (`O(n)`), but the workspace creates one
//! [`crate::Fft2d`] per simulator and a long-lived service creates
//! simulators per job — without sharing, every job would rebuild identical
//! twiddle tables. The caches are keyed by element type and length (plans
//! are direction-agnostic), live behind `OnceLock<Mutex<...>>`, and hand
//! out `Arc` clones, so a hit is one lock acquisition and one refcount
//! bump. Hits and misses feed the `fft.plan_cache.hit` / `.miss`
//! telemetry counters.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::complex::Float;
use crate::error::FftError;
use crate::fft2d::TRANSPOSE_BLOCK;
use crate::plan::FftPlan;
use crate::rfft::RfftPlan;

/// A cached plan of either element type, with its estimated bytes.
type Entry = (Arc<dyn Any + Send + Sync>, u64);
/// One cache: plans keyed by element type and length.
type Cache = Mutex<HashMap<(TypeId, usize), Entry>>;

static PLANS: OnceLock<Cache> = OnceLock::new();
static RPLANS: OnceLock<Cache> = OnceLock::new();

/// The plan of element type `T` and length `len` from `cache`, built by
/// `build` (and counted a miss) on first use.
fn get_or_build<P: Send + Sync + 'static, T: Float>(
    cache: &'static OnceLock<Cache>,
    len: usize,
    build: impl FnOnce() -> Result<P, FftError>,
    bytes: impl FnOnce(&P) -> u64,
) -> Result<Arc<P>, FftError> {
    let cache = cache.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().unwrap_or_else(|e| e.into_inner());
    let key = (TypeId::of::<T>(), len);
    if let Some((plan, _)) = map.get(&key) {
        ilt_telemetry::counter_add("fft.plan_cache.hit", 1);
        return Ok(Arc::clone(plan)
            .downcast()
            .expect("entries are keyed by their element type"));
    }
    // Build while holding the lock: construction is O(n) and racing
    // builders would waste more than they save.
    let plan = Arc::new(build()?);
    let size = bytes(&plan);
    map.insert(key, (Arc::clone(&plan) as Arc<dyn Any + Send + Sync>, size));
    ilt_telemetry::counter_add("fft.plan_cache.miss", 1);
    Ok(plan)
}

/// Returns the shared plan for transforms of length `len` in element type
/// `T`, building it on first use.
///
/// # Errors
///
/// Returns [`FftError::NonPowerOfTwo`] for invalid lengths (never cached).
pub fn shared_plan<T: Float>(len: usize) -> Result<Arc<FftPlan<T>>, FftError> {
    get_or_build::<_, T>(&PLANS, len, || FftPlan::new(len), FftPlan::estimated_bytes)
}

/// Returns the shared real-input plan for transforms of real length `len`
/// in element type `T`, building it on first use. The embedded
/// half-length complex plan comes from [`shared_plan`], so the twiddle
/// tables are shared with any complex transforms of the same length and
/// type.
///
/// # Errors
///
/// Returns [`FftError::NonPowerOfTwo`] for lengths that are not a power of
/// two of at least 2 (never cached).
pub fn shared_rplan<T: Float>(len: usize) -> Result<Arc<RfftPlan<T>>, FftError> {
    get_or_build::<_, T>(
        &RPLANS,
        len,
        || RfftPlan::new(len),
        RfftPlan::estimated_bytes,
    )
}

/// The entries of one cache, folded.
fn fold_entries<A>(cache: &OnceLock<Cache>, init: A, f: impl Fn(A, &Entry) -> A) -> A {
    match cache.get() {
        Some(c) => c
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .fold(init, f),
        None => init,
    }
}

/// Number of distinct plans currently cached across both the complex and
/// real caches and both element types (diagnostics only).
pub fn cached_plan_count() -> usize {
    [&PLANS, &RPLANS]
        .into_iter()
        .map(|cache| fold_entries(cache, 0, |n, _| n + 1))
        .sum()
}

/// Estimated resident bytes of all cached plans: the complex plans' full
/// tables plus the real plans' post-processing tables. A real plan's
/// embedded half-length complex plan lives in the complex cache, so it is
/// counted exactly once. Diagnostics only (`/debug/caches`).
pub fn cached_plan_bytes() -> u64 {
    [&PLANS, &RPLANS]
        .into_iter()
        .map(|cache| fold_entries(cache, 0, |sum, (_, bytes)| sum + bytes))
        .sum()
}

/// The layout constants of the 2-D transforms, in the shape run records
/// print them.
///
/// Both affect only memory traffic and work distribution, never the
/// arithmetic. They were once timed at first use per `(size, thread
/// budget)`; the candidates differed by less than that timing's noise (one
/// session recorded both 16 and 32 for each of 64, 256 and 512), so they
/// are constants now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TunedParams {
    /// Edge length of the blocked-transpose tiles.
    pub block: usize,
    /// Rows per work item in the 2-D row passes: always 1, the passes run
    /// row by row on the calling thread. Kept because run records print it.
    pub row_batch: usize,
}

/// The layout constants as `(size, threads, params)` entries for report
/// emission: one entry, whose size and thread budget of `0` stand for
/// "any" — no size or budget changes them.
pub fn tuned_summary() -> Vec<(usize, usize, TunedParams)> {
    let fixed = TunedParams {
        block: TRANSPOSE_BLOCK,
        row_batch: 1,
    };
    vec![(0, 0, fixed)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_length_shares_one_plan() {
        let a = shared_plan::<f64>(64).unwrap();
        let b = shared_plan::<f64>(64).unwrap();
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
        let a = shared_rplan::<f64>(64).unwrap();
        let b = shared_rplan::<f64>(64).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.len(), 64);
        // The rplan's own tables (not the shared half plan) are counted.
        assert!(cached_plan_bytes() >= a.estimated_bytes());
    }

    #[test]
    fn invalid_lengths_error_and_are_not_cached() {
        assert!(shared_plan::<f64>(12).is_err());
        assert!(shared_rplan::<f64>(12).is_err());
        assert!(shared_rplan::<f64>(1).is_err());
        let before = cached_plan_count();
        assert!(shared_plan::<f64>(12).is_err());
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
    fn each_element_type_has_its_own_plan() {
        let wide = shared_plan::<f64>(128).unwrap();
        let narrow = shared_plan::<f32>(128).unwrap();
        assert_eq!((wide.len(), narrow.len()), (128, 128));
        assert!(Arc::ptr_eq(&narrow, &shared_plan::<f32>(128).unwrap()));
        // Same tables at half the width.
        // 56 swaps, 32 quad starts, (128 - 4) twiddles per direction.
        assert_eq!(
            narrow.estimated_bytes(),
            56 * 8 + 32 * 4 + 2 * (128 - 4) * 8
        );
        assert!(cached_plan_bytes() >= wide.estimated_bytes() + narrow.estimated_bytes());
    }

    #[test]
    fn tuned_summary_reports_the_constants() {
        let [(_, _, params)] = tuned_summary()[..] else {
            panic!("one entry for every size");
        };
        assert_eq!(params.block, TRANSPOSE_BLOCK);
        assert_eq!(params.row_batch, 1);
    }
}
