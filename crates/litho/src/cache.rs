//! A process-wide kernel-bank cache: one [`LithoBank`] per distinct
//! (optics, resist) parameter set, shared behind an `Arc`.
//!
//! Building a bank means constructing the Hopkins TCC Gram matrix and
//! eigendecomposing it twice (nominal + defocused) — by far the most
//! expensive one-time step in the pipeline. Batch binaries amortise it by
//! building once per process; a long-lived job service must amortise it
//! across *jobs*, which is what this cache does: the first job for a given
//! optical setup pays the eigendecomposition, every later identical job is
//! a `HashMap` hit and an `Arc` clone. Hits and misses feed the
//! `litho.bank_cache.hit` / `litho.bank_cache.miss` telemetry counters —
//! the loopback test in `ilt-serve` asserts warm jobs skip construction
//! entirely by watching them.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::error::LithoError;
use crate::optics::OpticsConfig;
use crate::resist::ResistModel;
use crate::system::LithoBank;

/// Bit-exact cache key over every parameter that shapes the kernels.
///
/// `f64` fields are keyed by their bit patterns: two configurations hash
/// equal exactly when every parameter is bit-identical, which is the right
/// notion for memoisation (no tolerance surprises, `NaN` never matches
/// itself is irrelevant because [`OpticsConfig::validate`] rejects it).
#[derive(PartialEq, Eq, Hash)]
struct BankKey {
    base_n: usize,
    pupil_radius_bins: u64,
    sigma_inner: u64,
    sigma_outer: u64,
    source_step_bins: u64,
    defocus_edge_phase: u64,
    kernel_count: usize,
    resist_threshold: u64,
    resist_steepness: u64,
}

impl BankKey {
    fn new(config: &OpticsConfig, resist: &ResistModel) -> Self {
        BankKey {
            base_n: config.base_n,
            pupil_radius_bins: config.pupil_radius_bins.to_bits(),
            sigma_inner: config.sigma_inner.to_bits(),
            sigma_outer: config.sigma_outer.to_bits(),
            source_step_bins: config.source_step_bins.to_bits(),
            defocus_edge_phase: config.defocus_edge_phase.to_bits(),
            kernel_count: config.kernel_count,
            resist_threshold: resist.threshold.to_bits(),
            resist_steepness: resist.steepness.to_bits(),
        }
    }
}

static BANKS: OnceLock<Mutex<HashMap<BankKey, Arc<LithoBank>>>> = OnceLock::new();

/// Returns the shared kernel bank for the given parameters, building it on
/// first use.
///
/// The build runs *outside* the cache lock (it can take seconds), so
/// concurrent first requests for the same key may race and both build; the
/// first to finish wins and the loser's bank is dropped. That wastes one
/// build in the worst case but never blocks readers of other keys behind a
/// long eigendecomposition.
///
/// # Errors
///
/// Returns [`LithoError::KernelConstruction`] if the TCC decomposition
/// fails (never cached).
pub fn shared_bank(
    config: &OpticsConfig,
    resist: ResistModel,
) -> Result<Arc<LithoBank>, LithoError> {
    let cache = BANKS.get_or_init(|| Mutex::new(HashMap::new()));
    let key = BankKey::new(config, &resist);
    if let Some(bank) = cache
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .get(&key)
        .map(Arc::clone)
    {
        ilt_telemetry::counter_add("litho.bank_cache.hit", 1);
        return Ok(bank);
    }
    let mut build = ilt_telemetry::span(ilt_telemetry::names::BUILD);
    build.add_field("what", "kernel_bank");
    let built = Arc::new(LithoBank::new(*config, resist)?);
    drop(build);
    let mut map = cache.lock().unwrap_or_else(|e| e.into_inner());
    let bank = map
        .entry(BankKey::new(config, &resist))
        .or_insert_with(|| Arc::clone(&built));
    ilt_telemetry::counter_add("litho.bank_cache.miss", 1);
    Ok(Arc::clone(bank))
}

/// Number of distinct parameter sets currently cached (diagnostics only).
pub fn cached_bank_count() -> usize {
    BANKS
        .get()
        .map(|c| c.lock().unwrap_or_else(|e| e.into_inner()).len())
        .unwrap_or(0)
}

/// Estimated resident bytes of all cached banks (sum of
/// [`LithoBank::estimated_bytes`]; diagnostics only).
pub fn cached_bank_bytes() -> u64 {
    BANKS
        .get()
        .map(|c| {
            c.lock()
                .unwrap_or_else(|e| e.into_inner())
                .values()
                .map(|bank| bank.estimated_bytes())
                .sum()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_parameters_share_one_bank() {
        let config = OpticsConfig::test_small();
        let a = shared_bank(&config, ResistModel::m1_default()).unwrap();
        let b = shared_bank(&config, ResistModel::m1_default()).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(cached_bank_count() >= 1);
        // A set holds one P x P spectrum per kernel and one table per slot:
        // the nominal kernels pair up (K / 2 slots), the defocused ones
        // cannot (K slots).
        let (k, p) = (a.config().kernel_count, a.config().kernel_support());
        let tables = (k + k / 2) + (k + k);
        assert!(cached_bank_bytes() >= a.estimated_bytes());
        assert_eq!(a.estimated_bytes(), (tables * p * p * 16) as u64);
    }

    #[test]
    fn different_parameters_get_distinct_banks() {
        let config = OpticsConfig::test_small();
        let a = shared_bank(&config, ResistModel::m1_default()).unwrap();
        let mut other = config;
        other.kernel_count = config.kernel_count.saturating_sub(1).max(1);
        let b = shared_bank(&other, ResistModel::m1_default()).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        // Resist parameters are part of the key too: the same optics with a
        // different threshold is a different bank.
        let resist = ResistModel {
            threshold: 0.41,
            ..ResistModel::m1_default()
        };
        let c = shared_bank(&config, resist).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn cached_bank_behaves_like_a_fresh_bank() {
        let config = OpticsConfig::test_small();
        let cached = shared_bank(&config, ResistModel::m1_default()).unwrap();
        let fresh = LithoBank::new(config, ResistModel::m1_default()).unwrap();
        let sys_cached = cached.system(64, 1).unwrap();
        let sys_fresh = fresh.system(64, 1).unwrap();
        let mut mask = ilt_grid::Grid::new(64, 64, 0.0);
        mask.fill_rect(ilt_grid::Rect::new(20, 20, 44, 44), 1.0);
        let a = sys_cached.print(&mask, crate::Corner::Nominal).unwrap();
        let b = sys_fresh.print(&mask, crate::Corner::Nominal).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
    }
}
