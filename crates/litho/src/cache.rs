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

/// One key's slot: the bank once built, and the lock its one builder holds
/// while building, so callers for other keys never wait on it.
#[derive(Default)]
struct Entry {
    bank: OnceLock<Arc<LithoBank>>,
    build: Mutex<()>,
}

static BANKS: OnceLock<Mutex<HashMap<BankKey, Arc<Entry>>>> = OnceLock::new();

fn banks() -> std::sync::MutexGuard<'static, HashMap<BankKey, Arc<Entry>>> {
    BANKS
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Returns the shared kernel bank for the given parameters, building it on
/// first use.
///
/// The build is single-flight per key: the first caller builds (it can take
/// seconds) while concurrent callers for the same key wait for it and count
/// a hit. The cache-wide lock is held only to find the key's entry, so
/// callers for other keys are never blocked behind a long
/// eigendecomposition.
///
/// # Errors
///
/// Returns [`LithoError::KernelConstruction`] if the TCC decomposition
/// fails (never cached: the next caller builds again).
pub fn shared_bank(
    config: &OpticsConfig,
    resist: ResistModel,
) -> Result<Arc<LithoBank>, LithoError> {
    get_or_build(BankKey::new(config, &resist), || {
        LithoBank::new(*config, resist)
    })
}

fn get_or_build(
    key: BankKey,
    build: impl FnOnce() -> Result<LithoBank, LithoError>,
) -> Result<Arc<LithoBank>, LithoError> {
    let entry = Arc::clone(banks().entry(key).or_default());
    let hit = |bank: &Arc<LithoBank>| {
        ilt_telemetry::counter_add("litho.bank_cache.hit", 1);
        Ok(Arc::clone(bank))
    };
    if let Some(bank) = entry.bank.get() {
        return hit(bank);
    }
    let _building = entry.build.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(bank) = entry.bank.get() {
        return hit(bank);
    }
    let mut span = ilt_telemetry::span(ilt_telemetry::names::BUILD);
    span.add_field("what", "kernel_bank");
    let bank = Arc::new(build()?);
    drop(span);
    ilt_telemetry::counter_add("litho.bank_cache.miss", 1);
    Ok(Arc::clone(entry.bank.get_or_init(|| bank)))
}

/// The banks built so far (an entry whose build is running or failed has
/// none).
fn built_banks() -> Vec<Arc<LithoBank>> {
    banks()
        .values()
        .filter_map(|entry| entry.bank.get().map(Arc::clone))
        .collect()
}

/// Number of distinct parameter sets currently cached (diagnostics only).
pub fn cached_bank_count() -> usize {
    built_banks().len()
}

/// Estimated resident bytes of all cached banks (sum of
/// [`LithoBank::estimated_bytes`]; diagnostics only).
pub fn cached_bank_bytes() -> u64 {
    built_banks()
        .iter()
        .map(|bank| bank.estimated_bytes())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Barrier};
    use std::time::Duration;

    /// A key no other test builds: the resist threshold is part of it.
    fn fresh(threshold: f64) -> (OpticsConfig, ResistModel) {
        let resist = ResistModel {
            threshold,
            ..ResistModel::m1_default()
        };
        (OpticsConfig::test_small(), resist)
    }

    #[test]
    fn concurrent_first_requests_build_once() {
        let (config, resist) = fresh(0.4321);
        let builds = AtomicUsize::new(0);
        let barrier = Barrier::new(2);
        let request = || {
            barrier.wait();
            get_or_build(BankKey::new(&config, &resist), || {
                builds.fetch_add(1, Ordering::SeqCst);
                // Outlasts the other request's lookup, so before builds were
                // single-flight both requests built. Correctness does not
                // depend on it: whatever the timing, one build is allowed.
                std::thread::sleep(Duration::from_millis(50));
                LithoBank::new(config, resist)
            })
            .unwrap()
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(request);
            let b = s.spawn(request);
            (a.join().unwrap(), b.join().unwrap())
        });
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(builds.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn other_keys_do_not_wait_for_a_running_build() {
        let (config, slow) = fresh(0.4322);
        let (_, other) = fresh(0.4323);
        let (started_tx, started) = mpsc::channel();
        let (release, released) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            s.spawn(move || {
                get_or_build(BankKey::new(&config, &slow), || {
                    started_tx.send(()).unwrap();
                    released
                        .recv_timeout(Duration::from_secs(30))
                        .expect("the other key's request was blocked");
                    LithoBank::new(config, slow)
                })
                .unwrap()
            });
            started.recv().unwrap();
            shared_bank(&config, other).unwrap();
            release.send(()).unwrap();
        });
    }

    #[test]
    fn failed_builds_are_not_cached() {
        let (config, resist) = fresh(0.4324);
        let key = || BankKey::new(&config, &resist);
        let failed = get_or_build(key(), || {
            Err(LithoError::KernelConstruction {
                reason: "injected".to_string(),
            })
        });
        assert!(failed.is_err());
        assert!(get_or_build(key(), || LithoBank::new(config, resist)).is_ok());
    }

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
        // Counted on a bank of its own: the shared one also holds the
        // resampled sets of every scale other tests asked it for.
        let (k, p) = (a.config().kernel_count, a.config().kernel_support());
        let tables = (k + k / 2) + (k + k);
        // A bank's memo only grows, and other tests grow this one's
        // concurrently: read the bank before the cache-wide sum.
        let shared = a.estimated_bytes();
        assert!(cached_bank_bytes() >= shared);
        let own = LithoBank::new(config, ResistModel::m1_default()).unwrap();
        assert_eq!(own.estimated_bytes(), (tables * p * p * 16) as u64);
        // A scale's slot tables at f32 join it; the resampled f64 sets
        // join them once somebody asks to see them.
        let system = own.system(config.base_n, 1).unwrap();
        let f32_tables = (k / 2 + k) * p * p * 8;
        assert_eq!(
            own.estimated_bytes(),
            (tables * p * p * 16 + f32_tables) as u64
        );
        assert_eq!(system.simulator().kernels().len(), k);
        let nominal_set = (k + k / 2) * p * p * 16;
        assert_eq!(
            own.estimated_bytes(),
            (tables * p * p * 16 + f32_tables + nominal_set) as u64
        );
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
